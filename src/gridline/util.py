"""Small shared helpers: UTC hour keys and CSV plumbing."""

from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

HOUR = timedelta(hours=1)


def parse_hour(text: str) -> datetime:
    """Parse a UTC hour key such as ``2016-01-01T07:00:00Z``.

    Accepts ISO-8601 with or without seconds, a trailing ``Z`` or an
    explicit offset; naive timestamps are taken as UTC. Minutes and
    seconds must be zero (all series are hourly).
    """
    raw = text.strip()
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    stamp = stamp.astimezone(timezone.utc)
    if stamp.minute or stamp.second or stamp.microsecond:
        raise ValueError(f"timestamp {text!r} is not on an hour boundary")
    return stamp


def format_hour(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def check_span(first: datetime, last: datetime) -> None:
    """Refuse an inclusive hour span that ends before it starts."""
    if last < first:
        raise ValueError(f"hour span {format_hour(first)}..{format_hour(last)} "
                         "ends before it starts")


def hour_range(first: datetime, last: datetime) -> list[datetime]:
    """Inclusive contiguous hourly range."""
    check_span(first, last)
    n = int((last - first) / HOUR) + 1
    return [first + i * HOUR for i in range(n)]


def read_rows(path: Path, required: list[str]):
    """Yield (row_number, dict) from a headered CSV.

    Row numbers are 1-based counting data rows only, matching the error
    reporting convention used by the loaders.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for number, row in enumerate(reader, start=1):
            yield number, row


def render_floats(values):
    """Each value as the ``repr`` of a Python float: the shortest text that
    reads back to the same number. Identical numeric results thus
    serialize to identical bytes regardless of worker count or platform
    scheduling. (A numpy scalar's own ``repr`` is ``np.float64(...)``.)"""
    return map(repr, np.asarray(values, dtype=float).tolist())


def open_csv(path: Path, header: list[str]):
    """``path`` open for writing after its header line, its directory made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "w", newline="", encoding="utf-8")
    handle.write(",".join(map(str, header)) + "\n")
    return handle


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and rows whose cells are already rendered: floats as
    ``render_floats`` text, other cells as strings or ints."""
    with open_csv(path, header) as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
