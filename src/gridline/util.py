"""Small shared helpers: UTC hour keys and CSV plumbing."""

from __future__ import annotations

import csv
import warnings
from datetime import datetime, timedelta, timezone
from itertools import zip_longest
from pathlib import Path

import numpy as np

HOUR = timedelta(hours=1)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


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


def hour_number(text: str) -> int:
    """Hours from 1970-01-01T00:00:00Z to the hour key ``text``."""
    return (parse_hour(text) - EPOCH) // HOUR


def hour_at(number) -> datetime:
    """The hour ``number`` hours after 1970-01-01T00:00:00Z."""
    return EPOCH + int(number) * HOUR


def parse_each(texts, parse) -> tuple[np.ndarray, np.ndarray]:
    """``parse`` of each text as int64, 0 where it raised ValueError or
    OverflowError or gave None, and a mask of the texts that parsed."""
    values = []
    for text in texts:
        try:
            values.append(parse(text))
        except (ValueError, OverflowError):
            values.append(None)
    parsed = np.array([v is not None for v in values], dtype=bool)
    return np.array([v or 0 for v in values], dtype=np.int64), parsed


def first_repeat(*keys: np.ndarray) -> int | None:
    """Index of the first entry whose keys all equal (``==``) those of an
    earlier entry, or None."""
    order = np.lexsort(keys)  # stable, so each run of equal entries is in index order
    later, earlier = order[1:], order[:-1]
    same = np.logical_and.reduce([key[later] == key[earlier] for key in keys])
    return int(later[same].min()) if same.any() else None


def format_hour(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def check_span(first: datetime, last: datetime) -> None:
    """Refuse an inclusive hour span that ends before it starts."""
    if last < first:
        raise ValueError(f"hour span {format_hour(first)}..{format_hour(last)} "
                         "ends before it starts")


def read_table(path: Path, required: list[str]):
    """Yield, once, the header of a headered CSV that has every ``required``
    column and an iterator over its data rows as lists of cells. Blank
    lines are skipped. The file stays open until the generator resumes.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        yield header, filter(None, reader)


class _Codes(dict):
    """Text -> position in order of first appearance; a text not yet seen
    is given the next position. Looking up a seen text runs no Python."""

    def __missing__(self, text):
        code = self[text] = len(self)
        return code


def read_columns(path: Path, header: list[str], dtypes: dict):
    """The ``time`` column and the ``dtypes`` columns (name -> dtype) of
    the headered CSV ``path``, whose header ``read_table`` gave as
    ``header``, read in one pass by numpy's C reader: the distinct ``time``
    texts in order of first appearance, and a structured array holding for
    each row the position of its ``time`` text among them and its
    ``dtypes`` values. None where numpy refuses the file (or warns), for
    the caller to read it row by row.

    numpy splits rows as ``read_table`` does (``"`` quoting with doubled
    quotes, LF, CR or CRLF line ends, blank lines skipped, extra cells
    ignored), passes text cells on as they are, and reads a subset of the
    numbers that ``float()`` and ``int()`` read, to the same values: it
    refuses ``1_000``, non-ASCII digits, ints beyond int64 and ``7.0`` for
    an int.
    """
    if any("\n" in cell or "\r" in cell for cell in header):
        return None  # ``skiprows`` counts lines, not rows
    position = {column: k for k, column in enumerate(header)}
    texts = _Codes()
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle, \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                handle, dtype=[("time", np.int64), *dtypes.items()], delimiter=",", skiprows=1,
                quotechar='"', comments=None, ndmin=1,
                usecols=[position[column] for column in ("time", *dtypes)],
                # numpy < 2 defaults to encoding="bytes", which hands converters
                # latin1 bytes instead of the text cells
                encoding=None, converters={position["time"]: texts.__getitem__})
    except (ValueError, Warning):
        return None
    return list(texts), table


def read_rows(path: Path, required: list[str]):
    """Yield (row_number, dict) from a headered CSV; the cells a short row
    lacks read None.

    Row numbers are 1-based counting data rows only, matching the error
    reporting convention used by the loaders.
    """
    for header, rows in read_table(path, required):
        for number, cells in enumerate(rows, start=1):
            yield number, dict(zip_longest(header, cells))


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
