"""Small shared helpers: UTC hour keys, CSV plumbing and the run defaults."""

from __future__ import annotations

import csv
import warnings
from array import array
from datetime import datetime, timedelta, timezone
from itertools import zip_longest
from pathlib import Path

import numpy as np

HOUR = timedelta(hours=1)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# the run defaults live here, so that the CLI shows them without loading the solver
DEFAULT_PENALTY = 2000.0  # $/MWh on contingency-row violations
DEFAULT_MAX_ITERATIONS = 20
DEFAULT_EMISSION_FACTORS = {"coal": 1.0, "natural_gas": 0.42}  # tons CO2 / MWh


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


def parse_rows(texts, code, parse, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """Each row's value as ``dtype`` and whether it parsed: ``parse`` of each
    distinct text in ``texts`` once, gathered to the rows by ``code``, each
    row's position in ``texts``. A text whose ``parse`` raised ValueError or
    OverflowError or gave None reads 0 and did not parse."""
    try:
        values = list(map(parse, texts))  # the usual case: every text parses
    except (ValueError, OverflowError):
        values = []
        for text in texts:
            try:
                values.append(parse(text))
            except (ValueError, OverflowError):
                values.append(None)
    if None not in values:
        return np.array(values, dtype=dtype)[code], np.ones(len(code), dtype=bool)
    parsed = np.array([v is not None for v in values], dtype=bool)
    return np.array([0 if v is None else v for v in values], dtype=dtype)[code], parsed[code]


def first_fault(valid: np.ndarray, complete: bool, *keys: np.ndarray) -> tuple[int, bool] | None:
    """The first faulty row of a table read up to its first unread row, as
    (position, repeated), or None. A row is faulty when it is not ``valid``,
    when its ``keys`` all equal (``==``) those of an earlier valid row
    (``repeated``), or when it is the row after the last one read and
    ``complete`` is False. Rows past the first invalid one are not looked at."""
    n = len(valid) if valid.all() else int(np.argmin(valid))
    head = [key[:n] for key in keys]
    order = np.lexsort(head)  # stable, so each run of equal rows is in row order
    later, earlier = order[1:], order[:-1]
    same = np.logical_and.reduce([key[later] == key[earlier] for key in head])
    if same.any():
        return int(later[same].min()), True
    return (n, False) if n < len(valid) or not complete else None


def format_hour(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def check_span(first: datetime, last: datetime) -> None:
    """Refuse an inclusive hour span that ends before it starts."""
    if last < first:
        raise ValueError(f"hour span {format_hour(first)}..{format_hour(last)} "
                         "ends before it starts")


def _header(reader, required: list[str]) -> list[str]:
    """The first row of ``reader``, which must name every ``required`` column.
    A header that the ``csv`` module cannot split is a ValueError too."""
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise ValueError(f"header: {exc}") from None
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"missing column(s) {', '.join(missing)}")
    return header


class RowError(ValueError):
    """A data row that the ``csv`` module cannot split, such as one holding
    a cell over its field size limit; ``row`` is its 1-based number."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class _Codes(dict):
    """Text -> position in order of first appearance; a text not yet seen
    is given the next position. Looking up a seen text runs no Python."""

    def __missing__(self, text):
        code = self[text] = len(self)
        return code


def _rows_fit(path: Path) -> bool:
    """Whether every row of the CSV ``path`` is shorter than the ``csv``
    module's field size limit, so that none can hold a cell over it.

    A row ends at a CR or LF with an even number of quotes before it, which
    is outside any quoted cell. A row of at least the limit's length holds
    a whole aligned block of half that many bytes with no row end in it, so
    the rows fit when every such block holds a row end. (A row from half the
    limit up may fail the test too, which only costs the row loop's time.)
    Lengths count bytes, never fewer than the characters the limit counts.
    """
    text = path.read_bytes()
    if b'"' in text:  # blank out the CR and LF inside quoted cells
        data = np.frombuffer(text, dtype=np.uint8).copy()
        at = np.flatnonzero((data == ord("\n")) | (data == ord("\r")))
        data[at[np.searchsorted(np.flatnonzero(data == ord('"')), at) % 2 == 1]] = ord(" ")
        text = data.tobytes()
    block = csv.field_size_limit() // 2
    return all(text.find(b"\n", start, start + block) >= 0
               or text.find(b"\r", start, start + block) >= 0
               for start in range(0, len(text) - block + 1, block))


def read_columns(path: Path, coded: list[str], floats: list[str], optional=()):
    """The ``coded`` text columns and the ``floats`` columns of the headered
    CSV ``path``, read in one pass up to the first row that does not parse:
    for each ``coded`` column its distinct texts in order of first
    appearance and an array of each row's position among them, an (rows,
    ``len(floats)``) float64 array, and whether every row was read. The
    caller reads the first unread row again (``read_rows``) to name its
    fault. A missing column is a ValueError, but for the ``coded`` columns
    named in ``optional``: their cells read '' where the header or a short
    row lacks them.

    numpy's C reader reads the file when it can. It splits rows as
    ``read_rows`` does (``"`` quoting with doubled quotes, LF, CR or CRLF
    line ends, blank lines skipped, extra cells ignored), passes text cells
    on as they are, and reads a subset of the numbers that ``float()``
    reads, to the same values. Where it refuses the file (or warns), such
    as on ``1_000``, non-ASCII digits or a short row, a ``csv.reader`` loop
    reads it again row by row. numpy has no field size limit, so a file
    whose rows may hold a cell over the ``csv`` module's (``_rows_fit``)
    goes to the row loop as well, which stops at that row.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        required = [column for column in (*coded, *floats) if column not in optional]
        position = {column: k for k, column in enumerate(_header(reader, required))}
        present = [column for column in coded if column in position]
        columns = [position[column] for column in (*present, *floats)]
        books = [_Codes() for _ in present]
        complete = True
        table = None
        if _rows_fit(path):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    table = np.loadtxt(  # from the handle, so it goes on after the header row
                        handle, delimiter=",", quotechar='"', comments=None, ndmin=2,
                        usecols=columns,
                        # numpy < 2 defaults to encoding="bytes", which hands converters
                        # latin1 bytes instead of the text cells
                        encoding=None,
                        converters={k: book.__getitem__ for k, book in zip(columns, books)})
            except (ValueError, Warning):
                pass
        if table is None:
            handle.seek(0)
            next(reader)  # the header, again
            books = [_Codes() for _ in present]
            parsers = [book.__getitem__ for book in books] + [float] * len(floats)
            values = array("d")
            # a row may end before its optional cells, which then read ''
            width = max(columns) + 1
            need = max((position[column] for column in required), default=-1) + 1
            try:
                for cells in filter(None, reader):
                    if need <= len(cells) < width:
                        cells += [""] * (width - len(cells))
                    values.extend([parse(cells[k]) for parse, k in zip(parsers, columns)])
            except (IndexError, ValueError, csv.Error):
                complete = False
            table = np.asarray(values).reshape(-1, len(columns))
    read = {column: (list(book), table[:, k].astype(np.intp))
            for k, (column, book) in enumerate(zip(present, books))}
    blank = ([""], np.zeros(len(table), dtype=np.intp))
    texts, codes = zip(*(read.get(column, blank) for column in coded))
    return list(texts), list(codes), table[:, len(present):], complete


def read_rows(path: Path, required: list[str]):
    """Yield (row_number, dict) from a headered CSV that has every
    ``required`` column; the cells a short row lacks read None. Blank
    lines are skipped.

    Row numbers are 1-based counting data rows only, matching the error
    reporting convention used by the loaders.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = _header(reader, required)
        number = 0
        try:
            for number, cells in enumerate(filter(None, reader), start=1):
                yield number, dict(zip_longest(header, cells))
        except csv.Error as exc:
            raise RowError(number + 1, str(exc)) from None


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
