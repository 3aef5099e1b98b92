"""Network data model and plain-CSV case ingestion.

A case directory holds bus.csv, branch.csv, gen.csv plus hourly
demand.csv / availability.csv (schemas in the README). Everything is
validated up front with file/row context and is immutable afterwards, so
networks and series can be shared read-only across parallel workers.

A ``Network`` holds its buses and branches as columns in file order, read
by column and checked as arrays; it builds ``Bus`` and ``Branch`` objects
only when asked for them, which no study path does. Its few generators
are read row by row into ``Generator`` objects.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import CaseError, GridlineError
from .geo import great_circle_km
from .util import (first_repeat, format_hour, hour_at, hour_number, parse_each,
                   parse_hour, read_columns, read_rows)

FUELS = ("solar", "wind", "natural_gas", "coal", "nuclear", "hydro", "other")
VARIABLE_FUELS = ("solar", "wind")
BRANCH_KINDS = ("line", "transformer")
SEGMENT_COLUMN = re.compile(r"seg([1-9][0-9]*)_(mw|cost)")
BUS_COLUMNS = ["id", "lat", "lon", "base_kv"]
BRANCH_COLUMNS = ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind"]  # required


@dataclass(frozen=True)
class Bus:
    id: int
    latitude: float
    longitude: float
    base_voltage: float  # kV, line-to-line


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    reactance: float  # per-unit, > 0
    static_rating: float  # MVA
    kind: str  # "line" | "transformer"
    length_km: float
    diameter_m: float | None = None  # explicit conductor diameter, overrides the fit


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    fuel: str
    p_min: float
    p_max_static: float
    cost_curve: tuple[tuple[float, float], ...]  # (segment MW, marginal $/MWh), convex

    def __post_init__(self):
        if not all(math.isfinite(v) for segment in self.cost_curve for v in segment):
            raise ValueError(f"generator {self.id} cost curve must be finite, "
                             f"got {self.cost_curve}")


class Network:
    """Validated, immutable case: bus and branch columns in file order,
    the generators, id -> position maps and flat arrays for the numeric
    code paths. Ids are Python ints, so ids beyond int64 work.
    ``branch_from`` and ``branch_to`` are bus positions, ``is_line`` is
    False for a transformer, and ``diameter_m`` is NaN where the diameter
    is fitted."""

    def __init__(self, *, bus_ids, latitude, longitude, base_voltage, branch_ids,
                 branch_from, branch_to, reactance, static_rating, is_line, length_km,
                 diameter_m, generators: list[Generator]):
        self.bus_ids = tuple(bus_ids)
        self.branch_ids = tuple(branch_ids)
        self.generators = tuple(generators)
        self.bus_index = dict(zip(self.bus_ids, range(len(self.bus_ids))))
        self.branch_index = dict(zip(self.branch_ids, range(len(self.branch_ids))))
        self.gen_index = {g.id: i for i, g in enumerate(self.generators)}

        self.n_buses = len(self.bus_ids)
        self.n_branches = len(self.branch_ids)
        self.n_generators = len(self.generators)
        self.latitude, self.longitude, self.base_voltage = (
            np.asarray(column, dtype=float) for column in (latitude, longitude, base_voltage))
        self.branch_from = np.asarray(branch_from, dtype=int)
        self.branch_to = np.asarray(branch_to, dtype=int)
        self.reactance, self.static_rating, self.length_km, self.diameter_m = (
            np.asarray(column, dtype=float)
            for column in (reactance, static_rating, length_km, diameter_m))
        self.is_line = np.asarray(is_line, dtype=bool)
        self.gen_bus = np.array([self.bus_index[g.bus] for g in self.generators], dtype=int)
        self.gen_p_min = np.array([g.p_min for g in self.generators], dtype=float)
        self.cost_curves = tuple(g.cost_curve for g in self.generators)

    @cached_property
    def buses(self) -> tuple[Bus, ...]:
        return tuple(map(Bus, self.bus_ids, self.latitude.tolist(), self.longitude.tolist(),
                         self.base_voltage.tolist()))

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        ids = self.bus_ids
        return tuple(
            Branch(branch, ids[f], ids[t], x, rating, "line" if line else "transformer", length,
                   None if math.isnan(diameter) else diameter)
            for branch, f, t, x, rating, line, length, diameter in zip(
                self.branch_ids, self.branch_from.tolist(), self.branch_to.tolist(),
                self.reactance.tolist(), self.static_rating.tolist(), self.is_line.tolist(),
                self.length_km.tolist(), self.diameter_m.tolist()))

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]


@dataclass(frozen=True)
class HourlySeries:
    """Aligned hourly demand and per-generator output caps.

    ``availability`` holds the effective hourly p_max for every generator:
    the availability file value for covered units, p_max_static otherwise.
    """

    hours: tuple[datetime, ...]
    demand: np.ndarray  # (H, n_buses) MW
    availability: np.ndarray  # (H, n_generators) MW

    @cached_property
    def _positions(self) -> dict[datetime, int]:
        return {h: i for i, h in enumerate(self.hours)}

    def hour_pos(self, hour: datetime) -> int:
        try:
            return self._positions[hour]
        except KeyError:
            raise KeyError(f"hour {format_hour(hour)} not in series") from None

    def select(self, span: tuple[datetime, datetime] | None) -> list[datetime]:
        """The hours inside an inclusive (first, last) span, or every hour
        for None. A span that selects no hour is an error."""
        first, last = span or (self.hours[0], self.hours[-1])
        hours = [h for h in self.hours if first <= h <= last]
        if not hours:
            raise GridlineError(
                f"requested hours {format_hour(first)}..{format_hour(last)} "
                "not covered by the demand series")
        return hours

    def restrict(self, hours: list[datetime]) -> "HourlySeries":
        pos = [self.hour_pos(h) for h in hours]
        return HourlySeries(tuple(hours), self.demand[pos], self.availability[pos])


def _parse_float(row, key, file, number, *, minimum=None, strict_min=False, optional=False):
    raw = (row.get(key) or "").strip()
    if raw == "":
        if optional:
            return None
        raise CaseError(f"missing value for '{key}'", file=file, row=number)
    try:
        value = float(raw)
    except ValueError:
        raise CaseError(f"bad number {raw!r} for '{key}'", file=file, row=number) from None
    if not math.isfinite(value):
        raise CaseError(f"non-finite value {raw!r} for '{key}'", file=file, row=number)
    if minimum is not None:
        if strict_min and not value > minimum:
            raise CaseError(f"'{key}' must be > {minimum}, got {value}", file=file, row=number)
        if not strict_min and not value >= minimum:
            raise CaseError(f"'{key}' must be >= {minimum}, got {value}", file=file, row=number)
    return value


def _cell(row, key, file, number):
    """``row[key]``; a cell that a short row lacks is a missing value."""
    if row.get(key) is None:
        raise CaseError(f"missing value for '{key}'", file=file, row=number)
    return row[key]


def _parse_int(row, key, file, number):
    raw = _cell(row, key, file, number).strip()
    try:
        return int(raw)
    except ValueError:
        raise CaseError(f"bad integer {raw!r} for '{key}'", file=file, row=number) from None


def _case_file(directory: Path, name: str) -> Path:
    if not (directory / name).exists():
        raise CaseError(f"missing case file {name}", file=name)
    return directory / name


def _rows(directory: Path, name: str, required):
    try:
        yield from read_rows(_case_file(directory, name), required)
    except ValueError as exc:
        raise CaseError(str(exc), file=name, row=getattr(exc, "row", None)) from None


def _read_table(directory: Path, name: str, coded, floats, optional=()):
    """``read_columns`` of the case file ``name``."""
    try:
        return read_columns(_case_file(directory, name), coded, floats, optional)
    except ValueError as exc:  # such as a missing column
        raise CaseError(str(exc), file=name) from None


def _row_at(directory: Path, name: str, required, position: int) -> dict:
    """The data row at 0-based ``position`` of the case file ``name``."""
    return next(islice(_rows(directory, name, required), position, None))[1]


def _per_row(texts, code, parse, dtype=np.int64):
    """``parse_each`` of the distinct ``texts``, gathered to the rows by ``code``."""
    values, parsed = parse_each(texts, parse, dtype)
    return values[code], parsed[code]


def _first_fault(valid: np.ndarray, complete: bool, ids: np.ndarray) -> int | None:
    """The position of the first row that is not ``valid``, repeats the id
    of an earlier row or was not read, or None. ``ids`` holds Python ints."""
    n = len(valid) if valid.all() else int(np.argmin(valid))
    head = ids[:n].tolist()
    if len(set(head)) < n:
        same = {}  # equal ids, which may be beyond int64, get one key
        return first_repeat(np.array([same.setdefault(i, len(same)) for i in head]))
    return n if n < len(valid) or not complete else None


def _optional_number(text: str, strict_min: bool) -> float:
    """A blank cell as NaN, else its number, which must be finite and
    >= 0 (> 0 with ``strict_min``); a ValueError otherwise."""
    raw = text.strip()
    if not raw:
        return math.nan
    value = float(raw)
    if math.isfinite(value) and (value > 0.0 if strict_min else value >= 0.0):
        return value
    raise ValueError(raw)


def _bus_row(row, number, seen):
    """Raise the first fault of one bus.csv row, in reporting order;
    ``seen`` holds the ids of the rows before it."""
    bus_id = _parse_int(row, "id", "bus.csv", number)
    if bus_id in seen:
        raise CaseError(f"duplicate bus id {bus_id}", file="bus.csv", row=number)
    lat = _parse_float(row, "lat", "bus.csv", number)
    lon = _parse_float(row, "lon", "bus.csv", number)
    if abs(lat) > 90:
        raise CaseError(f"latitude {lat} out of range", file="bus.csv", row=number)
    if abs(lon) > 180:
        raise CaseError(f"longitude {lon} out of range", file="bus.csv", row=number)
    _parse_float(row, "base_kv", "bus.csv", number, minimum=0.0, strict_min=True)
    raise AssertionError(f"bus.csv row {number} passes the checks it failed")


def _branch_row(row, number, seen, bus_index):
    """Raise the first fault of one branch.csv row, in reporting order;
    ``seen`` holds the ids of the rows before it."""
    branch_id = _parse_int(row, "id", "branch.csv", number)
    if branch_id in seen:
        raise CaseError(f"duplicate branch id {branch_id}", file="branch.csv", row=number)
    from_bus = _parse_int(row, "from_bus", "branch.csv", number)
    to_bus = _parse_int(row, "to_bus", "branch.csv", number)
    for end in (from_bus, to_bus):
        if end not in bus_index:
            raise CaseError(f"branch {branch_id} references unknown bus {end}",
                            file="branch.csv", row=number)
    if from_bus == to_bus:
        raise CaseError(f"branch {branch_id} is a self-loop", file="branch.csv", row=number)
    _parse_float(row, "reactance_pu", "branch.csv", number, minimum=0.0, strict_min=True)
    _parse_float(row, "rating_mva", "branch.csv", number, minimum=0.0, strict_min=True)
    kind = (row.get("kind") or "").strip()
    if kind not in BRANCH_KINDS:
        raise CaseError(f"unknown branch kind {kind!r}", file="branch.csv", row=number)
    _parse_float(row, "length_km", "branch.csv", number, minimum=0.0, optional=True)
    _parse_float(row, "diameter_m", "branch.csv", number, minimum=0.0, strict_min=True,
                 optional=True)
    raise AssertionError(f"branch.csv row {number} passes the checks it failed")


def _positive(values):
    return (values > 0.0) & (values < np.inf)


def _load_buses(directory: Path):
    """bus.csv's ids and its (lat, lon, base_kv) columns, checked as arrays;
    the first faulty row is read again to name its fault."""
    (texts,), (code,), values, complete = _read_table(directory, "bus.csv", ["id"],
                                                      BUS_COLUMNS[1:])
    ids, valid = _per_row(texts, code, int, object)
    lat, lon, kv = values.T.copy()
    valid &= (np.abs(lat) <= 90) & (np.abs(lon) <= 180) & _positive(kv)
    faulty = _first_fault(valid, complete, ids)
    if faulty is not None:
        _bus_row(_row_at(directory, "bus.csv", BUS_COLUMNS, faulty), faulty + 1,
                 set(ids[:faulty].tolist()))
    if not len(ids):
        raise CaseError("no buses", file="bus.csv")
    return ids.tolist(), lat, lon, kv


def _load_branches(directory: Path, bus_index: dict, latitude, longitude) -> dict:
    """branch.csv as ``Network`` keyword arguments, checked as arrays; the
    first faulty row is read again to name its fault. A blank length is
    the great-circle distance between the endpoint buses."""
    texts, codes, values, complete = _read_table(
        directory, "branch.csv", ["id", "from_bus", "to_bus", "kind", "length_km", "diameter_m"],
        BRANCH_COLUMNS[3:5], optional=("length_km", "diameter_m"))
    ids, valid = _per_row(texts[0], codes[0], int, object)
    (from_bus, from_ok), (to_bus, to_ok) = (
        _per_row(texts[k], codes[k], lambda text: bus_index.get(int(text))) for k in (1, 2))
    is_line, kind_ok = _per_row(texts[3], codes[3],
                                lambda text: BRANCH_KINDS.index(text.strip()) == 0, bool)
    length, length_ok = _per_row(texts[4], codes[4], lambda text: _optional_number(text, False),
                                 float)
    diameter, diameter_ok = _per_row(texts[5], codes[5],
                                     lambda text: _optional_number(text, True), float)
    reactance, rating = values.T.copy()
    valid &= (from_ok & to_ok & (from_bus != to_bus) & _positive(reactance) & _positive(rating)
              & kind_ok & length_ok & diameter_ok)
    faulty = _first_fault(valid, complete, ids)
    if faulty is not None:
        _branch_row(_row_at(directory, "branch.csv", BRANCH_COLUMNS, faulty), faulty + 1,
                    set(ids[:faulty].tolist()), bus_index)
    distance = great_circle_km(latitude[from_bus], longitude[from_bus], latitude[to_bus],
                               longitude[to_bus])
    return dict(branch_ids=ids.tolist(), branch_from=from_bus, branch_to=to_bus,
                reactance=reactance, static_rating=rating, is_line=is_line,
                length_km=np.where(np.isnan(length), distance, length), diameter_m=diameter)


def _cost_curve(row, number) -> tuple[tuple[float, float], ...]:
    """The (MW, $/MWh) segments of one gen.csv row: seg1, seg2, ... up to
    the first blank ``seg{k}_mw``. A segment cell given after that one is
    refused, naming its column."""
    curve = []
    while (row.get(f"seg{len(curve) + 1}_mw") or "").strip() != "":
        segment = len(curve) + 1
        cap = _parse_float(row, f"seg{segment}_mw", "gen.csv", number,
                           minimum=0.0, strict_min=True)
        price = _parse_float(row, f"seg{segment}_cost", "gen.csv", number)
        curve.append((cap, price))
    if not curve:
        raise CaseError("generator needs at least one cost segment", file="gen.csv", row=number)
    blank = len(curve) + 1
    for column, cell in row.items():
        later = SEGMENT_COLUMN.fullmatch(column or "")
        if later and int(later[1]) >= blank and (cell or "").strip() != "":
            raise CaseError(f"'{column}' given after blank 'seg{blank}_mw'",
                            file="gen.csv", row=number)
    return tuple(curve)


def load_network(case_directory: str | Path) -> Network:
    """Load and validate bus.csv, branch.csv, gen.csv.

    Branch lengths absent from the file are filled with the great-circle
    distance between endpoint buses.
    """
    directory = Path(case_directory)
    bus_ids, latitude, longitude, base_voltage = _load_buses(directory)
    bus_index = dict(zip(bus_ids, range(len(bus_ids))))
    branches = _load_branches(directory, bus_index, latitude, longitude)

    generators: list[Generator] = []
    seen_gen: set[int] = set()
    for number, row in _rows(directory, "gen.csv", ["id", "bus", "fuel", "p_min_mw", "p_max_mw"]):
        gen_id = _parse_int(row, "id", "gen.csv", number)
        if gen_id in seen_gen:
            raise CaseError(f"duplicate generator id {gen_id}", file="gen.csv", row=number)
        seen_gen.add(gen_id)
        bus = _parse_int(row, "bus", "gen.csv", number)
        if bus not in bus_index:
            raise CaseError(f"generator {gen_id} references unknown bus {bus}",
                            file="gen.csv", row=number)
        fuel = (row.get("fuel") or "").strip()
        if fuel not in FUELS:
            raise CaseError(f"unknown fuel {fuel!r}", file="gen.csv", row=number)
        p_min = _parse_float(row, "p_min_mw", "gen.csv", number, minimum=0.0)
        p_max = _parse_float(row, "p_max_mw", "gen.csv", number, minimum=0.0)
        if p_min > p_max:
            raise CaseError(f"p_min {p_min} exceeds p_max {p_max}", file="gen.csv", row=number)
        curve = _cost_curve(row, number)
        prices = [price for _, price in curve]
        if any(b < a for a, b in zip(prices, prices[1:])):
            raise CaseError("cost segments must have nondecreasing marginal cost",
                            file="gen.csv", row=number)
        total = sum(cap for cap, _ in curve)
        if abs(total - p_max) > 1e-6 * max(1.0, p_max):
            raise CaseError(f"segment capacities sum to {total}, expected p_max {p_max}",
                            file="gen.csv", row=number)
        generators.append(Generator(gen_id, bus, fuel, p_min, p_max, curve))

    return Network(bus_ids=bus_ids, latitude=latitude, longitude=longitude,
                   base_voltage=base_voltage, **branches, generators=generators)


def _timed_row(row, name, number, id_column, index):
    """Raise the first fault of one (time, id, mw) row, in reporting order."""
    try:
        parse_hour(_cell(row, "time", name, number))
    except ValueError as exc:
        raise CaseError(str(exc), file=name, row=number) from None
    ident = _parse_int(row, id_column, name, number)
    if ident not in index:
        raise CaseError(f"unknown {id_column} {ident}", file=name, row=number)
    _parse_float(row, "mw", name, number, minimum=0.0)
    raise AssertionError(f"{name} row {number} passes the checks it failed")


def _load_timed_table(directory, name, id_column, index):
    """Read a (time, id, mw) long table in one pass -> (hour number,
    position in ``index``, mw) arrays, one entry per row in file order.

    ``read_columns`` reads the file, up to the first row that does not
    parse; each distinct time and id text is parsed once and the rows are
    checked as arrays. The first faulty row is read again to name its fault.
    """
    (stamps, idents), (stamp_code, ident_code), values, complete = _read_table(
        directory, name, ["time", id_column], ["mw"])
    mw = values[:, 0]
    hour, hour_ok = parse_each(stamps, hour_number)
    column, column_ok = parse_each(idents, lambda ident: index.get(int(ident)))
    valid = hour_ok[stamp_code] & column_ok[ident_code] & (mw >= 0.0) & (mw < np.inf)
    hour, column = hour[stamp_code], column[ident_code]
    n = len(mw) if valid.all() else int(np.argmin(valid))
    repeat = first_repeat(hour[:n], column[:n])
    if repeat is not None:
        stamp, ident = stamps[stamp_code[repeat]], idents[ident_code[repeat]]
        raise CaseError(f"duplicate entry for {id_column} {int(ident)} at {stamp}",
                        file=name, row=repeat + 1)
    if n < len(mw) or not complete:
        _timed_row(_row_at(directory, name, ["time", id_column, "mw"], n), name, n + 1,
                   id_column, index)
    return hour, column, mw


def _first_appearance(column):
    """The distinct values of ``column`` in the order they first appear."""
    values, first = np.unique(column, return_index=True)
    return values[np.argsort(first)]


def _missing_hour(pos, column, wanted, n_hours):
    """The first of ``n_hours`` positions with no row of ``wanted``, or None."""
    present = np.zeros(n_hours, dtype=bool)
    present[pos[column == wanted]] = True
    return None if present.all() else int(np.argmin(present))


def load_hourly_series(case_directory: str | Path, network: Network,
                       strict: bool = True, read_availability: bool = True) -> HourlySeries:
    """Load demand.csv plus optional availability.csv, aligned to the network.

    Buses without demand rows get zero demand; generators without
    availability rows keep their static p_max. With ``strict`` (default),
    availability above p_max_static is an error; otherwise it is clamped.
    Without ``read_availability`` the file is not read at all, for callers
    that need only the study hours.
    """
    directory = Path(case_directory)
    hour, bus, mw = _load_timed_table(directory, "demand.csv", "bus_id", network.bus_index)
    if not hour.size:
        raise CaseError("no demand rows", file="demand.csv")
    numbers = np.unique(hour)
    gap = np.flatnonzero(np.diff(numbers) != 1)
    if gap.size:
        raise CaseError(
            f"demand hours not contiguous: expected {format_hour(hour_at(numbers[gap[0]] + 1))}, "
            f"found {format_hour(hour_at(numbers[gap[0] + 1]))}", file="demand.csv")
    first, n_hours = numbers[0], len(numbers)
    order = _first_appearance(bus)
    short = order[np.bincount(bus, minlength=network.n_buses)[order] != n_hours]
    if short.size:
        missing = _missing_hour(hour - first, bus, short[0], n_hours)
        raise CaseError(f"bus {network.bus_ids[short[0]]} missing hour "
                        f"{format_hour(hour_at(first + missing))}", file="demand.csv")
    demand = np.zeros((n_hours, network.n_buses))
    demand[hour - first, bus] = mw

    p_max = np.array([g.p_max_static for g in network.generators])
    availability = np.tile(p_max, (n_hours, 1))
    if read_availability and (directory / "availability.csv").exists():
        hour, gen, mw = _load_timed_table(directory, "availability.csv", "gen_id",
                                          network.gen_index)
        pos = hour - first
        outside, over = (pos < 0) | (pos >= n_hours), mw > p_max[gen]
        order = _first_appearance(gen)
        n_outside, n_rows, n_over = (np.bincount(gen, weights, network.n_generators)[order]
                                     for weights in (outside, None, over & strict))
        faulty = order[(n_outside > 0) | (n_rows != n_hours) | (n_over > 0)]
        if faulty.size:  # the first faulty generator's first fault, in reporting order
            gen_id, rows = network.generators[faulty[0]].id, gen == faulty[0]
            if (rows & outside).any():
                stamp = format_hour(hour_at(hour[np.argmax(rows & outside)]))
                raise CaseError(f"gen {gen_id} availability at {stamp} outside the demand "
                                "hour range", file="availability.csv")
            missing = _missing_hour(pos, gen, faulty[0], n_hours)
            if missing is not None:
                raise CaseError(f"gen {gen_id} missing hour "
                                f"{format_hour(hour_at(first + missing))}",
                                file="availability.csv")
            worst = min(np.flatnonzero(rows & over), key=hour.__getitem__)
            raise CaseError(f"availability {mw[worst]} exceeds p_max {p_max[faulty[0]]} "
                            f"for gen {gen_id} at {format_hour(hour_at(hour[worst]))}",
                            file="availability.csv")
        availability[pos, gen] = np.where(over, p_max[gen], mw)

    return HourlySeries(tuple(map(hour_at, range(first, first + n_hours))), demand,
                        availability)

