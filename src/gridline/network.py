"""Network data model and plain-CSV case ingestion.

A case directory holds bus.csv, branch.csv, gen.csv plus hourly
demand.csv / availability.csv (schemas in the README). Everything is
validated up front with file/row context and is immutable afterwards, so
networks and series can be shared read-only across parallel workers.
"""

from __future__ import annotations

import math
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
    """Validated, immutable bus/branch/generator collection with index maps
    and flat arrays for the numeric code paths."""

    def __init__(self, buses: list[Bus], branches: list[Branch], generators: list[Generator]):
        self.buses = tuple(buses)
        self.branches = tuple(branches)
        self.generators = tuple(generators)
        self.bus_index = {b.id: i for i, b in enumerate(self.buses)}
        self.branch_index = {b.id: i for i, b in enumerate(self.branches)}
        self.gen_index = {g.id: i for i, g in enumerate(self.generators)}

        self.n_buses = len(self.buses)
        self.n_branches = len(self.branches)
        self.n_generators = len(self.generators)
        self.branch_from = np.array([self.bus_index[b.from_bus] for b in self.branches], dtype=int)
        self.branch_to = np.array([self.bus_index[b.to_bus] for b in self.branches], dtype=int)
        self.reactance = np.array([b.reactance for b in self.branches])
        self.static_rating = np.array([b.static_rating for b in self.branches])
        self.gen_bus = np.array([self.bus_index[g.bus] for g in self.generators], dtype=int)

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


def load_network(case_directory: str | Path) -> Network:
    """Load and validate bus.csv, branch.csv, gen.csv.

    Branch lengths absent from the file are filled with the great-circle
    distance between endpoint buses.
    """
    directory = Path(case_directory)

    buses: list[Bus] = []
    seen_bus: set[int] = set()
    for number, row in _rows(directory, "bus.csv", ["id", "lat", "lon", "base_kv"]):
        bus_id = _parse_int(row, "id", "bus.csv", number)
        if bus_id in seen_bus:
            raise CaseError(f"duplicate bus id {bus_id}", file="bus.csv", row=number)
        seen_bus.add(bus_id)
        lat = _parse_float(row, "lat", "bus.csv", number)
        lon = _parse_float(row, "lon", "bus.csv", number)
        if abs(lat) > 90:
            raise CaseError(f"latitude {lat} out of range", file="bus.csv", row=number)
        if abs(lon) > 180:
            raise CaseError(f"longitude {lon} out of range", file="bus.csv", row=number)
        kv = _parse_float(row, "base_kv", "bus.csv", number, minimum=0.0, strict_min=True)
        buses.append(Bus(bus_id, lat, lon, kv))
    if not buses:
        raise CaseError("no buses", file="bus.csv")
    by_id = {b.id: b for b in buses}

    fields = []  # Branch arguments; a blank length becomes the endpoint distance
    seen_branch: set[int] = set()
    required = ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind"]
    for number, row in _rows(directory, "branch.csv", required):
        branch_id = _parse_int(row, "id", "branch.csv", number)
        if branch_id in seen_branch:
            raise CaseError(f"duplicate branch id {branch_id}", file="branch.csv", row=number)
        seen_branch.add(branch_id)
        from_bus = _parse_int(row, "from_bus", "branch.csv", number)
        to_bus = _parse_int(row, "to_bus", "branch.csv", number)
        for end in (from_bus, to_bus):
            if end not in by_id:
                raise CaseError(f"branch {branch_id} references unknown bus {end}",
                                file="branch.csv", row=number)
        if from_bus == to_bus:
            raise CaseError(f"branch {branch_id} is a self-loop", file="branch.csv", row=number)
        reactance = _parse_float(row, "reactance_pu", "branch.csv", number,
                                 minimum=0.0, strict_min=True)
        rating = _parse_float(row, "rating_mva", "branch.csv", number,
                              minimum=0.0, strict_min=True)
        kind = (row.get("kind") or "").strip()
        if kind not in BRANCH_KINDS:
            raise CaseError(f"unknown branch kind {kind!r}", file="branch.csv", row=number)
        length = _parse_float(row, "length_km", "branch.csv", number,
                              minimum=0.0, optional=True)
        diameter = _parse_float(row, "diameter_m", "branch.csv", number,
                                minimum=0.0, strict_min=True, optional=True)
        fields.append((branch_id, from_bus, to_bus, reactance, rating, kind, length,
                       diameter))
    ends = np.array([(by_id[f[1]].latitude, by_id[f[1]].longitude, by_id[f[2]].latitude,
                      by_id[f[2]].longitude) for f in fields]).reshape(-1, 4)
    distance = great_circle_km(*ends.T).tolist()
    branches = [Branch(*f[:6], km if f[6] is None else f[6], f[7])
                for f, km in zip(fields, distance)]

    generators: list[Generator] = []
    seen_gen: set[int] = set()
    for number, row in _rows(directory, "gen.csv", ["id", "bus", "fuel", "p_min_mw", "p_max_mw"]):
        gen_id = _parse_int(row, "id", "gen.csv", number)
        if gen_id in seen_gen:
            raise CaseError(f"duplicate generator id {gen_id}", file="gen.csv", row=number)
        seen_gen.add(gen_id)
        bus = _parse_int(row, "bus", "gen.csv", number)
        if bus not in by_id:
            raise CaseError(f"generator {gen_id} references unknown bus {bus}",
                            file="gen.csv", row=number)
        fuel = (row.get("fuel") or "").strip()
        if fuel not in FUELS:
            raise CaseError(f"unknown fuel {fuel!r}", file="gen.csv", row=number)
        p_min = _parse_float(row, "p_min_mw", "gen.csv", number, minimum=0.0)
        p_max = _parse_float(row, "p_max_mw", "gen.csv", number, minimum=0.0)
        if p_min > p_max:
            raise CaseError(f"p_min {p_min} exceeds p_max {p_max}", file="gen.csv", row=number)
        curve = []
        segment = 1
        while f"seg{segment}_mw" in row and (row.get(f"seg{segment}_mw") or "").strip() != "":
            cap = _parse_float(row, f"seg{segment}_mw", "gen.csv", number,
                               minimum=0.0, strict_min=True)
            price = _parse_float(row, f"seg{segment}_cost", "gen.csv", number)
            curve.append((cap, price))
            segment += 1
        if not curve:
            raise CaseError("generator needs at least one cost segment",
                            file="gen.csv", row=number)
        prices = [price for _, price in curve]
        if any(b < a for a, b in zip(prices, prices[1:])):
            raise CaseError("cost segments must have nondecreasing marginal cost",
                            file="gen.csv", row=number)
        total = sum(cap for cap, _ in curve)
        if abs(total - p_max) > 1e-6 * max(1.0, p_max):
            raise CaseError(f"segment capacities sum to {total}, expected p_max {p_max}",
                            file="gen.csv", row=number)
        generators.append(Generator(gen_id, bus, fuel, p_min, p_max, tuple(curve)))

    return Network(buses, branches, generators)


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
    try:
        (stamps, idents), (stamp_code, ident_code), values, complete = read_columns(
            _case_file(directory, name), ["time", id_column], ["mw"])
    except ValueError as exc:  # such as a missing column
        raise CaseError(str(exc), file=name) from None
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
        row = next(islice(_rows(directory, name, ["time", id_column, "mw"]), n, None))[1]
        _timed_row(row, name, n + 1, id_column, index)
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
        raise CaseError(f"bus {network.buses[short[0]].id} missing hour "
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

