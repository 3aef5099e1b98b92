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
from pathlib import Path

import numpy as np

from .errors import CaseError, GridlineError
from .geo import great_circle_km
from .util import HOUR, format_hour, parse_hour, read_rows, render_floats, write_csv

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

    def cost_of(self, output: float) -> float:
        """Total $/h at a given MW output (piecewise-linear, segments filled
        cheapest-first)."""
        total = 0.0
        remaining = output
        for cap, price in self.cost_curve:
            take = min(cap, remaining)
            if take <= 0:
                break
            total += take * price
            remaining -= take
        return total


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


def _parse_int(row, key, file, number):
    raw = (row.get(key) or "").strip()
    try:
        return int(raw)
    except ValueError:
        raise CaseError(f"bad integer {raw!r} for '{key}'", file=file, row=number) from None


def _rows(directory: Path, name: str, required):
    path = directory / name
    if not path.exists():
        raise CaseError(f"missing case file {name}", file=name)
    try:
        yield from read_rows(path, required)
    except ValueError as exc:
        raise CaseError(str(exc), file=name) from None


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


def _load_timed_table(directory, name, id_column, known_ids):
    """Read a (time, id, mw) long table -> (sorted hours, {id: {hour: mw}})."""
    values: dict[int, dict[datetime, float]] = {}
    hours: set[datetime] = set()
    for number, row in _rows(directory, name, ["time", id_column, "mw"]):
        try:
            hour = parse_hour(row["time"])
        except ValueError as exc:
            raise CaseError(str(exc), file=name, row=number) from None
        ident = _parse_int(row, id_column, name, number)
        if ident not in known_ids:
            raise CaseError(f"unknown {id_column} {ident}", file=name, row=number)
        mw = _parse_float(row, "mw", name, number, minimum=0.0)
        slot = values.setdefault(ident, {})
        if hour in slot:
            raise CaseError(f"duplicate entry for {id_column} {ident} at {row['time']}",
                            file=name, row=number)
        slot[hour] = mw
        hours.add(hour)
    return sorted(hours), values


def load_hourly_series(case_directory: str | Path, network: Network,
                       strict: bool = True) -> HourlySeries:
    """Load demand.csv plus optional availability.csv, aligned to the network.

    Buses without demand rows get zero demand; generators without
    availability rows keep their static p_max. With ``strict`` (default),
    availability above p_max_static is an error; otherwise it is clamped.
    """
    directory = Path(case_directory)
    hours, demand_rows = _load_timed_table(directory, "demand.csv", "bus_id",
                                           set(network.bus_index))
    if not hours:
        raise CaseError("no demand rows", file="demand.csv")
    expected = hours[0]
    for hour in hours:
        if hour != expected:
            raise CaseError(
                f"demand hours not contiguous: expected {format_hour(expected)}, "
                f"found {format_hour(hour)}", file="demand.csv")
        expected += HOUR
    for bus_id, per_hour in demand_rows.items():
        if len(per_hour) != len(hours):
            missing = next(h for h in hours if h not in per_hour)
            raise CaseError(f"bus {bus_id} missing hour {format_hour(missing)}",
                            file="demand.csv")

    demand = np.zeros((len(hours), network.n_buses))
    for bus_id, per_hour in demand_rows.items():
        column = network.bus_index[bus_id]
        for h, hour in enumerate(hours):
            demand[h, column] = per_hour[hour]

    availability = np.tile(
        np.array([g.p_max_static for g in network.generators]), (len(hours), 1))
    if (directory / "availability.csv").exists():
        _, avail_rows = _load_timed_table(directory, "availability.csv", "gen_id",
                                          set(network.gen_index))
        hour_set = set(hours)
        for gen_id, per_hour in avail_rows.items():
            gen = network.generators[network.gen_index[gen_id]]
            outside = [h for h in per_hour if h not in hour_set]
            if outside:
                raise CaseError(
                    f"gen {gen_id} availability at {format_hour(outside[0])} "
                    "outside the demand hour range", file="availability.csv")
            if len(per_hour) != len(hours):
                missing = next(h for h in hours if h not in per_hour)
                raise CaseError(f"gen {gen_id} missing hour {format_hour(missing)}",
                                file="availability.csv")
            column = network.gen_index[gen_id]
            for h, hour in enumerate(hours):
                mw = per_hour[hour]
                if mw > gen.p_max_static:
                    if strict:
                        raise CaseError(
                            f"availability {mw} exceeds p_max {gen.p_max_static} "
                            f"for gen {gen_id} at {format_hour(hour)}",
                            file="availability.csv")
                    mw = gen.p_max_static
                availability[h, column] = mw

    return HourlySeries(tuple(hours), demand, availability)


def write_network(network: Network, out_directory: str | Path) -> None:
    """Write bus/branch/gen tables back out (round-trip counterpart of
    load_network; derived branch lengths are materialized)."""
    out = Path(out_directory)
    write_csv(out / "bus.csv", ["id", "lat", "lon", "base_kv"],
              [(b.id, *render_floats((b.latitude, b.longitude, b.base_voltage)))
               for b in network.buses])
    write_csv(out / "branch.csv",
              ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind",
               "length_km", "diameter_m"],
              [(b.id, b.from_bus, b.to_bus, *render_floats((b.reactance, b.static_rating)),
                b.kind, repr(float(b.length_km)),
                "" if b.diameter_m is None else repr(float(b.diameter_m)))
               for b in network.branches])
    max_segments = max(len(g.cost_curve) for g in network.generators)
    header = ["id", "bus", "fuel", "p_min_mw", "p_max_mw"]
    for s in range(1, max_segments + 1):
        header += [f"seg{s}_mw", f"seg{s}_cost"]
    rows = []
    for g in network.generators:
        row = [g.id, g.bus, g.fuel, *render_floats((g.p_min, g.p_max_static))]
        for segment in g.cost_curve:
            row += render_floats(segment)
        row += [""] * (len(header) - len(row))
        rows.append(row)
    write_csv(out / "gen.csv", header, rows)
