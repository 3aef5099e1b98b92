"""Seeded, deterministic input generators for the benchmark workloads.

Every workload is a case directory of plain CSV files plus a weather file.
The grid of a workload is fixed (the bundled case30, or a mesh drawn from
a fixed stream); the seed draws the hourly demand, availability and
weather through ``numpy.random.default_rng``, written with fixed precision,
so the same seed always gives byte-identical inputs. The program under test
only ever sees these files.

Series combine a daily shape, a weekly shape and seeded noise, so no two
hours are identical. Ambient temperatures stay below the 40 C assumed for
static ratings, which makes AAR and DLR limits at least the static limit
and keeps every (regime, hour) task solvable.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

START = datetime(2016, 7, 1, tzinfo=timezone.utc)
WEATHER_HEADER = ["time", "lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms"]
BRANCH_HEADER = ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind",
                 "length_km", "diameter_m"]
GEN_HEADER = ["id", "bus", "fuel", "p_min_mw", "p_max_mw",
              "seg1_mw", "seg1_cost", "seg2_mw", "seg2_cost"]

SWEEP_T_CONDUCTOR = (78.0, 100.0, 110.0)
SWEEP_PHI_SLR_DEG = (0.0, 45.0, 90.0)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" (pipeline.run) or "sweep" (ratings.sweep_parameters)
    regimes: tuple[str, ...] = ()
    workers: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("case30-fortnight", "run", ("slr", "aar", "dlr", "uncongested"), 2),
        Workload("mesh900-peak", "run", ("slr", "dlr", "uncongested"), 1),
        Workload("ratings-sweep", "sweep"),
    )
}


@dataclass(frozen=True)
class Inputs:
    case_directory: Path
    weather_file: Path
    hours: int
    start: datetime  # first hour of the series


def _stamp(h: int) -> str:
    return (START + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _daily(h: np.ndarray, peak_hour: float) -> np.ndarray:
    """Smooth daily shape in [0, 1] with its maximum at ``peak_hour``."""
    return 0.5 + 0.5 * np.cos(2 * np.pi * (h - peak_hour) / 24.0)


def _weekly(h: np.ndarray) -> np.ndarray:
    """1 on weekdays easing to 0.9 over the weekend (days 5 and 6)."""
    day = (h // 24) % 7
    return np.where(day >= 5, 0.9, 1.0) + 0.02 * np.sin(2 * np.pi * h / 168.0)


def weather_rows(rng: np.random.Generator, cells: list[tuple[float, float]],
                 n_hours: int, first_hour: int = 0):
    """Hourly temperature and wind for every cell: daily and weekly cycles,
    a north-south gradient, per-cell phases and seeded noise. Temperatures
    stay in roughly 281..306 K, below the 313.15 K static-rating ambient."""
    h = np.arange(first_hour, first_hour + n_hours, dtype=float)[:, None]
    lat = np.array([c[0] for c in cells])[None, :]
    phase = rng.uniform(0, 2 * np.pi, len(cells))[None, :]
    temp = (296.0 + 6.0 * _daily(h, 15.0) - 3.0 + 2.0 * np.sin(2 * np.pi * h / 168.0)
            - 0.4 * (lat - lat.mean()) + rng.normal(0.0, 0.6, (n_hours, len(cells))))
    temp = np.clip(temp, 281.0, 306.0)
    speed = (4.0 + 2.0 * np.sin(2 * np.pi * h / 24.0 + phase)
             + 0.8 * np.sin(2 * np.pi * h / 168.0)
             + np.abs(rng.normal(0.0, 0.7, (n_hours, len(cells)))))
    speed = np.maximum(speed, 0.4)
    theta = (0.9 * np.sin(2 * np.pi * h / 24.0) + phase
             + rng.normal(0.0, 0.25, (n_hours, len(cells))))
    u, v = speed * np.cos(theta), speed * np.sin(theta)
    for t in range(n_hours):
        stamp = _stamp(first_hour + t)
        for c, (cell_lat, cell_lon) in enumerate(cells):
            yield (stamp, f"{cell_lat:.4f}", f"{cell_lon:.4f}", f"{temp[t, c]:.3f}",
                   f"{u[t, c]:.4f}", f"{v[t, c]:.4f}")


# --- case30 with a generated fortnight ------------------------------------

CASE30_HOURS = 336


def case30_fortnight(rng: np.random.Generator, out: Path, repo_root: Path) -> Inputs:
    """The bundled 30-bus network (read-only source) with a generated
    336-hour demand, availability and weather series."""
    source = repo_root / "tests" / "cases" / "case30"
    case = out / "case"
    case.mkdir(parents=True)
    for name in ("bus.csv", "branch.csv", "gen.csv"):
        shutil.copyfile(source / name, case / name)

    # per-bus peaks come from the bundled 24-hour demand
    peaks: dict[int, float] = {}
    with open(source / "demand.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            bus = int(row["bus_id"])
            peaks[bus] = max(peaks.get(bus, 0.0), float(row["mw"]))

    h = np.arange(CASE30_HOURS, dtype=float)
    # envelope in [0.62, 0.95] x weekly x (1 +- 2%): at most ~0.97 of the
    # bundled peak, where every regime is known to solve
    envelope = (0.62 + 0.33 * _daily(h, 14.0)) * _weekly(h)
    buses = sorted(peaks)
    noise = np.clip(rng.normal(0.0, 0.01, (CASE30_HOURS, len(buses))), -0.02, 0.02)
    demand = envelope[:, None] * (1.0 + noise) * np.array([peaks[b] for b in buses])
    _write(case / "demand.csv", ["time", "bus_id", "mw"],
           ((_stamp(t), bus, f"{demand[t, i]:.3f}")
            for t in range(CASE30_HOURS) for i, bus in enumerate(buses)))

    wind = np.clip(0.35 + 0.45 * _daily(h, 2.0) + rng.normal(0.0, 0.06, CASE30_HOURS),
                   0.05, 0.95)
    daylight = np.clip(np.sin(np.pi * ((h % 24) - 6.0) / 12.0), 0.0, None)
    solar = daylight * np.clip(0.9 + rng.normal(0.0, 0.05, CASE30_HOURS), 0.6, 1.0)
    units = ((6, 400.0, wind), (7, 200.0, wind), (8, 150.0, solar))
    _write(case / "availability.csv", ["time", "gen_id", "mw"],
           ((_stamp(t), gen, f"{cap * shape[t]:.3f}")
            for t in range(CASE30_HOURS) for gen, cap, shape in units))

    cells = [(30.8 + 0.35 * r, -101.0 + 0.5 * c) for r in range(4) for c in range(5)]
    weather = out / "weather.csv"
    _write(weather, WEATHER_HEADER, weather_rows(rng, cells, CASE30_HOURS))
    return Inputs(case, weather, CASE30_HOURS, START)


# --- generated meshed grids ------------------------------------------------

MESH_ORIGIN = (35.0, -100.0)
MESH_STEP = (0.25, 0.30)  # degrees between neighbouring buses, ~28 km


GRID_SEED = 2016  # the grids are fixed; workload seeds draw only the hourly series
GEN_SPACING = 6  # buses between generator sites along each grid axis


def mesh_case(side: int, case: Path, *, line_rating: float, load_mw: float,
              gen_mw: float):
    """A side x side meshed grid with diagonal chords, long (>100 km)
    express lines, transformers, radial spurs and block-placed generators:
    cheap coal and nuclear in the west, dearer gas in the east, wind
    scattered, so economic west-to-east transfer loads the middle cut.

    The grid depends only on ``side``: its coordinates, reactances, ratings,
    costs and peak loads come from a fixed stream, so every workload seed
    studies the same network and the amount of screening work stays
    comparable between seeds. Returns the per-bus peak loads as (bus id, MW)
    and the wind units' gen.csv rows.
    """
    rng = np.random.default_rng([GRID_SEED, side])

    def bus_id(r, c):
        return r * side + c + 1

    buses = []
    coords = {}
    for r in range(side):
        for c in range(side):
            lat = MESH_ORIGIN[0] + r * MESH_STEP[0] + rng.uniform(-0.02, 0.02)
            lon = MESH_ORIGIN[1] + c * MESH_STEP[1] + rng.uniform(-0.02, 0.02)
            coords[bus_id(r, c)] = (lat, lon)
            buses.append((bus_id(r, c), f"{lat:.5f}", f"{lon:.5f}", "230.0"))

    edges = []  # (from, to, kind, rating)
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                kind = "transformer" if (r + 2 * c) % 47 == 0 else "line"
                edges.append((bus_id(r, c), bus_id(r, c + 1), kind, line_rating))
            if r + 1 < side:
                edges.append((bus_id(r, c), bus_id(r + 1, c), "line", line_rating))
            if r + 1 < side and c + 1 < side and (r + c) % 5 == 0:
                edges.append((bus_id(r, c), bus_id(r + 1, c + 1), "line", line_rating))
            if r % 6 == 1 and c % 6 == 1 and r + 4 < side and c + 4 < side:
                # express line over ~155 km: too long for weather-based ratings
                edges.append((bus_id(r, c), bus_id(r + 4, c + 4), "line", 1.5 * line_rating))

    # radial spurs: one extra bus hanging off each edge midpoint of the grid
    spur_hosts = [bus_id(0, side // 2), bus_id(side - 1, side // 2),
                  bus_id(side // 2, 0), bus_id(side // 2, side - 1)]
    next_bus = side * side + 1
    for host in spur_hosts:
        lat, lon = coords[host]
        buses.append((next_bus, f"{lat + 0.1:.5f}", f"{lon + 0.1:.5f}", "230.0"))
        edges.append((host, next_bus, "line", line_rating))
        next_bus += 1

    branches = []
    for i, (a, b, kind, rating) in enumerate(edges, start=1):
        x = 0.01 * rng.uniform(0.9, 1.1) * (4.0 if rating > line_rating else 1.0)
        branches.append((i, a, b, f"{x:.6f}", f"{rating * rng.uniform(0.97, 1.03):.3f}",
                         kind, "", ""))

    gens = []
    gid = 1
    for r in range(GEN_SPACING // 2, side, GEN_SPACING):
        for c in range(GEN_SPACING // 2, side, GEN_SPACING):
            west = c < side // 2
            row, col = r // GEN_SPACING, c // GEN_SPACING
            if (row + col) % 4 == 3:
                fuel, cost = "wind", (0.5, 0.5)
            elif west:
                fuel, cost = ("nuclear", (8.0, 9.0)) if row % 3 == 0 else ("coal", (20.0, 26.0))
            else:
                fuel, cost = "natural_gas", (34.0, 46.0)
            p1, p2 = sorted(cost[k] * rng.uniform(0.95, 1.05) for k in range(2))
            gens.append((gid, bus_id(r, c), fuel, "0.0", f"{gen_mw:.1f}",
                         f"{0.6 * gen_mw:.1f}", f"{p1:.3f}", f"{0.4 * gen_mw:.1f}", f"{p2:.3f}"))
            gid += 1

    _write(case / "bus.csv", ["id", "lat", "lon", "base_kv"], buses)
    _write(case / "branch.csv", BRANCH_HEADER, branches)
    _write(case / "gen.csv", GEN_HEADER, gens)

    peaks = [(b[0], load_mw * rng.uniform(0.8, 1.2)) for b in buses]
    return peaks, [g for g in gens if g[2] == "wind"]


def _mesh_cells(side: int) -> list[tuple[float, float]]:
    """Weather cells on a 1-degree lattice covering the mesh."""
    lat0, lon0 = MESH_ORIGIN
    lats = np.arange(lat0 - 0.5, lat0 + side * MESH_STEP[0] + 0.5, 1.0)
    lons = np.arange(lon0 - 0.5, lon0 + side * MESH_STEP[1] + 0.5, 1.0)
    return [(float(a), float(b)) for a in lats for b in lons]


MESH_PEAK_HOURS = (14, 15)  # UTC hours of the first day


def mesh900_peak(rng: np.random.Generator, out: Path, repo_root: Path) -> Inputs:
    """30 x 30 mesh, two peak hours with congested west-to-east transfer."""
    side = 30
    case = out / "case"
    peaks, wind_units = mesh_case(side, case, line_rating=185.0,
                                  load_mw=11.0, gen_mw=800.0)
    hours = list(MESH_PEAK_HOURS)
    envelope = 0.7 + 0.28 * _daily(np.array(hours, dtype=float), 15.0)
    noise = np.clip(rng.normal(0.0, 0.01, (len(hours), len(peaks))), -0.02, 0.02)
    _write(case / "demand.csv", ["time", "bus_id", "mw"],
           ((_stamp(t), bus, f"{envelope[k] * (1 + noise[k, i]) * mw:.3f}")
            for k, t in enumerate(hours) for i, (bus, mw) in enumerate(peaks)))
    wind = np.clip(0.5 + rng.normal(0.0, 0.1, (len(hours), len(wind_units))), 0.1, 0.9)
    _write(case / "availability.csv", ["time", "gen_id", "mw"],
           ((_stamp(t), g[0], f"{wind[k, j] * float(g[4]):.3f}")
            for k, t in enumerate(hours) for j, g in enumerate(wind_units)))
    weather = out / "weather.csv"
    _write(weather, WEATHER_HEADER,
           weather_rows(rng, _mesh_cells(side), len(hours), first_hour=hours[0]))
    return Inputs(case, weather, len(hours), START + timedelta(hours=hours[0]))


SWEEP_HOURS = 168


def ratings_sweep(rng: np.random.Generator, out: Path, repo_root: Path) -> Inputs:
    """20 x 20 mesh with a week of weather; only ratings are computed."""
    side = 20
    case = out / "case"
    peaks, _ = mesh_case(side, case, line_rating=300.0, load_mw=11.0, gen_mw=560.0)
    _write(case / "demand.csv", ["time", "bus_id", "mw"],
           ((_stamp(0), bus, f"{mw:.3f}") for bus, mw in peaks))
    weather = out / "weather.csv"
    _write(weather, WEATHER_HEADER, weather_rows(rng, _mesh_cells(side), SWEEP_HOURS))
    return Inputs(case, weather, SWEEP_HOURS, START)


GENERATORS = {
    "case30-fortnight": case30_fortnight,
    "mesh900-peak": mesh900_peak,
    "ratings-sweep": ratings_sweep,
}


def generate(name: str, seed: int, out: Path, repo_root: Path) -> Inputs:
    """Write the inputs of workload ``name`` for ``seed`` under ``out``."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    # one stream per (workload, seed), independent of the other workloads
    salt = sum(ord(ch) * 31 ** i for i, ch in enumerate(name)) % (2 ** 32)
    rng = np.random.default_rng([seed % 2 ** 64, salt])
    return GENERATORS[name](rng, out, repo_root)
