"""Correctness checks on what a study wrote, plus the stored references.

Every check returns a list of problems (empty when clean), so one run can
report all of them. The references hold the per-hour objectives and the
sweep table for the default seed; any seed must pass the structural
checks.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gridline.factors import build_factors
from gridline.network import load_network
from gridline.scopf import verify_n1

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-6
ORDER_TOL = 1e-9  # copperplate may exceed a rated cost by rounding only


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.DictReader(handle)


def read_objectives(out_dir: Path, regimes) -> dict[str, dict[str, float]]:
    """Final objective per (regime, hour): the last pass in
    iteration_trace.csv."""
    table: dict[str, dict[str, float]] = {}
    for regime in regimes:
        per_hour: dict[str, float] = {}
        for row in _rows(out_dir / regime / "iteration_trace.csv"):
            per_hour[row["hour"]] = float(row["objective"])
        table[regime] = per_hour
    return table


def _per_hour(path: Path, value_column: str, branch_pos: dict[int, int]):
    """{hour: vector over branch positions} from a (time, branch_id, ...) table."""
    out: dict[str, np.ndarray] = {}
    for row in _rows(path):
        vector = out.setdefault(row["time"], np.full(len(branch_pos), np.nan))
        vector[branch_pos[int(row["branch_id"])]] = float(row[value_column])
    return out


def check_run(out_dir: Path, case_directory: Path, regimes, n_hours: int,
              summary) -> list[str]:
    """Structural checks that hold for any seed."""
    problems = []
    for regime, s in summary.regimes.items():
        bad = s.infeasible_hours + s.unconverged_hours + s.error_hours
        if s.solved_hours != n_hours or bad:
            problems.append(f"{regime}: {s.solved_hours}/{n_hours} tasks ok; {bad[:3]}")

    objectives = read_objectives(out_dir, regimes)
    rated = [r for r in regimes if r != "uncongested"]
    if "uncongested" in objectives:
        floor = objectives["uncongested"]
        for regime in rated:
            for hour, cost in objectives[regime].items():
                if floor[hour] > cost + ORDER_TOL * max(1.0, abs(cost)):
                    problems.append(f"copperplate {floor[hour]} above {regime} {cost} at {hour}")

    network = load_network(case_directory)
    factors = build_factors(network)
    branch_pos = network.branch_index
    for regime in rated:
        flows = _per_hour(out_dir / regime / "flows.csv", "mw", branch_pos)
        limits = _per_hour(out_dir / regime / "ratings.csv", "contingency_limit_mva",
                           branch_pos)
        if len(flows) != n_hours:
            problems.append(f"{regime}: flows for {len(flows)}/{n_hours} hours")
        for hour, flow in flows.items():
            residual = verify_n1(flow, factors.lodf, limits[hour])
            if residual:
                problems.append(f"{regime} {hour}: verify_n1 found {len(residual)} violations")
    return problems


def check_sweep(rows) -> list[str]:
    """Mean DLR multipliers fall strictly as T_C rises (ambient stays below
    the static-rating ambient) and as the assumed SLR angle rises."""
    means = {(t, round(math.degrees(p), 6)): m for t, p, m in rows}
    t_values = sorted({t for t, _ in means})
    phi_values = sorted({p for _, p in means})
    problems = []
    for phi in phi_values:
        column = [means[(t, phi)] for t in t_values]
        if not all(a > b for a, b in zip(column, column[1:])):
            problems.append(f"phi_slr={phi}: means not strictly falling in T_C: {column}")
    for t in t_values:
        row = [means[(t, phi)] for phi in phi_values]
        if not all(a > b for a, b in zip(row, row[1:])):
            problems.append(f"T_C={t}: means not strictly falling in phi_slr: {row}")
    return problems


def sweep_table(rows) -> list[list[float]]:
    return [[t, round(math.degrees(p), 6), m] for t, p, m in rows]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def write_reference(workload: str, values) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "values": values}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def compare_reference(workload: str, values) -> list[str]:
    """Match objectives or the sweep table to the stored default-seed
    reference within REFERENCE_RTOL."""
    with open(reference_path(workload), encoding="utf-8") as handle:
        expected = json.load(handle)["values"]
    problems = []

    def walk(path, want, got):
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(want) != set(got):
                problems.append(f"{path}: keys differ from reference")
                return
            for key in want:
                walk(f"{path}/{key}", want[key], got[key])
        elif isinstance(want, list):
            if not isinstance(got, list) or len(want) != len(got):
                problems.append(f"{path}: length differs from reference")
                return
            for i, (a, b) in enumerate(zip(want, got)):
                walk(f"{path}[{i}]", a, b)
        elif not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
            problems.append(f"{path}: {got!r} vs reference {want!r}")

    walk(workload, expected, values)
    return problems[:20]
