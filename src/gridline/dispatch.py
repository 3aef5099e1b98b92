"""Hourly DC optimal power flow as a linear program in PTDF form.

One LP per hour: piecewise-linear generator costs become one variable per
cost segment (convexity makes cheapest-first filling automatic), a single
system power balance, and two-sided flow rows. Appended contingency rows
may carry a nonnegative slack variable penalized in the objective, which
caps their shadow price at the penalty; base rows stay hard.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np
from scipy import sparse

from .errors import SolverError
from .lp import OPTIMAL, LpProblem, LpSolution, solve_lp
from .network import HourlySeries, Network

DEFAULT_PENALTY = 2000.0  # $/MWh on contingency-row violations
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class HourData:
    hour: datetime
    demand: np.ndarray  # (n_buses,) MW
    gen_min: np.ndarray  # (n_generators,) MW
    gen_max: np.ndarray  # (n_generators,) MW, availability applied


def hour_data(network: Network, series: HourlySeries, hour: datetime) -> HourData:
    pos = series.hour_pos(hour)
    gen_max = series.availability[pos].copy()
    gen_min = np.minimum(np.array([g.p_min for g in network.generators]), gen_max)
    return HourData(hour, series.demand[pos].copy(), gen_min, gen_max)


@dataclass(frozen=True)
class FlowRow:
    """One two-sided flow constraint |coefficients @ injection| <= limit.

    ``monitored_branch`` / ``outage_branch`` are branch positions in the
    network ordering; base-case rows have no outage.
    """

    coefficients: np.ndarray  # (n_buses,)
    limit: float
    slack_allowed: bool
    monitored_branch: int
    outage_branch: int | None = None


@dataclass(frozen=True)
class DispatchProblem:
    hour: datetime
    demand: np.ndarray  # (n_buses,)
    gen_bus: np.ndarray  # (n_generators,) bus positions
    gen_min: np.ndarray
    gen_max: np.ndarray
    cost_curves: tuple[tuple[tuple[float, float], ...], ...]  # per gen (cap, price)
    flow_rows: tuple[FlowRow, ...]
    penalty_price: float = DEFAULT_PENALTY


@dataclass
class DispatchResult:
    hour: datetime
    status: str
    p_gen: np.ndarray | None = None  # (n_generators,) MW
    flows: np.ndarray | None = None  # (n_branches,) MW, when PTDF supplied
    objective: float | None = None
    row_duals: np.ndarray | None = None  # $/MWh shadow price per flow row, >= 0
    balance_dual: float | None = None  # system marginal price, $/MWh
    slack_values: np.ndarray | None = None  # MW per flow row (0 on hard rows)
    message: str = ""  # solver's account of a non-optimal status


@dataclass(frozen=True)
class _Layout:
    seg_owner: np.ndarray  # variable -> generator (segments only)
    n_segments: int
    slack_of_row: dict[int, int]  # flow-row position -> variable index


def build_problem(network: Network, data: HourData, flow_rows: list[FlowRow],
                  penalty_price: float = DEFAULT_PENALTY) -> DispatchProblem:
    return DispatchProblem(
        data.hour, data.demand, network.gen_bus, data.gen_min, data.gen_max,
        tuple(g.cost_curve for g in network.generators), tuple(flow_rows),
        penalty_price)


def build_lp(problem: DispatchProblem) -> tuple[LpProblem, _Layout]:
    """Lower the dispatch problem to the solver contract.

    Cost segments are trimmed cumulatively against the hourly maximum (and
    lifted by the minimum), which is LP-equivalent to a total-output bound
    because marginal costs are nondecreasing.
    """
    costs: list[float] = []
    bounds: list[tuple[float, float | None]] = []
    owner: list[int] = []
    for g, curve in enumerate(problem.cost_curves):
        p_max = float(problem.gen_max[g])
        p_min = min(float(problem.gen_min[g]), p_max)
        cum = 0.0
        for cap, price in curve:
            hi = min(cap, max(0.0, p_max - cum))
            lo = min(hi, max(0.0, p_min - cum))
            costs.append(price)
            bounds.append((lo, hi))
            owner.append(g)
            cum += cap
    n_segments = len(costs)

    slack_of_row: dict[int, int] = {}
    for r, row in enumerate(problem.flow_rows):
        if row.slack_allowed:
            slack_of_row[r] = n_segments + len(slack_of_row)
            costs.append(problem.penalty_price)
            bounds.append((0.0, None))
    n_vars = len(costs)

    a_eq = sparse.csr_matrix(
        (np.ones(n_segments), (np.zeros(n_segments, dtype=int), np.arange(n_segments))),
        shape=(1, n_vars))
    b_eq = np.array([float(problem.demand.sum())])

    rows_i: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b_ub: list[float] = []
    seg_owner = np.array(owner, dtype=int)
    for r, row in enumerate(problem.flow_rows):
        seg_coef = row.coefficients[problem.gen_bus[seg_owner]]
        fixed = float(row.coefficients @ problem.demand)
        for sign, rhs in ((1.0, row.limit + fixed), (-1.0, row.limit - fixed)):
            index = len(b_ub)
            nonzero = np.nonzero(seg_coef)[0]
            rows_i.extend([index] * len(nonzero))
            cols.extend(nonzero.tolist())
            vals.extend((sign * seg_coef[nonzero]).tolist())
            if row.slack_allowed:
                rows_i.append(index)
                cols.append(slack_of_row[r])
                vals.append(-1.0)
            b_ub.append(rhs)
    a_ub = None
    b_ub_arr = None
    if b_ub:
        a_ub = sparse.csr_matrix((vals, (rows_i, cols)), shape=(len(b_ub), n_vars))
        b_ub_arr = np.array(b_ub)

    lp = LpProblem(np.array(costs), a_ub, b_ub_arr, a_eq, b_eq, bounds)
    return lp, _Layout(seg_owner, n_segments, slack_of_row)


def _injections(problem: DispatchProblem, p_gen: np.ndarray) -> np.ndarray:
    injection = -problem.demand.copy()
    np.add.at(injection, problem.gen_bus, p_gen)
    return injection


def audit_result(problem: DispatchProblem, result: DispatchResult,
                 tol: float = FEASIBILITY_TOL) -> None:
    """Independent feasibility re-check of an optimal solution (balance,
    bounds, flow rows). Raises SolverError on any violation."""
    if result.status != OPTIMAL:
        return
    p = result.p_gen
    if abs(p.sum() - problem.demand.sum()) > tol:
        raise SolverError(f"power balance residual {p.sum() - problem.demand.sum():.3e} MW")
    if np.any(p < problem.gen_min - tol) or np.any(p > problem.gen_max + tol):
        raise SolverError("generator bounds violated")
    injection = _injections(problem, p)
    for r, row in enumerate(problem.flow_rows):
        slack = result.slack_values[r] if row.slack_allowed else 0.0
        margin = abs(float(row.coefficients @ injection)) - (row.limit + slack)
        if margin > tol * max(1.0, row.limit):
            raise SolverError(
                f"flow row {r} violated by {margin:.3e} MW at {problem.hour}")


def solve_problem(problem: DispatchProblem, ptdf: np.ndarray | None = None) -> DispatchResult:
    lp, layout = build_lp(problem)
    solution: LpSolution = solve_lp(lp)
    if solution.status != OPTIMAL:
        return DispatchResult(problem.hour, solution.status, message=solution.message)

    n_gen = len(problem.cost_curves)
    p_gen = np.zeros(n_gen)
    np.add.at(p_gen, layout.seg_owner, solution.x[: layout.n_segments])

    n_rows = len(problem.flow_rows)
    row_duals = np.zeros(n_rows)
    slack_values = np.zeros(n_rows)
    for r in range(n_rows):
        up, lo = solution.ineq_marginals[2 * r], solution.ineq_marginals[2 * r + 1]
        row_duals[r] = -(up + lo)  # shadow price of relaxing the limit
        if r in layout.slack_of_row:
            slack_values[r] = solution.x[layout.slack_of_row[r]]

    flows = None
    if ptdf is not None:
        flows = ptdf @ _injections(problem, p_gen)

    result = DispatchResult(
        problem.hour, OPTIMAL, p_gen, flows, solution.objective,
        row_duals, float(solution.eq_marginals[0]), slack_values)
    audit_result(problem, result)
    return result


def base_flow_rows(network: Network, ptdf: np.ndarray, limits: np.ndarray,
                   slack_allowed: bool = False) -> list[FlowRow]:
    """Two-sided rows for every branch at the given normal limits (hard
    unless slacks are explicitly extended to the base case)."""
    limits = np.asarray(limits, dtype=float)
    if np.any(limits <= 0):
        bad = int(np.argmax(limits <= 0))
        raise ValueError(f"nonpositive flow limit on branch index {bad}")
    return [FlowRow(ptdf[l], float(limits[l]), slack_allowed, l)
            for l in range(network.n_branches)]


def solve_base_dcopf(network: Network, factors, data: HourData,
                     limits: np.ndarray) -> DispatchResult:
    """Cost-minimal dispatch under balance, generator bounds, and hard
    two-sided PTDF flow limits."""
    rows = base_flow_rows(network, factors.ptdf, limits)
    problem = build_problem(network, data, rows)
    return solve_problem(problem, ptdf=factors.ptdf)


def solve_penalized_dcopf(problem: DispatchProblem,
                          ptdf: np.ndarray | None = None) -> DispatchResult:
    """Solve a problem whose appended contingency rows carry penalized
    slacks; base rows remain hard. Only balance or bounds can make this
    infeasible."""
    return solve_problem(problem, ptdf=ptdf)


def solve_copperplate(network: Network, data: HourData,
                      factors=None) -> DispatchResult:
    """Merit-order dispatch with no transmission constraints; flows (when a
    PTDF is supplied) are reported for information only."""
    problem = build_problem(network, data, [])
    return solve_problem(problem, ptdf=None if factors is None else factors.ptdf)
