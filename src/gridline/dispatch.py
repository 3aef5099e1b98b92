"""Hourly DC optimal power flow as a linear program in PTDF form.

One LP per hour: piecewise-linear generator costs become one variable per
cost segment (convexity makes cheapest-first filling automatic), a single
system power balance, and two-sided flow rows. Appended contingency rows
may carry a nonnegative slack variable penalized in the objective, which
caps their shadow price at the penalty; base rows stay hard.

``solve_problem`` solves every problem through a ``DispatchModel``, the
caller's or a new one. The model's first LP is built by ``build_lp`` from
the problem without its flow rows; for each problem the model rewrites its
LP's bounds, appends only the rows it lacks, lowered by ``_lower_rows`` as
``build_lp`` lowers them, and ``solve_lp`` re-solves it from the last
basis. The solution is audited against the problem's rows, independently
of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np
from scipy import sparse

from .errors import SolverError
from .lp import OPTIMAL, LpModel, LpProblem, csr_rows, solve_lp
from .network import HourlySeries, Network
from .util import DEFAULT_PENALTY

FEASIBILITY_TOL = 1e-6
# HiGHS drops matrix entries this small (its small_matrix_value), so they are
# left out of the lowered LP rather than passed as PTDF rounding noise
MATRIX_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class HourData:
    hour: datetime
    demand: np.ndarray  # (n_buses,) MW
    gen_min: np.ndarray  # (n_generators,) MW
    gen_max: np.ndarray  # (n_generators,) MW, availability applied


def hour_data(network: Network, series: HourlySeries, hour: datetime) -> HourData:
    pos = series.hour_pos(hour)
    gen_max = series.availability[pos].copy()
    gen_min = np.minimum(network.gen_p_min, gen_max)
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

    def __post_init__(self):
        # the cost curves are checked once, by the ``Generator``s they come from
        if not (math.isfinite(self.penalty_price) and self.penalty_price > 0):
            raise ValueError(f"penalty_price must be finite and > 0, got {self.penalty_price}")
        for name in ("demand", "gen_min", "gen_max"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {values[bad[0]]} "
                                 f"at position {bad[0]}")


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
    simplex_iterations: int = 0


@dataclass(frozen=True)
class _Layout:
    seg_owner: np.ndarray  # variable -> generator (segments only)
    slack_rows: np.ndarray  # flow-row positions with a slack, in variable order


def build_problem(network: Network, data: HourData, flow_rows: list[FlowRow],
                  penalty_price: float = DEFAULT_PENALTY) -> DispatchProblem:
    return DispatchProblem(
        data.hour, data.demand, network.gen_bus, data.gen_min, data.gen_max,
        network.cost_curves, tuple(flow_rows),
        penalty_price)


def _segments(cost_curves: tuple[tuple[tuple[float, float], ...], ...]):
    """Per cost segment: owner, capacity, the capacity of the owner's
    cheaper segments (``_segment_bounds``' arguments), and price."""
    owner, cap, price, before = [], [], [], []
    for g, curve in enumerate(cost_curves):
        cum = 0.0
        for segment_cap, segment_price in curve:
            owner.append(g)
            cap.append(segment_cap)
            price.append(segment_price)
            before.append(cum)
            cum += segment_cap
    return (np.array(owner, dtype=int), np.array(cap, dtype=float),
            np.array(before, dtype=float), np.array(price, dtype=float))


def _segment_bounds(problem: DispatchProblem, seg_owner: np.ndarray, cap: np.ndarray,
                    before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cost segments trimmed cumulatively against the hourly maximum (and
    lifted by the minimum), which is LP-equivalent to a total-output bound
    because marginal costs are nondecreasing."""
    p_max = problem.gen_max[seg_owner]
    p_min = np.minimum(problem.gen_min, problem.gen_max)[seg_owner]
    hi = np.minimum(cap, np.maximum(0.0, p_max - before))
    lo = np.minimum(hi, np.maximum(0.0, p_min - before))
    return lo, hi


def _row_arrays(rows: tuple[FlowRow, ...], n_buses: int):
    """Stacked coefficients (rows x buses), limits and slack flags."""
    coefficients = np.array([row.coefficients for row in rows], dtype=float)
    limit = np.array([row.limit for row in rows], dtype=float)
    slack_allowed = np.array([row.slack_allowed for row in rows], dtype=bool)
    return coefficients.reshape(len(rows), n_buses), limit, slack_allowed


def _refuse_non_finite(limit: np.ndarray, coefficients: np.ndarray | None = None,
                       first: int = 0) -> None:
    """Raise ValueError naming the first flow row whose limit, or whose
    stacked coefficients when given, are not finite. Row i is the flow row
    at position ``first`` + i."""
    finite = np.isfinite(limit)
    if coefficients is not None:  # NaN and inf reach a row's max or min
        finite &= np.isfinite(coefficients.max(axis=1, initial=0.0))
        finite &= np.isfinite(coefficients.min(axis=1, initial=0.0))
    if finite.all():
        return
    r = int(np.argmin(finite))
    if not np.isfinite(limit[r]):
        raise ValueError(f"flow row {first + r} has a non-finite limit {limit[r]}")
    bus = int(np.argmin(np.isfinite(coefficients[r])))
    raise ValueError(f"flow row {first + r} has a non-finite coefficient "
                     f"{coefficients[r, bus]} at bus position {bus}")


def _flow_rhs(coefficients: np.ndarray, limit: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Right-hand sides of the ``<=`` rows 2r (+) and 2r + 1 (-) of each
    flow row r over the segment columns."""
    fixed = coefficients @ demand
    return np.column_stack((limit + fixed, limit - fixed)).ravel()


def _lower_rows(rows: tuple[FlowRow, ...], seg_bus: np.ndarray, demand: np.ndarray,
                first: int = 0):
    """Flow row r as the ``<=`` rows 2r (+) and 2r + 1 (-) over the segment
    columns. Returns the rows' stacked coefficients, the LP rows'
    right-hand sides, the (row, column, value) of each entry HiGHS would
    keep, sorted by row, and each LP row's slack number: the slack-allowed
    flow rows are numbered from 0 in order, and -1 marks a hard row. A
    non-finite limit or coefficient raises ValueError, naming the row by
    its position counted from ``first``."""
    coefficients, limit, slack_allowed = _row_arrays(rows, len(demand))
    _refuse_non_finite(limit, coefficients, first)
    seg_coef = coefficients[:, seg_bus]
    signed = np.stack((seg_coef, -seg_coef), axis=1).reshape(2 * len(rows), len(seg_bus))
    row, col = np.nonzero(np.abs(signed) > MATRIX_ZERO_TOL)
    slack = np.where(slack_allowed, np.cumsum(slack_allowed) - 1, -1)
    return (coefficients, _flow_rhs(coefficients, limit, demand), (row, col, signed[row, col]),
            np.repeat(slack, 2))


def _balance_row(n_segments: int, n_vars: int) -> sparse.csr_matrix:
    """Total output: the sum of the segment variables."""
    return sparse.csr_matrix(
        (np.ones(n_segments), np.arange(n_segments), np.array([0, n_segments])),
        shape=(1, n_vars))


def build_lp(problem: DispatchProblem) -> tuple[LpProblem, _Layout]:
    """Lower the dispatch problem to the solver contract: one variable per
    cost segment (``_segment_bounds``), then one slack per slack-allowed
    flow row. Flow row r becomes the ``<=`` rows 2r (+) and 2r + 1 (-); a
    slack-allowed row's slack enters both with coefficient -1.
    """
    seg_owner, cap, before, price = _segments(problem.cost_curves)
    n_segments = len(seg_owner)
    lo, hi = _segment_bounds(problem, seg_owner, cap, before)
    _, b_ub, entries, slack = _lower_rows(problem.flow_rows, problem.gen_bus[seg_owner],
                                          problem.demand)
    slack_rows = np.flatnonzero(slack[::2] >= 0)
    n_slacks = len(slack_rows)
    n_vars = n_segments + n_slacks
    costs = np.concatenate((price, np.full(n_slacks, problem.penalty_price)))
    bounds = list(zip(lo.tolist(), hi.tolist())) + [(0.0, None)] * n_slacks

    a_eq = _balance_row(n_segments, n_vars)
    b_eq = np.array([float(problem.demand.sum())])

    a_ub = None
    if len(b_ub):
        slack_col = np.where(slack >= 0, n_segments + slack, -1)
        indptr, indices, data = csr_rows(len(b_ub), *entries, slack_col)
        a_ub = sparse.csr_matrix((data, indices, indptr), shape=(len(b_ub), n_vars))

    lp = LpProblem(costs, a_ub, b_ub if len(b_ub) else None, a_eq, b_eq, bounds)
    return lp, _Layout(seg_owner, slack_rows)


def _injections(problem: DispatchProblem, p_gen: np.ndarray) -> np.ndarray:
    injection = -problem.demand.copy()
    np.add.at(injection, problem.gen_bus, p_gen)
    return injection


def audit_result(problem: DispatchProblem, result: DispatchResult,
                 coefficients: np.ndarray) -> None:
    """Independent feasibility re-check of an optimal solution: balance,
    bounds, and flow rows recomputed from the injections, each to within
    ``FEASIBILITY_TOL``. ``coefficients`` are the problem's flow rows
    stacked. Raises SolverError on any violation."""
    if result.status != OPTIMAL:
        return
    p = result.p_gen
    if abs(p.sum() - problem.demand.sum()) > FEASIBILITY_TOL:
        raise SolverError(f"power balance residual {p.sum() - problem.demand.sum():.3e} MW")
    if (np.any(p < problem.gen_min - FEASIBILITY_TOL)
            or np.any(p > problem.gen_max + FEASIBILITY_TOL)):
        raise SolverError("generator bounds violated")
    rows = problem.flow_rows
    limit = np.array([row.limit for row in rows], dtype=float)
    slack = np.where([row.slack_allowed for row in rows], result.slack_values, 0.0)
    margin = np.abs(coefficients @ _injections(problem, p)) - (limit + slack)
    violated = np.flatnonzero(margin > FEASIBILITY_TOL * np.maximum(1.0, limit))
    if violated.size:
        r = int(violated[0])
        raise SolverError(
            f"flow row {r} violated by {margin[r]:.3e} MW at {problem.hour}")


def _same_row(held: FlowRow, row: FlowRow) -> bool:
    """Whether ``held``'s LP rows serve ``row`` once their limits are set."""
    return held is row or (
        (held.monitored_branch, held.outage_branch, held.slack_allowed)
        == (row.monitored_branch, row.outage_branch, row.slack_allowed)
        and (held.coefficients is row.coefficients
             or np.array_equal(held.coefficients, row.coefficients)))


class DispatchModel:
    """The LP of the dispatch problems solved through it, held in one
    ``LpModel`` and changed in place from one problem to the next, so each
    solve starts from the basis of the one before. A study keeps one per
    chunk of hours.

    ``hold`` brings it to a problem whose flow rows begin with the rows it
    holds (same branches, slack flag and coefficients, in order) and whose
    penalty price, generator buses and cost curves are those of the first
    problem it held. ``build_lp`` builds the LP of the first problem
    without flow rows. For every problem, the first included, ``hold``
    then writes the segment bounds, balance row and the right-hand side of
    every held row into the LP, and lowers and appends the problem's
    remaining rows, so the LP holds the problem's rows in the problem's
    order. Rows are never deleted.
    """

    def __init__(self):
        self.lp: LpModel | None = None
        self.rows: tuple[FlowRow, ...] = ()  # the flow rows the LP holds, in order
        self.coefficients: np.ndarray | None = None  # ``rows``' coefficients, stacked

    def hold(self, problem: DispatchProblem) -> _Layout:
        """Raises ValueError, and changes nothing, if ``problem`` is not one
        the model can hold or has a non-finite flow row."""
        rows, held = problem.flow_rows, self.rows
        if len(rows) < len(held) or not all(map(_same_row, held, rows)):
            raise ValueError("the problem's flow rows do not begin with the held rows")
        built = problem if self.lp is None else self.built
        if (problem.penalty_price != built.penalty_price
                or not np.array_equal(problem.gen_bus, built.gen_bus)
                or problem.cost_curves != built.cost_curves):
            raise ValueError("the problem's penalty price, generator buses or cost "
                             "curves differ from those the model was built with")
        segments = _segments(problem.cost_curves)[:3] if self.lp is None else self.segments
        limit = np.array([row.limit for row in rows[:len(held)]], dtype=float)
        _refuse_non_finite(limit)
        seg_owner = segments[0]
        new = None
        if len(held) < len(rows):
            new = _lower_rows(rows[len(held):], problem.gen_bus[seg_owner], problem.demand,
                              len(held))
        # every check has passed: only now is the LP changed
        if self.lp is None:
            self.lp = LpModel(build_lp(replace(problem, flow_rows=()))[0])
            self.built, self.segments = problem, segments
            self.coefficients = np.zeros((0, len(problem.demand)))
        self.lp.set_bounds(*_segment_bounds(problem, *segments),
                           np.array([float(problem.demand.sum())]),
                           _flow_rhs(self.coefficients, limit, problem.demand))
        if new is not None:
            coefficients, b_ub, entries, slack = new
            self.lp.add_rows(b_ub, *entries, slack, problem.penalty_price)
            self.coefficients = np.concatenate((self.coefficients, coefficients))
        self.rows = rows
        # slacks are appended in row order, so their columns follow the flow rows
        return _Layout(seg_owner, np.flatnonzero([row.slack_allowed for row in rows]))


def solve_problem(problem: DispatchProblem, ptdf: np.ndarray | None = None,
                  model: DispatchModel | None = None) -> DispatchResult:
    """Solve one dispatch problem through ``model`` (a new one when None),
    changed in place to hold it."""
    model = DispatchModel() if model is None else model
    layout = model.hold(problem)
    solution = solve_lp(model.lp)
    if solution.status != OPTIMAL:
        return DispatchResult(problem.hour, solution.status, message=solution.message,
                              simplex_iterations=solution.simplex_iterations)

    n_segments = len(layout.seg_owner)
    p_gen = np.zeros(len(problem.cost_curves))
    np.add.at(p_gen, layout.seg_owner, solution.x[:n_segments])

    # shadow price of relaxing the limit
    row_duals = -(solution.ineq_marginals[0::2] + solution.ineq_marginals[1::2])
    slack_values = np.zeros(len(problem.flow_rows))
    slack_values[layout.slack_rows] = solution.x[n_segments:]

    flows = None
    if ptdf is not None:
        flows = ptdf @ _injections(problem, p_gen)

    result = DispatchResult(
        problem.hour, OPTIMAL, p_gen, flows, solution.objective,
        row_duals, float(solution.eq_marginals[0]), slack_values,
        simplex_iterations=solution.simplex_iterations)
    audit_result(problem, result, model.coefficients)
    return result


def base_flow_rows(network: Network, ptdf: np.ndarray, limits: np.ndarray,
                   slack_allowed: bool = False,
                   branches: np.ndarray | None = None) -> list[FlowRow]:
    """Two-sided rows at the given normal limits (hard unless slacks are
    explicitly extended to the base case): one per branch, or one per
    position in ``branches``, in that order."""
    limits = np.asarray(limits, dtype=float)
    bad = np.flatnonzero(~(limits > 0))
    if bad.size:
        raise ValueError(f"flow limit {limits[bad[0]]} on branch index {bad[0]} is not > 0")
    positions = range(network.n_branches) if branches is None else np.asarray(branches).tolist()
    return [FlowRow(ptdf[l], float(limits[l]), slack_allowed, l) for l in positions]


def solve_penalized_dcopf(problem: DispatchProblem,
                          ptdf: np.ndarray | None = None) -> DispatchResult:
    """Solve a problem whose appended contingency rows carry penalized
    slacks; base rows remain hard. Only balance or bounds can make this
    infeasible."""
    return solve_problem(problem, ptdf=ptdf)


def solve_copperplate(network: Network, data: HourData, factors=None) -> DispatchResult:
    """Merit-order dispatch with no transmission constraints; flows (when a
    PTDF is supplied) are reported for information only."""
    problem = build_problem(network, data, [])
    return solve_problem(problem, ptdf=None if factors is None else factors.ptdf)
