"""Preventative N-1 security-constrained DCOPF by constraint generation.

No flow row is lowered up front but those an earlier hour found. Each pass
solves the dispatch LP with the rows found so far and computes the full
base-case flows from the PTDF.
Branches over their normal limit get a base row and the LP is re-solved;
only a solve that violates no base row has its post-contingency flows
screened with the LODF, and each violated (monitored, outaged) pair gets
one row. Base rows come first: screening a dispatch that still overloads
branches in the base case finds pairs by the thousand that the base rows
would clear. Rows accumulate (never dropped), so the objective is
nondecreasing and the procedure terminates. Contingency rows carry
penalized slacks so a violation whose avoidance is costlier than the
penalty shows up as nonzero slack with its shadow price capped at the
penalty, instead of infeasibility.

The screen computes post-contingency flows only for monitored rows that an
exact bound cannot clear:
|f_b + LODF[b, c] f_c| <= |f_b| + max_c |LODF[b, c]| * max_c |f_c|,
and builds the LODF rows of those alone, in blocks, from the PTDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispatch import (DispatchModel, DispatchResult, FlowRow, HourData, base_flow_rows,
                       build_problem, solve_problem)
from .factors import ROW_BLOCK, SensitivityFactors
from .lp import OPTIMAL
from .network import Network
from .util import DEFAULT_MAX_ITERATIONS, DEFAULT_PENALTY

SCREEN_TOLERANCE = 1e-6  # relative to each flow limit


def post_contingency_flows(f_base: np.ndarray, lodf: np.ndarray,
                           rows: np.ndarray | None = None) -> np.ndarray:
    """Column c holds the monitored flows after the outage of c. Row i of
    ``lodf``, and of the result, monitors branch ``rows[i]`` (branch i
    without ``rows``).

    Radial columns are NaN (invalid, never screened); a branch's own
    non-radial outage leaves exactly zero flow on it since LODF[c, c] = -1.
    """
    if f_base.shape[0] != lodf.shape[1]:
        raise ValueError("flow vector and LODF dimensions disagree")
    monitored = f_base if rows is None else f_base[rows]
    return monitored[:, None] + lodf * f_base[None, :]


def screen_violations(f_cont: np.ndarray, contingency_limits: np.ndarray,
                      rows: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pairs whose post-contingency flow magnitude exceeds the monitored
    branch's contingency limit by more than ``SCREEN_TOLERANCE`` of it, as
    (monitored, outaged, overload) arrays: branch positions and MW beyond
    the limit, in no particular order.

    Row i of ``f_cont`` monitors branch ``rows[i]`` (branch i without
    ``rows``). NaN columns (radial outages) and each monitored branch's own
    outage are excluded; a branch's own outage leaves zero flow on itself.
    """
    monitored = np.arange(f_cont.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    limits = np.asarray(contingency_limits, dtype=float)[monitored]
    overload = np.abs(f_cont) - limits[:, None]
    with np.errstate(invalid="ignore"):
        mask = overload > SCREEN_TOLERANCE * limits[:, None]
    mask[np.arange(len(monitored)), monitored] = False
    i, c = np.nonzero(mask)
    return monitored[i], c, overload[i, c]


def _ordered_pairs(monitored: np.ndarray, outaged: np.ndarray,
                   overload: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (monitored, outaged) pairs by overload descending, ties by pair:
    the deterministic order in which rows are added."""
    order = np.lexsort((outaged, monitored, -overload))
    return tuple(zip(monitored[order].tolist(), outaged[order].tolist()))


def screen_contingencies(flows: np.ndarray, factors: SensitivityFactors,
                         contingency_limits: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The pairs ``verify_n1`` finds, in its order, with post-contingency
    flows computed only for the monitored rows the bound
    |f_b| + max_c |LODF[b, c]| * max_c |f_c| does not clear, ``ROW_BLOCK``
    LODF rows at a time. The bound is widened by 1e-12 relative so that
    rounding cannot hide a pair."""
    limits = np.asarray(contingency_limits, dtype=float)
    magnitude = np.abs(flows)
    bound = (magnitude + factors.lodf_row_max * magnitude.max(initial=0.0)) * (1.0 + 1e-12)
    rows = np.flatnonzero(bound > limits * (1.0 + SCREEN_TOLERANCE))
    found = []
    for start in range(0, rows.size, ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        found.append(screen_violations(post_contingency_flows(flows, factors.lodf_rows(block),
                                                              block), limits, block))
    return _ordered_pairs(*map(np.concatenate, zip(*found))) if found else ()


@dataclass
class ScopfResult:
    dispatch: DispatchResult
    iterations: int  # contingency passes (re-solves after adding contingency rows)
    # residual (monitored, outaged) pairs in screening order; nonempty only
    # on a flagged exit
    violations: tuple[tuple[int, int], ...]
    converged: bool
    flow_rows: tuple[FlowRow, ...]  # base and contingency rows, in the order added
    # per LP solve: (iteration, base rows, contingency rows appended,
    # simplex iterations, objective)
    trace: list[tuple[int, int, int, int, float]]


def contingency_row(factors: SensitivityFactors, monitored: int, outaged: int,
                    limit: float) -> FlowRow:
    """Post-contingency flow on the monitored branch as a function of
    injections: PTDF_b + LODF[b, c] * PTDF_c, limited at the monitored
    branch's contingency rating, slack-allowed. LODF[b, c] is read from
    ``SensitivityFactors.lodf_rows``, so it is the value the screen used."""
    lodf = factors.lodf_rows(np.array([monitored]))[0, outaged]
    coefficients = factors.ptdf[monitored] + lodf * factors.ptdf[outaged]
    return FlowRow(coefficients, float(limit), True, monitored, outaged)


def solve_scdcopf(network: Network, factors: SensitivityFactors, data: HourData,
                  normal_limits: np.ndarray, contingency_limits: np.ndarray,
                  max_iterations: int = DEFAULT_MAX_ITERATIONS,
                  penalty_price: float = DEFAULT_PENALTY,
                  slack_base_rows: bool = False,
                  model: DispatchModel | None = None) -> ScopfResult:
    """Constraint generation for base and contingency rows in one loop.

    Start from the LP with the rows ``model`` holds (see below; none in a
    new model). After each solve, add a base row for every branch without
    one whose flow exceeds its normal limit (largest overload first, ties
    by position) and re-solve. Only a solve
    that violates no base row is screened: one penalized row per violated
    pair not yet present, then re-solve. The loop ends on a clean screen,
    on a non-optimal LP, after ``max_iterations`` contingency passes, or
    when every violated pair already has a (slack-absorbed) row, since
    re-solving would not change the LP. An hour that ends with violations
    is returned flagged rather than silently accepted. Base passes do not
    count as iterations, and every exit after an optimal solve has checked
    the flows of every branch against its normal limit.

    Base rows are hard by default, keeping base solutions physical;
    ``slack_base_rows`` extends the penalized slacks to them as well.

    Every pass solves through ``model`` (a new one when None), which writes
    this hour's bounds and the limits of every row it holds into its LP,
    appends only the pass's new rows and re-solves from its last basis.
    The first LP holds every row ``model`` holds from earlier hours, at this
    hour's limits: ``normal_limits`` for base rows, ``contingency_limits``
    for contingency rows, each keeping its slack flag. Any base or N-1 row
    is a constraint of every hour, so this cannot change the optimum. Held
    rows are never added twice, and the first trace entry counts them as its
    base and contingency rows.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    normal_limits = np.asarray(normal_limits, dtype=float)
    contingency_limits = np.asarray(contingency_limits, dtype=float)
    if not (np.all(normal_limits > 0) and np.all(contingency_limits > 0)):
        raise ValueError("normal and contingency limits must all be > 0")
    base_cap = normal_limits * (1.0 + SCREEN_TOLERANCE)
    model = DispatchModel() if model is None else model
    held = model.rows
    rows = [FlowRow(row.coefficients,
                    float((normal_limits if row.outage_branch is None
                           else contingency_limits)[row.monitored_branch]),
                    row.slack_allowed, row.monitored_branch, row.outage_branch)
            for row in held]
    has_base_row = np.zeros(network.n_branches, dtype=bool)
    has_base_row[[row.monitored_branch for row in held if row.outage_branch is None]] = True
    pairs = {(row.monitored_branch, row.outage_branch) for row in held
             if row.outage_branch is not None}
    trace: list[tuple[int, int, int, int, float]] = []
    violations = ()
    iterations = 0
    n_base = int(has_base_row.sum())
    added = len(rows) - n_base
    while True:
        result = solve_problem(build_problem(network, data, rows, penalty_price),
                               ptdf=factors.ptdf, model=model)
        if result.status != OPTIMAL:
            return ScopfResult(result, iterations, violations, False, tuple(rows), trace)
        trace.append((iterations, n_base, added, result.simplex_iterations, result.objective))
        overload = np.abs(result.flows) - base_cap
        new_base = np.flatnonzero((overload > 0.0) & ~has_base_row)
        if new_base.size:
            new_base = new_base[np.lexsort((new_base, -overload[new_base]))]
            rows += base_flow_rows(network, factors.ptdf, normal_limits,
                                   slack_base_rows, new_base)
            has_base_row[new_base] = True
            n_base += new_base.size
            added = 0
            continue
        violations = screen_contingencies(result.flows, factors, contingency_limits)
        new_pairs = [p for p in violations if p not in pairs]
        if not new_pairs or iterations == max_iterations:
            break
        iterations += 1
        pairs.update(new_pairs)
        rows += [contingency_row(factors, b, c, contingency_limits[b]) for b, c in new_pairs]
        added = len(new_pairs)
    return ScopfResult(result, iterations, violations, not violations, tuple(rows), trace)


def verify_n1(flows: np.ndarray, lodf: np.ndarray,
              contingency_limits: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Exhaustive post-check over every (monitored, outaged) pair,
    independent of the screening path: the violated pairs by overload
    descending, ties by pair."""
    return _ordered_pairs(*screen_violations(post_contingency_flows(flows, lodf),
                                             contingency_limits))
