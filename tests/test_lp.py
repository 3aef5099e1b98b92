"""The HiGHS backend against scipy's public ``linprog`` on drawn box-bounded
LPs and on the dispatch LPs of the bundled cases."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from gridline import lp as backend
from gridline.dispatch import base_flow_rows, build_lp, build_problem, hour_data
from gridline.errors import SolverError
from gridline.lp import ERROR, INFEASIBLE, OPTIMAL, HighsResult, LpModel, LpProblem, solve_lp
from gridline.scopf import contingency_row

import oracles

STATUS = {0: OPTIMAL, 2: INFEASIBLE, 4: ERROR}


def assert_matches_public_linprog(problem):
    """Same status; on an optimum the same objective and x to 1e-9, and the
    same marginals wherever the optimum is unique. Returns the status."""
    solution = solve_lp(LpModel(problem))
    reference = oracles.public_linprog(problem)
    assert solution.status == STATUS[reference.status]
    if solution.status != OPTIMAL:
        return solution.status
    assert solution.objective == pytest.approx(reference.fun, rel=1e-9, abs=1e-9)
    scale = max(1.0, float(np.abs(reference.x).max()))
    np.testing.assert_allclose(solution.x, reference.x, rtol=1e-9, atol=1e-9 * scale)
    if oracles.unique_optimum(problem, reference):
        pairs = [(solution.eq_marginals, reference.eqlin.marginals)]
        if problem.a_ub is not None:
            pairs.append((solution.ineq_marginals, reference.ineqlin.marginals))
        for mine, theirs in pairs:
            np.testing.assert_allclose(mine, theirs, rtol=1e-9,
                                       atol=1e-9 * max(1.0, float(np.abs(theirs).max())))
    return solution.status


values = st.floats(-10.0, 10.0).map(lambda v: round(v, 3))
coefficients = st.one_of(st.just(0.0), values)


@st.composite
def box_lps(draw):
    """min c @ x over a box, a few <= rows and one equality row. The
    right-hand sides are set around a point of the box and then shifted,
    so some draws are feasible and some are not."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    lower = draw(arrays(float, n, elements=values))
    width = draw(arrays(float, n, elements=st.floats(0.1, 20.0).map(lambda v: round(v, 3))))
    point = lower + width * draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    a_ub = draw(arrays(float, (m, n), elements=coefficients))
    a_eq = draw(arrays(float, (1, n), elements=coefficients))
    shift = st.one_of(st.just(0.0), st.floats(-3.0, 10.0))
    return LpProblem(
        cost=draw(arrays(float, n, elements=values)),
        a_ub=sparse.csr_matrix(a_ub) if m else None,
        b_ub=a_ub @ point + draw(arrays(float, m, elements=shift)) if m else None,
        a_eq=sparse.csr_matrix(a_eq),
        b_eq=a_eq @ point + draw(arrays(float, 1, elements=shift)),
        bounds=list(zip(lower.tolist(), (lower + width).tolist())))


@settings(max_examples=300, deadline=None)
@given(problem=box_lps())
def test_drawn_lps_match_public_linprog(problem):
    assert_matches_public_linprog(problem)


@pytest.mark.parametrize("name", ["case3", "case5", "case30"])
def test_dispatch_lps_match_public_linprog(networks, serieses, factors_map, name):
    net, factors = networks[name], factors_map[name]
    radial = {net.branch_index[b] for b in factors.radial_branches}
    outages = [c for c in range(net.n_branches) if c not in radial][:6]
    statuses, slack_hours = [], 0
    for hour in list(serieses[name].hours)[::4]:
        data = hour_data(net, serieses[name], hour)
        base = base_flow_rows(net, factors.ptdf, net.static_rating)
        # every contingency row at 60% of the normal rating, so slacks bind
        penalized = base + [contingency_row(factors, b, c, 0.6 * net.static_rating[b])
                            for c in outages for b in range(net.n_branches) if b != c]
        for rows in (base, penalized):
            lp, layout = build_lp(build_problem(net, data, rows))
            statuses.append(assert_matches_public_linprog(lp))
            if rows is penalized and statuses[-1] == OPTIMAL:
                slack_hours += bool(np.any(solve_lp(LpModel(lp)).x[len(layout.seg_owner):] > 1e-6))
    assert OPTIMAL in statuses
    assert slack_hours > 0


@pytest.fixture()
def case30_lp(networks, serieses, factors_map):
    net, series = networks["case30"], serieses["case30"]
    rows = base_flow_rows(net, factors_map["case30"].ptdf, net.static_rating)
    return build_lp(build_problem(net, hour_data(net, series, series.hours[0]), rows))[0]


@pytest.mark.parametrize("status, outcome", [
    (backend._STATUS.kTimeLimit, "HiGHS status 13: Time limit reached"),
    (backend._STATUS.kUnboundedOrInfeasible, "HiGHS status 9: Primal infeasible or unbounded"),
])
def test_other_statuses_are_errors_with_the_solver_message(monkeypatch, case30_lp,
                                                           status, outcome):
    monkeypatch.setattr(backend, "linprog", lambda solver: HighsResult(
        status, backend.highs._Highs().modelStatusToString(status), 3))
    solution = solve_lp(LpModel(case30_lp))
    assert (solution.status, solution.message) == (ERROR, outcome)


def test_unbounded_lp_raises():
    problem = LpProblem(np.array([-1.0, 0.0]), None, None,
                        sparse.csr_matrix(np.array([[0.0, 1.0]])), np.array([1.0]),
                        [(0.0, None), (0.0, 5.0)])
    with pytest.raises(SolverError, match="unbounded"):
        solve_lp(LpModel(problem))


@pytest.mark.parametrize("bounds, column", [([(0.0, np.nan)], 0),
                                             ([(0.0, None), (np.nan, 1.0)], 1)])
def test_a_nan_column_bound_is_refused_on_both_paths(bounds, column):
    # both ways ``_highs_model`` lays out a model: without and with ``<=`` rows
    problem = LpProblem(-np.ones(len(bounds)), None, None, sparse.csr_matrix((0, len(bounds))),
                        np.zeros(0), bounds)
    with pytest.raises(ValueError, match=f"^column {column} has a NaN bound$"):
        LpModel(problem)
    with pytest.raises(ValueError, match=f"^column {column} has a NaN bound$"):
        LpModel(replace(problem, a_ub=sparse.csr_matrix(np.ones((1, len(bounds)))),
                        b_ub=np.ones(1)))


def test_a_model_highs_refuses_raises_on_both_paths(case30_lp):
    # both ways ``_highs_model`` lays out a model: with and without ``<=`` rows
    refused = replace(case30_lp, b_eq=np.array([np.nan]))
    with pytest.raises(SolverError, match="HiGHS refused passModel"):
        LpModel(refused)
    with pytest.raises(SolverError, match="HiGHS refused passModel"):
        LpModel(replace(refused, a_ub=None, b_ub=None))


def test_simplex_iterations_are_reported(case30_lp):
    solution = solve_lp(LpModel(case30_lp))
    assert solution.status == OPTIMAL
    assert solution.simplex_iterations > 0


shifts = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))


@settings(max_examples=150, deadline=None)
@given(problem=box_lps(), draw=st.data())
def test_lp_model_changed_in_place_matches_a_fresh_solve(problem, draw):
    """A model built with some of the drawn ``<=`` rows or none, then rows
    added in batches with private and shared slacks, and the column bounds
    and every right-hand side moved at once: after each change the model
    solves to the status and objective of the same LP in a new model."""
    n = len(problem.cost)
    lower, upper = np.array(problem.bounds, dtype=float).T
    b_eq = problem.b_eq
    candidates = (np.zeros((0, n)), np.zeros(0)) if problem.a_ub is None else (
        problem.a_ub.toarray(), problem.b_ub)
    held = draw.draw(st.integers(0, len(candidates[1])))
    model = LpModel(LpProblem(problem.cost,
                              sparse.csr_matrix(candidates[0][:held]) if held else None,
                              candidates[1][:held] if held else None, problem.a_eq, b_eq,
                              problem.bounds))
    # (coefficients over the problem's columns, right-hand side, slack column)
    rows = [(candidates[0][i], candidates[1][i], None) for i in range(held)]
    n_slacks = 0  # slack columns, numbered in the order added
    penalty = 1.0  # cheap enough that slacks take part in most optima

    def fresh():
        a_ub = np.zeros((len(rows), n + n_slacks))
        for i, (coefficients, _, slack) in enumerate(rows):
            a_ub[i, :n] = coefficients
            if slack is not None:
                a_ub[i, n + slack] = -1.0
        return solve_lp(LpModel(LpProblem(
            np.concatenate((problem.cost, np.full(n_slacks, penalty))),
            sparse.csr_matrix(a_ub) if rows else None,
            np.array([b for _, b, _ in rows]) if rows else None,
            sparse.csr_matrix(np.hstack((problem.a_eq.toarray(), np.zeros((1, n_slacks))))),
            b_eq, list(zip(lower.tolist(), upper.tolist())) + [(0.0, None)] * n_slacks)))

    for step in draw.draw(st.lists(st.sampled_from(["add", "add", "move"]),
                                   min_size=1, max_size=10)):
        if step == "add" and len(candidates[1]):
            picked = draw.draw(st.lists(st.integers(0, len(candidates[1]) - 1),
                                        min_size=1, max_size=4))
            groups = draw.draw(st.lists(st.integers(-1, 2), min_size=len(picked),
                                        max_size=len(picked)))
            numbers = {}  # drawn group -> slack number, in order of first use
            slack = np.array([-1 if g < 0 else numbers.setdefault(g, len(numbers))
                              for g in groups])
            first, n_slacks = n_slacks, n_slacks + len(numbers)
            a_new = candidates[0][picked]
            b_new = candidates[1][picked] + np.array(draw.draw(st.lists(
                shifts, min_size=len(picked), max_size=len(picked))))
            rows += [(a_new[i], b_new[i], None if k < 0 else first + k)
                     for i, k in enumerate(slack.tolist())]
            row, col = np.nonzero(a_new)
            model.add_rows(b_new, row, col, a_new[row, col], slack, penalty)
        elif step == "move":
            shift = np.array(draw.draw(st.lists(shifts, min_size=n, max_size=n)))
            lower, upper = lower + shift, upper + shift
            b_eq = b_eq + draw.draw(shifts)
            moves = draw.draw(st.lists(shifts, min_size=len(rows), max_size=len(rows)))
            rows = [(a, b + move, slack) for (a, b, slack), move in zip(rows, moves)]
            model.set_bounds(lower, upper, b_eq, np.array([b for _, b, _ in rows]))
        solution, reference = solve_lp(model), fresh()
        assert solution.status == reference.status
        if reference.status == OPTIMAL:
            assert solution.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-9)
            assert len(solution.x) == n + n_slacks
            assert len(solution.ineq_marginals) == len(rows)


def test_lp_model_needs_one_right_hand_side_per_row(case30_lp):
    no_rows = LpProblem(case30_lp.cost, None, None, case30_lp.a_eq, case30_lp.b_eq,
                        case30_lp.bounds)
    model = LpModel(no_rows)
    lower, upper = np.array(no_rows.bounds, dtype=float).T
    with pytest.raises(ValueError, match="one right-hand side per row"):
        model.set_bounds(lower, upper, no_rows.b_eq, np.zeros(1))
    model.set_bounds(lower, upper, no_rows.b_eq, np.zeros(0))
    assert solve_lp(model).objective == solve_lp(LpModel(no_rows)).objective
