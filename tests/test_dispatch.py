from dataclasses import replace

import numpy as np
import pytest

import gridline.lp as lp_module
from gridline.dispatch import (DispatchModel, DispatchProblem, FlowRow, HourData,
                               audit_result, base_flow_rows, build_lp, build_problem, hour_data,
                               solve_copperplate, solve_penalized_dcopf, solve_problem)
from gridline.errors import SolverError
from gridline.factors import build_factors
from gridline.lp import LpModel, solve_lp
from gridline.util import parse_hour

from helpers import solve_base, triangle_network, two_bus_network

HOUR = parse_hour("2016-07-01T00:00:00Z")


def two_bus_setup(line_limit=100.0, demand=80.0, cheap=10.0, dear=30.0):
    net = two_bus_network(line_limit, cheap, dear)
    factors = build_factors(net, slack_bus=2)
    data = HourData(HOUR, np.array([0.0, demand]),
                    np.zeros(2), np.array([100.0, 100.0]))
    return net, factors, data


def test_uncongested_two_bus():
    net, factors, data = two_bus_setup(line_limit=100.0, demand=80.0)
    result = solve_base(net, factors, data, np.array([100.0]))
    assert result.status == "optimal"
    assert result.p_gen == pytest.approx([80.0, 0.0], abs=1e-6)
    assert result.flows[0] == pytest.approx(80.0, abs=1e-6)
    assert result.objective == pytest.approx(800.0, abs=1e-6)
    assert result.row_duals[0] == pytest.approx(0.0, abs=1e-9)
    assert result.balance_dual == pytest.approx(10.0, abs=1e-9)


def test_congested_two_bus_dual_is_cost_difference():
    net, factors, data = two_bus_setup(line_limit=50.0, demand=80.0)
    result = solve_base(net, factors, data, np.array([50.0]))
    assert result.p_gen == pytest.approx([50.0, 30.0], abs=1e-6)
    assert result.objective == pytest.approx(50 * 10 + 30 * 30, abs=1e-6)
    assert result.row_duals[0] == pytest.approx(20.0, abs=1e-6)
    assert result.balance_dual == pytest.approx(30.0, abs=1e-6)


def test_zero_demand_zero_dispatch():
    net, factors, _ = two_bus_setup()
    data = HourData(HOUR, np.zeros(2), np.zeros(2), np.array([100.0, 100.0]))
    result = solve_base(net, factors, data, np.array([100.0]))
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert result.p_gen == pytest.approx([0.0, 0.0], abs=1e-9)


def test_infeasible_hour_reported():
    net, factors, _ = two_bus_setup()
    data = HourData(HOUR, np.array([0.0, 500.0]), np.zeros(2),
                    np.array([100.0, 100.0]))
    result = solve_base(net, factors, data, np.array([100.0]))
    assert result.status == "infeasible"
    assert result.objective is None


def test_piecewise_segments_fill_cheapest_first():
    net = triangle_network(rating=1000.0)
    factors = build_factors(net, slack_bus=3)
    data = HourData(HOUR, np.array([0.0, 150.0, 0.0]), np.zeros(2),
                    np.array([200.0, 150.0]))
    result = solve_base(net, factors, data, np.full(3, 1000.0))
    # gen 1 fills 100 @ 12 then 50 @ 18 before the 35 $/MWh unit runs
    assert result.p_gen == pytest.approx([150.0, 0.0], abs=1e-6)
    assert result.objective == pytest.approx(100 * 12 + 50 * 18, abs=1e-6)


def test_availability_caps_output():
    net = triangle_network(rating=1000.0)
    factors = build_factors(net, slack_bus=3)
    data = HourData(HOUR, np.array([0.0, 150.0, 0.0]), np.zeros(2),
                    np.array([60.0, 150.0]))  # gen 1 derated this hour
    result = solve_base(net, factors, data, np.full(3, 1000.0))
    assert result.p_gen == pytest.approx([60.0, 90.0], abs=1e-6)


def penalized_two_bus(row_limit, dear=2500.0, demand=100.0):
    """Cheap unit behind a contingency-style row; avoidance requires the dear
    unit at bus 2."""
    net = two_bus_network(1000.0, cheap=10.0, dear=dear)
    factors = build_factors(net, slack_bus=2)
    data = HourData(HOUR, np.array([0.0, demand]), np.zeros(2),
                    np.array([100.0, 100.0]))
    rows = base_flow_rows(net, factors.ptdf, np.array([1000.0]))
    rows.append(FlowRow(factors.ptdf[0], row_limit, True, 0, 0))
    problem = build_problem(net, data, rows, penalty_price=2000.0)
    return net, factors, problem


def test_slack_free_when_row_is_loose():
    _, factors, problem = penalized_two_bus(row_limit=150.0)
    result = solve_penalized_dcopf(problem, ptdf=factors.ptdf)
    assert result.slack_values[1] == pytest.approx(0.0, abs=1e-9)
    assert result.p_gen == pytest.approx([100.0, 0.0], abs=1e-6)


def test_penalty_caps_shadow_price():
    # violating by 10 MW costs 2000 * 10; avoiding it costs (2500 - 10) * 10
    _, factors, problem = penalized_two_bus(row_limit=90.0, dear=2500.0)
    result = solve_penalized_dcopf(problem, ptdf=factors.ptdf)
    assert result.slack_values[1] == pytest.approx(10.0, abs=1e-6)
    assert result.row_duals[1] == pytest.approx(2000.0, abs=1e-6)
    assert result.p_gen == pytest.approx([100.0, 0.0], abs=1e-6)


def test_cheap_avoidance_beats_penalty():
    _, factors, problem = penalized_two_bus(row_limit=90.0, dear=30.0)
    result = solve_penalized_dcopf(problem, ptdf=factors.ptdf)
    assert result.slack_values[1] == pytest.approx(0.0, abs=1e-9)
    assert result.p_gen == pytest.approx([90.0, 10.0], abs=1e-6)


def test_duplicate_rows_leave_dispatch_and_objective_unchanged():
    # only meaningful while slacks stay at zero: a duplicated *violated* row
    # would double the penalty, which is why the screening loop deduplicates
    _, factors, problem = penalized_two_bus(row_limit=90.0, dear=30.0)
    duplicated = DispatchProblem(
        problem.hour, problem.demand, problem.gen_bus, problem.gen_min,
        problem.gen_max, problem.cost_curves,
        problem.flow_rows + (problem.flow_rows[-1],), problem.penalty_price)
    single = solve_penalized_dcopf(problem, ptdf=factors.ptdf)
    double = solve_penalized_dcopf(duplicated, ptdf=factors.ptdf)
    assert single.slack_values[1] == pytest.approx(0.0, abs=1e-9)
    assert double.objective == pytest.approx(single.objective, rel=1e-9)
    assert double.p_gen == pytest.approx(single.p_gen, abs=1e-6)
    # duals may split across the duplicates but their sum is preserved
    assert (double.row_duals[1] + double.row_duals[2]) == pytest.approx(
        single.row_duals[1], abs=1e-6)


def test_copperplate_is_relaxation(networks, serieses, factors_map):
    net = networks["case30"]
    series = serieses["case30"]
    factors = factors_map["case30"]
    rating = net.static_rating
    for hour in list(series.hours)[::6]:
        data = hour_data(net, series, hour)
        constrained = solve_base(net, factors, data, rating)
        copper = solve_copperplate(net, data, factors)
        assert copper.objective <= constrained.objective + 1e-6
        assert copper.flows is not None  # informational PTDF flows


def test_copperplate_equals_base_on_single_bus():
    # single-bus case is not representable (branches need two buses); the
    # equivalent statement: with no congestion possible, objectives match
    net = two_bus_network(line_limit=1e6)
    factors = build_factors(net, slack_bus=2)
    data = HourData(HOUR, np.array([0.0, 70.0]), np.zeros(2), np.array([100.0, 100.0]))
    base = solve_base(net, factors, data, np.array([1e6]))
    copper = solve_copperplate(net, data, factors)
    assert copper.objective == pytest.approx(base.objective, rel=1e-9)


def test_lp_duality_euler_identity():
    # the reduced costs the row marginals leave are dual feasible at the
    # column bounds, and the dual objective equals the primal one (strong
    # duality for LP), on a congested problem with slack rows
    _, _, problem = penalized_two_bus(row_limit=90.0, dear=2500.0)
    lp, _ = build_lp(problem)
    solution = solve_lp(LpModel(lp))
    assert solution.status == "optimal"
    tol = 1e-6
    assert np.all(solution.ineq_marginals <= tol)  # binding <= rows price nonpositive
    lower, upper = np.array([(lo, np.inf if hi is None else hi) for lo, hi in lp.bounds]).T
    reduced = (lp.cost - lp.a_ub.T @ solution.ineq_marginals
               - lp.a_eq.T @ solution.eq_marginals)
    # a positive reduced cost needs a column held at its lower bound, a
    # negative one a column held at a finite upper bound
    at_lower, at_upper = reduced > tol, reduced < -tol
    assert at_upper.any()  # the cheap unit runs at its capacity
    np.testing.assert_allclose(solution.x[at_lower], lower[at_lower], atol=tol)
    assert np.all(np.isfinite(upper[at_upper]))
    np.testing.assert_allclose(solution.x[at_upper], upper[at_upper], atol=tol)
    bound = np.where(at_lower, lower, np.where(at_upper, upper, 0.0))
    dual = (solution.eq_marginals @ lp.b_eq + solution.ineq_marginals @ lp.b_ub
            + reduced @ bound)
    assert dual == pytest.approx(solution.objective, rel=1e-6)


def test_result_feasibility_audited(networks, serieses, factors_map):
    net = networks["case5"]
    series = serieses["case5"]
    factors = factors_map["case5"]
    for hour in list(series.hours)[::5]:
        data = hour_data(net, series, hour)
        result = solve_base(net, factors, data, net.static_rating)
        assert result.status == "optimal"
        assert abs(result.p_gen.sum() - data.demand.sum()) <= 1e-6
        assert np.all(result.p_gen >= data.gen_min - 1e-6)
        assert np.all(result.p_gen <= data.gen_max + 1e-6)
        assert np.all(np.abs(result.flows) <= net.static_rating + 1e-6 * net.static_rating)


def test_audit_refuses_a_tampered_result(networks, serieses, factors_map):
    net, series, factors = networks["case5"], serieses["case5"], factors_map["case5"]
    data = hour_data(net, series, series.hours[12])
    problem = build_problem(net, data, base_flow_rows(net, factors.ptdf, net.static_rating))
    coefficients = np.array([row.coefficients for row in problem.flow_rows])
    result = solve_problem(problem, ptdf=factors.ptdf)
    audit_result(problem, result, coefficients)  # the solver's own result passes

    def refusal(problem, p_gen):
        with pytest.raises(SolverError) as err:
            audit_result(problem, replace(result, p_gen=p_gen), coefficients)
        return str(err.value)

    p_gen = result.p_gen
    assert refusal(problem, p_gen + np.eye(len(p_gen))[0]) == "power balance residual 1.000e+00 MW"
    # generator 0 one MW past its maximum, the MW taken from generator 1
    moved = p_gen.copy()
    moved[0] = data.gen_max[0] + 1.0
    moved[1] -= moved[0] - p_gen[0]
    assert refusal(problem, moved) == "generator bounds violated"
    # the most loaded branch's row limited 1 MW below its flow
    r = int(np.argmax(np.abs(result.flows)))
    rows = list(problem.flow_rows)
    rows[r] = replace(rows[r], limit=abs(result.flows[r]) - 1.0)
    assert refusal(replace(problem, flow_rows=tuple(rows)), p_gen) == (
        f"flow row {r} violated by 1.000e+00 MW at {problem.hour}")


def test_true_single_bus_copperplate_equals_base():
    from helpers import make_network
    net = make_network(
        buses=[(1, 31.0, -99.0, 115.0)], branches=[],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    factors = build_factors(net, slack_bus=1)
    data = HourData(HOUR, np.array([60.0]), np.zeros(1), np.array([100.0]))
    base = solve_base(net, factors, data, np.array([]))
    copper = solve_copperplate(net, data, factors)
    assert base.objective == pytest.approx(copper.objective, rel=1e-12)
    assert base.p_gen == pytest.approx([60.0], abs=1e-9)


def test_slack_extension_to_base_rows():
    from gridline.scopf import solve_scdcopf
    # base-case overload: demand 80 behind a 50 MVA line with no alternative;
    # hard base rows are infeasible, slack-extended base rows absorb it
    net = two_bus_network(line_limit=50.0, cheap=10.0, dear=30.0)
    factors = build_factors(net, slack_bus=2)
    data = HourData(HOUR, np.array([0.0, 80.0]), np.zeros(2),
                    np.array([100.0, 0.0]))  # bus-2 unit unavailable
    limits = np.array([50.0])
    hard = solve_scdcopf(net, factors, data, limits, 1.146 * limits)
    assert hard.dispatch.status == "infeasible"
    soft = solve_scdcopf(net, factors, data, limits, 1.146 * limits,
                         slack_base_rows=True)
    assert soft.dispatch.status == "optimal"
    assert soft.dispatch.slack_values[0] == pytest.approx(30.0, abs=1e-6)
    assert soft.dispatch.row_duals[0] == pytest.approx(2000.0, abs=1e-6)



def test_lowered_rows_leave_out_entries_highs_would_drop(networks, serieses, factors_map):
    from gridline.dispatch import MATRIX_ZERO_TOL

    net, series, factors = networks["case30"], serieses["case30"], factors_map["case30"]
    problem = build_problem(net, hour_data(net, series, series.hours[0]),
                            base_flow_rows(net, factors.ptdf, net.static_rating))
    lp, layout = build_lp(problem)
    magnitude = np.abs(factors.ptdf[:, net.gen_bus[layout.seg_owner]])
    assert np.any((magnitude > 0) & (magnitude <= MATRIX_ZERO_TOL))  # PTDF rounding noise
    assert np.all(np.abs(lp.a_ub.data) > MATRIX_ZERO_TOL)
    assert lp.a_ub.nnz == 2 * np.count_nonzero(magnitude > MATRIX_ZERO_TOL)


@pytest.mark.parametrize("bad", ["shorter", "reordered", "slack flag", "coefficients"])
def test_model_refuses_rows_that_do_not_begin_with_its_held_rows(networks, serieses,
                                                                 factors_map, bad):
    net, series, factors = networks["case30"], serieses["case30"], factors_map["case30"]
    rows = base_flow_rows(net, factors.ptdf, 0.7 * net.static_rating)
    problem = build_problem(net, hour_data(net, series, series.hours[0]), rows)
    model, twin = DispatchModel(), DispatchModel()
    first = solve_problem(problem, factors.ptdf, model)
    solve_problem(problem, factors.ptdf, twin)
    assert first.status == "optimal" and first.simplex_iterations > 0
    head = rows[0]
    changed = {
        "shorter": rows[:-1],
        "reordered": [rows[1], rows[0], *rows[2:]],
        "slack flag": [FlowRow(head.coefficients, head.limit, True, 0), *rows[1:]],
        "coefficients": [FlowRow(factors.ptdf[1], head.limit, False, 0), *rows[1:]],
    }[bad]
    # a new hour too, whose bounds the model would take on first
    later = build_problem(net, hour_data(net, series, series.hours[12]), changed)
    with pytest.raises(ValueError, match="held rows"):
        model.hold(later)
    assert model.rows is problem.flow_rows
    again, reference = (solve_problem(problem, factors.ptdf, m) for m in (model, twin))
    assert again.objective == reference.objective == first.objective
    assert again.simplex_iterations == reference.simplex_iterations


@pytest.mark.parametrize("bad", ["penalty price", "generator buses", "cost curves"])
def test_model_refuses_a_problem_its_lp_was_not_built_for(networks, serieses, factors_map,
                                                          bad):
    # the LP's segment columns and slack costs are those of the first problem
    # held, so a later problem with others would be solved as if it had them
    net, series, factors = networks["case30"], serieses["case30"], factors_map["case30"]
    rows = base_flow_rows(net, factors.ptdf, 0.7 * net.static_rating)
    problem = build_problem(net, hour_data(net, series, series.hours[0]), rows)
    model, twin = DispatchModel(), DispatchModel()
    first = solve_problem(problem, factors.ptdf, model)
    solve_problem(problem, factors.ptdf, twin)
    later = build_problem(net, hour_data(net, series, series.hours[12]), rows)
    (cap, price), *rest = later.cost_curves[0]
    later = {
        "penalty price": replace(later, penalty_price=5.0),
        "generator buses": replace(later, gen_bus=np.roll(later.gen_bus, 1)),
        "cost curves": replace(later, cost_curves=(((cap, price + 1.0), *rest),
                                                   *later.cost_curves[1:])),
    }[bad]
    with pytest.raises(ValueError, match="differ from those the model was built with"):
        model.hold(later)
    assert model.rows is problem.flow_rows
    again, reference = (solve_problem(problem, factors.ptdf, m) for m in (model, twin))
    assert again.objective == reference.objective == first.objective
    assert again.simplex_iterations == reference.simplex_iterations


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
def test_base_flow_rows_refuse_a_limit_that_is_not_positive(networks, factors_map, bad):
    net = networks["case5"]
    limits = net.static_rating.copy()
    limits[2] = bad
    with pytest.raises(ValueError, match=f"^flow limit {bad} on branch index 2 is not > 0$"):
        base_flow_rows(net, factors_map["case5"].ptdf, limits)


@pytest.mark.parametrize("field, position", [("demand", 1), ("gen_min", 0), ("gen_max", 0)])
@pytest.mark.parametrize("model", [None, DispatchModel], ids=["fresh", "model"])
def test_non_finite_dispatch_input_is_refused_before_any_lp(monkeypatch, field, position,
                                                            model):
    net, factors, data = two_bus_setup()
    values = getattr(data, field).copy()
    values[position] = np.nan
    data = replace(data, **{field: values})
    monkeypatch.setattr(lp_module, "linprog", lambda *args, **kwargs: pytest.fail("LP ran"))
    with pytest.raises(ValueError, match=f"{field} must be finite, got nan at position {position}"):
        solve_problem(build_problem(net, data, base_flow_rows(net, factors.ptdf, [100.0])),
                      factors.ptdf, None if model is None else model())



@pytest.mark.parametrize("limit, coefficients, message", [
    (float("nan"), None, "flow row 1 has a non-finite limit nan"),
    (50.0, [np.nan, 0.0], "flow row 1 has a non-finite coefficient nan at bus position 0"),
], ids=["limit", "coefficients"])
def test_non_finite_new_flow_row_is_refused_and_leaves_the_lp_untouched(limit, coefficients,
                                                                        message):
    net, factors, data = two_bus_setup(line_limit=50.0)
    good = base_flow_rows(net, factors.ptdf, [50.0])
    bad = FlowRow(factors.ptdf[0] if coefficients is None else np.array(coefficients),
                  limit, True, 0, 0)
    fresh, model, twin = DispatchModel(), DispatchModel(), DispatchModel()
    with pytest.raises(ValueError, match=f"^{message}$"):
        fresh.hold(build_problem(net, data, [*good, bad]))
    assert fresh.lp is None and fresh.rows == ()
    problem = build_problem(net, data, good)
    first = solve_problem(problem, factors.ptdf, model)
    solve_problem(problem, factors.ptdf, twin)
    with pytest.raises(ValueError, match=f"^{message}$"):
        model.hold(build_problem(net, replace(data, demand=np.array([0.0, 60.0])), [*good, bad]))
    assert model.rows is problem.flow_rows
    again, reference = (solve_problem(problem, factors.ptdf, m) for m in (model, twin))
    assert again.objective == reference.objective == first.objective
    assert again.simplex_iterations == reference.simplex_iterations


def test_non_finite_limit_of_a_held_row_is_refused_and_leaves_the_lp_untouched():
    net, factors, data = two_bus_setup(line_limit=50.0)
    problem = build_problem(net, data, base_flow_rows(net, factors.ptdf, [50.0]))
    model, twin = DispatchModel(), DispatchModel()
    first = solve_problem(problem, factors.ptdf, model)
    solve_problem(problem, factors.ptdf, twin)
    held = problem.flow_rows[0]
    later = replace(problem, demand=np.array([0.0, 60.0]),
                    flow_rows=(replace(held, limit=float("nan")),))
    with pytest.raises(ValueError, match="^flow row 0 has a non-finite limit nan$"):
        model.hold(later)
    assert model.rows is problem.flow_rows
    again, reference = (solve_problem(problem, factors.ptdf, m) for m in (model, twin))
    assert again.objective == reference.objective == first.objective
    assert again.simplex_iterations == reference.simplex_iterations

def test_non_finite_segment_price_is_refused_with_its_generator():
    # no dispatch problem, on either path, can be built from such a unit
    with pytest.raises(ValueError, match=r"generator 1 cost curve must be finite, "
                                         r"got \(\(100.0, nan\),\)"):
        two_bus_network(cheap=float("nan"))
