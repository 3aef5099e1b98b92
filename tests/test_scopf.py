from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridline.dispatch import DispatchModel, HourData, hour_data
from gridline.factors import build_factors
import gridline.lp as lp
import gridline.scopf as scopf
from gridline.lp import OPTIMAL
from gridline.ratings import SLR, RatingParams, build_rating_series
from gridline.scopf import (post_contingency_flows, screen_contingencies,
                            screen_violations, solve_scdcopf, verify_n1)
from gridline.util import parse_hour

import oracles
from helpers import (make_network, meshed_hours, solve_base, triangle_network,
                     two_bus_network)

HOUR = parse_hour("2016-07-01T00:00:00Z")
PARAMS = RatingParams()


def test_zero_base_flows_give_zero_cont_flows(factors_map):
    factors = factors_map["case3"]
    f_cont = post_contingency_flows(np.zeros(3), factors.lodf)
    assert np.all(f_cont == 0.0)


def test_cont_flows_match_remove_and_resolve(networks, factors_map):
    rng = np.random.RandomState(31)
    for name in ("case3", "case30"):
        net, factors = networks[name], factors_map[name]
        injections = rng.uniform(-1, 1, net.n_buses) * 60.0
        injections -= injections.mean()
        base = factors.ptdf @ injections
        f_cont = post_contingency_flows(base, factors.lodf)
        radial_pos = {net.branch_index[b] for b in factors.radial_branches}
        scale = max(1.0, np.abs(base).max())
        for c in range(net.n_branches):
            if c in radial_pos:
                assert np.all(np.isnan(f_cont[:, c]))  # invalid, never screened
                continue
            assert f_cont[c, c] == 0.0
            expected = oracles.dc_power_flow(net, injections, skip_branch=c)
            keep = np.arange(net.n_branches) != c
            np.testing.assert_allclose(f_cont[keep, c], expected[keep],
                                       rtol=1e-9, atol=1e-9 * scale)


def test_screen_empty_with_huge_limits(factors_map):
    factors = factors_map["case30"]
    flows = np.full(35, 50.0)
    f_cont = post_contingency_flows(flows, factors.lodf)
    monitored, outaged, overload = screen_violations(f_cont, np.full(35, 1e9))
    assert monitored.size == outaged.size == overload.size == 0


def test_screen_finds_constructed_overload():
    # hand-built: 100 MW at bus 1 split 50/50 to buses 2 and 3. Outage of
    # line 1-3 puts all 100 on line 1-2 (10% over its 90.9 limit); the other
    # outages leave at most 50 MW anywhere, so exactly one pair screens.
    net = triangle_network()
    factors = build_factors(net, slack_bus=3)
    injections = np.array([100.0, -50.0, -50.0])
    base = factors.ptdf @ injections
    f_cont = post_contingency_flows(base, factors.lodf)
    limits = np.array([90.9, 1e9, 1e9])
    monitored, outaged, overload = screen_violations(f_cont, limits)
    pos_12 = net.branch_index[1]
    pos_13 = net.branch_index[3]
    assert list(zip(monitored.tolist(), outaged.tolist())) == [(pos_12, pos_13)]
    assert overload == pytest.approx([100.0 - 90.9], abs=1e-9)


def test_screen_symmetric_parallel_pair():
    net = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0),
               (3, 31.2, -99.3, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 1, 2, 0.1, 100.0),
                  (3, 2, 3, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 200.0, [(200.0, 10.0)])])
    factors = build_factors(net, slack_bus=3)
    injections = np.array([150.0, 0.0, -150.0])  # 75 MW per parallel circuit
    f_cont = post_contingency_flows(factors.ptdf @ injections, factors.lodf)
    monitored, outaged, overload = screen_violations(f_cont, np.array([110.0, 110.0, 1e9]))
    assert set(zip(monitored.tolist(), outaged.tolist())) == {(0, 1), (1, 0)}  # 150 > 110
    assert overload[0] == pytest.approx(overload[1])


def test_sorted_by_overload_descending():
    f_cont = np.array([[0.0, 120.0], [140.0, 0.0]])
    found = scopf._ordered_pairs(*screen_violations(f_cont, np.array([100.0, 100.0])))
    assert found == ((1, 0), (0, 1))


@settings(max_examples=200, deadline=None)
@given(draw=st.data(), size=st.integers(3, 7))
def test_verify_n1_order_matches_brute_force_sort(draw, size):
    # small integers and halves keep every post-contingency flow exact, so
    # overloads tie often; rows 0 and 1 are copies, which forces a tie on
    # every outage they both see
    flows = np.array(draw.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)),
                     dtype=float)
    lodf = np.array(draw.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                       min_size=size * size, max_size=size * size)))
    lodf = lodf.reshape(size, size)
    limits = np.array(draw.draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=size,
                                         max_size=size)))
    flows[1], lodf[1], limits[1] = flows[0], lodf[0], limits[0]
    radial = draw.draw(st.lists(st.integers(2, size - 1), unique=True, max_size=2))
    lodf[:, radial] = np.nan
    expected = []
    for b in range(size):
        for c in range(size):
            if b == c or c in radial:
                continue
            overload = abs(flows[b] + lodf[b, c] * flows[c]) - limits[b]
            if overload > 1e-6 * limits[b]:
                expected.append((-overload, b, c))
    assert verify_n1(flows, lodf, limits) == tuple((b, c) for _, b, c in sorted(expected))


def test_no_violations_short_circuits(networks, serieses, factors_map):
    net, factors = networks["case3"], factors_map["case3"]
    data = hour_data(net, serieses["case3"], serieses["case3"].hours[0])  # light hour
    limits = np.full(3, 1e6)
    solution = solve_scdcopf(net, factors, data, limits, 1.146 * limits)
    assert solution.iterations == 0
    assert solution.converged
    base = solve_base(net, factors, data, limits)
    assert solution.dispatch.objective == pytest.approx(base.objective, rel=1e-12)


@pytest.mark.parametrize("which", ["normal", "contingency"])
@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
def test_limits_that_are_not_positive_are_refused(networks, serieses, factors_map, which,
                                                   bad):
    net, factors = networks["case3"], factors_map["case3"]
    data = hour_data(net, serieses["case3"], serieses["case3"].hours[0])
    limits = {"normal": np.full(3, 1e6), "contingency": np.full(3, 1.146e6)}
    limits[which][1] = bad  # a NaN limit would fail every bound test and drop the row
    with pytest.raises(ValueError, match="limits must all be > 0"):
        solve_scdcopf(net, factors, data, limits["normal"], limits["contingency"])


def scan_hours(name, networks, serieses, factors_map, weathers, regime=SLR):
    net, factors = networks[name], factors_map[name]
    series = serieses[name]
    weather = None if regime == SLR else weathers[name]
    rating = build_rating_series(net, weather, list(series.hours), regime, PARAMS)
    for pos, hour in enumerate(series.hours):
        data = hour_data(net, series, hour)
        yield pos, data, rating.normal_limit[pos], rating.contingency_limit[pos]


def test_fixture_convergence_and_soundness(networks, serieses, factors_map, weathers):
    for name in ("case3", "case5", "case30"):
        net, factors = networks[name], factors_map[name]
        for pos, data, normal, contingency in scan_hours(
                name, networks, serieses, factors_map, weathers):
            solution = solve_scdcopf(net, factors, data, normal, contingency)
            assert solution.converged, f"{name} hour {pos}"
            assert solution.iterations <= 3
            assert np.all(solution.dispatch.slack_values == 0.0)
            # exhaustive N-1 post-check, independent of the screening path
            residual = verify_n1(solution.dispatch.flows, factors.lodf, contingency)
            assert len(residual) == 0


def test_matches_full_enumeration(networks, serieses, factors_map, weathers):
    for name in ("case3", "case5", "case30"):
        net, factors = networks[name], factors_map[name]
        for pos, data, normal, contingency in scan_hours(
                name, networks, serieses, factors_map, weathers):
            if pos % 6 != 0 and name == "case30":  # keep the slow case light here
                continue
            solution = solve_scdcopf(net, factors, data, normal, contingency)
            oracle = oracles.full_enumeration_scdcopf(net, factors, data,
                                                      normal, contingency)
            assert solution.dispatch.objective == pytest.approx(
                oracle.objective, rel=1e-6, abs=1e-6)


def test_objective_monotone_across_iterations(networks, serieses, factors_map, weathers):
    for name in ("case3", "case30"):
        net, factors = networks[name], factors_map[name]
        for pos, data, normal, contingency in scan_hours(
                name, networks, serieses, factors_map, weathers):
            solution = solve_scdcopf(net, factors, data, normal, contingency)
            objectives = [obj for *_, obj in solution.trace]
            assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_deterministic_iteration_trace(networks, serieses, factors_map, weathers):
    net, factors = networks["case30"], factors_map["case30"]
    runs = []
    for _ in range(2):
        traces = []
        for pos, data, normal, contingency in scan_hours(
                "case30", networks, serieses, factors_map, weathers):
            solution = solve_scdcopf(net, factors, data, normal, contingency)
            traces.append((solution.iterations, tuple(solution.trace)))
        runs.append(traces)
    assert runs[0] == runs[1]


def test_unresolvable_violation_flagged_with_capped_dual():
    # demand at bus 2 exceeds the contingency limit of its only alternate
    # feed: outage of line 2-3 forces flow(1-2) = demand regardless of
    # dispatch, so the violation is slack-absorbed at the penalty cap
    net = triangle_network(rating=60.0)
    factors = build_factors(net, slack_bus=3)
    data = HourData(HOUR, np.array([0.0, 85.0, 0.0]), np.zeros(2),
                    np.array([200.0, 150.0]))
    limits = np.full(3, 60.0)
    solution = solve_scdcopf(net, factors, data, limits, 1.146 * limits)
    assert not solution.converged
    assert len(solution.violations) > 0
    result = solution.dispatch
    stuck = [r for r, row in enumerate(solution.flow_rows)
             if row.outage_branch is not None and result.slack_values[r] > 1e-6]
    assert stuck
    for r in stuck:
        assert result.row_duals[r] == pytest.approx(2000.0, abs=1e-6)
    # terminates as a fixed point well before the iteration cap
    assert solution.iterations < 20


def test_b_equals_c_never_screened(factors_map):
    factors = factors_map["case3"]
    flows = np.full(3, 1000.0)
    found = verify_n1(flows, factors.lodf, np.full(3, 0.5))
    assert found and all(b != c for b, c in found)


@settings(max_examples=60, deadline=None)
@given(case=meshed_hours())
def test_lazy_loop_matches_full_enumeration(case):
    net, data, normal, contingency = case
    factors = build_factors(net)
    solution = solve_scdcopf(net, factors, data, normal, contingency)
    oracle = oracles.full_enumeration_scdcopf(net, factors, data, normal, contingency)
    if oracle.status != OPTIMAL:
        assert solution.dispatch.status == oracle.status
        return
    result = solution.dispatch
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(oracle.objective, rel=1e-6, abs=1e-6)
    # every branch was checked against its normal limit over the full network
    assert np.all(np.abs(result.flows) <= normal * (1 + 1e-6))
    residual = verify_n1(result.flows, factors.lodf, contingency)
    if solution.converged:
        assert len(residual) == 0
    else:  # a fixed point: every residual pair already has its row
        present = {(row.monitored_branch, row.outage_branch) for row in solution.flow_rows}
        assert set(residual) <= present
    if np.all(oracle.slack_values == 0.0):
        assert solution.converged and len(residual) == 0


def other_hour(draw, data, normal):
    """``data`` with each bus demand scaled, and ``normal`` with all limits
    scaled, by drawn factors."""
    demand = data.demand * np.array(draw.draw(st.lists(
        st.floats(0.5, 1.4), min_size=len(data.demand), max_size=len(data.demand))))
    return (HourData(HOUR, demand, data.gen_min, data.gen_max),
            normal * draw.draw(st.floats(0.7, 1.3)))


@settings(max_examples=60, deadline=None)
@given(case=meshed_hours(), draw=st.data())
def test_carried_rows_match_full_enumeration(case, draw):
    # the hour is solved in a model that first solved drawn other hours, so
    # it starts from every row those hours found
    net, data, normal, contingency = case
    factors = build_factors(net)
    ratio = contingency / normal
    model = DispatchModel()
    for _ in range(draw.draw(st.integers(1, 3))):
        hour, limits = other_hour(draw, data, normal)
        solve_scdcopf(net, factors, hour, limits, ratio * limits, model=model)
    held = model.rows
    solution = solve_scdcopf(net, factors, data, normal, contingency, model=model)
    oracle = oracles.full_enumeration_scdcopf(net, factors, data, normal, contingency)
    if oracle.status != OPTIMAL:
        assert solution.dispatch.status == oracle.status
        return
    result = solution.dispatch
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(oracle.objective, rel=1e-6, abs=1e-6)
    assert np.all(np.abs(result.flows) <= normal * (1 + 1e-6))
    rows = [(row.monitored_branch, row.outage_branch) for row in solution.flow_rows]
    assert len(set(rows)) == len(rows)
    # the held rows come first, in their order
    assert rows[:len(held)] == [(row.monitored_branch, row.outage_branch) for row in held]
    n_base = sum(1 for row in held if row.outage_branch is None)
    assert solution.trace[0][:3] == (0, n_base, len(held) - n_base)
    for before, row in zip(held, solution.flow_rows):  # at this hour's limits
        b = row.monitored_branch
        assert row.limit == (normal[b] if row.outage_branch is None else contingency[b])
        assert row.coefficients is before.coefficients
        assert row.slack_allowed == before.slack_allowed
    if np.all(oracle.slack_values == 0.0):
        residual = verify_n1(result.flows, factors.lodf, contingency)
        assert solution.converged and len(residual) == 0


def test_carried_base_row_with_slack_is_not_added_again():
    # the dear unit at bus 2 covers only 20 MW there, so the line must carry
    # the rest of bus 2's demand over its 10 MW limit: the slack absorbs
    # 40 MW of a 70 MW demand and 50 MW of an 80 MW demand
    net = two_bus_network(line_limit=10.0)
    factors = build_factors(net, slack_bus=2)
    limits = np.array([10.0])
    model = DispatchModel()
    for demand, slack in ((70.0, 40.0), (80.0, 50.0)):
        data = HourData(HOUR, np.array([0.0, demand]), np.zeros(2), np.array([100.0, 20.0]))
        solution = solve_scdcopf(net, factors, data, limits, limits, slack_base_rows=True,
                                 model=model)
        assert [(row.monitored_branch, row.outage_branch, row.slack_allowed)
                for row in solution.flow_rows] == [(0, None, True)]
        assert solution.dispatch.slack_values == pytest.approx([slack], abs=1e-6)
    # the second hour holds the row from its first LP on, and adds nothing
    assert solution.trace == [(0, 1, 0, solution.dispatch.simplex_iterations,
                               solution.dispatch.objective)]


@settings(max_examples=30, deadline=None)
@given(case=meshed_hours())
def test_empty_carried_set_changes_nothing(case):
    # a new model holds no rows: solving through it is solving without one
    net, data, normal, contingency = case
    factors = build_factors(net)
    plain = solve_scdcopf(net, factors, data, normal, contingency)
    seeded = solve_scdcopf(net, factors, data, normal, contingency, model=DispatchModel())
    assert seeded.dispatch.status == plain.dispatch.status
    assert seeded.dispatch.objective == plain.dispatch.objective
    assert seeded.trace == plain.trace
    assert seeded.iterations == plain.iterations


@settings(max_examples=40, deadline=None)
@given(case=meshed_hours())
def test_slack_base_rows_add_the_same_rows_when_limits_bind_hard(case):
    net, data, normal, contingency = case
    factors = build_factors(net)
    hard = solve_scdcopf(net, factors, data, normal, contingency)
    soft = solve_scdcopf(net, factors, data, normal, contingency, slack_base_rows=True)
    assume(hard.dispatch.status == OPTIMAL and soft.dispatch.status == OPTIMAL)
    assume(np.all(hard.dispatch.slack_values == 0.0)
           and np.all(soft.dispatch.slack_values == 0.0))

    def row_set(solution):
        return [(row.monitored_branch, row.outage_branch) for row in solution.flow_rows]

    assert row_set(soft) == row_set(hard)
    assert soft.dispatch.objective == pytest.approx(hard.dispatch.objective, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(case=meshed_hours(), data=st.data())
def test_prefiltered_screen_equals_verify_n1(case, data):
    net = case[0]
    factors = build_factors(net)
    size = net.n_branches
    flows = np.array(data.draw(st.lists(st.floats(-150.0, 150.0), min_size=size,
                                        max_size=size)))
    limits = np.array(data.draw(st.lists(st.floats(1.0, 150.0), min_size=size,
                                         max_size=size)))
    assert screen_contingencies(flows, factors, limits) == verify_n1(
        flows, factors.lodf, limits)
    # candidate rows split over several LODF row blocks give the same set
    with mock.patch.object(scopf, "ROW_BLOCK", data.draw(st.integers(1, 4))):
        assert screen_contingencies(flows, factors, limits) == verify_n1(
            flows, factors.lodf, limits)
    # make the bound exact for one row: its largest-|LODF| outage carries the
    # largest flow, the signs add up, and the limit sits just under the
    # post-contingency flow
    b = data.draw(st.sampled_from(np.flatnonzero(factors.lodf_row_max > 0).tolist()))
    row = np.abs(factors.lodf[b])
    row[b] = np.nan
    c = int(np.nanargmax(row))
    flows[c] = 1.01 * np.abs(flows).max() + 1.0
    flows[b] = np.copysign(abs(flows[b]), factors.lodf[b, c] * flows[c])
    post = abs(flows[b] + factors.lodf[b, c] * flows[c])
    limits[b] = post / (1 + 1e-6) * (1 - data.draw(st.floats(1e-12, 1e-9)))
    found = screen_contingencies(flows, factors, limits)
    assert (b, c) in found
    assert found == verify_n1(flows, factors.lodf, limits)


def test_prefiltered_screen_without_branches_or_meshed_outages():
    single = make_network(buses=[(1, 31.0, -99.0, 115.0)], branches=[],
                          gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    factors = build_factors(single, slack_bus=1)
    assert len(screen_contingencies(np.zeros(0), factors, np.zeros(0))) == 0
    data = HourData(HOUR, np.array([60.0]), np.zeros(1), np.array([100.0]))
    solution = solve_scdcopf(single, factors, data, np.zeros(0), np.zeros(0))
    assert solution.converged and solution.flow_rows == ()
    assert solution.dispatch.objective == pytest.approx(600.0, abs=1e-9)

    path = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0), (3, 31.4, -99.0, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 2, 3, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)]),
              (2, 3, "natural_gas", 0.0, 100.0, [(100.0, 30.0)])])
    factors = build_factors(path, slack_bus=1)  # every outage islands a bus
    flows = np.array([500.0, -500.0])
    limits = np.array([1.0, 1.0])
    assert screen_contingencies(flows, factors, limits) == verify_n1(
        flows, factors.lodf, limits)
    assert len(verify_n1(flows, factors.lodf, limits)) == 0
    data = HourData(HOUR, np.array([0.0, 0.0, 80.0]), np.zeros(2), np.full(2, 100.0))
    solution = solve_scdcopf(path, factors, data, np.full(2, 50.0), np.full(2, 50.0))
    assert solution.converged and solution.iterations == 0
    assert solution.dispatch.p_gen == pytest.approx([50.0, 30.0], abs=1e-6)


def test_one_model_across_hours_matches_fresh_solves():
    # hours of one chunk solved through one model, each starting from every
    # row the hours before it found, against a fresh solve from no rows;
    # counts the drawn sequences in which a later hour both started with
    # held rows and added a penalized row in a later pass
    seen = []

    @settings(max_examples=100, deadline=None)
    @given(case=meshed_hours(), draw=st.data())
    def check(case, draw):
        net, data, normal, contingency = case
        factors = build_factors(net)
        ratio = contingency / normal
        model = DispatchModel()
        held = added = False
        for _ in range(draw.draw(st.integers(3, 6))):
            hour, limits = other_hour(draw, data, normal)
            chunk = solve_scdcopf(net, factors, hour, limits, ratio * limits, model=model)
            fresh = solve_scdcopf(net, factors, hour, limits, ratio * limits)
            assert chunk.dispatch.status == fresh.dispatch.status
            if fresh.dispatch.status != OPTIMAL:
                model = DispatchModel()
                continue
            assert chunk.dispatch.objective == pytest.approx(fresh.dispatch.objective,
                                                             rel=1e-9, abs=1e-9)
            assert chunk.converged == fresh.converged
            if np.all(fresh.dispatch.slack_values == 0.0):
                assert len(verify_n1(chunk.dispatch.flows, factors.lodf, ratio * limits)) == 0
            if sum(chunk.trace[0][1:3]):
                held = True
                added |= any(it > 0 for it, *_ in chunk.trace)
            if not chunk.converged:
                model = DispatchModel()
        seen.append(held and added)

    check()
    assert any(seen), len(seen)


@pytest.mark.parametrize("penalty", [float("nan"), float("inf"), 0.0, -5.0])
def test_bad_penalty_price_is_refused_before_any_lp(networks, serieses, factors_map,
                                                    monkeypatch, penalty):
    net, series, factors = networks["case30"], serieses["case30"], factors_map["case30"]
    data = hour_data(net, series, series.hours[12])
    limits = 0.9 * net.static_rating
    runs = []
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match="penalty_price must be finite and > 0"):
        solve_scdcopf(net, factors, data, limits, limits, penalty_price=penalty)
    assert runs == []
