import math
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridline.errors import GridlineError, RatingCollapseError
from gridline.ratings import (AAR, DLR, HOUR_BLOCK, SLR, RatingParams, branch_eligible,
                              branch_multiplier, build_rating_series,
                              estimate_diameter, eta_temperature, eta_wind,
                              fold_attack_angle, k_angle, k_angle_of_wind, sweep_parameters)
from gridline.weather import WeatherGrid, WeatherSample, load_weather, nearest_cell

import oracles
from helpers import make_network, triangle_network, two_bus_network

PARAMS = RatingParams()


class TestKAngle:
    def test_worst_case_and_perpendicular(self):
        assert k_angle(0.0) == pytest.approx(0.388, abs=1e-12)
        assert k_angle(math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_symmetry_after_fold(self):
        rng = np.random.RandomState(1)
        for phi in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
            assert k_angle(fold_attack_angle(phi)) == pytest.approx(
                k_angle(fold_attack_angle(phi + math.pi)), abs=1e-12)

    def test_image_and_monotone_on_reduced_domain(self):
        grid = np.linspace(0.0, math.pi / 2, 1001)
        values = np.array([k_angle(p) for p in grid])
        assert values.min() > 0.0 and values.max() <= 1.3
        assert np.all(np.diff(values) > 0)

    def test_fold_range(self):
        rng = np.random.RandomState(2)
        for phi in rng.uniform(-10, 10, 200):
            folded = fold_attack_angle(phi)
            assert 0.0 <= folded <= math.pi / 2


def trig_k_angle(u, v, axis):
    """K_angle of a wind (u, v) on a conductor of bearing ``axis`` through
    the folded attack angle, as ``tests/oracles.py`` rates it."""
    return k_angle(fold_attack_angle(np.arctan2(v, u) - axis))


def component_k_angle(u, v, axis):
    """K_angle of the same wind through ``k_angle_of_wind``, the wind made a
    unit direction as the array rater makes it."""
    speed = np.hypot(u, v)
    return k_angle_of_wind(np.divide(u, speed), np.divide(v, speed), np.cos(axis), np.sin(axis))


class TestKAngleOfWind:
    """The wind-component form of K_angle equals the trigonometric one."""

    # normal floats only: a subnormal component loses digits in u / speed
    COMPONENT = st.floats(-30.0, 30.0, allow_subnormal=False)
    BEARING = st.floats(-math.pi, math.pi, exclude_min=True)  # conductor_angle's range

    @settings(max_examples=300, deadline=None)
    @given(u=COMPONENT, v=COMPONENT, axis=BEARING)
    def test_drawn_winds(self, u, v, axis):
        assume(u != 0.0 or v != 0.0)
        np.testing.assert_allclose(component_k_angle(u, v, axis), trig_k_angle(u, v, axis),
                                   rtol=2e-15, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(speed=st.floats(1e-300, 30.0) | st.floats(1e-6, 0.02), axis=BEARING,
           turn=st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    def test_parallel_perpendicular_and_near_calm_winds(self, speed, axis, turn):
        # wind along the conductor either way (turn 0, 1) or across it (0.5, 1.5)
        u, v = speed * math.cos(axis + turn * math.pi), speed * math.sin(axis + turn * math.pi)
        assume(u != 0.0 or v != 0.0)
        expected = trig_k_angle(u, v, axis)
        np.testing.assert_allclose(component_k_angle(u, v, axis), expected, rtol=2e-15, atol=0)
        assert expected == pytest.approx(0.388 if turn in (0.0, 1.0) else 1.0, abs=1e-9)

    @pytest.mark.parametrize("u, v", [(3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0),
                                      (-2.0, -5.0), (4.0, -1e-3), (-1e-300, 2e-300)])
    @pytest.mark.parametrize("axis", [0.0, math.pi / 2, math.pi, -math.pi / 2, -2.5, 1.0])
    def test_axis_aligned_and_negative_components(self, u, v, axis):
        np.testing.assert_allclose(component_k_angle(u, v, axis), trig_k_angle(u, v, axis),
                                   rtol=2e-15, atol=0)


class TestEtaTemperature:
    def test_identity_at_slr_assumption(self):
        assert eta_temperature(273.15 + 40.0, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        # sqrt(80/60) and sqrt(50/60), from the independent scalar oracle
        assert eta_temperature(293.15, PARAMS) == pytest.approx(1.1547005383792515, abs=1e-12)
        assert eta_temperature(323.15, PARAMS) == pytest.approx(0.9128709291752769, abs=1e-12)

    def test_collapse_refused(self):
        with pytest.raises(RatingCollapseError):
            eta_temperature(273.15 + 100.0, PARAMS)
        with pytest.raises(RatingCollapseError):
            eta_temperature(273.15 + 130.0, PARAMS)

    def test_strictly_decreasing_in_ambient(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            t = rng.uniform(250.0, 360.0)
            step = 1e-4
            assert eta_temperature(t + step, PARAMS) < eta_temperature(t, PARAMS)

    def test_decreasing_in_conductor_temp_when_cooler_than_slr(self):
        rng = np.random.RandomState(4)
        for _ in range(100):
            ambient = rng.uniform(250.0, 313.0)  # below the 40 C SLR assumption
            t_c = rng.uniform(60.0, 150.0)
            low = RatingParams(t_conductor=t_c)
            high = RatingParams(t_conductor=t_c + 1.0)
            assert eta_temperature(ambient, high) < eta_temperature(ambient, low)

    def test_matches_independent_scalar(self):
        rng = np.random.RandomState(5)
        for _ in range(200):
            ambient = rng.uniform(250.0, 350.0)
            expected = oracles.eta_temperature_reference(ambient, 100.0, 40.0)
            assert eta_temperature(ambient, PARAMS) == pytest.approx(expected, abs=1e-12)


class TestEtaWind:
    def test_slr_conditions_reproduce_unity(self):
        # at v_slr the Reynolds factor is below 1, so the floor binds
        assert eta_wind(PARAMS.v_slr, PARAMS.phi_slr, 0.016, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_angle_gain(self):
        # sqrt(1.0 / 0.388), frozen from the scalar oracle; Reynolds floor binds
        value = eta_wind(PARAMS.v_slr, math.pi / 2, 0.016, PARAMS)
        assert value == pytest.approx(1.6054032476698388, abs=1e-12)

    def test_reynolds_floor_binding_case(self):
        # v=5 m/s, D=0.03 m: 0.566 * (rho/mu * D * v)^0.04 ~= 0.809 -> floor at 1
        reynolds = 0.566 * ((PARAMS.air_density / PARAMS.air_viscosity) * 0.03 * 5.0) ** 0.04
        assert reynolds == pytest.approx(0.8089952317589282, abs=1e-12)
        value = eta_wind(5.0, 0.0, 0.03, PARAMS)
        assert value == pytest.approx((5.0 / PARAMS.v_slr) ** 0.26, abs=1e-12)

    def test_calm_and_errors(self):
        assert eta_wind(0.0, 0.0, 0.02, PARAMS) == 1.0
        assert eta_wind(0.009, 1.0, 0.02, PARAMS) == 1.0
        with pytest.raises(ValueError):
            eta_wind(-1.0, 0.0, 0.02, PARAMS)

    def test_nondecreasing_in_speed_perpendicular(self):
        speeds = np.linspace(0.05, 15.0, 300)
        values = [eta_wind(v, math.pi / 2, 0.02, PARAMS) for v in speeds]
        assert np.all(np.diff(values) >= 0)

    def test_matches_independent_scalar(self):
        rng = np.random.RandomState(6)
        for _ in range(200):
            speed = rng.uniform(0.02, 15.0)
            phi = rng.uniform(-7.0, 7.0)
            diameter = rng.uniform(0.005, 0.05)
            expected = oracles.eta_wind_reference(
                speed, phi, diameter, PARAMS.v_slr, PARAMS.phi_slr,
                PARAMS.air_density, PARAMS.air_viscosity)
            assert eta_wind(speed, phi, diameter, PARAMS) == pytest.approx(expected, abs=1e-12)


class TestDiameter:
    def test_fit_from_rating(self):
        net = two_bus_network(line_limit=100.0)
        # 100 MVA at 115 kV -> about 502 A; frozen from the three-phase identity
        assert estimate_diameter(net.branches[0], net, PARAMS) == pytest.approx(
            0.016040874246776103, abs=1e-12)

    def test_explicit_override(self, networks):
        net = networks["case5"]
        branch = net.branches[net.branch_index[3]]
        assert estimate_diameter(branch, net, PARAMS) == 0.0281


class TestBranchMultiplier:
    def sample(self, temp_k=293.15, u=3.0, v=0.0):
        return WeatherSample(temp_k, u, v, 0)

    def test_transformer_stays_static(self, networks):
        net = networks["case5"]
        transformer = net.branches[net.branch_index[5]]
        for regime in (SLR, AAR, DLR):
            assert branch_multiplier(self.sample(), transformer, regime, PARAMS,
                                     0.02, 0.0) == 1.0

    def test_long_line_stays_static(self, networks):
        net = networks["case30"]
        long_line = net.branches[net.branch_index[30]]
        assert long_line.kind == "line" and long_line.length_km > 100.0
        for regime in (SLR, AAR, DLR):
            assert branch_multiplier(self.sample(), long_line, regime, PARAMS,
                                     0.02, 0.0) == 1.0

    def test_absent_sample_is_slr_fallback(self):
        net = triangle_network()
        for regime in (SLR, AAR, DLR):
            assert branch_multiplier(None, net.branches[0], regime, PARAMS, 0.02, 0.0) == 1.0

    def test_wind_floor_keeps_dlr_at_aar(self):
        # eta_T = 0.9 (ambient 51.4 C), weak wind -> eta_v < 1 -> DLR == AAR
        net = triangle_network()
        branch = net.branches[0]
        hot = self.sample(temp_k=373.15 - 0.81 * 60.0, u=0.3)
        eta_t = eta_temperature(hot.ambient_temp, PARAMS)
        assert eta_t == pytest.approx(0.9, abs=1e-12)
        aar = branch_multiplier(hot, branch, AAR, PARAMS, 0.016, 0.0)
        dlr = branch_multiplier(hot, branch, DLR, PARAMS, 0.016, 0.0)
        assert aar == pytest.approx(0.9, abs=1e-12)
        assert dlr == pytest.approx(0.9, abs=1e-12)

    def test_exact_slr_weather_gives_unity_everywhere(self):
        net = triangle_network()
        branch = net.branches[0]
        slr_weather = self.sample(temp_k=273.15 + 40.0, u=PARAMS.v_slr, v=0.0)
        for regime in (SLR, AAR, DLR):
            assert branch_multiplier(slr_weather, branch, regime, PARAMS,
                                     0.016, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_dlr_at_least_aar_random_draws(self):
        net = triangle_network()
        branch = net.branches[0]
        rng = np.random.RandomState(7)
        for _ in range(1000):
            s = WeatherSample(rng.uniform(255.0, 325.0), rng.uniform(-12, 12),
                              rng.uniform(-12, 12), 0)
            axis = rng.uniform(-math.pi, math.pi)
            aar = branch_multiplier(s, branch, AAR, PARAMS, 0.02, axis)
            dlr = branch_multiplier(s, branch, DLR, PARAMS, 0.02, axis)
            assert dlr >= aar >= 0.0


class TestRatingSeries:
    def test_slr_series_is_static(self, networks, serieses):
        net = networks["case3"]
        hours = list(serieses["case3"].hours)
        series = build_rating_series(net, None, hours, SLR, PARAMS)
        assert np.all(series.multiplier == 1.0)
        assert np.allclose(series.normal_limit, np.tile(net.static_rating, (24, 1)))
        assert np.allclose(series.contingency_limit, 1.146 * series.normal_limit)

    def test_missing_hour_falls_back_to_slr(self, networks, serieses, cases_dir, tmp_path):
        net = networks["case3"]
        hours = list(serieses["case3"].hours)
        lines = (cases_dir / "weather_case3.csv").read_text().splitlines()
        (tmp_path / "w.csv").write_text(
            "\n".join(l for l in lines if "T07:" not in l) + "\n")
        gappy = load_weather(tmp_path / "w.csv")
        dlr = build_rating_series(net, gappy, hours, DLR, PARAMS)
        slr = build_rating_series(net, None, hours, SLR, PARAMS)
        assert np.array_equal(dlr.normal_limit[7], slr.normal_limit[7])
        assert np.array_equal(dlr.contingency_limit[7], slr.contingency_limit[7])
        assert np.all(dlr.multiplier[np.arange(24) != 7] > 1.0)  # cool, windy fixture

    def test_dlr_dominates_aar_elementwise(self, networks, weathers, serieses):
        for name in ("case3", "case5", "case30"):
            net = networks[name]
            hours = list(serieses[name].hours)
            aar = build_rating_series(net, weathers[name], hours, AAR, PARAMS)
            dlr = build_rating_series(net, weathers[name], hours, DLR, PARAMS)
            assert np.all(dlr.multiplier >= aar.multiplier)
            assert np.all(aar.multiplier >= 0.0)

    def test_ineligible_branches_always_unity(self, networks, weathers, serieses):
        net = networks["case30"]
        hours = list(serieses["case30"].hours)
        ineligible = [l for l, b in enumerate(net.branches)
                      if b.kind == "transformer" or b.length_km >= 100.0]
        assert ineligible
        for regime in (SLR, AAR, DLR):
            series = build_rating_series(net, weathers["case30"], hours, regime, PARAMS)
            assert np.all(series.multiplier[:, ineligible] == 1.0)

    def test_weather_required_for_rated_regimes(self, networks, serieses):
        with pytest.raises(GridlineError, match="requires weather"):
            build_rating_series(networks["case3"], None,
                                list(serieses["case3"].hours), DLR, PARAMS)


class TestSweep:
    def test_table_orderings(self, networks, weathers, serieses):
        net = networks["case30"]
        hours = list(serieses["case30"].hours)
        table = sweep_parameters(net, weathers["case30"], hours,
                                 [78.0, 100.0, 110.0],
                                 [0.0, math.radians(45), math.radians(90)])
        means = {(t, round(math.degrees(p))): m for t, p, m in table}
        for phi in (0, 45, 90):
            assert means[(78.0, phi)] > means[(100.0, phi)] > means[(110.0, phi)]
        for t_c in (78.0, 100.0, 110.0):
            assert means[(t_c, 0)] > means[(t_c, 45)] > means[(t_c, 90)]

    def test_constant_slr_weather_gives_unity_means(self, tmp_path):
        # one line along the zone-14 central meridian (axis exactly pi/2) and
        # wind due north at v_slr: attack angle is exactly phi_slr = 0, ambient
        # exactly the SLR assumption, so eta_T = 1 and eta_v <= 1 floors to 1
        from helpers import make_network
        net = make_network(
            buses=[(1, 31.0, -99.0, 115.0), (2, 31.5, -99.0, 115.0)],
            branches=[(1, 1, 2, 0.1, 100.0)],
            gens=[(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])
        rows = ["time,lat,lon,temp_k,wind_u_ms,wind_v_ms"]
        for h in range(4):
            rows.append(f"2016-07-01T0{h}:00:00Z,31.2,-99.0,313.15,0.0,{PARAMS.v_slr}")
        (tmp_path / "w.csv").write_text("\n".join(rows) + "\n")
        flat = load_weather(tmp_path / "w.csv")
        table = sweep_parameters(net, flat, list(flat.hours), [78.0, 100.0, 110.0],
                                 [0.0, math.radians(45), math.radians(90)])
        for _, _, mean in table:
            assert mean == pytest.approx(1.0, abs=1e-12)


class TestZeroLengthLine:
    """An eligible line between co-located buses (blank length_km, 0 km)."""

    @staticmethod
    def network():
        return make_network(
            buses=[(1, 31.0, -99.0, 115.0), (2, 31.0, -99.0, 115.0), (3, 31.2, -99.0, 115.0)],
            branches=[(7, 1, 2, 0.1, 100.0), (8, 2, 3, 0.1, 100.0)],
            gens=[(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])

    def test_aar_rates_it(self, weathers):
        net, grid = self.network(), weathers["case3"]
        assert net.branches[0].length_km == 0.0
        series = build_rating_series(net, grid, list(grid.hours), AAR, PARAMS)
        cell = nearest_cell(grid, 31.0, -99.0)
        assert np.array_equal(series.multiplier[:, 0],
                              eta_temperature(grid.temperature[:, cell], PARAMS))

    def test_dlr_refuses_it_by_name(self, weathers):
        grid = weathers["case3"]
        with pytest.raises(GridlineError, match="branch 7: .*zero length"):
            build_rating_series(self.network(), grid, list(grid.hours), DLR, PARAMS)


def test_collapse_names_branch_and_hour(weathers):
    grid = weathers["case3"]
    hot = WeatherGrid(grid.cells, grid.hours, grid.present, grid.temperature.copy(),
                      grid.wind_u, grid.wind_v)
    hot.temperature[5, 1] = 273.15 + 100.0
    net = make_network(
        buses=[(1, 30.8, -98.8, 115.0), (2, 31.0, -98.8, 115.0)],  # midpoint on cell 1
        branches=[(4, 1, 2, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])
    assert nearest_cell(grid, 30.9, -98.8) == 1
    with pytest.raises(RatingCollapseError, match="branch 4 at 2016-07-01T05:00:00Z"):
        build_rating_series(net, hot, list(grid.hours), DLR, PARAMS)


def oracle_multipliers(net, grid, hours, regime, params):
    """The multipliers by a branch-hour loop over the references in
    tests/oracles.py: exhaustive nearest cell, reference eta formulas."""
    expected = np.ones((len(hours), net.n_branches))
    for l, branch in enumerate(net.branches):
        if branch.kind != "line" or branch.length_km >= params.eligibility_length_km:
            continue
        a, b = net.bus(branch.from_bus), net.bus(branch.to_bus)
        cell = oracles.brute_force_nearest(grid.cells, (a.latitude + b.latitude) / 2,
                                           (a.longitude + b.longitude) / 2)
        diameter = estimate_diameter(branch, net, params)
        axis = oracles.scalar_bearing(a.latitude, a.longitude, b.latitude, b.longitude)
        for h, hour in enumerate(hours):
            pos = grid.hour_pos(hour)
            if not grid.present[pos]:
                continue
            u, v = grid.wind_u[pos, cell], grid.wind_v[pos, cell]
            eta_v = 1.0
            if regime == DLR and math.hypot(u, v) >= params.calm_wind_threshold:
                eta_v = oracles.eta_wind_reference(
                    math.hypot(u, v), math.atan2(v, u) - axis, diameter, params.v_slr,
                    params.phi_slr, params.air_density, params.air_viscosity)
            expected[h, l] = oracles.eta_temperature_reference(
                grid.temperature[pos, cell], params.t_conductor,
                params.t_ambient_slr) * max(1.0, eta_v)
    return expected


class TestArrayPathAgainstOracle:
    @pytest.mark.parametrize("name", ["case3", "case5", "case30"])
    @pytest.mark.parametrize("regime", [AAR, DLR])
    def test_bundled_cases(self, networks, weathers, serieses, name, regime):
        net, grid = networks[name], weathers[name]
        hours = list(serieses[name].hours)
        series = build_rating_series(net, grid, hours, regime, PARAMS)
        np.testing.assert_allclose(series.multiplier,
                                   oracle_multipliers(net, grid, hours, regime, PARAMS),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_weather(self, networks, weathers, data):
        name = data.draw(st.sampled_from(["case3", "case5", "case30"]))
        net, cells = networks[name], weathers[name].cells
        n_hours = data.draw(st.integers(1, 4))
        params = RatingParams(t_conductor=data.draw(st.floats(60.0, 150.0)),
                              phi_slr=data.draw(st.floats(0.0, math.pi)))
        shape = (n_hours, len(cells))
        hottest = params.t_conductor + 273.15 - 0.5
        wind = st.one_of(st.just(0.0), st.floats(-0.02, 0.02), st.floats(-25.0, 25.0))
        grid = WeatherGrid(
            cells, weathers[name].hours[:n_hours],
            data.draw(arrays(bool, n_hours)),
            data.draw(arrays(float, shape, elements=st.floats(230.0, hottest))),
            data.draw(arrays(float, shape, elements=wind)),
            data.draw(arrays(float, shape, elements=wind)))
        for regime in (AAR, DLR):
            series = build_rating_series(net, grid, list(grid.hours), regime, params)
            np.testing.assert_allclose(
                series.multiplier, oracle_multipliers(net, grid, list(grid.hours), regime, params),
                rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lines_across_a_zone_boundary(self, data):
        # UTM zones 13 and 14 meet at -102: each line is rated in its
        # from-bus zone, whichever side its to-bus lies on
        n_lines = data.draw(st.integers(1, 6))
        buses, branches = [], []
        for k in range(n_lines):
            lat = 30.0 + 0.5 * k + data.draw(st.floats(0.0, 0.4))  # distinct from-buses
            lon = data.draw(st.floats(-102.4, -101.6))
            offset = st.floats(0.01, 0.4) | st.floats(-0.4, -0.01)
            buses += [(2 * k + 1, lat, lon, 115.0),
                      (2 * k + 2, lat + data.draw(offset), lon + data.draw(offset), 115.0)]
            branches.append((k + 1, 2 * k + 1, 2 * k + 2, 0.1, 100.0))
        branches += [(n_lines + k, 2 * k + 1, 2 * k + 3, 0.1, 100.0) for k in range(n_lines - 1)]
        net = make_network(buses, branches, [(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])
        u, v = data.draw(st.floats(-20.0, 20.0)), data.draw(st.floats(-20.0, 20.0))
        grid = WeatherGrid([(32.0, -102.0)], (datetime(2016, 7, 1, tzinfo=timezone.utc),),
                           np.array([True]), np.array([[300.0]]), np.array([[u]]),
                           np.array([[v]]))
        series = build_rating_series(net, grid, list(grid.hours), DLR, PARAMS)
        np.testing.assert_allclose(
            series.multiplier, oracle_multipliers(net, grid, list(grid.hours), DLR, PARAMS),
            rtol=0, atol=1e-12)

    def test_sweep_means_equal_direct_series(self, networks, serieses, cases_dir, tmp_path):
        net, hours = networks["case30"], list(serieses["case30"].hours)
        lines = (cases_dir / "weather_case30.csv").read_text().splitlines()
        (tmp_path / "w.csv").write_text("\n".join(l for l in lines if "T07:" not in l) + "\n")
        grid = load_weather(tmp_path / "w.csv")
        present = [grid.present[grid.hour_pos(h)] for h in hours]
        eligible = [branch_eligible(b, PARAMS) for b in net.branches]
        assert not all(present) and not all(eligible)
        # more present hours than one block, and an absent hour inside the first
        assert sum(present) > HOUR_BLOCK and 0 < present.index(False) < HOUR_BLOCK - 1
        table = sweep_parameters(net, grid, hours, [78.0, 110.0], [0.0, math.radians(60)])
        for t_c, phi, mean in table:
            series = build_rating_series(net, grid, hours, DLR,
                                         replace(PARAMS, t_conductor=t_c, phi_slr=phi))
            assert mean == series.multiplier[np.ix_(present, eligible)].mean()
        reference = oracles.per_hour_sweep(net, grid, hours, [78.0, 110.0],
                                           [0.0, math.radians(60)], PARAMS)
        np.testing.assert_allclose(np.array(table), np.array(reference), rtol=2e-15, atol=0)


def drawn_grid(data, cells, params, n_hours):
    """``n_hours`` hours of drawn weather on ``cells``: some hours absent,
    calm and near-calm winds, every ambient below the conductor limit."""
    shape = (n_hours, len(cells))
    hottest = params.t_conductor + 273.15 - 0.5
    calm = params.calm_wind_threshold
    wind = st.one_of(st.just(0.0), st.just(calm), st.floats(-1.5 * calm, 1.5 * calm),
                     st.floats(-25.0, 25.0))
    start = datetime(2016, 7, 1, tzinfo=timezone.utc)
    return WeatherGrid(
        cells, tuple(start + timedelta(hours=h) for h in range(n_hours)),
        data.draw(arrays(bool, n_hours)),
        data.draw(arrays(float, shape, elements=st.floats(230.0, hottest))),
        data.draw(arrays(float, shape, elements=wind)),
        data.draw(arrays(float, shape, elements=wind)))


def drawn_params(data):
    return RatingParams(t_conductor=data.draw(st.floats(60.0, 150.0)),
                        t_ambient_slr=data.draw(st.floats(0.0, 50.0)),
                        v_slr=data.draw(st.floats(0.2, 3.0)),
                        phi_slr=data.draw(st.floats(0.0, math.pi)),
                        calm_wind_threshold=data.draw(st.floats(0.001, 0.5)))


# hour counts on both sides of one, two and three blocks, and any other
BLOCK_STRADDLING = st.sampled_from([k * HOUR_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)])


class TestRaterAgainstPerHourOracle:
    """The array rater against the per-hour evaluation in tests/oracles.py:
    AAR bit for bit, DLR to a few ulps (its wind term divides by
    sqrt(K_angle_SLR) after the product instead of inside the root)."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_series(self, networks, weathers, data):
        name = data.draw(st.sampled_from(["case3", "case5", "case30"]))
        params = drawn_params(data)
        n_hours = data.draw(BLOCK_STRADDLING | st.integers(1, 3 * HOUR_BLOCK + 2))
        net, grid = networks[name], drawn_grid(data, weathers[name].cells, params, n_hours)
        hours = data.draw(st.permutations(grid.hours))
        aar = build_rating_series(net, grid, hours, AAR, params).multiplier
        assert np.array_equal(aar, oracles.per_hour_multipliers(net, grid, hours, AAR, params))
        dlr = build_rating_series(net, grid, hours, DLR, params).multiplier
        np.testing.assert_allclose(dlr, oracles.per_hour_multipliers(net, grid, hours, DLR,
                                                                     params),
                                   rtol=2e-15, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_sweep(self, networks, weathers, data):
        base = drawn_params(data)
        n_hours = data.draw(BLOCK_STRADDLING)
        net, grid = networks["case30"], drawn_grid(data, weathers["case30"].cells, base, n_hours)
        hours = list(grid.hours)
        present = [grid.present[grid.hour_pos(h)] for h in hours]
        assume(any(present))
        eligible = [branch_eligible(b, base) for b in net.branches]
        # the grid's T_C stay above the hottest drawn ambient
        t_values = [base.t_conductor, base.t_conductor + data.draw(st.floats(0.5, 60.0))]
        phi_values = [base.phi_slr, data.draw(st.floats(0.0, math.pi).filter(
            lambda phi: phi != base.phi_slr))]
        table = sweep_parameters(net, grid, hours, t_values, phi_values, base)
        reference = oracles.per_hour_sweep(net, grid, hours, t_values, phi_values, base)
        np.testing.assert_allclose(np.array(table), np.array(reference), rtol=2e-15, atol=0)
        for t_c, phi, mean in table:
            series = build_rating_series(net, grid, hours, DLR,
                                         replace(base, t_conductor=t_c, phi_slr=phi))
            assert mean == series.multiplier[np.ix_(present, eligible)].mean()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lines_sharing_cells(self, data):
        # a 4 x 4 grid of cells a degree apart, and lines centred on one to
        # three of them: more lines than used cells, so some share a cell,
        # and the other cells rate no line
        cells = [(30.0 + i, -100.0 + j) for i in range(4) for j in range(4)]
        used = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=1, max_size=3,
                                  unique=True))
        n_lines = data.draw(st.integers(len(used) + 1, 8))
        offset = st.floats(0.02, 0.3) | st.floats(-0.3, -0.02)
        buses, branches = [], []
        for k in range(n_lines):
            lat, lon = cells[used[k % len(used)]]
            half_lat, half_lon = data.draw(offset) / 2, data.draw(offset) / 2
            buses += [(2 * k + 1, lat - half_lat, lon - half_lon, 115.0),
                      (2 * k + 2, lat + half_lat, lon + half_lon, 115.0)]
            branches.append((k + 1, 2 * k + 1, 2 * k + 2, 0.1, data.draw(st.floats(50.0, 400.0))))
        net = make_network(buses, branches, [(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])
        params = drawn_params(data)
        n_hours = data.draw(BLOCK_STRADDLING | st.integers(1, 2 * HOUR_BLOCK))
        grid = drawn_grid(data, cells, params, n_hours)
        lat, lon = np.array([(b.latitude, b.longitude) for b in net.buses]).T
        line_cell = nearest_cell(grid, (lat[0::2] + lat[1::2]) / 2, (lon[0::2] + lon[1::2]) / 2)
        assert sorted(set(line_cell)) == sorted(used)
        hours = data.draw(st.permutations(grid.hours))
        aar = build_rating_series(net, grid, hours, AAR, params).multiplier
        assert np.array_equal(aar, oracles.per_hour_multipliers(net, grid, hours, AAR, params))
        dlr = build_rating_series(net, grid, hours, DLR, params).multiplier
        np.testing.assert_allclose(dlr, oracles.per_hour_multipliers(net, grid, hours, DLR,
                                                                     params),
                                   rtol=2e-15, atol=0)
        # one present hour above the conductor limit in every cell
        hot = data.draw(st.integers(0, n_hours - 1))
        temperature, present = grid.temperature.copy(), grid.present.copy()
        temperature[hot] = params.t_conductor + 273.15 + data.draw(
            arrays(float, len(cells), elements=st.floats(0.0, 5.0)))
        present[hot] = True
        grid = WeatherGrid(cells, grid.hours, present, temperature, grid.wind_u, grid.wind_v)
        for regime in (AAR, DLR):
            with pytest.raises(RatingCollapseError) as expected:
                oracles.per_hour_multipliers(net, grid, hours, regime, params)
            with pytest.raises(RatingCollapseError) as err:
                build_rating_series(net, grid, hours, regime, params)
            assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_zero_wind_under_a_nonpositive_calm_threshold(self, networks, weathers, threshold):
        # the wind is not calm, its speed term is 0, and so DLR is AAR there
        net, cells = networks["case30"], weathers["case30"].cells
        params = replace(PARAMS, calm_wind_threshold=threshold)
        n_hours = HOUR_BLOCK + 3
        rng = np.random.RandomState(8)
        shape = (n_hours, len(cells))
        wind_u, wind_v = rng.uniform(-8.0, 8.0, shape), rng.uniform(-8.0, 8.0, shape)
        wind_u[::2, ::2] = wind_v[::2, ::2] = 0.0
        wind_u[1::2, ::3], wind_v[1::2, ::3] = -0.0, 0.0
        wind_u[::3, 1::2], wind_v[::3, 1::2] = 0.0, -0.0
        start = datetime(2016, 7, 1, tzinfo=timezone.utc)
        grid = WeatherGrid(cells, tuple(start + timedelta(hours=h) for h in range(n_hours)),
                           np.ones(n_hours, dtype=bool), rng.uniform(250.0, 320.0, shape),
                           wind_u, wind_v)
        hours = list(grid.hours)
        dlr = build_rating_series(net, grid, hours, DLR, params).multiplier
        assert np.isfinite(dlr).all()
        np.testing.assert_allclose(dlr, oracles.per_hour_multipliers(net, grid, hours, DLR,
                                                                     params),
                                   rtol=2e-15, atol=0)
        a, b = net.branch_from, net.branch_to
        lat, lon = np.array([(bus.latitude, bus.longitude) for bus in net.buses]).T
        still = ((wind_u == 0) & (wind_v == 0))[:, nearest_cell(grid, (lat[a] + lat[b]) / 2,
                                                                  (lon[a] + lon[b]) / 2)]
        assert still.any()
        aar = build_rating_series(net, grid, hours, AAR, params).multiplier
        assert np.array_equal(dlr[still], aar[still])

    @pytest.mark.parametrize("regime", [AAR, DLR])
    def test_collapse_in_a_later_block_names_the_per_hour_branch_and_hour(self, networks,
                                                                         weathers, regime):
        net, cells = networks["case30"], weathers["case30"].cells
        n_hours, limit = 3 * HOUR_BLOCK, PARAMS.t_conductor + 273.15
        start = datetime(2016, 7, 1, tzinfo=timezone.utc)
        temperature = np.full((n_hours, len(cells)), 300.0)
        first = HOUR_BLOCK + 5  # the second block's first collapse
        temperature[first] = limit + np.random.RandomState(3).uniform(0.0, 5.0, len(cells))
        temperature[first + 4] = temperature[2 * HOUR_BLOCK + 1] = limit + 10.0  # later ones
        grid = WeatherGrid(cells, tuple(start + timedelta(hours=h) for h in range(n_hours)),
                           np.ones(n_hours, dtype=bool), temperature,
                           np.full_like(temperature, 3.0), np.full_like(temperature, -1.0))
        hours = list(grid.hours)
        with pytest.raises(RatingCollapseError) as expected:
            oracles.per_hour_multipliers(net, grid, hours, regime, PARAMS)
        assert "at 2016-07-01T21:00:00Z" in str(expected.value)
        with pytest.raises(RatingCollapseError) as err:
            build_rating_series(net, grid, hours, regime, PARAMS)
        assert str(err.value) == str(expected.value)


def test_params_validation():
    with pytest.raises(ValueError):
        RatingParams(t_conductor=30.0, t_ambient_slr=40.0)
    with pytest.raises(ValueError):
        RatingParams(v_slr=0.0)
    with pytest.raises(ValueError):
        RatingParams(contingency_ratio=0.9)
    params = RatingParams(phi_slr=math.pi / 4)
    assert params.k_angle_slr == k_angle(math.pi / 4)


@pytest.mark.parametrize("field", [f.name for f in fields(RatingParams)])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_must_be_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        RatingParams(**{field: value})


@pytest.mark.parametrize("field", ["air_density", "air_viscosity"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_air_properties_must_be_positive(field, value):
    with pytest.raises(ValueError, match="air_density and air_viscosity must be positive"):
        RatingParams(**{field: value})


def test_nonpositive_ampacity_rejected():
    from gridline.network import Branch
    net = two_bus_network()
    bogus = Branch(9, 1, 2, 0.1, -5.0, "line", 10.0, None)
    with pytest.raises(GridlineError, match="ampacity"):
        estimate_diameter(bogus, net, PARAMS)


def test_sweep_without_eligible_line_fails(networks, weathers, serieses):
    short = RatingParams(eligibility_length_km=1e-3)
    assert not any(branch_eligible(b, short) for b in networks["case3"].branches)
    with pytest.raises(GridlineError, match="no line shorter than 0.001 km"):
        sweep_parameters(networks["case3"], weathers["case3"], list(serieses["case3"].hours),
                         [100.0], [0.0], short)


@pytest.mark.parametrize("tc_values, phi_values, message", [
    ([78.0, 78.0], [0.0], "t_conductor values must not repeat: value 2 repeats value 1"),
    ([78.0, 100.0], [0.0, 0.5, 0.0], "phi_slr values must not repeat: value 3 repeats value 1"),
])
def test_sweep_refuses_repeated_values(networks, weathers, serieses, tc_values, phi_values,
                                       message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_parameters(networks["case5"], weathers["case5"], list(serieses["case5"].hours),
                         tc_values, phi_values)
