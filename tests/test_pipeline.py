import csv
import gc
import importlib.util
import json
import shutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import gridline.pipeline as pipeline
from gridline.cli import main
from gridline.factors import SensitivityFactors
from gridline.network import FUELS, HourlySeries, load_hourly_series, load_network
from gridline.pipeline import (ALL_REGIMES, HOUR_ERROR, HOUR_INFEASIBLE, HOUR_OK,
                               HOUR_UNCONVERGED, ChunkRecord, RunConfig, congestion_by_branch,
                               emissions, run)
from gridline.ratings import RatingParams, RatingSeries, build_rating_series
from gridline.util import HOUR, format_hour, parse_hour
from gridline.weather import load_weather

import oracles


@pytest.fixture(scope="module")
def case5_run(cases_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("case5_run")
    config = RunConfig(
        case_directory=cases_dir / "case5",
        output_directory=out,
        weather_file=cases_dir / "weather_case5.csv",
        regimes=("slr", "aar", "dlr", "uncongested"),
    )
    return config, run(config), out


def test_summary_cost_ordering(case5_run):
    _, summary, _ = case5_run
    costs = {name: s.total_cost for name, s in summary.regimes.items()}
    assert costs["uncongested"] <= costs["dlr"] + 1e-6
    assert costs["dlr"] <= costs["aar"] + 1e-6
    assert costs["aar"] <= costs["slr"] + 1e-6
    assert summary.all_ok
    assert len(summary.common_hours) == 24


def test_congestion_decomposition_identity(case5_run):
    _, summary, _ = case5_run
    uncongested = summary.regimes["uncongested"].total_cost
    for name, regime in summary.regimes.items():
        assert regime.congestion_cost == pytest.approx(
            regime.total_cost - uncongested, abs=1e-9)
    assert summary.regimes["uncongested"].congestion_cost == pytest.approx(0.0, abs=1e-9)


def test_curtailment_conservation(case5_run, networks, serieses):
    _, summary, out = case5_run
    net, series = networks["case5"], serieses["case5"]
    wind_pos = net.gen_index[2]
    for name in ("slr", "dlr"):
        rows = (out / name / "dispatch.csv").read_text().splitlines()[1:]
        produced = {}
        for row in rows:
            time, gen_id, mw = row.split(",")
            if int(gen_id) == 2:
                produced[parse_hour(time)] = float(mw)
        total_curtailed = 0.0
        for pos, hour in enumerate(series.hours):
            available = series.availability[pos, wind_pos]
            assert produced[hour] <= available + 1e-6
            total_curtailed += available - produced[hour]
        assert summary.regimes[name].curtailment_mwh["wind"] == pytest.approx(
            total_curtailed, abs=1e-6)


def test_emissions_accounting(case5_run):
    _, summary, _ = case5_run
    for regime in summary.regimes.values():
        expected = (regime.generation_mwh["coal"] * 1.0
                    + regime.generation_mwh["natural_gas"] * 0.42)
        assert regime.emissions_tons == pytest.approx(expected, rel=1e-12)


def test_emissions_helper():
    assert emissions({"coal": 5.0}, {}) == 0.0
    assert emissions({"coal": 1e7}, {"coal": 1.0}) == pytest.approx(1e7)  # 10 TWh -> 10 MMT
    base = {"coal": 5e4, "wind": 1e4}
    shifted = {"coal": 5e4 - 1e3, "wind": 1e4 + 1e3}  # 1 GWh coal -> wind
    factors = {"coal": 1.0, "natural_gas": 0.42}
    drop = emissions(base, factors) - emissions(shifted, factors)
    assert drop == pytest.approx(1.0 * 1e3)
    with pytest.raises(ValueError):
        emissions(base, {"coal": -1.0})


def test_output_files_written(case5_run):
    _, _, out = case5_run
    assert (out / "summary.json").exists()
    for regime in ("slr", "aar", "dlr", "uncongested"):
        for name in ("dispatch.csv", "flows.csv", "congestion_by_branch.csv",
                     "iteration_trace.csv"):
            assert (out / regime / name).exists()
        if regime != "uncongested":
            assert (out / regime / "ratings.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["common_feasible_hours"] == 24
    assert "proxy" in payload["congestion_metric_note"]


def test_worker_count_invariance(cases_dir, tmp_path):
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"workers{workers}"
        config = RunConfig(
            case_directory=cases_dir / "case5",
            output_directory=out,
            weather_file=cases_dir / "weather_case5.csv",
            regimes=("slr", "dlr", "uncongested"),
            worker_count=workers,
        )
        run(config)
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[1] / rel).exists()
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_a_study_never_builds_the_full_lodf(cases_dir, tmp_path, monkeypatch):
    config = RunConfig(
        case_directory=cases_dir / "case30",
        output_directory=tmp_path / "plain",
        weather_file=cases_dir / "weather_case30.csv",
        regimes=("slr", "aar", "dlr", "uncongested"),
    )
    run(config)

    def refuse(self):
        raise AssertionError("the study built the full LODF")

    # workers are forked after the patch, so they inherit it
    monkeypatch.setattr(SensitivityFactors, "lodf", property(refuse))
    files = sorted(p.relative_to(tmp_path / "plain")
                   for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert files
    for workers in (1, 2):
        out = tmp_path / f"guarded{workers}"
        summary = run(replace(config, output_directory=out, worker_count=workers))
        assert summary.all_ok
        for rel in files:
            assert (out / rel).read_bytes() == (tmp_path / "plain" / rel).read_bytes(), rel


def test_hour_span_selection(cases_dir, tmp_path):
    config = RunConfig(
        case_directory=cases_dir / "case3",
        output_directory=tmp_path / "out",
        regimes=("slr", "uncongested"),
        hours=(parse_hour("2016-07-01T06:00:00Z"), parse_hour("2016-07-01T11:00:00Z")),
    )
    summary = run(config)
    assert len(summary.hours) == 6
    assert summary.hours[0] == parse_hour("2016-07-01T06:00:00Z")


def bumped_case3(cases_dir, tmp_path, mw_by_hour):
    """A copy of case3 with bus 2's demand set to ``mw_by_hour[hour]`` MW."""
    case = tmp_path / "case3"
    shutil.copytree(cases_dir / "case3", case)
    lines = (case / "demand.csv").read_text().splitlines()
    (case / "demand.csv").write_text("\n".join(
        next((line.rsplit(",", 1)[0] + f",{mw}" for hour, mw in mw_by_hour.items()
              if f"T{hour:02d}:" in line and ",2," in line), line) for line in lines) + "\n")
    return case


def test_infeasible_hour_recorded_and_excluded(cases_dir, tmp_path):
    case = bumped_case3(cases_dir, tmp_path, {12: 900.0})
    config = RunConfig(
        case_directory=case,
        output_directory=tmp_path / "out",
        regimes=("slr", "uncongested"),
    )
    summary = run(config)
    assert not summary.all_ok
    assert summary.regimes["slr"].infeasible_hours == ["2016-07-01T12:00:00Z"]
    assert summary.regimes["uncongested"].infeasible_hours == ["2016-07-01T12:00:00Z"]
    assert len(summary.common_hours) == 23
    # decomposition still holds over the common set
    assert summary.regimes["slr"].congestion_cost == pytest.approx(
        summary.regimes["slr"].total_cost - summary.regimes["uncongested"].total_cost)


def test_congestion_by_branch_metric():
    # rows of (hour position, monitored branch position, |dual| x row limit)
    branch_ids = [30, 7, 9, 3]
    assert congestion_by_branch(np.empty((0, 3)), branch_ids) == []
    first = [(0, 1, 5.0 * 100.0)]
    assert congestion_by_branch(np.array(first), branch_ids) == [(7, 500.0, 1)]
    # two hours, two branches, sorted by metric; a branch that binds in
    # two rows of one hour counts that hour once
    second = [(1, 1, 5.0 * 60.0), (1, 2, 100.0 * 50.0), (1, 1, 5.0 * 40.0)]
    table = congestion_by_branch(np.array(first + second), branch_ids)
    assert table == [(9, 5000.0, 1), (7, 1000.0, 2)]
    # equal metrics are ordered by branch id, not by position
    tie = [(0, 0, 1.0 * 10.0), (0, 1, 2.0 * 5.0)]
    assert congestion_by_branch(np.array(tie), branch_ids) == [(7, 10.0, 1), (30, 10.0, 1)]


# values whose sums depend on the order they are added in
ORDERED = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, -0.0]))
COSTS = st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 0.1, 0.2, 0.3, 10.0, 1e16]))


def draw_chunk(data, regime, hours, start, stop, n_generators, n_branches):
    """A chunk record of hours ``start`` to ``stop - 1`` with any status
    codes, and up to 3 binding rows in each ok hour."""
    codes = st.sampled_from((HOUR_OK, HOUR_UNCONVERGED, HOUR_INFEASIBLE, HOUR_ERROR))
    status = np.array(data.draw(st.lists(st.one_of(st.just(HOUR_OK), codes),
                                         min_size=stop - start, max_size=stop - start)),
                      dtype=np.int8)
    optimal = (status == HOUR_OK) | (status == HOUR_UNCONVERGED)
    values = st.lists(ORDERED, min_size=n_generators + 1, max_size=n_generators + 1)
    drawn = np.array([data.draw(values) if ok else [np.nan] * (n_generators + 1)
                      for ok in optimal]).reshape(stop - start, n_generators + 1)
    errors = [f"{regime} {format_hour(hours[start + k])}: solver gave up"
              for k in np.flatnonzero(status == HOUR_ERROR).tolist()]
    rows = st.lists(st.tuples(st.integers(0, n_branches - 1), COSTS), max_size=3)
    binding = [(start + k, branch, cost) for k in np.flatnonzero(status == HOUR_OK).tolist()
               for branch, cost in data.draw(rows)]
    return ChunkRecord(status, drawn[:, 0], drawn[:, 1:], np.array(errors, dtype=object),
                       np.array(binding, dtype=float).reshape(-1, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_aggregate_equals_the_per_hour_loops(data):
    regimes = tuple(data.draw(st.lists(st.sampled_from(ALL_REGIMES), min_size=1, max_size=4,
                                       unique=True)))
    n_hours = data.draw(st.integers(1, 8))
    fuels = data.draw(st.lists(st.sampled_from(FUELS), max_size=5))  # other fuels have no units
    branch_ids = data.draw(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=4, unique=True))
    network = SimpleNamespace(generators=[SimpleNamespace(fuel=fuel) for fuel in fuels],
                              branches=[SimpleNamespace(id=i) for i in branch_ids])
    hours = tuple(parse_hour("2016-07-01T00") + k * HOUR for k in range(n_hours))
    availability = np.array(data.draw(st.lists(ORDERED, min_size=n_hours * len(fuels),
                                               max_size=n_hours * len(fuels))))
    series = HourlySeries(hours, np.zeros((n_hours, 0)), availability.reshape(n_hours, len(fuels)))
    config = RunConfig(case_directory=Path("case"), output_directory=Path("out"), regimes=regimes,
                       emission_factors=data.draw(st.dictionaries(st.sampled_from(FUELS),
                                                                  st.floats(0.0, 10.0))))
    chunks = {}
    for regime in regimes:
        cuts = sorted(data.draw(st.sets(st.integers(1, n_hours - 1))) if n_hours > 1 else set())
        chunks[regime] = [draw_chunk(data, regime, hours, start, stop, len(fuels), len(branch_ids))
                          for start, stop in zip([0, *cuts], [*cuts, n_hours])]
    summary = pipeline._aggregate(config, network, series, chunks)
    expected = oracles.per_hour_aggregate(config, network, series, chunks)
    assert summary.to_json_dict() == expected.to_json_dict()
    # equal as text too: no 0 for 0.0, and no 0.0 for -0.0
    assert json.dumps(summary.to_json_dict()) == json.dumps(expected.to_json_dict())
    assert summary.congestion_tables == expected.congestion_tables
    assert summary.common_hours == expected.common_hours


def test_more_limits_fewer_total_congestion_dollars(case5_run):
    _, summary, _ = case5_run
    totals = {name: sum(cost for _, cost, _ in table)
              for name, table in summary.congestion_tables.items()}
    assert totals["dlr"] <= totals["slr"] + 1e-6


def test_missing_weather_rejected_for_dlr(cases_dir, tmp_path):
    config = RunConfig(
        case_directory=cases_dir / "case3",
        output_directory=tmp_path / "out",
        regimes=("dlr",),
    )
    from gridline.errors import GridlineError
    with pytest.raises(GridlineError, match="weather"):
        run(config)


def test_config_validation(cases_dir, tmp_path):
    with pytest.raises(ValueError, match="worker_count"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  worker_count=0)
    with pytest.raises(ValueError, match="unknown regime"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  regimes=("slr", "bogus"))
    with pytest.raises(ValueError, match="max_iterations must be >= 1, got 0"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  max_iterations=0)
    for penalty in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="penalty_price must be finite and > 0"):
            RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                      penalty_price=penalty)
    for factor in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="emission factors must be finite and >= 0"):
            RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                      emission_factors={"coal": 1.0, "natural_gas": factor})
    with pytest.raises(ValueError, match="hour span 2016-07-01T10:00:00Z..2016-07-01T05:00:00Z "
                                         "ends before it starts"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  hours=(parse_hour("2016-07-01T10"), parse_hour("2016-07-01T05")))
    with pytest.raises(ValueError, match=r"regimes must not repeat, got \['slr', 'dlr', 'slr'\]"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  regimes=("slr", "dlr", "slr"))
    with pytest.raises(ValueError, match=r"unknown fuel\(s\) \['natural-gas'\]"):
        RunConfig(case_directory=cases_dir / "case3", output_directory=tmp_path,
                  emission_factors={"natural-gas": 0.42, "coal": 1.0})


def test_lp_error_names_regime_hour_and_cause(cases_dir, tmp_path, monkeypatch):
    from gridline import lp
    from gridline.lp import HighsResult

    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: HighsResult(
        lp._STATUS.kSolveError, "numerical trouble", 0))
    out = tmp_path / "out"
    summary = run(RunConfig(
        case_directory=cases_dir / "case3", output_directory=out,
        regimes=("slr", "uncongested"), worker_count=1,
        hours=(parse_hour("2016-07-01T03:00:00Z"), parse_hour("2016-07-01T04:00:00Z"))))
    assert not summary.all_ok
    payload = json.loads((out / "summary.json").read_text())
    for regime in ("slr", "uncongested"):
        assert payload["regimes"][regime]["error_hours"] == [
            f"{regime} 2016-07-01T0{h}:00:00Z: HiGHS status 4: numerical trouble"
            for h in (3, 4)]


def test_unexpected_exception_becomes_task_error(cases_dir, tmp_path, monkeypatch):
    from gridline import lp

    def broken(*args, **kwargs):
        raise RuntimeError("bindings gave up")

    monkeypatch.setattr(lp, "linprog", broken)
    out = tmp_path / "out"
    summary = run(RunConfig(
        case_directory=cases_dir / "case3", output_directory=out,
        regimes=("slr", "uncongested"), worker_count=1,
        hours=(parse_hour("2016-07-01T03:00:00Z"), parse_hour("2016-07-01T04:00:00Z"))))
    assert not summary.all_ok
    payload = json.loads((out / "summary.json").read_text())
    for regime in ("slr", "uncongested"):
        assert payload["regimes"][regime]["error_hours"] == [
            f"{regime} 2016-07-01T0{h}:00:00Z: RuntimeError: bindings gave up"
            for h in (3, 4)]


@pytest.mark.parametrize("case", ["case5", "case30"])
def test_rendered_columns_match_per_value_formatting(cases_dir, tmp_path, monkeypatch, case):
    config = RunConfig(
        case_directory=cases_dir / case,
        output_directory=tmp_path / "rendered",
        weather_file=cases_dir / f"weather_{case}.csv",
        regimes=("slr", "aar", "dlr", "uncongested"),
    )
    run(config)
    # the same run with every cell formatted one by one by csv.writer
    calls = []

    def counted(oracle):
        def wrapper(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "render_hourly", counted(oracles.per_value_render_hourly))
    monkeypatch.setattr(pipeline, "render_ratings", counted(oracles.per_value_render_ratings))
    monkeypatch.setattr(pipeline, "render_trace", counted(oracles.per_value_render_trace))
    monkeypatch.setattr(pipeline, "write_csv", counted(oracles.per_value_write_csv))
    run(replace(config, output_directory=tmp_path / "per_value"))
    # one chunk per regime: dispatch and flows, ratings if rated, and the
    # iteration trace; then the congestion table of each regime
    assert sorted(calls) == (["per_value_render_hourly"] * 8 + ["per_value_render_ratings"] * 3
                             + ["per_value_render_trace"] * 4 + ["per_value_write_csv"] * 4)
    files = sorted(p.relative_to(tmp_path / "rendered")
                   for p in (tmp_path / "rendered").rglob("*") if p.is_file())
    assert len(files) == 4 * 4 + 3 + 1
    for name in files:
        assert ((tmp_path / "rendered" / name).read_bytes()
                == (tmp_path / "per_value" / name).read_bytes()), name


def test_iteration_trace_counts_base_rows_and_ends_on_final_objective(case5_run):
    _, summary, out = case5_run
    for regime in ("slr", "aar", "dlr", "uncongested"):
        with open(out / regime / "iteration_trace.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["hour", "iteration", "base_rows", "violations_added",
                                 "simplex_iterations", "objective"]
        by_hour = {}
        for row in rows:
            by_hour.setdefault(row["hour"], []).append(row)
        assert len(by_hour) == 24
        for passes in by_hour.values():
            base = [int(row["base_rows"]) for row in passes]
            iterations = [int(row["iteration"]) for row in passes]
            objectives = [float(row["objective"]) for row in passes]
            assert base[0] == 0 and base == sorted(base)  # rows are only added
            assert iterations[0] == 0 and iterations == sorted(iterations)
            assert all(b >= a - 1e-9 * max(1.0, abs(a))
                       for a, b in zip(objectives, objectives[1:]))
            if regime == "uncongested":
                assert base == [0]
        # the last pass of each hour holds the hour's final objective
        final = sum(float(passes[-1]["objective"]) for passes in by_hour.values())
        assert final == pytest.approx(summary.regimes[regime].total_cost, rel=1e-12)


CASE5_REGIMES = ("slr", "aar", "dlr", "uncongested")


def case5_config(cases_dir, out, **changes):
    config = RunConfig(case_directory=cases_dir / "case5", output_directory=out,
                       weather_file=cases_dir / "weather_case5.csv", regimes=CASE5_REGIMES)
    return replace(config, **changes)


def trace_by_hour(out, regime):
    """Per hour of iteration_trace.csv: the first LP's (base_rows,
    violations_added) and the final objective."""
    first, final = {}, {}
    with open(out / regime / "iteration_trace.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            first.setdefault(row["hour"], (int(row["base_rows"]),
                                           int(row["violations_added"])))
            final[row["hour"]] = float(row["objective"])
    return first, final


def test_chunked_runs_are_worker_count_invariant(cases_dir, tmp_path, monkeypatch):
    # 24 hours in chunks of 5 put chunk starts at hours 0, 5, 10, 15 and 20;
    # the chunks are formed in the parent, and forked workers see the patch
    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    outs = []
    for workers in (1, 2, 4):
        outs.append(tmp_path / f"workers{workers}")
        assert run(case5_config(cases_dir, outs[-1], worker_count=workers)).all_ok
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(files) == 4 * 4 + 3 + 1
    for out in outs[1:]:
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (out / rel).read_bytes(), (out, rel)

    monkeypatch.setattr(pipeline, "CARRY_HOURS", 1)
    single = tmp_path / "single"
    run(case5_config(cases_dir, single))
    carried_hours = 0
    for regime in CASE5_REGIMES:
        first, final = trace_by_hour(outs[0], regime)
        first_single, final_single = trace_by_hour(single, regime)
        hours = sorted(first)
        assert len(hours) == 24 and sorted(final_single) == hours
        for pos, hour in enumerate(hours):
            assert final[hour] == pytest.approx(final_single[hour], rel=1e-9)
            assert first_single[hour] == (0, 0)
            if pos % 5 == 0:  # every chunk starts in a new model, with no rows
                assert first[hour] == (0, 0), (regime, hour)
        carried_hours += sum(1 for seeds in first.values() if seeds != (0, 0))
    assert carried_hours > 0  # the chunks did hold rows across hours


def test_failed_hour_resets_the_carried_rows(cases_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    plain = tmp_path / "plain"
    run(case5_config(cases_dir, plain, regimes=("slr",)))
    first, final = trace_by_hour(plain, "slr")
    hours = sorted(first)
    failing = hours[12]  # mid-chunk: the chunk covers hours 10-14
    # without a failure, hours 12 and 13 start from the rows of the hours before
    assert first[hours[12]] != (0, 0) and first[hours[13]] != (0, 0)

    original = pipeline.hour_data

    def broken(network, series, hour):
        if format_hour(hour) == failing:
            raise RuntimeError("weather feed gave up")
        return original(network, series, hour)

    models = {}
    solve_task = pipeline._solve_task

    def recording(state, task, model):
        models[task[1]] = model
        return solve_task(state, task, model)

    monkeypatch.setattr(pipeline, "hour_data", broken)
    monkeypatch.setattr(pipeline, "_solve_task", recording)
    out = tmp_path / "broken"
    summary = run(case5_config(cases_dir, out, regimes=("slr",)))
    # the chunk drops its model with the failed hour and goes on in a new one
    assert models[10] is models[11] is models[12]
    assert models[13] is models[14] and models[13] is not models[12]
    assert summary.regimes["slr"].error_hours == [
        f"slr {failing}: RuntimeError: weather feed gave up"]
    assert summary.regimes["slr"].solved_hours == 23
    first_broken, final_broken = trace_by_hour(out, "slr")
    assert failing not in first_broken
    assert first_broken[hours[13]] == (0, 0)  # reset after the failed hour
    assert first_broken[hours[14]] != (0, 0)  # and the chunk went on
    for hour in hours:
        if hour != failing:
            assert final_broken[hour] == pytest.approx(final[hour], rel=1e-9)

    # in a new model the hour after the failed one is a cold start: every
    # pass of it and of the hour after it, simplex iterations included, is
    # that of a chunk starting there
    monkeypatch.setattr(pipeline, "hour_data", original)
    monkeypatch.setattr(pipeline, "CARRY_HOURS", 13)
    restart = tmp_path / "restart"
    run(case5_config(cases_dir, restart, regimes=("slr",)))

    def passes(out, hour):
        with open(out / "slr" / "iteration_trace.csv", newline="") as handle:
            return [row for row in csv.DictReader(handle) if row["hour"] == hour]

    for hour in hours[13:15]:
        assert passes(out, hour) == passes(restart, hour)


def test_each_hour_first_holds_every_row_the_hour_before_ended_with(
        cases_dir, tmp_path, monkeypatch):
    calls = []
    original = pipeline.solve_scdcopf

    def recording(network, factors, data, normal, contingency, *args, model):
        held = model.rows
        solution = original(network, factors, data, normal, contingency, *args, model=model)
        calls.append((model, held, normal, contingency, solution))
        return solution

    monkeypatch.setattr(pipeline, "solve_scdcopf", recording)
    assert run(case5_config(cases_dir, tmp_path / "out", regimes=("slr", "aar"))).all_ok
    # one chunk of all 24 hours per regime, each in one model from no rows
    assert len(calls) == 48 and calls[0][1] == () and calls[24][1] == ()
    assert len({id(model) for model, *_ in calls}) == 2
    idle = relimited = 0
    for before, (model, held, normal, contingency, solution) in zip(calls, calls[1:]):
        if model is not before[0]:
            continue
        previous = before[-1]
        assert list(map(id, held)) == list(map(id, previous.flow_rows))
        n_base = sum(1 for row in held if row.outage_branch is None)
        assert solution.trace[0][1:3] == (n_base, len(held) - n_base)
        for row, now in zip(held, solution.flow_rows):  # at this hour's limits
            assert (now.monitored_branch, now.outage_branch, now.slack_allowed) == (
                row.monitored_branch, row.outage_branch, row.slack_allowed)
            assert now.coefficients is row.coefficients
            b = now.monitored_branch
            assert now.limit == (normal[b] if now.outage_branch is None else contingency[b])
            relimited += now.limit != row.limit
        result = previous.dispatch
        idle += sum(1 for dual, slack in zip(result.row_duals, result.slack_values)
                    if abs(dual) <= pipeline.BINDING_DUAL_TOL
                    and slack <= pipeline.BINDING_DUAL_TOL)
    assert idle > 0  # rows that did not bind the hour before are held too
    assert relimited > 0  # and AAR hours hold them at new limits


def test_flows_are_rendered_in_the_chunk_and_not_returned(cases_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    solved = {regime: [] for regime in CASE5_REGIMES}  # (stamp, flows) the solves returned
    solve_task = pipeline._solve_task

    def recording(state, task, model):
        code, result, *rest = solve_task(state, task, model)
        solved[task[0]].append((format_hour(state.series.hours[task[1]]), result.flows.copy()))
        return code, result, *rest

    received = {}
    aggregate = pipeline._aggregate

    def receiving(config, network, series, chunks):
        received.update(chunks)
        return aggregate(config, network, series, chunks)

    monkeypatch.setattr(pipeline, "_solve_task", recording)
    monkeypatch.setattr(pipeline, "_aggregate", receiving)
    out = tmp_path / "out"
    assert run(case5_config(cases_dir, out)).all_ok
    network = load_network(cases_dir / "case5")
    # per chunk of 5 hours, the parent holds arrays over hours, generators and
    # binding rows, and nothing over branches
    assert sorted(received) == sorted(CASE5_REGIMES)
    for regime, records in received.items():
        assert [len(record.status) for record in records] == [5, 5, 5, 5, 4]
        for record in records:
            assert record._fields == ("status", "objective", "p_gen", "errors", "binding")
            assert record.objective.shape == record.status.shape
            assert record.p_gen.shape == (len(record.status), network.n_generators)
            assert record.errors.shape == (0,) and record.binding.shape[1] == 3
    assert all(len(record.binding) == 0 for record in received["uncongested"])
    assert sum(len(record.binding) for record in received["slr"]) > 0
    branch_ids = [b.id for b in network.branches]
    for regime, hours in solved.items():
        assert len(hours) == 24
        assert (out / regime / "flows.csv").read_text() == (
            "time,branch_id,mw\n" + oracles.per_value_render_hourly(branch_ids, hours))


def with_repeated_hours(rating):
    """``rating`` with hour 5 equal to hour 4, and hour 6 equal to hour 5
    but for the contingency limit of the branch at position 1."""
    columns = [np.array(c, dtype=float) for c in
               (rating.multiplier, rating.normal_limit, rating.contingency_limit)]
    for column in columns:
        column[5] = column[6] = column[4]
    columns[2][6, 1] += 1.0
    return replace(rating, multiplier=columns[0], normal_limit=columns[1],
                   contingency_limit=columns[2])


def test_render_ratings_reuses_only_bit_identical_hours():
    hours = tuple(parse_hour(f"2016-07-01T0{h}:00:00Z") for h in range(6))
    row = [1.0, 0.5, 0.0]
    multiplier = np.array([row, row, row, row, row, [1.0, 0.5, -0.0]])
    normal = 100.0 * multiplier
    contingency = normal.copy()
    contingency[2, 1] = 60.0  # one value of one column, in one hour
    rating = RatingSeries("dlr", hours, (7, 3, 9), multiplier, normal, contingency)
    for start, stop in ((0, 6), (2, 5), (3, 3)):
        assert (list(pipeline.render_ratings(rating, start, stop))
                == list(oracles.per_value_render_ratings(rating, start, stop)))
    assert "-0.0,-0.0,-0.0" in list(pipeline.render_ratings(rating, 0, 6))[5]


def test_ratings_files_reuse_repeated_hours_and_match_the_oracle(cases_dir, tmp_path,
                                                                 monkeypatch):
    # hour 7 has no weather, so its AAR and DLR ratings are SLR's, and
    # hours 4-6 repeat with one change; chunks of 5 start at hours 0, 5, 10, ...
    case = cases_dir / "case5"
    lines = (cases_dir / "weather_case5.csv").read_text().splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(line for line in lines if "T07:" not in line) + "\n")
    network = load_network(case)
    hours = list(load_hourly_series(case, network).hours)
    expected = {regime: with_repeated_hours(build_rating_series(
        network, load_weather(gappy), hours, regime, RatingParams()))
        for regime in ("slr", "aar", "dlr")}
    slr, dlr = expected["slr"], expected["dlr"]
    for column in ("multiplier", "normal_limit", "contingency_limit"):
        dlr_column = getattr(dlr, column)
        assert np.array_equal(dlr_column[7], getattr(slr, column)[7])
        assert not np.array_equal(dlr_column[7], dlr_column[6])
        assert not np.array_equal(dlr_column[7], dlr_column[8])

    def rendered(regimes):
        header = "time,branch_id,regime,multiplier,normal_limit_mva,contingency_limit_mva\n"
        return header + "".join(
            text for regime in regimes
            for text in oracles.per_value_render_ratings(expected[regime], 0, len(hours)))

    def repeated(*args):
        return with_repeated_hours(build_rating_series(*args))

    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    monkeypatch.setattr(pipeline, "build_rating_series", repeated)
    monkeypatch.setattr("gridline.cli.build_rating_series", repeated)
    out = tmp_path / "run"
    run(RunConfig(case_directory=case, output_directory=out, weather_file=gappy,
                  regimes=("slr", "aar", "dlr")))
    for regime in ("slr", "aar", "dlr"):
        assert (out / regime / "ratings.csv").read_text() == rendered([regime]), regime
    result = CliRunner().invoke(main, ["ratings", "--case", str(case), "--weather", str(gappy),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "cli" / "ratings.csv").read_text() == rendered(["slr", "aar", "dlr"])


def csv_hours(path):
    with open(path, newline="") as handle:
        return [row["time"] for row in csv.DictReader(handle)]


def test_failed_hours_mid_chunk_leave_only_their_rows_out(cases_dir, tmp_path, monkeypatch):
    # hour 12 is infeasible and hour 6 raises, each inside a chunk of 5
    case = bumped_case3(cases_dir, tmp_path, {12: 900.0})
    original = pipeline.hour_data

    def broken(network, series, hour):
        if hour.hour == 6:
            raise RuntimeError("weather feed gave up")
        return original(network, series, hour)

    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    monkeypatch.setattr(pipeline, "hour_data", broken)
    network = load_network(case)
    hours = [format_hour(h) for h in load_hourly_series(case, network).hours]
    failed = {hours[6], hours[12]}
    outs = []
    for workers in (1, 2):
        outs.append(tmp_path / f"workers{workers}")
        summary = run(RunConfig(case_directory=case, output_directory=outs[-1],
                                regimes=("slr", "uncongested"), worker_count=workers))
        for regime in ("slr", "uncongested"):
            assert summary.regimes[regime].infeasible_hours == [hours[12]]
            assert len(summary.regimes[regime].error_hours) == 1
            for name, count in (("dispatch.csv", len(network.generators)),
                                ("flows.csv", len(network.branches))):
                assert csv_hours(outs[-1] / regime / name) == [
                    hour for hour in hours if hour not in failed for _ in range(count)]
        assert csv_hours(outs[-1] / "slr" / "ratings.csv") == [
            hour for hour in hours for _ in network.branches]
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(files) == 2 * 4 + 1 + 1
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_hours_failing_in_some_regimes_only_give_the_same_bytes_on_any_worker_count(
        cases_dir, tmp_path):
    # 150 MW at bus 2 is infeasible at 12:00 under SLR and AAR only, and 900 MW
    # at 15:00 in every regime, so each regime's own clean hours (those of its
    # congestion table) differ from the common hours of the summary totals
    case = bumped_case3(cases_dir, tmp_path, {12: 150.0, 15: 900.0})
    hours = {h: f"2016-07-01T{h}:00:00Z" for h in (12, 15)}
    outs = [tmp_path / f"workers{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        summary = run(RunConfig(case_directory=case, output_directory=out,
                                weather_file=cases_dir / "weather_case3.csv",
                                regimes=CASE5_REGIMES, worker_count=workers))
        assert len(summary.common_hours) == 22
        for regime in ("slr", "aar"):
            assert summary.regimes[regime].infeasible_hours == [hours[12], hours[15]]
            assert summary.regimes[regime].solved_hours == 22
        for regime in ("dlr", "uncongested"):
            assert summary.regimes[regime].infeasible_hours == [hours[15]]
            assert summary.regimes[regime].solved_hours == 23
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(files) == 4 * 4 + 3 + 1
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


@pytest.mark.parametrize("workers", [1, 2])
def test_an_escaping_exception_closes_every_output_file(cases_dir, tmp_path, monkeypatch,
                                                        workers):
    original = pipeline.render_hourly

    def broken(ids, hours):
        if any(stamp.endswith("T07:00:00Z") for stamp, _ in hours):
            raise RuntimeError("renderer gave up")
        return original(ids, hours)

    monkeypatch.setattr(pipeline, "CARRY_HOURS", 5)
    monkeypatch.setattr(pipeline, "render_hourly", broken)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="renderer gave up"):
            run(case5_config(cases_dir, tmp_path / "out", worker_count=workers))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    # the chunk before the failed one was written
    assert csv_hours(tmp_path / "out" / "slr" / "dispatch.csv")[-1].endswith("T04:00:00Z")


WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def mesh900_peak(tmp_path_factory):
    """The benchmark's seed-0 mesh900-peak inputs: a 30 x 30 mesh whose
    second SLR hour starts from base rows the first hour found."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads.generate("mesh900-peak", 0, tmp_path_factory.mktemp("mesh900"),
                              WORKLOADS.parent.parent)


@pytest.mark.parametrize("slack_base_rows", [False, True])
def test_held_base_rows_give_the_same_bytes_on_any_worker_count(mesh900_peak, tmp_path,
                                                                slack_base_rows):
    outs = [tmp_path / f"workers{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        config = RunConfig(case_directory=mesh900_peak.case_directory, output_directory=out,
                           weather_file=mesh900_peak.weather_file,
                           regimes=("slr", "dlr", "uncongested"), worker_count=workers,
                           slack_base_rows=slack_base_rows)
        assert run(config).all_ok
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    with open(outs[0] / "slr" / "iteration_trace.csv", newline="") as handle:
        trace = list(csv.DictReader(handle))
    first, later = trace[0]["hour"], trace[-1]["hour"]
    assert first != later
    passes = [row for row in trace if row["hour"] == later]
    assert passes[0]["iteration"] == "0" and int(passes[0]["base_rows"]) > 0


def test_no_more_pool_workers_than_chunks(cases_dir, tmp_path, monkeypatch):
    # 24 hours under 4 regimes are 4 chunks
    real_pool, started = pipeline.Pool, []

    def recording_pool(processes, **kwargs):
        started.append(processes)
        return real_pool(processes, **kwargs)

    monkeypatch.setattr(pipeline, "Pool", recording_pool)
    assert run(case5_config(cases_dir, tmp_path / "out", worker_count=8)).all_ok
    assert started == [4]
