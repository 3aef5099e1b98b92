import json
import shutil

import pytest

from gridline.pipeline import (HourOutcome, RunConfig, congestion_by_branch,
                               emissions, run)
from gridline.util import parse_hour


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


def test_infeasible_hour_recorded_and_excluded(cases_dir, tmp_path):
    case = tmp_path / "case3"
    shutil.copytree(cases_dir / "case3", case)
    lines = (case / "demand.csv").read_text().splitlines()
    bumped = [line.rsplit(",", 1)[0] + ",900.0" if "T12:" in line and ",2," in line
              else line for line in lines]
    (case / "demand.csv").write_text("\n".join(bumped) + "\n")
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
    assert congestion_by_branch([]) == []
    hour = parse_hour("2016-07-01T00:00:00Z")
    outcome = HourOutcome("slr", hour, "optimal", True,
                          binding_rows=[(7, "", 100.0, 5.0, 0.0)])
    assert congestion_by_branch([outcome]) == [(7, 500.0, 1)]
    # two hours, two branches, sorted by metric
    later = parse_hour("2016-07-01T01:00:00Z")
    second = HourOutcome("slr", later, "optimal", True,
                         binding_rows=[(7, 3, 100.0, 5.0, 0.0), (9, "", 50.0, 100.0, 0.0)])
    table = congestion_by_branch([outcome, second])
    assert table == [(9, 5000.0, 1), (7, 1000.0, 2)]


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


def test_lp_error_names_regime_hour_and_cause(cases_dir, tmp_path, monkeypatch):
    from gridline import dispatch
    from gridline.lp import ERROR, LpSolution

    monkeypatch.setattr(dispatch, "solve_lp", lambda lp: LpSolution(
        ERROR, None, None, None, None, None, None, "HiGHS status 4: numerical trouble"))
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
    from gridline import dispatch

    def broken(lp):
        raise RuntimeError("bindings gave up")

    monkeypatch.setattr(dispatch, "solve_lp", broken)
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
