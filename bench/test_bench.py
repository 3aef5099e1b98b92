"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    generate(name, 7, tmp_path / "a", ROOT)
    generate(name, 7, tmp_path / "b", ROOT)
    generate(name, 8, tmp_path / "c", ROOT)
    first, second, other = (_files(tmp_path / d) for d in "abc")
    assert first == second
    assert first.keys() == other.keys()
    assert first != other


def test_series_hours_are_distinct(tmp_path):
    inputs = generate("case30-fortnight", 3, tmp_path, ROOT)
    from gridline.network import load_hourly_series, load_network
    series = load_hourly_series(inputs.case_directory, load_network(inputs.case_directory))
    rows = {tuple(series.demand[h]) for h in range(len(series.hours))}
    assert len(rows) == len(series.hours) == inputs.hours


def _originals():
    return [getattr(*tracing._resolve(module, attribute))
            for module, attribute, _ in tracing.TARGETS + tracing.COUNTED]


def test_wrappers_restore_the_original_functions():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer.patched():
        during = _originals()
        assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _originals()))


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _originals()))


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [("pipeline.run", 0.0, 10.0, -1),
                    ("dispatch.solve_problem", 1.0, 5.0, 0),
                    ("lp.solve_lp", 2.0, 4.0, 1),
                    ("pipeline.write_csv", 6.0, 7.0, 0)]
    self_times = tracer.self_times()
    assert self_times["pipeline"] == pytest.approx(10.0 - 4.0 - 1.0 + 1.0)
    assert self_times["dispatch"] == pytest.approx(2.0)
    assert self_times["lp"] == pytest.approx(2.0)


def test_traced_objectives_equal_untraced(tmp_path):
    spec = WORKLOADS["case30-fortnight"]
    inputs = generate(spec.name, 5, tmp_path / "inputs", ROOT)
    inputs = replace(inputs, hours=6)
    plain = run.make_study(spec, inputs, tmp_path / "plain", 1)
    traced = run.make_study(spec, inputs, tmp_path / "traced", 1)
    for study in (plain, traced):
        study.config = replace(study.config,
                               hours=(inputs.start, inputs.start.replace(hour=5)))
    plain.run()
    tracer = tracing.Tracer()
    with tracer.patched():
        traced.run()
    assert plain.values() == traced.values()
    assert len(plain.values()["slr"]) == 6
    assert traced.check() == []
    metrics = tracer.layer_metrics()
    added_by_the_runner = {"pipeline.output_mb", "trace.spans", "trace.untraced_wall_s",
                           "trace.traced_wall_s", "trace.overhead_share"}
    assert set(metrics) | added_by_the_runner == set(tracing.LAYER_UNITS)
    assert metrics["pipeline.tasks"] == traced.tasks == 6 * len(spec.regimes)
    assert metrics["dispatch.lp_count"] >= metrics["pipeline.tasks"]
    assert metrics["lp.simplex_iterations"] > 0
    assert metrics["ratings.branch_multiplier_calls"] > 0


def test_traced_sweep_equals_untraced(tmp_path):
    spec = WORKLOADS["ratings-sweep"]
    inputs = generate(spec.name, 5, tmp_path, ROOT)
    plain = run.make_study(spec, inputs, tmp_path, 1)
    traced = run.make_study(spec, inputs, tmp_path, 1)
    plain.warm_up()
    tracer = tracing.Tracer()
    with tracer.patched():
        traced.warm_up()
    assert traced.values() == plain.values()
    assert tracer.layer_metrics()["ratings.branch_multiplier_calls"] > 0


def test_sweep_check_rejects_a_misordered_table():
    rows = [(t, math.radians(p), 3.0 - t / 100.0 - p / 100.0)
            for t in (78.0, 100.0, 110.0) for p in (0.0, 45.0, 90.0)]
    assert checks.check_sweep(rows) == []
    rows[4] = (rows[4][0], rows[4][1], rows[3][2] + 1.0)
    assert checks.check_sweep(rows)


def test_reference_comparison_catches_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    values = {"slr": {"2016-07-01T00:00:00Z": 1000.0}}
    checks.write_reference("demo", values)
    assert checks.compare_reference("demo", values) == []
    assert checks.compare_reference("demo", {"slr": {"2016-07-01T00:00:00Z": 1000.0001}}) == []
    assert checks.compare_reference("demo", {"slr": {"2016-07-01T00:00:00Z": 1000.01}})
    assert checks.compare_reference("demo", {"slr": {}})


def test_main_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    for variable in run.THREAD_VARIABLES:  # main pins these; restore them afterwards
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "ratings-sweep", "--seed", "0", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_reported_metric():
    import json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]

