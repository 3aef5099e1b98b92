"""The benchmark tracer (``bench/tracing.py``) wraps gridline call sites by
module attribute name and reads attributes off their results
(``Tracer._observe``). A renamed or removed name makes a traced benchmark
run exit before it reports anything, so every name it wraps and every
attribute it reads must resolve."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gridline import dispatch, pipeline
from gridline.dispatch import (DispatchResult, FlowRow, base_flow_rows, build_lp,
                               build_problem, hour_data)
from gridline.factors import build_factors
from gridline.lp import HighsResult
from gridline.ratings import SLR, RatingParams, build_rating_series
from gridline.scopf import ScopfResult, verify_n1

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attribute, name", tracing.TARGETS + tracing.COUNTED,
                         ids=lambda value: value if isinstance(value, str) else None)
def test_traced_name_resolves(module_name, attribute, name):
    owner, attr = tracing._resolve(module_name, attribute)
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(original), f"{module_name}.{attribute} ({name}) does not resolve"


def test_every_span_names_a_layer():
    for _module, _attribute, name in tracing.TARGETS + tracing.COUNTED:
        assert name.split(".", 1)[0] in tracing.LAYERS


def test_observed_result_attributes_exist(networks, serieses):
    net, series = networks["case5"], serieses["case5"]
    factors = build_factors(net)
    assert factors.ptdf.nbytes > 0 and factors.lodf.nbytes > 0
    rating = build_rating_series(net, None, list(series.hours[:1]), SLR, RatingParams())
    assert rating.multiplier.size == net.n_branches
    problem = build_problem(net, hour_data(net, series, series.hours[0]),
                            base_flow_rows(net, factors.ptdf, rating.normal_limit[0]))
    assert build_lp(problem)[0].a_ub.nnz > 0
    names = {cls: {f.name for f in fields(cls)}
             for cls in (HighsResult, ScopfResult, DispatchResult, FlowRow)}
    assert "nit" in names[HighsResult]
    assert {"iterations", "dispatch", "flow_rows"} <= names[ScopfResult]
    assert {"row_duals", "slack_values"} <= names[DispatchResult]
    assert "outage_branch" in names[FlowRow]


def test_verify_n1_result_counts_and_tests_true_as_bench_checks_use_it(networks):
    # bench/checks.py does `if residual:` and reports `len(residual)`
    factors = build_factors(networks["case5"])
    size = networks["case5"].n_branches
    residual = verify_n1(np.full(size, 100.0), factors.lodf, np.full(size, 1.0))
    assert len(residual) >= 2
    assert bool(residual)
    clean = verify_n1(np.full(size, 100.0), factors.lodf, np.full(size, 1e9))
    assert not clean and len(clean) == 0


def test_every_hour_is_one_solve_task_call(cases_dir, tmp_path, monkeypatch):
    # the tracer counts pipeline.tasks from calls to pipeline._solve_task, so
    # the chunked task loop must still make one call per (regime, hour)
    calls = []
    original = pipeline._solve_task

    def counting(state, task, *args):
        calls.append(task)
        return original(state, task, *args)

    monkeypatch.setattr(pipeline, "_solve_task", counting)
    regimes = ("slr", "aar", "dlr", "uncongested")
    summary = pipeline.run(pipeline.RunConfig(
        case_directory=cases_dir / "case5", output_directory=tmp_path / "out",
        weather_file=cases_dir / "weather_case5.csv", regimes=regimes, worker_count=1))
    hours = len(summary.hours)
    assert hours == 24
    assert len(calls) == len(regimes) * hours
    assert sorted(calls) == sorted((regime, pos) for regime in regimes
                                   for pos in range(hours))


def test_every_lp_is_built_and_solved_through_the_traced_names(cases_dir, tmp_path,
                                                              monkeypatch):
    # the tracer times lp.solve_s from dispatch.solve_lp and counts
    # dispatch.lp_count from dispatch.build_lp, so every LP solve of a study
    # must call the one and every chunk's model be built by the other
    counts = {"build_lp": 0, "solve_lp": 0}
    for name in counts:
        original = getattr(dispatch, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dispatch, name, counting)
    regimes = ("slr", "aar", "dlr", "uncongested")
    out = tmp_path / "out"
    summary = pipeline.run(pipeline.RunConfig(
        case_directory=cases_dir / "case5", output_directory=out,
        weather_file=cases_dir / "weather_case5.csv", regimes=regimes, worker_count=1))
    assert summary.all_ok
    trace_rows = sum(len((out / regime / "iteration_trace.csv").read_text().splitlines()) - 1
                     for regime in regimes)
    assert counts["solve_lp"] == trace_rows > len(regimes) * len(summary.hours)
    chunks = len(regimes) * -(-len(summary.hours) // pipeline.CARRY_HOURS)
    assert counts["build_lp"] == chunks
