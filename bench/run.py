#!/usr/bin/env python3
"""gridline study benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The workload's inputs are generated
from the seed (``workloads.py``); after one untimed warm-up over the first
hour the study is repeated until S seconds have passed, its outputs are
checked (``checks.py``), and the last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics as medians over the repeats.
``--trace 1`` alternates untraced and traced one-worker studies and
reports the per-layer metrics from the traced ones (``tracing.py``), with
the tracing overhead against the untraced ones. A full record (samples,
seed, versions, commit, ``src/`` line count) goes to
``bench/results/``; traced spans go next to it as JSON lines.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the checkout lacks the program or an
error stops the run (no result line).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"

MIN_SETUPS = 9
SETUP_EXTRA_SHARE = 0.2  # of --seconds, spent at most on extra set-up repeats

# Native thread pools are pinned to one thread, so a study's parallelism is
# exactly its worker count and a co-tenant busy on the other core does not
# stall a multi-threaded BLAS call. Applied before numpy is first imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "hours_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- provenance --------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    import scipy
    sources = sorted((SRC / "gridline").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        parts = top.stdout.split()
        if top.returncode == 0 and len(parts) == 2 and Path(parts[0]).resolve() == ROOT:
            commit = parts[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


# --- the two kinds of study ---------------------------------------------------

class PipelineStudy:
    """pipeline.run on a generated case. Its set-up is timed by replaying,
    through the same public functions, what pipeline.run does before it
    dispatches the first hour: case and series load, weather load, factors,
    and one rating series per rated regime."""

    def __init__(self, spec, inputs, out: Path, workers: int):
        from gridline.pipeline import RunConfig
        self.spec, self.inputs, self.workers = spec, inputs, workers
        self.tasks = len(spec.regimes) * inputs.hours
        self.config = RunConfig(case_directory=inputs.case_directory,
                                output_directory=out, weather_file=inputs.weather_file,
                                regimes=spec.regimes, worker_count=workers)
        self.summary = None

    def warm_up(self) -> None:
        from dataclasses import replace
        from gridline import pipeline
        first = replace(self.config, hours=(self.inputs.start, self.inputs.start),
                        output_directory=self.config.output_directory.with_name("warm-up"))
        pipeline.run(first)
        shutil.rmtree(first.output_directory)

    def setup(self) -> float:
        from gridline import factors, network, ratings, weather
        config = self.config
        gc.collect()
        start = time.perf_counter()
        net = network.load_network(config.case_directory)
        series = network.load_hourly_series(config.case_directory, net,
                                            strict=config.strict_availability)
        hours = list(series.hours)
        series.restrict(hours)
        factors.build_factors(net, config.slack_bus)
        rated = [r for r in config.regimes if r in ratings.RATED_REGIMES]
        grid = None
        if any(r != ratings.SLR for r in rated):
            grid = weather.load_weather(config.weather_file)
        for regime in rated:
            ratings.build_rating_series(net, grid, hours, regime, config.params)
        return time.perf_counter() - start

    def run(self) -> float:
        from gridline import pipeline
        shutil.rmtree(self.config.output_directory, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        self.summary = pipeline.run(self.config)
        return time.perf_counter() - start

    def ok_tasks(self) -> int:
        return sum(s.solved_hours for s in self.summary.regimes.values())

    def values(self):
        import checks
        return checks.read_objectives(self.config.output_directory, self.spec.regimes)

    def check(self) -> list[str]:
        import checks
        return checks.check_run(self.config.output_directory, self.inputs.case_directory,
                                self.spec.regimes, self.inputs.hours, self.summary)

    def output_mb(self) -> float:
        files = self.config.output_directory.rglob("*")
        return sum(p.stat().st_size for p in files if p.is_file()) / 1e6


class SweepStudy:
    """Case and weather load plus ratings.sweep_parameters; the load is the
    set-up."""

    workers = 1

    def __init__(self, spec, inputs, out: Path, workers: int):
        from workloads import SWEEP_PHI_SLR_DEG, SWEEP_T_CONDUCTOR
        self.inputs = inputs
        self.t_conductor = list(SWEEP_T_CONDUCTOR)
        self.phi_slr = [math.radians(p) for p in SWEEP_PHI_SLR_DEG]
        self.tasks = len(self.t_conductor) * len(self.phi_slr) * inputs.hours
        self.table = None

    def _load(self):
        from gridline import network, weather
        return (network.load_network(self.inputs.case_directory),
                weather.load_weather(self.inputs.weather_file))

    def _sweep(self, n_hours=None) -> float:
        from gridline import ratings
        gc.collect()
        start = time.perf_counter()
        net, grid = self._load()
        self.table = ratings.sweep_parameters(net, grid, list(grid.hours[:n_hours]),
                                              self.t_conductor, self.phi_slr)
        return time.perf_counter() - start

    def warm_up(self) -> None:
        self._sweep(1)

    def setup(self) -> float:
        gc.collect()
        start = time.perf_counter()
        self._load()
        return time.perf_counter() - start

    def run(self) -> float:
        return self._sweep()

    def ok_tasks(self) -> int:
        return self.tasks

    def values(self):
        import checks
        return checks.sweep_table(self.table)

    def check(self) -> list[str]:
        import checks
        return checks.check_sweep(self.table)

    def output_mb(self) -> float:
        return 0.0


STUDIES = {"run": PipelineStudy, "sweep": SweepStudy}


def make_study(spec, inputs, out: Path, workers: int):
    return STUDIES[spec.kind](spec, inputs, out, workers)


def _more(samples: list[float], begin: float, seconds: float) -> bool:
    """Whether to start another repeat: always the first, then while the
    run would overshoot ``seconds`` by at most half a repeat."""
    return not samples or time.perf_counter() - begin + 0.5 * samples[-1] < seconds


# --- untraced end-to-end measurement -------------------------------------------

def measure(spec, inputs, work: Path, seconds: float) -> dict:
    """Repeat (set-up replay, study) until ``seconds`` have passed, then
    top the set-up samples up to MIN_SETUPS if time allows."""
    study = make_study(spec, inputs, work / "out", spec.workers)
    study.warm_up()
    walls, setups = [], []
    ok = 0
    begin = time.perf_counter()
    while _more(walls, begin, seconds):
        setups.append(study.setup())
        walls.append(study.run())
        ok += study.ok_tasks()
    extra_start = time.perf_counter()
    while (len(setups) < MIN_SETUPS
           and time.perf_counter() - extra_start < SETUP_EXTRA_SHARE * seconds):
        setups.append(study.setup())

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = study.workers
    peak_mb = (self_kb + (workers * child_kb if workers > 1 else 0)) / 1024.0
    attempted = study.tasks * len(walls)
    wall, setup = statistics.median(walls), statistics.median(setups)
    return {
        "metrics": {
            "wall_s": wall,
            "setup_s": setup,
            "hours_per_s": study.tasks / (wall - setup),
            "peak_rss_mb": peak_mb,
        },
        "attempted": attempted,
        "failed": attempted - ok,
        "samples": {"wall_s": walls, "setup_s": setups},
        "study": study,
        "problems": [],
    }


# --- traced measurement ------------------------------------------------------------

def measure_traced(spec, inputs, work: Path, seconds: float, spans_path: Path,
                   trace_id: str) -> dict:
    """Alternate untraced and traced one-worker studies until ``seconds``
    have passed; per-layer metrics are medians over the traced studies."""
    from tracing import Tracer
    plain = make_study(spec, inputs, work / "out", 1)
    traced = make_study(spec, inputs, work / "out-traced", 1)
    plain.warm_up()
    plain_walls, traced_walls, layer_samples = [], [], []
    problems: list[str] = []
    ok = 0
    begin = time.perf_counter()
    while _more(traced_walls, begin, seconds):
        plain_walls.append(plain.run())
        tracer = Tracer()
        with tracer.patched():
            traced_walls.append(traced.run())
        ok += traced.ok_tasks()
        if traced.values() != plain.values():
            problems.append("traced results differ from the untraced ones")
        layer = tracer.layer_metrics()
        layer["pipeline.output_mb"] = traced.output_mb()
        layer["trace.spans"] = len(tracer.spans)
        layer_samples.append(layer)
        tracer.dump(spans_path, f"{trace_id}-{len(traced_walls)}")

    metrics = {name: statistics.median(sample[name] for sample in layer_samples)
               for name in layer_samples[0]}
    untraced = statistics.median(plain_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_share"] = metrics["trace.traced_wall_s"] / untraced - 1.0
    attempted = plain.tasks * len(traced_walls)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - ok,
        "samples": {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls},
        "study": plain,
        "problems": problems,
    }


# --- checks and reporting ------------------------------------------------------------

def correctness(spec, result, seed: int) -> list[str]:
    import checks
    study = result["study"]
    problems = result["problems"] + study.check()
    if seed == checks.DEFAULT_SEED:
        problems += checks.compare_reference(spec.name, study.values())
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} tasks failed")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if not (SRC / "gridline" / "__init__.py").is_file():
        print(f"bench: no gridline sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        inputs = generate(spec.name, args.seed, work / "inputs", ROOT)
        if args.trace:
            spans_path = RESULTS_DIR / f"{tag}.spans.jsonl"
            spans_path.unlink(missing_ok=True)
            result = measure_traced(spec, inputs, work, args.seconds, spans_path, tag)
            from tracing import LAYER_UNITS as units
        else:
            result = measure(spec, inputs, work, args.seconds)
            units = END_TO_END_UNITS
        problems = correctness(spec, result, args.seed)
    except Exception:  # report any failure of the program under test, no result line
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    failed_share = result["failed"] / result["attempted"]
    record = {
        "workload": spec.name, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        "failed_task_share": {"value": failed_share, "unit": "ratio",
                              "base": f"{result['attempted']} tasks attempted"},
        "samples": result["samples"],
        "problems": problems,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for name, entry in record["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_task_share = {failed_share:.6g} ratio "
          f"(base: {result['attempted']} tasks attempted)")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": record["metrics"]}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
