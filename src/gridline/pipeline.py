"""Multi-hour, multi-regime run orchestration and reporting.

Hours are independent (no unit commitment or ramping), but consecutive
hours mostly bind the same few flow rows. So a task is one regime's chunk
of ``CARRY_HOURS`` consecutive hours, solved in order in one
``DispatchModel``, changed in place and re-solved from the basis of the LP
before. Each hour's constraint generation starts from every flow row the
model holds, at the hour's own limits, and adds only rows it lacks. The
model is new at each chunk start and after any hour that did not solve
cleanly, and an exception in one hour is that hour's error alone.
Chunks start at fixed positions and are mapped over a worker pool; all
shared inputs are immutable, HiGHS runs single-threaded, each chunk task
renders its own rows of the per-hour files (``HOURLY_HEADERS``, the
iteration trace included) and returns its hours as one ``ChunkRecord`` of
arrays, and the parent appends the rows in task order, so outputs depend
only on the inputs and ``CARRY_HOURS``. An exception out of a chunk, or a
dead worker (``BrokenProcessPool``), ends the run and cancels the rest.

Cross-regime aggregates (costs, generation, curtailment, emissions and the
congestion decomposition) are computed only over hours that solved cleanly
in every requested regime, so comparisons are always like-for-like. Each
regime's ``congestion_by_branch.csv`` sums that regime's own clean hours.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np

# solve_copperplate is not called here; bench/tracing.py wraps it by this name
from .dispatch import DispatchModel, DispatchResult, hour_data, solve_copperplate
from .errors import GridlineError
from .factors import build_factors, dump_factors
from .lp import ERROR, INFEASIBLE, OPTIMAL
from .network import (FUELS, VARIABLE_FUELS, HourlySeries, Network, load_hourly_series,
                      load_network)
from .ratings import (AAR, DLR, RATED_REGIMES, RATINGS_HEADER, SLR, RatingParams,
                      RatingSeries, build_rating_series, render_ratings)
from .scopf import solve_scdcopf
from .util import (DEFAULT_EMISSION_FACTORS, DEFAULT_MAX_ITERATIONS, DEFAULT_PENALTY,
                   check_span, format_hour, open_csv, write_csv)
from .weather import load_weather

UNCONGESTED = "uncongested"
ALL_REGIMES = RATED_REGIMES + (UNCONGESTED,)

BINDING_DUAL_TOL = 1e-9
CARRY_HOURS = 24  # hours per task; flow rows are held only within a task

HOURLY_HEADERS = {  # the per-hour files: each chunk task renders its own rows of them
    "dispatch.csv": ["time", "gen_id", "mw"],
    "flows.csv": ["time", "branch_id", "mw"],
    "iteration_trace.csv": ["hour", "iteration", "base_rows", "violations_added",
                            "simplex_iterations", "objective"],
    "ratings.csv": RATINGS_HEADER,
}

CONGESTION_PROXY_NOTE = ("congestion_cost_proxy_usd = sum over binding rows of "
                         "|shadow price| x row limit; attribution to branches "
                         "is a congestion-rent-like proxy, and duals of "
                         "degenerate optima are basis-dependent")


@dataclass(frozen=True)
class RunConfig:
    case_directory: Path
    output_directory: Path
    weather_file: Path | None = None
    regimes: tuple[str, ...] = (SLR, DLR, UNCONGESTED)
    hours: tuple[datetime, datetime] | None = None  # inclusive span; None = whole series
    params: RatingParams = RatingParams()
    penalty_price: float = DEFAULT_PENALTY
    worker_count: int = 1
    emission_factors: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EMISSION_FACTORS))
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    strict_availability: bool = True
    slack_bus: int | None = None
    slack_base_rows: bool = False
    dump_factors: bool = False  # also write ptdf.csv and lodf.csv (debug)

    def __post_init__(self):
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.hours is not None:
            check_span(*self.hours)
        if not (math.isfinite(self.penalty_price) and self.penalty_price > 0):
            raise ValueError(f"penalty_price must be finite and > 0, got {self.penalty_price}")
        if not self.regimes:
            raise ValueError("at least one regime required")
        unknown = [r for r in self.regimes if r not in ALL_REGIMES]
        if unknown:
            raise ValueError(f"unknown regime(s) {unknown}; choose from {ALL_REGIMES}")
        if len(set(self.regimes)) < len(self.regimes):
            raise ValueError(f"regimes must not repeat, got {list(self.regimes)}")
        unknown = [fuel for fuel in self.emission_factors if fuel not in FUELS]
        if unknown:
            raise ValueError(f"emission factors for unknown fuel(s) {unknown}; "
                             f"choose from {FUELS}")
        bad = {fuel: v for fuel, v in self.emission_factors.items()
               if not (math.isfinite(v) and v >= 0)}
        if bad:
            raise ValueError(f"emission factors must be finite and >= 0, got {bad}")


# the status code of each hour of a ChunkRecord
HOUR_OK, HOUR_UNCONVERGED, HOUR_INFEASIBLE, HOUR_ERROR = range(4)
_NO_ROWS = np.empty((0, 3))


class ChunkRecord(NamedTuple):
    """Consecutive hours of one regime as arrays: what a chunk task returns,
    and what ``_aggregate`` joins the chunks of a regime into."""

    status: np.ndarray  # (hours,) int8 HOUR_* code
    objective: np.ndarray  # (hours,) NaN unless optimal
    p_gen: np.ndarray  # (hours, generators) MW, NaN unless optimal
    errors: np.ndarray  # object: "<regime> <hour>: <cause>" per error hour, in hour order
    binding: np.ndarray  # (rows, 3): hour position, monitored branch position and
    # |dual| x row limit of each binding row of an ok hour, in hour order


@dataclass(frozen=True)
class _WorkerState:
    network: Network
    factors: object
    series: HourlySeries
    ratings: dict[str, RatingSeries]
    penalty_price: float
    max_iterations: int
    slack_base_rows: bool


_STATE: _WorkerState | None = None


def _init_worker(state: _WorkerState) -> None:
    global _STATE
    _STATE = state


def _solve_chunk(state: _WorkerState,
                 chunk: tuple[str, int, int]) -> tuple[ChunkRecord, dict[str, str]]:
    """Hours ``start`` to ``stop - 1`` of one regime, in order, each solved
    in the model of the hour before it when that hour was ok, and in a new
    model if not: the chunk's record, and its rows of each per-hour file."""
    regime, start, stop = chunk
    network = state.network
    status = np.empty(stop - start, dtype=np.int8)
    objective = np.full(stop - start, np.nan)
    p_gen = np.full((stop - start, network.n_generators), np.nan)
    errors, solved, trace, binding = [], [], [], [_NO_ROWS]
    model = DispatchModel()
    for k, pos in enumerate(range(start, stop)):
        status[k], result, rows, steps = _solve_task(state, (regime, pos), model)
        stamp = format_hour(state.series.hours[pos])
        if result.status == OPTIMAL:
            objective[k], p_gen[k] = result.objective, result.p_gen
            solved.append((stamp, result.p_gen, result.flows))
        elif result.status == ERROR:
            errors.append(f"{regime} {stamp}: {result.message}")
        if status[k] != HOUR_OK:  # a new model, and no congestion from this hour
            model, rows = DispatchModel(), _NO_ROWS
        binding.append(rows)
        trace.extend((stamp, *step) for step in steps)
    texts = {"dispatch.csv": render_hourly([g.id for g in network.generators],
                                           [(stamp, p) for stamp, p, _ in solved]),
             "flows.csv": render_hourly(network.branch_ids,
                                        [(stamp, flows) for stamp, _, flows in solved]),
             "iteration_trace.csv": render_trace(trace)}
    if regime in state.ratings:
        texts["ratings.csv"] = "".join(render_ratings(state.ratings[regime], start, stop))
    return ChunkRecord(status, objective, p_gen, np.array(errors, dtype=object),
                       np.concatenate(binding)), texts


def _solve_task(state: _WorkerState, task: tuple[str, int], model: DispatchModel):
    """One (regime, hour position): its HOUR_* code, dispatch result,
    ``ChunkRecord.binding`` rows and trace. An exception is its error alone.
    Uncongested limits are infinite: the loop adds no row to the copperplate LP."""
    regime, pos = task
    hour = state.series.hours[pos]
    rating = state.ratings.get(regime)
    try:
        data = hour_data(state.network, state.series, hour)
        limits = ((np.full(state.network.n_branches, np.inf),) * 2 if rating is None
                  else (rating.normal_limit[pos], rating.contingency_limit[pos]))
        solution = solve_scdcopf(state.network, state.factors, data, *limits,
                                 state.max_iterations, state.penalty_price,
                                 state.slack_base_rows, model=model)
    except Exception as exc:  # one failed task must not abort the others
        message = str(exc) if isinstance(exc, GridlineError) else f"{type(exc).__name__}: {exc}"
        return HOUR_ERROR, DispatchResult(hour, ERROR, message=message), _NO_ROWS, []
    result = solution.dispatch
    if result.status != OPTIMAL:
        code = HOUR_INFEASIBLE if result.status == INFEASIBLE else HOUR_ERROR
        return code, result, _NO_ROWS, solution.trace
    bound = np.flatnonzero((np.abs(result.row_duals) > BINDING_DUAL_TOL)
                           | (result.slack_values > BINDING_DUAL_TOL))
    picked = [solution.flow_rows[r] for r in bound.tolist()]
    rows = np.column_stack((np.full(len(picked), pos), [row.monitored_branch for row in picked],
                            np.abs(result.row_duals[bound]) * [row.limit for row in picked]))
    return (HOUR_OK if solution.converged else HOUR_UNCONVERGED), result, rows, solution.trace


def _solve_chunk_global(chunk: tuple[str, int, int]) -> tuple[ChunkRecord, dict[str, str]]:
    return _solve_chunk(_STATE, chunk)


@dataclass
class RegimeSummary:
    regime: str
    solved_hours: int
    total_cost: float
    congestion_cost: float | None
    generation_mwh: dict[str, float]
    curtailment_mwh: dict[str, float]
    emissions_tons: float
    infeasible_hours: list[str]
    unconverged_hours: list[str]
    error_hours: list[str]


@dataclass
class RunSummary:
    regimes: dict[str, RegimeSummary]
    hours: list[datetime]
    common_hours: list[datetime]
    congestion_tables: dict[str, list[tuple[int, float, int]]]

    @property
    def all_ok(self) -> bool:
        return all(not s.infeasible_hours and not s.unconverged_hours
                   and not s.error_hours for s in self.regimes.values())

    def to_json_dict(self) -> dict:
        return {
            "hours": {
                "count": len(self.hours),
                "first": format_hour(self.hours[0]),
                "last": format_hour(self.hours[-1]),
            },
            "common_feasible_hours": len(self.common_hours),
            "congestion_metric_note": CONGESTION_PROXY_NOTE,
            "regimes": {
                name: {
                    "solved_hours": s.solved_hours,
                    "total_cost_usd": s.total_cost,
                    "congestion_cost_usd": s.congestion_cost,
                    "generation_twh": {f: mwh / 1e6 for f, mwh in s.generation_mwh.items()},
                    "generation_mwh": s.generation_mwh,
                    "curtailment_twh": {f: mwh / 1e6 for f, mwh in s.curtailment_mwh.items()},
                    "curtailment_mwh": s.curtailment_mwh,
                    "emissions_mmt": s.emissions_tons / 1e6,
                    "emissions_tons": s.emissions_tons,
                    "infeasible_hours": s.infeasible_hours,
                    "unconverged_hours": s.unconverged_hours,
                    "error_hours": s.error_hours,
                }
                for name, s in self.regimes.items()
            },
        }


def emissions(generation_mwh: dict[str, float], factors: dict[str, float]) -> float:
    """Tons of CO2 from per-fuel generation and per-fuel emission factors."""
    if any(v < 0 for v in factors.values()):
        raise ValueError("emission factors must be nonnegative")
    return sum(factors.get(fuel, 0.0) * mwh for fuel, mwh in generation_mwh.items())


def congestion_by_branch(binding: np.ndarray, branch_ids: list) -> list[tuple[int, float, int]]:
    """Per monitored branch id (``branch_ids`` by position): summed |dual|
    x row limit over all ``binding`` rows (``ChunkRecord.binding``, in hour
    order), plus the count of hours with at least one binding row. Sorted
    by metric descending (ties by branch id)."""
    positions, group = np.unique(binding[:, 1].astype(np.intp), return_inverse=True)
    total = np.array(_sums_by(group, binding[:, 2], len(positions)))
    _, hours = np.unique(np.unique(binding[:, :2], axis=0)[:, 1], return_counts=True)
    ids = np.array(branch_ids, dtype=object)[positions]
    order = np.lexsort((ids, -total))
    return list(zip(ids[order].tolist(), total[order].tolist(), hours[order].tolist()))


def _sums_by(group: np.ndarray, values: np.ndarray, count: int) -> list[float]:
    """Per group 0 to ``count - 1``, its ``values`` added in order from 0.0
    as a Python loop adds them: bit for bit, where ``np.sum`` adds pairwise."""
    sums = np.zeros(count)
    np.add.at(sums, np.broadcast_to(group, np.shape(values)), values)
    return sums.tolist()


def run(config: RunConfig) -> RunSummary:
    """Execute a full multi-regime study and write all report files."""
    network = load_network(config.case_directory)
    series = load_hourly_series(config.case_directory, network,
                                strict=config.strict_availability)
    hours = series.select(config.hours)
    series = series.restrict(hours)
    factors = build_factors(network, config.slack_bus)

    needs_weather = any(r in (AAR, DLR) for r in config.regimes)
    weather = None
    if needs_weather:
        if config.weather_file is None:
            raise GridlineError("regimes aar/dlr require a weather file")
        weather = load_weather(config.weather_file)

    ratings = {}
    for regime in [r for r in config.regimes if r != UNCONGESTED]:
        try:
            ratings[regime] = build_rating_series(network, weather, hours, regime,
                                                  config.params)
        except GridlineError as exc:
            raise GridlineError(f"{regime} ratings: {exc}") from None

    state = _WorkerState(network, factors, series, ratings,
                         config.penalty_price, config.max_iterations,
                         config.slack_base_rows)
    chunks = [(regime, start, min(start + CARRY_HOURS, len(hours)))
              for regime in config.regimes for start in range(0, len(hours), CARRY_HOURS)]
    records: dict[str, list[ChunkRecord]] = {r: [] for r in config.regimes}
    files = {}  # (regime, file name): handle, opened with the regime's first chunk
    with ExitStack() as stack:
        if config.worker_count == 1:
            solved = (_solve_chunk(state, chunk) for chunk in chunks)
        else:
            pool = ProcessPoolExecutor(min(config.worker_count, len(chunks)),
                                       initializer=_init_worker, initargs=(state,))
            # on an error, the chunks not yet started are cancelled
            stack.callback(pool.shutdown, cancel_futures=True)
            solved = pool.map(_solve_chunk_global, chunks)
        for (regime, _, _), (record, texts) in zip(chunks, solved):
            records[regime].append(record)
            for name, text in texts.items():
                if (regime, name) not in files:
                    path = Path(config.output_directory) / regime / name
                    files[regime, name] = stack.enter_context(open_csv(path, HOURLY_HEADERS[name]))
                files[regime, name].write(text)

    summary = _aggregate(config, network, series, records)
    _write_outputs(config, summary)
    if config.dump_factors:
        dump_factors(factors, network, config.output_directory)
    return summary


def _aggregate(config: RunConfig, network: Network, series: HourlySeries,
               chunks: dict[str, list[ChunkRecord]]) -> RunSummary:
    """The run's summary from each regime's chunk records, in hour order.
    Costs, generation, curtailment and emissions sum the hours that are ok
    in every regime; each congestion table sums its own regime's ok hours."""
    by_regime = {regime: ChunkRecord(*map(np.concatenate, zip(*parts)))
                 for regime, parts in chunks.items()}
    common = np.logical_and.reduce([r.status == HOUR_OK for r in by_regime.values()])
    stamps = np.array([format_hour(hour) for hour in series.hours], dtype=object)
    fuels = sorted({g.fuel for g in network.generators})
    fuel = np.array([FUELS.index(g.fuel) for g in network.generators], dtype=np.intp)
    available = series.availability[common]
    total = {regime: _sums_by(0, r.objective[common], 1)[0] for regime, r in by_regime.items()}
    summaries = {}
    for regime, record in by_regime.items():
        p_gen = record.p_gen[common]
        generation = dict(zip(FUELS, _sums_by(fuel, p_gen, len(FUELS))))
        curtailment = dict(zip(FUELS, _sums_by(fuel, available - p_gen, len(FUELS))))
        generation = {f: generation[f] for f in fuels}
        summaries[regime] = RegimeSummary(
            regime=regime,
            solved_hours=int(np.count_nonzero(record.status == HOUR_OK)),
            total_cost=total[regime],
            congestion_cost=total[regime] - total[UNCONGESTED] if UNCONGESTED in total else None,
            generation_mwh=generation,
            curtailment_mwh={f: curtailment[f] for f in VARIABLE_FUELS},
            emissions_tons=emissions(generation, config.emission_factors),
            infeasible_hours=stamps[record.status == HOUR_INFEASIBLE].tolist(),
            unconverged_hours=stamps[record.status == HOUR_UNCONVERGED].tolist(),
            error_hours=record.errors.tolist(),
        )
    tables = {regime: congestion_by_branch(record.binding, network.branch_ids)
              for regime, record in by_regime.items()}
    return RunSummary(summaries, list(series.hours),
                      [hour for hour, ok in zip(series.hours, common.tolist()) if ok], tables)


def render_hourly(ids, hours) -> str:
    """``time,<id>,<value>`` lines: for each (stamp, values) of ``hours``,
    one line per id, each value as the ``repr`` of a Python float."""
    tails = [f",{i}," for i in ids]
    return "".join([f"{stamp}{tail}{value!r}\n" for stamp, values in hours
                    for tail, value in zip(tails, np.asarray(values, dtype=float).tolist())])


def render_trace(rows) -> str:
    """``iteration_trace.csv`` lines, one per (stamp, iteration, base rows,
    contingency rows added, simplex iterations, objective) of ``rows``."""
    return "".join([f"{stamp},{it},{base},{added},{nit},{float(obj)!r}\n"
                    for stamp, it, base, added, nit, obj in rows])


def _write_outputs(config: RunConfig, summary: RunSummary) -> None:
    """Per regime the congestion table, and ``summary.json``."""
    out = Path(config.output_directory)
    for regime, table in summary.congestion_tables.items():
        write_csv(out / regime / "congestion_by_branch.csv",
                  ["branch_id", "congestion_cost_proxy_usd", "binding_hours"],
                  ((branch_id, repr(float(cost)), hours) for branch_id, cost, hours in table))

    payload = summary.to_json_dict()
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
