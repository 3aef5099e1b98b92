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
renders its own rows of the per-hour files, and the parent appends them in
task order, so outputs depend only on the inputs and ``CARRY_HOURS``.

Cross-regime aggregates (costs, generation, curtailment, emissions and the
congestion decomposition) are computed only over hours that solved cleanly
in every requested regime, so comparisons are always like-for-like.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from datetime import datetime
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .dispatch import DEFAULT_PENALTY, DispatchModel, hour_data, solve_copperplate
from .errors import GridlineError
from .factors import build_factors, dump_factors
from .lp import ERROR, OPTIMAL
from .network import (FUELS, VARIABLE_FUELS, HourlySeries, Network, load_hourly_series,
                      load_network)
from .ratings import (AAR, DLR, RATED_REGIMES, SLR, RatingParams, RatingSeries,
                      build_rating_series)
from .scopf import DEFAULT_MAX_ITERATIONS, solve_scdcopf
from .util import check_span, format_hour, open_csv, write_csv
from .weather import load_weather

UNCONGESTED = "uncongested"
ALL_REGIMES = RATED_REGIMES + (UNCONGESTED,)

DEFAULT_EMISSION_FACTORS = {"coal": 1.0, "natural_gas": 0.42}  # tons CO2 / MWh
BINDING_DUAL_TOL = 1e-9
CARRY_HOURS = 24  # hours per task; flow rows are held only within a task

HOURLY_HEADERS = {  # the per-hour files: each chunk task renders its own rows of them
    "dispatch.csv": ["time", "gen_id", "mw"],
    "flows.csv": ["time", "branch_id", "mw"],
    "ratings.csv": ["time", "branch_id", "regime", "multiplier", "normal_limit_mva",
                    "contingency_limit_mva"],
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


@dataclass
class HourOutcome:
    """Everything the aggregation step needs from one (regime, hour) solve."""

    regime: str
    hour: datetime
    status: str
    converged: bool
    objective: float | None = None
    p_gen: np.ndarray | None = None
    flows: np.ndarray | None = None  # dropped once the chunk task has rendered them
    # (monitored, outaged or None) branch positions, row limit, dual, slack
    binding_rows: list[tuple[int, int | None, float, float, float]] = field(default_factory=list)
    # per LP solve: (iteration, base rows, contingency rows appended,
    # simplex iterations, objective)
    trace: list[tuple[int, int, int, int, float]] = field(default_factory=list)
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL and self.converged


ChunkResult = tuple[list[HourOutcome], dict[str, str]]  # outcomes, text by file name


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


def _solve_chunk(state: _WorkerState, chunk: tuple[str, int, int]) -> ChunkResult:
    """Hours ``start`` to ``stop - 1`` of one regime, in order, each solved
    in the model of the hour before it when that hour was ok, and in a new
    model if not. Returns the outcomes, without their flows, and the
    chunk's rows of each per-hour file."""
    regime, start, stop = chunk
    outcomes = []
    model = DispatchModel()
    for pos in range(start, stop):
        outcome = _solve_task(state, (regime, pos), model)
        if not outcome.ok:
            model = DispatchModel()
        outcomes.append(outcome)
    network = state.network
    solved = [(format_hour(o.hour), o) for o in outcomes if o.status == OPTIMAL]
    texts = {"dispatch.csv": render_hourly([g.id for g in network.generators],
                                           [(stamp, o.p_gen) for stamp, o in solved]),
             "flows.csv": render_hourly([b.id for b in network.branches],
                                        [(stamp, o.flows) for stamp, o in solved])}
    if regime in state.ratings:
        texts["ratings.csv"] = "".join(render_ratings(state.ratings[regime], start, stop))
    for outcome in outcomes:  # the parent never reads flows
        outcome.flows = None
    return outcomes, texts


def _solve_task(state: _WorkerState, task: tuple[str, int],
                model: DispatchModel) -> HourOutcome:
    regime, pos = task
    hour = state.series.hours[pos]
    try:
        outcome = _solve_hour(state, regime, pos, hour, model)
    except Exception as exc:  # one failed task must not abort the others
        message = str(exc) if isinstance(exc, GridlineError) else f"{type(exc).__name__}: {exc}"
        outcome = HourOutcome(regime, hour, ERROR, False, message=message)
    if outcome.status == ERROR:
        outcome.message = f"{regime} {format_hour(hour)}: {outcome.message}"
    return outcome


def _solve_hour(state: _WorkerState, regime: str, pos: int, hour: datetime,
                model: DispatchModel) -> HourOutcome:
    network = state.network
    data = hour_data(network, state.series, hour)
    if regime == UNCONGESTED:
        result = solve_copperplate(network, data, state.factors, model)
        outcome = HourOutcome(regime, hour, result.status, result.status == OPTIMAL,
                              result.objective, result.p_gen, result.flows,
                              message=result.message)
        if result.status == OPTIMAL:
            outcome.trace = [(0, 0, 0, result.simplex_iterations, result.objective)]
        return outcome
    rating = state.ratings[regime]
    solution = solve_scdcopf(
        network, state.factors, data,
        rating.normal_limit[pos], rating.contingency_limit[pos],
        state.max_iterations, state.penalty_price, state.slack_base_rows, model=model)
    result = solution.dispatch
    outcome = HourOutcome(regime, hour, result.status, solution.converged,
                          result.objective, result.p_gen, result.flows,
                          trace=list(solution.trace), message=result.message)
    if result.status == OPTIMAL:
        outcome.binding_rows = [
            (row.monitored_branch, row.outage_branch, row.limit, dual, slack)
            for row, dual, slack in zip(solution.flow_rows, result.row_duals.tolist(),
                                        result.slack_values.tolist())
            if abs(dual) > BINDING_DUAL_TOL or slack > BINDING_DUAL_TOL]
    return outcome


def _solve_chunk_global(chunk: tuple[str, int, int]) -> ChunkResult:
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


def congestion_by_branch(outcomes: list[HourOutcome],
                         branch_ids: list[int]) -> list[tuple[int, float, int]]:
    """Per monitored branch id (``branch_ids`` by position): summed |dual|
    x row limit over all binding rows and hours, plus the count of hours
    with at least one binding row. Sorted by metric descending (ties by
    branch id)."""
    cost: dict[int, float] = {}
    hours_binding: dict[int, set[datetime]] = {}
    for outcome in outcomes:
        for monitored, _outage, limit, dual, _slack in outcome.binding_rows:
            branch_id = branch_ids[monitored]
            cost[branch_id] = cost.get(branch_id, 0.0) + abs(dual) * limit
            hours_binding.setdefault(branch_id, set()).add(outcome.hour)
    table = [(b, cost[b], len(hours_binding[b])) for b in cost]
    table.sort(key=lambda row: (-row[1], row[0]))
    return table


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
    for regime in config.regimes:
        if regime == UNCONGESTED:
            continue
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
    by_regime: dict[str, list[HourOutcome]] = {r: [] for r in config.regimes}
    files = {}  # (regime, file name): handle, opened with the regime's first chunk
    with ExitStack() as stack:
        if config.worker_count == 1:
            solved = (_solve_chunk(state, chunk) for chunk in chunks)
        else:
            pool = stack.enter_context(Pool(min(config.worker_count, len(chunks)),
                                            initializer=_init_worker, initargs=(state,)))
            solved = pool.imap(_solve_chunk_global, chunks, chunksize=1)
        for (regime, _, _), (outcomes, texts) in zip(chunks, solved):
            by_regime[regime].extend(outcomes)
            for name, text in texts.items():
                if (regime, name) not in files:
                    path = Path(config.output_directory) / regime / name
                    files[regime, name] = stack.enter_context(open_csv(path, HOURLY_HEADERS[name]))
                files[regime, name].write(text)

    common = [pos for pos in range(len(hours))
              if all(by_regime[r][pos].ok for r in config.regimes)]
    summary = _aggregate(config, network, series, by_regime, common)
    _write_outputs(config, series, by_regime, summary)
    if config.dump_factors:
        dump_factors(factors, network, config.output_directory)
    return summary


def _aggregate(config, network, series, by_regime, common_positions) -> RunSummary:
    hours = list(series.hours)
    fuels = sorted({g.fuel for g in network.generators})
    summaries: dict[str, RegimeSummary] = {}
    totals: dict[str, float] = {}
    for regime, outcomes in by_regime.items():
        total = sum(outcomes[pos].objective for pos in common_positions)
        generation = {fuel: 0.0 for fuel in fuels}
        curtailment = {fuel: 0.0 for fuel in VARIABLE_FUELS}
        for pos in common_positions:
            p = outcomes[pos].p_gen
            for g, gen in enumerate(network.generators):
                generation[gen.fuel] += float(p[g])
                if gen.fuel in curtailment:
                    curtailment[gen.fuel] += float(series.availability[pos, g] - p[g])
        totals[regime] = total
        summaries[regime] = RegimeSummary(
            regime=regime,
            solved_hours=sum(1 for o in outcomes if o.ok),
            total_cost=total,
            congestion_cost=None,
            generation_mwh=generation,
            curtailment_mwh=curtailment,
            emissions_tons=emissions(generation, config.emission_factors),
            infeasible_hours=[format_hour(o.hour) for o in outcomes
                              if o.status == "infeasible"],
            unconverged_hours=[format_hour(o.hour) for o in outcomes
                               if o.status == OPTIMAL and not o.converged],
            error_hours=[o.message for o in outcomes if o.status == ERROR],
        )
    if UNCONGESTED in totals:
        for regime, s in summaries.items():
            s.congestion_cost = totals[regime] - totals[UNCONGESTED]
    branch_ids = [b.id for b in network.branches]
    tables = {regime: congestion_by_branch([o for o in outcomes if o.ok], branch_ids)
              for regime, outcomes in by_regime.items()}
    return RunSummary(summaries, hours, [hours[pos] for pos in common_positions], tables)


def render_hourly(ids, hours) -> str:
    """``time,<id>,<value>`` lines: for each (stamp, values) of ``hours``,
    one line per id, each value as the ``repr`` of a Python float."""
    tails = [f",{i}," for i in ids]
    return "".join([f"{stamp}{tail}{value!r}\n" for stamp, values in hours
                    for tail, value in zip(tails, np.asarray(values, dtype=float).tolist())])


def render_ratings(rating: RatingSeries, start: int, stop: int):
    """``ratings.csv`` lines of hours ``start`` to ``stop - 1``, one block
    per hour. An hour whose rows equal the hour before's bit for bit reuses
    their rendered text, so a constant series is rendered once."""
    columns = (rating.multiplier, rating.normal_limit, rating.contingency_limit)
    heads = [f",{branch_id},{rating.regime}," for branch_id in rating.branch_ids]
    key = tails = None
    for pos in range(start, stop):
        rows = [np.asarray(column[pos], dtype=float) for column in columns]
        if (new_key := b"".join(row.tobytes() for row in rows)) != key:
            key = new_key
            # joined by the hour's stamp, so that each line starts with it
            tails = ["", *(f"{head}{m!r},{n!r},{c!r}\n" for head, m, n, c
                           in zip(heads, *(row.tolist() for row in rows)))]
        yield format_hour(rating.hours[pos]).join(tails)


def write_ratings(path: Path, ratings: list[RatingSeries]) -> None:
    """ratings.csv: one row per (regime, hour, branch)."""
    with open_csv(path, HOURLY_HEADERS["ratings.csv"]) as handle:
        for rating in ratings:
            handle.writelines(render_ratings(rating, 0, len(rating.hours)))


def _write_outputs(config, series, by_regime, summary) -> None:
    """The files that need every hour: per regime the congestion table and
    the iteration trace, and ``summary.json``."""
    out = Path(config.output_directory)
    stamps = {hour: format_hour(hour) for hour in series.hours}
    for regime, outcomes in by_regime.items():
        regime_dir = out / regime
        write_csv(regime_dir / "congestion_by_branch.csv",
                  ["branch_id", "congestion_cost_proxy_usd", "binding_hours"],
                  ((branch_id, repr(float(cost)), hours)
                   for branch_id, cost, hours in summary.congestion_tables[regime]))
        write_csv(regime_dir / "iteration_trace.csv",
                  ["hour", "iteration", "base_rows", "violations_added", "simplex_iterations",
                   "objective"],
                  ((stamps[o.hour], it, base, added, nit, repr(float(obj)))
                   for o in outcomes for it, base, added, nit, obj in o.trace))

    payload = summary.to_json_dict()
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
