"""Command-line entry points: full studies, ratings-only runs, and the
conductor-temperature / SLR-angle sensitivity sweep."""

from __future__ import annotations

import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import click

from .dispatch import DEFAULT_PENALTY
from .errors import GridlineError
from .pipeline import ALL_REGIMES, DEFAULT_EMISSION_FACTORS, RunConfig, run, write_ratings
from .ratings import RATED_REGIMES, RatingParams, build_rating_series, sweep_parameters
from .network import load_hourly_series, load_network
from .scopf import DEFAULT_MAX_ITERATIONS
from .util import parse_hour, write_csv
from .weather import load_weather

_PARAM_FIELDS = {f.name: f.type for f in fields(RatingParams)}


def load_params_file(path: Path) -> dict[str, float]:
    """Parse a key=value params file; keys are RatingParams field names in
    field units (phi_slr in radians)."""
    values: dict[str, float] = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise GridlineError(f"{path}:{number}: expected key = value")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in _PARAM_FIELDS:
            raise GridlineError(f"{path}:{number}: unknown parameter {key!r}")
        try:
            values[key] = float(raw.strip())
        except ValueError:
            raise GridlineError(f"{path}:{number}: bad number {raw.strip()!r}") from None
    return values


def _build_params(params_file, tc, ta_slr, v_slr, phi_slr_deg, contingency_ratio,
                  eligibility_km) -> RatingParams:
    values = load_params_file(Path(params_file)) if params_file else {}
    try:
        params = RatingParams(**values)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    overrides = {}
    if tc is not None:
        overrides["t_conductor"] = tc
    if ta_slr is not None:
        overrides["t_ambient_slr"] = ta_slr
    if v_slr is not None:
        overrides["v_slr"] = v_slr
    if phi_slr_deg is not None:
        overrides["phi_slr"] = math.radians(phi_slr_deg)
    if contingency_ratio is not None:
        overrides["contingency_ratio"] = contingency_ratio
    if eligibility_km is not None:
        overrides["eligibility_length_km"] = eligibility_km
    try:
        return replace(params, **overrides) if overrides else params
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _parse_hours(text):
    if text is None:
        return None
    if ".." not in text:
        raise click.BadParameter("expected START..END, e.g. 2016-01-01T00..2016-01-01T23")
    first, _, last = text.partition("..")
    return parse_hour(first), parse_hour(last)


def _parse_regimes(text):
    regimes = tuple(r.strip().lower() for r in text.split(",") if r.strip())
    unknown = [r for r in regimes if r not in ALL_REGIMES]
    if unknown:
        raise click.BadParameter(f"unknown regime(s) {unknown}; choose from {ALL_REGIMES}")
    return regimes


def _parse_factors(text):
    factors = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fuel, _, value = part.partition("=")
        try:
            factors[fuel.strip()] = float(value)
        except ValueError:
            raise click.BadParameter(f"bad emission factor {part!r}") from None
    return factors


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise click.BadParameter(f"bad number list {text!r}") from None


def rating_options(command):
    for option in reversed([
        click.option("--tc", type=float, default=None,
                     help="Max conductor temperature, deg C."),
        click.option("--ta-slr", type=float, default=None,
                     help="Ambient temperature assumed for SLR, deg C."),
        click.option("--v-slr", type=float, default=None,
                     help="Wind speed assumed for SLR, m/s."),
        click.option("--phi-slr", type=float, default=None,
                     help="Attack angle assumed for SLR, degrees."),
        click.option("--contingency-ratio", type=float, default=None,
                     help="Contingency / normal rating ratio."),
        click.option("--eligibility-km", type=float, default=None,
                     help="Lines at or beyond this length keep static ratings."),
        click.option("--params", "params_file", type=click.Path(exists=True),
                     default=None, help="key=value file for any rating parameter."),
    ]):
        command = option(command)
    return command


@click.group()
def main():
    """Weather-driven line ratings and N-1 security-constrained dispatch."""


@main.command("run")
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--weather", "weather_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--regimes", default="slr,aar,dlr,uncongested", show_default=True)
@click.option("--hours", "hours_span", default=None,
              help="Inclusive UTC span START..END; default is the whole series.")
@click.option("--penalty", type=float, default=DEFAULT_PENALTY, show_default=True,
              help="$/MWh on contingency-row violations.")
@click.option("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--emission-factors", default=None,
              help="Comma list fuel=tons_per_mwh, e.g. coal=1.0,natural_gas=0.42.")
@click.option("--clamp-availability", is_flag=True,
              help="Clamp availability above p_max instead of erroring.")
@click.option("--slack-base-rows", is_flag=True,
              help="Extend penalized slacks to base-case flow rows.")
@click.option("--dump-factors", "dump_factors_flag", is_flag=True,
              help="Also write ptdf.csv and lodf.csv (debug).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@rating_options
def run_command(case_dir, weather_file, regimes, hours_span, penalty, max_iterations,
                workers, emission_factors, clamp_availability, slack_base_rows,
                dump_factors_flag, out_dir, tc, ta_slr, v_slr, phi_slr,
                contingency_ratio, eligibility_km, params_file):
    """Solve every hour under each regime and write reports to --out."""
    try:
        config = RunConfig(
            case_directory=Path(case_dir),
            output_directory=Path(out_dir),
            weather_file=None if weather_file is None else Path(weather_file),
            regimes=_parse_regimes(regimes),
            hours=_parse_hours(hours_span),
            params=_build_params(params_file, tc, ta_slr, v_slr, phi_slr,
                                 contingency_ratio, eligibility_km),
            penalty_price=penalty,
            worker_count=workers,
            emission_factors=(_parse_factors(emission_factors) if emission_factors
                              else dict(DEFAULT_EMISSION_FACTORS)),
            max_iterations=max_iterations,
            strict_availability=not clamp_availability,
            slack_base_rows=slack_base_rows,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    try:
        summary = run(config)
        if dump_factors_flag:
            from .factors import build_factors, dump_factors
            network = load_network(config.case_directory)
            dump_factors(build_factors(network, config.slack_bus), network,
                         config.output_directory)
    except GridlineError as exc:
        raise click.ClickException(str(exc)) from None
    for name, regime in summary.regimes.items():
        click.echo(f"{name}: {regime.solved_hours} hours solved, "
                   f"total cost ${regime.total_cost:,.2f}"
                   + ("" if regime.congestion_cost is None
                      else f", congestion ${regime.congestion_cost:,.2f}"))
        for bad in regime.infeasible_hours:
            click.echo(f"  infeasible: {bad}", err=True)
        for bad in regime.unconverged_hours:
            click.echo(f"  unconverged: {bad}", err=True)
        for bad in regime.error_hours:
            click.echo(f"  error: {bad}", err=True)
    if not summary.all_ok:
        sys.exit(1)


@main.command("ratings")
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--weather", "weather_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--regimes", default="slr,aar,dlr", show_default=True)
@click.option("--hours", "hours_span", default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@rating_options
def ratings_command(case_dir, weather_file, regimes, hours_span, out_dir, tc, ta_slr,
                    v_slr, phi_slr, contingency_ratio, eligibility_km, params_file):
    """Compute rating series only and write ratings.csv."""
    regime_list = _parse_regimes(regimes)
    bad = [r for r in regime_list if r not in RATED_REGIMES]
    if bad:
        raise click.BadParameter(f"regimes {bad} have no ratings")
    params = _build_params(params_file, tc, ta_slr, v_slr, phi_slr,
                           contingency_ratio, eligibility_km)
    try:
        network = load_network(case_dir)
        hours = load_hourly_series(case_dir, network).select(_parse_hours(hours_span))
        weather = load_weather(weather_file) if weather_file else None
        ratings = [build_rating_series(network, weather, hours, regime, params)
                   for regime in regime_list]
    except GridlineError as exc:
        raise click.ClickException(str(exc)) from None
    path = Path(out_dir) / "ratings.csv"
    write_ratings(path, ratings)
    rows = sum(rating.multiplier.size for rating in ratings)
    click.echo(f"wrote {rows} rating rows to {path}")


@main.command("sweep")
@click.option("--case", "case_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--weather", "weather_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tc", "tc_list", default="78,100,110", show_default=True,
              help="Comma list of conductor temperatures, deg C.")
@click.option("--phi-slr", "phi_list", default="0,45,90", show_default=True,
              help="Comma list of assumed SLR attack angles, degrees.")
@click.option("--hours", "hours_span", default=None)
@click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False))
@click.option("--params", "params_file", type=click.Path(exists=True), default=None)
def sweep_command(case_dir, weather_file, tc_list, phi_list, hours_span, out_dir,
                  params_file):
    """Mean DLR multiplier for each (conductor temp, SLR angle) pair."""
    tc_values = _float_list(tc_list)
    phi_degrees = _float_list(phi_list)
    base = _build_params(params_file, None, None, None, None, None, None)
    try:
        network = load_network(case_dir)
        hours = load_hourly_series(case_dir, network).select(_parse_hours(hours_span))
        weather = load_weather(weather_file)
        table = sweep_parameters(network, weather, hours, tc_values,
                                 [math.radians(d) for d in phi_degrees], base)
    except GridlineError as exc:
        raise click.ClickException(str(exc)) from None
    by_phi = {}
    for t_c, phi, mean in table:
        by_phi.setdefault(t_c, {})[phi] = mean
    header = "t_conductor_c " + " ".join(f"phi={d:g}deg" for d in phi_degrees)
    click.echo(header)
    for t_c in tc_values:
        cells = " ".join(f"{by_phi[t_c][math.radians(d)]:.4f}" for d in phi_degrees)
        click.echo(f"{t_c:<13g} {cells}")
    if out_dir:
        rows = []
        for (t_c, phi, mean), phi_deg in zip(table, [d for _ in tc_values for d in phi_degrees]):
            rows.append((repr(float(t_c)), repr(float(phi_deg)), repr(float(mean))))
        write_csv(Path(out_dir) / "sweep.csv",
                  ["t_conductor_c", "phi_slr_deg", "mean_dlr_multiplier"], rows)
        click.echo(f"wrote {Path(out_dir) / 'sweep.csv'}")


if __name__ == "__main__":
    main()
