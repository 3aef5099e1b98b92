"""Command-line entry points: full studies, ratings-only runs and the T_C x phi_SLR
sweep. Each command turns its options into library values (a ValueError there is a
usage error, exit 2) before it works; a GridlineError is its message alone (exit 1).
Only ``run`` imports the solver layers, so ``ratings`` and ``sweep`` load no scipy."""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import fields
from pathlib import Path

import click

from .errors import GridlineError
from .ratings import (RATED_REGIMES, RatingParams, build_rating_series, sweep_grid,
                      sweep_parameters, write_ratings)
from .network import load_hourly_series, load_network
from .util import (DEFAULT_EMISSION_FACTORS, DEFAULT_MAX_ITERATIONS, DEFAULT_PENALTY,
                   check_span, parse_hour, render_floats, write_csv)
from .weather import load_weather

_PARAM_FIELDS = {f.name for f in fields(RatingParams)}
_path = functools.partial(click.Path, path_type=Path)

# (flag, RatingParams field, help) of each rating override; --phi-slr takes degrees
RATING_FLAGS = (
    ("--tc", "t_conductor", "Max conductor temperature, deg C."),
    ("--ta-slr", "t_ambient_slr", "Ambient temperature assumed for SLR, deg C."),
    ("--v-slr", "v_slr", "Wind speed assumed for SLR, m/s."),
    ("--phi-slr", "phi_slr", "Attack angle assumed for SLR, degrees."),
    ("--contingency-ratio", "contingency_ratio", "Contingency / normal rating ratio."),
    ("--eligibility-km", "eligibility_length_km",
     "Lines at or beyond this length keep static ratings."),
)


def load_params_file(path: Path) -> dict[str, float]:
    """Parse a key=value params file; keys are RatingParams field names in
    field units (phi_slr in radians)."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise GridlineError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values: dict[str, tuple[int, float]] = {}  # key: (line number, value)
    for number, line in enumerate(text.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, raw = (part.strip() for part in text.partition("="))
        if not sep:
            raise GridlineError(f"{path}:{number}: expected key = value")
        if key not in _PARAM_FIELDS:
            raise GridlineError(f"{path}:{number}: unknown parameter {key!r}")
        if key in values:
            raise GridlineError(f"{path}:{number}: {key!r} already set on line {values[key][0]}")
        try:
            values[key] = number, float(raw)
        except ValueError:
            raise GridlineError(f"{path}:{number}: bad number {raw!r}") from None
    return {key: value for key, (_, value) in values.items()}


def _rating_params(options: dict) -> RatingParams:
    """Pop --params and the rating flags as one RatingParams; flags win."""
    path = options.pop("params_file")
    values = load_params_file(path) if path else {}
    for _, name, _ in RATING_FLAGS:
        value = options.pop(name, None)
        if value is not None:
            values[name] = math.radians(value) if name == "phi_slr" else value
    return RatingParams(**values)


class _Command(click.Command):
    """Adds --params, and the rating flags if asked; its callback gets library values, one
    ``params`` and ``parse(**options)``. A ValueError on the way is a usage error."""

    def __init__(self, *args, params, parse=dict, rating_flags=False, **kwargs):
        flags = [click.Option([flag, name], type=float, help=help_text)
                 for flag, name, help_text in RATING_FLAGS if rating_flags]
        option = click.Option(["--params", "params_file"], type=_path(exists=True, dir_okay=False),
                              help="key=value file for any rating parameter.")
        super().__init__(*args, params=[*params, *flags, option], **kwargs)
        self.parse = parse

    def parse_args(self, ctx, args):
        try:
            rest = super().parse_args(ctx, args)
            if not ctx.resilient_parsing:
                ctx.params["params"] = _rating_params(ctx.params)
                ctx.params = self.parse(**ctx.params)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None
        return rest


class _Group(click.Group):
    command_class = _Command

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GridlineError as exc:
            raise click.ClickException(str(exc)) from None


def _hours(ctx, param, text):
    if text is None:
        return None
    if ".." not in text:
        raise ValueError("expected START..END, e.g. 2016-01-01T00..2016-01-01T23")
    span = tuple(map(parse_hour, text.split("..", 1)))
    check_span(*span)
    return span


def _regimes(ctx, param, text):
    return tuple(r.strip().lower() for r in text.split(",") if r.strip())


def _rated_regimes(ctx, param, text):
    regimes = _regimes(ctx, param, text)
    if not regimes:
        raise ValueError("at least one regime required")
    bad = [r for r in regimes if r not in RATED_REGIMES]
    if bad:
        raise ValueError(f"regimes {bad} have no ratings; choose from {RATED_REGIMES}")
    if len(set(regimes)) < len(regimes):
        raise ValueError(f"regimes must not repeat, got {list(regimes)}")
    return regimes


def _floats(ctx, param, text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"bad number list {text!r}")
    return values


def _emission_factors(ctx, param, text):
    if not text:
        return dict(DEFAULT_EMISSION_FACTORS)
    pairs = [part.partition("=") for part in text.split(",") if part.strip()]
    fuels = [fuel.strip() for fuel, _, _ in pairs]
    if len(set(fuels)) < len(fuels):
        raise ValueError(f"emission factors must not repeat a fuel, got {fuels}")
    try:
        return {fuel: float(value) for fuel, (_, _, value) in zip(fuels, pairs)}
    except ValueError:
        raise ValueError(f"bad emission factors {text!r}") from None


case_option = click.option("--case", "case_dir", required=True,
                           type=_path(exists=True, file_okay=False))
weather_option = functools.partial(click.option, "--weather", "weather_file",
                                   type=_path(exists=True, dir_okay=False))
hours_option = click.option("--hours", callback=_hours,
                            help="Inclusive UTC span START..END; default is the whole series.")
out_option = functools.partial(click.option, "--out", "out_dir", type=_path(file_okay=False))


@click.group(cls=_Group)
def main():
    """Weather-driven line ratings and N-1 security-constrained dispatch."""


def _run_values(case_dir, out_dir, penalty, workers, clamp_availability, **options):
    from .pipeline import RunConfig
    if out_dir.exists() and any(out_dir.iterdir()):  # a second run would mix its files in
        raise ValueError(f"output directory {out_dir} is not empty")
    config = RunConfig(case_directory=case_dir, output_directory=out_dir, penalty_price=penalty,
                       worker_count=workers, strict_availability=not clamp_availability, **options)
    return {"config": config}


@main.command("run", parse=_run_values, rating_flags=True)
@case_option
@weather_option()
@click.option("--regimes", default="slr,aar,dlr,uncongested", show_default=True, callback=_regimes)
@hours_option
@click.option("--penalty", type=float, default=DEFAULT_PENALTY, show_default=True,
              help="$/MWh on contingency-row violations.")
@click.option("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--emission-factors", callback=_emission_factors,
              help="Comma list fuel=tons_per_mwh, e.g. coal=1.0,natural_gas=0.42.")
@click.option("--clamp-availability", is_flag=True,
              help="Clamp availability above p_max instead of erroring.")
@click.option("--slack-base-rows", is_flag=True,
              help="Extend penalized slacks to base-case flow rows.")
@click.option("--dump-factors", is_flag=True, help="Also write ptdf.csv and lodf.csv (debug).")
@out_option(required=True)
def run_command(config):
    """Solve every hour under each regime and write reports to an empty --out."""
    from concurrent.futures.process import BrokenProcessPool
    from .pipeline import run
    try:
        summary = run(config)
    except BrokenProcessPool as exc:
        raise GridlineError(f"a worker process died: {exc}") from None
    for name, regime in summary.regimes.items():
        click.echo(f"{name}: {regime.solved_hours} hours solved, "
                   f"total cost ${regime.total_cost:,.2f}"
                   + ("" if regime.congestion_cost is None
                      else f", congestion ${regime.congestion_cost:,.2f}"))
        for label in ("infeasible", "unconverged", "error"):
            for bad in getattr(regime, f"{label}_hours"):
                click.echo(f"  {label}: {bad}", err=True)
    if not summary.all_ok:
        sys.exit(1)


def _study_hours(case_dir, hours):
    """The case network and the hours of its demand.csv in the span ``hours``
    (all when None). Ratings need no availability, so that file is not read."""
    network = load_network(case_dir)
    return network, load_hourly_series(case_dir, network, read_availability=False).select(hours)


@main.command("ratings", rating_flags=True)
@case_option
@weather_option()
@click.option("--regimes", default="slr,aar,dlr", show_default=True, callback=_rated_regimes)
@hours_option
@out_option(required=True)
def ratings_command(case_dir, weather_file, regimes, hours, out_dir, params):
    """Compute rating series only and write ratings.csv."""
    network, selected = _study_hours(case_dir, hours)
    weather = load_weather(weather_file) if weather_file else None
    ratings = [build_rating_series(network, weather, selected, r, params) for r in regimes]
    write_ratings(out_dir / "ratings.csv", ratings)
    rows = sum(rating.multiplier.size for rating in ratings)
    click.echo(f"wrote {rows} rating rows to {out_dir / 'ratings.csv'}")


def _sweep_values(tc_list, phi_list, params, **options):
    sweep_grid(params, tc_list, [math.radians(phi) for phi in phi_list])  # refuse a bad grid now
    return {**options, "tc_list": tc_list, "phi_list": phi_list, "params": params}


@main.command("sweep", parse=_sweep_values)
@case_option
@weather_option(required=True)
@click.option("--tc", "tc_list", default="78,100,110", show_default=True, callback=_floats,
              help="Comma list of conductor temperatures, deg C.")
@click.option("--phi-slr", "phi_list", default="0,45,90", show_default=True,
              callback=_floats, help="Comma list of assumed SLR attack angles, degrees.")
@hours_option
@out_option()
def sweep_command(case_dir, weather_file, tc_list, phi_list, hours, out_dir, params):
    """Mean DLR multiplier for each (conductor temp, SLR angle) pair."""
    network, selected = _study_hours(case_dir, hours)
    table = sweep_parameters(network, load_weather(weather_file), selected, tc_list,
                             [math.radians(d) for d in phi_list], params)
    # (T_C, phi_SLR in degrees, mean multiplier) in sweep order, T_C outermost
    rows = [(t_c, phi, mean) for (t_c, _, mean), phi in zip(table, itertools.cycle(phi_list))]
    click.echo("t_conductor_c " + " ".join(f"phi={d:g}deg" for d in phi_list))
    for start in range(0, len(rows), len(phi_list)):
        block = rows[start:start + len(phi_list)]
        click.echo(f"{block[0][0]:<13g} " + " ".join(f"{mean:.4f}" for *_, mean in block))
    if out_dir:
        write_csv(out_dir / "sweep.csv", ["t_conductor_c", "phi_slr_deg", "mean_dlr_multiplier"],
                  [list(render_floats(row)) for row in rows])
        click.echo(f"wrote {out_dir / 'sweep.csv'}")


if __name__ == "__main__":
    main()
