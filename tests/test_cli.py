import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from gridline.cli import load_params_file, main
from gridline.errors import GridlineError
from gridline.factors import build_factors, dump_factors
from gridline.network import load_hourly_series, load_network
from gridline.pipeline import RunConfig
from gridline.ratings import DLR, RatingParams, build_rating_series, write_ratings
from gridline.weather import load_weather

RATING_FLAGS = [("--tc", None, False), ("--ta-slr", None, False), ("--v-slr", None, False),
                ("--phi-slr", None, False), ("--contingency-ratio", None, False),
                ("--eligibility-km", None, False), ("--params", None, False)]
# (flag, default, required) of every option, in order
OPTIONS = {
    "run": [("--case", None, True), ("--weather", None, False),
            ("--regimes", "slr,aar,dlr,uncongested", False), ("--hours", None, False),
            ("--penalty", 2000.0, False), ("--max-iterations", 20, False),
            ("--workers", 1, False), ("--emission-factors", None, False),
            ("--clamp-availability", False, False), ("--slack-base-rows", False, False),
            ("--dump-factors", False, False), ("--out", None, True), *RATING_FLAGS],
    "ratings": [("--case", None, True), ("--weather", None, False),
                ("--regimes", "slr,aar,dlr", False), ("--hours", None, False),
                ("--out", None, True), *RATING_FLAGS],
    "sweep": [("--case", None, True), ("--weather", None, True),
              ("--tc", "78,100,110", False), ("--phi-slr", "0,45,90", False),
              ("--hours", None, False), ("--out", None, False), ("--params", None, False)],
}


@pytest.fixture()
def runner():
    return CliRunner()


def test_run_command_full_study(runner, cases_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case3"),
        "--weather", str(cases_dir / "weather_case3.csv"),
        "--regimes", "slr,aar,dlr,uncongested",
        "--tc", "100", "--phi-slr", "0", "--v-slr", "0.61", "--ta-slr", "40",
        "--contingency-ratio", "1.146", "--penalty", "2000",
        "--workers", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "summary.json").read_text())
    assert set(payload["regimes"]) == {"slr", "aar", "dlr", "uncongested"}
    assert "total cost" in result.output


def test_run_exit_code_on_failed_hours(runner, cases_dir, tmp_path):
    case = tmp_path / "case3"
    shutil.copytree(cases_dir / "case3", case)
    lines = (case / "demand.csv").read_text().splitlines()
    bumped = [line.rsplit(",", 1)[0] + ",900.0" if "T12:" in line and ",2," in line
              else line for line in lines]
    (case / "demand.csv").write_text("\n".join(bumped) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(case), "--regimes", "slr", "--out", str(out)])
    assert result.exit_code == 1
    assert "infeasible" in result.output
    assert (out / "summary.json").exists()  # partial outputs preserved


def test_run_hours_span(runner, cases_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case3"), "--regimes", "slr,uncongested",
        "--hours", "2016-07-01T00..2016-07-01T05", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads((out / "summary.json").read_text())
    assert payload["hours"]["count"] == 6


def test_run_refuses_an_out_that_is_not_empty(runner, cases_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()  # an empty --out is used
    args = ["run", "--case", str(cases_dir / "case3"), "--out", str(out), "--regimes"]
    assert runner.invoke(main, [*args, "slr"]).exit_code == 0
    first = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    # a second run would leave the first run's slr/ beside its own files
    result = runner.invoke(main, [*args, "uncongested"])
    assert result.exit_code == 2, result.output
    assert f"Error: output directory {out} is not empty" in result.output
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == first


def test_ratings_command(runner, cases_dir, tmp_path):
    out = tmp_path / "ratings_out"
    result = runner.invoke(main, [
        "ratings", "--case", str(cases_dir / "case5"),
        "--weather", str(cases_dir / "weather_case5.csv"),
        "--regimes", "slr,aar,dlr", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "ratings.csv").read_text().splitlines()
    assert lines[0] == "time,branch_id,regime,multiplier,normal_limit_mva,contingency_limit_mva"
    assert len(lines) == 1 + 3 * 24 * 6  # three regimes, 24 hours, 6 branches


def test_repeated_rating_regime_is_a_usage_error(runner, cases_dir, tmp_path):
    out = tmp_path / "ratings_out"
    result = runner.invoke(main, [
        "ratings", "--case", str(cases_dir / "case5"),
        "--weather", str(cases_dir / "weather_case5.csv"),
        "--regimes", "dlr,DLR", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "regimes must not repeat, got ['dlr', 'dlr']" in result.output
    assert not out.exists()


def test_sweep_command(runner, cases_dir, tmp_path):
    out = tmp_path / "sweep_out"
    result = runner.invoke(main, [
        "sweep", "--case", str(cases_dir / "case30"),
        "--weather", str(cases_dir / "weather_case30.csv"),
        "--tc", "78,100,110", "--phi-slr", "0,45,90", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "t_conductor_c,phi_slr_deg,mean_dlr_multiplier"
    assert len(lines) == 10
    means = {}
    for line in lines[1:]:
        tc, phi, mean = line.split(",")
        means[(float(tc), float(phi))] = float(mean)
    assert means[(78.0, 0.0)] > means[(100.0, 0.0)] > means[(110.0, 0.0)]
    assert means[(100.0, 0.0)] > means[(100.0, 45.0)] > means[(100.0, 90.0)]


def test_params_file_and_override(runner, cases_dir, tmp_path):
    params = tmp_path / "params.txt"
    text = ("# SLR weather assumptions\n"
            "t_conductor = 110\n"
            "t_ambient_slr = 35\n"
            "calm_wind_threshold = 0.02\n")
    params.write_text(text)
    loaded = load_params_file(params)
    assert loaded == {"t_conductor": 110.0, "t_ambient_slr": 35.0,
                      "calm_wind_threshold": 0.02}
    # a byte-order mark and CRLF line ends, as the CSV inputs allow
    marked = tmp_path / "marked.txt"
    marked.write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode())
    assert load_params_file(marked) == loaded
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(GridlineError, match="unknown parameter"):
        load_params_file(bad)
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "ratings", "--case", str(cases_dir / "case3"),
        "--weather", str(cases_dir / "weather_case3.csv"),
        "--regimes", "aar", "--params", str(params), "--tc", "95",
        "--out", str(out)])
    assert result.exit_code == 0, result.output


def test_unknown_regime_rejected(runner, cases_dir, tmp_path):
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case3"), "--regimes", "slr,bogus",
        "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "unknown regime" in result.output


@pytest.mark.parametrize("option, value, message", [
    ("--workers", "0", "worker_count must be >= 1, got 0"),
    ("--max-iterations", "0", "max_iterations must be >= 1, got 0"),
    ("--penalty", "-5", "penalty_price must be finite and > 0, got -5.0"),
    ("--penalty", "inf", "penalty_price must be finite and > 0, got inf"),
    ("--regimes", "slr,SLR", "regimes must not repeat, got ['slr', 'slr']"),
    ("--emission-factors", "natural-gas=0.42,coal=1.0",
     "emission factors for unknown fuel(s) ['natural-gas']"),
    ("--emission-factors", "coal=1, coal =2",
     "emission factors must not repeat a fuel, got ['coal', 'coal']"),
])
def test_bad_run_settings_are_usage_errors(runner, cases_dir, tmp_path, option, value,
                                           message):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case5"), "--regimes", "slr", option, value,
        "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_run_option_defaults_are_the_run_config_defaults():
    options = {param.name: param.default for param in main.commands["run"].params}
    defaults = {field.name: field.default for field in fields(RunConfig)}
    assert options["penalty"] == defaults["penalty_price"]
    assert options["max_iterations"] == defaults["max_iterations"]
    assert options["workers"] == defaults["worker_count"]


def test_dump_factors_flag(runner, cases_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case3"), "--regimes", "slr,uncongested",
        "--dump-factors", "--out", str(out)])
    assert result.exit_code == 0, result.output
    ptdf_lines = (out / "ptdf.csv").read_text().splitlines()
    assert ptdf_lines[0] == "branch_id,1,2,3"
    assert len(ptdf_lines) == 4
    assert (out / "lodf.csv").exists()


def test_dump_factors_writes_the_factors_of_the_run(runner, cases_dir, tmp_path, monkeypatch):
    reference = tmp_path / "reference"
    network = load_network(cases_dir / "case3")
    dump_factors(build_factors(network), network, reference)
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("gridline")]:
        if hasattr(module, "build_factors"):
            monkeypatch.setattr(module, "build_factors", counted(module.build_factors))
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "run", "--case", str(cases_dir / "case3"), "--regimes", "slr,uncongested",
        "--dump-factors", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    for name in ("ptdf.csv", "lodf.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()


@pytest.mark.parametrize("command", ["ratings", "sweep", "run"])
def test_hours_outside_series_rejected(runner, cases_dir, tmp_path, command):
    out = tmp_path / "out"
    result = runner.invoke(main, [
        command, "--case", str(cases_dir / "case3"),
        "--weather", str(cases_dir / "weather_case3.csv"),
        "--hours", "2017-01-01T00..2017-01-01T05", "--out", str(out)])
    assert result.exit_code == 1
    assert "2017-01-01T00:00:00Z..2017-01-01T05:00:00Z not covered" in result.output
    assert not out.exists()


def test_ratings_and_sweep_do_not_read_availability(runner, cases_dir, tmp_path):
    case = tmp_path / "case5"
    shutil.copytree(cases_dir / "case5", case)
    lines = (case / "availability.csv").read_text().splitlines()
    (case / "availability.csv").write_text(
        "\n".join([lines[0], lines[1].rsplit(",", 1)[0] + ",999.0", *lines[2:]]) + "\n")
    weather = str(cases_dir / "weather_case5.csv")
    outputs = []
    for k, directory in enumerate((cases_dir / "case5", case)):
        out = tmp_path / f"out{k}"
        ratings = runner.invoke(main, ["ratings", "--case", str(directory), "--weather", weather,
                                       "--out", str(out)])
        sweep = runner.invoke(main, ["sweep", "--case", str(directory), "--weather", weather,
                                     "--tc", "100", "--phi-slr", "0", "--out", str(out)])
        assert (ratings.exit_code, sweep.exit_code) == (0, 0), ratings.output + sweep.output
        printed = (ratings.output + sweep.output).replace(str(out), "OUT")
        outputs.append((printed, (out / "ratings.csv").read_bytes(),
                        (out / "sweep.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    result = runner.invoke(main, ["run", "--case", str(case), "--weather", weather,
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert "availability 999.0 exceeds p_max 110.0" in result.output


# in a fresh interpreter: the scipy modules loaded after ratings and sweep, then after run
_SCIPY_AFTER_EACH_COMMAND = """
import json, sys
from gridline.cli import main
case, weather, out = sys.argv[1:]
loaded = []
for commands in (("ratings", "sweep"), ("run",)):
    for command in commands:
        main([command, "--case", case, "--weather", weather, "--out", f"{out}/{command}"],
             standalone_mode=False)
    loaded.append(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(json.dumps(loaded))
"""


def test_ratings_and_sweep_load_no_scipy(cases_dir, tmp_path):
    """One module-level import of a solver layer on the rating path loads
    scipy, about 50 MB; run loads it, which shows the check can fail."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER_EACH_COMMAND, str(cases_dir / "case5"),
         str(cases_dir / "weather_case5.csv"), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rating, run = json.loads(result.stdout.splitlines()[-1])
    assert rating == []
    assert "scipy.optimize" in run


def test_sweep_without_weather_in_span_fails(runner, cases_dir, tmp_path):
    lines = (cases_dir / "weather_case3.csv").read_text().splitlines()
    dropped = [f"2016-07-01T0{h}:" for h in range(1, 6)]
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join(l for l in lines
                                 if not l.startswith(tuple(dropped))) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "sweep", "--case", str(cases_dir / "case3"), "--weather", str(weather),
        "--hours", "2016-07-01T01..2016-07-01T05", "--out", str(out)])
    assert result.exit_code == 1
    assert "no weather for any hour of 2016-07-01T01:00:00Z..2016-07-01T05:00:00Z" in result.output
    assert "nan" not in result.output
    assert not out.exists()


def test_option_inventory():
    assert set(main.commands) == set(OPTIONS)
    for name, expected in OPTIONS.items():
        assert [(param.opts[0], param.to_info_dict()["default"], param.required)
                for param in main.commands[name].params] == expected, name


@pytest.mark.parametrize("command, args, code, message", [
    *[(command, ["--hours", "bogus..2016-07-01T05"], 2, "unparseable timestamp 'bogus'")
      for command in ("run", "ratings", "sweep")],
    *[(command, ["--params", "{tmp}/nonsense.txt"], 1,
       "{tmp}/nonsense.txt:1: unknown parameter 'nonsense'") for command in ("run", "ratings", "sweep")],
    *[(command, ["--params", "{tmp}/air.txt"], 2,
       "air_density and air_viscosity must be positive") for command in ("run", "ratings", "sweep")],
    ("sweep", ["--tc", "30"], 2, "t_conductor must exceed t_ambient_slr"),
    ("sweep", ["--tc", "80,x"], 2, "bad number list '80,x'"),
    ("sweep", ["--phi-slr", ""], 2, "bad number list ''"),
    ("sweep", ["--phi-slr", "nan"], 2, "phi_slr must be finite, got nan"),
    ("run", ["--regimes", "aar", "--tc", "nan"], 2, "t_conductor must be finite, got nan"),
    ("ratings", ["--regimes", "aar", "--tc", "nan"], 2, "t_conductor must be finite, got nan"),
    ("run", ["--contingency-ratio", "nan"], 2, "contingency_ratio must be finite, got nan"),
    ("ratings", ["--regimes", "slr,uncongested"], 2, "regimes ['uncongested'] have no ratings"),
    ("run", ["--emission-factors", "coal=-1"], 2,
     "emission factors must be finite and >= 0, got {'coal': -1.0}"),
    ("run", ["--emission-factors", "natural_gas=nan"], 2,
     "emission factors must be finite and >= 0, got {'natural_gas': nan}"),
    ("ratings", ["--regimes", ""], 2, "at least one regime required"),
    ("ratings", ["--regimes", ","], 2, "at least one regime required"),
    *[(command, ["--params", "{tmp}/latin.txt"], 1,
       "{tmp}/latin.txt: not UTF-8 text (invalid start byte at byte 18)")
      for command in ("run", "ratings", "sweep")],
    *[(command, ["--hours", "2016-07-01T10..2016-07-01T05"], 2,
       "hour span 2016-07-01T10:00:00Z..2016-07-01T05:00:00Z ends before it starts")
      for command in ("run", "ratings", "sweep")],
    ("sweep", ["--tc", "78,78", "--phi-slr", "0,0"], 2,
     "t_conductor values must not repeat: value 2 repeats value 1"),
    ("sweep", ["--phi-slr", "0,45,0"], 2, "phi_slr values must not repeat: value 3 repeats value 1"),
    *[(command, ["--params", "{tmp}/twice.txt"], 1,
       "{tmp}/twice.txt:3: 't_conductor' already set on line 1")
      for command in ("run", "ratings", "sweep")],
    ("sweep", ["--params", "{tmp}/short.txt"], 1,
     "no line shorter than 0.001 km is rated by weather; the sweep has nothing to average"),
])
def test_bad_inputs_end_with_a_message(runner, cases_dir, tmp_path, command, args, code,
                                       message):
    (tmp_path / "nonsense.txt").write_text("nonsense = 1\n")
    (tmp_path / "air.txt").write_text("air_density = -1\n")
    (tmp_path / "twice.txt").write_text("t_conductor = 90\nv_slr = 0.61\n t_conductor=120 # hot\n")
    (tmp_path / "latin.txt").write_bytes(b"t_conductor = 100 \xff\n")
    (tmp_path / "short.txt").write_text("eligibility_length_km = 0.001\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        command, "--case", str(cases_dir / "case5"),
        "--weather", str(cases_dir / "weather_case5.csv"),
        *(arg.replace("{tmp}", str(tmp_path)) for arg in args), "--out", str(out)])
    assert result.exit_code == code, result.output
    assert "Error: " + message.replace("{tmp}", str(tmp_path)) in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert not out.exists()


@pytest.mark.parametrize("command", ["ratings", "run"])
def test_fit_with_a_nonpositive_diameter_ends_with_a_message(runner, cases_dir, tmp_path,
                                                             command):
    params = tmp_path / "thin.txt"
    params.write_text("diameter_fit_a = 0\ndiameter_fit_b = -0.01\n")
    result = runner.invoke(main, [
        command, "--case", str(cases_dir / "case3"),
        "--weather", str(cases_dir / "weather_case3.csv"), "--regimes", "dlr",
        "--params", str(params), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert ("branch 1: fitted conductor diameter -0.01 m is not positive "
            "(diameter_fit_a 0.0, diameter_fit_b -0.01)\n") in result.output
    assert len(result.output.splitlines()) == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback


@pytest.mark.parametrize("file, message", [
    ("demand.csv", "field larger than field limit (131072) [demand.csv, row 4]"),
    ("weather.csv", "weather.csv row 4: field larger than field limit (131072)")],
    ids=["demand.csv", "weather.csv"])
def test_a_cell_over_the_csv_field_limit_ends_with_a_message(runner, cases_dir, tmp_path, file,
                                                             message):
    case, weather = tmp_path / "case", tmp_path / "weather.csv"
    shutil.copytree(cases_dir / "case3", case)
    shutil.copy(cases_dir / "weather_case3.csv", weather)
    path = weather if file == "weather.csv" else case / file
    lines = path.read_text().splitlines()
    # numpy refuses the underscore, and the row loop meets the long cell
    lines[1] = lines[1][:-1] + "_" + lines[1][-1]
    lines[4] += "," + "x" * 200_000
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["run", "--case", str(case), "--weather", str(weather),
                                  "--regimes", "dlr", "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {message}\n"
    assert isinstance(result.exception, SystemExit)  # not a traceback


@pytest.mark.parametrize("file, message", [
    ("demand.csv", "header: field larger than field limit (131072) [demand.csv]"),
    ("bus.csv", "header: field larger than field limit (131072) [bus.csv]"),
    ("weather.csv", "weather.csv: header: field larger than field limit (131072)")],
    ids=["demand.csv", "bus.csv", "weather.csv"])
def test_a_header_cell_over_the_csv_field_limit_ends_with_a_message(runner, cases_dir, tmp_path,
                                                                    file, message):
    case, weather = tmp_path / "case", tmp_path / "weather.csv"
    shutil.copytree(cases_dir / "case3", case)
    shutil.copy(cases_dir / "weather_case3.csv", weather)
    path = weather if file == "weather.csv" else case / file
    lines = path.read_text().splitlines()
    lines[0] += "," + "x" * 200_000
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["run", "--case", str(case), "--weather", str(weather),
                                  "--regimes", "dlr", "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: {message}\n"
    assert isinstance(result.exception, SystemExit)  # not a traceback


# run_command imports pipeline.run when it runs, so the study is patched there
@pytest.mark.parametrize("command, work", [
    ("run", "run"), ("ratings", "build_rating_series"), ("sweep", "sweep_parameters")])
def test_value_error_in_the_work_keeps_its_traceback(runner, cases_dir, tmp_path,
                                                     monkeypatch, command, work):
    def broken(*args, **kwargs):
        raise ValueError("a bug in the study")

    monkeypatch.setattr(f"gridline.{'pipeline' if command == 'run' else 'cli'}.{work}", broken)
    result = runner.invoke(main, [
        command, "--case", str(cases_dir / "case5"),
        "--weather", str(cases_dir / "weather_case5.csv"), "--out", str(tmp_path / "out")])
    assert isinstance(result.exception, ValueError), result.output
    assert str(result.exception) == "a bug in the study"


def test_flags_override_the_params_file_and_phi_slr_takes_degrees(runner, cases_dir, tmp_path):
    case, weather = cases_dir / "case5", cases_dir / "weather_case5.csv"
    params = tmp_path / "params.txt"
    params.write_text("t_conductor = 110\nphi_slr = 0.2\nv_slr = 1.5\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "ratings", "--case", str(case), "--weather", str(weather), "--regimes", "dlr",
        "--params", str(params), "--tc", "95", "--phi-slr", "30", "--out", str(out)])
    assert result.exit_code == 0, result.output
    network = load_network(case)
    expected = build_rating_series(
        network, load_weather(weather), list(load_hourly_series(case, network).hours), DLR,
        RatingParams(t_conductor=95.0, phi_slr=math.radians(30.0), v_slr=1.5))
    write_ratings(tmp_path / "expected.csv", [expected])
    assert (out / "ratings.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
