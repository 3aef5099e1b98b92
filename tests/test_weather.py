from datetime import timedelta

import numpy as np
import pytest

from gridline.errors import WeatherError
from gridline.ratings import AAR, DLR, RatingParams, build_rating_series, eta_temperature
from gridline.util import parse_hour
from gridline.weather import load_weather, nearest_cell

import oracles
from helpers import make_network


def drop_hour(source, target, hour_token="T07:"):
    lines = source.read_text().splitlines()
    target.write_text("\n".join(l for l in lines if hour_token not in l) + "\n")
    return target


def test_fixture_loads_fully_present(weathers):
    grid = weathers["case3"]
    assert grid.n_cells == 4
    assert len(grid.hours) == 24
    assert grid.present.all()


def test_absent_hour_flagged(cases_dir, tmp_path):
    path = drop_hour(cases_dir / "weather_case3.csv", tmp_path / "weather.csv")
    grid = load_weather(path)
    assert len(grid.hours) == 24  # range unchanged
    missing = parse_hour("2016-07-01T07:00:00Z")
    assert not grid.present[grid.hour_pos(missing)]
    assert grid.present.sum() == 23


def test_inconsistent_cell_set_rejected(cases_dir, tmp_path):
    lines = (cases_dir / "weather_case3.csv").read_text().splitlines()
    # drop a single cell row from hour 07 (3 of 4 cells remain)
    index = next(i for i, line in enumerate(lines) if "T07:" in line)
    (tmp_path / "weather.csv").write_text(
        "\n".join(lines[:index] + lines[index + 1:]) + "\n")
    with pytest.raises(WeatherError, match="inconsistent cell set"):
        load_weather(tmp_path / "weather.csv")


def test_implausible_temperature_rejected(cases_dir, tmp_path):
    lines = (cases_dir / "weather_case3.csv").read_text().splitlines()
    parts = lines[1].split(",")
    parts[3] = "120.0"
    (tmp_path / "weather.csv").write_text("\n".join([lines[0], ",".join(parts)] + lines[2:]) + "\n")
    with pytest.raises(WeatherError, match="implausible"):
        load_weather(tmp_path / "weather.csv")


def test_nearest_cell_exact_and_tie(weathers):
    grid = weathers["case3"]
    for index, (lat, lon) in enumerate(grid.cells):
        assert nearest_cell(grid, lat, lon) == index
    # equidistant between cells 0 (30.9,-99.1) and 1 (30.9,-98.8): lowest wins
    assert nearest_cell(grid, 30.9, -98.95) == 0


def test_nearest_cell_matches_brute_force_on_20x20():
    import csv
    from gridline.weather import WeatherGrid

    cells = [(30.0 + 0.1 * r, -100.0 + 0.1 * c) for r in range(20) for c in range(20)]
    hours = [parse_hour("2016-07-01T00:00:00Z")]
    shape = (1, len(cells))
    grid = WeatherGrid(cells, hours, [True], np.full(shape, 290.0),
                       np.zeros(shape), np.zeros(shape))
    rng = np.random.RandomState(21)
    for _ in range(1000):
        lat = rng.uniform(29.5, 32.5)
        lon = rng.uniform(-100.5, -97.5)
        assert nearest_cell(grid, lat, lon) == oracles.brute_force_nearest(cells, lat, lon)


def test_blocked_nearest_cell_matches_unblocked(monkeypatch):
    from gridline import weather
    from gridline.geo import great_circle_km
    from gridline.weather import WeatherGrid

    # a row of cells 0.25 degrees apart, then a 6x6 lattice
    cells = ([(30.0, -100.0 + 0.25 * k) for k in range(8)]
             + [(30.5 + 0.2 * r, -100.0 + 0.2 * c) for r in range(6) for c in range(6)])
    hours = [parse_hour("2016-07-01T00:00:00Z")]
    shape = (1, len(cells))
    grid = WeatherGrid(cells, hours, [True], np.full(shape, 290.0),
                       np.zeros(shape), np.zeros(shape))
    rng = np.random.RandomState(5)
    lat = np.concatenate(([30.0, 30.0], rng.uniform(29.5, 32.0, 300)))
    # -99.375 lies exactly halfway between cells 2 and 3, across the first
    # block boundary; -99.875 between cells 0 and 1, inside the first block
    lon = np.concatenate(([-99.375, -99.875], rng.uniform(-100.5, -98.5, 300)))
    unblocked = np.argmin(great_circle_km(lat[:, None], lon[:, None],
                                          grid.cells[:, 0], grid.cells[:, 1]), axis=-1)
    monkeypatch.setattr(weather, "CELL_BLOCK", 3)
    blocked = nearest_cell(grid, lat, lon)
    assert blocked.tolist() == unblocked.tolist()
    assert blocked[:2].tolist() == [2, 0]  # ties break to the lowest index
    assert nearest_cell(grid, lat[0], lon[0]) == 2
    assert [nearest_cell(grid, a, b) for a, b in zip(lat, lon)] == unblocked.tolist()
    assert nearest_cell(grid, lat.reshape(2, 151), lon.reshape(2, 151)).tolist() == (
        unblocked.reshape(2, 151).tolist())
    empty = WeatherGrid(np.zeros((0, 2)), hours, [True], np.zeros((1, 0)),
                        np.zeros((1, 0)), np.zeros((1, 0)))
    with pytest.raises(WeatherError, match="no cells"):
        nearest_cell(empty, 30.0, -99.0)


def _short_lines(points):
    """One 0.05-degree north-south line from each (lat, lon) point."""
    buses, branches = [], []
    for k, (lat, lon) in enumerate(points):
        buses += [(2 * k + 1, lat, lon, 115.0), (2 * k + 2, lat + 0.05, lon, 115.0)]
        branches.append((k + 1, 2 * k + 1, 2 * k + 2, 0.1, 100.0))
    return make_network(buses, branches, [(1, 1, "natural_gas", 0.0, 10.0, [(10.0, 20.0)])])


def test_rating_reads_nearest_cell_and_never_fills_missing_hours(cases_dir, tmp_path,
                                                                 weathers):
    grid = weathers["case3"]
    net = _short_lines([(30.875, -99.1)])  # midpoint on cell 0 (30.9, -99.1)
    aar = build_rating_series(net, grid, list(grid.hours), AAR, RatingParams())
    assert np.array_equal(aar.multiplier[:, 0],
                          eta_temperature(grid.temperature[:, 0], RatingParams()))

    gappy = load_weather(drop_hour(cases_dir / "weather_case3.csv", tmp_path / "w.csv"))
    missing = gappy.hour_pos(parse_hour("2016-07-01T07:00:00Z"))
    for regime in (AAR, DLR):
        series = build_rating_series(net, gappy, list(gappy.hours), regime, RatingParams())
        assert series.multiplier[missing, 0] == 1.0  # never default-filled

    with pytest.raises(WeatherError, match="outside weather range"):
        build_rating_series(net, grid, [grid.hours[0] - timedelta(hours=1)], AAR,
                            RatingParams())


def test_absent_hour_absent_for_every_location(cases_dir, tmp_path):
    gappy = load_weather(drop_hour(cases_dir / "weather_case3.csv", tmp_path / "w.csv"))
    missing = gappy.hour_pos(parse_hour("2016-07-01T07:00:00Z"))
    rng = np.random.RandomState(2)
    net = _short_lines([(rng.uniform(30, 32), rng.uniform(-100, -98)) for _ in range(25)])
    for regime in (AAR, DLR):
        series = build_rating_series(net, gappy, list(gappy.hours), regime, RatingParams())
        assert np.all(series.multiplier[missing] == 1.0)
        assert np.all(np.delete(series.multiplier, missing, axis=0) != 1.0)


def _poison(column, value):
    """The first data row with ``column`` set to ``value``."""
    def transform(lines):
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        return [lines[0], ",".join(cells)] + lines[2:]
    return transform


@pytest.mark.parametrize("transform, message", [
    (lambda lines: lines + [lines[1]],
     "weather.csv row 97: duplicate cell (31.8, -100.1) at 2016-07-01T00:00:00Z"),
    (_poison("wind_u_ms", "nan"), "weather.csv row 1: non-finite value"),
    (_poison("temp_k", "warm"),
     "weather.csv row 1: could not convert string to float: 'warm'"),
    (lambda lines: lines[:1], "weather.csv: no weather rows"),
    (lambda lines: [line.rsplit(",", 1)[0] for line in lines],
     "weather.csv: missing column(s) wind_v_ms"),
    (_poison("time", "bogus"), "weather.csv row 1: unparseable timestamp 'bogus'"),
    (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:],
     "weather.csv row 1: missing value for 'wind_v_ms'"),
])
def test_weather_input_errors_name_the_row(cases_dir, tmp_path, transform, message):
    lines = (cases_dir / "weather_case5.csv").read_text().splitlines()
    (tmp_path / "weather.csv").write_text("\n".join(transform(lines)) + "\n")
    with pytest.raises(WeatherError) as err:
        load_weather(tmp_path / "weather.csv")
    assert str(err.value) == message


@pytest.mark.parametrize("transform", [lambda lines: lines, _poison("temp_k", "warm"),
                                       _poison("time", "bogus")],
                         ids=["valid", "bad-temperature", "bad-time"])
def test_byte_order_mark_reads_as_without_it(cases_dir, tmp_path, transform):
    lines = transform((cases_dir / "weather_case5.csv").read_text().splitlines())
    results = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        path = tmp_path / name / "weather.csv"  # one file name, so the messages can match
        path.parent.mkdir()
        path.write_bytes(mark + ("\n".join(lines) + "\n").encode())
        try:
            grid = load_weather(path)
        except WeatherError as exc:
            results.append(str(exc))
        else:
            results.append([np.asarray(a).tobytes() for a in (
                grid.cells, grid.present, grid.temperature, grid.wind_u, grid.wind_v)]
                + [grid.hours])
    assert results[0] == results[1]
