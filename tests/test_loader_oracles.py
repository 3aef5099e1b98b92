"""The one-pass hourly-input loaders against the row-by-row loaders in
``oracles.py``. Shuffled rows, other spellings of the same hour, id and
cell (numbers only ``float()`` and ``int()`` read among them), blank
lines, CRLF line ends, quoted cells, extra trailing cells, free column
order, missing buses, generators and weather hours must give the same
bits through numpy's reader and through the row loop it falls back to;
an injected fault, or two at different rows, must give the same error
type, message, file and row."""

import csv
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridline.errors import GridlineError
from gridline.network import load_hourly_series, load_network
from gridline.util import read_columns, read_rows
from gridline.weather import COLUMNS, load_weather
from helpers import make_network, record_numpy_reads

START = datetime(2016, 7, 1, tzinfo=timezone.utc)
P_MAX = 50.0
NETWORK = make_network(
    [(b, 30.0, -99.0 + 0.1 * b, 115.0) for b in range(1, 5)],
    [(1, 1, 2, 0.1, 100.0), (2, 2, 3, 0.1, 100.0), (3, 3, 4, 0.1, 100.0)],
    [(g, g, "wind", 0.0, P_MAX, [(P_MAX, 10.0)]) for g in range(1, 4)])
LATS, LONS = (0.0, 30.5), (-99.0, -98.5, -98.0)
ID_SPELLINGS = ("{}", " {}", "0{}", "{} ", "{:020}")
SERIES_FAULTS = ("time", "id", "mw", "short", "repeat", "drop", "extra", "over", "space")
WEATHER_FAULTS = ("time", "number", "temp", "short", "repeat", "drop", "stray", "space")
WIDE = 2**64
CASE_IDS = (*range(1, 10), *(WIDE + k for k in range(1, 10)), 10**25)
CASE_ID_SPELLINGS = ("{}", "+{}", "0{}", " {} ", "{}\n")
BUS_FAULTS = ("id", "repeat", "number", "range", "short", "empty")
BRANCH_FAULTS = ("id", "repeat", "number", "range", "short", "end", "loop", "kind", "length",
                 "diameter")
CASE_FAULTS = (*(("bus.csv", kind) for kind in BUS_FAULTS),
               *(("branch.csv", kind) for kind in BRANCH_FAULTS))
BRANCH_COLUMNS = ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# unread cells: plain, and quoted with a comma, doubled quotes or line ends
NOTES = ("x", "", "a,b", 'say ""hi""', "two\nlines", "two\r\nlines", '"')


def _stamp(hour, style):
    """Hour ``hour`` after START in one of five spellings of the same
    instant, the last one ending in a line break (so written quoted)."""
    stamp = START + timedelta(hours=hour)
    return (stamp.strftime("%Y-%m-%dT%H:%M:%SZ"), stamp.isoformat(),
            stamp.astimezone(timezone(timedelta(hours=2))).isoformat(timespec="minutes"),
            stamp.strftime("%Y-%m-%d %H:%M:%S"), stamp.isoformat() + "\r\n")[style]


def _respelled(row):
    """``row`` with its time in another spelling of the same hour."""
    time = row["time"]
    return {**row, "time": time[:-1] + "+00:00" if time.endswith("Z") else time}


def _number(draw, low, high):
    edges = st.sampled_from([-0.0 if low == 0.0 else low, high])
    return repr(draw(st.one_of(edges, st.floats(low, high))))


def _python_only(draw, text):
    """``text``, or a spelling of its number that ``float()`` and ``int()``
    read and numpy does not: an underscore between two digits, or
    Arabic-Indic digits."""
    pairs = [k for k in range(1, len(text)) if text[k - 1:k + 1].isdigit()]
    style = draw(st.sampled_from(["as is", "underscore" if pairs else "as is", "arabic"]))
    if style == "underscore":
        k = draw(st.sampled_from(pairs))
        return text[:k] + "_" + text[k:]
    return text.translate(ARABIC_INDIC) if style == "arabic" else text


def _cell_text(draw, text):
    """``text`` as a CSV cell: quoted (doubling its quotes) when it must
    be, and sometimes when it need not."""
    if any(c in text for c in ',"\r\n') or draw(st.integers(0, 3)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(draw, path, columns, rows):
    """``rows`` (dicts of cell text; "cut" keeps that many cells, "line"
    is a raw line) under a drawn column order, an unread extra column,
    extra trailing cells, blank lines and LF or CRLF line ends. In some
    files, numbers are spelled as only Python reads them."""
    header = draw(st.permutations(columns + draw(st.sampled_from([[], ["note"]]))))
    numbers = [column for column in header if column not in ("time", "note")]
    python_only = draw(st.booleans())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for row in rows:
        if "line" in row:
            lines.append(row["line"])
            continue
        cells = dict(row)
        for column in numbers if python_only else ():
            if column in cells:
                cells[column] = _python_only(draw, cells[column])
        texts = [cells.get(column, draw(st.sampled_from(NOTES))) for column in header]
        texts = texts[:row["cut"]] if "cut" in row else texts + draw(
            st.lists(st.sampled_from(NOTES), max_size=2))
        lines.append(",".join(_cell_text(draw, text) for text in texts))
        lines += [""] * draw(st.integers(0, 1))
    path.write_bytes(end.join(lines + [""]).encode())


def _inject(draw, rows, kind, k, make_row):
    """Fault ``kind`` at row ``k`` of ``rows``; ``make_row(hour)`` is a
    valid row at ``hour`` that the file lacks."""
    if kind == "time":
        rows[k]["time"] = draw(st.sampled_from(
            ["bogus", "2016-07-01T00:30:00Z", "", 'a "quoted", time']))
    elif kind == "short":
        rows[k]["cut"] = draw(st.integers(1, len(rows[k]) - 1))
    elif kind == "repeat":
        others = [i for i in range(len(rows)) if i != k and "line" not in rows[i]] or [k]
        rows[k] = _respelled(rows[draw(st.sampled_from(others))])
    elif kind == "drop":
        del rows[k]
    elif kind in ("extra", "stray"):
        rows.insert(k, make_row(draw(st.sampled_from([-2, 0, 9]))))
    elif kind == "space":
        rows.insert(k, {"line": draw(st.sampled_from([" ", "\t", " \t "]))})
    else:
        column, texts = {
            "id": ("id", ["x", "99", "", "1.5", "7.0", "12345678901234567890"]),
            "mw": ("mw", ["", "abc", "inf", "-inf", "nan", "-1.0", "1e999"]),
            "over": ("mw", [repr(P_MAX + 1.0)]),
            "number": (draw(st.sampled_from(["lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms"])),
                       ["", "x", "nan", "inf"]),
            "temp": ("temp_k", ["100.0", "150.0"]),
        }[kind]
        rows[k][next(c for c in rows[k] if c.endswith(column))] = draw(st.sampled_from(texts))


def _faults(draw, rows, kinds, make_row):
    """Each of ``kinds`` at its own drawn row, the last row first; a file
    with fewer rows than ``kinds`` takes the first ones."""
    kinds = kinds[:len(rows)]
    places = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), min_size=len(kinds),
                           max_size=len(kinds), unique=True))
    for k, kind in sorted(zip(places, kinds), reverse=True):
        _inject(draw, rows, kind, k, make_row)


def _outcome(load, *args, **kwargs):
    """What ``load`` returns, or the type, message, file and row of its error."""
    try:
        return load(*args, **kwargs)
    except GridlineError as exc:
        return type(exc), str(exc), getattr(exc, "file", None), getattr(exc, "row", None)


def _assert_same(new, old, fields):
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert new.hours == old.hours
    for field in fields:
        assert getattr(new, field).tobytes() == getattr(old, field).tobytes(), field
        assert getattr(new, field).shape == getattr(old, field).shape, field


def _series_case(draw, directory, kinds):
    n_hours = draw(st.integers(1, 4))
    buses = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    gens = draw(st.lists(st.integers(1, 3), min_size=int("over" in kinds), max_size=3, unique=True))
    strict = "over" in kinds or draw(st.booleans())
    target = "availability.csv" if "over" in kinds else draw(
        st.sampled_from(["demand.csv", "availability.csv"]))
    files = {"demand.csv": ("bus_id", buses, 100.0), "availability.csv": ("gen_id", gens, P_MAX)}
    if not gens and target != "availability.csv" and draw(st.booleans()):
        del files["availability.csv"]
    for name, (id_column, ids, top) in files.items():
        top = top if strict else 2 * top  # availability over p_max is clamped

        def row(hour, ident=None):
            ident = draw(st.sampled_from(ids or [1])) if ident is None else ident
            return {"time": _stamp(hour, draw(st.integers(0, 4))),
                    id_column: draw(st.sampled_from(ID_SPELLINGS)).format(ident),
                    "mw": _number(draw, 0.0, top)}

        rows = draw(st.permutations([row(h, i) for h in range(n_hours) for i in ids]))
        if name == target:
            _faults(draw, rows, kinds, row)
        _write(draw, directory / name, ["time", id_column, "mw"], rows)
    return strict


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("kinds", [(), *[(kind,) for kind in SERIES_FAULTS], "two"])
@given(data=st.data())
def test_series_loader_matches_row_by_row_oracle(kinds, data):
    if kinds == "two":
        kinds = data.draw(st.lists(st.sampled_from(SERIES_FAULTS), min_size=2, max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        strict = _series_case(data.draw, Path(tmp), kinds)
        new = _outcome(load_hourly_series, tmp, NETWORK, strict=strict)
        old = _outcome(oracles.row_by_row_hourly_series, tmp, NETWORK, strict=strict)
    if not kinds:
        assert not isinstance(new, tuple), new
    _assert_same(new, old, ("demand", "availability"))


def _weather_case(draw, path, kinds):
    n_hours = draw(st.integers(1, 5))
    present = [0, n_hours - 1] + draw(st.lists(st.integers(0, n_hours - 1), max_size=4))
    lats = draw(st.lists(st.sampled_from(LATS), min_size=1, max_size=2, unique=True))
    lons = draw(st.lists(st.sampled_from(LONS), min_size=1, max_size=3, unique=True))

    def row(hour, cell=None):
        lat, lon = cell or (draw(st.sampled_from([*LATS, 31.0])), draw(st.sampled_from(LONS)))
        lat_text = draw(st.sampled_from(["-0.0", "0", "0.0"])) if lat == 0.0 else repr(lat)
        return {"time": _stamp(hour, draw(st.integers(0, 4))), "lat": lat_text,
                "lon": draw(st.sampled_from([repr(lon), f" {lon}0"])),
                "temp_k": _number(draw, 151.0, 320.0), "wind_u_ms": _number(draw, -10.0, 10.0),
                "wind_v_ms": _number(draw, -10.0, 10.0)}

    rows = draw(st.permutations([row(h, (lat, lon)) for h in sorted(set(present))
                                 for lat in lats for lon in lons]))
    _faults(draw, rows, kinds, row)
    _write(draw, path, ["time", "lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms"], rows)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("kinds", [(), *[(kind,) for kind in WEATHER_FAULTS], "two"])
@given(data=st.data())
def test_weather_loader_matches_row_by_row_oracle(kinds, data):
    if kinds == "two":
        kinds = data.draw(st.lists(st.sampled_from(WEATHER_FAULTS), min_size=2, max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weather.csv"
        _weather_case(data.draw, path, kinds)
        new = _outcome(load_weather, path)
        old = _outcome(oracles.row_by_row_weather, path)
    if not kinds:
        assert not isinstance(new, tuple), new
    _assert_same(new, old, ("cells", "present", "temperature", "wind_u", "wind_v"))


def _spelled(draw, low, high):
    """A number in [low, high] in one of the spellings numpy reads too:
    shortest repr, an exponent, a plus sign, a leading zero or spaces."""
    value = float(_number(draw, low, high))
    text = repr(value)
    signed = text.startswith("-")
    return draw(st.sampled_from([text, f"{value:.17e}", f" {text} ",
                                 text if signed else "+" + text,
                                 text if signed else "0" + text]))


def _case_id(draw, ident):
    return draw(st.sampled_from(CASE_ID_SPELLINGS)).format(ident)


def _inject_case(draw, rows, kind, k, columns):
    """Fault ``kind`` at row ``k`` of bus.csv or branch.csv ``rows``."""
    row = rows[k]
    if kind == "id":
        row["id"] = draw(st.sampled_from(["x", "1.5", "", "1e3", "0x1", "- 1"]))
    elif kind == "repeat":
        others = [i for i in range(len(rows)) if i != k] or [k]
        row["id"] = _case_id(draw, int(rows[draw(st.sampled_from(others))]["id"]))
    elif kind == "number":
        column = draw(st.sampled_from([c for c in columns if c not in ("id", "kind")]))
        row[column] = draw(st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999"]))
    elif kind == "range":
        column, texts = draw(st.sampled_from(
            [("lat", ["90.5", "-91"]), ("lon", ["180.0001", "-200"]), ("base_kv", ["0", "-1"])]
            if "lat" in columns else
            [("reactance_pu", ["0", "-0.0", "-1"]), ("rating_mva", ["0", "-5"])]))
        row[column] = draw(st.sampled_from(texts))
    elif kind == "short":
        row["cut"] = draw(st.integers(1, len(columns)))
    elif kind == "end":
        row[draw(st.sampled_from(["from_bus", "to_bus"]))] = draw(st.sampled_from(
            ["x", "", "99", str(WIDE + 99)]))
    elif kind == "loop":
        row["to_bus"] = _case_id(draw, int(row["from_bus"]))
    elif kind == "kind":
        row["kind"] = draw(st.sampled_from(["cable", "", "Line", "lines"]))
    elif kind == "length":
        row["length_km"] = draw(st.sampled_from(["-1", "-1e-300", "nan", "x", "inf"]))
    else:
        row["diameter_m"] = draw(st.sampled_from(["0", "-0.0", "-0.01", "inf", "x"]))


def _network_case(draw, directory, faults):
    """bus.csv, branch.csv and gen.csv of a drawn network with ``faults``,
    a list of (file, kind) each at its own drawn row."""
    bus_ids = draw(st.lists(st.sampled_from(CASE_IDS), min_size=1, max_size=6, unique=True))
    buses = [{"id": _case_id(draw, ident), "lat": _spelled(draw, -90.0, 90.0),
              "lon": _spelled(draw, -180.0, 180.0), "base_kv": _spelled(draw, 1e-3, 500.0)}
             for ident in bus_ids]
    pairs = [(a, b) for a in bus_ids for b in bus_ids if a != b]
    branch_ids = draw(st.lists(st.sampled_from(CASE_IDS), max_size=8 if pairs else 0,
                               unique=True))
    optional = draw(st.sampled_from([["length_km", "diameter_m"], ["length_km"], []]))
    branches = []
    for ident in branch_ids:
        start, end = draw(st.sampled_from(pairs))
        branches.append({
            "id": _case_id(draw, ident), "from_bus": _case_id(draw, start),
            "to_bus": _case_id(draw, end), "reactance_pu": _spelled(draw, 1e-3, 1.0),
            "rating_mva": _spelled(draw, 1e-3, 1000.0),
            "kind": draw(st.sampled_from(["line", " line", "transformer", "line "])),
            "length_km": draw(st.sampled_from(["", " ", _spelled(draw, 0.0, 500.0)])),
            "diameter_m": draw(st.sampled_from(["", _spelled(draw, 1e-4, 0.1)]))})
    tables = {"bus.csv": (["id", "lat", "lon", "base_kv"], buses),
              "branch.csv": (BRANCH_COLUMNS + optional, branches)}
    for file, kind in faults:
        columns, rows = tables[file]
        if kind == "empty":
            rows.clear()
        elif rows:
            _inject_case(draw, rows, kind, draw(st.integers(0, len(rows) - 1)), columns)
    for file, (columns, rows) in tables.items():
        path = directory / file
        _write(draw, path, columns, rows)
        if draw(st.booleans()):  # a byte-order mark
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    (directory / "gen.csv").write_text("id,bus,fuel,p_min_mw,p_max_mw,seg1_mw,seg1_cost\n"
                                       f"1,{bus_ids[0]},natural_gas,0,100,100,10\n")


def _network_columns(net):
    """The bus and branch columns of ``net``, as the column loader builds them."""
    return (net.bus_ids, net.branch_ids, net.latitude, net.longitude, net.base_voltage,
            net.branch_from, net.branch_to, net.reactance, net.static_rating, net.is_line,
            net.length_km, net.diameter_m)


def _object_columns(buses, branches):
    """``_network_columns`` of the oracle's ``Bus`` and ``Branch`` objects."""
    position = {b.id: k for k, b in enumerate(buses)}
    column = lambda objects, field, dtype=float: np.array(  # noqa: E731
        [getattr(o, field) for o in objects], dtype=dtype).reshape(len(objects))
    return (tuple(b.id for b in buses), tuple(b.id for b in branches),
            column(buses, "latitude"), column(buses, "longitude"),
            column(buses, "base_voltage"),
            np.array([position[b.from_bus] for b in branches], dtype=int).reshape(-1),
            np.array([position[b.to_bus] for b in branches], dtype=int).reshape(-1),
            column(branches, "reactance"), column(branches, "static_rating"),
            np.array([b.kind == "line" for b in branches], dtype=bool).reshape(-1),
            column(branches, "length_km"),
            np.array([np.nan if b.diameter_m is None else b.diameter_m for b in branches],
                     dtype=float).reshape(-1))


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("faults", [(), *[(fault,) for fault in CASE_FAULTS], "two"],
                         ids=lambda faults: "-".join(map("-".join, faults))
                         if isinstance(faults, tuple) else faults)
@given(data=st.data())
def test_case_loader_matches_row_by_row_oracle(faults, data):
    if faults == "two":
        faults = data.draw(st.lists(st.sampled_from(CASE_FAULTS), min_size=2, max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        _network_case(data.draw, Path(tmp), list(faults))
        new = _outcome(load_network, tmp)
        old = _outcome(oracles.row_by_row_buses_and_branches, tmp)
    if not faults:
        assert not isinstance(new, tuple), new
    if isinstance(new, tuple) or isinstance(old[0], type):
        assert new == old
        return
    assert (new.buses, new.branches) == (tuple(old[0]), tuple(old[1]))
    for got, want in zip(_network_columns(new), _object_columns(*old)):
        if isinstance(want, tuple):
            assert got == want and all(type(i) is int for i in got)
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


CASES = Path(__file__).parent / "cases"
HOURLY_FILES = sorted([*CASES.glob("*/demand.csv"), *CASES.glob("*/availability.csv"),
                       *CASES.glob("weather_*.csv")])


def _columns(path):
    """The coded and the float columns of a bundled hourly file."""
    if path.name.startswith("weather"):
        return ["time"], list(COLUMNS[1:])
    return ["time", "bus_id" if path.name == "demand.csv" else "gen_id"], ["mw"]


@pytest.mark.parametrize("path", HOURLY_FILES, ids=lambda path: path.relative_to(CASES).as_posix())
def test_numpy_reads_every_bundled_hourly_file(path, monkeypatch):
    reads = record_numpy_reads(monkeypatch)
    coded, floats = _columns(path)
    texts, codes, values, complete = read_columns(path, coded, floats)
    assert reads == [True] and complete  # the row loop did not run
    rows = [row for _, row in read_rows(path, [])]
    for column, distinct, code in zip(coded, texts, codes):
        assert [distinct[k] for k in code] == [row[column] for row in rows]
    assert values.tolist() == [[float(row[column]) for column in floats] for row in rows]


def test_time_texts_stay_text_under_the_numpy_1_loadtxt_default(monkeypatch):
    # numpy < 2 defaults loadtxt to encoding="bytes", which hands converters
    # bytes; a bytes stamp would fail later in parse_hour with a TypeError
    reads = record_numpy_reads(monkeypatch)
    loadtxt = np.loadtxt

    def numpy_1_loadtxt(*args, encoding="bytes", **kwargs):
        return loadtxt(*args, encoding=encoding, **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
    path = CASES / "case3" / "demand.csv"
    (stamps, idents), *_ = read_columns(path, *_columns(path))
    assert reads == [True]
    assert stamps and all(type(text) is str for text in stamps + idents)


@pytest.mark.parametrize("text, numpy_reads", [
    ("time,bus_id,mw\n2016-07-01T00:00:00Z,1,1_000\n", False),
    # numpy goes on from the handle after the header row; skipping header
    # lines instead, its first row would be the header's second line
    ('time,bus_id,mw,"x\n2016-07-01T00:00:00Z,1,5,"\n2016-07-01T00:00:00Z,1,1000\n', True)],
    ids=["underscore", "header-over-two-lines"])
def test_python_only_numbers_and_a_two_line_header_load_right(tmp_path, monkeypatch, text,
                                                              numpy_reads):
    path = tmp_path / "demand.csv"
    path.write_bytes(text.encode())
    reads = record_numpy_reads(monkeypatch)
    series = load_hourly_series(tmp_path, NETWORK, read_availability=False)
    assert reads == [numpy_reads]
    assert series.demand.tolist() == [[1000.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("long_cell", ["x" * 200_000, '"' + "x,\n" * 70_000 + '"'],
                         ids=["on-one-line", "quoted-over-lines"])
def test_both_readers_stop_at_a_cell_over_the_csv_field_limit(tmp_path, monkeypatch, long_cell):
    # the same rows, once with a 10 that numpy reads and once with a 1_0 that
    # it refuses, so the row loop reads the second file
    reads = record_numpy_reads(monkeypatch)
    results = []
    for spelling in ("10", "1_0"):
        rows = [f"2016-07-01T0{h}:00:00Z,{h % 2 + 1},{spelling if h == 0 else h}"
                for h in range(6)]
        rows[3] += "," + long_cell
        path = tmp_path / f"demand-{spelling}.csv"
        path.write_text("time,bus_id,mw\n" + "\n".join(rows) + "\n")
        results.append(read_columns(path, ["time", "bus_id"], ["mw"]))
    (texts, codes, values, complete), (texts_1, codes_1, values_1, complete_1) = results
    assert texts == texts_1 and all(map(np.array_equal, codes, codes_1))
    assert values.tolist() == values_1.tolist() == [[10.0], [1.0], [2.0]]
    assert not complete and not complete_1  # both stop at the fourth row
    assert not any(reads)  # numpy is not given a file with such a cell


def test_numpy_reads_a_long_file_whose_cells_are_quoted(tmp_path, monkeypatch):
    # quoted cells, one with a line end in it, and the file over the csv
    # field limit: no row is near it, so numpy reads the file
    reads = record_numpy_reads(monkeypatch)
    rows = [f'"2016-07-01T00:00:00Z","{k}","{k}.5"' for k in range(10_000)]
    rows[1] = '"2016-07-01T00:00:00Z","1\n","1.5"'
    path = tmp_path / "demand.csv"
    path.write_text("time,bus_id,mw\n" + "\n".join(rows) + "\n")
    assert path.stat().st_size > csv.field_size_limit()
    (_, idents), _, values, complete = read_columns(path, ["time", "bus_id"], ["mw"])
    assert reads == [True] and complete
    assert idents[:3] == ["0", "1\n", "2"] and values[:3].tolist() == [[0.5], [1.5], [2.5]]
