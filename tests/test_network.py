import shutil

import numpy as np
import pytest

import oracles
from gridline.errors import CaseError
from gridline.network import load_hourly_series, load_network
from helpers import record_numpy_reads

WIDE = 2**64  # added to every bus and generator id of a widened case
ID_COLUMNS = {"bus.csv": ("id",), "branch.csv": ("from_bus", "to_bus"), "gen.csv": ("id", "bus"),
              "demand.csv": ("bus_id",), "availability.csv": ("gen_id",)}


def copy_case(cases_dir, tmp_path, name="case3"):
    target = tmp_path / name
    shutil.copytree(cases_dir / name, target)
    return target


def edit_csv(path, transform):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(transform(lines)) + "\n")


def widen_ids(case):
    """Add WIDE to every bus and generator id of ``case``: ids beyond int64."""
    for name, columns in ID_COLUMNS.items():
        def widen(lines):
            header = lines[0].split(",")
            at = [header.index(column) for column in columns]
            return lines[:1] + [",".join(str(WIDE + int(cell)) if k in at else cell
                                         for k, cell in enumerate(line.split(",")))
                                for line in lines[1:]]
        edit_csv(case / name, widen)


def test_fixture_round_trip_counts(networks):
    net = networks["case3"]
    assert net.n_buses == 3 and net.n_branches == 3 and net.n_generators == 2


def test_dangling_bus_reference(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "branch.csv",
             lambda lines: lines[:1] + ["9,1,99,0.1,60.0,line,,"] + lines[1:])
    with pytest.raises(CaseError) as err:
        load_network(case)
    assert "99" in str(err.value) and "branch.csv" in str(err.value)
    assert err.value.row == 1


def test_duplicate_bus_id(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "bus.csv", lambda lines: lines + ["1,30.0,-99.0,115.0"])
    with pytest.raises(CaseError, match="duplicate bus id"):
        load_network(case)


def test_nonpositive_reactance_and_rating(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "branch.csv",
             lambda lines: [lines[0]] + ["1,1,2,0.0,60.0,line,,"] + lines[2:])
    with pytest.raises(CaseError, match="reactance_pu"):
        load_network(case)
    case2 = copy_case(cases_dir, tmp_path / "b", "case3")
    edit_csv(case2 / "branch.csv",
             lambda lines: [lines[0]] + ["1,1,2,0.1,-5,line,,"] + lines[2:])
    with pytest.raises(CaseError, match="rating_mva"):
        load_network(case2)


def test_missing_file(tmp_path):
    with pytest.raises(CaseError, match="missing case file"):
        load_network(tmp_path)


def test_blank_length_filled_with_great_circle(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "bus.csv", lambda lines: [lines[0],
             "1,0.0,0.0,115.0", "2,0.0,1.0,115.0", "3,1.0,0.5,115.0"])
    net = load_network(case)
    # endpoints one degree of longitude apart on the equator;
    # frozen from the independent great-circle oracle
    assert net.branches[0].length_km == pytest.approx(111.3195, abs=1e-3)


def test_explicit_length_and_diameter_respected(networks):
    net = networks["case5"]
    transformer = net.branches[net.branch_index[5]]
    assert transformer.length_km == 150.0
    assert net.branches[net.branch_index[3]].diameter_m == 0.0281


def test_length_symmetric_in_endpoint_order(networks):
    from gridline.geo import great_circle_km
    for net in networks.values():
        for branch in net.branches:
            a, b = net.bus(branch.from_bus), net.bus(branch.to_bus)
            fwd = great_circle_km(a.latitude, a.longitude, b.latitude, b.longitude)
            rev = great_circle_km(b.latitude, b.longitude, a.latitude, a.longitude)
            assert fwd == pytest.approx(rev, abs=1e-12)


def test_cost_curve_validation(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    # decreasing marginal cost
    edit_csv(case / "gen.csv", lambda lines: [lines[0],
             "1,1,natural_gas,0.0,200.0,100.0,18.0,100.0,12.0", lines[2]])
    with pytest.raises(CaseError, match="nondecreasing"):
        load_network(case)
    # segments not summing to p_max
    case2 = copy_case(cases_dir, tmp_path / "b", "case3")
    edit_csv(case2 / "gen.csv", lambda lines: [lines[0],
             "1,1,natural_gas,0.0,200.0,100.0,12.0,50.0,18.0", lines[2]])
    with pytest.raises(CaseError, match="sum"):
        load_network(case2)


# row 1 of case3's gen.csv replaced; row 2 is generator 2 at bus 3
@pytest.mark.parametrize("header, row, message, row_number", [
    # a cheaper 50 MW segment at $5 after a blank second segment
    (",seg3_mw,seg3_cost", "1,1,natural_gas,0.0,200.0,200.0,12.0,,,50.0,5.0",
     "'seg3_mw' given after blank 'seg2_mw'", 1),
    ("", "1,1,natural_gas,0.0,200.0,200.0,12.0,,99.0",
     "'seg2_cost' given after blank 'seg2_mw'", 1),
    ("", "1,99,natural_gas,0.0,200.0,100.0,12.0,100.0,18.0",
     "generator 1 references unknown bus 99", 1),
    ("", "1,1,peat,0.0,200.0,100.0,12.0,100.0,18.0", "unknown fuel 'peat'", 1),
    ("", "1,1,natural_gas,300.0,200.0,100.0,12.0,100.0,18.0",
     "p_min 300.0 exceeds p_max 200.0", 1),
    ("", "1,1,natural_gas,0.0,200.0,,,,", "generator needs at least one cost segment", 1),
    ("", "2,1,natural_gas,0.0,200.0,100.0,12.0,100.0,18.0", "duplicate generator id 2", 2),
], ids=["later-segment", "cost-without-mw", "unknown-bus", "unknown-fuel", "p-min-above-p-max",
        "no-segment", "repeated-id"])
def test_cost_cell_after_a_blank_segment_is_refused(cases_dir, tmp_path, header, row, message,
                                                    row_number):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "gen.csv", lambda lines: [lines[0] + header, row, lines[2]])
    with pytest.raises(CaseError) as err:
        load_network(case)
    assert str(err.value) == f"{message} [gen.csv, row {row_number}]"
    assert (err.value.file, err.value.row) == ("gen.csv", row_number)


def test_trailing_blank_segments_are_allowed(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "gen.csv", lambda lines: [lines[0] + ",seg3_mw,seg3_cost",
                                              "1,1,natural_gas,0.0,200.0,200.0,12.0,, ,,",
                                              lines[2]])
    assert load_network(case).generators[0].cost_curve == ((200.0, 12.0),)


@pytest.mark.parametrize("header, row", [
    ("id,from_bus,to_bus,reactance_pu,rating_mva,kind,length_km,diameter_m",
     "1,1,2,0.1,60.0,line"),
    ("id,from_bus,to_bus,reactance_pu,rating_mva,kind,length_km,diameter_m",
     "1,1,2,0.1,60.0,line,25.0"),
    ("id,from_bus,to_bus,reactance_pu,rating_mva,kind", "1,1,2,0.1,60.0,line"),
], ids=["row-ends-before-length", "row-ends-before-diameter", "no-optional-columns"])
def test_optional_branch_cells_may_be_left_out(cases_dir, tmp_path, header, row):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "branch.csv", lambda lines: [header, row, *[
        ",".join(line.split(",")[:6]) for line in lines[2:]]])
    net = load_network(case)
    expected = load_network(cases_dir / "case3")
    length = float(row.split(",")[6]) if row.count(",") > 5 else expected.length_km[0]
    assert net.length_km.tolist() == [length, *expected.length_km[1:].tolist()]
    assert np.isnan(net.diameter_m).all()
    assert net.branches[1:] == expected.branches[1:]


def test_cost_function_convex_by_sampling(networks):
    for net in networks.values():
        for gen in net.generators:
            outputs = np.linspace(0.0, gen.p_max_static, 21)
            costs = [oracles.cost_of(gen, p) for p in outputs]
            second_difference = np.diff(costs, 2)
            assert np.all(second_difference >= -1e-9)


def test_round_trip_semantically_identical(networks, tmp_path):
    original = networks["case5"]
    oracles.write_network(original, tmp_path)
    reloaded = load_network(tmp_path)
    assert reloaded.buses == original.buses
    assert reloaded.branches == original.branches
    assert reloaded.generators == original.generators


def test_series_shape_and_alignment(networks, serieses):
    series = serieses["case3"]
    assert len(series.hours) == 24
    assert series.demand.shape == (24, 3)
    # bus 1 has no demand rows -> zero column
    assert np.all(series.demand[:, networks["case3"].bus_index[1]] == 0.0)
    # thermal-only case: availability pinned at static p_max
    p_max = [g.p_max_static for g in networks["case3"].generators]
    assert np.allclose(series.availability, np.tile(p_max, (24, 1)))


def test_availability_above_pmax(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path, "case5")
    edit_csv(case / "availability.csv",
             lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",120.0"] + lines[2:])
    net = load_network(case)
    with pytest.raises(CaseError, match="exceeds p_max"):
        load_hourly_series(case, net)
    series = load_hourly_series(case, net, strict=False)
    assert series.availability[0, net.gen_index[2]] == 110.0  # clamped


def test_missing_hour_contiguity_error(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "demand.csv",
             lambda lines: [line for line in lines if "T13:" not in line])
    net = load_network(case)
    with pytest.raises(CaseError, match="contiguous"):
        load_hourly_series(case, net)


def test_negative_demand_rejected(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "demand.csv",
             lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",-1.0"] + lines[2:])
    net = load_network(case)
    with pytest.raises(CaseError, match="mw"):
        load_hourly_series(case, net)


def test_unknown_id_and_bad_timestamp(cases_dir, tmp_path):
    case = copy_case(cases_dir, tmp_path)
    edit_csv(case / "demand.csv",
             lambda lines: lines + ["2016-07-01T00:00:00Z,42,5.0"])
    net = load_network(case)
    with pytest.raises(CaseError, match="unknown bus_id 42"):
        load_hourly_series(case, net)
    case2 = copy_case(cases_dir, tmp_path / "b", "case3")
    edit_csv(case2 / "demand.csv",
             lambda lines: [lines[0], "2016-07-01T00:30:00Z,2,5.0"] + lines[2:])
    with pytest.raises(CaseError, match="hour boundary"):
        load_hourly_series(case2, net)


@pytest.mark.parametrize("file, column, value", [
    ("demand.csv", "mw", "inf"),
    ("branch.csv", "rating_mva", "inf"),
    ("bus.csv", "lat", "nan"),
    ("bus.csv", "lon", "-inf"),
    ("gen.csv", "seg1_cost", "nan"),
])
def test_non_finite_number_rejected(cases_dir, tmp_path, file, column, value):
    case = copy_case(cases_dir, tmp_path)

    def poison_first_row(lines):
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        return [lines[0], ",".join(cells)] + lines[2:]

    edit_csv(case / file, poison_first_row)
    with pytest.raises(CaseError, match=f"non-finite value '{value}' for '{column}'") as err:
        load_hourly_series(case, load_network(case))
    assert err.value.file == file and err.value.row == 1


def _without_first(lines, token):
    """``lines`` less the first line that holds ``token``."""
    index = next(i for i, line in enumerate(lines) if token in line)
    return lines[:index] + lines[index + 1:]


@pytest.mark.parametrize("case, file, transform, message, row", [
    ("case3", "demand.csv", lambda lines: lines + [lines[1]],
     "duplicate entry for bus_id 2 at 2016-07-01T00:00:00Z", 49),
    ("case3", "demand.csv", lambda lines: lines[:1] + _without_first(lines[1:], "T13:00:00Z,2,"),
     "bus 2 missing hour 2016-07-01T13:00:00Z", None),
    ("case3", "demand.csv", lambda lines: lines[:1], "no demand rows", None),
    ("case5", "availability.csv", lambda lines: lines + ["2016-07-02T00:00:00Z,2,50.0"],
     "gen 2 availability at 2016-07-02T00:00:00Z outside the demand hour range", None),
    ("case5", "availability.csv", lambda lines: lines[:1] + _without_first(lines[1:], "T05:"),
     "gen 2 missing hour 2016-07-01T05:00:00Z", None),
    ("case5", "availability.csv", lambda lines: lines + [lines[1]],
     "duplicate entry for gen_id 2 at 2016-07-01T00:00:00Z", 25),
    ("case3", "demand.csv", lambda lines: lines + ["2016-07-01T00:00:00Z"],
     "missing value for 'bus_id'", 49),
    ("case5-wide", "demand.csv", lambda lines: lines + [f"2016-07-01T00:00:00Z,{WIDE + 42},5.0"],
     f"unknown bus_id {WIDE + 42}", 73),
])
def test_series_input_errors_name_file_and_row(cases_dir, tmp_path, case, file, transform,
                                               message, row):
    target = copy_case(cases_dir, tmp_path, case.removesuffix("-wide"))
    if case.endswith("-wide"):
        widen_ids(target)
    edit_csv(target / file, transform)
    with pytest.raises(CaseError) as err:
        load_hourly_series(target, load_network(target))
    where = f" [{file}" + ("" if row is None else f", row {row}") + "]"
    assert str(err.value) == message + where
    assert (err.value.file, err.value.row) == (file, row)


@pytest.mark.parametrize("reader", ["numpy", "row loop"])
def test_ids_beyond_int64_load_through_both_readers(cases_dir, tmp_path, monkeypatch, reader):
    case = copy_case(cases_dir, tmp_path, "case5")
    widen_ids(case)
    if reader == "row loop":  # numpy refuses an underscore between digits
        for name in ("demand.csv", "availability.csv"):
            edit_csv(case / name, lambda lines: [lines[0], lines[1][:-1] + "_" + lines[1][-1],
                                                 *lines[2:]])
    net = load_network(case)
    reads = record_numpy_reads(monkeypatch)  # of the hourly tables
    series = load_hourly_series(case, net)
    assert reads == [reader == "numpy"] * 2
    plain = load_network(cases_dir / "case5")
    assert net.bus_ids == tuple(WIDE + i for i in plain.bus_ids)
    assert [(b.from_bus, b.to_bus) for b in net.branches] == [
        (WIDE + b.from_bus, WIDE + b.to_bus) for b in plain.branches]
    for column in ("latitude", "longitude", "base_voltage", "branch_from", "branch_to",
                   "length_km", "diameter_m"):
        assert getattr(net, column).tobytes() == getattr(plain, column).tobytes(), column
    assert [g.id for g in net.generators] == [WIDE + g.id for g in plain.generators]
    expected = load_hourly_series(cases_dir / "case5", plain)
    assert series.hours == expected.hours
    assert series.demand.tobytes() == expected.demand.tobytes()
    assert series.availability.tobytes() == expected.availability.tobytes()


def _add_byte_order_mark(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


@pytest.mark.parametrize("file", ["bus.csv", "demand.csv"])
def test_byte_order_mark_reads_as_without_it(cases_dir, tmp_path, file):
    case = copy_case(cases_dir, tmp_path)
    _add_byte_order_mark(case / file)
    plain = cases_dir / "case3"
    net, expected = load_network(case), load_network(plain)
    assert (net.buses, net.branches, net.generators) == (
        expected.buses, expected.branches, expected.generators)
    series, reference = load_hourly_series(case, net), load_hourly_series(plain, expected)
    assert series.hours == reference.hours
    assert np.array_equal(series.demand, reference.demand)
    assert np.array_equal(series.availability, reference.availability)


@pytest.mark.parametrize("row, value, message", [
    (1, "2016-07-01T00:00:00Z,2,x", "bad number 'x' for 'mw' [demand.csv, row 1]"),
    (5, "2016-07-01T00:00:00Z,42,5.0", "unknown bus_id 42 [demand.csv, row 5]"),
])
def test_byte_order_mark_keeps_fault_messages(cases_dir, tmp_path, row, value, message):
    messages = []
    for marked in (False, True):
        case = copy_case(cases_dir, tmp_path / str(marked))
        edit_csv(case / "demand.csv", lambda lines: lines[:row] + [value] + lines[row + 1:])
        if marked:
            _add_byte_order_mark(case / "demand.csv")
        with pytest.raises(CaseError) as err:
            load_hourly_series(case, load_network(case))
        messages.append(str(err.value))
    assert messages == [message, message]
