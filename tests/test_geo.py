import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridline.errors import ProjectionError
from gridline.geo import (PlanarPoint, conductor_angle, great_circle_km, to_utm,
                          utm_zone)

import oracles


def test_central_meridian_identity():
    # -99 is the central meridian of zone 14
    p = to_utm(0.0, -99.0, forced_zone=14)
    assert p.x == pytest.approx(500000.0, abs=1e-6)
    assert p.y == pytest.approx(0.0, abs=1e-6)
    assert p.zone == 14


def test_northing_against_independent_reference():
    # frozen from the Snyder-series oracle (standard UTM includes k0 = 0.9996)
    p = to_utm(0.1, -99.0)
    assert p.x == pytest.approx(500000.0, abs=1e-3)
    assert p.y == pytest.approx(11053.005, abs=1e-2)


def test_matches_snyder_reference_across_texas():
    rng = np.random.RandomState(7)
    for _ in range(200):
        lat = rng.uniform(26.0, 36.0)
        lon = rng.uniform(-106.0, -94.0)
        zone = utm_zone(lon)
        ref_x, ref_y = oracles.snyder_utm(lat, lon, zone)
        p = to_utm(lat, lon)
        assert p.zone == zone
        # Snyder's truncated series is good to ~1 mm at mid latitudes
        assert p.x == pytest.approx(ref_x, abs=5e-3)
        assert p.y == pytest.approx(ref_y, abs=5e-3)


def test_forced_zone_shares_plane_across_boundary():
    # zone 13/14 boundary at -102
    west = to_utm(31.0, -102.4)
    east = to_utm(31.0, -101.6)
    assert west.zone == 13 and east.zone == 14
    forced = to_utm(31.0, -101.6, forced_zone=13)
    assert forced.zone == 13
    assert forced.x > west.x  # east of the western point in the shared plane


def test_local_injectivity():
    rng = np.random.RandomState(3)
    for _ in range(100):
        lat = rng.uniform(25.0, 37.0)
        lon = rng.uniform(-105.0, -95.0)
        a = to_utm(lat, lon, forced_zone=14)
        b = to_utm(lat + 1e-6, lon + 1e-6, forced_zone=14)
        assert (a.x, a.y) != (b.x, b.y)


def test_polar_latitude_rejected():
    with pytest.raises(ProjectionError):
        to_utm(84.0, 0.0)
    with pytest.raises(ProjectionError):
        to_utm(-89.0, 0.0)


# longitudes on both sides of the zone 12/13, 13/14 and 14/15 boundaries
ZONE_EDGE = st.sampled_from([-108.0, -102.0, -96.0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_projection_and_bearings_match_scalar_oracle(data):
    n = data.draw(st.integers(1, 12))
    edge = data.draw(ZONE_EDGE)
    lat1 = np.array(data.draw(st.lists(st.floats(25.0, 37.0), min_size=n, max_size=n)))
    lon1 = edge + np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    offset = st.floats(0.005, 0.5) | st.floats(-0.5, -0.005)
    lat2 = lat1 + np.array(data.draw(st.lists(offset, min_size=n, max_size=n)))
    lon2 = lon1 + np.array(data.draw(st.lists(offset, min_size=n, max_size=n)))

    start = to_utm(lat1, lon1)
    end = to_utm(lat2, lon2, forced_zone=start.zone)
    bearing = conductor_angle(start, end)
    for k in range(n):
        x, y, zone = oracles.scalar_utm(lat1[k], lon1[k])
        assert (start.x[k], start.y[k], start.zone[k]) == (
            pytest.approx(x, abs=1e-6), pytest.approx(y, abs=1e-6), zone)
        x, y, _ = oracles.scalar_utm(lat2[k], lon2[k], forced_zone=zone)
        assert end.zone[k] == zone
        assert (end.x[k], end.y[k]) == (pytest.approx(x, abs=1e-6), pytest.approx(y, abs=1e-6))
        assert abs(bearing[k] - oracles.scalar_bearing(lat1[k], lon1[k], lat2[k], lon2[k])) < 1e-12


def test_array_projection_names_the_value_out_of_range():
    with pytest.raises(ProjectionError, match="latitude 85.0 "):
        to_utm(np.array([31.0, 85.0, 32.0]), np.array([-99.0, -99.0, -99.0]))
    with pytest.raises(ProjectionError, match="longitude 181.0 "):
        to_utm(np.array([31.0, 31.0]), np.array([-99.0, 181.0]))
    with pytest.raises(ProjectionError, match="UTM zone 61 "):
        to_utm(np.array([31.0, 31.0]), np.array([-99.0, -99.0]), forced_zone=np.array([14, 61]))
    with pytest.raises(ValueError, match="coincident"):
        point = to_utm(np.array([31.0, 32.0]), np.array([-99.0, -99.0]))
        conductor_angle(point, to_utm(np.array([31.5, 32.0]), np.array([-99.0, -99.0])))


def test_conductor_angle_quadrants():
    origin = PlanarPoint(0.0, 0.0, 14)
    assert conductor_angle(origin, PlanarPoint(1.0, 1.0, 14)) == pytest.approx(math.pi / 4)
    assert conductor_angle(origin, PlanarPoint(-1.0, 0.0, 14)) == pytest.approx(math.pi)
    assert conductor_angle(origin, PlanarPoint(0.0, -2.0, 14)) == pytest.approx(-math.pi / 2)


def test_conductor_angle_antisymmetry():
    rng = np.random.RandomState(11)
    for _ in range(50):
        a = PlanarPoint(rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5), 14)
        b = PlanarPoint(rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5), 14)
        forward = conductor_angle(a, b)
        backward = conductor_angle(b, a)
        delta = (forward - backward) % (2 * math.pi)
        assert delta == pytest.approx(math.pi, abs=1e-12)


def test_conductor_angle_errors():
    p = PlanarPoint(1.0, 2.0, 14)
    with pytest.raises(ValueError):
        conductor_angle(p, p)
    with pytest.raises(ValueError):
        conductor_angle(p, PlanarPoint(1.0, 2.0, 15))


def test_wind_angle():
    angle, speed = oracles.wind_angle(0.0, 3.0)
    assert angle == pytest.approx(math.pi / 2) and speed == pytest.approx(3.0)
    angle, speed = oracles.wind_angle(-2.0, 0.0)
    assert angle == pytest.approx(math.pi) and speed == pytest.approx(2.0)
    angle, speed = oracles.wind_angle(1.0, 1.0)
    assert angle == pytest.approx(math.pi / 4) and speed == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        oracles.wind_angle(0.0, 0.0)


def test_attack_angle_rotation_invariance():
    # rotating the wind vector and the branch bearing together leaves
    # theta_wind - theta_cond unchanged (mod 2*pi)
    rng = np.random.RandomState(5)
    for _ in range(50):
        u, v = rng.uniform(-5, 5, 2)
        if abs(u) + abs(v) < 1e-6:
            continue
        dx, dy = rng.uniform(-1e4, 1e4, 2)
        rotation = rng.uniform(0, 2 * math.pi)
        cos_r, sin_r = math.cos(rotation), math.sin(rotation)
        theta_w, _ = oracles.wind_angle(u, v)
        theta_c = conductor_angle(PlanarPoint(0, 0, 14), PlanarPoint(dx, dy, 14))
        theta_w2, _ = oracles.wind_angle(cos_r * u - sin_r * v, sin_r * u + cos_r * v)
        theta_c2 = conductor_angle(
            PlanarPoint(0, 0, 14),
            PlanarPoint(cos_r * dx - sin_r * dy, sin_r * dx + cos_r * dy, 14))
        before = (theta_w - theta_c) % (2 * math.pi)
        after = (theta_w2 - theta_c2) % (2 * math.pi)
        assert min(abs(before - after), 2 * math.pi - abs(before - after)) < 1e-9


def test_great_circle_equator_degree():
    # frozen from the law-of-cosines oracle on the same sphere
    assert great_circle_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(111.3195, abs=1e-3)


def test_great_circle_matches_independent_formula():
    rng = np.random.RandomState(13)
    for _ in range(200):
        lat1, lat2 = rng.uniform(25, 37, 2)
        lon1, lon2 = rng.uniform(-106, -94, 2)
        expected = oracles.law_of_cosines_km(lat1, lon1, lat2, lon2)
        assert great_circle_km(lat1, lon1, lat2, lon2) == pytest.approx(expected, abs=1e-6)


def test_great_circle_symmetry_and_zero():
    assert great_circle_km(31.0, -99.0, 32.0, -98.0) == pytest.approx(
        great_circle_km(32.0, -98.0, 31.0, -99.0), abs=1e-12)
    assert great_circle_km(31.0, -99.0, 31.0, -99.0) == 0.0
