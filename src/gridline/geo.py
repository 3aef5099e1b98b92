"""Coordinate projection and angle geometry.

Branch bearings are measured on a planar UTM projection so that a wind
vector (given in east/north components) and a conductor axis live in the
same frame; their difference is the attack angle that drives convective
cooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError

# WGS-84 ellipsoid
_A = 6378137.0
_F = 1 / 298.257223563
_K0 = 0.9996
_FALSE_EASTING = 500_000.0

# Haversine sphere radius, km. The equatorial radius keeps equatorial
# geodesics exact; the <0.7% meridional overestimate is immaterial at the
# 100 km eligibility scale this feeds.
EARTH_RADIUS_KM = 6378.137


@dataclass(frozen=True)
class PlanarPoint:
    """UTM easting/northing in metres, scalars or arrays of one shape.
    Northing is signed from the equator (no 10,000 km false northing) so
    planar angle geometry stays continuous across the equator."""

    x: float | np.ndarray
    y: float | np.ndarray
    zone: int | np.ndarray


def utm_zone(longitude):
    zone = np.floor((np.asarray(longitude, dtype=float) + 180.0) / 6.0).astype(int) + 1
    return np.clip(zone, 1, 60)[()]


def to_utm(latitude, longitude, forced_zone=None) -> PlanarPoint:
    """Project WGS-84 coordinates to UTM, over scalars or arrays.

    ``forced_zone`` projects into that zone's plane even off-zone, which is
    needed so both endpoints of a branch straddling a zone boundary share a
    plane. Uses the 6th-order Krueger series (millimetre accuracy within a
    zone, still well-conditioned a few degrees outside it).
    """
    latitude = np.asarray(latitude, dtype=float)
    longitude = np.asarray(longitude, dtype=float)
    bad = latitude[~(np.abs(latitude) < 84.0)]
    if bad.size:
        raise ProjectionError(f"latitude {bad[0]} outside UTM domain (|lat| < 84)")
    bad = longitude[~((-180.0 <= longitude) & (longitude <= 180.0))]
    if bad.size:
        raise ProjectionError(f"longitude {bad[0]} out of range")
    zone = np.asarray(utm_zone(longitude) if forced_zone is None else forced_zone)
    bad = zone[(zone < 1) | (zone > 60)]
    if bad.size:
        raise ProjectionError(f"UTM zone {bad[0]} out of range 1..60")
    central_meridian = np.radians((zone - 1) * 6 - 180 + 3)

    lat = np.radians(latitude)
    lon = np.radians(longitude) - central_meridian

    ecc = np.sqrt(_F * (2 - _F))
    n = _F / (2 - _F)
    n2, n3 = n * n, n**3
    n4, n5, n6 = n**4, n**5, n**6

    # numpy's SIMD float64 tan and arctan2 can be an ulp off the correctly
    # rounded value, which is 0.7 nm of northing and ~1e-12 rad of bearing
    # on a short line; taking both in extended precision and rounding back
    # keeps tau and xi' correctly rounded.
    tau = np.tan(lat.astype(np.longdouble)).astype(float)
    sigma = np.sinh(ecc * np.arctanh(ecc * tau / np.sqrt(1 + tau * tau)))
    tau_p = tau * np.sqrt(1 + sigma * sigma) - sigma * np.sqrt(1 + tau * tau)

    xi_p = np.arctan2(tau_p.astype(np.longdouble), np.cos(lon)).astype(float)
    eta_p = np.arcsinh(np.sin(lon) / np.hypot(tau_p, np.cos(lon)))

    rect_radius = _A / (1 + n) * (1 + n2 / 4 + n4 / 64 + n6 / 256)
    alpha = (
        n / 2 - 2 * n2 / 3 + 5 * n3 / 16 + 41 * n4 / 180 - 127 * n5 / 288 + 7891 * n6 / 37800,
        13 * n2 / 48 - 3 * n3 / 5 + 557 * n4 / 1440 + 281 * n5 / 630 - 1983433 * n6 / 1935360,
        61 * n3 / 240 - 103 * n4 / 140 + 15061 * n5 / 26880 + 167603 * n6 / 181440,
        49561 * n4 / 161280 - 179 * n5 / 168 + 6601661 * n6 / 7257600,
        34729 * n5 / 80640 - 3418889 * n6 / 1995840,
        212378941 * n6 / 319334400,
    )
    xi = xi_p
    eta = eta_p
    for j, a_j in enumerate(alpha, start=1):
        xi = xi + a_j * np.sin(2 * j * xi_p) * np.cosh(2 * j * eta_p)
        eta = eta + a_j * np.cos(2 * j * xi_p) * np.sinh(2 * j * eta_p)

    easting = _K0 * rect_radius * eta + _FALSE_EASTING
    northing = _K0 * rect_radius * xi
    return PlanarPoint(easting[()], northing[()], zone[()])


def conductor_angle(start: PlanarPoint, end: PlanarPoint):
    """Bearing of the conductor axis, four-quadrant, in (-pi, pi], over
    scalar or array points."""
    if np.any(np.not_equal(start.zone, end.zone)):
        raise ValueError(f"endpoints in different UTM zones ({start.zone}, {end.zone})")
    dx = np.subtract(end.x, start.x)
    dy = np.subtract(end.y, start.y)
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise ValueError("coincident endpoints have no bearing")
    angle = np.arctan2(dy, dx)
    return np.where(angle == -np.pi, np.pi, angle)[()]


def great_circle_km(lat1, lon1, lat2, lon2):
    """Haversine great-circle distance in km, broadcast over numpy arrays."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(np.subtract(lon2, lon1))
    h = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
