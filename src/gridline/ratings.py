"""Weather-dependent line ratings via the multiplicative heat-balance model.

The capacity multiplier factors into a temperature term and a wind term,

    eta = eta_T * eta_v
    eta_T = sqrt((T_C - T_A) / (T_C - T_A_SLR))
    eta_v = sqrt(K_angle / K_angle_SLR) * (v / v_SLR)^0.26
            * max{1, 0.566 * ((rho_f / mu_f) * D * v)^0.04}

measured against the fixed weather assumptions behind the static rating.
AAR applies eta_T alone (no floor: hot hours rate below static); DLR
applies eta_T * max{1, eta_v} so wind never rates a line below its AAR.
Multipliers apply only to lines shorter than the eligibility length;
transformers and long lines keep their static ratings.

The formulas take scalars or numpy arrays. Series and sweeps find the
weather-only terms once per (hour, weather cell), on the cells nearest the
eligible lines, and gather them to the lines that share each cell; K_angle
comes from the wind's unit direction and each line's bearing cosine and
sine, without trigonometry per branch-hour. They then rate every eligible
branch over every present hour in one array pass per parameter set;
``branch_multiplier`` rates one branch-hour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from datetime import datetime

import numpy as np

from .errors import GridlineError, RatingCollapseError
from .geo import conductor_angle, to_utm
from .network import Branch, Network
from .util import format_hour
from .weather import WeatherGrid, WeatherSample, nearest_cell

SLR = "slr"
AAR = "aar"
DLR = "dlr"
RATED_REGIMES = (SLR, AAR, DLR)

KELVIN_OFFSET = 273.15
HOUR_BLOCK = 16  # hours per block of the array passes, so temporaries stay small


def k_angle(phi):
    """Convective wind-angle weighting, IEEE-738 empirical polynomial.

    0.388 for wind along the conductor (phi = 0), 1.0 for perpendicular
    wind (phi = pi/2), the ideal cooling condition.
    """
    return 1.194 - np.cos(phi) + 0.194 * np.cos(2 * phi) + 0.368 * np.sin(2 * phi)


def fold_attack_angle(phi):
    """Reduce a raw wind-minus-conductor angle into [0, pi/2].

    Wind along a line in either direction cools identically, so the angle
    is folded modulo pi and reflected about pi/2. k_angle is monotone on
    the reduced domain, which removes the sign/branch ambiguity of the
    arctangents upstream.
    """
    m = np.fmod(np.abs(phi), np.pi)
    return np.minimum(m, np.pi - m)


@dataclass(frozen=True)
class RatingParams:
    """Assumed-weather constants behind the static rating, plus air
    properties and policy knobs. Temperatures are degrees C, angles radians.

    The defaults are config-overridable operating assumptions in line with
    common utility practice, not authoritative values; any reported study
    should set them explicitly.
    """

    t_conductor: float = 100.0  # max allowable conductor temperature
    t_ambient_slr: float = 40.0  # ambient temperature assumed for the static rating
    v_slr: float = 0.61  # wind speed assumed for the static rating, m/s (2 ft/s)
    phi_slr: float = 0.0  # attack angle assumed for the static rating (worst case)
    air_density: float = 1.029  # rho_f, kg/m^3
    air_viscosity: float = 2.043e-5  # mu_f, kg/(m*s)
    contingency_ratio: float = 1.146  # contingency limit / normal limit
    eligibility_length_km: float = 100.0  # lines at or beyond this stay static
    calm_wind_threshold: float = 0.01  # m/s; below this the wind term is 1
    diameter_fit_a: float = 2.0e-5  # m per A, conductor diameter ~ ampacity fit
    diameter_fit_b: float = 0.006  # m, fit intercept

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite, got {getattr(self, field.name)}")
        if self.air_density <= 0 or self.air_viscosity <= 0:
            raise ValueError("air_density and air_viscosity must be positive")
        if self.t_conductor <= self.t_ambient_slr:
            raise ValueError("t_conductor must exceed t_ambient_slr")
        if self.v_slr <= 0:
            raise ValueError("v_slr must be positive")
        if self.contingency_ratio < 1:
            raise ValueError("contingency_ratio must be >= 1")

    @property
    def k_angle_slr(self) -> float:
        return k_angle(fold_attack_angle(self.phi_slr))


def eta_temperature(t_ambient_k, params: RatingParams):
    """Temperature-only capacity factor (the AAR multiplier).

    Exceeds 1 when ambient is below the static-rating assumption and drops
    below 1 when above it; no floor is applied.
    """
    t_c = params.t_conductor + KELVIN_OFFSET
    t_slr = params.t_ambient_slr + KELVIN_OFFSET
    if np.any(np.greater_equal(t_ambient_k, t_c)):
        raise RatingCollapseError(
            f"ambient {np.max(t_ambient_k):.1f} K at or above conductor limit {t_c:.1f} K")
    return np.sqrt((t_c - t_ambient_k) / (t_c - t_slr))


def eta_wind(speed, phi, diameter, params: RatingParams):
    """Wind-only capacity factor from speed and attack angle.

    Calm wind (below the calm threshold) evaluates to 1, the value under
    the static-rating wind assumptions, instead of letting the v^0.26 power
    law annihilate the rating.
    """
    if np.any(np.less(speed, 0)):
        raise ValueError("wind speed must be nonnegative")
    if np.any(np.less_equal(diameter, 0)):
        raise ValueError("conductor diameter must be positive")
    calm = np.less(speed, params.calm_wind_threshold)
    speed_term = (speed / params.v_slr) ** 0.26
    reynolds = (params.air_density / params.air_viscosity) * diameter * speed
    reynolds_term = np.maximum(1.0, 0.566 * reynolds**0.04)
    term = np.sqrt(k_angle(fold_attack_angle(phi))) * speed_term * reynolds_term
    return np.where(calm, 1.0, term / np.sqrt(params.k_angle_slr))[()]


def k_angle_of_wind(unit_u, unit_v, cos_axis, sin_axis):
    """k_angle of the folded attack angle between a wind of unit direction
    (unit_u, unit_v) and a conductor whose bearing has cosine ``cos_axis``
    and sine ``sin_axis``, found without trigonometry.

    The folded angle's cosine and sine are c = |cos phi| and s = |sin phi|
    of the raw angle phi, whose own cosine and sine are a dot and a cross
    product of the two directions, so
    K = 1.194 - c + 0.194 * (2 c^2 - 1) + 0.736 * s * c.
    """
    c = np.abs(unit_u * cos_axis + unit_v * sin_axis)
    s = np.abs(unit_v * cos_axis - unit_u * sin_axis)
    return 1.194 - c + 0.194 * (2 * c * c - 1) + 0.736 * s * c


def estimate_diameter(branch: Branch, network: Network,
                      params: RatingParams = RatingParams()) -> float:
    """Conductor diameter, explicit when given, else from the linear
    ampacity-to-diameter fit with ampacity backed out of the MVA rating at
    the from-bus voltage."""
    if branch.diameter_m is not None:
        return branch.diameter_m
    kv = network.base_voltage[network.bus_index[branch.from_bus]]
    ampacity = branch.static_rating * 1e3 / (math.sqrt(3.0) * kv)
    if ampacity <= 0:
        raise GridlineError(f"branch {branch.id}: nonpositive ampacity {ampacity}")
    return params.diameter_fit_a * ampacity + params.diameter_fit_b


def branch_eligible(branch: Branch, params: RatingParams) -> bool:
    return branch.kind == "line" and branch.length_km < params.eligibility_length_km


def eligible_positions(network: Network, params: RatingParams) -> np.ndarray:
    """Positions of the branches ``branch_eligible`` passes, on arrays."""
    return np.flatnonzero(network.is_line
                          & (network.length_km < params.eligibility_length_km))


def line_diameters(network: Network, positions: np.ndarray,
                   params: RatingParams) -> np.ndarray:
    """``estimate_diameter`` of the branches at ``positions``, on arrays: the
    same operations in the same order, so the same bits. A non-positive
    ampacity names the first branch that has one."""
    diameter = network.diameter_m[positions]
    fitted = np.isnan(diameter)
    at = np.asarray(positions, dtype=int)[fitted]
    kv = network.base_voltage[network.branch_from[at]]
    ampacity = network.static_rating[at] * 1e3 / (math.sqrt(3.0) * kv)
    if np.any(ampacity <= 0):
        first = np.argmax(ampacity <= 0)
        raise GridlineError(f"branch {network.branch_ids[at[first]]}: nonpositive ampacity "
                            f"{ampacity[first]}")
    diameter[fitted] = params.diameter_fit_a * ampacity + params.diameter_fit_b
    return diameter


def branch_multiplier(weather_sample: WeatherSample | None, branch: Branch,
                      regime: str, params: RatingParams, diameter: float,
                      axis_angle: float | None = None) -> float:
    """Capacity multiplier for one branch-hour under a rating regime.

    Ineligible branches and hours with no weather data stay at 1 (the
    static rating). ``axis_angle`` is the conductor bearing, required for
    DLR unless the wind is calm.
    """
    if regime not in RATED_REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == SLR or weather_sample is None or not branch_eligible(branch, params):
        return 1.0
    s = weather_sample
    calm = math.hypot(s.wind_u, s.wind_v) < params.calm_wind_threshold
    if regime == DLR and axis_angle is None and not calm:
        raise ValueError("axis_angle required for DLR with non-calm wind")
    eta_t = eta_temperature(s.ambient_temp, params)
    if regime == AAR:
        return float(eta_t)
    attack = np.arctan2(s.wind_v, s.wind_u) - (0.0 if axis_angle is None else axis_angle)
    return float(eta_t * np.maximum(1.0, eta_wind(np.hypot(s.wind_u, s.wind_v), attack,
                                                  diameter, params)))


@dataclass(frozen=True)
class RatingSeries:
    """Per-branch, per-hour flow limits for one regime."""

    regime: str
    hours: tuple[datetime, ...]
    branch_ids: tuple[int, ...]
    multiplier: np.ndarray  # (H, L)
    normal_limit: np.ndarray  # (H, L), MVA
    contingency_limit: np.ndarray  # (H, L), MVA


def _line_rater(network: Network, weather: WeatherGrid, regime: str, params: RatingParams,
                positions: np.ndarray):
    """Positions of the eligible branches, and ``rate(params)``: their
    multipliers over the weather hour ``positions``, (hours, lines), written
    into one array that the next call overwrites.

    The weather-only terms are found per (hour, cell) on the distinct cells
    nearest the lines, then gathered to the lines, which may share a cell:
    the ambient temperature, kept for every hour, and for DLR the wind
    speed, calm flag, speed term and unit wind direction, one block of
    hours at a time. The DLR wind term is found here once for every hour
    and line. Its K_angle comes from the wind direction and the cosine and
    sine of each line's bearing (``k_angle_of_wind``). ``rate`` finds eta_T
    per (hour, cell). Its params may differ from these only in T_C, T_A_SLR
    and phi_SLR."""
    index = eligible_positions(network, params)
    lat, lon = network.latitude, network.longitude
    a, b = network.branch_from[index], network.branch_to[index]
    cells, line_cell = np.unique(
        nearest_cell(weather, (lat[a] + lat[b]) / 2.0, (lon[a] + lon[b]) / 2.0),
        return_inverse=True)
    ambient = weather.temperature[np.ix_(positions, cells)]  # (hours, cells)
    shape = (len(positions), len(index))
    wind = None
    if regime == DLR:  # bearings in each from-bus zone, so both endpoints share a plane
        start = to_utm(lat[a], lon[a])
        end = to_utm(lat[b], lon[b], forced_zone=start.zone)
        flat = (start.x == end.x) & (start.y == end.y)
        if flat.any():
            raise GridlineError(f"branch {network.branch_ids[index[np.argmax(flat)]]}: DLR "
                                "needs a conductor bearing, but the line has zero length")
        axis = conductor_angle(start, end)
        cos_axis, sin_axis = np.cos(axis), np.sin(axis)
        diameter = line_diameters(network, index, params)
        if np.any(diameter <= 0):
            thin = np.argmax(diameter <= 0)
            raise GridlineError(
                f"branch {network.branch_ids[index[thin]]}: fitted conductor diameter "
                f"{diameter[thin]} m is not positive (diameter_fit_a {params.diameter_fit_a}, "
                f"diameter_fit_b {params.diameter_fit_b})")
        reynolds_per_speed = (params.air_density / params.air_viscosity) * diameter
        wind = np.empty(shape)
        for rows in _blocks(len(positions)):
            u, v = (w[np.ix_(positions[rows], cells)] for w in (weather.wind_u, weather.wind_v))
            speed = np.hypot(u, v)
            # a calm cell's speed term is 0, which zeroes its wind term, as
            # does zero wind under a non-positive calm threshold; zero wind
            # is divided by 1, so its direction (0, 0) gives a finite K_angle
            speed_term = np.where(speed < params.calm_wind_threshold, 0.0,
                                  (speed / params.v_slr) ** 0.26)
            divisor = np.where(speed > 0, speed, 1.0)
            unit_u, unit_v = u / divisor, v / divisor
            term = np.sqrt(k_angle_of_wind(unit_u[:, line_cell], unit_v[:, line_cell],
                                           cos_axis, sin_axis), out=wind[rows])
            term *= speed_term[:, line_cell]
            reynolds = reynolds_per_speed * speed[:, line_cell]
            term *= np.maximum(1.0, 0.566 * reynolds**0.04)
    out = np.empty(shape)

    def collapse(rows: slice, params: RatingParams):
        """Raise the collapse of the first hour in ``rows`` that has one,
        naming its hottest line and the hour."""
        for k in range(*rows.indices(len(positions))):
            try:
                eta_temperature(ambient[k], params)
            except RatingCollapseError as exc:
                hottest = network.branch_ids[index[np.argmax(ambient[k, line_cell])]]
                hour = format_hour(weather.hours[positions[k]])
                raise RatingCollapseError(f"branch {hottest} at {hour}: {exc}") from None

    def rate(params: RatingParams) -> np.ndarray:
        root_slr = np.sqrt(params.k_angle_slr)
        for rows in _blocks(len(positions)):
            try:
                eta_t = eta_temperature(ambient[rows], params)[:, line_cell]
            except RatingCollapseError:
                collapse(rows, params)
            if wind is None:
                out[rows] = eta_t
            else:
                block = np.divide(wind[rows], root_slr, out=out[rows])
                np.multiply(eta_t, np.maximum(1.0, block, out=block), out=block)
        return out
    return index, rate


def _blocks(n: int):
    return (slice(start, start + HOUR_BLOCK) for start in range(0, n, HOUR_BLOCK))


def build_rating_series(network: Network, weather: WeatherGrid | None,
                        hours: list[datetime], regime: str,
                        params: RatingParams) -> RatingSeries:
    """Assemble normal and contingency limits for every branch and hour.

    SLR needs no weather. For AAR/DLR every requested hour must fall inside
    the weather range; hours flagged absent fall back to multiplier 1.
    """
    if regime not in RATED_REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime != SLR and weather is None:
        raise GridlineError(f"regime {regime} requires weather data")
    multiplier = np.ones((len(hours), network.n_branches))
    if regime != SLR:
        pos = np.array([weather.hour_pos(hour) for hour in hours], dtype=int)  # raises if outside
        rows = np.flatnonzero(weather.present[pos])  # absent hours keep the static rating
        index, rate = _line_rater(network, weather, regime, params, pos[rows])
        multiplier[np.ix_(rows, index)] = rate(params)
    normal = network.static_rating[None, :] * multiplier
    return RatingSeries(regime, tuple(hours), network.branch_ids,
                        multiplier, normal, params.contingency_ratio * normal)


def sweep_grid(base: RatingParams, t_conductor_values: list[float],
               phi_slr_values: list[float]) -> list[RatingParams]:
    """``base`` at each (conductor temperature, assumed SLR attack angle)
    pair, T_C outermost. A value repeated on either axis is refused."""
    for name, values in (("t_conductor", t_conductor_values), ("phi_slr", phi_slr_values)):
        first = {}
        for k, value in enumerate(values):
            if first.setdefault(value, k) != k:
                raise ValueError(f"{name} values must not repeat: value {k + 1} repeats "
                                 f"value {first[value] + 1}")
    return [replace(base, t_conductor=t_c, phi_slr=phi)
            for t_c in t_conductor_values for phi in phi_slr_values]


def sweep_parameters(network: Network, weather: WeatherGrid, hours: list[datetime],
                     t_conductor_values: list[float], phi_slr_values: list[float],
                     base: RatingParams = RatingParams()) -> list[tuple[float, float, float]]:
    """Mean DLR multiplier over eligible branches and present hours for each
    (conductor temperature, assumed SLR attack angle) pair.

    Branch data, present hours and the weather-only terms are found once;
    each pair is one array pass of ``build_rating_series``'s rater over
    them. Returns (t_conductor, phi_slr, mean multiplier) rows in sweep order.
    """
    if not hours or not t_conductor_values or not phi_slr_values:
        raise ValueError("parameter sweep needs at least one hour and one value per axis")
    grid = sweep_grid(base, t_conductor_values, phi_slr_values)
    present = [pos for pos in map(weather.hour_pos, hours) if weather.present[pos]]
    index, rate = _line_rater(network, weather, DLR, base, np.array(present, dtype=int))
    if not present:
        raise GridlineError(f"no weather for any hour of {format_hour(hours[0])}.."
                            f"{format_hour(hours[-1])}; the sweep has nothing to average")
    if not index.size:
        raise GridlineError("no line shorter than "
                            f"{base.eligibility_length_km} km is rated by weather; "
                            "the sweep has nothing to average")
    return [(params.t_conductor, params.phi_slr, float(rate(params).mean()))
            for params in grid]
