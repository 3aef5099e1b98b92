"""Independent reference implementations used only to check the package.

Each oracle is deliberately written from a different formulation than
the code under test: DC power flow solves the nodal system directly
instead of using distribution factors, the PTDF comes from a dense
incidence matrix and numpy's dense inverse of the reduced Bbus instead
of a Cholesky inverse bordered at the slack and a sparse incidence
product, UTM uses the classic Snyder series instead of the Krueger
expansion (and the Krueger series one point at a time with ``math``
instead of on arrays), distances use the spherical law of cosines
instead of the haversine, the SC-DCOPF oracle enumerates every
contingency row up front instead of screening, LPs go through scipy's
public ``linprog`` instead of the direct HiGHS calls, CSV cells are
formatted one value at a time through ``csv.writer`` instead of as
rendered columns and reused line tails, the hourly inputs are read one
``csv.DictReader`` row at a time into dicts instead of in one pass into
arrays checked by column, and rating series and sweeps evaluate the
heat-balance formulas one hour at a time from the raw weather at each
line, with K_angle through the attack angle's trigonometry, instead of
from weather-only terms computed once per (hour, cell) and K_angle from
the wind components, bus.csv and branch.csv are read one dict row at
a time into ``Bus`` and ``Branch`` objects instead of by column into
arrays checked as masks, and a run's summary and congestion tables are
summed one (hour, generator) and one binding row at a time from per-hour
values instead of with masked and grouped array sums over the chunk
records. The generator cost curve and the case writer that only tests
use live here too.
"""

import csv
import io
import math
from datetime import timezone
from pathlib import Path

import numpy as np

from gridline.errors import CaseError, RatingCollapseError, WeatherError
from gridline.geo import conductor_angle, great_circle_km, to_utm
from gridline.network import BRANCH_KINDS, VARIABLE_FUELS, Branch, Bus, HourlySeries
from gridline.pipeline import (HOUR_ERROR, HOUR_INFEASIBLE, HOUR_OK, HOUR_UNCONVERGED,
                               UNCONGESTED, RegimeSummary, RunSummary, emissions)
from gridline.ratings import (AAR, DLR, branch_eligible, estimate_diameter, eta_temperature,
                              fold_attack_angle, k_angle, sweep_grid)
from gridline.util import HOUR, format_hour, parse_hour, render_floats, write_csv
from gridline.weather import MIN_PLAUSIBLE_TEMP_K, WeatherGrid, nearest_cell

EARTH_RADIUS_KM = 6378.137  # same sphere convention as the package


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, c)))


def brute_force_nearest(cells, lat, lon):
    """Exhaustive scan; first index attains the minimum on ties."""
    best, best_d = 0, float("inf")
    for i, (clat, clon) in enumerate(cells):
        d = law_of_cosines_km(lat, lon, clat, clon)
        if d < best_d:
            best, best_d = i, d
    return best


def snyder_utm(lat_deg, lon_deg, zone):
    """UTM easting/northing per Snyder, Map Projections: A Working Manual
    (USGS 1987), eqs. 3-21 and 8-9..8-13. WGS-84, k0 = 0.9996."""
    a = 6378137.0
    f = 1 / 298.257223563
    k0 = 0.9996
    e2 = f * (2 - f)
    ep2 = e2 / (1 - e2)
    lat = math.radians(lat_deg)
    lon0 = math.radians((zone - 1) * 6 - 180 + 3)
    dlon = math.radians(lon_deg) - lon0

    n_rad = a / math.sqrt(1 - e2 * math.sin(lat) ** 2)
    t = math.tan(lat) ** 2
    c = ep2 * math.cos(lat) ** 2
    big_a = dlon * math.cos(lat)
    m = a * ((1 - e2 / 4 - 3 * e2**2 / 64 - 5 * e2**3 / 256) * lat
             - (3 * e2 / 8 + 3 * e2**2 / 32 + 45 * e2**3 / 1024) * math.sin(2 * lat)
             + (15 * e2**2 / 256 + 45 * e2**3 / 1024) * math.sin(4 * lat)
             - (35 * e2**3 / 3072) * math.sin(6 * lat))
    easting = k0 * n_rad * (big_a + (1 - t + c) * big_a**3 / 6
                            + (5 - 18 * t + t**2 + 72 * c - 58 * ep2) * big_a**5 / 120) + 500000.0
    northing = k0 * (m + n_rad * math.tan(lat) * (big_a**2 / 2
                     + (5 - t + 9 * c + 4 * c**2) * big_a**4 / 24
                     + (61 - 58 * t + t**2 + 600 * c - 330 * ep2) * big_a**6 / 720))
    return easting, northing


def scalar_utm(latitude, longitude, forced_zone=None):
    """(easting, northing, zone) by the same 6th-order Krueger series as
    ``geo.to_utm``, one point at a time with ``math``: the scalar form the
    array projection replaced. Out-of-domain input raises ValueError."""
    if not abs(latitude) < 84.0 or not -180.0 <= longitude <= 180.0:
        raise ValueError(f"({latitude}, {longitude}) outside the UTM domain")
    zone = forced_zone if forced_zone is not None else min(
        max(int(math.floor((longitude + 180.0) / 6.0)) + 1, 1), 60)
    central_meridian = math.radians((zone - 1) * 6 - 180 + 3)
    lat = math.radians(latitude)
    lon = math.radians(longitude) - central_meridian

    f = 1 / 298.257223563
    ecc = math.sqrt(f * (2 - f))
    n = f / (2 - f)
    n2, n3, n4, n5, n6 = n**2, n**3, n**4, n**5, n**6

    tau = math.tan(lat)
    sigma = math.sinh(ecc * math.atanh(ecc * tau / math.sqrt(1 + tau * tau)))
    tau_p = tau * math.sqrt(1 + sigma * sigma) - sigma * math.sqrt(1 + tau * tau)
    xi_p = math.atan2(tau_p, math.cos(lon))
    eta_p = math.asinh(math.sin(lon) / math.hypot(tau_p, math.cos(lon)))

    rect_radius = 6378137.0 / (1 + n) * (1 + n2 / 4 + n4 / 64 + n6 / 256)
    alpha = (
        n / 2 - 2 * n2 / 3 + 5 * n3 / 16 + 41 * n4 / 180 - 127 * n5 / 288 + 7891 * n6 / 37800,
        13 * n2 / 48 - 3 * n3 / 5 + 557 * n4 / 1440 + 281 * n5 / 630 - 1983433 * n6 / 1935360,
        61 * n3 / 240 - 103 * n4 / 140 + 15061 * n5 / 26880 + 167603 * n6 / 181440,
        49561 * n4 / 161280 - 179 * n5 / 168 + 6601661 * n6 / 7257600,
        34729 * n5 / 80640 - 3418889 * n6 / 1995840,
        212378941 * n6 / 319334400,
    )
    xi, eta = xi_p, eta_p
    for j, a_j in enumerate(alpha, start=1):
        xi += a_j * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += a_j * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)
    return 0.9996 * rect_radius * eta + 500000.0, 0.9996 * rect_radius * xi, zone


def scalar_bearing(lat1, lon1, lat2, lon2):
    """Conductor bearing in (-pi, pi] of one line, both endpoints projected
    into the from-end's UTM zone with ``scalar_utm``."""
    x1, y1, zone = scalar_utm(lat1, lon1)
    x2, y2, _ = scalar_utm(lat2, lon2, forced_zone=zone)
    if x1 == x2 and y1 == y2:
        raise ValueError("coincident endpoints have no bearing")
    angle = math.atan2(y2 - y1, x2 - x1)
    return math.pi if angle == -math.pi else angle


def dc_power_flow(network, injections, skip_branch=None):
    """Solve B theta = P directly and return branch flows.

    ``skip_branch`` removes one branch (remove-and-resolve contingency
    oracle). Returns None if the removal disconnects the network.
    """
    n = network.n_buses
    b_bus = np.zeros((n, n))
    susceptance = {}
    for l in range(network.n_branches):
        if l == skip_branch:
            continue
        i, j = int(network.branch_from[l]), int(network.branch_to[l])
        b = 1.0 / network.reactance[l]
        susceptance[l] = b
        b_bus[i, i] += b
        b_bus[j, j] += b
        b_bus[i, j] -= b
        b_bus[j, i] -= b

    # connectivity via the surviving edge set
    adjacency = {i: set() for i in range(n)}
    for l in susceptance:
        i, j = int(network.branch_from[l]), int(network.branch_to[l])
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for peer in adjacency[stack.pop()]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    if len(seen) != n:
        return None

    theta = np.zeros(n)
    theta[1:] = np.linalg.solve(b_bus[1:, 1:], injections[1:])
    flows = np.zeros(network.n_branches)
    for l, b in susceptance.items():
        i, j = int(network.branch_from[l]), int(network.branch_to[l])
        flows[l] = b * (theta[i] - theta[j])
    return flows


def dense_ptdf(network, slack_bus):
    """PTDF from a dense (branches x buses) incidence matrix A and the dense
    inverse of the reduced Bbus = A^T diag(1/x) A; the slack column is zero."""
    n, l = network.n_buses, network.n_branches
    incidence = np.zeros((l, n))
    incidence[np.arange(l), network.branch_from] = 1.0
    incidence[np.arange(l), network.branch_to] = -1.0
    weighted = incidence / network.reactance[:, None]  # Bd @ A
    nodal = incidence.T @ weighted
    keep = [i for i in range(n) if i != network.bus_index[slack_bus]]
    ptdf = np.zeros((l, n))
    ptdf[:, keep] = weighted[:, keep] @ np.linalg.inv(nodal[np.ix_(keep, keep)])
    return ptdf


def bridges(network):
    """Branch ids whose removal disconnects the network (handles parallel
    circuits: only the sole remaining path counts)."""
    import networkx as nx

    graph = nx.MultiGraph()
    graph.add_nodes_from(range(network.n_buses))
    for l, branch in enumerate(network.branches):
        graph.add_edge(int(network.branch_from[l]), int(network.branch_to[l]), key=branch.id)
    out = set()
    for l, branch in enumerate(network.branches):
        trimmed = graph.copy()
        trimmed.remove_edge(int(network.branch_from[l]), int(network.branch_to[l]),
                            key=branch.id)
        if not nx.is_connected(trimmed):
            out.add(branch.id)
    return out


def wind_angle(v_x, v_y):
    """Wind direction (four-quadrant, (-pi, pi]) and speed from east/north
    velocity components: the scalar form of the rating path's
    ``np.arctan2`` on wind arrays."""
    if v_x == 0.0 and v_y == 0.0:
        raise ValueError("zero wind vector has no direction; treat as calm")
    angle = math.atan2(v_y, v_x)
    if angle == -math.pi:
        angle = math.pi
    return angle, math.hypot(v_x, v_y)


def eta_temperature_reference(t_ambient_k, t_conductor_c, t_ambient_slr_c):
    numerator = (t_conductor_c + 273.15) - t_ambient_k
    denominator = t_conductor_c - t_ambient_slr_c
    return math.pow(numerator / denominator, 0.5)


def fold_reference(phi):
    m = abs(phi) % math.pi
    return m if m <= math.pi / 2 else math.pi - m


def k_angle_reference(phi):
    return 1.194 - math.cos(phi) + 0.194 * math.cos(2 * phi) + 0.368 * math.sin(2 * phi)


def eta_wind_reference(speed, phi, diameter, v_slr, phi_slr, rho, mu):
    k_ratio = k_angle_reference(fold_reference(phi)) / k_angle_reference(fold_reference(phi_slr))
    base = math.pow(k_ratio, 0.5) * math.pow(speed / v_slr, 0.26)
    reynolds_factor = 0.566 * math.pow(rho * diameter * speed / mu, 0.04)
    return base * (reynolds_factor if reynolds_factor > 1.0 else 1.0)


def _per_hour_rater(network, weather, regime, params):
    """Eligible branch positions, and a function of (weather hour position,
    params) that rates them from that hour's raw weather."""
    index = np.array([l for l, b in enumerate(network.branches)
                      if branch_eligible(b, params)], dtype=int)
    lat, lon = np.array([(b.latitude, b.longitude) for b in network.buses]).T
    a, b = network.branch_from[index], network.branch_to[index]
    cell = nearest_cell(weather, (lat[a] + lat[b]) / 2.0, (lon[a] + lon[b]) / 2.0)
    diameter = np.array([estimate_diameter(network.branches[l], network, params)
                         for l in index])
    start = to_utm(lat[a], lon[a])
    axis = conductor_angle(start, to_utm(lat[b], lon[b], forced_zone=start.zone))

    def rate(pos, params):
        ambient = weather.temperature[pos, cell]
        try:
            eta_t = eta_temperature(ambient, params)
        except RatingCollapseError as exc:
            hottest = network.branches[index[np.argmax(ambient)]]
            raise RatingCollapseError(
                f"branch {hottest.id} at {format_hour(weather.hours[pos])}: {exc}") from None
        if regime == AAR:
            return eta_t
        u, v = weather.wind_u[pos, cell], weather.wind_v[pos, cell]
        speed = np.hypot(u, v)
        angle_term = np.sqrt(k_angle(fold_attack_angle(np.arctan2(v, u) - axis))
                             / params.k_angle_slr)
        speed_term = (speed / params.v_slr) ** 0.26
        reynolds = (params.air_density / params.air_viscosity) * diameter * speed
        reynolds_term = np.maximum(1.0, 0.566 * reynolds**0.04)
        eta_v = np.where(speed < params.calm_wind_threshold, 1.0,
                         angle_term * speed_term * reynolds_term)
        return eta_t * np.maximum(1.0, eta_v)
    return index, rate


def per_hour_multipliers(network, weather, hours, regime, params):
    """AAR or DLR multipliers (hours, branches), rated one hour at a time;
    absent hours and ineligible branches stay at 1."""
    multiplier = np.ones((len(hours), network.n_branches))
    index, rate = _per_hour_rater(network, weather, regime, params)
    for h, hour in enumerate(hours):
        pos = weather.hour_pos(hour)
        if weather.present[pos]:
            multiplier[h, index] = rate(pos, params)
    return multiplier


def per_hour_sweep(network, weather, hours, t_conductor_values, phi_slr_values, base):
    """(t_conductor, phi_slr, mean DLR multiplier over eligible branches and
    present hours) rows of the sweep grid, each rated one hour at a time."""
    index, rate = _per_hour_rater(network, weather, DLR, base)
    present = [pos for pos in map(weather.hour_pos, hours) if weather.present[pos]]
    block = np.empty((len(present), len(index)))
    rows = []
    for params in sweep_grid(base, t_conductor_values, phi_slr_values):
        for row, pos in enumerate(present):
            block[row] = rate(pos, params)
        rows.append((params.t_conductor, params.phi_slr, float(block.mean())))
    return rows


def full_enumeration_scdcopf(network, factors, data, normal_limits,
                             contingency_limits, penalty=2000.0):
    """SC-DCOPF with every (monitored, outaged) row appended up front."""
    from gridline.dispatch import FlowRow, base_flow_rows, build_problem, solve_problem

    rows = base_flow_rows(network, factors.ptdf, normal_limits)
    radial_positions = {network.branch_index[b] for b in factors.radial_branches}
    for c in range(network.n_branches):
        if c in radial_positions:
            continue
        for b in range(network.n_branches):
            if b == c:
                continue
            coefficients = factors.ptdf[b] + factors.lodf[b, c] * factors.ptdf[c]
            rows.append(FlowRow(coefficients, float(contingency_limits[b]), True, b, c))
    problem = build_problem(network, data, rows, penalty)
    return solve_problem(problem, ptdf=factors.ptdf)


def public_linprog(problem):
    """An ``LpProblem`` solved through scipy's public ``linprog`` HiGHS
    interface, which checks, converts and re-stacks the inputs itself."""
    from scipy.optimize import linprog

    return linprog(c=problem.cost, A_ub=problem.a_ub, b_ub=problem.b_ub,
                   A_eq=problem.a_eq, b_eq=problem.b_eq, bounds=problem.bounds,
                   method="highs")


def unique_optimum(problem, result, tol=1e-9):
    """Whether an optimal ``linprog`` result is the LP's only primal-dual
    pair: the active constraints number as many as the variables, are
    linearly independent, and every active inequality or bound carries a
    nonzero multiplier."""
    x = result.x
    n = len(x)
    gradients, multipliers = [], []
    if problem.a_ub is not None:
        a_ub = problem.a_ub.toarray()
        for i, row in enumerate(a_ub):
            if abs(problem.b_ub[i] - row @ x) <= tol * (1.0 + abs(problem.b_ub[i])):
                gradients.append(row)
                multipliers.append(result.ineqlin.marginals[i])
    gradients.extend(problem.a_eq.toarray())
    for j, (low, high) in enumerate(problem.bounds):
        for bound, marginal in ((low, result.lower.marginals[j]),
                                (high, result.upper.marginals[j])):
            if bound is not None and abs(x[j] - bound) <= tol * (1.0 + abs(bound)):
                gradients.append(np.zeros(n))
                gradients[-1][j] = 1.0
                multipliers.append(marginal)
    return (len(gradients) == n and np.linalg.matrix_rank(np.array(gradients)) == n
            and all(abs(m) > tol for m in multipliers))


def per_value_write_csv(path, header, rows):
    """CSV writer that formats each cell itself: ``repr(float(v))`` for
    floats, numpy scalars included, and ``csv``'s own text otherwise."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _per_value_csv_text(rows):
    """``rows`` as ``per_value_write_csv`` writes them, without a header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def per_value_render_hourly(ids, hours):
    """``pipeline.render_hourly`` one cell at a time through ``csv.writer``."""
    return _per_value_csv_text((stamp, i, value) for stamp, values in hours
                               for i, value in zip(ids, values))


def per_value_render_ratings(rating, start, stop):
    """``pipeline.render_ratings`` one cell at a time through ``csv.writer``,
    every hour rendered afresh."""
    for pos in range(start, stop):
        stamp = rating.hours[pos].astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        yield _per_value_csv_text(
            (stamp, branch_id, rating.regime, m, n, c) for branch_id, m, n, c in zip(
                rating.branch_ids, rating.multiplier[pos], rating.normal_limit[pos],
                rating.contingency_limit[pos]))


def per_value_render_trace(rows):
    """``pipeline.render_trace`` one cell at a time through ``csv.writer``."""
    return _per_value_csv_text(rows)


def per_row_congestion_by_branch(binding, branch_ids):
    """``pipeline.congestion_by_branch`` one (hour position, branch position,
    |dual| x row limit) row of ``binding`` at a time."""
    cost, hours_binding = {}, {}
    for hour, monitored, value in binding:
        branch_id = branch_ids[int(monitored)]
        cost[branch_id] = cost.get(branch_id, 0.0) + value
        hours_binding.setdefault(branch_id, set()).add(hour)
    table = [(b, cost[b], len(hours_binding[b])) for b in cost]
    table.sort(key=lambda row: (-row[1], row[0]))
    return table


def per_hour_aggregate(config, network, series, chunks):
    """``pipeline._aggregate`` of the joined ``chunks`` (per regime, its
    chunk records in hour order), from each chunk read back one hour at a
    time: costs, generation and curtailment summed one (hour, generator) at
    a time over the hours ok in every regime."""
    hours = list(series.hours)
    outcomes = {regime: [(code, record.objective[k], record.p_gen[k])
                         for record in records for k, code in enumerate(record.status.tolist())]
                for regime, records in chunks.items()}
    errors = {regime: [message for record in records for message in record.errors]
              for regime, records in chunks.items()}
    binding = {regime: [row for record in records for row in record.binding.tolist()]
               for regime, records in chunks.items()}
    common = [pos for pos in range(len(hours))
              if all(outcomes[r][pos][0] == HOUR_OK for r in chunks)]
    fuels = sorted({g.fuel for g in network.generators})
    summaries, totals = {}, {}
    for regime in chunks:
        total = sum((outcomes[regime][pos][1] for pos in common), 0.0)
        generation = {fuel: 0.0 for fuel in fuels}
        curtailment = {fuel: 0.0 for fuel in VARIABLE_FUELS}
        for pos in common:
            p = outcomes[regime][pos][2]
            for g, gen in enumerate(network.generators):
                generation[gen.fuel] += float(p[g])
                if gen.fuel in curtailment:
                    curtailment[gen.fuel] += float(series.availability[pos, g] - p[g])
        totals[regime] = total

        def flagged(code):
            return [format_hour(hours[pos]) for pos, (c, *_) in enumerate(outcomes[regime])
                    if c == code]

        summaries[regime] = RegimeSummary(
            regime, sum(1 for c, *_ in outcomes[regime] if c == HOUR_OK), total, None,
            generation, curtailment, emissions(generation, config.emission_factors),
            flagged(HOUR_INFEASIBLE), flagged(HOUR_UNCONVERGED), errors[regime])
        assert len(errors[regime]) == len(flagged(HOUR_ERROR))
    if UNCONGESTED in totals:
        for regime, summary in summaries.items():
            summary.congestion_cost = totals[regime] - totals[UNCONGESTED]
    branch_ids = [b.id for b in network.branches]
    tables = {regime: per_row_congestion_by_branch(rows, branch_ids)
              for regime, rows in binding.items()}
    return RunSummary(summaries, hours, [hours[pos] for pos in common], tables)


def _dict_rows(path, required):
    """(row_number, dict) of each data row of a headered CSV."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in required if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        yield from enumerate(reader, start=1)


def _case_rows(directory, name, required):
    path = directory / name
    if not path.exists():
        raise CaseError(f"missing case file {name}", file=name)
    try:
        yield from _dict_rows(path, required)
    except ValueError as exc:
        raise CaseError(str(exc), file=name) from None


def _present(row, key, file, number):
    if row.get(key) is None:  # a cell that a short row lacks
        raise CaseError(f"missing value for '{key}'", file=file, row=number)
    return row[key]


def _row_mw(row, file, number):
    raw = (row.get("mw") or "").strip()
    if raw == "":
        raise CaseError("missing value for 'mw'", file=file, row=number)
    try:
        value = float(raw)
    except ValueError:
        raise CaseError(f"bad number {raw!r} for 'mw'", file=file, row=number) from None
    if not math.isfinite(value):
        raise CaseError(f"non-finite value {raw!r} for 'mw'", file=file, row=number)
    if not value >= 0.0:
        raise CaseError(f"'mw' must be >= 0.0, got {value}", file=file, row=number)
    return value


def _row_timed_table(directory, name, id_column, known_ids):
    """A (time, id, mw) long table row by row -> (sorted hours, {id: {hour: mw}})."""
    values, hours = {}, set()
    for number, row in _case_rows(directory, name, ["time", id_column, "mw"]):
        try:
            hour = parse_hour(_present(row, "time", name, number))
        except ValueError as exc:
            raise CaseError(str(exc), file=name, row=number) from None
        raw = _present(row, id_column, name, number).strip()
        try:
            ident = int(raw)
        except ValueError:
            raise CaseError(f"bad integer {raw!r} for '{id_column}'",
                            file=name, row=number) from None
        if ident not in known_ids:
            raise CaseError(f"unknown {id_column} {ident}", file=name, row=number)
        mw = _row_mw(row, name, number)
        slot = values.setdefault(ident, {})
        if hour in slot:
            raise CaseError(f"duplicate entry for {id_column} {ident} at {row['time']}",
                            file=name, row=number)
        slot[hour] = mw
        hours.add(hour)
    return sorted(hours), values


def _row_float(row, key, file, number, *, minimum=None, strict_min=False, optional=False):
    raw = (row.get(key) or "").strip()
    if raw == "":
        if optional:
            return None
        raise CaseError(f"missing value for '{key}'", file=file, row=number)
    try:
        value = float(raw)
    except ValueError:
        raise CaseError(f"bad number {raw!r} for '{key}'", file=file, row=number) from None
    if not math.isfinite(value):
        raise CaseError(f"non-finite value {raw!r} for '{key}'", file=file, row=number)
    if minimum is not None:
        if strict_min and not value > minimum:
            raise CaseError(f"'{key}' must be > {minimum}, got {value}", file=file, row=number)
        if not strict_min and not value >= minimum:
            raise CaseError(f"'{key}' must be >= {minimum}, got {value}", file=file, row=number)
    return value


def _row_int(row, key, file, number):
    raw = _present(row, key, file, number).strip()
    try:
        return int(raw)
    except ValueError:
        raise CaseError(f"bad integer {raw!r} for '{key}'", file=file, row=number) from None


def row_by_row_buses_and_branches(case_directory):
    """bus.csv and branch.csv as ``network.load_network`` reads them, one
    dict row at a time into ``Bus`` and ``Branch`` objects."""
    directory = Path(case_directory)
    buses = []
    seen_bus = set()
    for number, row in _case_rows(directory, "bus.csv", ["id", "lat", "lon", "base_kv"]):
        bus_id = _row_int(row, "id", "bus.csv", number)
        if bus_id in seen_bus:
            raise CaseError(f"duplicate bus id {bus_id}", file="bus.csv", row=number)
        seen_bus.add(bus_id)
        lat = _row_float(row, "lat", "bus.csv", number)
        lon = _row_float(row, "lon", "bus.csv", number)
        if abs(lat) > 90:
            raise CaseError(f"latitude {lat} out of range", file="bus.csv", row=number)
        if abs(lon) > 180:
            raise CaseError(f"longitude {lon} out of range", file="bus.csv", row=number)
        kv = _row_float(row, "base_kv", "bus.csv", number, minimum=0.0, strict_min=True)
        buses.append(Bus(bus_id, lat, lon, kv))
    if not buses:
        raise CaseError("no buses", file="bus.csv")
    by_id = {b.id: b for b in buses}

    fields = []  # Branch arguments; a blank length becomes the endpoint distance
    seen_branch = set()
    required = ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind"]
    for number, row in _case_rows(directory, "branch.csv", required):
        branch_id = _row_int(row, "id", "branch.csv", number)
        if branch_id in seen_branch:
            raise CaseError(f"duplicate branch id {branch_id}", file="branch.csv", row=number)
        seen_branch.add(branch_id)
        from_bus = _row_int(row, "from_bus", "branch.csv", number)
        to_bus = _row_int(row, "to_bus", "branch.csv", number)
        for end in (from_bus, to_bus):
            if end not in by_id:
                raise CaseError(f"branch {branch_id} references unknown bus {end}",
                                file="branch.csv", row=number)
        if from_bus == to_bus:
            raise CaseError(f"branch {branch_id} is a self-loop", file="branch.csv", row=number)
        reactance = _row_float(row, "reactance_pu", "branch.csv", number,
                               minimum=0.0, strict_min=True)
        rating = _row_float(row, "rating_mva", "branch.csv", number,
                            minimum=0.0, strict_min=True)
        kind = (row.get("kind") or "").strip()
        if kind not in BRANCH_KINDS:
            raise CaseError(f"unknown branch kind {kind!r}", file="branch.csv", row=number)
        length = _row_float(row, "length_km", "branch.csv", number,
                            minimum=0.0, optional=True)
        diameter = _row_float(row, "diameter_m", "branch.csv", number,
                              minimum=0.0, strict_min=True, optional=True)
        fields.append((branch_id, from_bus, to_bus, reactance, rating, kind, length,
                       diameter))
    ends = np.array([(by_id[f[1]].latitude, by_id[f[1]].longitude, by_id[f[2]].latitude,
                      by_id[f[2]].longitude) for f in fields]).reshape(-1, 4)
    distance = great_circle_km(*ends.T).tolist()
    branches = [Branch(*f[:6], km if f[6] is None else f[6], f[7])
                for f, km in zip(fields, distance)]
    return buses, branches


def row_by_row_hourly_series(case_directory, network, strict=True):
    """``network.load_hourly_series`` one dict row at a time, every hour of
    every bus and generator filled in a Python loop."""
    directory = Path(case_directory)
    hours, demand_rows = _row_timed_table(directory, "demand.csv", "bus_id",
                                          set(network.bus_index))
    if not hours:
        raise CaseError("no demand rows", file="demand.csv")
    expected = hours[0]
    for hour in hours:
        if hour != expected:
            raise CaseError(
                f"demand hours not contiguous: expected {format_hour(expected)}, "
                f"found {format_hour(hour)}", file="demand.csv")
        expected += HOUR
    for bus_id, per_hour in demand_rows.items():
        if len(per_hour) != len(hours):
            missing = next(h for h in hours if h not in per_hour)
            raise CaseError(f"bus {bus_id} missing hour {format_hour(missing)}",
                            file="demand.csv")
    demand = np.zeros((len(hours), network.n_buses))
    for bus_id, per_hour in demand_rows.items():
        for h, hour in enumerate(hours):
            demand[h, network.bus_index[bus_id]] = per_hour[hour]

    availability = np.tile(
        np.array([g.p_max_static for g in network.generators]), (len(hours), 1))
    if (directory / "availability.csv").exists():
        _, avail_rows = _row_timed_table(directory, "availability.csv", "gen_id",
                                         set(network.gen_index))
        hour_set = set(hours)
        for gen_id, per_hour in avail_rows.items():
            gen = network.generators[network.gen_index[gen_id]]
            outside = [h for h in per_hour if h not in hour_set]
            if outside:
                raise CaseError(
                    f"gen {gen_id} availability at {format_hour(outside[0])} "
                    "outside the demand hour range", file="availability.csv")
            if len(per_hour) != len(hours):
                missing = next(h for h in hours if h not in per_hour)
                raise CaseError(f"gen {gen_id} missing hour {format_hour(missing)}",
                                file="availability.csv")
            for h, hour in enumerate(hours):
                mw = per_hour[hour]
                if mw > gen.p_max_static:
                    if strict:
                        raise CaseError(
                            f"availability {mw} exceeds p_max {gen.p_max_static} "
                            f"for gen {gen_id} at {format_hour(hour)}",
                            file="availability.csv")
                    mw = gen.p_max_static
                availability[h, network.gen_index[gen_id]] = mw
    return HourlySeries(tuple(hours), demand, availability)


def _weather_cell(row, column):
    if row[column] is None:  # a cell that a short row lacks
        raise ValueError(f"missing value for {column!r}")
    return parse_hour(row[column]) if column == "time" else float(row[column])


def row_by_row_weather(file):
    """``weather.load_weather`` one dict row at a time into per-hour dicts
    of cells, the grid filled in a Python loop over (hour, cell)."""
    path = Path(file)
    if not path.exists():
        raise WeatherError(f"weather file {path} not found")
    columns = ["time", "lat", "lon", "temp_k", "wind_u_ms", "wind_v_ms"]
    per_hour = {}
    try:
        for number, row in _dict_rows(path, columns):
            try:
                hour, *cell, temp, u, v = (_weather_cell(row, column) for column in columns)
            except ValueError as exc:
                raise WeatherError(f"{path.name} row {number}: {exc}") from None
            cell = tuple(cell)
            if not all(math.isfinite(x) for x in (*cell, temp, u, v)):
                raise WeatherError(f"{path.name} row {number}: non-finite value")
            if temp <= MIN_PLAUSIBLE_TEMP_K:
                raise WeatherError(
                    f"{path.name} row {number}: temperature {temp} K implausible")
            slot = per_hour.setdefault(hour, {})
            if cell in slot:
                raise WeatherError(
                    f"{path.name} row {number}: duplicate cell {cell} at {row['time']}")
            slot[cell] = (temp, u, v)
    except ValueError as exc:
        raise WeatherError(f"{path.name}: {exc}") from None
    if not per_hour:
        raise WeatherError(f"{path.name}: no weather rows")

    file_hours = sorted(per_hour)
    cells = sorted(per_hour[file_hours[0]])
    for hour in file_hours:
        if set(per_hour[hour]) != set(cells):
            raise WeatherError(
                f"{path.name}: inconsistent cell set at {format_hour(hour)} "
                f"({len(per_hour[hour])} cells, expected {len(cells)})")
    hours = [file_hours[0] + i * HOUR
             for i in range((file_hours[-1] - file_hours[0]) // HOUR + 1)]
    shape = (len(hours), len(cells))
    temperature, wind_u, wind_v = (np.full(shape, np.nan) for _ in range(3))
    for h, hour in enumerate(hours):
        for c, cell in enumerate(cells):
            if hour in per_hour:
                temperature[h, c], wind_u[h, c], wind_v[h, c] = per_hour[hour][cell]
    return WeatherGrid(cells, hours, [h in per_hour for h in hours], temperature, wind_u,
                       wind_v)


def cost_of(generator, output):
    """Total $/h of ``generator`` at ``output`` MW: its piecewise-linear
    cost curve, segments filled cheapest-first."""
    total = 0.0
    remaining = output
    for cap, price in generator.cost_curve:
        take = min(cap, remaining)
        if take <= 0:
            break
        total += take * price
        remaining -= take
    return total


def write_network(network, out_directory):
    """Write bus/branch/gen tables back out (round-trip counterpart of
    ``network.load_network``; derived branch lengths are materialized)."""
    out = Path(out_directory)
    write_csv(out / "bus.csv", ["id", "lat", "lon", "base_kv"],
              [(b.id, *render_floats((b.latitude, b.longitude, b.base_voltage)))
               for b in network.buses])
    write_csv(out / "branch.csv",
              ["id", "from_bus", "to_bus", "reactance_pu", "rating_mva", "kind",
               "length_km", "diameter_m"],
              [(b.id, b.from_bus, b.to_bus, *render_floats((b.reactance, b.static_rating)),
                b.kind, repr(float(b.length_km)),
                "" if b.diameter_m is None else repr(float(b.diameter_m)))
               for b in network.branches])
    max_segments = max(len(g.cost_curve) for g in network.generators)
    header = ["id", "bus", "fuel", "p_min_mw", "p_max_mw"]
    for s in range(1, max_segments + 1):
        header += [f"seg{s}_mw", f"seg{s}_cost"]
    rows = []
    for g in network.generators:
        row = [g.id, g.bus, g.fuel, *render_floats((g.p_min, g.p_max_static))]
        for segment in g.cost_curve:
            row += render_floats(segment)
        row += [""] * (len(header) - len(row))
        rows.append(row)
    write_csv(out / "gen.csv", header, rows)
