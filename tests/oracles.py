"""Independent reference implementations used only to check the package.

Each oracle is deliberately written from a different formulation than the
code under test: DC power flow solves the nodal system directly instead of
using distribution factors, UTM uses the classic Snyder series instead of
the Krueger expansion, distances use the spherical law of cosines instead
of the haversine, the SC-DCOPF oracle enumerates every contingency row
up front instead of screening, LPs go through scipy's public
``linprog`` instead of the direct HiGHS calls, and CSV cells are formatted
one value at a time instead of as rendered columns.
"""

import csv
import math

import numpy as np

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
