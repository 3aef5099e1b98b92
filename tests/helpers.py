"""In-memory construction of small networks for unit tests."""

from gridline.dispatch import base_flow_rows, build_problem, solve_problem
from gridline.network import Branch, Bus, Generator, Network


def solve_base(net, factors, data, limits):
    """Cost-minimal dispatch under hard two-sided PTDF rows on every branch:
    the explicit-row reference path."""
    rows = base_flow_rows(net, factors.ptdf, limits)
    return solve_problem(build_problem(net, data, rows), ptdf=factors.ptdf)


def make_network(buses, branches, gens):
    """buses: (id, lat, lon, kv); branches: (id, from, to, x, rating[, kind,
    length_km, diameter]); gens: (id, bus, fuel, p_min, p_max, segments)."""
    bus_objs = [Bus(*b) for b in buses]
    by_id = {b.id: b for b in bus_objs}
    branch_objs = []
    for spec in branches:
        bid, f, t, x, rating = spec[:5]
        kind = spec[5] if len(spec) > 5 else "line"
        length = spec[6] if len(spec) > 6 else None
        diameter = spec[7] if len(spec) > 7 else None
        if length is None:
            from gridline.geo import great_circle_km
            a, b = by_id[f], by_id[t]
            length = great_circle_km(a.latitude, a.longitude, b.latitude, b.longitude)
        branch_objs.append(Branch(bid, f, t, x, rating, kind, length, diameter))
    gen_objs = [Generator(g[0], g[1], g[2], g[3], g[4], tuple(g[5])) for g in gens]
    return Network(bus_objs, branch_objs, gen_objs)


def triangle_network(rating=60.0):
    """Equal-reactance 3-bus triangle: cheap gas at bus 1, dear gas at bus 3."""
    return make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.25, -99.25, 115.0), (3, 31.3, -98.8, 115.0)],
        branches=[(1, 1, 2, 0.1, rating), (2, 2, 3, 0.1, rating), (3, 1, 3, 0.1, rating)],
        gens=[(1, 1, "natural_gas", 0.0, 200.0, [(100.0, 12.0), (100.0, 18.0)]),
              (2, 3, "natural_gas", 0.0, 150.0, [(150.0, 35.0)])],
    )


def two_bus_network(line_limit=100.0, cheap=10.0, dear=30.0):
    """One line, cheap unit at bus 1, dear unit at bus 2."""
    return make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0)],
        branches=[(1, 1, 2, 0.05, line_limit)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, cheap)]),
              (2, 2, "natural_gas", 0.0, 100.0, [(100.0, dear)])],
    )
