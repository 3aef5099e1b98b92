"""In-memory construction of small networks for unit tests."""

import numpy as np
from hypothesis import strategies as st

from gridline.dispatch import HourData, base_flow_rows, build_problem, solve_problem
from gridline.network import Branch, Bus, Generator, Network
from gridline.util import parse_hour

HOUR = parse_hour("2016-07-01T00:00:00Z")


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


def record_numpy_reads(monkeypatch):
    """A list that gets, for each ``np.loadtxt`` call, whether numpy read
    the file: False where it refused it, so the row loop read it."""
    reads = []
    loadtxt = np.loadtxt

    def recording(*args, **kwargs):
        reads.append(False)
        table = loadtxt(*args, **kwargs)
        reads[-1] = True
        return table

    monkeypatch.setattr(np, "loadtxt", recording)
    return reads


@st.composite
def meshed_hours(draw):
    """A ring of 4-8 buses with chords, one parallel circuit and a radial
    spur bus; 2-4 single-segment units at distinct prices; demand within
    capacity; normal limits tight enough to bind."""
    n = draw(st.integers(4, 8))
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                           .filter(lambda e: e[0] != e[1]), max_size=3))
    edges = ring + chords + [ring[draw(st.integers(0, n - 1))],
                             (draw(st.integers(1, n)), n + 1)]
    reactances = draw(st.lists(st.floats(0.05, 0.5), min_size=len(edges),
                               max_size=len(edges)))
    n_gen = draw(st.integers(2, 4))
    gen_buses = draw(st.lists(st.integers(1, n), min_size=n_gen, max_size=n_gen))
    net = make_network(
        buses=[(i, 31.0 + 0.1 * i, -99.0 + 0.05 * (i % 3), 115.0) for i in range(1, n + 2)],
        branches=[(k + 1, f, t, x, 100.0) for k, ((f, t), x) in enumerate(zip(edges, reactances))],
        gens=[(g + 1, bus, "natural_gas", 0.0, 150.0,
               [(150.0, 10.0 * (g + 1) + draw(st.floats(0.0, 5.0)))])
              for g, bus in enumerate(gen_buses)])
    demand = np.array(draw(st.lists(st.floats(0.0, 60.0), min_size=n + 1, max_size=n + 1)))
    demand *= min(1.0, 0.7 * 150.0 * n_gen / max(demand.sum(), 1e-9))
    normal = np.array(draw(st.lists(st.floats(15.0, 120.0), min_size=len(edges),
                                    max_size=len(edges))))
    contingency = normal * draw(st.floats(1.0, 1.3))
    data = HourData(HOUR, demand, np.zeros(n_gen), np.full(n_gen, 150.0))
    return net, data, normal, contingency
