import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridline.errors import NetworkStructureError
from gridline.factors import build_factors, compute_ptdf
from gridline.scopf import contingency_row

import oracles
from helpers import make_network, meshed_hours, triangle_network, two_bus_network


def balanced_injection(n, rng):
    x = rng.uniform(-1.0, 1.0, n)
    return x - x.mean()


def test_two_bus_ptdf_and_radial():
    net = two_bus_network()
    ptdf = compute_ptdf(net, slack_bus=2)
    assert ptdf[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    factors = build_factors(net, slack_bus=2)
    assert factors.radial_branches == {1}
    assert np.isnan(factors.lodf[0, 0])


def test_triangle_split():
    # equal reactances: injection at bus 1 toward slack bus 3 goes 2/3 on the
    # direct line and 1/3 over the two-hop path (hand-solved DC flow)
    net = triangle_network()
    ptdf = compute_ptdf(net, slack_bus=3)
    inject_bus1 = ptdf[:, 0]
    assert inject_bus1[net.branch_index[3]] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert inject_bus1[net.branch_index[1]] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert inject_bus1[net.branch_index[2]] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_ptdf_flows_match_dc_power_flow(networks, factors_map):
    rng = np.random.RandomState(17)
    for name, net in networks.items():
        injections = balanced_injection(net.n_buses, rng) * 100.0
        flows = factors_map[name].ptdf @ injections
        expected = oracles.dc_power_flow(net, injections)
        np.testing.assert_allclose(flows, expected, atol=1e-9)


def test_ptdf_slack_invariance(networks):
    rng = np.random.RandomState(19)
    net = networks["case30"]
    injections = balanced_injection(net.n_buses, rng) * 100.0
    slacks = [net.buses[0].id, net.buses[10].id, net.buses[25].id]
    flows = [compute_ptdf(net, s) @ injections for s in slacks]
    np.testing.assert_allclose(flows[0], flows[1], atol=1e-9)
    np.testing.assert_allclose(flows[0], flows[2], atol=1e-9)


def test_slack_column_zero_and_diagonal(networks, factors_map):
    for name, net in networks.items():
        factors = factors_map[name]
        slack_pos = net.bus_index[factors.slack_bus]
        assert np.all(factors.ptdf[:, slack_pos] == 0.0)
        radial_pos = {net.branch_index[b] for b in factors.radial_branches}
        for l in range(net.n_branches):
            if l in radial_pos:
                assert np.isnan(factors.lodf[l, l])
            else:
                assert factors.lodf[l, l] == -1.0
                assert np.all(np.isfinite(factors.lodf[:, l]))


def test_lodf_matches_remove_and_resolve(networks, factors_map):
    rng = np.random.RandomState(23)
    for name, net in networks.items():
        factors = factors_map[name]
        injections = balanced_injection(net.n_buses, rng) * 100.0
        base = factors.ptdf @ injections
        radial_pos = {net.branch_index[b] for b in factors.radial_branches}
        scale = max(1.0, np.abs(base).max())
        for c in range(net.n_branches):
            if c in radial_pos:
                assert oracles.dc_power_flow(net, injections, skip_branch=c) is None
                continue
            post = base + factors.lodf[:, c] * base[c]
            expected = oracles.dc_power_flow(net, injections, skip_branch=c)
            keep = np.arange(net.n_branches) != c
            np.testing.assert_allclose(post[keep], expected[keep],
                                       rtol=1e-8, atol=1e-8 * scale)


def test_sparse_ptdf_matches_dense_oracle(networks, factors_map):
    # the slack at the first, a middle and the last bus position, and at
    # the ends of radial spurs (case30's buses 29 and 30)
    for name, net in networks.items():
        spur_ends = [b.id for b in net.buses
                     if sum(b.id in (br.from_bus, br.to_bus) for br in net.branches) == 1]
        for slack in (factors_map[name].slack_bus, net.buses[-1].id, net.buses[0].id,
                      net.buses[net.n_buses // 2].id, *spur_ends):
            np.testing.assert_allclose(compute_ptdf(net, slack), oracles.dense_ptdf(net, slack),
                                       rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=meshed_hours(), data=st.data())
def test_factors_of_drawn_meshes(case, data):
    """PTDF against the dense oracle, also with the slack at the first, a
    middle and the last bus position (the end of the radial spur), LODF row
    blocks against the full matrix bit for bit, and contingency rows
    against the full LODF."""
    net = case[0]
    factors = build_factors(net)
    np.testing.assert_allclose(factors.ptdf, oracles.dense_ptdf(net, factors.slack_bus),
                               rtol=0, atol=1e-12)
    for slack in (net.buses[0].id, net.buses[net.n_buses // 2].id, net.buses[-1].id):
        np.testing.assert_allclose(compute_ptdf(net, slack), oracles.dense_ptdf(net, slack),
                                   rtol=0, atol=1e-12)
    assert factors.radial_branches == oracles.bridges(net)
    rows = np.array(data.draw(st.lists(st.integers(0, net.n_branches - 1), max_size=8)),
                    dtype=int)
    block = factors.lodf_rows(rows)
    np.testing.assert_array_equal(block, factors.lodf[rows])
    radial = [net.branch_index[b] for b in factors.radial_branches]
    assert radial and np.isnan(factors.lodf[:, radial]).all()
    own = block[np.arange(rows.size), rows]
    np.testing.assert_array_equal(own, np.where(np.isin(rows, radial), np.nan, -1.0))
    injections = balanced_injection(net.n_buses, np.random.RandomState(rows.size)) * 100.0
    base = factors.ptdf @ injections
    for c in set(range(net.n_branches)) - set(radial):
        expected = oracles.dc_power_flow(net, injections, skip_branch=c)
        np.testing.assert_allclose(base + factors.lodf[:, c] * base[c], expected,
                                   rtol=0, atol=1e-8 * max(1.0, np.abs(base).max()))
    for b in range(net.n_branches):
        for c in set(range(net.n_branches)) - {b} - set(radial):
            row = contingency_row(factors, b, c, 1.0)
            expected = factors.ptdf[b] + factors.lodf[b, c] * factors.ptdf[c]
            assert np.array_equal(row.coefficients, expected), (b, c)


def test_parallel_lines_take_full_transfer():
    # the pair is the only corridor between buses 1 and 2, so outaging one
    # line sends its entire flow onto the twin
    net = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0),
               (3, 31.2, -99.3, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 1, 2, 0.1, 100.0),
                  (3, 2, 3, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    factors = build_factors(net)
    assert factors.radial_branches == {3}  # parallels are not bridges
    assert factors.lodf[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert factors.lodf[0, 1] == pytest.approx(1.0, abs=1e-9)
    # and on the bundled ring case: branches 1 and 29 share endpoints 1-2
    # (oracle-checked remove-and-resolve covers the numeric redistribution)


def test_radial_set_matches_bridge_finding(networks, factors_map):
    for name, net in networks.items():
        assert factors_map[name].radial_branches == oracles.bridges(net)


def test_disconnected_network_rejected():
    net = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0),
               (3, 33.0, -99.0, 115.0), (4, 33.2, -99.0, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 3, 4, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    with pytest.raises(NetworkStructureError, match="disconnected"):
        compute_ptdf(net, slack_bus=1)


def test_cancelling_parallel_susceptances_are_singular():
    # connected, but the two circuits' 1/x sum to zero between buses 1 and 2
    net = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0), (3, 31.4, -99.0, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 1, 2, -0.1, 100.0), (3, 2, 3, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    with pytest.raises(NetworkStructureError, match="^reduced susceptance matrix is singular$"):
        compute_ptdf(net, slack_bus=1)


def test_default_slack_is_lowest_generator_bus(networks, factors_map):
    assert factors_map["case30"].slack_bus == 3  # nuclear unit's bus


def row_max_loop(lodf, radial_positions):
    """max |LODF[b, c]| over non-radial c != b, one pair at a time."""
    l = lodf.shape[0]
    return np.array([max([abs(lodf[b, c]) for c in range(l)
                          if c != b and c not in radial_positions], default=0.0)
                     for b in range(l)])


def test_lodf_row_max_matches_pairwise_loop(networks, factors_map, monkeypatch):
    import gridline.factors as factors_module
    for name, net in networks.items():
        factors = factors_map[name]
        radial = {net.branch_index[b] for b in factors.radial_branches}
        expected = row_max_loop(factors.lodf, radial)
        np.testing.assert_array_equal(factors.lodf_row_max, expected)
        # blocks that split the rows unevenly give the same maxima
        monkeypatch.setattr(factors_module, "ROW_BLOCK", 7)
        np.testing.assert_array_equal(build_factors(net).lodf_row_max, expected)
        monkeypatch.undo()


def test_lodf_row_max_without_branches_or_meshed_outages():
    single = make_network(buses=[(1, 31.0, -99.0, 115.0)], branches=[],
                          gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    assert build_factors(single, slack_bus=1).lodf_row_max.shape == (0,)
    path = make_network(
        buses=[(1, 31.0, -99.0, 115.0), (2, 31.2, -99.0, 115.0), (3, 31.4, -99.0, 115.0)],
        branches=[(1, 1, 2, 0.1, 100.0), (2, 2, 3, 0.1, 100.0)],
        gens=[(1, 1, "natural_gas", 0.0, 100.0, [(100.0, 10.0)])])
    factors = build_factors(path, slack_bus=1)
    assert factors.radial_branches == {1, 2}
    np.testing.assert_array_equal(factors.lodf_row_max, [0.0, 0.0])
