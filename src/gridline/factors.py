"""PTDF and LODF sensitivity factors for the DC approximation.

The PTDF comes from one sparse LU factorisation of the reduced nodal
susceptance matrix, solved against the identity: target cases are a few
thousand buses, where the dense reduced inverse fits in memory but dense
products with the branch incidence do not pay. The LODF is never kept
whole: any block of its rows is one formula over the PTDF, and only
verification and debug code asks for the full L x L matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import NetworkStructureError
from .network import Network
from .util import render_floats, write_csv

RADIAL_TOLERANCE = 1e-6
ROW_BLOCK = 256  # LODF rows per block, so no L x L array is made


@dataclass(frozen=True)
class SensitivityFactors:
    ptdf: np.ndarray  # (L, N): MW on branch per MW injected at bus, withdrawn at slack
    slack_bus: int  # bus id
    radial_branches: frozenset[int]  # branch ids whose outage islands the network
    branch_from: np.ndarray  # (L,) bus positions
    branch_to: np.ndarray  # (L,) bus positions
    denominator: np.ndarray  # (L,): 1 - (PTDF[c, from_c] - PTDF[c, to_c]); NaN if radial
    # (L,): max |LODF[b, c]| over non-radial c != b (0 when none), from row blocks
    lodf_row_max: np.ndarray = field(init=False)

    def __post_init__(self):
        out = np.empty(len(self.denominator))
        for start in range(0, out.size, ROW_BLOCK):
            rows = np.arange(start, min(start + ROW_BLOCK, out.size))
            block = np.abs(self.lodf_rows(rows))
            block[np.arange(rows.size), rows] = 0.0
            np.fmax.reduce(block, axis=1, initial=0.0, out=out[start:start + rows.size])
        object.__setattr__(self, "lodf_row_max", out)

    def lodf_rows(self, rows: np.ndarray) -> np.ndarray:
        """LODF rows of the monitored branch positions ``rows``: column c
        is the share of branch c's flow that moves onto the row's branch
        when c is outaged,
        LODF[b, c] = (PTDF[b, from_c] - PTDF[b, to_c]) / denominator[c].
        Radial columns are NaN, and a row's own non-radial outage is -1
        (the outage removes the branch's own flow)."""
        ptdf = self.ptdf[rows]
        block = (ptdf[:, self.branch_from] - ptdf[:, self.branch_to]) / self.denominator
        own = ~np.isnan(self.denominator[rows])
        block[np.flatnonzero(own), rows[own]] = -1.0
        return block

    @cached_property
    def lodf(self) -> np.ndarray:
        """The full (L, L) LODF; rows monitor, columns outage. For
        verification and debug output only: a study reads row blocks."""
        return self.lodf_rows(np.arange(len(self.denominator)))


def default_slack_bus(network: Network) -> int:
    """Lowest-numbered bus that hosts a generator."""
    with_gen = sorted({g.bus for g in network.generators})
    if not with_gen:
        raise NetworkStructureError("no generators; cannot pick a slack bus")
    return with_gen[0]


def _check_connected(network: Network, nodal: sparse.csc_matrix) -> None:
    _, label = connected_components(nodal, directed=False)
    missing = [b.id for b, part in zip(network.buses, label) if part != label[0]]
    if missing:
        raise NetworkStructureError(f"network disconnected; unreachable buses {missing}")


def compute_ptdf(network: Network, slack_bus: int | None = None) -> np.ndarray:
    """Power transfer distribution factors, slack-referenced.

    Row b gives the MW flow on branch b per MW injected at each bus and
    withdrawn at the slack; the slack column is identically zero. With X
    the inverse of the reduced Bbus, bordered by a zero slack row and
    column, row b is (X[from_b] - X[to_b]) / x_b.
    """
    # sparse Bbus: each branch adds 1/x to its two diagonal entries and -1/x
    # to its two off-diagonal ones, all stored, so the pattern is the graph
    f, t, b = network.branch_from, network.branch_to, 1.0 / network.reactance
    nodal = sparse.csc_matrix((np.concatenate([b, b, -b, -b]),
                               (np.concatenate([f, t, f, t]), np.concatenate([f, t, t, f]))),
                              shape=(network.n_buses, network.n_buses))
    _check_connected(network, nodal)
    slack_id = default_slack_bus(network) if slack_bus is None else slack_bus
    if slack_id not in network.bus_index:
        raise NetworkStructureError(f"slack bus {slack_id} not in network")
    slack = network.bus_index[slack_id]

    n = network.n_buses
    keep = np.flatnonzero(np.arange(n) != slack)
    try:
        lu = splu(nodal[keep][:, keep])
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        raise NetworkStructureError("reduced susceptance matrix is singular") from None
    inverse = np.zeros((n, n))
    inverse[np.ix_(keep, keep)] = lu.solve(np.eye(n - 1))
    ptdf = inverse[f]
    ptdf -= inverse[t]
    ptdf /= network.reactance[:, None]
    return ptdf


def build_factors(network: Network, slack_bus: int | None = None) -> SensitivityFactors:
    """PTDF plus the outage denominators every LODF row needs. Branches
    whose outage islands the network (denominator within
    ``RADIAL_TOLERANCE`` of zero) are flagged radial rather than erroring,
    so they are excluded from the contingency set."""
    slack_id = default_slack_bus(network) if slack_bus is None else slack_bus
    ptdf = compute_ptdf(network, slack_id)
    branches = np.arange(network.n_branches)
    denominator = 1.0 - (ptdf[branches, network.branch_from] - ptdf[branches, network.branch_to])
    radial = np.abs(denominator) < RADIAL_TOLERANCE
    denominator[radial] = np.nan
    radial_ids = frozenset(network.branches[i].id for i in np.flatnonzero(radial))
    return SensitivityFactors(ptdf, slack_id, radial_ids, network.branch_from,
                              network.branch_to, denominator)


def dump_factors(factors: SensitivityFactors, network: Network,
                 directory: str | Path) -> None:
    """Debug dump of the PTDF/LODF matrices as labelled CSV."""
    out = Path(directory)
    bus_ids = [str(b.id) for b in network.buses]
    branch_ids = [b.id for b in network.branches]
    write_csv(out / "ptdf.csv", ["branch_id"] + bus_ids,
              ([branch_ids[l], *render_floats(factors.ptdf[l])]
               for l in range(network.n_branches)))
    write_csv(out / "lodf.csv",
              ["monitored_branch_id"] + [str(b) for b in branch_ids],
              ([branch_ids[l], *render_floats(factors.lodf[l])]
               for l in range(network.n_branches)))
