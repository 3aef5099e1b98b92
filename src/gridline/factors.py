"""PTDF and LODF sensitivity factors for the DC approximation.

The PTDF comes from one dense Cholesky inverse of the nodal susceptance
matrix with its slack row and column replaced by the identity's, times
the sparse branch incidence: target cases are a few thousand buses, where
the dense inverse fits in memory and LAPACK inverts it faster than sparse
solves against the identity. The LODF is never kept whole: any block of
its rows is one formula over the PTDF, and only verification and debug
code asks for the full L x L matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

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
        # a block's numerators are one product with the incidence, the same
        # bits as ``lodf_rows``' gathers; a row's own entry is zeroed anyway
        incidence_t = _incidence(self.branch_from, self.branch_to, self.ptdf.shape[1]).T
        out = np.empty(len(self.denominator))
        for start in range(0, out.size, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, out.size)
            block = self.ptdf[start:stop] @ incidence_t
            block /= self.denominator
            np.abs(block, out=block)
            block[np.arange(stop - start), np.arange(start, stop)] = 0.0
            np.fmax.reduce(block, axis=1, initial=0.0, out=out[start:stop])
        object.__setattr__(self, "lodf_row_max", out)

    def lodf_rows(self, rows: np.ndarray) -> np.ndarray:
        """LODF rows of the monitored branch positions ``rows``: column c
        is the share of branch c's flow that moves onto the row's branch
        when c is outaged,
        LODF[b, c] = (PTDF[b, from_c] - PTDF[b, to_c]) / denominator[c].
        Radial columns are NaN, and a row's own non-radial outage is -1
        (the outage removes the branch's own flow).

        The screen and ``contingency_row`` ask for a few rows at a time,
        where two column gathers cost less than a product with the sparse
        incidence, which pays only on blocks of hundreds of rows."""
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


def _incidence(branch_from: np.ndarray, branch_to: np.ndarray,
               n_buses: int) -> sparse.csr_matrix:
    """The (L, N) branch incidence: +1 at each branch's from bus and -1 at
    its to bus. Row b of its product with a matrix M is exactly
    M[from_b] - M[to_b]."""
    n_branches = len(branch_from)
    return sparse.csr_matrix((np.tile([1.0, -1.0], n_branches),
                              np.column_stack((branch_from, branch_to)).ravel(),
                              np.arange(0, 2 * n_branches + 1, 2)),
                             shape=(n_branches, n_buses))


def _check_connected(network: Network, nodal: sparse.csc_matrix) -> None:
    _, label = connected_components(nodal, directed=False)
    missing = [network.bus_ids[k] for k in np.flatnonzero(label != label[0])]
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

    # with the slack row and column of the identity's the matrix is SPD,
    # and its inverse is the bordered X above but for a 1 at (slack, slack)
    matrix = nodal.toarray(order="F")  # Fortran order: LAPACK works on it in place
    matrix[slack] = 0.0
    matrix[:, slack] = 0.0
    matrix[slack, slack] = 1.0
    factor, info = lapack.dpotrf(matrix, lower=False, clean=False, overwrite_a=True)
    if info == 0:
        inverse, info = lapack.dpotri(factor, lower=False, overwrite_c=True)
    if info != 0:
        raise NetworkStructureError("reduced susceptance matrix is singular")
    inverse = inverse.T  # C order, for the product; the inverse is in its lower triangle
    np.copyto(inverse, inverse.T, where=~np.tri(network.n_buses, dtype=bool))  # mirror
    inverse[slack, slack] = 0.0
    ptdf = _incidence(f, t, network.n_buses) @ inverse
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
    radial_ids = frozenset(network.branch_ids[i] for i in np.flatnonzero(radial))
    return SensitivityFactors(ptdf, slack_id, radial_ids, network.branch_from,
                              network.branch_to, denominator)


def dump_factors(factors: SensitivityFactors, network: Network,
                 directory: str | Path) -> None:
    """Debug dump of the PTDF/LODF matrices as labelled CSV."""
    out = Path(directory)
    bus_ids = list(map(str, network.bus_ids))
    branch_ids = network.branch_ids
    write_csv(out / "ptdf.csv", ["branch_id"] + bus_ids,
              ([branch_ids[l], *render_floats(factors.ptdf[l])]
               for l in range(network.n_branches)))
    write_csv(out / "lodf.csv",
              ["monitored_branch_id"] + [str(b) for b in branch_ids],
              ([branch_ids[l], *render_floats(factors.lodf[l])]
               for l in range(network.n_branches)))
