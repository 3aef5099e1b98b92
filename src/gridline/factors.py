"""PTDF and LODF sensitivity matrices for the DC approximation.

Dense factorization throughout: target cases are at most a few thousand
buses, where forming the reduced nodal susceptance inverse directly is
both simple and fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NetworkStructureError
from .network import Network
from .util import render_floats, write_csv

RADIAL_TOLERANCE = 1e-6
ROW_BLOCK = 256  # LODF rows per block when reducing over |LODF|


@dataclass(frozen=True)
class SensitivityFactors:
    ptdf: np.ndarray  # (L, N): MW on branch per MW injected at bus, withdrawn at slack
    lodf: np.ndarray  # (L, L): rows monitor, columns outage; radial columns NaN
    slack_bus: int  # bus id
    radial_branches: frozenset[int]  # branch ids whose outage islands the network
    lodf_row_max: np.ndarray  # (L,): max |LODF[b, c]| over non-radial c != b, else 0


def default_slack_bus(network: Network) -> int:
    """Lowest-numbered bus that hosts a generator."""
    with_gen = sorted({g.bus for g in network.generators})
    if not with_gen:
        raise NetworkStructureError("no generators; cannot pick a slack bus")
    return with_gen[0]


def _check_connected(network: Network) -> None:
    adjacency: dict[int, list[int]] = {i: [] for i in range(network.n_buses)}
    for f, t in zip(network.branch_from, network.branch_to):
        adjacency[int(f)].append(int(t))
        adjacency[int(t)].append(int(f))
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for peer in adjacency[node]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    if len(seen) != network.n_buses:
        missing = [b.id for i, b in enumerate(network.buses) if i not in seen]
        raise NetworkStructureError(f"network disconnected; unreachable buses {missing}")


def compute_ptdf(network: Network, slack_bus: int | None = None) -> np.ndarray:
    """Power transfer distribution factors, slack-referenced.

    Row b gives the MW flow on branch b per MW injected at each bus and
    withdrawn at the slack; the slack column is identically zero.
    """
    _check_connected(network)
    slack_id = default_slack_bus(network) if slack_bus is None else slack_bus
    if slack_id not in network.bus_index:
        raise NetworkStructureError(f"slack bus {slack_id} not in network")
    slack = network.bus_index[slack_id]

    n, l = network.n_buses, network.n_branches
    incidence = np.zeros((l, n))
    incidence[np.arange(l), network.branch_from] = 1.0
    incidence[np.arange(l), network.branch_to] = -1.0
    weighted = incidence / network.reactance[:, None]  # Bd @ A
    nodal = incidence.T @ weighted  # Bbus

    keep = [i for i in range(n) if i != slack]
    try:
        reduced_inverse = np.linalg.inv(nodal[np.ix_(keep, keep)])
    except np.linalg.LinAlgError:
        raise NetworkStructureError("reduced susceptance matrix is singular") from None
    ptdf = np.zeros((l, n))
    ptdf[:, keep] = weighted[:, keep] @ reduced_inverse
    return ptdf


def compute_lodf(ptdf: np.ndarray, network: Network,
                 tolerance: float = RADIAL_TOLERANCE) -> tuple[np.ndarray, frozenset[int]]:
    """Line outage distribution factors from the PTDF.

    LODF[b, c] = (PTDF[b, fc] - PTDF[b, tc]) / (1 - (PTDF[c, fc] - PTDF[c, tc]));
    the diagonal is -1 (a branch's own outage removes its flow). Branches
    whose outage islands the network (denominator within ``tolerance`` of
    zero) are flagged radial and their columns set to NaN rather than
    erroring, so they are excluded from the contingency set.
    """
    l = ptdf.shape[0]
    self_transfer = ptdf[np.arange(l), network.branch_from] - ptdf[np.arange(l), network.branch_to]
    denominator = 1.0 - self_transfer
    radial_mask = np.abs(denominator) < tolerance

    numerator = ptdf[:, network.branch_from] - ptdf[:, network.branch_to]  # (L, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        lodf = numerator / denominator[None, :]
    lodf[:, radial_mask] = np.nan
    diag = np.arange(l)
    lodf[diag[~radial_mask], diag[~radial_mask]] = -1.0
    radial_ids = frozenset(network.branches[i].id for i in np.nonzero(radial_mask)[0])
    return lodf, radial_ids


def lodf_row_max(lodf: np.ndarray) -> np.ndarray:
    """Per monitored row b, the largest |LODF[b, c]| over non-radial
    outages c != b (0 when there is none).

    Reduced in blocks of rows, so no full-size |LODF| copy is made; NaN
    (radial) columns drop out of ``np.fmax``.
    """
    l = lodf.shape[0]
    out = np.empty(l)
    for start in range(0, l, ROW_BLOCK):
        block = np.abs(lodf[start:start + ROW_BLOCK])
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = 0.0
        np.fmax.reduce(block, axis=1, initial=0.0, out=out[start:start + len(rows)])
    return out


def build_factors(network: Network, slack_bus: int | None = None) -> SensitivityFactors:
    slack_id = default_slack_bus(network) if slack_bus is None else slack_bus
    ptdf = compute_ptdf(network, slack_id)
    lodf, radial = compute_lodf(ptdf, network)
    return SensitivityFactors(ptdf, lodf, slack_id, radial, lodf_row_max(lodf))


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
