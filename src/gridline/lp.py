"""Thin solver contract around an exact LP backend.

The dispatch code builds problems against this interface only; tests are
solver-agnostic at 1e-6 tolerances. The backend is scipy's HiGHS, an exact
simplex/IPM implementation that reports dual values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"


@dataclass(frozen=True)
class LpProblem:
    """min cost @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  bounds."""

    cost: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float, float | None]]


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual solution. Marginals follow the dObjective/dRHS sign
    convention: binding upper-bound rows carry nonpositive marginals."""

    status: str
    x: np.ndarray | None
    objective: float | None
    ineq_marginals: np.ndarray | None
    eq_marginals: np.ndarray | None
    lower_marginals: np.ndarray | None
    upper_marginals: np.ndarray | None
    message: str = ""  # the solver's own account of a non-optimal status


def solve_lp(problem: LpProblem) -> LpSolution:
    result = linprog(
        c=problem.cost,
        A_ub=problem.a_ub, b_ub=problem.b_ub,
        A_eq=problem.a_eq, b_eq=problem.b_eq,
        bounds=problem.bounds,
        method="highs",
    )
    if result.status == 0:
        return LpSolution(
            OPTIMAL, result.x, float(result.fun),
            None if problem.a_ub is None else np.asarray(result.ineqlin.marginals),
            np.asarray(result.eqlin.marginals),
            np.asarray(result.lower.marginals),
            np.asarray(result.upper.marginals),
        )
    if result.status == 2:
        return LpSolution(INFEASIBLE, None, None, None, None, None, None)
    if result.status == 3:
        # all dispatch variables are box-bounded, so this signals bad data
        raise SolverError("LP unbounded; input data is inconsistent")
    return LpSolution(ERROR, None, None, None, None, None, None,
                      f"HiGHS status {result.status}: {result.message}")
