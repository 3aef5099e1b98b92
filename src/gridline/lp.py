"""Thin solver contract around an exact LP backend.

The dispatch code builds problems against this interface only; tests are
solver-agnostic at 1e-6 tolerances. The backend is the HiGHS dual simplex
bundled with scipy, called through its bindings directly: one fresh solver
per LP, with the options ``scipy.optimize.linprog(method="highs")`` uses
(presolve on, dual simplex, no output). A fresh solver keeps every result a
function of its own model, never of which LP a worker solved before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from .errors import SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ERROR = "error"

_STATUS = highs.HighsModelStatus
_AT_LOWER = int(highs.HighsBasisStatus.kLower)
_AT_UPPER = int(highs.HighsBasisStatus.kUpper)

_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False


@dataclass(frozen=True)
class LpProblem:
    """min cost @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  bounds.

    Matrices are CSR without duplicate entries; a ``None`` bound is
    infinite."""

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


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS run. The solution fields are set only for kOptimal."""

    status: highs.HighsModelStatus
    message: str
    nit: int  # simplex iterations
    x: np.ndarray | None = None
    objective: float | None = None
    row_dual: np.ndarray | None = None
    col_dual: np.ndarray | None = None
    col_status: np.ndarray | None = None  # HighsBasisStatus values


def linprog(model: highs.HighsLp) -> HighsResult:
    """Pass one model to a fresh HiGHS solver and run it."""
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(model) == highs.HighsStatus.kError:
        return HighsResult(_STATUS.kModelError,
                           solver.modelStatusToString(_STATUS.kModelError), 0)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    message = solver.modelStatusToString(status)
    if status != _STATUS.kOptimal:
        return HighsResult(status, message, info.simplex_iteration_count)
    solution = solver.getSolution()
    col_status = np.array([int(s) for s in solver.getBasis().col_status], dtype=np.int8)
    return HighsResult(status, message, info.simplex_iteration_count,
                       np.array(solution.col_value), info.objective_function_value,
                       np.array(solution.row_dual), np.array(solution.col_dual),
                       col_status)


def _highs_model(problem: LpProblem) -> highs.HighsLp:
    """Rowwise HiGHS model: the ``<=`` rows first, then the equality rows."""
    a_eq = problem.a_eq
    b_eq = np.asarray(problem.b_eq, dtype=float)
    lower_rows, upper_rows = b_eq, b_eq
    start, index, value = a_eq.indptr, a_eq.indices, a_eq.data
    if problem.a_ub is not None:
        a_ub = problem.a_ub
        start = np.concatenate((a_ub.indptr, a_ub.nnz + a_eq.indptr[1:]))
        index = np.concatenate((a_ub.indices, a_eq.indices))
        value = np.concatenate((a_ub.data, a_eq.data))
        lower_rows = np.concatenate((np.full(a_ub.shape[0], -np.inf), b_eq))
        upper_rows = np.concatenate((problem.b_ub, b_eq))
    lower, upper = np.array(problem.bounds, dtype=float).reshape(-1, 2).T  # None reads nan
    n_cols, n_rows = len(problem.cost), len(upper_rows)

    # The bindings copy every field but the cost element by element. A
    # memoryview feeds them about three times faster than an array, and
    # unlike a list it makes no Python number that outlives its copy.
    model = highs.HighsLp()
    model.num_col_ = n_cols
    model.num_row_ = n_rows
    model.col_cost_ = np.asarray(problem.cost, dtype=float)
    model.col_lower_ = memoryview(np.where(np.isnan(lower), -np.inf, lower))
    model.col_upper_ = memoryview(np.where(np.isnan(upper), np.inf, upper))
    model.row_lower_ = memoryview(lower_rows)
    model.row_upper_ = memoryview(upper_rows)
    matrix = model.a_matrix_
    matrix.format_ = highs.MatrixFormat.kRowwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = memoryview(start)
    matrix.index_ = memoryview(index)
    matrix.value_ = memoryview(np.asarray(value, dtype=float))
    return model


def solve_lp(problem: LpProblem) -> LpSolution:
    result = linprog(_highs_model(problem))
    if result.status == _STATUS.kOptimal:
        n_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
        return LpSolution(
            OPTIMAL, result.x, float(result.objective),
            None if problem.a_ub is None else result.row_dual[:n_ub],
            result.row_dual[n_ub:],
            np.where(result.col_status == _AT_LOWER, result.col_dual, 0.0),
            np.where(result.col_status == _AT_UPPER, result.col_dual, 0.0),
        )
    if result.status in (_STATUS.kInfeasible, _STATUS.kModelError):
        return LpSolution(INFEASIBLE, None, None, None, None, None, None)
    if result.status == _STATUS.kUnbounded:
        # all dispatch variables are box-bounded, so this signals bad data
        raise SolverError("LP unbounded; input data is inconsistent")
    return LpSolution(ERROR, None, None, None, None, None, None,
                      f"HiGHS status {int(result.status)}: {result.message}")
