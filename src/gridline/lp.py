"""Thin solver contract around an exact LP backend.

The dispatch code builds problems against this interface only; tests are
solver-agnostic at 1e-6 tolerances. The backend is the HiGHS dual simplex
bundled with scipy, called through its bindings directly, with the options
``scipy.optimize.linprog(method="highs")`` uses (presolve on, dual simplex,
no output) and one thread. An ``LpModel`` holds one LP in one solver:
it appends rows to the LP and rewrites its bounds and right-hand sides in
place, and ``solve_lp`` solves it from the basis the solve before it ended
on. A study keeps one ``LpModel`` per fixed chunk of hours, so a result is
a function of its chunk's inputs alone, never of which chunk a worker
solved before. A solution holds the primal values, the objective and the
row marginals; a model HiGHS refuses raises SolverError.
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

_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.threads = 1  # the dual simplex is serial; no pool of idle threads per worker


@dataclass(frozen=True)
class LpProblem:
    """min cost @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  bounds.

    Matrices are CSR without duplicate entries; a ``None`` bound is
    infinite and a NaN bound is refused."""

    cost: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    bounds: list[tuple[float, float | None]]


@dataclass(frozen=True)
class LpSolution:
    """Primal solution and row marginals, set when optimal. Marginals follow
    the dObjective/dRHS sign convention: binding upper-bound rows carry
    nonpositive marginals."""

    status: str
    x: np.ndarray | None
    objective: float | None
    ineq_marginals: np.ndarray | None
    eq_marginals: np.ndarray | None
    message: str = ""  # the solver's own account of a non-optimal status
    simplex_iterations: int = 0


@dataclass(frozen=True)
class HighsResult:
    """One HiGHS run. The solution fields are set only for kOptimal."""

    status: highs.HighsModelStatus
    message: str
    nit: int  # simplex iterations
    x: np.ndarray | None = None
    objective: float | None = None
    row_dual: np.ndarray | None = None


def _check(status: highs.HighsStatus, call: str) -> None:
    if status == highs.HighsStatus.kError:
        raise SolverError(f"HiGHS refused {call}")


def linprog(solver: highs._Highs) -> HighsResult:
    """Run ``solver`` as it stands, from the basis it holds."""
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    message = solver.modelStatusToString(status)
    if status != _STATUS.kOptimal:
        return HighsResult(status, message, info.simplex_iteration_count)
    solution = solver.getSolution()
    return HighsResult(status, message, info.simplex_iteration_count,
                       np.array(solution.col_value), info.objective_function_value,
                       np.array(solution.row_dual))


def _highs_model(problem: LpProblem) -> highs.HighsLp:
    """Rowwise HiGHS model: the ``<=`` rows first, then the equality rows,
    as scipy's ``linprog`` passes them, so that on an LP with many optima
    both pick the same one."""
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
    bounds = np.array(problem.bounds, dtype=float).reshape(-1, 2).T  # None reads nan
    unset = np.equal(np.array(problem.bounds, dtype=object).reshape(-1, 2).T, None)
    refused = np.flatnonzero((np.isnan(bounds) & ~unset).any(axis=0))
    if refused.size:
        raise ValueError(f"column {refused[0]} has a NaN bound")
    lower, upper = np.where(unset, [[-np.inf], [np.inf]], bounds)
    n_cols, n_rows = len(problem.cost), len(upper_rows)

    # The bindings copy every field but the cost element by element. A
    # memoryview feeds them about three times faster than an array, and
    # unlike a list it makes no Python number that outlives its copy.
    model = highs.HighsLp()
    model.num_col_ = n_cols
    model.num_row_ = n_rows
    model.col_cost_ = np.asarray(problem.cost, dtype=float)
    model.col_lower_ = memoryview(lower)
    model.col_upper_ = memoryview(upper)
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


def _solution(result: HighsResult, eq: slice) -> LpSolution:
    """``result`` in the solver contract; ``eq`` picks the equality rows out
    of the solver's rows, and the rows around them are the ``<=`` rows."""
    nit = result.nit
    if result.status == _STATUS.kOptimal:
        dual = result.row_dual
        return LpSolution(OPTIMAL, result.x, float(result.objective),
                          np.concatenate((dual[:eq.start], dual[eq.stop:])), dual[eq],
                          simplex_iterations=nit)
    if result.status == _STATUS.kInfeasible:
        return LpSolution(INFEASIBLE, None, None, None, None, simplex_iterations=nit)
    if result.status == _STATUS.kUnbounded:
        # all dispatch variables are box-bounded, so this signals bad data
        raise SolverError("LP unbounded; input data is inconsistent")
    return LpSolution(ERROR, None, None, None, None,
                      f"HiGHS status {int(result.status)}: {result.message}",
                      simplex_iterations=nit)


def csr_rows(n_rows: int, row: np.ndarray, col: np.ndarray, value: np.ndarray,
             slack_col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (start, index, value) of ``n_rows`` rows given as entries sorted
    by ``row``, with an entry -1 in column ``slack_col[i]`` last in each row
    i where ``slack_col[i]`` >= 0."""
    penalized = np.flatnonzero(slack_col >= 0)
    rows = np.concatenate((row, penalized))
    order = np.argsort(rows, kind="stable")
    start = np.searchsorted(rows[order], np.arange(n_rows + 1)).astype(np.int32)
    index = np.concatenate((col, slack_col[penalized]))[order].astype(np.int32)
    return start, index, np.concatenate((value, np.full(penalized.size, -1.0)))[order]


class LpModel:
    """An LP held in one solver and changed in place between solves.

    The LP is ``problem``, laid out by ``_highs_model``, plus the ``<=``
    rows added since, in the order added. Each added row may have a slack
    column of its own or share one with other rows added with it: cost
    ``slack_cost``, bounds [0, inf), entry -1 in each of its rows. Slack
    columns follow ``problem``'s columns in the order they were added.
    Rows and columns are only ever appended.
    """

    def __init__(self, problem: LpProblem):
        self._solver = highs._Highs()
        self._solver.passOptions(_OPTIONS)
        n_ub = 0 if problem.a_ub is None else problem.a_ub.shape[0]
        self._eq = slice(n_ub, n_ub + problem.a_eq.shape[0])  # the equality rows
        self._n_cols = len(problem.cost)
        _check(self._solver.passModel(_highs_model(problem)), "passModel")

    def add_rows(self, b_ub: np.ndarray, row: np.ndarray, col: np.ndarray,
                 value: np.ndarray, slack: np.ndarray, slack_cost: float) -> None:
        """Append the rows sum(value[k] x[col[k]] for row[k] == i) <= b_ub[i].
        The entries are sorted by ``row`` and lie in ``problem``'s columns.
        New rows with the same ``slack`` >= 0 share new slack column number
        ``slack`` (counted from 0, none skipped); -1 means none."""
        solver = self._solver
        n_rows = len(b_ub)
        n_slacks = int(slack.max(initial=-1)) + 1
        if n_slacks:
            no_entries = np.zeros(0, dtype=np.int32)
            _check(solver.addCols(n_slacks, np.full(n_slacks, float(slack_cost)),
                                  np.zeros(n_slacks), np.full(n_slacks, np.inf),
                                  0, no_entries, no_entries, np.zeros(0)), "addCols")
        slack_col = np.where(slack >= 0, solver.getNumCol() - n_slacks + slack, -1)
        start, index, values = csr_rows(n_rows, row, col, value, slack_col)
        _check(solver.addRows(n_rows, np.full(n_rows, -np.inf), np.asarray(b_ub, float),
                              len(index), start[:-1], index, values), "addRows")

    def set_bounds(self, lower: np.ndarray, upper: np.ndarray, b_eq: np.ndarray,
                   b_ub: np.ndarray) -> None:
        """New bounds of ``problem``'s columns, and new right-hand sides of
        the equality rows and of every ``<=`` row, in the order held."""
        solver = self._solver
        first, stop = self._eq.start, self._eq.stop
        if stop - first + len(b_ub) != solver.getNumRow():
            raise ValueError("one right-hand side per row required")
        n = self._n_cols
        _check(solver.changeColsBounds(n, np.arange(n, dtype=np.int32),
                                       np.asarray(lower, float), np.asarray(upper, float)),
               "changeColsBounds")
        unbounded = np.full(len(b_ub), -np.inf)
        row_lower = np.concatenate((unbounded[:first], b_eq, unbounded[first:])).tolist()
        row_upper = np.concatenate((b_ub[:first], b_eq, b_ub[first:])).tolist()
        for r, (lo, hi) in enumerate(zip(row_lower, row_upper)):
            _check(solver.changeRowBounds(r, lo, hi), "changeRowBounds")


def solve_lp(model: LpModel) -> LpSolution:
    """Solve ``model`` from the basis it holds. ``x`` holds ``problem``'s
    columns, then the slack columns."""
    return _solution(linprog(model._solver), model._eq)
