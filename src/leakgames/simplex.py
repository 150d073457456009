"""Self-contained dense linear programming: a revised primal simplex,
started from a feasible basis, for the small, exactness-sensitive
programs this package produces (matrix games, epigraph formulations,
convex-hull membership).
A ``LinearProgram`` is held as arrays from its builder to the solver:
the objective c, the m x n matrix A, the right-hand sides b, each
row's relation coded as its slack coefficient, and a mask of the free
variables; ``LinearProgram.dual`` derives its dual.  With one BLAS
setting the same input always follows the same pivot path (the BLAS
thread count changes the rounding of its products, and so the path can
change with it).  The solver carries the
dense inverse of the basis, (m+1) x (m+1) whatever the number of
columns: ``_run_phase`` drives the pivot loop of leakgames._kernel_py
(Devex pricing), reached through the module global ``_kernel``, and
``_refactor`` reinverts the basis between its calls.  The caller names
a primal feasible basis as ``lp_solve``'s ``start``, and the simplex
runs from it.  Every LP that ``minimax`` builds starts so: a game LP
at a pure strategy, a uniqueness probe at its game LP's optimal basis,
which ``LPSolution.basis`` hands back in the same form.  Variables are
nonnegative or free (a difference of two nonnegative ones); general
upper bounds are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernel_py
from .errors import SolverError

_kernel = _kernel_py
KERNEL_NAME = "python"      # reported by perfbench/worker.py's environment record

PIVOT_TOL = 1e-9
TABOO = 1e100

LESS, EQUAL, GREATER = "<=", "=", ">="

_RELATIONS = np.array([LESS, EQUAL, GREATER])     # slack coefficients +1, 0, -1


@dataclass(frozen=True)
class LinearProgram:
    """min/max of c.x subject to A x (relation) b, row by row.  ``slack``
    codes each row's relation as the coefficient of its slack: +1 for
    <=, -1 for >=, 0 for =.  ``free`` masks the free variables; all
    others are >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    slack: np.ndarray
    sense: str
    free: np.ndarray

    @staticmethod
    def build(c, A, relations, b, sense: str = "min", free=()) -> "LinearProgram":
        """Check the arrays and code the relations: ``A`` is m x len(c),
        ``relations`` and ``b`` hold one entry per row, ``free`` the
        indices of the free variables.  Every number must be finite."""
        c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
        relations = np.asarray(relations, dtype=str)
        n = c.shape[0]
        if c.ndim != 1 or A.ndim != 2 or A.shape[1] != n:
            raise ValueError("constraint dimension does not match objective")
        if b.shape != (A.shape[0],) or relations.shape != b.shape:
            raise ValueError("A, b and the relations disagree on the number of rows")
        known = relations[:, None] == _RELATIONS
        if not known.any(axis=1).all():
            raise ValueError(f"unknown relation {relations[~known.any(axis=1)][0].item()!r}")
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("objective and constraints must be finite")
        free = np.asarray(free)
        if free.size and (free.dtype.kind not in "iu" or free.min() < 0 or free.max() >= n):
            raise ValueError(f"free must list variable indices in [0, {n})")
        return LinearProgram(c=c, A=A, b=b, slack=1.0 - known.argmax(axis=1), sense=sense,
                             free=np.bincount(free.astype(np.intp), minlength=n) > 0)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    def _dual_signs(self) -> np.ndarray:
        """Per row, the sign that turns its dual in ``lp_solve``'s
        convention into its variable in ``dual()``: -1 on a row whose
        dual is <= 0 there (<= when minimising, >= when maximising),
        else +1."""
        return np.where(self.slack == 0.0, 1.0,
                        self.slack if self.sense == "max" else -self.slack)

    def dual(self) -> "LinearProgram":
        """The dual LP: one variable per row and one row per variable, in
        the same orders.  An inequality row's variable is >= 0 and an
        equality row's is free; a free variable gives an equality row,
        any other a row in the dual's direction (<= when the dual
        maximises, >= when it minimises).  At optimality its row duals are this
        LP's x, and its x, signed back, are this LP's row duals (see
        ``dual_solution``)."""
        signs = self._dual_signs()
        return LinearProgram(
            c=signs * self.b, A=np.multiply(self.A.T, signs, order="C"), b=self.c,
            slack=np.where(self.free, 0.0, 1.0 if self.sense == "min" else -1.0),
            sense="max" if self.sense == "min" else "min", free=self.slack == 0.0)

    def dual_solution(self, sol: "LPSolution") -> "LPSolution":
        """This LP's solution read off ``sol``, a solution of ``dual()``:
        x and the row duals swap roles.  The objective, gap and
        iterations carry over; ``max_residual`` stays the dual's, and
        ``basis`` is None (the dual's basis is not carried over)."""
        if not sol.optimal:
            return sol
        return replace(sol, x=sol.duals, duals=self._dual_signs() * sol.x, basis=None)

    @property
    def rows(self) -> tuple:
        """(coefficients, relation, bound) per row, derived from the arrays."""
        relations = _RELATIONS[(1.0 - self.slack).astype(np.int64)]
        return tuple(zip(self.A, relations.tolist(), self.b.tolist()))


@dataclass
class LPSolution:
    """``basis`` is the final basis of an optimal solve as ``lp_solve``'s
    start (basic variables, rows with a basic slack), so passing it back
    restarts at the optimum; None when the solve is not optimal, or the
    solution was read off a dual (``LinearProgram.dual_solution``)."""

    status: str  # "optimal" | "unbounded" | "stalled"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    gap: float | None = None
    max_residual: float | None = None
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)
    basis: tuple | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _refined(binv: np.ndarray, B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B^-1 v refined once, with the residual formed in B's (extended)
    precision: products with an explicit inverse are not backward
    stable, and their errors grow with the condition of B."""
    x = binv @ v
    return x + binv @ (v - B @ x).astype(float)


def _refactor(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
              pivots: int = 0, floor: float = -1e-7):
    """Reinvert the basis from the original data: returns (work, y), with
    work = [B^-1 | x_B ; -y | -z] for the columns ``basis`` of A and y
    the simplex multipliers.  Reinverting resets the rounding noise that
    pivots pile up in the inverse; ``pivots`` counts them, for errors.
    x_B below ``floor`` means the updates had drifted: SolverError."""
    m = A.shape[0]
    B = A[:, basis]
    try:
        binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverError(f"singular basis of {m} rows at reinversion, "
                          f"{pivots} pivots after the last one") from None
    B = B.astype(np.longdouble)
    x_B, y = _refined(binv, B, b), _refined(binv.T, B.T, c[basis])
    if m and x_B.min() < floor:
        raise SolverError(f"simplex lost primal feasibility (rhs {x_B.min():.3g})")
    work = np.empty((m + 1, m + 1))
    work[:m, :m], work[:m, m] = binv, x_B
    work[m, :m], work[m, m] = -y, -(y @ b)
    return work, y


def _run_phase(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
               max_iter: int, fresh: tuple):
    """Simplex over all columns of A, reinverting after every REFRESH and
    every claim of the kernel.  Returns (status, work, y, iterations);
    status is a kernel constant.  ``fresh`` is ``_refactor``'s (work, y)
    for ``basis``, just reinverted.  A claim counts only when made on a
    fresh inverse; an optimal one whose exact values are infeasible is
    repaired by dual pivots.  A reinversion that fails (singular, or
    values below -1e-7) sends the phase back to the last basis that
    reinverted, with the columns that entered since given the Devex
    weight TABOO, so they are priced last; a second failure in a row
    raises SolverError.
    """
    iterations, weights = 0, np.ones(A.shape[1])
    work, y = fresh
    good = basis.copy()
    while True:
        budget = max_iter - iterations
        if budget <= 0:
            return _kernel_py.ITERATION_LIMIT, work, y, iterations
        x_B = work[:-1, -1].copy()          # the reinverted values, unclipped
        np.clip(x_B, 0.0, None, out=work[:-1, -1])
        status, its = _kernel.run_simplex(work, basis, A, c, PIVOT_TOL, budget, weights)
        repair = its == 0 and status == _kernel_py.OPTIMAL
        if repair:
            its = int(_kernel_py.dual_pivot(work, basis, A, c, x_B, PIVOT_TOL))
            if its == 0:
                return status, work, y, iterations
        elif its == 0 and status == _kernel_py.UNBOUNDED:
            return status, work, y, iterations
        iterations += its
        try:
            work, y = _refactor(A, b, c, basis, its, -np.inf if repair else -1e-7)
        except SolverError:
            if good is None:
                raise
            weights[np.setdiff1d(basis, good)] = TABOO
            basis[:] = good
            work, y = _refactor(A, b, c, basis)
            good = None
        else:
            good = basis.copy()


def _standard_form(lp: LinearProgram):
    """Scale each row of ``lp`` to unit infinity-norm, negate those with
    a negative right-hand side (flipping their slack sign), and expand
    the columns: the variables, the negative halves of the free ones,
    then one slack per inequality row.  Returns (A_std, b_std, flips,
    col_index, col_sign, slack_rows): main column k is col_sign[k] times
    original column col_index[k], and the slack columns belong to the
    rows slack_rows in order; flips maps row duals back to the original
    rows.
    A_std is written in place: the scaled rows go straight into its
    first n columns, the flipped ones are negated there, and the free
    columns' negative halves are copied from them.
    """
    A, b, free, n = lp.A, lp.b, lp.free, lp.n_vars
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    flip = np.where(b < 0, -1.0, 1.0)
    b_std = np.abs(b) / scale
    slack_std = lp.slack * flip

    free_cols = np.flatnonzero(free)
    col_index = np.concatenate([np.arange(n), free_cols])
    col_sign = np.concatenate([np.ones(n), np.full(free_cols.shape[0], -1.0)])
    n_main = col_index.shape[0]
    slack_rows = np.flatnonzero(slack_std != 0.0)
    A_std = np.zeros((A.shape[0], n_main + slack_rows.shape[0]))
    main = A_std[:, :n]
    np.divide(A, scale[:, None], out=main)
    np.negative(main, out=main, where=(b < 0)[:, None])
    np.negative(main[:, free_cols], out=A_std[:, n:n_main])
    A_std[slack_rows, n_main + np.arange(slack_rows.shape[0])] = slack_std[slack_rows]
    return A_std, b_std, flip / scale, col_index, col_sign, slack_rows


def _started_basis(A: np.ndarray, b: np.ndarray, c: np.ndarray, lp: LinearProgram,
                   start, slack_rows: np.ndarray) -> tuple:
    """The basis that ``start`` = (variables, slack rows) names, as
    columns of ``_standard_form(lp)``'s A, whose slack columns belong to
    ``slack_rows`` in order, reinverted: (basis, (work, y)).
    A free variable whose value there is negative enters as its negative
    half.  A start of the wrong size, or naming a row without a slack,
    raises ValueError; one that repeats a column, is singular or lies
    below the feasibility floor raises SolverError."""
    m, n = A.shape[0], lp.n_vars
    variables, rows = (np.asarray(v, dtype=np.int64).reshape(-1) for v in start)
    if variables.size + rows.size != m:
        raise ValueError(f"the start names {variables.size + rows.size} basic columns "
                         f"for {m} rows")
    if ((variables < 0) | (variables >= n)).any() or ((rows < 0) | (rows >= m)).any():
        raise ValueError("start indices out of range")
    slack_col = np.full(m, -1)
    slack_col[slack_rows] = A.shape[1] - slack_rows.size + np.arange(slack_rows.size)
    if (slack_col[rows] < 0).any():
        raise ValueError("a start names the slack of an equality row")
    basis = np.concatenate([variables, slack_col[rows]])
    if (np.bincount(basis) > 1).any():
        raise SolverError("singular basis: the start names a column twice")
    try:
        work, y = _refactor(A, b, c, basis, 0, -np.inf)
    except SolverError:
        raise SolverError(f"singular basis: the start of {m} rows does not reinvert") from None
    free = np.flatnonzero(lp.free)
    free_col = np.zeros(A.shape[1], dtype=bool)
    free_col[free] = True
    negative = np.flatnonzero(free_col[basis] & (work[:m, m] < 0.0))
    basis[negative] = n + np.searchsorted(free, basis[negative])
    work[negative] *= -1.0          # B^-1 and x_B of the negated columns; y stays
    if m and work[:m, m].min() < -1e-7:
        raise SolverError(f"infeasible start: a basic value is {work[:m, m].min():.3g}")
    return basis, (work, y)


def lp_solve(lp: LinearProgram, start) -> LPSolution:
    """Solve ``lp`` from the primal feasible basis ``start`` and return
    primal values, row duals and the duality gap.

    ``start`` = (variables, slack rows) names the basis: the indices of
    its basic variables and the rows whose slack is basic, m in all.

    Row duals are reported so that sum(duals * rhs) equals the optimal
    objective at zero gap; for a minimisation, duals of ``<=`` rows are
    <= 0 and of ``>=`` rows >= 0 (flipped for maximisation).
    """
    n = lp.n_vars
    minimize = lp.sense == "min"
    c0 = lp.c if minimize else -lp.c
    A_std, b_std, flips_arr, col_index, col_sign, slack_rows = _standard_form(lp)
    (m, n_std), n_main = A_std.shape, col_index.shape[0]
    c_std = np.zeros(n_std)
    c_std[:n_main] = c0[col_index] * col_sign

    basis, fresh = _started_basis(A_std, b_std, c_std, lp, start, slack_rows)
    status, work, y_std, iterations = _run_phase(A_std, b_std, c_std, basis,
                                                 5000 + 100 * (m + n_std), fresh)
    if status != _kernel_py.OPTIMAL:
        return LPSolution(status="unbounded" if status == _kernel_py.UNBOUNDED else "stalled",
                          iterations=iterations)

    x_std = np.zeros(n_std)
    x_std[basis] = work[:m, m]
    x = x_std[:n].copy()
    x[col_index[n:]] -= x_std[n:n_main]
    duals0 = flips_arr * y_std

    primal0 = float(c0 @ x)
    gap = abs(primal0 - float(duals0 @ lp.b))

    excess = lp.A @ x - lp.b
    violation = np.where(lp.slack == 0.0, np.abs(excess), lp.slack * excess)
    residual = max(0.0, float(violation.max(initial=0.0)),
                   float(-(x[~lp.free]).min(initial=0.0)))

    objective = primal0 if minimize else -primal0
    duals = duals0 if minimize else -duals0
    main = basis < n_main       # col_index maps a free variable's negative half to it
    return LPSolution(status="optimal", x=x, duals=duals, objective=objective, gap=gap,
                      max_residual=residual, iterations=iterations,
                      basis=(col_index[basis[main]], slack_rows[basis[~main] - n_main]),
                      diagnostics={"rows": m, "cols": n})


def require_optimal(solution: LPSolution, what: str = "linear program") -> LPSolution:
    if not solution.optimal:
        raise SolverError(f"{what} finished with status {solution.status}")
    return solution
