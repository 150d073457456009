"""Self-contained dense linear programming.

Two-phase primal simplex on a dense tableau with Bland's anti-cycling
rule, written for the small, exactness-sensitive programs this package
produces (matrix games, epigraph formulations, convex-hull membership).
Determinism matters more than speed here: given the same input the
solver always follows the same pivot path.

The pivot loop itself lives in leakgames._kernel_py (numpy), reached
through the module global ``_kernel``; ``_run_phase`` drives it and
``_refactor`` rebuilds the tableau between its calls.  The kernel's
rank-1 update, ``pivot_on``, also drives artificials out of the basis
after phase 1.  LP sizes and objectives are logged at DEBUG level
(LEAKGAMES_LOG=DEBUG on the CLI).

Variables are nonnegative by default; a variable may be declared free
(encoded internally as a difference of two nonnegative ones).  General
upper bounds are out of scope.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernel_py
from .errors import SolverError

log = logging.getLogger(__name__)

_kernel = _kernel_py
KERNEL_NAME = "python"      # reported by perfbench/worker.py's environment record

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
REFACTOR_EVERY = 64

LESS = "<="
EQUAL = "="
GREATER = ">="

_SLACK_SIGN = {LESS: 1.0, GREATER: -1.0, EQUAL: 0.0}


@dataclass(frozen=True)
class LinearProgram:
    """min/max of c.x subject to rows (coefficients, relation, bound).

    ``free[j]`` marks variable j as unrestricted in sign; all other
    variables satisfy x_j >= 0.
    """

    c: np.ndarray
    rows: tuple
    sense: str = "min"
    free: np.ndarray | None = None

    @staticmethod
    def build(c, rows: Sequence[tuple], sense: str = "min", free=None) -> "LinearProgram":
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        norm_rows = []
        for coeffs, rel, rhs in rows:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (n,):
                raise ValueError("constraint dimension does not match objective")
            if rel not in (LESS, EQUAL, GREATER):
                raise ValueError(f"unknown relation {rel!r}")
            norm_rows.append((coeffs, rel, float(rhs)))
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        if free is None:
            free_mask = np.zeros(n, dtype=bool)
        else:
            free_mask = np.zeros(n, dtype=bool)
            free_mask[list(free)] = True
        return LinearProgram(c=c, rows=tuple(norm_rows), sense=sense, free=free_mask)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float | None = None
    gap: float | None = None
    max_residual: float | None = None
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _refactor(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray):
    """Rebuild a canonical tableau from scratch for the given basis.

    Long runs of (mostly degenerate) pivots let rounding noise pile up
    in the tableau until junk entries cross the pivot tolerance;
    recomputing everything from the original data resets the noise to
    one linear solve's worth.  Returns (tableau, y) with y the simplex
    multipliers of the basis.
    """
    m = A.shape[0]
    B = A[:, basis]
    body = np.linalg.solve(B, np.hstack([A, b[:, None]]))
    y = np.linalg.solve(B.T, c[basis])
    obj = np.empty(A.shape[1] + 1)
    obj[:-1] = c - y @ A
    obj[-1] = -y @ b
    tableau = np.ascontiguousarray(np.vstack([body, obj]))
    tableau[:m][:, basis] = np.eye(m)
    tableau[m, basis] = 0.0
    rhs = tableau[:m, -1]
    if rhs.size and rhs.min() < -1e-7:
        raise SolverError(f"simplex lost primal feasibility (rhs {rhs.min():.3g})")
    np.clip(rhs, 0.0, None, out=rhs)
    return tableau, y


def _run_phase(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
               n_enter: int, max_iter: int):
    """Simplex with periodic refactorisation.  Returns
    (status, tableau, y, iterations); status is a kernel constant.

    The kernel is re-entered on a fresh tableau after every REFRESH
    request, every REFACTOR_EVERY pivots, and once more after it claims
    optimality; only an optimality claim made on a fresh tableau (zero
    pivots since the last refactorisation) is accepted.
    """
    iterations = 0
    state = np.zeros(1, dtype=np.int64)
    tableau, y = _refactor(A, b, c, basis)
    while True:
        budget = min(REFACTOR_EVERY, max_iter - iterations)
        if budget <= 0:
            return _kernel_py.ITERATION_LIMIT, tableau, y, iterations
        status, its = _kernel.run_simplex(tableau, basis, n_enter, PIVOT_TOL,
                                          budget, state)
        iterations += its
        if status == _kernel_py.UNBOUNDED:
            return status, tableau, y, iterations
        if status == _kernel_py.OPTIMAL and its == 0:
            # no pivot happened since the last refresh: truly optimal, and
            # the tableau and y are already that refresh's
            return status, tableau, y, iterations
        tableau, y = _refactor(A, b, c, basis)


def _row_arrays(lp: LinearProgram):
    """The rows of ``lp`` as arrays: coefficients (m x n), right-hand
    sides, and each relation coded as the coefficient of its slack
    (+1 for <=, -1 for >=, 0 for =)."""
    m = len(lp.rows)
    A = np.array([coeffs for coeffs, _, _ in lp.rows], dtype=float).reshape(m, lp.n_vars)
    b = np.array([rhs for _, _, rhs in lp.rows], dtype=float)
    slack = np.array([_SLACK_SIGN[rel] for _, rel, _ in lp.rows], dtype=float)
    return A, b, slack


def _standard_form(A: np.ndarray, b: np.ndarray, slack: np.ndarray, free: np.ndarray):
    """Equilibrate and sign-normalise the rows, then expand the columns.

    Each row is scaled to unit infinity-norm and negated where its
    right-hand side is negative; the negation flips the slack sign with
    it.  Columns are the original variables, then the negative halves
    of the free ones, then one slack per inequality row in row order.
    Returns (A_std, b_std, slack_std, flips, col_index, col_sign): column
    k of the main block is col_sign[k] times original column
    col_index[k], and flips maps standard-form row duals back to the
    original rows.
    """
    n = A.shape[1]
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    b_std = b / scale
    flip = np.where(b_std < 0, -1.0, 1.0)
    b_std *= flip
    slack_std = slack * flip

    col_index = np.concatenate([np.arange(n), np.flatnonzero(free)])
    col_sign = np.concatenate([np.ones(n), np.full(int(free.sum()), -1.0)])
    n_main = col_index.shape[0]
    slack_rows = np.flatnonzero(slack_std != 0.0)
    A_std = np.zeros((A.shape[0], n_main + slack_rows.shape[0]))
    A_std[:, :n_main] = (A / scale[:, None] * flip[:, None])[:, col_index] * col_sign
    A_std[slack_rows, n_main + np.arange(slack_rows.shape[0])] = slack_std[slack_rows]
    return A_std, b_std, slack_std, flip / scale, col_index, col_sign


def lp_solve(lp: LinearProgram, max_iter: int | None = None) -> LPSolution:
    """Solve ``lp`` and return primal values, row duals and the duality gap.

    Row duals are reported so that sum(duals * rhs) equals the optimal
    objective at zero gap; for a minimisation, duals of ``<=`` rows are
    <= 0 and of ``>=`` rows >= 0 (flipped for maximisation).
    """
    n = lp.n_vars
    minimize = lp.sense == "min"
    c0 = lp.c if minimize else -lp.c
    free = lp.free if lp.free is not None else np.zeros(n, dtype=bool)

    A_user, b_user, slack_user = _row_arrays(lp)
    A_std, b_std, slack_std, flips_arr, col_index, col_sign = _standard_form(
        A_user, b_user, slack_user, free)
    m, n_std = A_std.shape
    n_main = col_index.shape[0]
    slack_rows = np.flatnonzero(slack_std != 0.0)

    need_artificial = np.flatnonzero(slack_std != 1.0)
    n_art = need_artificial.shape[0]
    total = n_std + n_art

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n_std] = A_std
    tableau[:m, total] = b_std
    basis = np.empty(m, dtype=np.int64)
    basis[slack_rows] = np.arange(n_main, n_std)
    basis[need_artificial] = np.arange(n_std, total)
    tableau[need_artificial, basis[need_artificial]] = 1.0

    iterations = 0
    if max_iter is None:
        max_iter = 5000 + 100 * (m + total)
    log.debug("lp_solve: %d rows, %d std cols, %d artificials", m, n_std, n_art)

    keep_rows = np.arange(m)
    if n_art:
        # phase 1: minimise the sum of artificials
        A1 = np.array(tableau[:m, :total])
        c1 = np.zeros(total)
        c1[n_std:] = 1.0
        status, tableau, _, its = _run_phase(A1, b_std, c1, basis, total, max_iter)
        iterations += its
        if status == _kernel_py.ITERATION_LIMIT:
            return LPSolution(status="stalled", iterations=iterations)
        if status == _kernel_py.UNBOUNDED:
            raise SolverError("phase 1 reported unbounded; its objective is bounded below")
        phase1 = -tableau[m, total]
        if phase1 > FEAS_TOL:
            return LPSolution(status="infeasible", iterations=iterations,
                              diagnostics={"phase1": phase1})
        # drive remaining artificials out of the basis, drop redundant rows
        drop = []
        for i in range(m):
            if basis[i] >= n_std:
                nonzero = np.flatnonzero(np.abs(tableau[i, :n_std]) > PIVOT_TOL)
                if nonzero.size:
                    _kernel_py.pivot_on(tableau, basis, i, int(nonzero[0]))
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            basis = basis[keep]
            keep_rows = keep_rows[keep]
            A_std = A_std[keep]
            b_std = b_std[keep]
            m = len(keep)

    # phase 2 on the artificial-free columns
    c_std = np.zeros(n_std)
    c_std[:n_main] = c0[col_index] * col_sign
    status, tableau, y_std, its = _run_phase(
        A_std, b_std, c_std, basis, n_std, max_iter - iterations)
    iterations += its
    if status == _kernel_py.UNBOUNDED:
        return LPSolution(status="unbounded", iterations=iterations)
    if status == _kernel_py.ITERATION_LIMIT:
        return LPSolution(status="stalled", iterations=iterations)

    x_std = np.zeros(n_std)
    x_std[basis] = tableau[:m, n_std]
    x = x_std[:n].copy()
    x[col_index[n:]] -= x_std[n:n_main]

    y_full = np.zeros(len(lp.rows))
    y_full[keep_rows] = y_std
    duals0 = flips_arr * y_full

    primal0 = float(c0 @ x)
    dual0 = float(duals0 @ b_user)
    gap = abs(primal0 - dual0)

    excess = A_user @ x - b_user
    violation = np.where(slack_user == 0.0, np.abs(excess), slack_user * excess)
    residual = max(0.0, float(violation.max(initial=0.0)),
                   float(-(x[~free]).min(initial=0.0)))

    objective = primal0 if minimize else -primal0
    duals = duals0 if minimize else -duals0
    log.debug("lp_solve: optimal obj=%.12g gap=%.3g iters=%d",
              objective, gap, iterations)
    return LPSolution(
        status="optimal", x=x, duals=duals, objective=objective,
        gap=gap, max_residual=residual, iterations=iterations,
        diagnostics={"rows": len(lp.rows), "cols": n},
    )


def require_optimal(solution: LPSolution, what: str = "linear program") -> LPSolution:
    if not solution.optimal:
        raise SolverError(f"{what} finished with status {solution.status}")
    return solution
