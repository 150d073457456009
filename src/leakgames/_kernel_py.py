"""Numpy revised-simplex pivot loop, the one kernel behind leakgames.simplex.

The loop carries ``work = [B^-1 | x_B ; -y | -z]``, (m+1) x (m+1), for
the basis B.  It prices all columns once per call, d = c - yA from the
reinverted y; each pivot then forms the pivot row e_r^T B^-1 A (its one
product with all of A), updates d and the pricing weights from it,
forms the entering column B^-1 a_j and applies the tableau pivot's row
operations to ``work`` alone (the tableau is ``work`` times [A | b]).

Entering column: Devex pricing (Harris, Math. Prog. 5, 1973), the
largest d_j^2 / w_j among d_j < -tol.  The reference weights w, one per
column, are kept by the caller, updated from the pivot row, and reset
to 1 once an entering column's weight exceeds DEVEX_RESET.  If the
chosen pivot is narrow, below SMALL_PIVOT and SMALL_RELATIVE times its
column's largest entry, the other improving columns are tried in score
order for a wider one.  Leaving row: Harris's ratio test (ratios within
HARRIS_TOL of the bound tie), largest pivot, then lowest basic index; a
leaving value below 0 (rounding) is set to 0 first, so the step is the
ratio test's and never goes backwards.  REFRESH asks for a reinversion
at a pivot below TRUSTED_PIVOT on an inverse that is not fresh.
``dual_pivot`` repairs an optimal basis whose exact values are
infeasible; the caller bars the column that the previous repair took
out from entering, so that two bases whose values round below zero in
turn cannot send the repair back and forth between them.
"""

from __future__ import annotations

import numpy as np

OPTIMAL, UNBOUNDED, ITERATION_LIMIT, REFRESH = range(4)

SMALL_PIVOT = 1e-2
TRUSTED_PIVOT = 1e-8
HARRIS_TOL = 1e-12
SMALL_RELATIVE = 1e-6
DEVEX_RESET = 1e12


def run_simplex(work: np.ndarray, basis: np.ndarray, A: np.ndarray, c: np.ndarray,
                tol: float, max_iter: int, weights: np.ndarray) -> tuple[int, int]:
    """Pivot ``work`` (for the columns ``basis`` of A, x_B >= 0),
    ``basis`` and the Devex ``weights`` in place until optimal or a
    refresh is due; the caller reinverts between calls, keeping
    ``weights`` across them.  Returns (status, iterations)."""
    m = A.shape[0]
    d = c + work[m, :m] @ A
    d[basis] = 0.0
    for it in range(max_iter):
        improving = np.flatnonzero(d < -tol)
        if improving.size == 0:
            return OPTIMAL, it
        score = d[improving] ** 2 / weights[improving]
        j = int(improving[np.argmax(score)])
        step = _ratio_test(work, basis, A, d, j, tol)
        if step is None:
            return UNBOUNDED, it
        if step[2]:
            for k in improving[np.argsort(-score, kind="stable")][1:]:
                other = _ratio_test(work, basis, A, d, int(k), tol)
                if other is not None and not other[2]:
                    j, step = int(k), other
                    break
        col, r, _ = step

        pivot = col[r]
        if pivot < TRUSTED_PIVOT and it > 0:
            return REFRESH, it
        row = work[r, :m] @ A / pivot
        np.maximum(weights, row * row * weights[j], out=weights)
        weights[basis[r]] = max(weights[j] / (pivot * pivot), 1.0)
        if weights[j] > DEVEX_RESET:
            weights[:] = 1.0
        d -= d[j] * row
        work[r, m] = max(work[r, m], 0.0)
        pivot_on(work, r, col)
        basis[r] = j
        d[basis] = 0.0
    return ITERATION_LIMIT, max_iter


def _ratio_test(work, basis, A, d, j, tol):
    """Entering column j as [B^-1 a_j ; d_j], its pivot row and whether
    the pivot is narrow (below SMALL_PIVOT and below SMALL_RELATIVE times
    the column's largest entry); None when no entry of the column is
    positive."""
    m = A.shape[0]
    col = work[:, :m] @ A[:, j]
    col[m] = d[j]
    positive = np.flatnonzero(col[:m] > tol)
    if positive.size == 0:
        return None
    rhs, pivots = np.maximum(work[positive, m], 0.0), col[positive]
    ties = positive[rhs / pivots <= ((rhs + HARRIS_TOL) / pivots).min()]
    if ties.size > 1:
        ties = ties[col[ties] == col[ties].max()]
    r = int(ties[np.argmin(basis[ties])]) if ties.size > 1 else int(ties[0])
    return col, r, col[r] < SMALL_PIVOT and col[r] < SMALL_RELATIVE * np.abs(col[:m]).max()


def dual_pivot(work: np.ndarray, basis: np.ndarray, A: np.ndarray, c: np.ndarray,
               x_B: np.ndarray, tol: float, barred: int) -> int:
    """One dual simplex pivot on the row of the most negative entry of
    x_B (the basis's exact values) if it is below -HARRIS_TOL, entering
    by Harris's test on that row of B^-1 A; column ``barred`` (-1 for
    none) never enters.  Returns the column that left, or -1 when it
    made no pivot."""
    m = A.shape[0]
    r = int(np.argmin(x_B)) if m else 0
    if not m or x_B[r] >= -HARRIS_TOL:
        return -1
    alpha = work[r, :m] @ A
    d = np.maximum(c + work[m, :m] @ A, 0.0)
    d[basis] = 0.0
    entering = np.flatnonzero(alpha < -tol)
    entering = entering[entering != barred]
    if entering.size == 0:
        return -1
    ratios = d[entering] / -alpha[entering]
    ties = entering[ratios <= ((d[entering] + HARRIS_TOL) / -alpha[entering]).min()]
    j = int(ties[np.argmin(alpha[ties])])
    col = work[:, :m] @ A[:, j]
    col[m] = d[j]
    pivot_on(work, r, col)
    left, basis[r] = int(basis[r]), j
    return left


def pivot_on(work: np.ndarray, r: int, col: np.ndarray) -> None:
    """Apply to ``work`` the row operations that turn ``col`` into the
    r-th unit vector, skipping rows whose factor is zero."""
    work[r] /= col[r]
    factors = col.copy()
    factors[r] = 0.0
    rows = np.flatnonzero(factors)
    work[rows] -= np.outer(factors[rows], work[r])
