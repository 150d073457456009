"""Numpy simplex pivot loop, the one kernel behind leakgames.simplex.

The row elimination skips the rows whose elimination factor is zero.
Subtracting 0 * pivot row would leave an entry unchanged except, at
most, for the sign of a zero, which no comparison in the loop can see,
so the pivot path is the same as with a full-tableau update.

Pivot selection is Dantzig's most-negative-reduced-cost rule with the
ratio-test tie broken towards the numerically largest pivot element.
After STALL_LIMIT consecutive degenerate pivots the loop switches to
Bland's rule (lowest index, lowest basis tie break), whose finiteness
guarantee breaks any cycle; one non-degenerate pivot switches back.
The stall counter lives in ``state`` so it survives tableau refreshes.

Two situations make the loop hand control back to the caller with
REFRESH instead of pivoting on rotten data: accumulated amplification
from small pivots, and a small pivot candidate on a tableau that is not
freshly refactored (entries that small are indistinguishable from
rounding noise unless the tableau is fresh).
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2
REFRESH = 3

SMALL_PIVOT = 1e-2
AMPLIFICATION_CAP = 1e6
TRUSTED_PIVOT = 1e-8
DEGENERATE_STEP = 1e-12
STALL_LIMIT = 40


def run_simplex(tableau: np.ndarray, basis: np.ndarray, n_enter: int,
                tol: float, max_iter: int, state: np.ndarray) -> tuple[int, int]:
    """Pivot ``tableau`` in place until optimal or a refresh is due.

    tableau has shape (m+1, n+1): m constraint rows [A | b] with b >= 0,
    then the reduced-cost row [c_bar | -objective].  ``basis`` holds the
    basic variable of each constraint row; ``state[0]`` is the running
    degenerate-pivot count.  The caller refactorises the tableau
    between calls, so iteration 0 of every call sees fresh data.

    Returns (status, iterations).
    """
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    obj = tableau[m]
    amplification = 1.0
    for it in range(max_iter):
        if amplification > AMPLIFICATION_CAP:
            return REFRESH, it
        bland = state[0] >= STALL_LIMIT
        if bland:
            negative = np.nonzero(obj[:n_enter] < -tol)[0]
            if negative.size == 0:
                return OPTIMAL, it
            j = int(negative[0])
        else:
            j = int(np.argmin(obj[:n_enter]))
            if obj[j] >= -tol:
                return OPTIMAL, it

        col = tableau[:m, j]
        rhs = tableau[:m, n]
        positive = np.nonzero(col > tol)[0]
        if positive.size == 0:
            return UNBOUNDED, it
        ratios = rhs[positive] / col[positive]
        ratios = np.where(ratios < 0.0, 0.0, ratios)
        best = ratios.min()
        ties = positive[ratios == best]
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            vals = col[ties]
            widest = ties[vals == vals.max()]
            r = int(widest[np.argmin(basis[widest])])

        pivot = tableau[r, j]
        if pivot < TRUSTED_PIVOT and it > 0:
            return REFRESH, it
        if pivot < SMALL_PIVOT:
            amplification *= SMALL_PIVOT / pivot
        if best <= DEGENERATE_STEP:
            state[0] += 1
        else:
            state[0] = 0
        pivot_on(tableau, basis, r, j)
    return ITERATION_LIMIT, max_iter


def pivot_on(tableau: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Make column j basic in row r: the rank-1 update of ``tableau``."""
    tableau[r] /= tableau[r, j]
    prow = tableau[r]
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    rows = np.flatnonzero(factors)
    tableau[rows] -= np.outer(factors[rows], prow)
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j
