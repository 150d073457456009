"""The near-degenerate fit-LP census: ``lp_solve`` against HiGHS.

Draws 3000 pairs (T, B) with ``numpy.random.default_rng(12345)``, as
``test_near_degenerate_fit_lps_are_solved_or_refused`` draws them with
hypothesis: B is an n_x x n_y channel, n_x and n_y in 2..4, of integer
weights 0..9 with each row normalised, and each row after the first
repeats an earlier one with probability 1/2; T is B with 1e-8 moved
from one entry of a row to another.  Each fit, T from B and B from T,
is solved by ``lp_solve`` from ``conftest._fit_start`` and checked
against scipy's HiGHS as the test checks it (``conftest._fit_mismatch``).
Prints the solved, raised and wrong counts, the total pivots and each
solver's time, and exits 1 on any wrong answer or when more fits raise
``SolverError`` than RAISES.  All 6000 fits solve, in 38516 pivots.
On one 2-vCPU Xeon core a run takes about 22 s, two thirds of it in
HiGHS.  pytest does not collect this file.

Usage: PYTHONPATH=src python tests/census_fits.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from conftest import _fit_mismatch, _fit_program, _fit_start, _moved
from leakgames.errors import SolverError
from leakgames.simplex import lp_solve

PAIRS = 3000
RAISES = 0


def draw_pair(rng):
    """One (T, B) pair, drawn as the module docstring says."""
    while True:
        n_x, n_y = rng.integers(2, 5), rng.integers(2, 5)
        data = rng.integers(0, 10, size=(n_x, n_y))
        if data.sum(axis=1).all():
            break
    B = data / data.sum(axis=1, keepdims=True)
    for x in range(1, n_x):
        if rng.random() < 0.5:
            B[x] = B[rng.integers(0, x)]
    x = rng.integers(0, n_x)
    cols = np.flatnonzero(B[x] >= 1e-8)
    j = cols[rng.integers(0, cols.size)]
    others = np.flatnonzero(np.arange(n_y) != j)
    return _moved(B, x, j, others[rng.integers(0, others.size)]), B


def main() -> int:
    rng = np.random.default_rng(12345)
    solved = raised = wrong = pivots = 0
    lp_seconds = highs_seconds = 0.0
    for _ in range(PAIRS):
        T, B = draw_pair(rng)
        for target, base in ((T, B), (B, T)):
            start = time.perf_counter()
            try:
                sol = lp_solve(_fit_program(target, base), _fit_start(target, base))
            except SolverError as exc:
                raised += 1
                print(f"raised: {exc}\n  T = {target.tolist()}\n  B = {base.tolist()}")
                continue
            finally:
                lp_seconds += time.perf_counter() - start
            pivots += sol.iterations
            start = time.perf_counter()
            mismatch = _fit_mismatch(target, base, sol)
            highs_seconds += time.perf_counter() - start
            if mismatch is None:
                solved += 1
            else:
                wrong += 1
                print(f"WRONG: {mismatch}\n  T = {target.tolist()}\n  B = {base.tolist()}")
    print(f"{2 * PAIRS} fits: {solved} solved, {raised} raised (at most {RAISES}), "
          f"{wrong} wrong; {pivots} pivots; lp_solve {lp_seconds:.1f} s, "
          f"HiGHS {highs_seconds:.1f} s")
    return 1 if wrong or raised > RAISES else 0


if __name__ == "__main__":
    sys.exit(main())
