"""Benchmark the simplex pivot kernels: compiled extension vs numpy.

Swaps the kernel module inside leakgames.simplex between runs, so both
lanes execute the exact same pivot sequences on the same problems.

Usage: python benchmarks/bench_simplex.py [--repeats N]
"""

import argparse
import time

import numpy as np

import leakgames.simplex as simplex
from leakgames import _kernel_py
from leakgames.games import hidden_branch_pieces
from leakgames.minimax import (
    convex_game_attacker_lp,
    convex_game_lp,
    matrix_game_lp,
    prune_pieces,
)
from leakgames.pwdcheck import build_game, bundled_prior, secret_labels
from leakgames.simplex import lp_solve
from leakgames.vuln import Prior

try:
    from leakgames import _kernel as _kernel_c
except ImportError:
    _kernel_c = None


def random_lp_batch(count=60, m=40, n=25, seed=0):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        A = rng.normal(size=(m, n))
        rows = [(A[i], "<=", float(rng.uniform(0.5, 2.0))) for i in range(m)]
        rows.append((np.ones(n), "=", 1.0))
        batch.append(simplex.LinearProgram.build(rng.normal(size=n), rows))
    return batch


def matrix_game_batch(count=40, size=12, seed=1):
    rng = np.random.default_rng(seed)
    return [matrix_game_lp(rng.uniform(size=(size, size))) for _ in range(count)]


def checker_pieces(n, prior):
    game = build_game(n, prior)
    return [hidden_branch_pieces(game, a) for a in game.attackers]


def checker_epigraph_lp(n, prior):
    """The unpruned defender epigraph LP: one row per piece."""
    lp, _, _ = convex_game_lp(checker_pieces(n, prior))
    return lp


def checker_attacker_lp(n, prior):
    """The LP solve_convex_linear_game solves for the checker game: the
    column player's LP over the pruned pieces, which has fewer rows than
    the pruned epigraph LP."""
    kept = prune_pieces(checker_pieces(n, prior))
    assert kept.attacker_rows < kept.defender_rows
    lp, _ = convex_game_attacker_lp(kept)
    return lp


CASES = [
    ("random dense LPs (60 x 41x25)", lambda: random_lp_batch()),
    ("matrix games (40 x 12x12)", lambda: matrix_game_batch()),
    ("3-bit checker epigraph LP", lambda: [checker_epigraph_lp(3, bundled_prior("pihat"))]),
    ("4-bit checker epigraph LP", lambda: [checker_epigraph_lp(
        4, Prior.uniform(secret_labels(4)))]),
    ("4-bit checker LP as solved (pruned)", lambda: [checker_attacker_lp(
        4, Prior.uniform(secret_labels(4)))]),
]


def run_case(problems, kernel, repeats):
    simplex._kernel = kernel
    best = float("inf")
    objectives = []
    for _ in range(repeats):
        start = time.perf_counter()
        objectives = [lp_solve(lp).objective for lp in problems]
        best = min(best, time.perf_counter() - start)
    return best, objectives


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'case':38s} {'python':>10s} {'compiled':>10s} {'speedup':>8s}")
    for name, build in CASES:
        problems = build()
        t_py, obj_py = run_case(problems, _kernel_py, args.repeats)
        if _kernel_c is None:
            print(f"{name:38s} {t_py:9.3f}s {'n/a':>10s} {'':>8s}")
            continue
        t_c, obj_c = run_case(problems, _kernel_c, args.repeats)
        same = np.allclose(obj_py, obj_c, atol=1e-12, equal_nan=True)
        flag = "" if same else "  RESULTS DIFFER"
        print(f"{name:38s} {t_py:9.3f}s {t_c:9.3f}s {t_py / t_c:7.2f}x{flag}")
    simplex._kernel = _kernel_c or _kernel_py


if __name__ == "__main__":
    main()
