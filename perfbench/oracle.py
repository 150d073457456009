"""Independent reference answers for the benchmark's jobs.

Nothing here imports leakgames.  Every linear program is assembled
from the raw arrays the inputs were generated from (channel tensor
C[d, a, x, y], prior pi[x], gain matrix G[w, x]) and solved with
scipy's HiGHS, so a shared bug in leakgames' LP builders or its
simplex cannot make a wrong answer look right.

The reference for VI_mixed is the behavioural value: a mixture over
defender functions pays off through its per-action marginals only.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, vstack

TOL = 1e-7


def _solve(c, A_ub, b_ub, A_eq, b_eq, bounds) -> float:
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def pieces(C: np.ndarray, pi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Epigraph pieces k[a, y, w, d] = sum_x pi(x) C[d, a, x, y] G[w, x]."""
    return np.einsum("x,daxy,wx->aywd", pi, C, G)


def payoffs(C: np.ndarray, pi: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Pure-profile posterior vulnerabilities U[d, a]."""
    return np.einsum("x,daxy,wx->dayw", pi, C, G).max(axis=3).sum(axis=2)


def matrix_game_value(U: np.ndarray) -> float:
    """min over delta of max over a of delta . U[:, a]."""
    n_d, n_a = U.shape
    c = np.r_[np.zeros(n_d), 1.0]
    A_ub = np.hstack([U.T, -np.ones((n_a, 1))])
    A_eq = np.r_[np.ones(n_d), 0.0][None, :]
    bounds = [(0, None)] * n_d + [(None, None)]
    return _solve(c, A_ub, np.zeros(n_a), A_eq, [1.0], bounds)


def convex_game_value(k: np.ndarray) -> float:
    """min over delta of max over a of sum_y max_w k[a, y, w] . delta.

    Variables delta (n_d), t[a, y] (n_a n_y) and z; one row per piece,
    one per branch, and the simplex row.
    """
    n_a, n_y, n_w, n_d = k.shape
    n_t = n_a * n_y
    nvar = n_d + n_t + 1
    n_pieces = n_a * n_y * n_w
    piece = np.arange(n_pieces)
    t_col = n_d + piece // n_w
    rows = [np.repeat(piece, n_d), piece]
    cols = [np.tile(np.arange(n_d), n_pieces), t_col]
    vals = [k.reshape(-1), -np.ones(n_pieces)]
    branch = n_pieces + np.arange(n_a)
    rows += [np.repeat(branch, n_y), branch]
    cols += [n_d + np.arange(n_t), np.full(n_a, nvar - 1)]
    vals += [np.ones(n_t), -np.ones(n_a)]
    A_ub = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_pieces + n_a, nvar)).tocsr()
    c = np.zeros(nvar)
    c[-1] = 1.0
    A_eq = np.zeros((1, nvar))
    A_eq[0, :n_d] = 1.0
    bounds = [(0, None)] * n_d + [(None, None)] * (n_t + 1)
    return _solve(c, A_ub, np.zeros(n_pieces + n_a), A_eq, [1.0], bounds)


def branch_worst_case(k: np.ndarray, delta: np.ndarray) -> float:
    """max over a of sum_y max_w k[a, y, w] . delta."""
    return float((k @ delta).max(axis=2).sum(axis=1).max())


def game_values(C: np.ndarray, pi: np.ndarray, G: np.ndarray) -> dict:
    """Reference values of all seven solve modes."""
    U = payoffs(C, pi, G)
    k = pieces(C, pi, G)
    hidden = convex_game_value(k)
    behavioral = max(convex_game_value(k[a:a + 1]) for a in range(k.shape[0]))
    return {
        "I": matrix_game_value(U),
        "II": float(U.max(axis=1).min()),
        "III": float(U.min(axis=0).max()),
        "IV": hidden,
        "V": hidden,
        "VI_mixed": behavioral,
        "VI_behavioral": behavioral,
    }


def prunable_pieces(k: np.ndarray) -> tuple[int, int]:
    """(prunable, total) epigraph pieces of k[a, y, w, d].

    A piece is prunable when it is zero, equal to an earlier piece of
    the same (a, y), or componentwise dominated by another one there.
    """
    n_a, n_y, n_w, _ = k.shape
    prunable = 0
    for a in range(n_a):
        for y in range(n_y):
            P = k[a, y]
            le = (P[:, None, :] <= P[None, :, :]).all(axis=2)
            eq = le & le.T
            for w in range(n_w):
                dominated = (le[w] & ~eq[w]).any()
                duplicate = eq[w, :w].any()
                if dominated or duplicate or not P[w].any():
                    prunable += 1
    return prunable, n_a * n_y * n_w


# --- password checker ------------------------------------------------------

def checker_tensor(n: int):
    """Channel tensor of the early-exit checker, built arithmetically.

    Returns (orders, lows, C) with C[d, a, x, y]: orders and low inputs
    in label (string) order, secrets in the same order as lows, and
    observables F@1 .. F@n, T@n.
    """
    orders = sorted("".join(map(str, p))
                    for p in itertools.permutations(range(1, n + 1)))
    lows = ["".join(b) for b in itertools.product("01", repeat=n)]
    bits = np.array([[int(c) for c in s] for s in lows])
    diff = bits[:, None, :] != bits[None, :, :]          # [a, x, bit]
    C = np.zeros((len(orders), len(lows), len(lows), n + 1))
    a_idx, x_idx = np.meshgrid(np.arange(len(lows)), np.arange(len(lows)), indexing="ij")
    for d, order in enumerate(orders):
        checked = diff[:, :, [int(c) - 1 for c in order]]  # in checking order
        first = np.where(checked.any(axis=2), checked.argmax(axis=2), n)
        C[d, a_idx, x_idx, first] = 1.0
    return orders, lows, C


def checker_reference(C: np.ndarray, pi: np.ndarray) -> dict:
    """Value of the hidden simultaneous checker game and the worst case
    of the uniform check order, under Bayes vulnerability."""
    k = pieces(C, pi, np.eye(len(pi)))
    uniform = np.full(C.shape[0], 1.0 / C.shape[0])
    return {"value": convex_game_value(k),
            "uniform_worst_case": branch_worst_case(k, uniform)}


# --- channels --------------------------------------------------------------

def hidden_choice(weights, members):
    return sum(w * M for w, M in zip(weights, members))


def visible_choice(weights, members):
    return np.hstack([w * M for w, M in zip(weights, members)])


def refinement_residual(target: np.ndarray, base: np.ndarray) -> float:
    """min over row-stochastic R of max |base @ R - target|.

    Zero exactly when target is a post-processing of base.
    """
    n_x, k = base.shape
    n_y = target.shape[1]
    n_r = k * n_y                       # R[z, j] at column z * n_y + j
    nvar = n_r + 1
    # rows (x, j): sum_z base[x, z] R[z, j]
    rx, rj, rz = np.meshgrid(np.arange(n_x), np.arange(n_y), np.arange(k), indexing="ij")
    row = (rx * n_y + rj).reshape(-1)
    col = (rz * n_y + rj).reshape(-1)
    val = base[rx, rz].reshape(-1)
    fit = coo_matrix((val, (row, col)), shape=(n_x * n_y, nvar)).tocsr()
    t = coo_matrix((np.ones(n_x * n_y), (np.arange(n_x * n_y), np.full(n_x * n_y, n_r))),
                   shape=(n_x * n_y, nvar)).tocsr()
    A_ub = vstack([fit - t, -fit - t]).tocsr()
    b_ub = np.r_[target.reshape(-1), -target.reshape(-1)]
    A_eq = np.zeros((k, nvar))
    for z in range(k):
        A_eq[z, z * n_y:(z + 1) * n_y] = 1.0
    c = np.zeros(nvar)
    c[-1] = 1.0
    return _solve(c, A_ub, b_ub, A_eq, np.ones(k), [(0, None)] * nvar)


def equivalent(A: np.ndarray, B: np.ndarray, tol: float = TOL) -> bool:
    return (refinement_residual(A, B) <= tol
            and refinement_residual(B, A) <= tol)


def vulnerabilities(pi: np.ndarray, C: np.ndarray, G: np.ndarray) -> dict:
    prior = float((G @ pi).max())
    posterior = float((G @ (pi[:, None] * C)).max(axis=0).sum())
    return {
        "prior_vulnerability": prior,
        "posterior_vulnerability": posterior,
        "additive_leakage": posterior - prior,
        "multiplicative_leakage": posterior / prior if prior else None,
    }
