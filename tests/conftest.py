"""Shared builders (the demo game, published-table channels, random
generators) and the reference oracles that the library does not run."""

from dataclasses import dataclass

import numpy as np
import pytest

from leakgames.channels import Channel
from leakgames.games import LeakageGame
from leakgames.matrix import LabeledMatrix
from leakgames.minimax import _payoff_array
from leakgames.simplex import LinearProgram, LPSolution
from leakgames.vuln import Prior, VulnMeasure


def channel(rows, cols, data) -> Channel:
    return Channel(LabeledMatrix(tuple(rows), tuple(cols), data))


# binary demo: two programs (multiply / noisy copy) against a binary low input
DEMO_CHANNELS = {
    ("0", "0"): [[1, 0], [1, 0]],
    ("0", "1"): [[1, 0], [0, 1]],
    ("1", "0"): [[0, 1], [1, 0]],
    ("1", "1"): [[1 / 3, 2 / 3], [2 / 3, 1 / 3]],
}


def demo_game() -> LeakageGame:
    chans = {k: channel(("0", "1"), ("0", "1"), v) for k, v in DEMO_CHANNELS.items()}
    return LeakageGame(("0", "1"), ("0", "1"), chans,
                       Prior.uniform(("0", "1")), VulnMeasure.bayes())


@pytest.fixture
def game2x2() -> LeakageGame:
    return demo_game()


def mix_example_channels():
    """The 2x2 channels used throughout the composition examples."""
    c1 = channel(("x1", "x2"), ("y1", "y2"), [[1 / 2, 1 / 2], [1 / 3, 2 / 3]])
    c2 = channel(("x1", "x2"), ("y1", "y2"), [[1 / 3, 2 / 3], [1 / 2, 1 / 2]])
    c3 = channel(("x1", "x2"), ("y1", "y3"), [[1 / 3, 2 / 3], [1 / 2, 1 / 2]])
    return c1, c2, c3


def random_channel(rng, secrets, cols) -> Channel:
    data = rng.dirichlet(np.ones(len(cols)), size=len(secrets))
    return channel(secrets, cols, data)


def random_deterministic_channel(rng, secrets, cols) -> Channel:
    data = np.zeros((len(secrets), len(cols)))
    hits = rng.integers(0, len(cols), size=len(secrets))
    data[np.arange(len(secrets)), hits] = 1.0
    return channel(secrets, cols, data)


def random_prior(rng, secrets) -> Prior:
    w = rng.dirichlet(np.ones(len(secrets)))
    return Prior(dict(zip(secrets, w)))


def random_measure(rng, secrets) -> VulnMeasure:
    if rng.random() < 0.5:
        return VulnMeasure.bayes()
    gain = rng.uniform(0.0, 2.0, size=(3, len(secrets)))
    return VulnMeasure.from_gain(("w1", "w2", "w3"), tuple(secrets), gain)


HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _fit_lp(T: np.ndarray, B: np.ndarray):
    """The L-infinity fit LP of target matrix T from base matrix B:
    min t  s.t.  |B @ R - T| <= t entrywise, R >= 0, each row of R
    summing to 1.  Variables are R column by column (column j of R
    rebuilds column j of T), then t.  Returns (c, A_ub, b_ub, A_eq, b_eq).
    """
    k, n = B.shape[1], T.shape[1]
    fit = np.kron(np.eye(n), B)
    t_col = -np.ones((fit.shape[0], 1))
    a_ub = np.block([[fit, t_col], [-fit, t_col]])
    b_ub = np.concatenate([T.T.ravel(), -T.T.ravel()])
    a_eq = np.hstack([np.tile(np.eye(k), n), np.zeros((k, 1))])
    c = np.zeros(k * n + 1)
    c[-1] = 1.0
    return c, a_ub, b_ub, a_eq, np.ones(k)


def _moved(B: np.ndarray, x: int, j: int, k: int) -> np.ndarray:
    """B with 1e-8 of row x moved from column j to column k."""
    T = B.copy()
    T[x, j] -= 1e-8
    T[x, k] += 1e-8
    return T


def _fit_program(T: np.ndarray, B: np.ndarray) -> LinearProgram:
    """``_fit_lp`` of T from B as one LinearProgram, rows in its order."""
    c, a_ub, b_ub, a_eq, b_eq = _fit_lp(T, B)
    return LinearProgram.build(c, np.vstack([a_ub, a_eq]),
                               ["<="] * len(b_ub) + ["="] * len(b_eq),
                               np.concatenate([b_ub, b_eq]))


def _fit_start(T: np.ndarray, B: np.ndarray) -> tuple:
    """A feasible basis of ``_fit_program(T, B)`` as ``lp_solve``'s start
    (basic variables, rows with a basic slack): R[i, 0] = 1 is basic on
    each row-sum row, t on the inequality row of the largest |B R - T|,
    and every other inequality row keeps its slack.  With the slack rows
    eliminated the basis is [[1^T, -1], [I, 0]] up to signs, which is
    nonsingular."""
    c, a_ub, b_ub, _, _ = _fit_lp(T, B)
    k = B.shape[1]
    excess = a_ub[:, :k].sum(axis=1) - b_ub       # each row at R[:, 0] = 1, t = 0
    return (np.append(np.arange(k), c.size - 1),
            np.delete(np.arange(b_ub.size), np.argmax(excess)))


def _certified_optimal(T: np.ndarray, B: np.ndarray, sol: LPSolution,
                       tol: float = 1e-12) -> bool:
    """Whether ``sol``'s x and row duals, checked here against the data
    of ``_fit_lp(T, B)``, are a primal-dual pair that proves ``sol``
    optimal within ``tol``: x >= 0 and feasible, the duals of the <=
    rows <= 0, every reduced cost >= 0, and no duality gap."""
    c, a_ub, b_ub, a_eq, b_eq = _fit_lp(T, B)
    A, b, n_ub = np.vstack([a_ub, a_eq]), np.concatenate([b_ub, b_eq]), b_ub.shape[0]
    x, y = sol.x, sol.duals
    excess = A @ x - b
    return max(-x.min(), excess[:n_ub].max(), np.abs(excess[n_ub:]).max(), y[:n_ub].max(),
               -(c - A.T @ y).min(), abs(c @ x - b @ y)) <= tol


def _fit_mismatch(T: np.ndarray, B: np.ndarray, sol: LPSolution) -> str | None:
    """Why ``sol``, lp_solve's solution of ``_fit_program(T, B)`` from
    ``_fit_start(T, B)``, is wrong, or None: it must be optimal, feasible
    to 1e-9, and within 1e-9 of HiGHS's objective, plus however far
    HiGHS's own point violates the LP (its tolerances apply to its
    internally scaled LP).
    Where HiGHS gives up (about one fit in 3000), there is no reference.
    On some fits of a target made of one repeated row, from a base
    within 1e-8 of it, HiGHS stops about 5e-9 above the optimum of 0
    (an exact fit exists, and lp_solve finds it), so an objective below
    HiGHS's counts when ``_certified_optimal`` proves it."""
    from scipy.optimize import linprog

    if not sol.optimal:
        return f"status {sol.status}"
    if sol.max_residual > 1e-9:
        return f"residual {sol.max_residual:.3g}"
    c, a_ub, b_ub, a_eq, b_eq = _fit_lp(T, B)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options=HIGHS_TIGHT)
    if ref.status == 0:
        ref_violation = max(0.0, -ref.x.min(), (a_ub @ ref.x - b_ub).max(),
                            np.abs(a_eq @ ref.x - b_eq).max())
        off = sol.objective - ref.fun
        if abs(off) > 1e-9 + ref_violation and not (off < 0 and _certified_optimal(T, B, sol)):
            return f"objective {sol.objective!r}, HiGHS {ref.fun!r}"
    return None


def _highs_fit(T: np.ndarray, B: np.ndarray, lower: np.ndarray, total: float):
    """A minimiser X of ``_fit_lp``'s t for T from B, with X >= lower
    and each row of X summing to ``total``, by scipy's HiGHS.  Where
    HiGHS gives up at the tight tolerances (status 4, seen on
    near-degenerate fits), it runs again with only the primal tolerance
    tight.  Presolve stays on: without it HiGHS has returned points that
    violate the fit rows by 3e-8.  None where HiGHS reports no optimum."""
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq = _fit_lp(T, B)
    bounds = [(lo, None) for lo in lower.T.ravel()] + [(0, None)]
    for options in (HIGHS_TIGHT, {"primal_feasibility_tolerance": 1e-10}):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=total * b_eq,
                      bounds=bounds, method="highs", options=options)
        if res.status != 4:
            break
    return res.x[:-1].reshape(T.shape[1], B.shape[1]).T if res.status == 0 else None


def _postprocessing_fit(target: Channel, base: Channel) -> float:
    """Reference oracle for equivalence: the best reconstruction of
    ``target`` as ``base`` followed by a stochastic post-processing step.

    Solves ``_fit_lp`` with HiGHS (``_highs_fit``).  Such an R exists
    with t = 0 exactly when target leaks no more than base.  ``base``
    must list the secrets in target's order.  Returns the largest entry
    error of the best R found.  HiGHS's tolerances are 1e-10, so its R
    may miss the optimum by about as much.  Each R is clipped at 0 and
    its rows renormalised, so its error bounds the optimum from above.
    One refinement step then fits the error left by the renormalised R,
    magnified to 1e-3, by a correction whose rows sum to 0 (skipped
    where HiGHS reports no optimum for it), and the smaller error is
    returned.  Refining the renormalised R matters: HiGHS's row sums
    are off 1 by up to 1e-10, and a correction that keeps them would
    leave that much for the final renormalisation to spread over T.
    """
    B, T = base.data, target.data

    def normalised(R):
        R = np.clip(R, 0.0, None)
        return R / R.sum(axis=1, keepdims=True)

    def error(R):
        return float(np.abs(B @ R - T).max())

    R = _highs_fit(T, B, np.zeros((B.shape[1], T.shape[1])), 1.0)
    assert R is not None, "HiGHS found no optimal fit"
    R = normalised(R)
    first = error(R)
    if first < 1e-15:                   # rounding: nothing left to refine
        return first
    scale = 1e-3 / first
    D = _highs_fit(scale * (T - B @ R), B, -scale * R, 0.0)
    return first if D is None else min(first, error(normalised(R + D / scale)))


def closed_form_2x2(payoff):
    """Completely mixed saddle point of a 2x2 game, if the formula applies.

    Returns (value, delta(row0), alpha(col0)) when the denominator is
    nonzero and both strategy values land in [0, 1]; None otherwise.
    """
    u = _payoff_array(payoff)
    if u.shape != (2, 2):
        raise ValueError("closed form needs a 2x2 payoff matrix")
    den = u[0, 0] - u[0, 1] - u[1, 0] + u[1, 1]
    if den == 0.0:
        return None
    d0 = (u[1, 1] - u[1, 0]) / den
    a0 = (u[1, 1] - u[0, 1]) / den
    if not (0.0 <= d0 <= 1.0 and 0.0 <= a0 <= 1.0):
        return None
    delta = np.array([d0, 1.0 - d0])
    alpha = np.array([a0, 1.0 - a0])
    value = float(delta @ u @ alpha)
    return value, float(d0), float(a0)


@dataclass
class Bracket:
    lower: float
    upper: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray

    def contains(self, value: float, slack: float = 1e-9) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    @property
    def width(self) -> float:
        return self.upper - self.lower


def fictitious_play(payoff, iters: int, seed: int = 0) -> Bracket:
    """Iterative best-response bracketing of the game value.

    Both players repeatedly best-respond to the opponent's empirical
    mixture (ties broken uniformly at random under ``seed``).  At any
    iteration count the returned interval [lower, upper] contains the
    game value; the width shrinks as iters grows.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    u = _payoff_array(payoff)
    n_d, n_a = u.shape
    rng = np.random.default_rng(seed)
    row_counts = np.zeros(n_d)
    col_counts = np.zeros(n_a)
    row_score = np.zeros(n_d)  # cumulative payoff of each row vs col history
    col_score = np.zeros(n_a)  # cumulative payoff of each col vs row history
    for _ in range(iters):
        best_rows = np.flatnonzero(row_score == row_score.min())
        d = int(rng.choice(best_rows))
        best_cols = np.flatnonzero(col_score == col_score.max())
        a = int(rng.choice(best_cols))
        row_counts[d] += 1
        col_counts[a] += 1
        row_score += u[:, a]
        col_score += u[d, :]
    delta = row_counts / row_counts.sum()
    alpha = col_counts / col_counts.sum()
    upper = float((delta @ u).max())
    lower = float((u @ alpha).min())
    return Bracket(lower=lower, upper=upper, row_strategy=delta, col_strategy=alpha)


def posterior_vuln_mc(measure: VulnMeasure, prior: Prior, channel: Channel,
                      samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of posterior vulnerability.

    Draws (x, y) pairs from the joint, scores the empirically best
    guess for each observed y, and averages.  Consistent as samples
    grows; kept independent of the analytic path so the two can
    cross-check each other.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pi = prior.aligned(channel.secrets)
    n_x = len(channel.secrets)
    xs = rng.choice(n_x, size=samples, p=pi)
    cum = channel.data.cumsum(axis=1)
    u = rng.random(samples)
    ys = (u[:, None] > cum[xs]).sum(axis=1)

    n_y = len(channel.observables)
    counts = np.zeros((n_x, n_y))
    np.add.at(counts, (xs, ys), 1.0)
    scores = measure.gain_matrix(channel.secrets) @ counts
    return float(scores.max(axis=0).sum() / samples)


def expected_iterations_series(n: int) -> float:
    """Same quantity by direct summation: sum_k k 2^-k + n 2^-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(k * 2.0 ** (-k) for k in range(1, n + 1)) + n * 2.0 ** (-n)


def permute_bits(x: str, rho) -> str:
    """Apply a bit permutation: result bit i is x's bit rho(i)."""
    return "".join(x[r - 1] for r in rho)


def random_game(rng) -> LeakageGame:
    n_d = int(rng.integers(2, 4))
    n_a = int(rng.integers(2, 4))
    n_x = int(rng.integers(2, 5))
    secrets = tuple(f"x{i}" for i in range(n_x))
    defenders = tuple(str(d) for d in range(n_d))
    attackers = tuple(str(a) for a in range(n_a))
    chans = {}
    for a in attackers:
        n_y = int(rng.integers(2, 5))
        cols = tuple(f"y{a}_{k}" for k in range(n_y))
        deterministic = rng.random() < 0.3
        for d in defenders:
            if deterministic:
                chans[d, a] = random_deterministic_channel(rng, secrets, cols)
            else:
                chans[d, a] = random_channel(rng, secrets, cols)
    return LeakageGame(defenders, attackers, chans,
                       random_prior(rng, secrets), random_measure(rng, secrets))
