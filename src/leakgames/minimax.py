"""Minimax engines: exact LP solvers and an iterative cross-check.

Conventions: in a matrix game the row player minimises and the column
player maximises.  ``fictitious_play`` independently brackets the value
and exists to cross-validate the LP, not to replace it.

``solve_convex_linear_game`` handles payoffs where the row player's
mixture enters a convex piecewise-linear function (one linear piece per
observable/guess pair) and the column player takes the worst case.  A
matrix game is the case of one piece per branch, and
``solve_matrix_game`` solves it so.  One LP gives the value, the row
player's epigraph LP, with variables (z, t, delta) and rows per a, per
piece and for the simplex, in that order:

    min z   s.t.  sum_y t_{a,y} - z <= 0                       for all a,
                  sum_d delta(d) k[a][y, w, d] - t_{a,y} <= 0   for all w,
                  delta a distribution.

A group (a, y) with one piece w is substituted out: its piece
k[a][y, w] . delta takes the place of t_{a,y} in the per-a row, and it
has no t and no piece row.  ``LinearProgram.dual`` turns this LP into
the column player's LP, with variables (alpha, beta, gamma) and rows
for the simplex, per group of two or more pieces and per d:

    max gamma   s.t.  sum_a alpha(a) = 1,
                      sum_w beta(a, y, w) = alpha(a)        for all such (a, y),
                      gamma <= sum beta(a, y, w) k[a][y, w, d]
                               + sum_{alone} alpha(a) k[a][y, w, d]   for all d.

With one piece per branch they are the two matrix-game LPs.  First,
pieces that can never bind are dropped: within each (a, y), a piece
that duplicates an earlier one or is componentwise dominated by another
(exact, since delta >= 0).  ``prune_pieces`` compares the groups of
all branches with the same number of pieces per group in one pass, one
coordinate of delta at a time; the ``PieceSet`` it returns keeps its
group structure (``alone``, ``shared``) for the LP and its start.  Then
the LP is solved, or its dual when that has fewer rows
(``LinearProgram.dual_solution`` reads the epigraph LP's solution back
off it), and delta is the epigraph LP's primal and alpha minus the
duals of its per-a rows.  Either LP has a
feasible basis at a pure strategy, and the solve starts there, with no
phase 1: ``convex_game_start`` puts delta on the pure d with the
smallest worst branch, and ``convex_game_attacker_start`` puts alpha on
the branch a whose pieces, one per group, guarantee the most.  The
uniqueness probes use the full, unpruned LP and its dual, each solved
from its pure-strategy start; every probe of a coordinate's range over
the optimal face then starts at that LP's optimal basis with the
slack of the row that pins the objective basic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .matrix import LabeledMatrix
from .simplex import LinearProgram, lp_solve, require_optimal


def _payoff_array(payoff) -> np.ndarray:
    return np.array(payoff.data if isinstance(payoff, LabeledMatrix) else payoff, dtype=float)


def _one_piece(u: np.ndarray) -> list:
    """A matrix game as a convex game: branch a's one piece is column a."""
    return [col.reshape(1, 1, -1) for col in np.asarray(u, dtype=float).T]


def matrix_game_lp(u: np.ndarray) -> LinearProgram:
    """Row player's LP: variables (v, delta), min v."""
    return convex_game_lp(_one_piece(u))[0]


def _distribution(weights: np.ndarray) -> np.ndarray:
    """Clip to nonnegative and normalise; uniform when nothing is left."""
    w = np.clip(weights, 0.0, None)
    total = w.sum()
    return w / total if total > 0 else np.full(w.shape[0], 1.0 / w.shape[0])


def solve_matrix_game(payoff) -> ConvexGameSolution:
    """Saddle point of a finite zero-sum matrix game (row min, col max):
    the convex game with one piece per branch, so delta is the row
    player's strategy and alpha the column player's."""
    u = _payoff_array(payoff)
    sol = solve_convex_linear_game(_one_piece(u))
    sol.diagnostics["minimax_residual"] = max(abs((sol.delta @ u).max() - sol.value),
                                              abs((u @ sol.alpha).min() - sol.value))
    return sol


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


@dataclass
class ConvexGameSolution:
    value: float
    delta: np.ndarray
    alpha: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PieceSet:
    """Epigraph pieces of a convex game, one row per piece.

    ``k[i]`` holds the coefficients over delta of piece i, ``group[i]``
    the index of its (a, y) group, and ``branch[g]`` the column-player
    action a of group g.  Groups are numbered a-major, then y, and the
    pieces of a group follow their w order, so the pieces of
    ``from_arrays`` are the arrays' entries in row-major order.
    """

    k: np.ndarray
    group: np.ndarray
    branch: np.ndarray
    n_a: int

    @staticmethod
    def from_arrays(pieces) -> "PieceSet":
        """Flatten per-a arrays of shape (n_y, n_w, n_d); a PieceSet
        passes through unchanged."""
        if isinstance(pieces, PieceSet):
            return pieces
        pieces = [np.asarray(p, dtype=float) for p in pieces]
        n_d = pieces[0].shape[2]
        groups, branch = [], []
        for a, p in enumerate(pieces):
            if p.ndim != 3 or p.shape[2] != n_d:
                raise ValueError("piece arrays must have shape (n_y, n_w, n_d)")
            n_y, n_w, _ = p.shape
            groups.append(len(branch) + np.repeat(np.arange(n_y), n_w))
            branch.extend([a] * n_y)
        return PieceSet(
            k=np.concatenate([p.reshape(-1, n_d) for p in pieces]),
            group=np.concatenate(groups).astype(np.int64),
            branch=np.array(branch, dtype=np.int64),
            n_a=len(pieces))

    @property
    def n_d(self) -> int:
        return self.k.shape[1]

    @property
    def n_groups(self) -> int:
        return self.branch.shape[0]

    @cached_property
    def alone(self) -> np.ndarray:
        """Mask over pieces: the only piece of its group.  The epigraph
        LP substitutes such a group out (see the module docstring)."""
        return np.bincount(self.group, minlength=self.n_groups)[self.group] == 1

    @cached_property
    def shared(self) -> tuple[np.ndarray, np.ndarray]:
        """The groups of two or more pieces, and the position among them
        of the group of each piece not ``alone``."""
        return np.unique(self.group[~self.alone], return_inverse=True)


def binding_pieces(p: np.ndarray) -> np.ndarray:
    """Mask over (y, w) of the pieces p[y, w] that can bind, each y a
    group of its own (one branch, or the groups of several stacked).

    Within each y, piece w is dropped when another piece v covers it:
    k[y, v] >= k[y, w] componentwise, and either some component is
    larger or v is the earlier of two equal pieces.  For delta >= 0 a
    covered piece never exceeds the one covering it, so dropping it
    leaves max_w unchanged whatever the signs of the entries.  Covering
    is a strict order, so every covered piece lies below a kept one and
    each y keeps at least one piece.

    ge[v, w, y] (k[y, v] >= k[y, w]) is built one coordinate d at a
    time, so the temporaries hold n_w^2 n_y booleans, not the n_d times
    as many of an all-pairs broadcast over d.  Each step first copies
    p[:, :, d] into a [w, y] buffer, so the comparison runs over
    contiguous memory with the groups innermost, whatever p's layout.
    """
    n_y, n_w, n_d = p.shape
    ge = np.ones((n_w, n_w, n_y), dtype=bool)
    step = np.empty_like(ge)
    col = np.empty((n_w, n_y))
    for d in range(n_d):
        np.copyto(col, p[:, :, d].T)
        np.greater_equal(col[:, None, :], col[None, :, :], out=step)
        ge &= step
    earlier = (np.arange(n_w)[:, None] < np.arange(n_w)[None, :])[:, :, None]
    covers = ge & (~ge.transpose(1, 0, 2) | earlier)
    return ~covers.any(axis=0).T


def prune_pieces(pieces) -> PieceSet:
    """The pieces that can bind (see ``binding_pieces``), as a PieceSet.
    Branches may differ in n_y and in n_w.  The groups of all branches
    with the same n_w are pruned by one ``binding_pieces`` call, so
    there is one call per distinct n_w, not one per branch; when every
    branch has the same n_w, that call reads the flat pieces in place."""
    arrays = [np.asarray(p, dtype=float) for p in pieces]
    full = PieceSet.from_arrays(arrays)
    widths = [p.shape[1] for p in arrays]
    width = np.repeat(widths, [p.shape[0] * p.shape[1] for p in arrays])    # per piece
    keep = np.empty(width.shape[0], dtype=bool)
    for n_w in set(widths):
        rows = width == n_w
        k = full.k if rows.all() else full.k[rows]
        keep[rows] = binding_pieces(k.reshape(-1, n_w, full.n_d)).reshape(-1)
    return PieceSet(k=full.k[keep], group=full.group[keep], branch=full.branch,
                    n_a=full.n_a)


def convex_game_lp(pieces) -> tuple[LinearProgram, int, list]:
    """Epigraph LP for min_delta max_a of piecewise-linear branch payoffs.

    ``pieces`` is a sequence over column-player actions; pieces[a] is an
    array of shape (n_y_a, n_w_a, n_d): the linear coefficients over
    delta of piece (y, w) of branch a.  A PieceSet is accepted as well.
    Variables: z, one t per group of two or more pieces, delta; rows:
    per a, per piece of such a group, the simplex.  Returns the LP, the
    number of delta variables (the last ones), and the indices of the
    per-a rows (for duals).  An entry that is not finite, or a per-a
    row sum that overflows, raises ValueError.
    """
    ps = PieceSet.from_arrays(pieces)
    alone = ps.alone
    groups, t_of = ps.shared
    n_d, n_t, n_p, n_a = ps.n_d, groups.shape[0], t_of.shape[0], ps.n_a
    nvar = 1 + n_t + n_d  # z, t, delta
    c = np.zeros(nvar)
    c[0] = 1.0
    A = np.zeros((n_a + n_p + 1, nvar))    # per-a rows, piece rows, simplex row
    per_a = A[:n_a]
    per_a[:, 0] = -1.0
    per_a[ps.branch[groups], 1 + np.arange(n_t)] = 1.0
    with np.errstate(over="ignore"):            # an overflow is refused below
        np.add.at(per_a[:, 1 + n_t:], ps.branch[ps.group[alone]], ps.k[alone])
    A[n_a + np.arange(n_p), 1 + t_of] = -1.0
    A[n_a:-1, 1 + n_t:] = ps.k[~alone]
    A[-1, 1 + n_t:] = 1.0
    if not np.isfinite(A).all():
        raise ValueError("objective and constraints must be finite")
    b = np.zeros(n_a + n_p + 1)
    b[-1] = 1.0
    slack = np.ones(n_a + n_p + 1)         # <= rows, then the simplex row's =
    slack[-1] = 0.0
    lp = LinearProgram(c=c, A=A, b=b, slack=slack, sense="min",
                       free=np.arange(nvar) < 1 + n_t)
    return lp, n_d, list(range(n_a))


def convex_game_attacker_lp(pieces) -> tuple[LinearProgram, int]:
    """Maximin LP of the column player for the convex game: the dual of
    ``convex_game_lp``, with variables alpha (per a), beta (per piece of
    a group of two or more) and gamma, and rows for the simplex, per
    such group and per d.  Returns the LP and the number of alpha
    variables (the first ones)."""
    lp, _, branch_rows = convex_game_lp(pieces)
    return lp.dual(), len(branch_rows)


def _group_max(ps: PieceSet, values: np.ndarray) -> np.ndarray:
    """Per group, the largest of ``values`` (whose first axis runs over
    the pieces); the pieces of a group are contiguous."""
    sizes = np.bincount(ps.group, minlength=ps.n_groups)
    return np.maximum.reduceat(values, np.cumsum(sizes) - sizes, axis=0)


def _first_per_group(ps: PieceSet, values: np.ndarray) -> np.ndarray:
    """Per group, the index of its first piece with the largest of
    ``values``, one per piece."""
    hits = np.flatnonzero(values == _group_max(ps, values)[ps.group])
    return hits[np.diff(ps.group[hits], prepend=-1) != 0]


def convex_game_start(pieces) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of ``convex_game_lp(pieces)`` at a pure delta,
    as ``lp_solve``'s start (basic variables, rows with a basic slack).
    delta = e_d0, where d0 minimises max_a of branch a's value at the
    pure d; each t is basic at its group's largest piece at d0 (the
    first of equal ones), z at the largest per-a row, and every other
    row keeps its slack."""
    ps = PieceSet.from_arrays(pieces)
    alone = ps.alone
    n_t, n_a, n_p = ps.shared[0].shape[0], ps.n_a, int((~alone).sum())
    branch = np.zeros((n_a, ps.n_d))
    np.add.at(branch, ps.branch, _group_max(ps, ps.k))
    d0 = int(np.argmin(branch.max(axis=0)))
    a0 = int(np.argmax(branch[:, d0]))
    piece_row = np.cumsum(~alone) - 1          # of each piece not alone
    binding = _first_per_group(ps, ps.k[:, d0])
    slack = np.ones(n_a + n_p, dtype=bool)
    slack[a0] = False
    slack[n_a + piece_row[binding[~alone[binding]]]] = False
    return np.append(np.arange(1 + n_t), 1 + n_t + d0), np.flatnonzero(slack)


def convex_game_attacker_start(pieces) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of ``convex_game_attacker_lp(pieces)`` at a pure
    alpha, as ``lp_solve``'s start.  Each group plays its piece with the
    largest sum over d (the first of equal ones); a0 maximises min_d of
    branch a's total over its groups, alpha_a0 = 1, and beta is 1 on the
    chosen pieces of a0's groups and 0 on the others.  gamma is basic at
    the smallest per-d row, and the other per-d rows keep their slacks."""
    ps = PieceSet.from_arrays(pieces)
    alone = ps.alone
    n_t, n_a, n_p = ps.shared[0].shape[0], ps.n_a, int((~alone).sum())
    chosen = _first_per_group(ps, ps.k.sum(axis=1))
    total = np.zeros((n_a, ps.n_d))
    np.add.at(total, ps.branch, ps.k[chosen])
    a0 = int(np.argmax(total.min(axis=1)))
    d_min = int(np.argmin(total[a0]))
    betas = n_a + (np.cumsum(~alone) - 1)[chosen[~alone[chosen]]]
    return (np.array([a0, *betas, n_a + n_p]),
            1 + n_t + np.delete(np.arange(ps.n_d), d_min))


def solve_convex_linear_game(pieces) -> ConvexGameSolution:
    """Solve min_delta max_a sum_y max_w (pieces[a][y, w] . delta).

    Pieces that cannot bind are pruned first; then the epigraph LP is
    solved, or its dual when that has fewer rows, from the pure-strategy
    start of ``convex_game_start`` or ``convex_game_attacker_start``.
    """
    arrays = [np.asarray(p, dtype=float) for p in pieces]
    kept = prune_pieces(arrays)
    lp, n_d, branch_rows = convex_game_lp(kept)
    if lp.n_vars < lp.b.shape[0]:
        solved, start = lp.dual(), convex_game_attacker_start(kept)
    else:
        solved, start = lp, convex_game_start(kept)
    sol = require_optimal(lp_solve(solved, start), "convex game LP")
    if solved is not lp:
        sol = lp.dual_solution(sol)
    return ConvexGameSolution(
        value=float(sol.objective),
        delta=_distribution(sol.x[-n_d:]),
        alpha=_distribution(-sol.duals[branch_rows]),
        diagnostics={
            "gap": sol.gap, "iterations": sol.iterations,
            "phase1_iterations": sol.diagnostics["phase1_iterations"],
            "lp_rows": solved.b.shape[0], "lp_cols": solved.n_vars,
            "formulation": "defender" if solved is lp else "attacker",
            "pieces_total": sum(p.shape[0] * p.shape[1] for p in arrays),
            "pieces_kept": int(kept.k.shape[0]),
        },
    )


def branch_value(pieces_a: np.ndarray, delta: np.ndarray) -> float:
    """Evaluate one branch payoff sum_y max_w (k[y, w] . delta)."""
    return float(np.einsum("ywd,d->yw", pieces_a, delta).max(axis=1).sum())


def optimal_coordinate_range(lp: LinearProgram, optimum: float, coord: int, basis: tuple,
                             slack: float = 1e-9) -> tuple[float, float]:
    """Range of one variable over the (near-)optimal face of ``lp``.
    ``basis`` is an optimal basis of ``lp`` (``LPSolution.basis``); both
    probes start there, with the pin row's slack basic."""
    if not np.isfinite(optimum):
        raise ValueError("objective and constraints must be finite")
    sign = 1.0 if lp.sense == "min" else -1.0
    e = np.zeros(lp.n_vars)
    e[coord] = 1.0
    probe = LinearProgram(      # pin: sign * c.x <= sign * optimum + slack
        c=e, A=np.vstack([lp.A, sign * lp.c]), b=np.append(lp.b, sign * optimum + slack),
        slack=np.append(lp.slack, 1.0), sense="min", free=lp.free)
    start = (basis[0], np.append(basis[1], lp.b.shape[0]))
    lo, hi = (require_optimal(lp_solve(replace(probe, sense=sense), start),
                              "range probe").objective for sense in ("min", "max"))
    return float(lo), float(hi)


def matrix_game_unique(u: np.ndarray, value: float, tol: float = 1e-7) -> bool:
    """Probe whether the equilibrium strategies of a matrix game are unique."""
    return convex_game_unique(_one_piece(u), value, tol)


def convex_game_unique(pieces, value: float, tol: float = 1e-6) -> bool:
    """Probe uniqueness of (delta, alpha) in a convex-linear game: the
    range of each coordinate over the optimal face of the unpruned
    epigraph LP (delta) and of its dual (alpha), probed from the
    optimal basis of that LP."""
    ps = PieceSet.from_arrays(pieces)
    lp, n_d, branch_rows = convex_game_lp(ps)
    for program, start_at, coords in (
            (lp, convex_game_start, range(lp.n_vars - n_d, lp.n_vars)),
            (lp.dual(), convex_game_attacker_start, branch_rows)):
        basis = require_optimal(lp_solve(program, start_at(ps)), "uniqueness LP").basis
        for coord in coords:
            lo, hi = optimal_coordinate_range(program, value, coord, basis)
            if hi - lo > tol:
                return False
    return True
