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
(exact, since delta >= 0).  ``prune_pieces`` compares all groups with
the same number of pieces in one pass, one coordinate of delta at a
time; the ``PieceSet`` it returns keeps its group structure
(``alone``, ``shared``) for the LP and its start.  Then
the LP is solved, or its dual when that has fewer rows
(``LinearProgram.dual_solution`` reads the epigraph LP's solution back
off it), and delta is the epigraph LP's primal and alpha minus the
duals of its per-a rows.  Either LP has a
feasible basis at a pure strategy, and the solve starts there:
``convex_game_start`` puts delta on the pure d with the
smallest worst branch, and ``convex_game_attacker_start`` puts alpha on
the branch a whose pieces, one per group, guarantee the most.  The
uniqueness probes use the full, unpruned LP and its dual, each solved
from its pure-strategy start; every probe of a coordinate's range over
the optimal face then starts at that LP's optimal basis with the
slack of the row that pins the objective basic.

``solve_convex_linear_games`` solves independent games over the same
delta (an audit's modes on one defender set) in shared LPs, and
``solve_convex_linear_game`` is its case of one game.  A ``PieceSet``
holds the pieces of every game, each branch tagged with its game, so
pruning, building and both starts make one pass over all of them.  The
packed epigraph LP has one block per game, each kind of row and
variable in game order: the per-a rows of every branch, then the piece
rows, then one simplex row per game; one z per game, then the t's,
then one delta per game.  Its objective is the sum of the z's.  The
games share no variable, so the LP is block-diagonal once its rows and
columns are grouped by game, and an optimum of the sum is an optimum
of every game.  Its start is the games' own starts together, and one
formulation is chosen for the whole LP by its size.  Each game's value
is its share of the objective, and its delta and alpha are read off its
own variables and rows.  One game alone builds exactly the LP it
always did.  Games are packed greedily, in order, while the form
solved stays within ``MAX_PACKED_ROWS`` rows, since a pivot's cost
grows with the size of the whole LP (see there for the measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .matrix import LabeledMatrix
from .simplex import LinearProgram, lp_solve, require_optimal


def _payoff_array(payoff) -> np.ndarray:
    return np.array(payoff.data if isinstance(payoff, LabeledMatrix) else payoff, dtype=float)


def matrix_game_pieces(u: np.ndarray) -> list:
    """A matrix game as a convex game: branch a's one piece is column a."""
    return [col.reshape(1, 1, -1) for col in np.asarray(u, dtype=float).T]


def matrix_game_lp(u: np.ndarray) -> LinearProgram:
    """Row player's LP: variables (v, delta), min v."""
    return convex_game_lp(matrix_game_pieces(u))[0]


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
    sol = solve_convex_linear_game(matrix_game_pieces(u))
    sol.diagnostics["minimax_residual"] = minimax_residual(u, sol)
    return sol


def minimax_residual(u: np.ndarray, sol: ConvexGameSolution) -> float:
    """How far either pure deviation moves the payoff of ``sol``, a
    solution of the matrix game u, from its value."""
    return max(abs((sol.delta @ u).max() - sol.value), abs((u @ sol.alpha).min() - sol.value))


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
    """Epigraph pieces of one or more independent convex games over the
    same delta, one row per piece.

    ``k[i]`` holds the coefficients over delta of piece i, ``group[i]``
    the index of its (a, y) group, ``branch[g]`` the branch (column-player
    action) of group g, and ``game[a]`` the game of branch a.  Branches
    are numbered game-major, groups branch-major, then y, and the pieces
    of a group follow their w order, so the pieces of ``from_games`` are
    the arrays' entries in row-major order.
    """

    k: np.ndarray
    group: np.ndarray
    branch: np.ndarray
    game: np.ndarray

    @staticmethod
    def from_games(games) -> "PieceSet":
        """Flatten independent games, each a sequence of per-a arrays of
        shape (n_y, n_w, n_d) with one n_d for all."""
        arrays = [[np.asarray(p, dtype=float) for p in pieces] for pieces in games]
        if not arrays or not all(arrays):
            raise ValueError("a convex game needs at least one branch")
        flat = [p for pieces in arrays for p in pieces]
        n_d = flat[0].shape[-1]
        groups, branch = [], []
        for a, p in enumerate(flat):
            if p.ndim != 3 or p.shape[2] != n_d:
                raise ValueError("piece arrays must have shape (n_y, n_w, n_d)")
            n_y, n_w, _ = p.shape
            groups.append(len(branch) + np.repeat(np.arange(n_y), n_w))
            branch.extend([a] * n_y)
        return PieceSet(
            k=np.concatenate([p.reshape(-1, n_d) for p in flat]),
            group=np.concatenate(groups).astype(np.int64),
            branch=np.array(branch, dtype=np.int64),
            game=np.repeat(np.arange(len(arrays)), [len(p) for p in arrays]))

    @staticmethod
    def from_arrays(pieces) -> "PieceSet":
        """One game's per-a arrays, as ``from_games``; a PieceSet passes
        through unchanged."""
        return pieces if isinstance(pieces, PieceSet) else PieceSet.from_games([pieces])

    @property
    def n_d(self) -> int:
        return self.k.shape[1]

    @property
    def n_a(self) -> int:
        return self.game.shape[0]

    @property
    def n_groups(self) -> int:
        return self.branch.shape[0]

    @property
    def n_games(self) -> int:
        return int(self.game[-1]) + 1

    @cached_property
    def piece_game(self) -> np.ndarray:
        """Per piece, its game."""
        return self.game[self.branch[self.group]]

    @cached_property
    def group_first(self) -> np.ndarray:
        """Per group, the index of its first piece."""
        sizes = np.bincount(self.group, minlength=self.n_groups)
        return np.cumsum(sizes) - sizes

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

    @cached_property
    def a_first(self) -> np.ndarray:
        """Per game, the index of its first branch, and then n_a."""
        return np.searchsorted(self.game, np.arange(self.n_games + 1))

    def games_between(self, lo: int, hi: int) -> "PieceSet":
        """The games lo, ..., hi - 1, renumbered from 0."""
        if (lo, hi) == (0, self.n_games):
            return self
        a0, a1 = self.a_first[[lo, hi]]
        g0, g1 = np.searchsorted(self.branch, [a0, a1])
        p0, p1 = np.searchsorted(self.group, [g0, g1])
        return PieceSet(k=self.k[p0:p1], group=self.group[p0:p1] - g0,
                        branch=self.branch[g0:g1] - a0, game=self.game[a0:a1] - lo)


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
    """The pieces that can bind (see ``binding_pieces``), as a PieceSet:
    one game's per-a arrays, or a PieceSet of any number of games.
    Groups may differ in size.  The groups of every branch and game with
    the same number of pieces are pruned by one ``binding_pieces`` call,
    so there is one call per distinct group size above 1; when every
    group has that size, the call reads the flat pieces in place."""
    full = PieceSet.from_arrays(pieces)
    sizes = np.bincount(full.group, minlength=full.n_groups)
    width = sizes[full.group]       # per piece
    keep = np.ones(width.shape[0], dtype=bool)
    for n_w in np.unique(sizes[sizes > 1]).tolist():
        rows = width == n_w
        k = full.k if rows.all() else full.k[rows]
        keep[rows] = binding_pieces(k.reshape(-1, n_w, full.n_d)).reshape(-1)
    return PieceSet(k=full.k[keep], group=full.group[keep], branch=full.branch,
                    game=full.game)


def convex_game_lp(pieces) -> tuple[LinearProgram, int, list]:
    """Epigraph LP for min_delta max_a of piecewise-linear branch payoffs,
    of every game when ``pieces`` packs several (a PieceSet).

    One game's ``pieces`` is a sequence over column-player actions;
    pieces[a] is an array of shape (n_y_a, n_w_a, n_d): the linear
    coefficients over delta of piece (y, w) of branch a.  Variables: one
    z per game, one t per group of two or more pieces, one delta per
    game; rows: per a, per piece of such a group, one simplex row per
    game (see the module docstring).  The objective is the sum of the
    z's.  Returns the LP, n_d and the indices of the per-a rows (for
    duals).  An entry that is not finite, or a per-a row sum that
    overflows, raises ValueError.
    """
    ps = PieceSet.from_arrays(pieces)
    alone = ps.alone
    groups, t_of = ps.shared
    n_games, n_d, n_a = ps.n_games, ps.n_d, ps.n_a
    n_t, n_p = groups.shape[0], t_of.shape[0]
    n_row, n_var = n_a + n_p + n_games, n_games + n_t + n_games * n_d
    c = np.zeros(n_var)
    c[:n_games] = 1.0
    A = np.zeros((n_row, n_var))
    delta = A[:, n_games + n_t:].reshape(n_row, n_games, n_d)   # a view: [row, game, d]
    per_a, pieces_rows = np.arange(n_a), n_a + np.arange(n_p)
    A[per_a, ps.game] = -1.0
    A[ps.branch[groups], n_games + np.arange(n_t)] = 1.0
    alone_sum = np.zeros((n_a, n_d))
    with np.errstate(over="ignore"):            # an overflow is refused below
        np.add.at(alone_sum, ps.branch[ps.group[alone]], ps.k[alone])
    delta[per_a, ps.game] = alone_sum
    A[pieces_rows, n_games + t_of] = -1.0
    delta[pieces_rows, ps.piece_game[~alone]] = ps.k[~alone]
    delta[n_a + n_p + np.arange(n_games), np.arange(n_games)] = 1.0
    if not np.isfinite(A).all():
        raise ValueError("objective and constraints must be finite")
    b = np.zeros(n_row)
    b[n_a + n_p:] = 1.0
    slack = np.ones(n_row)              # <= rows, but the simplex rows' =
    slack[n_a + n_p:] = 0.0
    return (LinearProgram(c=c, A=A, b=b, slack=slack, sense="min",
                          free=np.arange(n_var) < n_games + n_t),
            n_d, list(range(n_a)))


def convex_game_attacker_lp(pieces) -> tuple[LinearProgram, int]:
    """Maximin LP of the column player for the convex game: the dual of
    ``convex_game_lp``, with variables alpha (per a), beta (per piece of
    a group of two or more) and gamma (per game), and rows for the
    simplex (per game), per such group and per d (per game).  Returns
    the LP and the number of alpha variables (the first ones)."""
    lp, _, branch_rows = convex_game_lp(pieces)
    return lp.dual(), len(branch_rows)


def _first_max(values: np.ndarray, owner: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per run of equal ``owner`` (nondecreasing; ``first`` holds where
    each run starts), the index of its first largest value."""
    hits = np.flatnonzero(values == np.maximum.reduceat(values, first)[owner])
    return hits[np.diff(owner[hits], prepend=-1) != 0]


def convex_game_start(pieces) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of ``convex_game_lp(pieces)`` at a pure delta
    per game, as ``lp_solve``'s start (basic variables, rows with a
    basic slack): the games' own starts together.  In each game,
    delta = e_d0, where d0 minimises max_a of branch a's value at the
    pure d; each t is basic at its group's largest piece at d0 (the
    first of equal ones), z at the largest per-a row, and every other
    row keeps its slack."""
    ps = PieceSet.from_arrays(pieces)
    alone, first = ps.alone, ps.a_first[:-1]
    n_games, n_t, n_a = ps.n_games, ps.shared[0].shape[0], ps.n_a
    branch = np.zeros((n_a, ps.n_d))
    np.add.at(branch, ps.branch, np.maximum.reduceat(ps.k, ps.group_first, axis=0))
    d0 = np.argmin(np.maximum.reduceat(branch, first, axis=0), axis=1)
    a0 = _first_max(branch[np.arange(n_a), d0[ps.game]], ps.game, first)
    binding = _first_max(ps.k[np.arange(ps.k.shape[0]), d0[ps.piece_game]], ps.group,
                         ps.group_first)
    slack = np.ones(n_a + int((~alone).sum()), dtype=bool)
    slack[a0] = False
    slack[n_a + (np.cumsum(~alone) - 1)[binding[~alone[binding]]]] = False
    return (np.append(np.arange(n_games + n_t), n_games + n_t + ps.n_d * np.arange(n_games) + d0),
            np.flatnonzero(slack))


def convex_game_attacker_start(pieces) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of ``convex_game_attacker_lp(pieces)`` at a pure
    alpha per game, as ``lp_solve``'s start: the games' own starts
    together.  Each group plays its piece with the largest sum over d
    (the first of equal ones).  In each game, a0 maximises min_d of
    branch a's total over its groups, alpha_a0 = 1, and beta is 1 on the
    chosen pieces of a0's groups and 0 on the others.  gamma is basic at
    the smallest per-d row, and the other per-d rows keep their
    slacks."""
    ps = PieceSet.from_arrays(pieces)
    alone, n_games, n_d = ps.alone, ps.n_games, ps.n_d
    n_t, n_a, n_p = ps.shared[0].shape[0], ps.n_a, int((~alone).sum())
    chosen = _first_max(ps.k.sum(axis=1), ps.group, ps.group_first)
    total = np.zeros((n_a, n_d))
    np.add.at(total, ps.branch, ps.k[chosen])
    a0 = _first_max(total.min(axis=1), ps.game, ps.a_first[:-1])
    d_min = np.argmin(total[a0], axis=1)
    betas = n_a + (np.cumsum(~alone) - 1)[chosen[~alone[chosen]]]
    return (np.concatenate([a0, betas, n_a + n_p + np.arange(n_games)]),
            n_games + n_t + np.delete(np.arange(n_games * n_d), n_d * np.arange(n_games) + d_min))


MAX_PACKED_ROWS = 75
"""Row cap of a packed LP: ``solve_convex_linear_games`` adds a game to
an LP only while the form it would solve, the one with fewer rows, stays
within this many rows; a game above the cap gets an LP of its own.
Packing saves each LP's fixed cost, but a pivot's cost grows with the
rows and columns of the whole LP while the pivot count only adds up, so
large packs lose.  Measured on a 2-vCPU Xeon VM with one BLAS thread,
medians of 25 interleaved runs per cap: the 4-bit checker audit (I 17,
IV 73 and sixteen VI games of 28 rows) took 31.1 ms at a cap of 50,
29.1 at 60, 29.0 at 75, 30.2 at 90, 34.2 at 120 and 40.4 at 150, and
one LP for all of it (cap 300) 91 ms; the wide games of the seed-0
``audit_mix`` benchmark inputs took 3.01, 3.18, 2.76, 2.78, 2.74 and
2.78 ms per audit.  At 75 every ``audit_mix`` audit is one LP: the
widest packs 6 columns for I, at most 21 for IV and 9 for each of five
VI games."""


def _packs(ps: PieceSet):
    """Greedy runs (lo, hi) of consecutive games of ``ps``, each one LP
    that stays within MAX_PACKED_ROWS rows, or one game."""
    def per_game(owner):
        return np.bincount(owner, minlength=ps.n_games)

    n_p, n_t = per_game(ps.piece_game[~ps.alone]), per_game(ps.game[ps.branch[ps.shared[0]]])
    row = list(accumulate((per_game(ps.game) + n_p + 1).tolist(), initial=0))
    col = list(accumulate((1 + n_t + ps.n_d).tolist(), initial=0))
    lo = 0
    for hi in range(2, len(row)):       # could the games lo to hi - 1 share an LP?
        if min(row[hi] - row[lo], col[hi] - col[lo]) > MAX_PACKED_ROWS:
            yield lo, hi - 1
            lo = hi - 1
    yield lo, len(row) - 1


def solve_convex_linear_game(pieces) -> ConvexGameSolution:
    """Solve min_delta max_a sum_y max_w (pieces[a][y, w] . delta): the
    one-game case of ``solve_convex_linear_games``."""
    return solve_convex_linear_games([pieces])[0]


def solve_convex_linear_games(games) -> list:
    """Solve independent convex games over one delta (see
    ``solve_convex_linear_game``), in order.

    Pieces that cannot bind are pruned first, all games in one pass.
    Then consecutive games are packed greedily into LPs of at most
    MAX_PACKED_ROWS rows; each packed epigraph LP is solved, or its
    dual when that has fewer rows, from the pure-strategy start of
    ``convex_game_start`` or ``convex_game_attacker_start``.  Each
    game's value is its share of the objective; its delta and alpha are
    read off its own variables and rows.  Its diagnostics are those of
    the LP it was solved in, and its own piece counts.
    """
    arrays = [[np.asarray(p, dtype=float) for p in pieces] for pieces in games]
    kept = prune_pieces(PieceSet.from_games(arrays))
    totals = [sum(p.shape[0] * p.shape[1] for p in pieces) for pieces in arrays]
    sols = []
    for lo, hi in _packs(kept):
        sols.extend(_solve_packed(kept.games_between(lo, hi), totals[lo:hi]))
    return sols


def _solve_packed(ps: PieceSet, totals: list) -> list:
    """The solutions of the games of ``ps`` from one LP; ``totals``
    holds each game's number of pieces before pruning."""
    lp = convex_game_lp(ps)[0]
    n_games, n_d, n_a = ps.n_games, ps.n_d, ps.n_a
    games = np.arange(n_games)
    # owner: the game of each variable of the LP solved, whose objective
    # shares are summed per game
    if lp.n_vars < lp.b.shape[0]:
        solved, start = lp.dual(), convex_game_attacker_start(ps)
        owner = np.concatenate([ps.game, ps.piece_game[~ps.alone], games])
    else:
        solved, start = lp, convex_game_start(ps)
        owner = np.concatenate([games, ps.game[ps.branch[ps.shared[0]]], np.repeat(games, n_d)])
    raw = require_optimal(lp_solve(solved, start), "convex game LP")
    sol = raw if solved is lp else lp.dual_solution(raw)
    sign = 1.0 if solved.sense == "min" else -1.0    # as lp_solve forms its objective
    share = sign * solved.c * raw.x
    diagnostics = {
        "gap": sol.gap, "iterations": sol.iterations,
        "lp_rows": solved.b.shape[0], "lp_cols": solved.n_vars,
        "formulation": "defender" if solved is lp else "attacker",
    }
    kept = np.bincount(ps.piece_game, minlength=n_games)
    deltas = sol.x[lp.n_vars - n_games * n_d:].reshape(n_games, n_d)
    alphas, first = -sol.duals[:n_a], ps.a_first
    return [ConvexGameSolution(
        value=float(sign * np.add.reduce(share[owner == g])),
        delta=_distribution(deltas[g]),
        alpha=_distribution(alphas[first[g]:first[g + 1]]),
        diagnostics={**diagnostics, "pieces_total": totals[g], "pieces_kept": int(kept[g])})
        for g in range(n_games)]


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
    return convex_game_unique(matrix_game_pieces(u), value, tol)


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
