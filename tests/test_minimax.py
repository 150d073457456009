import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_form_2x2, demo_game, fictitious_play
from leakgames.games import (
    audit_hierarchy,
    hidden_branch_pieces,
    hidden_pieces,
    LeakageGame,
    payoff_matrix,
    solve,
)
from leakgames.minimax import (
    MAX_PACKED_ROWS,
    binding_pieces,
    branch_value,
    convex_game_attacker_lp,
    convex_game_attacker_start,
    convex_game_lp,
    convex_game_start,
    convex_game_unique,
    matrix_game_lp,
    matrix_game_pieces,
    matrix_game_unique,
    PieceSet,
    prune_pieces,
    solve_convex_linear_game,
    solve_convex_linear_games,
    solve_matrix_game,
)
from leakgames.pwdcheck import build_game, secret_labels
import leakgames.simplex as simplex
from leakgames.simplex import EQUAL, LESS, LinearProgram, lp_solve
from leakgames.vuln import Prior, VulnMeasure

DEMO_PAYOFF = np.array([[0.5, 1.0], [1.0, 2 / 3]])


def test_matrix_game_demo():
    s = solve_matrix_game(DEMO_PAYOFF)
    assert s.value == pytest.approx(4 / 5, abs=1e-10)
    assert s.delta[0] == pytest.approx(2 / 5, abs=1e-10)
    assert s.alpha[0] == pytest.approx(2 / 5, abs=1e-10)
    assert s.diagnostics["gap"] <= 1e-8
    assert s.diagnostics["minimax_residual"] <= 1e-8


def test_matrix_game_constant_and_pennies():
    s = solve_matrix_game(np.full((3, 2), 0.37))
    assert s.value == pytest.approx(0.37)
    s = solve_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert s.value == pytest.approx(0.5)
    assert np.allclose(s.delta, [0.5, 0.5])
    assert np.allclose(s.alpha, [0.5, 0.5])


def test_matrix_game_saddle_stability_random():
    rng = np.random.default_rng(20)
    for _ in range(100):
        u = rng.uniform(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        s = solve_matrix_game(u)
        # no pure deviation helps either player
        assert (s.delta @ u).max() <= s.value + 1e-8
        assert (u @ s.alpha).min() >= s.value - 1e-8


def test_matrix_game_affine_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        u = rng.uniform(size=(3, 3))
        a, b = float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2))
        s0 = solve_matrix_game(u)
        s1 = solve_matrix_game(a * u + b)
        assert s1.value == pytest.approx(a * s0.value + b, abs=1e-8)
        assert np.array_equal(s0.delta > 1e-9, s1.delta > 1e-9)
        assert np.array_equal(s0.alpha > 1e-9, s1.alpha > 1e-9)


def test_closed_form_demo_and_boundaries():
    assert closed_form_2x2(DEMO_PAYOFF) == pytest.approx((4 / 5, 2 / 5, 2 / 5))
    assert closed_form_2x2([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx((0.5, 0.5, 0.5))
    # dominant row: the formula degenerates (zero denominator)
    assert closed_form_2x2([[1.0, 0.0], [2.0, 1.0]]) is None


def test_closed_form_agrees_with_lp():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(100):
        u = rng.uniform(size=(2, 2))
        cf = closed_form_2x2(u)
        if cf is None:
            continue
        checked += 1
        s = solve_matrix_game(u)
        assert cf[0] == pytest.approx(s.value, abs=1e-10)
    assert checked > 20


def test_fictitious_play_brackets_demo():
    b = fictitious_play(DEMO_PAYOFF, iters=100_000, seed=0)
    assert b.contains(0.8)
    assert b.width < 0.01


def test_fictitious_play_constant_matrix():
    b = fictitious_play(np.full((2, 3), 1.25), iters=1)
    assert b.lower == pytest.approx(1.25) and b.upper == pytest.approx(1.25)


def test_fictitious_play_pennies():
    b = fictitious_play(np.array([[0.0, 1.0], [1.0, 0.0]]), iters=20_000, seed=1)
    assert b.contains(0.5)


def test_lp_value_always_inside_bracket():
    rng = np.random.default_rng(23)
    for trial in range(50):
        u = rng.uniform(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        v = solve_matrix_game(u).value
        b = fictitious_play(u, iters=2000, seed=trial)
        assert b.contains(v)


def demo_hidden_pieces():
    """Epigraph pieces of the demo game's hidden-mixture branches
    under the uniform prior."""
    channels = {
        ("0", "0"): np.array([[1.0, 0.0], [1.0, 0.0]]),
        ("1", "0"): np.array([[0.0, 1.0], [1.0, 0.0]]),
        ("0", "1"): np.array([[1.0, 0.0], [0.0, 1.0]]),
        ("1", "1"): np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]]),
    }
    pieces = []
    for a in ("0", "1"):
        k = np.zeros((2, 2, 2))
        for di, d in enumerate(("0", "1")):
            k[:, :, di] = 0.5 * channels[d, a].T
        pieces.append(k)
    return pieces


def test_convex_game_demo():
    pieces = demo_hidden_pieces()
    s = solve_convex_linear_game(pieces)
    assert s.value == pytest.approx(5 / 7, abs=1e-10)
    assert s.delta[0] == pytest.approx(4 / 7, abs=1e-8)
    assert s.alpha[0] == pytest.approx(4 / 7, abs=1e-8)
    assert s.diagnostics["gap"] <= 1e-8
    assert convex_game_unique(pieces, s.value)


def test_convex_game_identical_channels():
    k = np.zeros((2, 2, 3))
    base = np.array([[0.6, 0.4], [0.1, 0.9]])
    for d in range(3):
        k[:, :, d] = 0.5 * base.T
    s = solve_convex_linear_game([k, k])
    expected = branch_value(k, np.full(3, 1 / 3))
    assert s.value == pytest.approx(expected, abs=1e-9)


def test_convex_game_one_piece_reduces_to_matrix_game():
    rng = np.random.default_rng(24)
    for _ in range(30):
        u = rng.uniform(size=(int(rng.integers(2, 4)), int(rng.integers(2, 4))))
        pieces = [u[:, a].reshape(1, 1, -1) for a in range(u.shape[1])]
        s = solve_convex_linear_game(pieces)
        m = solve_matrix_game(u)
        assert s.value == pytest.approx(m.value, abs=1e-9)


def test_convex_game_against_grid_oracle():
    rng = np.random.default_rng(25)
    grid = np.linspace(0.0, 1.0, 1001)
    deltas = np.stack([grid, 1.0 - grid], axis=1)
    for _ in range(50):
        n_a = int(rng.integers(2, 4))
        pieces = [rng.uniform(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2))
                  for _ in range(n_a)]
        s = solve_convex_linear_game(pieces)
        branch = np.stack([
            np.einsum("ywd,gd->gyw", p, deltas).max(axis=2).sum(axis=1)
            for p in pieces
        ])  # n_a x grid
        oracle = branch.max(axis=0).min()
        assert s.value == pytest.approx(oracle, abs=1e-3)


def test_convex_game_attacker_lp_matches_primal():
    pieces = demo_hidden_pieces()
    primal = solve_convex_linear_game(pieces)
    dual_lp, n_a = convex_game_attacker_lp(pieces)
    dual = lp_solve(dual_lp, convex_game_attacker_start(pieces))
    assert dual.optimal
    assert dual.objective == pytest.approx(primal.value, abs=1e-9)
    assert dual.x[0] == pytest.approx(primal.alpha[0], abs=1e-8)


def test_matrix_game_uniqueness_probe():
    assert matrix_game_unique(DEMO_PAYOFF, 0.8)
    # matching-pennies-with-a-clone: column player has a duplicated action
    u = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    v = solve_matrix_game(u).value
    assert not matrix_game_unique(u, v)


def test_pruning_drops_duplicates_and_dominated_pieces():
    p = np.array([[[1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [2.0, 0.0]]])
    assert binding_pieces(p).tolist() == [[True, False, False, True]]
    # a dominating piece later in w order still wins
    p = np.array([[[0.0, 1.0], [1.0, 2.0]]])
    assert binding_pieces(p).tolist() == [[False, True]]


def test_pruning_keeps_one_of_equal_pieces_per_group():
    p = np.tile(np.array([0.3, 0.0, 0.7]), (2, 4, 1))
    assert binding_pieces(p).tolist() == [[True, False, False, False]] * 2
    assert binding_pieces(np.zeros((3, 2, 2))).sum(axis=1).tolist() == [1, 1, 1]


def test_pruning_with_negative_gains():
    p = np.array([[[-1.0, -2.0], [-1.0, -3.0], [-2.0, 0.0]],
                  [[0.0, 0.0], [-1.0, -1.0], [1.0, -1.0]]])
    assert binding_pieces(p).tolist() == [[True, False, True], [True, False, True]]


def _binding_reference(p):
    """``binding_pieces`` by its docstring's definition, one pair at a time."""
    n_y, n_w, _ = p.shape
    keep = np.ones((n_y, n_w), dtype=bool)
    for y in range(n_y):
        for w in range(n_w):
            for v in range(n_w):
                at_least = (p[y, v] >= p[y, w]).all()
                if v != w and at_least and ((p[y, v] > p[y, w]).any() or v < w):
                    keep[y, w] = False
    return keep


def test_prune_pieces_keeps_every_branch_value():
    # small integer entries give ties, exact duplicates and negative
    # pieces; branches differ in n_y and n_w, n_w = 1 and n_d = 1 occur
    rng = np.random.default_rng(30)
    for _ in range(60):
        n_d = int(rng.integers(1, 4))
        pieces = [rng.integers(-2, 3, size=(int(rng.integers(1, 4)), int(rng.integers(1, 5)), n_d))
                  .astype(float) for _ in range(int(rng.integers(1, 4)))]
        reference = [_binding_reference(p) for p in pieces]
        for p, ref in zip(pieces, reference):
            assert np.array_equal(binding_pieces(p), ref)
        for n_w in {p.shape[1] for p in pieces}:
            stacked = np.concatenate([p for p in pieces if p.shape[1] == n_w])
            as_pruned = np.ascontiguousarray(stacked.transpose(2, 1, 0)).transpose(2, 1, 0)
            assert np.array_equal(binding_pieces(as_pruned), np.concatenate(
                [ref for p, ref in zip(pieces, reference) if p.shape[1] == n_w]))
        kept, full = prune_pieces(pieces), PieceSet.from_arrays(pieces)
        mask = np.concatenate([ref.reshape(-1) for ref in reference])
        assert np.array_equal(kept.k, full.k[mask])
        assert np.array_equal(kept.group, full.group[mask])
        assert np.array_equal(kept.branch, full.branch) and kept.n_a == len(pieces)
        assert set(kept.group.tolist()) == set(range(kept.n_groups))
        for delta in rng.dirichlet(np.ones(n_d), size=5):
            group_max = np.full(kept.n_groups, -np.inf)
            np.maximum.at(group_max, kept.group, kept.k @ delta)
            pruned = np.bincount(kept.branch, weights=group_max, minlength=kept.n_a)
            full_value = [branch_value(p, delta) for p in pieces]
            assert np.allclose(pruned, full_value, rtol=0, atol=1e-12)


def test_prune_pieces_memory_stays_near_the_pieces_size():
    # 400 groups of 64 pieces over 200 coordinates: 41.0 MB of pieces,
    # none of them prunable.  Pruning them one coordinate at a time
    # peaks at 82.6 MB under tracemalloc (2.02 times the pieces: their
    # flat copy and the kept ones).  With an all-pairs broadcast over
    # every coordinate in place of that loop, a [group, v, w, d] boolean
    # array, the same call peaks at 370.7 MB (9.05 times).
    rng = np.random.default_rng(35)
    pieces = [rng.random((50, 64, 200)) for _ in range(8)]
    size = sum(p.nbytes for p in pieces)
    tracemalloc.start()
    try:
        prune_pieces(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_games_are_refused(bad):
    u = DEMO_PAYOFF.copy()
    u[1, 0] = bad
    with pytest.raises(ValueError, match="objective and constraints must be finite"):
        solve_matrix_game(u)
    # the bad piece is not covered by the ones beside it, so it survives pruning
    pieces = [np.ones((2, 2, 3)), np.ones((1, 3, 3))]
    pieces[1][0, 2] = [2.0, bad, 2.0]
    with pytest.raises(ValueError, match="objective and constraints must be finite"):
        solve_convex_linear_game(pieces)
    # and so is a value to probe uniqueness at
    with pytest.raises(ValueError, match="objective and constraints must be finite"):
        matrix_game_unique(DEMO_PAYOFF, bad)


def test_overflowing_per_branch_sums_are_refused():
    # two one-piece groups of one branch add up in its per-a row
    with pytest.raises(ValueError, match="objective and constraints must be finite"):
        solve_convex_linear_game([np.full((2, 1, 2), 1e308)])


def test_formulation_follows_row_counts():
    # one piece per group, all substituted out: the defender LP (2 + 1
    # rows) beats the attacker LP (1 + 5 rows)
    rng = np.random.default_rng(31)
    narrow = [rng.uniform(size=(2, 1, 5)) for _ in range(2)]
    s = solve_convex_linear_game(narrow)
    assert s.diagnostics["formulation"] == "defender"
    assert s.diagnostics["lp_rows"] == 3
    # many binding pieces per group and few delta coordinates: attacker LP
    wide = [rng.uniform(size=(2, 6, 2)) for _ in range(3)]
    s = solve_convex_linear_game(wide)
    sizes = np.concatenate([binding_pieces(p).sum(axis=1) for p in wide])
    assert s.diagnostics["pieces_kept"] == sizes.sum()
    assert s.diagnostics["pieces_total"] == 36
    defender_rows = sizes[sizes > 1].sum() + 3 + 1
    attacker_rows = 1 + (sizes > 1).sum() + 2
    assert s.diagnostics["formulation"] == (
        "attacker" if attacker_rows < defender_rows else "defender")
    assert s.diagnostics["lp_rows"] == min(attacker_rows, defender_rows)


def _reference_matrix_game_lp(u):
    """The matrix game's row-player LP as written out before matrix games
    became one-piece convex games: variables (v, delta), min v."""
    n_d, n_a = u.shape
    c = np.zeros(n_d + 1)
    c[0] = 1.0
    A = np.zeros((n_a + 1, n_d + 1))
    for a in range(n_a):
        A[a, 1:] = u[:, a]
        A[a, 0] = -1.0
    A[n_a, 1:] = 1.0
    b = np.zeros(n_a + 1)
    b[n_a] = 1.0
    return LinearProgram.build(c, A, [LESS] * n_a + [EQUAL], b, sense="min", free=[0])


def _reference_matrix_game_dual_lp(u):
    """Its column-player LP: variables (alpha, w), max w, with the
    simplex row first."""
    n_d, n_a = u.shape
    c = np.zeros(n_a + 1)
    c[-1] = 1.0
    A = np.zeros((n_d + 1, n_a + 1))
    A[0, :n_a] = 1.0
    for d in range(n_d):
        A[1 + d, :n_a] = -u[d, :]
        A[1 + d, -1] = 1.0
    b = np.zeros(n_d + 1)
    b[0] = 1.0
    return LinearProgram.build(c, A, [EQUAL] + [LESS] * n_d, b, sense="max", free=[n_a])


def _assert_same_lp(lp, ref):
    assert lp.sense == ref.sense
    for name in ("c", "A", "b", "slack", "free"):
        assert np.array_equal(getattr(lp, name), getattr(ref, name)), name


def test_one_piece_convex_game_lps_are_the_matrix_game_lps():
    rng = np.random.default_rng(32)
    for _ in range(40):
        u = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        u[rng.random(u.shape) < 0.2] = 0.0
        pieces = [u[:, a].reshape(1, 1, -1) for a in range(u.shape[1])]
        ref = _reference_matrix_game_lp(u)
        for lp in (convex_game_lp(pieces)[0], matrix_game_lp(u)):
            _assert_same_lp(lp, ref)
        assert convex_game_lp(pieces)[1:] == (u.shape[0], list(range(u.shape[1])))
        dual, n_a = convex_game_attacker_lp(pieces)
        assert n_a == u.shape[1]
        _assert_same_lp(dual, _reference_matrix_game_dual_lp(u))


GAIN_VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def convex_games(draw, n_d=None):
    """Random convex games whose pieces are drawn from a small pool per
    branch, so that duplicated and dominated pieces are common."""
    n_d = draw(st.integers(1, 4)) if n_d is None else n_d
    n_a = draw(st.integers(1, 3))
    pieces = []
    for _ in range(n_a):
        n_y, n_w = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        n_pool = draw(st.integers(1, n_y * n_w))
        pool = np.array(draw(st.lists(GAIN_VALUES, min_size=n_pool * n_d,
                                      max_size=n_pool * n_d))).reshape(n_pool, n_d)
        pick = draw(st.lists(st.integers(0, n_pool - 1), min_size=n_y * n_w,
                             max_size=n_y * n_w))
        pieces.append(pool[pick].reshape(n_y, n_w, n_d))
    return pieces


def _reference_attacker_lp(pieces):
    """The column player's LP as written out by hand before it was
    derived as the dual of the epigraph LP: variables alpha (per a),
    beta (per piece of a group of two or more) and gamma, max gamma;
    rows: the simplex, one per such group, one per d."""
    ps = PieceSet.from_arrays(pieces)
    sizes = np.bincount(ps.group, minlength=ps.n_groups)
    groups = np.flatnonzero(sizes > 1).tolist()
    betas = np.flatnonzero(sizes[ps.group] > 1)
    n_a, n_g, n_d = ps.n_a, len(groups), ps.n_d
    nvar = n_a + betas.shape[0] + 1
    c = np.zeros(nvar)
    c[-1] = 1.0
    A = np.zeros((1 + n_g + n_d, nvar))
    A[0, :n_a] = 1.0
    for row, g in enumerate(groups):
        A[1 + row, ps.branch[g]] = -1.0
    for j, i in enumerate(betas):
        A[1 + groups.index(ps.group[i]), n_a + j] = 1.0
        A[1 + n_g:, n_a + j] = -ps.k[i]
    for i in np.flatnonzero(sizes[ps.group] == 1):
        A[1 + n_g:, ps.branch[ps.group[i]]] -= ps.k[i]
    A[1 + n_g:, -1] = 1.0
    b = np.zeros(1 + n_g + n_d)
    b[0] = 1.0
    return LinearProgram.build(c, A, [EQUAL] * (1 + n_g) + [LESS] * n_d, b, sense="max",
                               free=[nvar - 1])


@settings(max_examples=150, deadline=None)
@given(convex_games())
def test_attacker_lp_is_the_hand_built_column_player_lp(pieces):
    for given_pieces in (pieces, prune_pieces(pieces)):
        dual, n_a = convex_game_attacker_lp(given_pieces)
        assert n_a == len(pieces)
        _assert_same_lp(dual, _reference_attacker_lp(given_pieces))


def test_checker_attacker_lps_are_the_hand_built_ones():
    for n in (3, 4, 5):
        game = build_game(n, Prior.uniform(secret_labels(n)))
        kept = prune_pieces([hidden_branch_pieces(game, a) for a in game.attackers])
        _assert_same_lp(convex_game_attacker_lp(kept)[0], _reference_attacker_lp(kept))


def _assert_feasible_start(lp, start):
    """``start`` names m distinct basic columns of ``lp`` (its variables,
    then the slacks of the rows listed), they reinvert, and every basic
    value but a free variable's is >= 0."""
    variables, rows = start
    m = lp.b.shape[0]
    assert variables.size + rows.size == m
    assert np.unique(variables).size == variables.size and np.unique(rows).size == rows.size
    assert (lp.slack[rows] != 0.0).all()
    B = np.hstack([lp.A[:, variables], np.eye(m)[:, rows] * lp.slack[rows]])
    assert np.linalg.matrix_rank(B) == m
    x_B = np.linalg.solve(B, lp.b)
    fixed_sign = np.append(~lp.free[variables], np.ones(rows.size, dtype=bool))
    assert x_B[fixed_sign].min(initial=0.0) >= -1e-12


def _reference_starts(ps):
    """Both pure-strategy starts written out group by group: (the
    epigraph LP's, the attacker LP's)."""
    n_a, n_d = ps.n_a, ps.n_d
    members = [np.flatnonzero(ps.group == g).tolist() for g in range(ps.n_groups)]
    shared = [g for g in range(ps.n_groups) if len(members[g]) > 1]
    piece_row = {i: r for r, i in enumerate(i for g in shared for i in members[g])}
    n_t, n_p = len(shared), len(piece_row)

    def branch_total(a, group_value):
        return [sum(group_value(g, d) for g in range(ps.n_groups) if ps.branch[g] == a)
                for d in range(n_d)]

    value = [branch_total(a, lambda g, d: max(ps.k[i, d] for i in members[g]))
             for a in range(n_a)]
    d0 = min(range(n_d), key=lambda d: max(value[a][d] for a in range(n_a)))
    a0 = max(range(n_a), key=lambda a: value[a][d0])
    binding = {max(members[g], key=lambda i: ps.k[i, d0]) for g in shared}
    defender = ([*range(1 + n_t), 1 + n_t + d0],
                [a for a in range(n_a) if a != a0]
                + [n_a + r for i, r in piece_row.items() if i not in binding])

    chosen = [max(members[g], key=lambda i: ps.k[i].sum()) for g in range(ps.n_groups)]
    total = [branch_total(a, lambda g, d: ps.k[chosen[g], d]) for a in range(n_a)]
    a0 = max(range(n_a), key=lambda a: min(total[a]))
    d_min = min(range(n_d), key=lambda d: total[a0][d])
    attacker = ([a0, *(n_a + piece_row[chosen[g]] for g in shared), n_a + n_p],
                [1 + n_t + d for d in range(n_d) if d != d_min])
    return defender, attacker


@settings(max_examples=150, deadline=None)
@given(convex_games())
def test_pure_strategy_starts_are_feasible_bases_of_both_lp_forms(pieces):
    # whichever form the size rule would pick, pruned or not
    for ps in (PieceSet.from_arrays(pieces), prune_pieces(pieces)):
        lp = convex_game_lp(ps)[0]
        starts = (convex_game_start(ps), convex_game_attacker_start(ps))
        for start, reference in zip(starts, _reference_starts(ps)):
            assert [v.tolist() for v in start] == [list(v) for v in reference]
        for program, start in zip((lp, lp.dual()), starts):
            _assert_feasible_start(program, start)
            with mock.patch.object(simplex, "_run_phase", wraps=simplex._run_phase) as phase:
                warm = lp_solve(program, start)
            assert phase.call_count == 1
            assert warm.optimal
            assert warm.objective == pytest.approx(_highs_convex_game_value(pieces), abs=1e-9)


@contextlib.contextmanager
def _every_lp_started():
    """Fails unless every ``lp_solve`` call that minimax makes inside the
    block starts from a feasible basis (``_assert_feasible_start``).
    Yields the list of the calls' (lp, start), filled as they are made."""
    calls = []

    def solving(lp, start):
        _assert_feasible_start(lp, start)
        calls.append((lp, start))
        return lp_solve(lp, start)

    with mock.patch("leakgames.minimax.lp_solve", solving):
        yield calls
    assert calls


@settings(max_examples=100, deadline=None)
@given(convex_games())
def test_solves_and_uniqueness_probes_start_from_a_basis(pieces):
    u = np.stack([p[0, 0] for p in pieces], axis=1)     # a matrix game: one piece per branch
    with _every_lp_started():
        convex_game_unique(pieces, solve_convex_linear_game(pieces).value)
        matrix_game_unique(u, solve_matrix_game(u).value)


def _packed_places(sets) -> list:
    """Where the rows and columns of each game's own epigraph LP (one
    PieceSet per game) go in the LP that packs them all, per game:
    every game's per-a rows, then their piece rows, then the simplex
    rows; the z's, then the t's, then each game's delta."""
    n_a = [ps.n_a for ps in sets]
    n_t = [ps.shared[0].shape[0] for ps in sets]
    n_p = [int((~ps.alone).sum()) for ps in sets]
    n_games, n_d = len(sets), sets[0].n_d
    places = []
    for g in range(n_games):
        rows = np.concatenate([sum(n_a[:g]) + np.arange(n_a[g]),
                               sum(n_a) + sum(n_p[:g]) + np.arange(n_p[g]),
                               [sum(n_a) + sum(n_p) + g]])
        cols = np.concatenate([[g], n_games + sum(n_t[:g]) + np.arange(n_t[g]),
                               n_games + sum(n_t) + g * n_d + np.arange(n_d)])
        places.append((rows, cols))
    return places


def _packed_lp(games) -> LinearProgram:
    """The games' own epigraph LPs, each written out by
    ``_reference_epigraph_lp``, placed in one LP by ``_packed_places``."""
    lps = [_reference_epigraph_lp(pieces) for pieces in games]
    places = _packed_places([PieceSet.from_arrays(pieces) for pieces in games])
    n_row, n_var = sum(lp.b.shape[0] for lp in lps), sum(lp.n_vars for lp in lps)
    c, A, b, slack = np.zeros(n_var), np.zeros((n_row, n_var)), np.zeros(n_row), np.zeros(n_row)
    free = np.zeros(n_var, dtype=bool)
    for lp, (rows, cols) in zip(lps, places):
        c[cols], A[np.ix_(rows, cols)], free[cols] = lp.c, lp.A, lp.free
        b[rows], slack[rows] = lp.b, lp.slack
    return LinearProgram(c=c, A=A, b=b, slack=slack, sense="min", free=free)


def _stacked_starts(games, attacker: bool) -> tuple:
    """Each game's pure-strategy start of its own (pruned) LP, placed in
    the LP that packs them all: the start that LP should get."""
    kept = [prune_pieces(pieces) for pieces in games]
    start_at = convex_game_attacker_start if attacker else convex_game_start
    stacked = [[], []]
    for ps, (rows, cols) in zip(kept, _packed_places(kept)):
        variables, slacks = start_at(ps)
        # the attacker LP's variables are the epigraph LP's rows, and
        # its rows the epigraph LP's variables
        stacked[0].extend((rows if attacker else cols)[variables])
        stacked[1].extend((cols if attacker else rows)[slacks])
    return tuple(np.sort(v) for v in stacked)


def _assert_packed_from_stacked_starts(games, calls):
    """The LPs ``calls`` solved pack ``games`` in order, each within
    MAX_PACKED_ROWS rows unless it holds one game, and each starts from
    its games' stacked pure-strategy starts."""
    sizes = [(lp.b.shape[0], lp.n_vars) for lp in
             (convex_game_lp(prune_pieces(pieces))[0] for pieces in games)]
    first = 0
    for lp, start in calls:
        attacker = lp.sense == "max"
        primal = (lp.n_vars, lp.b.shape[0]) if attacker else (lp.b.shape[0], lp.n_vars)
        packed = np.cumsum(sizes[first:], axis=0)
        n = 1 + int(np.flatnonzero((packed == primal).all(axis=1))[0])
        assert n == 1 or lp.b.shape[0] <= MAX_PACKED_ROWS
        expected = _stacked_starts(games[first:first + n], attacker)
        assert [v.tolist() for v in start] == [v.tolist() for v in expected]
        first += n
    assert first == len(games)


def _audit_games(game) -> list:
    """The convex games an audit solves: I's matrix game, IV's hidden
    game and VI's one per attacker action."""
    pieces = hidden_pieces(game)
    return [matrix_game_pieces(payoff_matrix(game).data), pieces, *([p] for p in pieces)]


def _wide_game() -> LeakageGame:
    """A game of the widest shape of the audit benchmark: |D| 5, |A| 5,
    8 secrets, 3 observables."""
    rng = np.random.default_rng(36)
    labels = [[f"{tag}{i}" for i in range(n)] for tag, n in zip("dax", (5, 5, 8))]
    prior = Prior(dict(zip(labels[2], rng.dirichlet(np.ones(8)))))
    return LeakageGame.from_tensor(*labels, ["y0", "y1", "y2"],
                                   rng.dirichlet(np.ones(3), size=(5, 5, 8)), prior,
                                   VulnMeasure.bayes())


def test_demo_game_audit_and_probes_start_from_a_basis():
    game = demo_game()
    with _every_lp_started():
        audit_hierarchy(game)
        convex_game_unique([hidden_branch_pieces(game, a) for a in game.attackers],
                           solve(game, "IV").value)
        matrix_game_unique(payoff_matrix(game).data, solve(game, "I").value)
    # an audit of the benchmark's sizes is one LP, started from the
    # games' stacked pure-strategy starts
    for game in (demo_game(), _wide_game()):
        with _every_lp_started() as calls:
            audit_hierarchy(game)
        assert len(calls) == 1
        _assert_packed_from_stacked_starts(_audit_games(game), calls)
    # the 4-bit checker's audit packs its 18 games into LPs within the
    # cap; its IV game alone has 73 rows
    game = build_game(4, Prior.uniform(secret_labels(4)))
    with _every_lp_started() as calls:
        audit_hierarchy(game)
    assert 1 < len(calls) < 18
    assert max(lp.b.shape[0] for lp, _ in calls) <= MAX_PACKED_ROWS
    _assert_packed_from_stacked_starts(_audit_games(game), calls)


def _reference_epigraph_lp(pieces) -> LinearProgram:
    """One game's epigraph LP written out group by group, as the module
    docstring states it: variables z, one t per group of two or more
    pieces, delta; rows per a, per piece of such a group, the simplex."""
    ps = PieceSet.from_arrays(pieces)
    members = [np.flatnonzero(ps.group == g) for g in range(ps.n_groups)]
    shared = [g for g in range(ps.n_groups) if len(members[g]) > 1]
    n_a, n_t, n_d = ps.n_a, len(shared), ps.n_d
    n_p = sum(len(members[g]) for g in shared)
    c = np.zeros(1 + n_t + n_d)
    c[0] = 1.0
    A = np.zeros((n_a + n_p + 1, 1 + n_t + n_d))
    A[:n_a, 0] = -1.0
    row = n_a
    for g, pieces_g in enumerate(members):
        a = ps.branch[g]
        if len(pieces_g) == 1:
            A[a, 1 + n_t:] += ps.k[pieces_g[0]]
            continue
        t = 1 + shared.index(g)
        A[a, t] = 1.0
        for i in pieces_g:
            A[row, t], A[row, 1 + n_t:] = -1.0, ps.k[i]
            row += 1
    A[-1, 1 + n_t:] = 1.0
    b = np.zeros(n_a + n_p + 1)
    b[-1] = 1.0
    return LinearProgram.build(c, A, [LESS] * (n_a + n_p) + [EQUAL], b, sense="min",
                               free=list(range(1 + n_t)))


def _assert_same_bits(lp, ref):
    assert lp.sense == ref.sense
    for name in ("c", "A", "b", "slack", "free"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _highs_guarantee(pieces, alpha) -> float:
    """min over delta of sum_a alpha_a (branch a's payoff), by HiGHS: the
    one-branch game of every group, its pieces scaled by its branch's
    alpha and padded to one width by repeating the last piece."""
    n_w = max(p.shape[1] for p in pieces)
    groups = [np.concatenate([w * p, np.repeat(w * p[:, -1:], n_w - p.shape[1], axis=1)],
                             axis=1) for w, p in zip(alpha, pieces)]
    return _highs_convex_game_value([np.concatenate(groups)])


@st.composite
def packed_games(draw):
    """One to four convex games over one delta, and sometimes, at a
    drawn place among them, a game whose LP alone exceeds the cap.
    Returns the games and the place of that game (None without it)."""
    n_d = draw(st.integers(2, 4))
    games = [draw(convex_games(n_d=n_d)) for _ in range(draw(st.integers(1, 4)))]
    if not draw(st.booleans()):
        return games, None
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    big = draw(st.integers(0, len(games)))
    games.insert(big, [rng.random((MAX_PACKED_ROWS, 4, n_d)) / MAX_PACKED_ROWS
                       for _ in range(2)])
    return games, big


@settings(max_examples=40, deadline=None)
@given(packed_games())
def test_packed_games_solve_as_they_do_alone(drawn):
    pytest.importorskip("scipy")
    games, big = drawn
    # the packed LP is the games' own LPs, placed bit for bit, and a
    # pack of one game is its own LP; its starts are theirs, stacked
    for pack in (games, games[:1]):
        _assert_same_bits(convex_game_lp(PieceSet.from_games(pack))[0], _packed_lp(pack))
        packed = prune_pieces(PieceSet.from_games(pack))
        for start_at, attacker in ((convex_game_start, False), (convex_game_attacker_start, True)):
            expected = _stacked_starts(pack, attacker)
            assert [v.tolist() for v in start_at(packed)] == [v.tolist() for v in expected]
    sols = solve_convex_linear_games(games)
    assert len(sols) == len(games)
    for g, (pieces, sol) in enumerate(zip(games, sols)):
        alone = solve_convex_linear_game(pieces)
        assert abs(sol.value - alone.value) <= 1e-12
        # a game over the cap is solved alone, and no pack exceeds it
        assert (sol.diagnostics == alone.diagnostics) if g == big else (
            sol.diagnostics["lp_rows"] <= MAX_PACKED_ROWS)
        if g == big:
            assert alone.diagnostics["lp_rows"] > MAX_PACKED_ROWS
        assert max(branch_value(p, sol.delta) for p in pieces) <= sol.value + 1e-9
        assert _highs_guarantee(pieces, sol.alpha) >= sol.value - 1e-9


def test_4bit_checker_lp_starts_at_a_pure_strategy():
    # the pure-strategy start needs 25 pivots
    game = build_game(4, Prior.uniform(secret_labels(4)))
    diagnostics = solve(game, "IV").diagnostics
    assert diagnostics["formulation"] == "attacker"
    assert diagnostics["iterations"] <= 40


@settings(max_examples=150, deadline=None)
@given(convex_games())
def test_pruned_chosen_formulation_matches_unpruned_defender_lp(pieces):
    s = solve_convex_linear_game(pieces)
    assert s.value == pytest.approx(_highs_convex_game_value(pieces), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(convex_games())
def test_convex_game_strategies_certify_the_value(pieces):
    s = solve_convex_linear_game(pieces)
    assert s.delta.min() >= 0.0 and s.delta.sum() == pytest.approx(1.0, abs=1e-12)
    assert s.alpha.min() >= 0.0 and s.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    branches = np.array([branch_value(p, s.delta) for p in pieces])
    assert branches.max() == pytest.approx(s.value, abs=1e-9)
    # the column player mixes over best-responding branches only
    assert s.alpha @ branches == pytest.approx(s.value, abs=1e-9)


def test_checker_solutions_certify_themselves():
    for n in (2, 3):
        game = build_game(n, Prior.uniform(secret_labels(n)))
        pieces = [hidden_branch_pieces(game, a) for a in game.attackers]
        sol = solve(game, "IV")
        delta = np.array([sol.defender["dist"][d] for d in game.defenders])
        alpha = np.array([sol.attacker["dist"][a] for a in game.attackers])
        assert max(branch_value(p, delta) for p in pieces) == pytest.approx(sol.value, abs=1e-9)
        assert alpha.min() >= 0.0 and alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.recompute_value(game) == pytest.approx(sol.value, abs=1e-9)
    assert sol.diagnostics["formulation"] == "attacker"


def _highs_convex_game_value(pieces):
    """Defender epigraph LP of the unpruned pieces, assembled here and
    solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    n_d = pieces[0].shape[2]
    n_t = sum(p.shape[0] for p in pieces)
    nvar = n_d + n_t + 1
    a_ub, t = [], 0
    for p in pieces:
        for y in range(p.shape[0]):
            rows = np.zeros((p.shape[1], nvar))
            rows[:, :n_d] = p[y]
            rows[:, n_d + t] = -1.0
            a_ub.append(rows)
            t += 1
    t = 0
    for p in pieces:
        row = np.zeros((1, nvar))
        row[0, n_d + t:n_d + t + p.shape[0]] = 1.0
        row[0, -1] = -1.0
        a_ub.append(row)
        t += p.shape[0]
    a_ub = np.vstack(a_ub)
    a_eq = np.zeros((1, nvar))
    a_eq[0, :n_d] = 1.0
    c = np.zeros(nvar)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n_d + [(None, None)] * (n_t + 1), method="highs")
    assert res.status == 0
    return res.fun


def test_4bit_checker_random_priors_match_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    labels = secret_labels(4)
    for weights in rng.dirichlet(np.ones(len(labels)), size=3):
        game = build_game(4, Prior(dict(zip(labels, weights))))
        pieces = [hidden_branch_pieces(game, a) for a in game.attackers]
        sol = solve(game, "IV")
        assert sol.value == pytest.approx(_highs_convex_game_value(pieces), abs=1e-9)
        delta = np.array([sol.defender["dist"][d] for d in game.defenders])
        assert max(branch_value(p, delta) for p in pieces) == pytest.approx(sol.value, abs=1e-9)
        assert sol.recompute_value(game) == pytest.approx(sol.value, abs=1e-9)
        assert sol.diagnostics["formulation"] == "attacker"
        assert sol.diagnostics["pieces_total"] == 1280


@pytest.mark.parametrize("seed", range(8))
def test_5bit_checker_census_matches_highs(seed):
    # every seed of the census, none dropped
    pytest.importorskip("scipy")
    labels = secret_labels(5)
    prior = Prior(dict(zip(labels, np.random.default_rng(seed).dirichlet(np.ones(32)))))
    game = build_game(5, prior)
    pieces = [hidden_branch_pieces(game, a) for a in game.attackers]
    sol = solve(game, "IV")
    assert sol.value == pytest.approx(_highs_convex_game_value(pieces), abs=1e-9)
    delta = np.array([sol.defender["dist"][d] for d in game.defenders])
    assert max(branch_value(p, delta) for p in pieces) == pytest.approx(sol.value, abs=1e-9)
    assert sol.recompute_value(game) == pytest.approx(sol.value, abs=1e-9)
