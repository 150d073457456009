import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakgames.simplex as simplex
from leakgames import _kernel_py
from leakgames.games import hidden_branch_pieces
from leakgames.minimax import convex_game_attacker_lp, convex_game_lp, prune_pieces
from leakgames.pwdcheck import build_game, bundled_prior, secret_labels
from leakgames.simplex import LinearProgram, _row_arrays, _standard_form, lp_solve
from leakgames.vuln import Prior


def lp(c, rows, sense="min", free=None):
    return LinearProgram.build(c, rows, sense=sense, free=free)


def test_single_bound():
    s = lp_solve(lp([1.0], [([1.0], "<=", 3.0)], sense="max"))
    assert s.optimal and s.objective == pytest.approx(3.0)
    assert s.x[0] == pytest.approx(3.0)


def test_hull_membership_infeasible():
    # is (0, 1) a mix of the columns (1, 1) and (0, 0)?  any mix has
    # equal coordinates, so no
    rows = [([1.0, 0.0], "=", 0.0), ([1.0, 0.0], "=", 1.0), ([1.0, 1.0], "=", 1.0)]
    assert lp_solve(lp([0.0, 0.0], rows)).status == "infeasible"


def test_matching_pennies_value():
    rows = [([0.0, 1.0, -1.0], "<=", 0.0), ([1.0, 0.0, -1.0], "<=", 0.0),
            ([1.0, 1.0, 0.0], "=", 1.0)]
    s = lp_solve(lp([0.0, 0.0, 1.0], rows, free=[2]))
    assert s.objective == pytest.approx(0.5)


def test_unbounded():
    assert lp_solve(lp([-1.0], [])).status == "unbounded"
    assert lp_solve(lp([-1.0, 0.0], [([0.0, 1.0], "<=", 1.0)])).status == "unbounded"


def test_degenerate_cycling_instance():
    # a classic cycling trap for naive pivoting
    c = [-0.75, 150.0, -0.02, 6.0]
    rows = [([0.25, -60.0, -1 / 25, 9.0], "<=", 0.0),
            ([0.5, -90.0, -1 / 50, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0)]
    s = lp_solve(lp(c, rows))
    assert s.optimal
    assert s.objective == pytest.approx(-0.05)


def test_equality_and_free_variables():
    # min x + y  s.t.  x - y = 2, x + y >= 4, y free
    rows = [([1.0, -1.0], "=", 2.0), ([1.0, 1.0], ">=", 4.0)]
    s = lp_solve(lp([1.0, 1.0], rows, free=[1]))
    assert s.optimal
    assert s.objective == pytest.approx(4.0)
    assert s.x[0] - s.x[1] == pytest.approx(2.0)


def test_duals_and_gap_on_known_lp():
    # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
    rows = [([1.0, 0.0], "<=", 4.0), ([0.0, 2.0], "<=", 12.0), ([3.0, 2.0], "<=", 18.0)]
    s = lp_solve(lp([3.0, 5.0], rows, sense="max"))
    assert s.optimal and s.objective == pytest.approx(36.0)
    assert s.gap <= 1e-8
    assert np.allclose(s.duals, [0.0, 1.5, 1.0], atol=1e-9)


def test_badly_scaled_rows():
    rows = [([1e-6, 0.0], "<=", 3e-6), ([0.0, 1e6], "<=", 5e6), ([1.0, 1.0], ">=", 1.0)]
    s = lp_solve(lp([-1.0, -1.0], rows))
    assert s.optimal
    assert s.objective == pytest.approx(-8.0)
    assert s.gap <= 1e-8 and s.max_residual <= 1e-8


def test_gap_and_feasibility_invariants_random():
    rng = np.random.default_rng(11)
    optimal = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        rows = [(A[i], "<=", float(rng.uniform(0.2, 2))) for i in range(m)]
        free = list(rng.choice(n, size=int(rng.integers(0, n)), replace=False))
        s = lp_solve(lp(rng.normal(size=n), rows, free=free))
        if s.optimal:
            optimal += 1
            assert s.gap <= 1e-8
            assert s.max_residual <= 1e-8
    assert optimal > 50


def _loop_standard_form(program):
    """Entry-by-entry reference for the standard-form expansion."""
    n = program.n_vars
    col_var = [(j, 1.0) for j in range(n)] + [(j, -1.0) for j in range(n) if program.free[j]]
    rows, rhs, rels, flips = [], [], [], []
    for coeffs, rel, b in program.rows:
        scale = float(np.abs(coeffs).max()) if coeffs.size else 0.0
        if scale <= 0.0:
            scale = 1.0
        coeffs, b = coeffs / scale, b / scale
        if b < 0:
            coeffs, b = -coeffs, -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            flips.append(-1.0 / scale)
        else:
            flips.append(1.0 / scale)
        rows.append(coeffs)
        rhs.append(b)
        rels.append(rel)
    n_slack = sum(rel != "=" for rel in rels)
    A_std = np.zeros((len(rows), len(col_var) + n_slack))
    for i, coeffs in enumerate(rows):
        for k, (j, sign) in enumerate(col_var):
            A_std[i, k] = sign * coeffs[j]
    k = len(col_var)
    for i, rel in enumerate(rels):
        if rel != "=":
            A_std[i, k] = 1.0 if rel == "<=" else -1.0
            k += 1
    return A_std, np.array(rhs), np.array(flips)


def _loop_residual(program, x):
    residual = 0.0
    for coeffs, rel, rhs in program.rows:
        lhs = float(coeffs @ x)
        if rel == "<=":
            residual = max(residual, lhs - rhs)
        elif rel == ">=":
            residual = max(residual, rhs - lhs)
        else:
            residual = max(residual, abs(lhs - rhs))
    return max(residual, float(-(x[~program.free]).min(initial=0.0)))


def test_standard_form_matches_entrywise_reference():
    rng = np.random.default_rng(14)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        rows = [(rng.integers(-3, 4, size=n) * rng.uniform(0.1, 3),
                 ["<=", "=", ">="][int(rng.integers(3))], float(rng.integers(-3, 4)))
                for _ in range(m)]
        free = [j for j in range(n) if rng.uniform() < 0.3]
        program = lp(rng.normal(size=n), rows, sense=["min", "max"][trial % 2], free=free)
        A_std, b_std, _, flips, _, _ = _standard_form(*_row_arrays(program), program.free)
        ref_A, ref_b, ref_flips = _loop_standard_form(program)
        assert np.array_equal(A_std, ref_A)
        assert np.array_equal(b_std, ref_b)
        assert np.array_equal(flips, ref_flips)
        s = lp_solve(program)
        if s.optimal:
            assert s.max_residual == pytest.approx(_loop_residual(program, s.x), abs=1e-12)


def test_deterministic_repeat():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(6, 4))
    rows = [(A[i], "<=", 1.0) for i in range(6)]
    program = lp(rng.normal(size=4), rows)
    a = lp_solve(program)
    b = lp_solve(program)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective


def _reference_run_simplex(tableau, basis, n_enter, tol, max_iter, state):
    """The numpy pivot loop with the rank-1 update applied to every row."""
    k = _kernel_py
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    obj = tableau[m]
    amplification = 1.0
    for it in range(max_iter):
        if amplification > k.AMPLIFICATION_CAP:
            return k.REFRESH, it
        bland = state[0] >= k.STALL_LIMIT
        if bland:
            negative = np.nonzero(obj[:n_enter] < -tol)[0]
            if negative.size == 0:
                return k.OPTIMAL, it
            j = int(negative[0])
        else:
            j = int(np.argmin(obj[:n_enter]))
            if obj[j] >= -tol:
                return k.OPTIMAL, it
        col = tableau[:m, j]
        rhs = tableau[:m, n]
        positive = np.nonzero(col > tol)[0]
        if positive.size == 0:
            return k.UNBOUNDED, it
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
        if pivot < k.TRUSTED_PIVOT and it > 0:
            return k.REFRESH, it
        if pivot < k.SMALL_PIVOT:
            amplification *= k.SMALL_PIVOT / pivot
        if best <= k.DEGENERATE_STEP:
            state[0] += 1
        else:
            state[0] = 0
        tableau[r] /= pivot
        prow = tableau[r]
        factors = tableau[:, j].copy()
        factors[r] = 0.0
        tableau -= np.outer(factors, prow)
        tableau[:, j] = 0.0
        tableau[r, j] = 1.0
        basis[r] = j
    return k.ITERATION_LIMIT, max_iter


def _reference_run_phase(A, b, c, basis, n_enter, max_iter):
    """The phase driver that refactors once more after every optimality
    claim, also when the claim was made on a fresh tableau."""
    iterations = 0
    state = np.zeros(1, dtype=np.int64)
    tableau, y = simplex._refactor(A, b, c, basis)
    while True:
        budget = min(simplex.REFACTOR_EVERY, max_iter - iterations)
        if budget <= 0:
            return _kernel_py.ITERATION_LIMIT, tableau, y, iterations
        status, its = _reference_run_simplex(tableau, basis, n_enter, simplex.PIVOT_TOL,
                                             budget, state)
        iterations += its
        if status == _kernel_py.UNBOUNDED:
            return status, tableau, y, iterations
        fresh, y = simplex._refactor(A, b, c, basis)
        if status == _kernel_py.OPTIMAL and its == 0:
            return status, fresh, y, iterations
        tableau = fresh


@contextlib.contextmanager
def _reference_phases():
    saved = simplex._run_phase
    simplex._run_phase = _reference_run_phase
    try:
        yield
    finally:
        simplex._run_phase = saved


def _outcome(program):
    try:
        return lp_solve(program)
    except Exception as exc:  # both paths must fail alike
        return type(exc), str(exc)


def _assert_follows_reference(program):
    got = _outcome(program)
    with _reference_phases():
        ref = _outcome(program)
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert got.status == ref.status
    assert got.iterations == ref.iterations
    # == on arrays: a zero may differ in sign, nothing else may
    for a, b in ((got.x, ref.x), (got.duals, ref.duals)):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert got.objective == ref.objective
    assert got.gap == ref.gap


@st.composite
def attacker_form_lps(draw):
    """Column-player LPs of convex games: one equality row per (a, y)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_d, n_a = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    coarse = draw(st.booleans())       # few distinct values: many ties
    pieces = []
    for _ in range(n_a):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), n_d)
        pieces.append(rng.integers(0, 3, size=shape) / 4 if coarse else rng.uniform(size=shape))
    if draw(st.booleans()):
        pieces = prune_pieces(pieces)
    return convex_game_attacker_lp(pieces)[0]


@st.composite
def mixed_relation_lps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    rows = [(rng.integers(-3, 4, size=n) * rng.uniform(0.1, 3),
             ["<=", "=", ">="][int(rng.integers(3))], float(rng.integers(-3, 4)))
            for _ in range(m)]
    free = [j for j in range(n) if rng.uniform() < 0.3]
    return lp(rng.normal(size=n), rows, sense=draw(st.sampled_from(["min", "max"])), free=free)


@settings(max_examples=150, deadline=None)
@given(attacker_form_lps())
def test_attacker_form_lps_follow_reference_path(program):
    _assert_follows_reference(program)


@settings(max_examples=150, deadline=None)
@given(mixed_relation_lps())
def test_mixed_relation_lps_follow_reference_path(program):
    _assert_follows_reference(program)


def test_checker_lps_follow_reference_path():
    for n, prior in ((3, bundled_prior("pihat")), (4, Prior.uniform(secret_labels(4)))):
        game = build_game(n, prior)
        kept = prune_pieces([hidden_branch_pieces(game, a) for a in game.attackers])
        _assert_follows_reference(convex_game_attacker_lp(kept)[0])
        if n == 3:
            _assert_follows_reference(convex_game_lp(kept)[0])
