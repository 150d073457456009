import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HIGHS_TIGHT, _fit_lp
import leakgames.simplex as simplex
from leakgames import _kernel_py
from leakgames.errors import SolverError
from leakgames.games import hidden_branch_pieces
from leakgames.minimax import convex_game_attacker_lp, convex_game_lp, prune_pieces
from leakgames.pwdcheck import build_game, bundled_prior, secret_labels
from leakgames.simplex import LinearProgram, _standard_form, lp_solve, require_optimal
from leakgames.vuln import Prior


def lp(c, rows, sense="min", free=()):
    """A small LP written as (coefficients, relation, bound) rows."""
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(len(rows), len(c))
    return LinearProgram.build(c, A, [rel for _, rel, _ in rows], [rhs for _, _, rhs in rows],
                               sense=sense, free=free)


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
        A_std, b_std, _, flips, _, _ = _standard_form(program)
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


@pytest.mark.parametrize("c, A, b, free", [
    ([1.0, 2.0], [[1.0, np.nan]], [1.0], ()),
    ([1.0, np.nan], [[1.0, 1.0]], [1.0], ()),
    ([1.0, 2.0], [[1.0, 1.0]], [np.nan], ()),
    ([np.inf, 2.0], [[1.0, 1.0]], [1.0], ()),
    ([1.0, 2.0], [[1.0, -np.inf]], [1.0], ()),
    ([1.0, 2.0], [[1.0, 1.0]], [np.inf], ()),
    ([1.0, 2.0], [[1.0, 1.0]], [1.0], [2]),
    ([1.0, 2.0], [[1.0, 1.0]], [1.0], [-1]),
    ([1.0, 2.0], [[1.0, 1.0]], [1.0], [0.5]),
    ([1.0, 2.0], [[1.0, 1.0]], [1.0], [False, True]),
])
def test_build_rejects_non_finite_numbers_and_stray_free_indices(c, A, b, free):
    # NaN fails every comparison in the simplex unnoticed: it would call
    # max x1 + 2 x2  s.t.  x1 + NaN x2 <= 1 optimal at x = 0
    with pytest.raises(ValueError,
                       match=r"must be finite|free must list variable indices in \[0, 2\)"):
        LinearProgram.build(c, A, ["<="], b, sense="max", free=free)


@pytest.mark.parametrize("c, A, relations, b, sense, match", [
    ([1.0, 2.0], [[1.0, 1.0, 1.0]], ["<="], [1.0], "min", "dimension does not match"),
    ([1.0, 2.0], [1.0, 1.0], ["<="], [1.0], "min", "dimension does not match"),
    ([1.0, 2.0], [[1.0, 1.0]], ["<="], [1.0, 2.0], "min", "number of rows"),
    ([1.0, 2.0], [[1.0, 1.0]], ["<=", "="], [1.0], "min", "number of rows"),
    ([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], ["<=", "=<"], [1.0, 2.0], "min",
     "unknown relation '=<'"),
    ([1.0, 2.0], [[1.0, 1.0]], ["<="], [1.0], "minimize", "unknown sense 'minimize'"),
])
def test_build_rejects_malformed_programs(c, A, relations, b, sense, match):
    with pytest.raises(ValueError, match=match):
        LinearProgram.build(c, A, relations, b, sense=sense)


def test_require_optimal_names_the_status():
    bounded = lp([1.0], [([1.0], ">=", 1.0)])
    sol = lp_solve(bounded)
    assert require_optimal(sol) is sol
    for program, status in [(lp([1.0], [([1.0], "<=", -1.0)]), "infeasible"),
                            (lp([-1.0], [([1.0], ">=", 1.0)]), "unbounded")]:
        sol = lp_solve(program)
        assert sol.status == status
        with pytest.raises(SolverError, match=f"^probe LP finished with status {status}$"):
            require_optimal(sol, "probe LP")


def test_singular_basis_raises_solver_error():
    A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])     # columns 0 and 1 are parallel
    with pytest.raises(SolverError, match="singular basis of 2 rows.*7 pivots"):
        simplex._refactor(A, np.ones(2), np.zeros(3), np.array([0, 1]), 7)


# --- differential against two references -----------------------------------
#
# The first reference is the dense-tableau two-phase simplex this package
# used before its revised simplex: same pivot rules, but it carries and
# updates the whole (m+1) x (n+1) tableau and refactors it with one linear
# solve for all columns.  It fails on some near-degenerate LPs (it raises
# SolverError or LinAlgError), so it is compared only where it returns.
# The second reference is scipy's HiGHS, which decides every status.

def _tableau_refactor(A, b, c, basis):
    m = A.shape[0]
    B = A[:, basis]
    body = np.linalg.solve(B, np.hstack([A, b[:, None]]))
    y = np.linalg.solve(B.T, c[basis])
    obj = np.append(c - y @ A, -y @ b)
    tableau = np.vstack([body, obj])
    tableau[:m][:, basis] = np.eye(m)
    tableau[m, basis] = 0.0
    rhs = tableau[:m, -1]
    if rhs.size and rhs.min() < -1e-7:
        raise SolverError(f"simplex lost primal feasibility (rhs {rhs.min():.3g})")
    np.clip(rhs, 0.0, None, out=rhs)
    return tableau, y


def _tableau_pivot(tableau, basis, r, j):
    tableau[r] /= tableau[r, j]
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    tableau -= np.outer(factors, tableau[r])
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j


def _tableau_run_simplex(tableau, basis, tol, max_iter, state):
    k = _kernel_py
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    obj, amplification = tableau[m], 1.0
    for it in range(max_iter):
        if amplification > k.AMPLIFICATION_CAP:
            return k.REFRESH, it
        if state[0] >= k.STALL_LIMIT:
            negative = np.nonzero(obj[:n] < -tol)[0]
            if negative.size == 0:
                return k.OPTIMAL, it
            j = int(negative[0])
        else:
            j = int(np.argmin(obj[:n]))
            if obj[j] >= -tol:
                return k.OPTIMAL, it
        col, rhs = tableau[:m, j], tableau[:m, n]
        positive = np.nonzero(col > tol)[0]
        if positive.size == 0:
            return k.UNBOUNDED, it
        ratios = np.maximum(rhs[positive] / col[positive], 0.0)
        best = ratios.min()
        ties = positive[ratios == best]
        if state[0] < k.STALL_LIMIT:
            ties = ties[col[ties] == col[ties].max()]
        r = int(ties[np.argmin(basis[ties])])
        pivot = tableau[r, j]
        if pivot < k.TRUSTED_PIVOT and it > 0:
            return k.REFRESH, it
        if pivot < k.SMALL_PIVOT:
            amplification *= k.SMALL_PIVOT / pivot
        state[0] = state[0] + 1 if best <= k.DEGENERATE_STEP else 0
        _tableau_pivot(tableau, basis, r, j)
    return k.ITERATION_LIMIT, max_iter


def _tableau_run_phase(A, b, c, basis, max_iter):
    iterations, state = 0, np.zeros(1, dtype=np.int64)
    tableau, y = _tableau_refactor(A, b, c, basis)
    while True:
        budget = min(simplex.REFACTOR_EVERY, max_iter - iterations)
        if budget <= 0:
            return _kernel_py.ITERATION_LIMIT, tableau, y, iterations
        status, its = _tableau_run_simplex(tableau, basis, simplex.PIVOT_TOL, budget, state)
        iterations += its
        if status == _kernel_py.UNBOUNDED or (status == _kernel_py.OPTIMAL and its == 0):
            return status, tableau, y, iterations
        tableau, y = _tableau_refactor(A, b, c, basis)


def _tableau_lp_solve(program):
    """Status and objective of ``program`` by the dense-tableau simplex."""
    A, b, slack, _, col_index, col_sign = _standard_form(program)
    m, n_std = A.shape
    n_main = col_index.shape[0]
    art = np.flatnonzero(slack != 1.0)
    basis = np.empty(m, dtype=np.int64)
    basis[slack == 1.0] = n_main + np.flatnonzero(slack[slack != 0.0] == 1.0)
    basis[art] = n_std + np.arange(art.size)
    max_iter = 5000 + 100 * (m + n_std + art.size)
    if art.size:
        A1 = np.hstack([A, np.zeros((m, art.size))])
        A1[art, basis[art]] = 1.0
        c1 = np.r_[np.zeros(n_std), np.ones(art.size)]
        status, tableau, _, its = _tableau_run_phase(A1, b, c1, basis, max_iter)
        max_iter -= its
        if status == _kernel_py.ITERATION_LIMIT:
            return "stalled", None
        if status == _kernel_py.UNBOUNDED:
            raise SolverError("phase 1 reported unbounded; its objective is bounded below")
        if -tableau[m, -1] > simplex.FEAS_TOL:
            return "infeasible", None
        # an artificial left in a zero row marks its own row as redundant
        drop = []
        for i in range(m):
            if basis[i] >= n_std:
                nonzero = np.flatnonzero(np.abs(tableau[i, :n_std]) > simplex.PIVOT_TOL)
                if not nonzero.size:
                    drop.append(i)
                    continue
                _tableau_pivot(tableau, basis, i, int(nonzero[0]))
        rows = art[basis[drop] - n_std]
        A, b, basis = np.delete(A, rows, axis=0), np.delete(b, rows), np.delete(basis, drop)
    c0 = program.c if program.sense == "min" else -program.c
    c = np.zeros(n_std)
    c[:n_main] = c0[col_index] * col_sign
    status, tableau, _, _ = _tableau_run_phase(A, b, c, basis, max_iter)
    if status != _kernel_py.OPTIMAL:
        return {_kernel_py.UNBOUNDED: "unbounded"}.get(status, "stalled"), None
    objective = -tableau[-1, -1]
    return "optimal", objective if program.sense == "min" else -objective


def _highs(program):
    """Status and objective of ``program`` by scipy's HiGHS."""
    from scipy.optimize import linprog

    A, b, slack = program.A, program.b, program.slack
    sign = 1.0 if program.sense == "min" else -1.0
    ub = slack != 0.0
    a_ub, b_ub = A[ub] * slack[ub, None], b[ub] * slack[ub]
    a_eq, b_eq = A[~ub], b[~ub]
    # HiGHS's presolve calls some small unbounded LPs infeasible, and
    # without presolve it gives up on some infeasible ones (status 4)
    for presolve in (False, True):
        res = linprog(sign * program.c, A_ub=a_ub if ub.any() else None,
                      b_ub=b_ub if ub.any() else None,
                      A_eq=a_eq if (~ub).any() else None, b_eq=b_eq if (~ub).any() else None,
                      bounds=[(None, None) if f else (0, None) for f in program.free],
                      method="highs", options=dict(HIGHS_TIGHT, presolve=presolve))
        if res.status != 4:
            break
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, sign * res.fun if status == "optimal" else None


def _assert_matches_references(program):
    pytest.importorskip("scipy")
    got = lp_solve(program)
    status, objective = _highs(program)
    assert got.status == status
    close = dict(rel=1e-9, abs=1e-9)
    if status == "optimal":
        assert got.objective == pytest.approx(objective, **close)
        assert got.gap <= 1e-9 and got.max_residual <= 1e-9
        # duals as the lp_solve docstring states them
        signed = got.duals * program.slack * (1.0 if program.sense == "min" else -1.0)
        assert signed.max(initial=0.0) <= 1e-9
        assert float(got.duals @ program.b) == pytest.approx(got.objective, **close)
    try:
        ref_status, ref_objective = _tableau_lp_solve(program)
    except (SolverError, np.linalg.LinAlgError):
        return
    assert ref_status == got.status
    if got.optimal:
        assert got.objective == pytest.approx(ref_objective, **close)


@st.composite
def convex_game_pieces(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_d, n_a = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    coarse = draw(st.booleans())       # few distinct values: many ties
    pieces = []
    for _ in range(n_a):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), n_d)
        pieces.append(rng.integers(0, 3, size=shape) / 4 if coarse else rng.uniform(size=shape))
    return prune_pieces(pieces) if draw(st.booleans()) else pieces


@st.composite
def attacker_form_lps(draw):
    """Column-player LPs of convex games: one equality row per (a, y)."""
    return convex_game_attacker_lp(draw(convex_game_pieces()))[0]


@st.composite
def defender_form_lps(draw):
    """Epigraph LPs of convex games: free t and z on rows with rhs 0."""
    return convex_game_lp(draw(convex_game_pieces()))[0]


def _random_rows(rng, n, m):
    return [(rng.integers(-3, 4, size=n) * rng.uniform(0.1, 3),
             ["<=", "=", ">="][int(rng.integers(3))], float(rng.integers(-3, 4)))
            for _ in range(m)]


@st.composite
def mixed_relation_lps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    free = [j for j in range(n) if rng.uniform() < 0.3]
    return lp(rng.normal(size=n), _random_rows(rng, n, m),
              sense=draw(st.sampled_from(["min", "max"])), free=free)


@st.composite
def infeasible_lps(draw):
    """Random rows plus a contradictory pair a.x <= t, a.x >= t + gap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    rows = _random_rows(rng, n, m)
    a, t = rng.integers(-3, 4, size=n) * rng.uniform(0.1, 3), float(rng.integers(-3, 4))
    rows += [(a, "<=", t), (a, ">=", t + rng.uniform(0.5, 2))]
    rng.shuffle(rows)
    free = [j for j in range(n) if rng.uniform() < 0.3]
    return lp(rng.normal(size=n), rows, sense=draw(st.sampled_from(["min", "max"])), free=free)


def _rows_through(rng, x0, m, relations=("<=", "=", ">=")):
    """m random rows that the point x0 satisfies, some of them tightly."""
    rows = []
    for _ in range(m):
        a = rng.integers(-3, 4, size=x0.size) * rng.uniform(0.1, 3)
        rel = relations[int(rng.integers(len(relations)))]
        room = 0.0 if rel == "=" or rng.uniform() < 0.4 else rng.uniform(0, 2)
        rows.append((a, rel, float(a @ x0) + (room if rel == "<=" else -room)))
    return rows


@st.composite
def unbounded_lps(draw):
    """A feasible system with one extra variable whose column is a
    recession direction (-u on <= rows, +u on >= rows, 0 on = rows) and
    whose cost improves along it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    sense = draw(st.sampled_from(["min", "max"]))
    x0 = rng.integers(0, 3, size=n).astype(float)
    rows = []
    for a, rel, rhs in _rows_through(rng, x0, m):
        u = rng.integers(0, 3) * {"<=": -1.0, "=": 0.0, ">=": 1.0}[rel]
        rows.append((np.append(a, u), rel, rhs))
    c = np.append(rng.normal(size=n), -1.0 if sense == "min" else 1.0)
    free = [j for j in range(n) if rng.uniform() < 0.3]
    return lp(c, rows, sense=sense, free=free)


@st.composite
def redundant_equality_lps(draw):
    """Equality rows through a point x0 >= 0, plus copies and sums of
    them, plus inequality rows through x0 and a box on the total."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m_eq = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    x0 = rng.integers(0, 3, size=n).astype(float)
    eqs = _rows_through(rng, x0, m_eq, ("=",))
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        (a1, _, r1), (a2, _, r2) = (eqs[int(i)] for i in rng.integers(m_eq, size=2))
        w1, w2 = rng.integers(-2, 3, size=2)
        extra.append((w1 * a1 + w2 * a2, "=", float(w1 * r1 + w2 * r2)))
    rows = eqs + extra + _rows_through(rng, x0, int(rng.integers(0, 4)), ("<=", ">="))
    rows.append((np.ones(n), "<=", float(x0.sum()) + 5.0))
    rng.shuffle(rows)
    return lp(rng.normal(size=n), rows, sense=draw(st.sampled_from(["min", "max"])))


@settings(max_examples=150, deadline=None)
@given(attacker_form_lps())
def test_attacker_form_lps_match_references(program):
    _assert_matches_references(program)


@settings(max_examples=100, deadline=None)
@given(defender_form_lps())
def test_defender_form_lps_match_references(program):
    _assert_matches_references(program)


@settings(max_examples=150, deadline=None)
@given(mixed_relation_lps())
def test_mixed_relation_lps_match_references(program):
    _assert_matches_references(program)


@settings(max_examples=100, deadline=None)
@given(infeasible_lps())
def test_infeasible_lps_match_references(program):
    _assert_matches_references(program)
    assert lp_solve(program).status == "infeasible"


@settings(max_examples=100, deadline=None)
@given(unbounded_lps())
def test_unbounded_lps_match_references(program):
    _assert_matches_references(program)
    assert lp_solve(program).status == "unbounded"


@settings(max_examples=100, deadline=None)
@given(redundant_equality_lps())
def test_redundant_equality_lps_match_references(program):
    _assert_matches_references(program)
    assert lp_solve(program).status != "infeasible"


def test_checker_lps_match_references():
    for n, prior in ((3, bundled_prior("pihat")), (4, Prior.uniform(secret_labels(4)))):
        game = build_game(n, prior)
        kept = prune_pieces([hidden_branch_pieces(game, a) for a in game.attackers])
        _assert_matches_references(convex_game_attacker_lp(kept)[0])
        if n == 3:
            _assert_matches_references(convex_game_lp(kept)[0])


# --- the crash basis and the phase-1 pivots it saves -----------------------

def _crashed_start(program):
    """The phase-1 matrix of ``program``'s standard form (artificial
    columns last), its b, and the basis before and after ``_crash``."""
    A, b, slack, _, col_index, _ = _standard_form(program)
    (m, n_std), n_main = A.shape, col_index.shape[0]
    art = np.flatnonzero(slack != 1.0)
    start = np.empty(m, dtype=np.int64)
    start[slack != 0.0] = np.arange(n_main, n_std)
    start[art] = n_std + np.arange(art.size)
    A1 = np.hstack([A, np.zeros((m, art.size))])
    A1[art, n_std + np.arange(art.size)] = 1.0
    basis = start.copy()
    simplex._crash(A, b, np.flatnonzero(program.free), basis)
    return A1, b, start, basis


@settings(max_examples=200, deadline=None)
@given(st.one_of(attacker_form_lps(), defender_form_lps(), mixed_relation_lps(),
                 redundant_equality_lps()))
def test_crash_basis_is_nonsingular_and_keeps_the_start_values(program):
    A1, b, start, basis = _crashed_start(program)
    swapped = basis != start
    assert (b[swapped] == 0.0).all()
    assert np.unique(basis).size == basis.size
    B = A1[:, basis]
    assert np.linalg.matrix_rank(B) == B.shape[0]
    # the start basis is unit columns, so its values are b itself
    assert np.abs(np.linalg.solve(B, b) - b).max(initial=0.0) <= 1e-12
    # and the crash leaves it where no row has b = 0
    if (b != 0.0).all():
        assert not swapped.any()


def _checker_attacker_lp(n, prior):
    game = build_game(n, prior)
    kept = prune_pieces([hidden_branch_pieces(game, a) for a in game.attackers])
    return convex_game_attacker_lp(kept)[0]


@pytest.mark.parametrize("n, prior", [(3, None), (3, "prior_a"), (4, None)])
def test_crash_leaves_phase_1_at_most_two_pivots(monkeypatch, n, prior):
    # _run_phase wrapped as perfbench/spans.py wraps it; in phase 1 only
    # the artificials cost anything
    calls = []
    original = simplex._run_phase

    def run_phase(A, b, c, basis, max_iter):
        live = np.flatnonzero(c[basis] > 0.0)
        result = original(A, b, c, basis, max_iter)
        calls.append((live, b[live], result[3]))
        return result

    monkeypatch.setattr(simplex, "_run_phase", run_phase)
    prior = Prior.uniform(secret_labels(n)) if prior is None else bundled_prior(prior)
    program = _checker_attacker_lp(n, prior)
    assert lp_solve(program).optimal
    live, level, pivots = calls[0]
    # the crash filled every group row (sum_w beta = alpha, rhs 0); the
    # simplex row, the first, keeps the one artificial, at level 1
    assert live.tolist() == [0] and level.tolist() == [1.0]
    assert len(calls) == 2 and pivots <= 2


def test_failed_reinversion_goes_back_to_the_last_good_basis(monkeypatch):
    program = _checker_attacker_lp(3, bundled_prior("pihat"))
    expected = lp_solve(program)
    original, after_pivots = simplex._refactor, []

    def failing(fail_at, A, b, c, basis, pivots=0, floor=-1e-7):
        # count the reinversions that follow pivots and fail the listed ones
        if pivots:
            after_pivots.append(pivots)
            if len(after_pivots) in fail_at:
                raise SolverError("simplex lost primal feasibility (injected)")
        return original(A, b, c, basis, pivots, floor)

    monkeypatch.setattr(simplex, "_refactor", functools.partial(failing, (1,)))
    got = lp_solve(program)
    assert got.optimal and len(after_pivots) > 1
    assert got.objective == pytest.approx(expected.objective, rel=1e-12, abs=1e-12)
    assert got.gap <= 1e-9 and got.max_residual <= 1e-9

    # the first reinversion after going back fails too
    after_pivots.clear()
    monkeypatch.setattr(simplex, "_refactor", functools.partial(failing, (1, 2)))
    with pytest.raises(SolverError, match="injected"):
        lp_solve(program)


# --- near-degenerate L-infinity fit LPs ------------------------------------

def _assert_fit_matches_highs(T, B):
    """lp_solve's fit of T from B: optimal, feasible to 1e-9, and within
    1e-9 of HiGHS's objective, plus however far HiGHS's own point
    violates the LP (its tolerances apply to its internally scaled LP).
    Where HiGHS gives up (about one fit in 3000), there is no reference."""
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq = _fit_lp(T, B)
    rows = [(r, "<=", v) for r, v in zip(a_ub, b_ub)] + [(r, "=", v) for r, v in zip(a_eq, b_eq)]
    s = lp_solve(lp(c, rows))
    assert s.optimal
    assert s.max_residual <= 1e-9
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options=HIGHS_TIGHT)
    if ref.status == 0:
        ref_violation = max(0.0, -ref.x.min(), (a_ub @ ref.x - b_ub).max(),
                            np.abs(a_eq @ ref.x - b_eq).max())
        assert abs(s.objective - ref.fun) <= 1e-9 + ref_violation


def test_near_degenerate_fit_lp():
    # the dense-tableau simplex raised "phase 1 reported unbounded" here
    pytest.importorskip("scipy")
    T = np.array([[0.8 - 1e-8, 0.2 + 1e-8], [0.8, 0.2]])
    B = np.array([[0.8, 0.2], [0.8, 0.2]])
    _assert_fit_matches_highs(T, B)
    _assert_fit_matches_highs(B, T)


@st.composite
def perturbed_channels(draw):
    """A channel of 2-4 secrets with entries k / (row total), some rows
    repeated, and a copy with 1e-8 moved within one row."""
    n_x, n_y = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    row = st.lists(st.integers(0, 9), min_size=n_y, max_size=n_y).filter(any)
    data = np.array(draw(st.lists(row, min_size=n_x, max_size=n_x)), dtype=float)
    B = data / data.sum(axis=1, keepdims=True)
    for x in range(1, n_x):
        if draw(st.booleans()):
            B[x] = B[draw(st.integers(0, x - 1))]
    x = draw(st.integers(0, n_x - 1))
    j = draw(st.sampled_from([j for j in range(n_y) if B[x, j] >= 1e-8]))
    k = draw(st.sampled_from([k for k in range(n_y) if k != j]))
    T = B.copy()
    T[x, j] -= 1e-8
    T[x, k] += 1e-8
    return T, B


@settings(max_examples=300, deadline=None)
@given(perturbed_channels())
def test_near_degenerate_fit_lps_are_solved_or_refused(pair):
    # About one fit in a thousand still ends in a singular or infeasible
    # reinversion: lp_solve must then raise, never return a wrong answer.
    pytest.importorskip("scipy")
    T, B = pair
    for target, base in ((T, B), (B, T)):
        with contextlib.suppress(SolverError):
            _assert_fit_matches_highs(target, base)
