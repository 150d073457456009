import numpy as np
import pytest

from leakgames import _kernel_py
from leakgames.simplex import KERNEL_NAME, LinearProgram, _row_arrays, _standard_form, lp_solve

try:
    from leakgames import _kernel as _kernel_c
except ImportError:
    _kernel_c = None


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


@pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")
def test_kernels_follow_identical_paths():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 7))
        A = rng.normal(size=(m, n + 1))
        A[:, -1] = np.abs(A[:, -1])
        obj = rng.normal(size=n + 1)
        t1 = np.ascontiguousarray(np.vstack([A, obj]))
        t2 = t1.copy()
        b1 = np.arange(m, dtype=np.int64)
        b2 = b1.copy()
        s1 = np.zeros(1, dtype=np.int64)
        s2 = np.zeros(1, dtype=np.int64)
        r1 = _kernel_py.run_simplex(t1, b1, n, 1e-9, 200, s1)
        r2 = _kernel_c.run_simplex(t2, b2, n, 1e-9, 200, s2)
        assert r1 == tuple(r2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(t1, t2)


def test_kernel_selection_reported():
    assert KERNEL_NAME in ("compiled", "python")
    s = lp_solve(lp([1.0], [([1.0], ">=", 1.0)]))
    assert s.kernel == KERNEL_NAME
