"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines as they complete.

Criterion 1 pins the demo game's mixed attacker-first hidden value
(``VI_mixed``) at 1/2 and carries its own proof, computed with plain
numpy from the demo channels rather than from the LP solver:

* upper bound (witness): the defender mixes 1/4 on the constant
  function a -> 0 and 3/4 on the copy function a -> a.  Its marginals
  P(d=0 | a=0) = 1 and P(d=0 | a=1) = 1/4 give payoff 1/2 against both
  attacker actions;
* lower bound: against attacker action 0, any function mixture induces
  some marginal p = P(d=0 | a=0), and the payoff 1 - p/2 is at least
  1/2 for every p in [0, 1].

An earlier reference figure of 4/7 was wrong: the witness above beats
it on both branches.  A function mixture pays what its per-action
marginals pay (Kuhn, 1953), so the mixed value equals the behavioural
value, 1/2.
"""

import numpy as np
import pytest

from conftest import (
    DEMO_CHANNELS,
    channel,
    demo_game,
    random_channel,
    random_game,
    random_prior,
)
from leakgames.channels import (
    Channel,
    IndexDistribution,
    binary_hidden,
    binary_visible,
    equivalent,
    hidden_choice,
    visible_choice,
)
from leakgames.games import (
    LeakageGame,
    audit_hierarchy,
    hidden_branch_pieces,
    payoff_matrix,
    solve,
)
from leakgames.matrix import concat, matrix_sum, scalar_mul
from leakgames.minimax import (
    branch_value,
    convex_game_unique,
    fictitious_play,
    matrix_game_unique,
    solve_convex_linear_game,
    solve_matrix_game,
)
from leakgames.pwdcheck import (
    build_game,
    bundled_prior,
    expected_iterations,
    expected_iterations_series,
    measured_iterations,
    permute_bits,
    pwd_channel,
    secret_labels,
    verify_uniform_equilibrium,
)
from leakgames.vuln import Prior, VulnMeasure, posterior_vuln
from test_pwdcheck import PIHAT_TABLE


def report(tag: str, ok: bool, detail: str = ""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}"
    print(line)
    return ok


def _demo_hidden_payoff(weights, a):
    """Bayes vulnerability, uniform prior, of the demo game's hidden-choice
    channel for attacker action ``a`` when the defender draws action ``d``
    with probability ``weights[d]``."""
    mixed = sum(w * np.array(DEMO_CHANNELS[d, a], dtype=float)
                for d, w in weights.items())
    prior = np.full(mixed.shape[0], 1 / mixed.shape[0])
    return float((prior[:, None] * mixed).max(axis=0).sum())


def test_c01_demo_game_values():
    g = demo_game()
    expected = {"I": 4 / 5, "II": 1.0, "III": 2 / 3, "IV": 5 / 7, "V": 5 / 7,
                "VI_mixed": 1 / 2, "VI_behavioral": 1 / 2}
    got = {k: solve(g, k).value for k in expected}
    bad = {k: (got[k], v) for k, v in expected.items() if abs(got[k] - v) > 1e-8}

    # Certificate for VI_mixed = 1/2, independent of the LP solver.
    # Upper bound: 1/4 on a -> 0 plus 3/4 on a -> a; under hidden choice
    # the attacker faces the weighted sum of C[f(a), a] over functions f.
    functions = [({"0": "0", "1": "0"}, 1 / 4), ({"0": "0", "1": "1"}, 3 / 4)]
    witness = {}
    for a in ("0", "1"):
        weights = {"0": 0.0, "1": 0.0}
        for f, w in functions:
            weights[f[a]] += w
        witness[a] = _demo_hidden_payoff(weights, a)
    witness_ok = all(abs(v - 1 / 2) <= 1e-12 for v in witness.values())
    # Lower bound: against a = 0 every mixture induces some p = P(d=0 | a=0),
    # and the payoff is 1 - p/2 >= 1/2 on [0, 1].
    grid = np.linspace(0.0, 1.0, 10001)
    f0 = np.array([_demo_hidden_payoff({"0": p, "1": 1 - p}, "0") for p in grid])
    lower_ok = (np.max(np.abs(f0 - (1 - grid / 2))) <= 1e-12
                and f0.min() >= 1 / 2 - 1e-12)

    ok = report(
        "C01 demo-game values", not bad and witness_ok and lower_ok,
        " ".join(f"{k}={got[k]:.6g}" for k in expected)
        + f" | VI_mixed witness={witness['0']:.6g}/{witness['1']:.6g}"
        + f" lower bound min f0={f0.min():.6g}"
        + (f" | off: {bad}" if bad else ""))
    assert ok, (
        f"values off by more than 1e-8: {bad}; VI_mixed certificate: "
        f"witness payoffs {witness} (both must be 1/2), "
        f"min over p of f0(p) = {f0.min()} (must be 1/2 and match 1 - p/2)")


def test_c02_demo_game_i_equilibrium():
    g = demo_game()
    u = np.array([[0.5, 1.0], [1.0, 2 / 3]])
    s = solve(g, "I")
    value_ok = abs(s.value - 4 / 5) <= 1e-8
    unique = matrix_game_unique(u, s.value)
    if unique:
        strat_ok = (abs(s.defender["dist"]["0"] - 2 / 5) <= 1e-8
                    and abs(s.attacker["dist"]["0"] - 2 / 5) <= 1e-8)
    else:
        strat_ok = True
    ok = report("C02 simultaneous-visible equilibrium", value_ok and strat_ok,
                f"value={s.value:.9f} unique={unique} "
                f"delta0={s.defender['dist']['0']:.9f} alpha0={s.attacker['dist']['0']:.9f}")
    assert ok


def test_c03_demo_game_iv_equilibrium():
    g = demo_game()
    s = solve(g, "IV")
    value_ok = abs(s.value - 5 / 7) <= 1e-8
    pieces = [hidden_branch_pieces(g, a) for a in g.attackers]
    unique = convex_game_unique(pieces, s.value)
    if unique:
        strat_ok = (abs(s.defender["dist"]["0"] - 4 / 7) <= 1e-6
                    and abs(s.attacker["dist"]["0"] - 4 / 7) <= 1e-6)
    else:
        strat_ok = True
    ok = report("C03 simultaneous-hidden equilibrium", value_ok and strat_ok,
                f"value={s.value:.9f} unique={unique} "
                f"delta0={s.defender['dist']['0']:.9f} alpha0={s.attacker['dist']['0']:.9f}")
    assert ok


def test_c04_operator_algebra():
    rng = np.random.default_rng(1004)
    secrets = ("x1", "x2", "x3")
    violations = []

    def eq(a, b, tol=1e-9):
        return np.max(np.abs(a - b)) <= tol

    for i in range(100):
        cols = ("y1", "y2")
        c1 = random_channel(rng, secrets, cols)
        c2 = random_channel(rng, secrets, cols)
        c3 = random_channel(rng, secrets, cols)
        d1 = random_channel(rng, secrets, ("u1", "u2", "u3"))
        p, q, r = rng.uniform(size=3)
        q = max(q, 1e-2)
        w = rng.dirichlet(np.ones(3))
        mu = IndexDistribution({"1": w[0], "2": w[1], "3": w[2]})
        pi = random_prior(rng, secrets)
        bayes = VulnMeasure.bayes()

        # idempotency (hidden exact, visible up to equivalence)
        fam_same = {"1": c1, "2": c1, "3": c1}
        if not eq(hidden_choice(mu, fam_same).data, c1.data):
            violations.append((i, "hidden idempotency"))
        if not equivalent(visible_choice(mu, fam_same), c1, tol=1e-7):
            violations.append((i, "visible idempotency"))

        # reorganisation: product mixtures collapse
        eta_w = rng.dirichlet(np.ones(2))
        eta = IndexDistribution({"a": eta_w[0], "b": eta_w[1]})
        fam_ij = {(oi, oj): random_channel(rng, secrets, cols)
                  for oi in ("1", "2", "3") for oj in ("a", "b")}
        prod = IndexDistribution({k: mu[k[0]] * eta[k[1]] for k in fam_ij})
        nested = hidden_choice(mu, {
            oi: hidden_choice(eta, {oj: fam_ij[oi, oj] for oj in ("a", "b")})
            for oi in ("1", "2", "3")})
        if not eq(nested.data, hidden_choice(prod, fam_ij).data):
            violations.append((i, "hidden/hidden reorganisation"))
        swap_h = hidden_choice(mu, {
            oi: visible_choice(eta, {oj: fam_ij[oi, oj] for oj in ("a", "b")})
            for oi in ("1", "2", "3")})
        swap_v = visible_choice(eta, {
            oj: hidden_choice(mu, {oi: fam_ij[oi, oj] for oi in ("1", "2", "3")})
            for oj in ("a", "b")})
        if not equivalent(swap_h, swap_v, tol=1e-7):
            violations.append((i, "hidden/visible interchange"))

        # binary laws: commutativity, rescaled associativity, absorption
        if not eq(binary_hidden(p, c1, c2).data, binary_hidden(1 - p, c2, c1).data):
            violations.append((i, "hidden commutativity"))
        lhs = binary_hidden(p, c1, binary_hidden(q, c2, c3))
        inner = matrix_sum([scalar_mul(p / q, c1), scalar_mul(1 - p, c2)])
        rhs = matrix_sum([scalar_mul(q, inner),
                          scalar_mul((1 - q) * (1 - p), c3)])
        if not eq(Channel(rhs).data, lhs.data):
            violations.append((i, "hidden associativity"))
        if not eq(binary_hidden(q, binary_hidden(p, c1, c2),
                                binary_hidden(r, c1, c2)).data,
                  binary_hidden(p * q + (1 - q) * r, c1, c2).data):
            violations.append((i, "hidden absorption"))
        if not equivalent(binary_visible(p, d1, c2),
                          binary_visible(1 - p, c2, d1), tol=1e-7):
            violations.append((i, "visible commutativity"))
        vl = binary_visible(p, d1, binary_visible(q, c2, c3))
        vi = concat([("1", scalar_mul(p / q, d1)),
                     ("2", scalar_mul(1 - p, c2))])
        vr = Channel(concat([("1", scalar_mul(q, vi)),
                             ("2", scalar_mul((1 - q) * (1 - p), c3))]))
        if not equivalent(vl, vr, tol=1e-7):
            violations.append((i, "visible associativity"))

        # visible distributes over hidden
        if not equivalent(
                binary_visible(p, d1, binary_hidden(q, c2, c3)),
                binary_hidden(q, binary_visible(p, d1, c2), binary_visible(p, d1, c3)),
                tol=1e-7):
            violations.append((i, "distributivity"))

        # posterior vulnerability: convex under hidden, linear under visible
        fam3 = {"1": c1, "2": c2, "3": c3}
        mixed = posterior_vuln(bayes, pi, hidden_choice(mu, fam3))
        avg = sum(mu[k] * posterior_vuln(bayes, pi, c) for k, c in fam3.items())
        if mixed > avg + 1e-9:
            violations.append((i, "hidden convexity"))
        vis = posterior_vuln(bayes, pi, visible_choice(mu, fam3))
        if abs(vis - avg) > 1e-9:
            violations.append((i, "visible linearity"))

    ok = report("C04 operator algebra (100 random instances per law)",
                not violations, f"violations={violations[:5]}")
    assert ok


def test_c05_hierarchy_orderings():
    rng = np.random.default_rng(1005)
    violations = []
    for i in range(200):
        rep = audit_hierarchy(random_game(rng), tol=1e-7)
        if not rep.ok:
            violations.append((i, rep.violations))
    g = demo_game()
    iii, iv = solve(g, "III").value, solve(g, "IV").value
    pair_one = abs(iii - 2 / 3) <= 1e-8 and abs(iv - 5 / 7) <= 1e-8 and iii < iv
    chans = {(d, a): g.channel(d, a) for d in g.defenders for a in g.attackers}
    chans[("1", "1")] = channel("01", "01", [[0, 1], [1, 0]])
    flipped = LeakageGame(("0", "1"), ("0", "1"), chans,
                          Prior.uniform("01"), VulnMeasure.bayes())
    iii2, iv2 = solve(flipped, "III").value, solve(flipped, "IV").value
    pair_two = abs(iii2 - 1.0) <= 1e-8 and abs(iv2 - 2 / 3) <= 1e-8 and iii2 > iv2
    ok = report("C05 hierarchy orderings (200 games) + III/IV witnesses",
                not violations and pair_one and pair_two,
                f"violations={len(violations)} "
                f"witness1=(III={iii:.4f}<IV={iv:.4f}) "
                f"witness2=(III={iii2:.4f}>IV={iv2:.4f})")
    assert ok


def test_c06_pwd_payoffs_and_value_under_pihat():
    g = build_game(3, bundled_prior("pihat"))
    u = payoff_matrix(g)
    bad = []
    for d, row in PIHAT_TABLE.items():
        for a, expected in zip(secret_labels(3), row):
            if abs(u.at(d, a) - expected) > 2e-3:
                bad.append((d, a, u.at(d, a), expected))
    s = solve(g, "IV")
    uniform = np.full(6, 1 / 6)
    worst = max(branch_value(hidden_branch_pieces(g, a), uniform) for a in g.attackers)
    value_ok = abs(s.value - 0.6573) <= 2e-3 and abs(worst - 0.6573) <= 2e-3
    ok = report("C06 3-bit checker under the published prior",
                not bad and value_ok,
                f"table entries off: {len(bad)}; value={s.value:.6f} "
                f"uniform-worst={worst:.6f}")
    assert ok


def test_c07_pwd_values_under_skewed_priors():
    uniform = np.full(6, 1 / 6)
    g_a = build_game(3, bundled_prior("prior_a"))
    v_a = solve(g_a, "IV").value
    w_a = max(branch_value(hidden_branch_pieces(g_a, a), uniform)
              for a in g_a.attackers)
    g_b = build_game(3, bundled_prior("prior_b"))
    v_b = solve(g_b, "IV").value
    w_b = max(branch_value(hidden_branch_pieces(g_b, a), uniform)
              for a in g_b.attackers)
    ok = report(
        "C07 skewed priors",
        abs(v_a - 0.5625) <= 1e-4 and abs(w_a - 7 / 12) <= 1e-4
        and abs(v_b - 0.4553) <= 1e-3 and abs(w_b - 0.4666) <= 1e-3,
        f"A: value={v_a:.6f} uniform={w_a:.6f}; B: value={v_b:.6f} uniform={w_b:.6f}")
    assert ok


def test_c08_uniform_prior_equilibrium():
    results = {n: verify_uniform_equilibrium(n) for n in (2, 3, 4)}
    eq_ok = all(r.payoff_spread <= 1e-9 and r.lp_gap_to_uniform <= 1e-8
                for r in results.values())

    # exact channel symmetries for n = 3
    rng = np.random.default_rng(1008)
    n = 3
    sym_ok = True
    a0 = "0" * n
    for _ in range(20):
        rho = tuple(rng.permutation(np.arange(1, n + 1)))
        d = tuple(rng.permutation(np.arange(1, n + 1)))
        d_label = "".join(map(str, d))
        rho_d = "".join(str(rho[i - 1]) for i in d)
        left = pwd_channel(n, d_label, a0)
        right = pwd_channel(n, rho_d, a0)
        rows = tuple(permute_bits(x, rho) for x in right.secrets)
        permuted = right
        from leakgames.matrix import LabeledMatrix
        permuted = LabeledMatrix(rows, right.observables, right.data).align_to(
            left.secrets, left.observables)
        sym_ok &= bool(np.array_equal(left.data, permuted.data))

        a = format(rng.integers(0, 8), "03b")
        a2 = format(rng.integers(0, 8), "03b")
        shift = int(a, 2) ^ int(a2, 2)
        dd = "".join(map(str, rng.permutation(np.arange(1, 4))))
        left2 = pwd_channel(n, dd, a)
        right2 = pwd_channel(n, dd, a2)
        rows2 = tuple(format(int(x, 2) ^ shift, "03b") for x in right2.secrets)
        permuted2 = LabeledMatrix(rows2, right2.observables, right2.data).align_to(
            left2.secrets, left2.observables)
        sym_ok &= bool(np.array_equal(left2.data, permuted2.data))

    ok = report(
        "C08 uniform-order optimality at uniform prior (n=2,3,4) + symmetries",
        eq_ok and sym_ok,
        " ".join(f"n={n}: spread={r.payoff_spread:.1e} gap={r.lp_gap_to_uniform:.1e}"
                 for n, r in results.items()) + f" symmetries={'exact' if sym_ok else 'BROKEN'}")
    assert ok


def test_c09_expected_iterations():
    closed_ok = all(
        abs(expected_iterations(n) - expected_iterations_series(n)) <= 1e-12
        for n in range(1, 21))
    mc_ok = True
    details = []
    for n in (4, 8):
        measured = measured_iterations(n, samples=100_000, seed=1009)
        analytic = expected_iterations(n)
        mc_ok &= abs(measured - analytic) <= 0.01 * analytic
        details.append(f"n={n}: {measured:.4f} vs {analytic:.4f}")
    ok = report("C09 expected iteration counts", closed_ok and mc_ok,
                "; ".join(details))
    assert ok


def test_c10_solver_cross_validation():
    rng = np.random.default_rng(1010)
    bracket_ok = True
    gap_ok = True
    for trial in range(50):
        u = rng.uniform(size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        s = solve_matrix_game(u)
        gap_ok &= s.diagnostics["gap"] <= 1e-8
        b = fictitious_play(u, iters=2000, seed=trial)
        bracket_ok &= b.contains(s.value)

    grid = np.linspace(0.0, 1.0, 1001)
    deltas = np.stack([grid, 1.0 - grid], axis=1)
    oracle_ok = True
    for _ in range(50):
        pieces = [rng.uniform(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2))
                  for _ in range(int(rng.integers(2, 4)))]
        s = solve_convex_linear_game(pieces)
        gap_ok &= s.diagnostics["gap"] <= 1e-8
        branch = np.stack([
            np.einsum("ywd,gd->gyw", p, deltas).max(axis=2).sum(axis=1)
            for p in pieces])
        oracle_ok &= abs(s.value - branch.max(axis=0).min()) <= 1e-3
    ok = report("C10 solver cross-validation",
                bracket_ok and oracle_ok and gap_ok,
                f"brackets={'ok' if bracket_ok else 'FAIL'} "
                f"grid-oracle={'ok' if oracle_ok else 'FAIL'} "
                f"gaps={'ok' if gap_ok else 'FAIL'}")
    assert ok
