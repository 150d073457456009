import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    channel,
    demo_game,
    random_channel,
    random_game,
    random_measure,
    random_prior,
)
from leakgames.channels import Channel
from leakgames.errors import DuplicateIndex, TypeMismatch, UnknownAction
from leakgames.games import (
    KINDS,
    LeakageGame,
    audit_hierarchy,
    hidden_branch_pieces,
    hidden_mixture_value,
    hidden_pieces,
    mixed_to_behavioral,
    payoff_matrix,
    quantile_coupling,
    solve,
)
from leakgames.minimax import branch_value
from leakgames.vuln import Prior, VulnMeasure, posterior_vuln


def test_pure_payoffs_demo(game2x2):
    u = payoff_matrix(game2x2)
    assert u.at("0", "0") == pytest.approx(0.5)
    assert u.at("0", "1") == pytest.approx(1.0)
    assert u.at("1", "0") == pytest.approx(1.0)
    assert u.at("1", "1") == pytest.approx(2 / 3)
    with pytest.raises(UnknownAction):
        game2x2.channel("7", "0")
    with pytest.raises(UnknownAction):
        hidden_branch_pieces(game2x2, "7")


def test_payoffs_equal_each_profiles_posterior_vulnerability():
    # the loop reference: one posterior_vuln call per rebuilt channel
    rng = np.random.default_rng(22)
    for _ in range(40):
        g = random_game(rng)
        u = payoff_matrix(g)
        for d in g.defenders:
            for a in g.attackers:
                ref = posterior_vuln(g.measure, g.prior, g.channel(d, a))
                assert u.at(d, a) == pytest.approx(ref, abs=1e-12)


def test_noninterferent_payoff():
    flat = channel("ab", "01", [[0.3, 0.7], [0.3, 0.7]])
    g = LeakageGame(("d",), ("a",), {("d", "a"): flat},
                    Prior({"a": 0.6, "b": 0.4}), VulnMeasure.bayes())
    assert payoff_matrix(g).at("d", "a") == pytest.approx(0.6)


def test_game_construction_checks():
    flat = channel("ab", "01", [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(UnknownAction):
        LeakageGame(("0", "1"), ("0",), {("0", "0"): flat},
                    Prior.uniform("ab"), VulnMeasure.bayes())
    with pytest.raises(TypeMismatch):
        LeakageGame(("0",), ("0",), {("0", "0"): flat},
                    Prior.uniform(("p", "q")), VulnMeasure.bayes())


def test_game_rejects_repeated_and_unknown_actions():
    flat = channel("ab", "01", [[0.5, 0.5], [0.5, 0.5]])
    chans = {(d, a): flat for d in "01" for a in "01"}
    prior, bayes = Prior.uniform("ab"), VulnMeasure.bayes()
    with pytest.raises(DuplicateIndex):
        LeakageGame(("0", "1", "1"), ("0", "1"), chans, prior, bayes)
    with pytest.raises(DuplicateIndex):
        LeakageGame(("0", "1"), ("0", "0", "1"), chans, prior, bayes)
    with pytest.raises(UnknownAction):
        LeakageGame(("0", "1"), ("0", "1"), {**chans, ("7", "0"): flat}, prior, bayes)


def test_game_needs_a_defender_and_an_attacker():
    prior, bayes = Prior.uniform("xy"), VulnMeasure.bayes()
    with pytest.raises(ValueError, match="at least one defender"):
        LeakageGame((), ("a",), {}, prior, bayes)
    with pytest.raises(ValueError, match="at least one attacker"):
        LeakageGame(("d",), (), {}, prior, bayes)


def test_tensor_games_check_every_profile_at_once():
    blocks = np.zeros((2, 1, 2, 2))
    blocks[..., 0] = 1.0
    args = (("0", "1"), ("a",), ("x", "y"), ("u", "v"))
    prior, bayes = Prior.uniform("xy"), VulnMeasure.bayes()
    g = LeakageGame.from_tensor(*args, blocks, prior, bayes)
    assert g.declared.all() and g.channel("1", "a").observables == ("u", "v")
    bad = blocks.copy()
    bad[1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LeakageGame.from_tensor(*args, bad, prior, bayes)
    bad[1, 0, 1, 0] = 0.5
    with pytest.raises(ValueError, match=r"^row 'y' of channel \('1', 'a'\) sums to 0\.5"):
        LeakageGame.from_tensor(*args, bad, prior, bayes)
    with pytest.raises(TypeMismatch):
        LeakageGame.from_tensor(*args, blocks, Prior.uniform("pq"), bayes)
    with pytest.raises(DuplicateIndex):
        LeakageGame.from_tensor(("1", "0"), *args[1:], blocks, prior, bayes)


def test_solve_demo_values(game2x2):
    expected = {"I": 4 / 5, "II": 1.0, "III": 2 / 3, "IV": 5 / 7, "V": 5 / 7,
                "VI_behavioral": 1 / 2}
    for kind, value in expected.items():
        assert solve(game2x2, kind).value == pytest.approx(value, abs=1e-9), kind


def test_solve_demo_game_i_strategies(game2x2):
    s = solve(game2x2, "I")
    assert s.defender["dist"]["0"] == pytest.approx(2 / 5, abs=1e-9)
    assert s.attacker["dist"]["0"] == pytest.approx(2 / 5, abs=1e-9)


def test_solve_demo_game_ii_has_two_pure_optima(game2x2):
    s = solve(game2x2, "II")
    u = payoff_matrix(game2x2)
    # either pure defender action already yields the same worst case
    assert max(u.at("0", a) for a in game2x2.attackers) == pytest.approx(s.value)
    assert max(u.at("1", a) for a in game2x2.attackers) == pytest.approx(s.value)
    # the follower best-responds to the visible action
    assert s.attacker["map"]["0"] == "1"
    assert s.attacker["map"]["1"] == "0"


def test_solve_demo_game_iii(game2x2):
    s = solve(game2x2, "III")
    assert s.attacker["action"] == "1"
    assert s.defender["map"]["1"] == "1"
    assert s.value == pytest.approx(2 / 3)


def test_solve_demo_game_iv_strategies(game2x2):
    s = solve(game2x2, "IV")
    assert s.defender["dist"]["0"] == pytest.approx(4 / 7, abs=1e-6)
    assert s.attacker["dist"]["0"] == pytest.approx(4 / 7, abs=1e-6)


def test_game_v_is_alias_of_iv(game2x2):
    a = solve(game2x2, "IV")
    b = solve(game2x2, "V")
    assert b.kind == "V" and "alias" in b.diagnostics
    assert b.value == pytest.approx(a.value, abs=1e-12)
    assert b.defender["dist"] == a.defender["dist"]


def test_demo_vi_behavioral_branch_minima(game2x2):
    s = solve(game2x2, "VI_behavioral")
    per_a = s.attacker["per_action_value"]
    assert per_a["0"] == pytest.approx(0.5, abs=1e-9)
    assert per_a["1"] == pytest.approx(0.5, abs=1e-9)
    # branch a=0 is minimised by the first program alone, branch a=1 by
    # the quarter/three-quarter mixture
    assert s.defender["map"]["0"]["0"] == pytest.approx(1.0, abs=1e-8)
    assert s.defender["map"]["1"]["0"] == pytest.approx(0.25, abs=1e-8)


def brute_force_vi_mixed(game, steps=60):
    """Grid search over per-action marginals of a two-action game.

    Every combination of per-action marginals is realised by some
    distribution over functions (take the product measure), so the
    optimum over functions equals the optimum over marginal profiles.
    """
    grid = np.linspace(0.0, 1.0, steps + 1)
    best = np.inf
    pieces = {a: hidden_branch_pieces(game, a) for a in game.attackers}
    for combo in itertools.product(grid, repeat=len(game.attackers)):
        worst = max(
            branch_value(pieces[a], np.array([p, 1.0 - p]))
            for a, p in zip(game.attackers, combo))
        best = min(best, worst)
    return best


def test_demo_vi_mixed_matches_brute_force(game2x2):
    s = solve(game2x2, "VI_mixed")
    assert s.value == pytest.approx(brute_force_vi_mixed(game2x2), abs=1e-3)
    assert s.value == pytest.approx(0.5, abs=1e-9)
    # an explicit dominating mixture: 1/4 on the constant-0 function,
    # 3/4 on the identity function, giving branch payoffs (1/2, 1/2)
    marg = s.defender["marginals"]
    for a in game2x2.attackers:
        delta = np.array([marg[a][d] for d in game2x2.defenders])
        assert hidden_mixture_value(game2x2, a, delta) <= s.value + 1e-9


def test_demo_vi_mixed_witness(game2x2):
    # the quantile coupling of the behavioural marginals (1, 0) and
    # (1/4, 3/4): 1/4 on the constant function a -> 0, 3/4 on a -> a
    s = solve(game2x2, "VI_mixed")
    assert s.defender["dist"] == {("0", "0"): 0.25, ("0", "1"): 0.75}
    assert s.attacker == solve(game2x2, "VI_behavioral").attacker


def _support_bound(marginals):
    return sum(int((np.asarray(m) > 0).sum()) for m in marginals) - len(marginals) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vi_mixed_is_the_coupled_behavioral_solution(seed):
    g = random_game(np.random.default_rng(seed))
    mixed, behavioral = solve(g, "VI_mixed"), solve(g, "VI_behavioral")
    assert mixed.value == behavioral.value
    sigma = mixed.defender["dist"]
    weights = np.array(list(sigma.values()))
    assert (weights > 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(len(f) == len(g.attackers) and set(f) <= set(g.defenders) for f in sigma)
    marg = mixed_to_behavioral(sigma, mixed.defender["function_order"], g.defenders)
    beh = behavioral.defender["map"]
    for a in g.attackers:
        for d in g.defenders:
            assert marg[a][d] == pytest.approx(beh[a][d], abs=1e-12)
    assert len(sigma) <= _support_bound(
        [[beh[a][d] for d in g.defenders] for a in g.attackers])
    assert mixed.recompute_value(g) == pytest.approx(mixed.value, abs=1e-9)


MASS = st.sampled_from([0.0, 0.0, 1e-17, 0.1, 0.25, 1 / 3, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n_d: st.lists(
    st.lists(MASS, min_size=n_d, max_size=n_d).filter(any), min_size=1, max_size=5)))
def test_quantile_coupling_keeps_marginals(raw):
    marginals = [np.array(m) / sum(m) for m in raw]
    defenders = tuple(f"d{i}" for i in range(len(raw[0])))
    attackers = tuple(range(len(raw)))
    sigma = quantile_coupling(marginals, defenders)
    assert all(w > 0 for w in sigma.values())
    assert sum(sigma.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(sigma) <= _support_bound(marginals)
    marg = mixed_to_behavioral(sigma, attackers, defenders)
    for a, m in zip(attackers, marginals):
        assert [marg[a][d] for d in defenders] == pytest.approx(list(m), abs=1e-12)


def test_hidden_typing_validation():
    chans = {
        ("0", "0"): channel("ab", ("u",), [[1.0], [1.0]]),
        ("1", "0"): channel("ab", ("v", "w"), [[0.5, 0.5], [0.5, 0.5]]),
    }
    g = LeakageGame(("0", "1"), ("0",), chans, Prior.uniform("ab"), VulnMeasure.bayes())
    with pytest.raises(TypeMismatch):
        solve(g, "IV")
    # visible modes do not mind differing outputs
    assert solve(g, "I").value == pytest.approx(0.5)


def test_mixed_to_behavioral_point_mass():
    out = mixed_to_behavioral({("d1", "d1"): 1.0}, ("a0", "a1"), ("d0", "d1"))
    assert out == {"a0": {"d0": 0.0, "d1": 1.0}, "a1": {"d0": 0.0, "d1": 1.0}}


def test_mixed_to_behavioral_payoff_preserving(game2x2):
    rng = np.random.default_rng(30)
    functions = list(itertools.product(game2x2.defenders, repeat=2))
    for _ in range(50):
        w = rng.dirichlet(np.ones(len(functions)))
        sigma = dict(zip(functions, w))
        marg = mixed_to_behavioral(sigma, game2x2.attackers, game2x2.defenders)
        for ai, a in enumerate(game2x2.attackers):
            delta = np.array([marg[a][d] for d in game2x2.defenders])
            direct = hidden_mixture_value(game2x2, a, delta)
            # evaluate the function mixture without marginalising
            pieces = hidden_branch_pieces(game2x2, a)
            d_index = {d: i for i, d in enumerate(game2x2.defenders)}
            func_pieces = pieces[:, :, [d_index[f[ai]] for f in functions]]
            assert branch_value(func_pieces, w) == pytest.approx(direct, abs=1e-12)


def test_audit_demo(game2x2):
    report = audit_hierarchy(game2x2)
    assert report.ok
    v = report.values
    chain = [v["II"], v["I"], v["IV"], v["VI_mixed"], v["VI_behavioral"]]
    assert all(hi >= lo - 1e-9 for hi, lo in zip(chain, chain[1:]))
    assert v["I"] >= v["III"] - 1e-9
    assert v["III"] >= v["VI_mixed"] - 1e-9
    assert v["IV"] == pytest.approx(v["V"], abs=1e-12)


def test_audit_reports_a_violated_ordering(monkeypatch, game2x2):
    import leakgames.games as games

    solve = games.solve
    # II = 0.5 falls below I = 4/5; every other ordering still holds
    monkeypatch.setattr(games, "solve", lambda game, kind: dataclasses.replace(
        solve(game, kind), value=0.5) if kind == "II" else solve(game, kind))
    report = audit_hierarchy(game2x2)
    assert not report.ok
    assert report.violations == ["II = 0.5 < I = 0.8"]
    assert [name for name, _, _, holds in report.orderings if not holds] == ["II>=I"]


def test_audit_identical_channels():
    flat = channel("ab", "01", [[0.8, 0.2], [0.4, 0.6]])
    chans = {(d, a): flat for d in ("0", "1") for a in ("0", "1")}
    g = LeakageGame(("0", "1"), ("0", "1"), chans, Prior.uniform("ab"),
                    VulnMeasure.bayes())
    report = audit_hierarchy(g)
    base = payoff_matrix(g).at("0", "0")
    for kind in KINDS:
        assert report.values[kind] == pytest.approx(base, abs=1e-9)


def test_audit_shares_payoff_table_and_iv_solve(monkeypatch):
    import leakgames.games as games

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(games, "solve_convex_linear_games",
                        counting("convex", games.solve_convex_linear_games))
    g = demo_game()
    tensor = g.tensor
    monkeypatch.setattr(Channel, "__init__", counting("channels", Channel.__init__))
    report = audit_hierarchy(g)
    # I, II and III read payoffs off the tensor built with the game: no
    # channel object and no per-profile posterior_vuln call
    assert calls["channels"] == 0
    assert g.tensor is tensor and not tensor.flags.writeable
    # one packed solve for I, IV (V reuses its solution) and the games
    # per attacker action that VI_mixed and VI_behavioral share
    assert calls["convex"] == 1
    assert ("IV==V", "IV", "V", True) in report.orderings


def _reordered(ch):
    """The same channel with its secrets reversed and observables rotated."""
    rows = list(range(len(ch.secrets)))[::-1]
    cols = list(range(1, len(ch.observables))) + [0]
    return channel([ch.secrets[i] for i in rows], [ch.observables[j] for j in cols],
                   ch.data[np.ix_(rows, cols)])


def test_pieces_align_channels_listed_in_other_orders():
    # entries are multiples of 1/8, so renormalising a reordered row is exact
    rng = np.random.default_rng(23)
    secrets = ("x0", "x1", "x2", "x3")
    defenders, attackers = ("0", "1", "2"), ("0", "1")
    for _ in range(30):
        chans = {}
        for a in attackers:
            cols = tuple(f"y{a}_{k}" for k in range(int(rng.integers(2, 5))))
            for d in defenders:
                counts = rng.multinomial(8, np.full(len(cols), 1 / len(cols)), size=4)
                chans[d, a] = channel(secrets, cols, counts / 8)
        g = LeakageGame(defenders, attackers, chans, random_prior(rng, secrets),
                        random_measure(rng, secrets))
        reordered = LeakageGame(
            defenders, attackers,
            {(d, a): ch if d == defenders[0] else _reordered(ch) for (d, a), ch in chans.items()},
            g.prior, g.measure)
        for a in g.attackers:
            assert np.array_equal(hidden_branch_pieces(reordered, a),
                                  hidden_branch_pieces(g, a))
        assert np.array_equal(payoff_matrix(reordered).data, payoff_matrix(g).data)
        for (d, a), ch in chans.items():
            assert reordered.channel(d, a).entries_equal(ch)


def test_hidden_pieces_equal_each_branchs_pieces_bit_for_bit():
    # each column has its own observables, so every profile lacks the
    # other columns' ones, and defender 0 sometimes lacks one of its own
    # column's too; columns with one observable and gain measures with
    # one guess occur
    rng = np.random.default_rng(26)
    for _ in range(60):
        n_d, n_a, n_x = (int(v) for v in rng.integers(1, 5, size=3))
        secrets = tuple(f"x{i}" for i in range(n_x))
        chans = {}
        for a in range(n_a):
            cols = tuple(f"y{a}_{k}" for k in range(int(rng.integers(1, 5))))
            for d in range(n_d):
                own = cols[:-1] if d == 0 and len(cols) > 1 and rng.random() < 0.3 else cols
                chans[str(d), str(a)] = random_channel(rng, secrets, own)
        n_w = int(rng.integers(0, 4))
        measure = VulnMeasure.bayes() if n_w == 0 else VulnMeasure.from_gain(
            tuple(f"w{i}" for i in range(n_w)), secrets, rng.normal(size=(n_w, n_x)))
        g = LeakageGame(tuple(map(str, range(n_d))), tuple(map(str, range(n_a))), chans,
                        random_prior(rng, secrets), measure)
        together = hidden_pieces(g)
        assert len(together) == n_a
        for a, k in zip(g.attackers, together):
            alone = hidden_branch_pieces(g, a)
            assert k.flags.c_contiguous and k.shape == alone.shape
            assert k.tobytes() == alone.tobytes()


def test_game_arrays_are_read_only_and_built_once():
    g = random_game(np.random.default_rng(24))
    arrays = (g.tensor, g.declared, g.gain)
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        g.tensor[0, 0, 0, 0] = 1.0
    for kind in KINDS:
        solve(g, kind)
    assert all(now is then for now, then in zip((g.tensor, g.declared, g.gain), arrays))
    for a in g.attackers:
        k = hidden_branch_pieces(g, a)
        assert k.flags.c_contiguous
        for i, d in enumerate(g.defenders):
            ch = g.channel(d, a)
            ref = g.gain @ (g.prior.weights[:, None] * ch.data)
            assert np.allclose(k[:, :, i].T, ref, rtol=0, atol=1e-15)


def test_visible_dominates_hidden_pointwise():
    rng = np.random.default_rng(31)
    from leakgames.vuln import posterior_vuln
    for _ in range(100):
        g = random_game(rng)
        delta = rng.dirichlet(np.ones(len(g.defenders)))
        u = payoff_matrix(g)
        for a in g.attackers:
            visible = sum(delta[i] * u.at(d, a) for i, d in enumerate(g.defenders))
            hidden = hidden_mixture_value(g, a, delta)
            assert visible >= hidden - 1e-9


def test_value_recoverable_from_strategies():
    rng = np.random.default_rng(32)
    for _ in range(25):
        g = random_game(rng)
        for kind in KINDS:
            s = solve(g, kind)
            assert s.recompute_value(g) == pytest.approx(s.value, abs=1e-8), kind


def test_saddle_stability_random_games():
    rng = np.random.default_rng(33)
    for _ in range(60):
        g = random_game(rng)
        u = payoff_matrix(g)

        s = solve(g, "I")
        delta = np.array([s.defender["dist"][d] for d in g.defenders])
        alpha = np.array([s.attacker["dist"][a] for a in g.attackers])
        ud = np.array([[u.at(d, a) for a in g.attackers] for d in g.defenders])
        assert (delta @ ud).max() <= s.value + 1e-7
        assert (ud @ alpha).min() >= s.value - 1e-7

        s = solve(g, "II")
        worst = {d: max(u.at(d, a) for a in g.attackers) for d in g.defenders}
        assert s.value <= min(worst.values()) + 1e-9
        for d in g.defenders:
            assert u.at(d, s.attacker["map"][d]) == pytest.approx(worst[d], abs=1e-12)

        s = solve(g, "III")
        best = {a: min(u.at(d, a) for d in g.defenders) for a in g.attackers}
        assert s.value >= max(best.values()) - 1e-9

        s = solve(g, "IV")
        delta = np.array([s.defender["dist"][d] for d in g.defenders])
        assert max(hidden_mixture_value(g, a, delta) for a in g.attackers) \
            <= s.value + 1e-7
        # attacker cannot gain by any pure action against the equilibrium mix
        s_b = solve(g, "VI_behavioral")
        assert s_b.value <= s.value + 1e-7


def test_hierarchy_orderings_random_games():
    rng = np.random.default_rng(34)
    for _ in range(200):
        report = audit_hierarchy(random_game(rng))
        assert report.ok, report.violations


def test_hierarchy_random_2x2_bayes_games():
    rng = np.random.default_rng(35)
    for _ in range(200):
        secrets = ("x0", "x1")
        chans = {}
        for a in ("0", "1"):
            cols = ("y0", "y1")
            for d in ("0", "1"):
                data = rng.dirichlet(np.ones(2), size=2)
                chans[d, a] = channel(secrets, cols, data)
        g = LeakageGame(("0", "1"), ("0", "1"), chans,
                        Prior.uniform(secrets), VulnMeasure.bayes())
        report = audit_hierarchy(g)
        assert report.ok, report.violations


def test_iii_and_iv_are_incomparable():
    # the demo game has III < IV; replacing the noisy channel with the
    # complementing one flips the order: III = 1 > IV = 2/3
    g = demo_game()
    assert solve(g, "III").value == pytest.approx(2 / 3)
    assert solve(g, "IV").value == pytest.approx(5 / 7)

    chans = {k: g.channel(*k) for k in
             [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]}
    chans[("1", "1")] = channel("01", "01", [[0, 1], [1, 0]])
    flipped = LeakageGame(("0", "1"), ("0", "1"), chans,
                          Prior.uniform("01"), VulnMeasure.bayes())
    assert solve(flipped, "III").value == pytest.approx(1.0)
    assert solve(flipped, "IV").value == pytest.approx(2 / 3, abs=1e-9)
