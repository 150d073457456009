import numpy as np
import pytest

from conftest import expected_iterations_series, permute_bits
from leakgames import jsonio
from leakgames.errors import BadPermutation, TooLarge
from leakgames.games import (
    hidden_branch_pieces,
    hidden_mixture_value,
    payoff_matrix,
    solve,
    uniform_worst_case,
)
from leakgames.matrix import LabeledMatrix
from leakgames.minimax import branch_value
from leakgames.pwdcheck import (
    build_game,
    bundled_prior,
    const_time_channel,
    expected_iterations,
    measured_iterations,
    order_labels,
    pwd_channel,
    secret_labels,
    verify_uniform_equilibrium,
)
from leakgames.vuln import Prior, VulnMeasure, posterior_vuln

BAYES = VulnMeasure.bayes()

# the early-exit checker with order (1,2,3) against low input 101
TABLE_123_101 = {
    "000": ("F", "1"), "001": ("F", "1"), "010": ("F", "1"), "011": ("F", "1"),
    "100": ("F", "3"), "101": ("T", "3"), "110": ("F", "2"), "111": ("F", "2"),
}


def test_channel_123_101_matches_table():
    c = pwd_channel(3, "123", "101")
    assert c.observables == (("F", "1"), ("F", "2"), ("F", "3"), ("T", "3"))
    for x, hit in TABLE_123_101.items():
        row = dict(zip(c.observables, c.row(x)))
        assert row[hit] == 1.0
        assert sum(row.values()) == 1.0


def test_channel_reversed_order_first_mismatch():
    c = pwd_channel(3, "321", "101")
    # bit 3 is checked first; 100 differs from 101 exactly there
    assert c.at("100", ("F", "1")) == 1.0


def test_accept_row():
    for n in (2, 4):
        a = "1" * n
        c = pwd_channel(n, "".join(str(i) for i in range(1, n + 1)), a)
        assert c.at(a, ("T", str(n))) == 1.0


def test_channels_are_deterministic_and_total():
    for d in order_labels(3):
        for a in secret_labels(3):
            data = pwd_channel(3, d, a).data
            assert np.all((data == 0.0) | (data == 1.0))
            assert np.all(data.sum(axis=1) == 1.0)


def test_build_game_channels_match_loop_reference():
    # build_game derives every channel by array arithmetic; pwd_channel
    # walks the secrets one at a time with first_mismatch
    for n in range(1, 6):
        game = build_game(n, Prior.uniform(secret_labels(n)))
        for d in order_labels(n):
            for a in secret_labels(n):
                got, ref = game.channel(d, a), pwd_channel(n, d, a)
                assert got.secrets == ref.secrets
                assert got.observables == ref.observables
                assert np.array_equal(got.data, ref.data), (n, d, a)


def test_game_json_matches_loop_reference():
    n = 3
    prior = bundled_prior("pihat")
    game = build_game(n, prior)
    ref = {"defender": list(order_labels(n)), "attacker": list(secret_labels(n)),
           "prior": jsonio.prior_to_json(prior), "measure": {"variant": "bayes"},
           "channels": {f"{d}|{a}": jsonio.channel_to_json(pwd_channel(n, d, a))
                        for d in order_labels(n) for a in secret_labels(n)}}
    assert jsonio.dumps(jsonio.game_to_json(game)) == jsonio.dumps(ref)


def test_build_game_size_guard_precedes_any_allocation(monkeypatch):
    import leakgames.pwdcheck as pwdcheck

    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before the size guard")

    def never(*args):
        raise AssertionError("labels built before the size guard")

    prior = Prior.uniform(secret_labels(6))
    monkeypatch.setattr(pwdcheck, "np", Untouchable())
    monkeypatch.setattr(pwdcheck, "order_labels", never)
    monkeypatch.setattr(pwdcheck, "secret_labels", never)
    with pytest.raises(TooLarge):
        pwdcheck.build_game(6, prior)


@pytest.mark.parametrize("n", [0, -1])
def test_checker_needs_at_least_one_bit(monkeypatch, n):
    import leakgames.pwdcheck as pwdcheck

    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before the bit-count check")

    with pytest.raises(ValueError, match="n must be >= 1"):
        measured_iterations(n, 5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        secret_labels(n)
    monkeypatch.setattr(pwdcheck, "np", Untouchable())
    with pytest.raises(ValueError, match="n must be >= 1"):
        pwdcheck.build_game(n, Prior.uniform(("0", "1")))


def test_bad_order_rejected():
    with pytest.raises(BadPermutation):
        pwd_channel(3, "122", "101")
    with pytest.raises(BadPermutation):
        pwd_channel(3, "12x", "101")


def test_const_time_channel_table():
    c = const_time_channel(3, "101")
    assert c.observables == (("F", "3"), ("T", "3"))
    for x in secret_labels(3):
        assert c.at(x, ("T", "3")) == (1.0 if x == "101" else 0.0)


def test_const_time_posterior_uniform():
    for n in (2, 3, 4):
        c = const_time_channel(n, "0" * n)
        v = posterior_vuln(BAYES, Prior.uniform(secret_labels(n)), c)
        assert v == pytest.approx(2.0 / 2 ** n)


def test_const_time_point_mass():
    pi = Prior.point_mass(secret_labels(3), "101")
    assert posterior_vuln(BAYES, pi, const_time_channel(3, "101")) == pytest.approx(1.0)


PIHAT_TABLE = {
    "123": (0.7257, 0.7257, 0.9311, 0.9311, 0.6577, 0.6577, 0.7122, 0.7122),
    "132": (0.8900, 0.9311, 0.8900, 0.9311, 0.7122, 0.7122, 0.7122, 0.7122),
    "213": (0.5068, 0.5068, 0.9311, 0.9311, 0.4934, 0.4934, 0.7668, 0.7668),
    "231": (0.5068, 0.5068, 0.7668, 0.9311, 0.5068, 0.5068, 0.7668, 0.9311),
    "312": (0.7257, 0.9311, 0.7257, 0.9311, 0.7122, 0.8766, 0.7122, 0.8766),
    "321": (0.6712, 0.7122, 0.7257, 0.9311, 0.6712, 0.7122, 0.7257, 0.9311),
}


def test_payoff_table_pihat():
    g = build_game(3, bundled_prior("pihat"))
    u = payoff_matrix(g)
    for d, row in PIHAT_TABLE.items():
        for a, expected in zip(secret_labels(3), row):
            assert u.at(d, a) == pytest.approx(expected, abs=2e-3), (d, a)


PRIOR_A_TABLE = {
    "123": (0.75, 0.75, 0.75, 0.75, 0.25, 0.25, 0.25, 0.25),
    "132": (0.75, 0.75, 0.75, 0.75, 0.25, 0.25, 0.25, 0.25),
    "213": (0.75, 0.75, 0.75, 0.75, 0.50, 0.50, 0.50, 0.50),
    "231": (0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75),
    "312": (0.75, 0.75, 0.75, 0.75, 0.50, 0.50, 0.50, 0.50),
    "321": (0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75),
}

# the last column of this table survives extraction with one decimal
# digit only, so it is checked separately at that precision
PRIOR_B_TABLE = {
    "123": (0.70, 0.70, 0.60, 0.60, 0.50, 0.50, 0.45),
    "132": (0.70, 0.65, 0.70, 0.65, 0.50, 0.50, 0.50),
    "213": (0.70, 0.70, 0.55, 0.55, 0.60, 0.60, 0.50),
    "231": (0.70, 0.70, 0.55, 0.55, 0.70, 0.70, 0.55),
    "312": (0.70, 0.65, 0.70, 0.65, 0.60, 0.60, 0.60),
    "321": (0.70, 0.65, 0.65, 0.60, 0.70, 0.65, 0.65),
}
PRIOR_B_LAST = {"123": 0.4, "132": 0.5, "213": 0.5, "231": 0.5, "312": 0.6, "321": 0.6}


def test_payoff_table_prior_a():
    g = build_game(3, bundled_prior("prior_a"))
    u = payoff_matrix(g)
    for d, row in PRIOR_A_TABLE.items():
        for a, expected in zip(secret_labels(3), row):
            assert u.at(d, a) == pytest.approx(expected, abs=1e-9), (d, a)


def test_payoff_table_prior_b():
    g = build_game(3, bundled_prior("prior_b"))
    u = payoff_matrix(g)
    secrets = secret_labels(3)
    for d, row in PRIOR_B_TABLE.items():
        for a, expected in zip(secrets[:7], row):
            assert u.at(d, a) == pytest.approx(expected, abs=1e-9), (d, a)
        # final column: first decimal digit only
        assert PRIOR_B_LAST[d] - 1e-9 <= u.at(d, secrets[7]) < PRIOR_B_LAST[d] + 0.1


def test_game_values_under_skewed_priors():
    g = build_game(3, bundled_prior("prior_a"))
    s = solve(g, "IV")
    assert s.value == pytest.approx(9 / 16, abs=1e-4)
    uniform = np.full(6, 1 / 6)
    worst = max(branch_value(hidden_branch_pieces(g, a), uniform) for a in g.attackers)
    assert worst == pytest.approx(7 / 12, abs=1e-4)
    # an optimal mixture may skip orders entirely; only the value is pinned
    assert s.value <= worst

    g = build_game(3, bundled_prior("prior_b"))
    s = solve(g, "IV")
    assert s.value == pytest.approx(0.4553, abs=1e-3)
    worst = max(branch_value(hidden_branch_pieces(g, a), uniform) for a in g.attackers)
    assert worst == pytest.approx(0.4666, abs=1e-3)


def test_build_game_size_guard():
    with pytest.raises(TooLarge):
        build_game(4, Prior.uniform(secret_labels(4)), max_bits=3)


def test_expected_iterations():
    assert expected_iterations(1) == pytest.approx(1.0)
    assert expected_iterations(10) == 1.998046875
    for n in range(1, 21):
        assert expected_iterations(n) == pytest.approx(
            expected_iterations_series(n), abs=1e-12)


def test_measured_iterations():
    for n in (4, 8):
        measured = measured_iterations(n, samples=100_000, seed=7)
        assert measured == pytest.approx(expected_iterations(n), rel=0.01)


def test_measured_iterations_rejects_a_low_input_that_is_not_n_bits():
    assert measured_iterations(3, 1000, seed=0, low_input="101") == pytest.approx(1.811, abs=0)
    for bad in ("10101", "1"):
        with pytest.raises(ValueError, match=f"^low input '{bad}' is not an 3-bit string$"):
            measured_iterations(3, 1000, seed=0, low_input=bad)


def test_bit_permutation_symmetry():
    # permuting the check order and the secret bits together leaves the
    # channel unchanged when the low input is all zeros
    rng = np.random.default_rng(40)
    n = 3
    a0 = "0" * n
    secrets = secret_labels(n)
    for _ in range(10):
        rho = tuple(rng.permutation(np.arange(1, n + 1)))
        d = tuple(rng.permutation(np.arange(1, n + 1)))
        d_label = "".join(map(str, d))
        rho_d_label = "".join(str(rho[i - 1]) for i in d)
        left = pwd_channel(n, d_label, a0)
        right = pwd_channel(n, rho_d_label, a0)
        permuted = LabeledMatrix(
            tuple(permute_bits(x, rho) for x in right.secrets),
            right.observables, right.data).align_to(left.secrets, left.observables)
        assert np.array_equal(left.data, permuted.data)


def test_low_input_symmetry():
    # xor-shifting the secret maps one low input to another, exactly
    rng = np.random.default_rng(41)
    n = 3
    secrets = secret_labels(n)
    for _ in range(10):
        a = format(rng.integers(0, 8), "03b")
        a2 = format(rng.integers(0, 8), "03b")
        shift = int(a, 2) ^ int(a2, 2)
        for d in order_labels(n):
            left = pwd_channel(n, d, a)
            right = pwd_channel(n, d, a2)
            permuted = LabeledMatrix(
                tuple(format(int(x, 2) ^ shift, "03b") for x in right.secrets),
                right.observables, right.data).align_to(left.secrets, left.observables)
            assert np.array_equal(left.data, permuted.data)


@pytest.mark.parametrize("n", [2, 3])
def test_uniform_prior_equilibrium(n):
    report = verify_uniform_equilibrium(n)
    assert report.holds
    assert report.payoff_spread <= 1e-9
    assert report.lp_gap_to_uniform <= 1e-8


def test_uniform_mixture_suboptimal_under_skewed_prior():
    g = build_game(3, bundled_prior("prior_a"))
    uniform = np.full(6, 1 / 6)
    worst = max(branch_value(hidden_branch_pieces(g, a), uniform) for a in g.attackers)
    assert solve(g, "IV").value < worst - 1e-3


def test_bundled_pihat_digits():
    pi = bundled_prior("pihat")
    # digits as published sum to 1.0001 and are renormalised on load
    assert pi.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert pi["011"] == pytest.approx(0.4382 / 1.0001)


@pytest.mark.parametrize("n, prior", [(n, "uniform") for n in (2, 3, 4, 5)]
                         + [(3, name) for name in ("pihat", "prior_a", "prior_b")])
def test_uniform_worst_case_matches_per_attacker_loop(n, prior):
    p = Prior.uniform(secret_labels(n)) if prior == "uniform" else bundled_prior(prior)
    game = build_game(n, p, max_bits=5)
    uniform = np.full(len(game.defenders), 1.0 / len(game.defenders))
    loop = max(hidden_mixture_value(game, a, uniform) for a in game.attackers)
    assert abs(uniform_worst_case(game) - loop) <= 1e-15
