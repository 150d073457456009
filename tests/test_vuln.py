import math

import numpy as np
import pytest

from conftest import channel, random_channel, random_prior
from leakgames.channels import IndexDistribution, hidden_choice, visible_choice
from leakgames.errors import DuplicateIndex, LabelMismatch
from leakgames.vuln import (
    Prior,
    VulnMeasure,
    best_guesses,
    leakage,
    posterior_vuln,
    posterior_vuln_mc,
    prior_vuln,
)

BAYES = VulnMeasure.bayes()

PIHAT = Prior({
    "000": 0.0137, "001": 0.0548, "010": 0.2191, "011": 0.4382,
    "100": 0.0002, "101": 0.0002, "110": 0.0548, "111": 0.2191,
})


def bits(n):
    return tuple(format(i, f"0{n}b") for i in range(2 ** n))


def first_bit_channel(n):
    """Observable = the first secret bit."""
    data = [[1.0, 0.0] if x[0] == "0" else [0.0, 1.0] for x in bits(n)]
    return channel(bits(n), ("0", "1"), data)


def test_prior_bayes_uniform():
    for n in (1, 3, 6):
        assert prior_vuln(BAYES, Prior.uniform(bits(n))) == pytest.approx(2.0 ** -n)


def test_prior_bayes_pihat():
    assert prior_vuln(BAYES, PIHAT) == pytest.approx(0.4382, abs=1e-3)


def test_prior_point_mass():
    assert prior_vuln(BAYES, Prior.point_mass("abc", "b")) == 1.0


def test_bayes_equals_identity_gain():
    rng = np.random.default_rng(0)
    secrets = ("x1", "x2", "x3", "x4")
    ident = VulnMeasure.from_gain(secrets, secrets, np.eye(len(secrets)))
    for _ in range(50):
        pi = random_prior(rng, secrets)
        ch = random_channel(rng, secrets, ("y1", "y2", "y3"))
        # the identity product adds exact zeros only, so even the direct
        # max over the joint matches bit for bit
        joint = pi.aligned(ch.secrets)[:, None] * ch.data
        assert prior_vuln(BAYES, pi) == prior_vuln(ident, pi) == pi.weights.max()
        assert posterior_vuln(BAYES, pi, ch) == posterior_vuln(ident, pi, ch) \
            == joint.max(axis=0).sum()


def test_gain_measure_secrets_in_another_order():
    rng = np.random.default_rng(7)
    secrets = ("x1", "x2", "x3", "x4")
    guesses = ("w1", "w2", "w3")
    for _ in range(30):
        gain = rng.uniform(0.0, 2.0, size=(len(guesses), len(secrets)))
        listed = VulnMeasure.from_gain(guesses, secrets, gain)
        reversed_ = VulnMeasure.from_gain(guesses, secrets[::-1], gain[:, ::-1])
        pi = random_prior(rng, secrets)
        ch = random_channel(rng, secrets, ("y1", "y2", "y3"))
        assert prior_vuln(reversed_, pi) == prior_vuln(listed, pi)
        assert posterior_vuln(reversed_, pi, ch) == posterior_vuln(listed, pi, ch)
        assert best_guesses(reversed_, pi, ch) == best_guesses(listed, pi, ch)


def test_posterior_demo_table():
    u = Prior.uniform("01")
    table = {
        ((1, 0), (1, 0)): 0.5,
        ((1, 0), (0, 1)): 1.0,
        ((0, 1), (1, 0)): 1.0,
        ((1 / 3, 2 / 3), (2 / 3, 1 / 3)): 2 / 3,
    }
    for rows, expected in table.items():
        ch = channel("01", "01", list(rows))
        assert posterior_vuln(BAYES, u, ch) == pytest.approx(expected, abs=1e-12)


def test_posterior_checker_channels():
    from leakgames.pwdcheck import const_time_channel, pwd_channel
    assert posterior_vuln(BAYES, PIHAT, pwd_channel(3, "123", "101")) == pytest.approx(
        0.6577, abs=2e-3)
    assert posterior_vuln(BAYES, PIHAT, const_time_channel(3, "101")) == pytest.approx(
        0.4384, abs=2e-3)


def test_posterior_ignores_zero_probability_columns():
    pi = Prior({"a": 1.0, "b": 0.0})
    ch = channel("ab", "01", [[1, 0], [0, 1]])
    assert posterior_vuln(BAYES, pi, ch) == pytest.approx(1.0)


def test_non_finite_prior_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Prior({"a": bad, "b": 0.5})


def test_non_finite_gain_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            VulnMeasure.from_gain(("w",), ("a", "b"), [[1.0, bad]])


def test_repeated_gain_labels_rejected():
    # a repeated secret used to drop the first column's gain 5.0 silently
    with pytest.raises(DuplicateIndex, match="secret"):
        VulnMeasure.from_gain(("w",), ("a", "a", "b"), [[5.0, 0.0, 1.0]])
    with pytest.raises(DuplicateIndex, match="guess"):
        VulnMeasure.from_gain(("w", "w"), ("a", "b"), [[1.0, 0.0], [0.0, 1.0]])


def test_label_mismatch():
    pi = Prior.uniform(("a", "b"))
    ch = channel("01", "01", [[1, 0], [0, 1]])
    with pytest.raises(LabelMismatch):
        posterior_vuln(BAYES, pi, ch)
    other = VulnMeasure.from_gain(("w",), ("a", "c"), [[1.0, 0.0]])
    with pytest.raises(LabelMismatch, match="measure secrets"):
        prior_vuln(other, pi)


def test_first_bit_leakage():
    for n in (2, 5):
        pi = Prior.uniform(bits(n))
        ch = first_bit_channel(n)
        assert posterior_vuln(BAYES, pi, ch) == pytest.approx(2.0 ** -(n - 1))
        assert leakage(BAYES, pi, ch, "multiplicative") == pytest.approx(2.0)
        assert leakage(BAYES, pi, ch, "additive") == pytest.approx(2.0 ** -n)


def test_noninterferent_leakage():
    pi = Prior({"a": 0.7, "b": 0.3})
    flat = channel("ab", "01", [[0.4, 0.6], [0.4, 0.6]])
    assert leakage(BAYES, pi, flat, "additive") == pytest.approx(0.0, abs=1e-12)
    assert leakage(BAYES, pi, flat, "multiplicative") == pytest.approx(1.0)


def test_multiplicative_leakage_pihat():
    from leakgames.pwdcheck import pwd_channel
    ratio = leakage(BAYES, PIHAT, pwd_channel(3, "123", "101"), "multiplicative")
    assert ratio == pytest.approx(1.50, abs=0.01)


def test_zero_prior_vuln_division():
    zero_gain = VulnMeasure.from_gain(("w",), ("a", "b"), [[0.0, 0.0]])
    pi = Prior.uniform(("a", "b"))
    ch = channel("ab", "01", [[1, 0], [0, 1]])
    with pytest.raises(ZeroDivisionError):
        leakage(zero_gain, pi, ch, "multiplicative")


def test_best_guesses_tie_break():
    pi = Prior.uniform(("a", "b"))
    flat = channel("ab", ("y",), [[1.0], [1.0]])
    assert best_guesses(BAYES, pi, flat) == {"y": "a"}
    # guesses listed out of label order still tie to the lowest label
    listed = VulnMeasure.from_gain(("w2", "w1"), ("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
    assert best_guesses(listed, pi, flat) == {"y": "w1"}


def test_mc_perfect_channel():
    secrets = bits(2)
    ident = channel(secrets, secrets, np.eye(4))
    rng_pi = Prior({"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4})
    est = posterior_vuln_mc(BAYES, rng_pi, ident, samples=100_000, seed=3)
    assert est == pytest.approx(1.0, abs=0.01)


def test_mc_noninterferent_channel():
    pi = Prior({"a": 0.6, "b": 0.4})
    flat = channel("ab", "01", [[0.5, 0.5], [0.5, 0.5]])
    est = posterior_vuln_mc(BAYES, pi, flat, samples=100_000, seed=4)
    assert est == pytest.approx(prior_vuln(BAYES, pi), abs=0.01)


def test_mc_partial_channel():
    u = Prior.uniform("01")
    noisy = channel("01", "01", [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
    est = posterior_vuln_mc(BAYES, u, noisy, samples=100_000, seed=5)
    assert est == pytest.approx(2 / 3, abs=0.01)


def test_mc_tracks_analytic_within_three_sigma():
    rng = np.random.default_rng(6)
    secrets = ("x1", "x2", "x3")
    for trial in range(10):
        pi = random_prior(rng, secrets)
        ch = random_channel(rng, secrets, ("y1", "y2"))
        exact = posterior_vuln(BAYES, pi, ch)
        n = 40_000
        est = posterior_vuln_mc(BAYES, pi, ch, samples=n, seed=100 + trial)
        # per-sample scores are in [0, 1]: sigma <= 0.5 / sqrt(n)
        assert abs(est - exact) <= 3 * 0.5 / math.sqrt(n) + 1e-9


def test_posterior_convex_in_hidden_choice():
    rng = np.random.default_rng(7)
    secrets = ("x1", "x2", "x3")
    for _ in range(100):
        fam = {str(i): random_channel(rng, secrets, ("y1", "y2")) for i in range(3)}
        w = rng.dirichlet(np.ones(3))
        mu = IndexDistribution(dict(zip(fam, w)))
        pi = random_prior(rng, secrets)
        mixed = posterior_vuln(BAYES, pi, hidden_choice(mu, fam))
        averaged = sum(mu[i] * posterior_vuln(BAYES, pi, c) for i, c in fam.items())
        assert mixed <= averaged + 1e-9


def test_posterior_linear_in_visible_choice():
    rng = np.random.default_rng(8)
    secrets = ("x1", "x2", "x3")
    for _ in range(100):
        fam = {
            "1": random_channel(rng, secrets, ("u1", "u2")),
            "2": random_channel(rng, secrets, ("v1", "v2", "v3")),
        }
        mu = IndexDistribution({"1": float(p := rng.uniform()), "2": 1 - p})
        pi = random_prior(rng, secrets)
        mixed = posterior_vuln(BAYES, pi, visible_choice(mu, fam))
        averaged = sum(mu[i] * posterior_vuln(BAYES, pi, c) for i, c in fam.items())
        assert mixed == pytest.approx(averaged, abs=1e-9)


def test_posterior_convex_in_prior():
    rng = np.random.default_rng(9)
    secrets = ("x1", "x2", "x3", "x4")
    for _ in range(100):
        ch = random_channel(rng, secrets, ("y1", "y2", "y3"))
        p1, p2 = random_prior(rng, secrets), random_prior(rng, secrets)
        t = rng.uniform()
        blend = Prior({x: t * p1.aligned(secrets)[i] + (1 - t) * p2.aligned(secrets)[i]
                       for i, x in enumerate(secrets)})
        lhs = posterior_vuln(BAYES, blend, ch)
        rhs = t * posterior_vuln(BAYES, p1, ch) + (1 - t) * posterior_vuln(BAYES, p2, ch)
        assert lhs <= rhs + 1e-9


def test_posterior_at_least_prior_for_bayes():
    rng = np.random.default_rng(10)
    secrets = ("x1", "x2", "x3")
    for _ in range(100):
        pi = random_prior(rng, secrets)
        ch = random_channel(rng, secrets, ("y1", "y2", "y3"))
        assert posterior_vuln(BAYES, pi, ch) >= prior_vuln(BAYES, pi) - 1e-12
