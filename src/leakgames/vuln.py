"""Prior and posterior g-vulnerability, the payoff primitive of every game.

Vulnerability is the adversary's maximum expected gain.  A measure is
Bayes or a finite gain matrix g(w, x), the gain of guessing w when the
secret is x.  Bayes vulnerability is g-vulnerability under the identity
gain, where the guesses are the secrets themselves and the gain is 1
exactly on a correct guess, so both go through one gain-matrix product.

Posterior vulnerability is computed column-wise on the joint matrix,

    sum_y max_w sum_x pi(x) C(x, y) g(w, x),

which needs no normalisation of posteriors and so is indifferent to
zero-probability observations.  ``posterior_vuln`` and the game payoffs
both evaluate it through ``stacked_posterior_vuln``.

All functions here are pure; the Monte-Carlo estimator takes an
explicit seed.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel
from .errors import DuplicateIndex, LabelMismatch
from .labels import label_key
from .matrix import sorted_labels


class Prior:
    """Distribution over secret labels, renormalised exactly on load."""

    __slots__ = ("labels", "weights")

    def __init__(self, weights: dict):
        if not weights:
            raise ValueError("empty prior")
        labels = sorted_labels(weights.keys())
        w = np.array([float(weights[x]) for x in labels])
        if not (np.isfinite(w).all() and w.min() >= -1e-9):
            raise ValueError("prior weights must be finite and nonnegative")
        total = w.sum()
        if abs(total - 1.0) > 1e-2:
            raise ValueError(f"prior weights sum to {total:.6g}; refusing to renormalise")
        w = np.clip(w, 0.0, None)
        self.labels = labels
        self.weights = w / w.sum()
        self.weights.setflags(write=False)

    @staticmethod
    def uniform(labels) -> "Prior":
        labels = tuple(labels)
        return Prior({x: 1.0 / len(labels) for x in labels})

    @staticmethod
    def point_mass(labels, on) -> "Prior":
        return Prior({x: (1.0 if x == on else 0.0) for x in labels})

    def __getitem__(self, label) -> float:
        return float(self.weights[self.labels.index(label)])

    def aligned(self, labels) -> np.ndarray:
        if set(labels) != set(self.labels):
            raise LabelMismatch("prior universe does not match the requested labels")
        index = {x: i for i, x in enumerate(self.labels)}
        return self.weights[[index[x] for x in labels]]


class VulnMeasure:
    """Bayes vulnerability, or g-vulnerability under a finite gain matrix.

    A gain measure holds its guess labels, its secret labels and a
    read-only gain[w, x].  A Bayes measure holds none of them (``gain``
    is None): over any secret set it is the identity gain, guessing the
    secrets themselves.  Every vulnerability is computed through
    ``gain_matrix``.
    """

    __slots__ = ("guesses", "secrets", "gain")

    def __init__(self, guesses=None, secrets=None, gain=None):
        self.guesses, self.secrets, self.gain = guesses, secrets, gain

    @staticmethod
    def bayes() -> "VulnMeasure":
        return VulnMeasure()

    @staticmethod
    def from_gain(guesses, secrets, gain) -> "VulnMeasure":
        guesses = tuple(guesses)
        secrets = tuple(secrets)
        for role, labels in (("guess", guesses), ("secret", secrets)):
            if len(set(labels)) != len(labels):
                raise DuplicateIndex(f"duplicate {role} labels")
        g = np.array(gain, dtype=float)
        if g.shape != (len(guesses), len(secrets)):
            raise ValueError("gain matrix shape does not match labels")
        if not np.isfinite(g).all():
            raise ValueError("gain entries must be finite")
        g.setflags(write=False)
        return VulnMeasure(guesses, secrets, g)

    @property
    def is_bayes(self) -> bool:
        return self.gain is None

    def guesses_for(self, secrets):
        return tuple(secrets) if self.is_bayes else self.guesses

    def gain_matrix(self, secrets) -> np.ndarray:
        """Gain aligned to the given secret order, guesses as rows."""
        if self.is_bayes:
            return np.eye(len(tuple(secrets)))
        if set(secrets) != set(self.secrets):
            raise LabelMismatch("measure secrets do not match")
        index = {x: i for i, x in enumerate(self.secrets)}
        return self.gain[:, [index[x] for x in secrets]]


def prior_vuln(measure: VulnMeasure, prior: Prior) -> float:
    """Adversarial value of the secret before any observation."""
    scores = measure.gain_matrix(prior.labels) @ prior.weights
    return float(scores.max())


def stacked_posterior_vuln(gain: np.ndarray, pi: np.ndarray, channels: np.ndarray):
    """Posterior vulnerability of every channel in a stack ``channels[..., x, y]``,
    with ``gain[w, x]`` and ``pi[x]`` in the stack's secret order."""
    return (gain @ (pi[:, None] * channels)).max(axis=-2).sum(axis=-1)


def posterior_vuln(measure: VulnMeasure, prior: Prior, channel: Channel) -> float:
    """Expected adversarial value after observing the channel output."""
    gain = measure.gain_matrix(channel.secrets)
    pi = prior.aligned(channel.secrets)
    return float(stacked_posterior_vuln(gain, pi, channel.data))


def best_guesses(measure: VulnMeasure, prior: Prior, channel: Channel):
    """Per-observable optimal guess, ties broken by lowest guess label."""
    pi = prior.aligned(channel.secrets)
    guesses = measure.guesses_for(channel.secrets)
    order = sorted(range(len(guesses)), key=lambda i: label_key(guesses[i]))
    scores = (measure.gain_matrix(channel.secrets) @ (pi[:, None] * channel.data))[order]
    return {y: guesses[order[i]] for y, i in zip(channel.observables, scores.argmax(axis=0))}


def posterior_vuln_mc(measure: VulnMeasure, prior: Prior, channel: Channel,
                      samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of posterior vulnerability.

    Draws (x, y) pairs from the joint, scores the empirically best
    guess for each observed y, and averages.  Consistent as samples
    grows; kept independent of the analytic path so the two can
    cross-check each other.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pi = prior.aligned(channel.secrets)
    n_x = len(channel.secrets)
    xs = rng.choice(n_x, size=samples, p=pi)
    cum = channel.data.cumsum(axis=1)
    u = rng.random(samples)
    ys = (u[:, None] > cum[xs]).sum(axis=1)

    n_y = len(channel.observables)
    counts = np.zeros((n_x, n_y))
    np.add.at(counts, (xs, ys), 1.0)
    scores = measure.gain_matrix(channel.secrets) @ counts
    return float(scores.max(axis=0).sum() / samples)


def leakage(measure: VulnMeasure, prior: Prior, channel: Channel,
            mode: str = "additive") -> float:
    """Additive difference or multiplicative ratio of posterior to prior."""
    before = prior_vuln(measure, prior)
    after = posterior_vuln(measure, prior, channel)
    if mode == "additive":
        return after - before
    if mode == "multiplicative":
        if before == 0.0:
            raise ZeroDivisionError("multiplicative leakage undefined at zero prior vulnerability")
        return after / before
    raise ValueError(f"unknown leakage mode {mode!r}")
