"""Prior and posterior g-vulnerability, the payoff primitive of every game.

Vulnerability is the adversary's maximum expected gain.  A gain
function assigns g(w, x) to guessing w when the secret is x; Bayes
vulnerability is g-vulnerability under the identity gain, where the
guesses are the secrets themselves and the gain is 1 exactly on a
correct guess.  Both go through one gain-matrix product.

Posterior vulnerability is computed column-wise on the joint matrix,

    sum_y max_w sum_x pi(x) C(x, y) g(w, x),

which needs no normalisation of posteriors and so is indifferent to
zero-probability observations.

All functions here are pure; the Monte-Carlo estimator takes an
explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .errors import LabelMismatch
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


@dataclass(frozen=True)
class GainFunction:
    """Finite gain matrix over guesses x secrets."""

    guesses: tuple
    secrets: tuple
    gain: np.ndarray  # |W| x |X|

    @staticmethod
    def build(guesses, secrets, gain) -> "GainFunction":
        guesses = tuple(guesses)
        secrets = tuple(secrets)
        g = np.array(gain, dtype=float)
        if g.shape != (len(guesses), len(secrets)):
            raise ValueError("gain matrix shape does not match labels")
        if not np.isfinite(g).all():
            raise ValueError("gain entries must be finite")
        g.setflags(write=False)
        return GainFunction(guesses, secrets, g)

    @staticmethod
    def identity(secrets) -> "GainFunction":
        secrets = tuple(secrets)
        return GainFunction.build(secrets, secrets, np.eye(len(secrets)))

    def aligned(self, secrets) -> np.ndarray:
        if set(secrets) != set(self.secrets):
            raise LabelMismatch("gain function secrets do not match")
        index = {x: i for i, x in enumerate(self.secrets)}
        return self.gain[:, [index[x] for x in secrets]]


class VulnMeasure:
    """Bayes vulnerability, a gain-based one, or a custom convex evaluator.

    Bayes over a secret set is the gain-based measure with the identity
    gain, and every vulnerability is computed through that matrix; the
    variant records which of the two a file names.

    The custom variant carries an arbitrary convex function of the
    posterior distribution (in sorted secret-label order).  It serves
    measurement only: a leakage game needs the piecewise-linear
    max-of-gains shape, so ``LeakageGame`` refuses it with TypeError.
    """

    __slots__ = ("variant", "gain_fn", "evaluator")

    def __init__(self, variant: str, gain_fn: GainFunction | None = None,
                 evaluator=None):
        if variant not in ("bayes", "gain", "custom"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "gain" and gain_fn is None:
            raise ValueError("gain variant needs a GainFunction")
        if variant == "custom" and evaluator is None:
            raise ValueError("custom variant needs an evaluator")
        self.variant = variant
        self.gain_fn = gain_fn
        self.evaluator = evaluator

    @staticmethod
    def bayes() -> "VulnMeasure":
        return VulnMeasure("bayes")

    @staticmethod
    def from_gain(gain_fn: GainFunction) -> "VulnMeasure":
        return VulnMeasure("gain", gain_fn)

    @staticmethod
    def from_evaluator(fn) -> "VulnMeasure":
        """Wrap a convex function distribution-vector -> real.

        Convexity is the caller's responsibility; it is what makes the
        posterior aggregation meaningful.
        """
        return VulnMeasure("custom", evaluator=fn)

    @property
    def is_bayes(self) -> bool:
        return self.variant == "bayes"

    @property
    def is_custom(self) -> bool:
        return self.variant == "custom"

    def guesses_for(self, secrets):
        if self.is_custom:
            raise TypeError("a custom evaluator has no guess set")
        return tuple(secrets) if self.is_bayes else self.gain_fn.guesses

    def gain_matrix(self, secrets) -> np.ndarray:
        """Gain aligned to the given secret order, guesses as rows."""
        if self.is_custom:
            raise TypeError(
                "custom convex evaluators cannot be used by the LP solvers; "
                "use a finite gain function instead")
        if self.is_bayes:
            return np.eye(len(tuple(secrets)))
        return self.gain_fn.aligned(secrets)

    def check_secrets(self, secrets):
        if self.variant == "gain" and set(self.gain_fn.secrets) != set(secrets):
            raise LabelMismatch("measure secrets do not match")


def prior_vuln(measure: VulnMeasure, prior: Prior) -> float:
    """Adversarial value of the secret before any observation."""
    measure.check_secrets(prior.labels)
    if measure.is_custom:
        return float(measure.evaluator(prior.weights))
    scores = measure.gain_matrix(prior.labels) @ prior.weights
    return float(scores.max())


def posterior_vuln(measure: VulnMeasure, prior: Prior, channel: Channel) -> float:
    """Expected adversarial value after observing the channel output."""
    measure.check_secrets(channel.secrets)
    pi = prior.aligned(channel.secrets)
    joint = pi[:, None] * channel.data
    if measure.is_custom:
        order = sorted(range(len(channel.secrets)),
                       key=lambda i: label_key(channel.secrets[i]))
        total = 0.0
        for j in range(joint.shape[1]):
            mass = joint[:, j].sum()
            if mass > 0.0:
                total += mass * float(measure.evaluator(joint[order, j] / mass))
        return total
    scores = measure.gain_matrix(channel.secrets) @ joint  # |W| x |Y|
    return float(scores.max(axis=0).sum())


def best_guesses(measure: VulnMeasure, prior: Prior, channel: Channel):
    """Per-observable optimal guess, ties broken by lowest guess label."""
    pi = prior.aligned(channel.secrets)
    joint = pi[:, None] * channel.data
    scores = measure.gain_matrix(channel.secrets) @ joint
    guesses = measure.guesses_for(channel.secrets)
    order = sorted(range(len(guesses)), key=lambda i: label_key(guesses[i]))
    out = {}
    for j, y in enumerate(channel.observables):
        col = scores[:, j]
        best = max(col[i] for i in order)
        out[y] = next(guesses[i] for i in order if col[i] == best)
    return out


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
