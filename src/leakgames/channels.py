"""Stochastic channels and their composition operators.

A channel maps secrets (rows) to a distribution over observables
(columns).  Two mixtures are provided:

* hidden choice: the index of the mixed channel is not observable, so
  the result is the weighted entrywise sum.  Requires all members of
  the support to have the same type, otherwise the output set itself
  would reveal the index.
* visible choice: the index is appended to the observation, so the
  result concatenates the scaled members with tagged columns.  Members
  only need to share the secret set.

Channel equivalence (same leakage for every prior and every convex
vulnerability) is decided per column: two channels are equivalent iff
each column of one is a convex combination of the columns of the
zero-column extension of the other, in both directions.  Each column
check is a small linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BadDistribution, IncompatibleRows, TypeMismatch
from .labels import Label, label_key
from .matrix import LabeledMatrix, concat, matrix_sum, scalar_mul
from .simplex import LinearProgram, lp_solve, require_optimal

VALIDATION_TOL = 1e-9


class Channel:
    """A stochastic labelled matrix: entries in [0, 1], rows summing to 1.

    Construction validates within ``VALIDATION_TOL`` and then
    renormalises each row exactly, so file-sourced matrices that carry
    rounding are accepted and cleaned up.  Immutable and thread-safe.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: LabeledMatrix):
        data = np.array(matrix.data)
        if data.size == 0:
            raise ValueError("channel must have at least one row and column")
        if data.min() < -VALIDATION_TOL or data.max() > 1 + VALIDATION_TOL:
            raise ValueError("channel entries must lie in [0, 1]")
        sums = data.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > VALIDATION_TOL:
            bad = matrix.rows[int(np.argmax(np.abs(sums - 1.0)))]
            raise ValueError(f"row {bad!r} sums to {sums.max():.12g}, expected 1")
        data = np.clip(data, 0.0, None)
        data /= data.sum(axis=1, keepdims=True)
        self.matrix = matrix.with_data(data)

    @staticmethod
    def from_rows(rows, cols, data) -> "Channel":
        return Channel(LabeledMatrix(rows, cols, data))

    @property
    def secrets(self):
        return self.matrix.rows

    @property
    def observables(self):
        return self.matrix.cols

    @property
    def data(self) -> np.ndarray:
        return self.matrix.data

    def same_type(self, other: "Channel") -> bool:
        return self.matrix.same_type(other.matrix)

    def compatible(self, other: "Channel") -> bool:
        return self.matrix.compatible(other.matrix)

    def __repr__(self):
        return f"Channel({len(self.secrets)}x{len(self.observables)})"


class IndexDistribution:
    """Probability distribution over index labels.

    Weights are validated (nonnegative, unit sum within 1e-9) and
    renormalised exactly.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[Label, float]):
        items = {k: float(v) for k, v in weights.items()}
        if not items:
            raise BadDistribution("empty distribution")
        vals = np.array(list(items.values()))
        if vals.min() < -VALIDATION_TOL:
            raise BadDistribution("negative weight")
        total = vals.sum()
        if abs(total - 1.0) > VALIDATION_TOL:
            raise BadDistribution(f"weights sum to {total:.12g}, expected 1")
        self.weights = {k: max(v, 0.0) / total for k, v in items.items()}

    @staticmethod
    def binary(p: float, first: Label = "1", second: Label = "2") -> "IndexDistribution":
        if not 0.0 <= p <= 1.0:
            raise BadDistribution(f"p = {p!r} outside [0, 1]")
        return IndexDistribution({first: p, second: 1.0 - p})

    def __getitem__(self, label: Label) -> float:
        return self.weights.get(label, 0.0)

    def support(self):
        return tuple(k for k in sorted(self.weights, key=label_key) if self.weights[k] > 0.0)

    def labels(self):
        return tuple(sorted(self.weights, key=label_key))


def hidden_choice(mu: IndexDistribution, family: Mapping[Label, Channel]) -> Channel:
    """Mix channels with the selector hidden: the mu-weighted sum."""
    support = mu.support()
    missing = [i for i in support if i not in family]
    if missing:
        raise BadDistribution(f"distribution weights indices {missing!r} missing from the family")
    terms = []
    first = family[support[0]]
    for i in support:
        ch = family[i]
        if not ch.same_type(first):
            raise TypeMismatch(
                f"hidden choice needs identical types; member {i!r} differs "
                f"(identical output sets are required, or the output would reveal the index)"
            )
        terms.append(scalar_mul(mu[i], ch.matrix))
    return Channel(matrix_sum(terms))


def visible_choice(mu: IndexDistribution, family: Mapping[Label, Channel]) -> Channel:
    """Mix channels with the selector observable: scaled tagged concatenation.

    Every family member appears as a column block scaled by its weight
    (zero-weight members contribute all-zero columns), so the output
    set is the disjoint union of the members' output sets.
    """
    support = mu.support()
    missing = [i for i in support if i not in family]
    if missing:
        raise BadDistribution(f"distribution weights indices {missing!r} missing from the family")
    order = tuple(sorted(family, key=label_key))
    scaled = [(i, scalar_mul(mu[i], family[i].matrix)) for i in order]
    return Channel(concat(scaled))


def binary_hidden(p: float, c1: Channel, c2: Channel) -> Channel:
    """c1 with probability p, else c2, selector hidden."""
    return hidden_choice(IndexDistribution.binary(p), {"1": c1, "2": c2})


def binary_visible(p: float, c1: Channel, c2: Channel) -> Channel:
    """c1 with probability p, else c2, selector appended to the output."""
    return visible_choice(IndexDistribution.binary(p), {"1": c1, "2": c2})


def zero_extend(c: Channel) -> Channel:
    """Append one fresh all-zero output column."""
    fresh = "y0"
    existing = set(c.observables)
    while fresh in existing:
        fresh += "'"
    data = np.hstack([c.data, np.zeros((len(c.secrets), 1))])
    return Channel(LabeledMatrix(c.secrets, c.observables + (fresh,), data))


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    residual: float
    # per direction: mixing matrix whose column y holds the coefficients
    # rebuilding that column of the target from the other channel
    coefficients: tuple | None = None
    violating_column: Label | None = None

    def __bool__(self):
        return self.equivalent


def _postprocessing_fit(target: Channel, base: Channel, tol: float):
    """Best reconstruction of ``target`` as base followed by a stochastic
    post-processing step.

    Solves  min t  s.t.  |base @ R - target| <= t entrywise, R >= 0 and
    each row of R summing to 1.  Such an R exists with t = 0 exactly
    when target leaks no more than base; requiring it in both
    directions decides equivalence.  Returns (residual, R, first column
    with residual > tol or None).
    """
    B = base.data  # |X| x k
    n_rows, k = B.shape
    n_cols = len(target.observables)
    nvar = k * n_cols + 1  # R (column-major blocks per target column) and t
    c = np.zeros(nvar)
    c[-1] = 1.0
    rows = []
    for j in range(n_cols):
        y = target.data[:, j]
        for r in range(n_rows):
            row = np.zeros(nvar)
            row[j * k:(j + 1) * k] = B[r]
            row[-1] = -1.0
            rows.append((row, "<=", y[r]))
            row2 = np.zeros(nvar)
            row2[j * k:(j + 1) * k] = -B[r]
            row2[-1] = -1.0
            rows.append((row2, "<=", -y[r]))
    for z in range(k):
        srow = np.zeros(nvar)
        srow[np.arange(n_cols) * k + z] = 1.0
        rows.append((srow, "=", 1.0))
    sol = require_optimal(lp_solve(LinearProgram.build(c, rows)), "equivalence LP")
    R = sol.x[:-1].reshape(n_cols, k).T  # k x n_cols, column j mixes target col j
    fit = B @ R
    col_resid = np.abs(fit - target.data).max(axis=0)
    worst = float(col_resid.max())
    violator = None
    for j in range(n_cols):
        if col_resid[j] > tol:
            violator = target.observables[j]
            break
    return worst, R, violator


def equivalent(c1: Channel, c2: Channel, tol: float = 1e-7) -> EquivalenceResult:
    """Decide channel equivalence within ``tol`` (infinity norm per column).

    Two compatible channels are equivalent when they induce the same
    leakage for every prior and every convex vulnerability; operationally,
    when each can be turned into the other by stochastic post-processing
    of the observables.  Returns the mixing coefficients witnessing
    equivalence, or the first violating column.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not c1.compatible(c2):
        raise IncompatibleRows("equivalence needs a common secret set")
    c2a = Channel(c2.matrix.align_to(c1.secrets))
    r12, co12, v12 = _postprocessing_fit(c1, c2a, tol)
    if v12 is not None:
        return EquivalenceResult(False, r12, None, v12)
    r21, co21, v21 = _postprocessing_fit(c2a, c1, tol)
    if v21 is not None:
        return EquivalenceResult(False, max(r12, r21), None, v21)
    return EquivalenceResult(True, max(r12, r21), (co12, co21), None)
