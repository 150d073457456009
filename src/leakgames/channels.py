"""Stochastic channels and their composition operators.

A channel is a labelled matrix whose rows are stochastic: it maps
secrets (rows) to a distribution over observables (columns), and every
matrix operator applies to it directly.  Two mixtures are provided:

* hidden choice: the index of the mixed channel is not observable, so
  the result is the weighted entrywise sum.  Requires all members of
  the support to have the same type, otherwise the output set itself
  would reveal the index.
* visible choice: the index is appended to the observation, so the
  result concatenates the scaled members with tagged columns.  Members
  only need to share the secret set.

Channel equivalence (same leakage for every prior and every convex
vulnerability) compares reduced forms, with no LP: the zero and
proportional columns of both channels are grouped at once, and the
grouping yields the post-processing matrices that rebuild each channel
from the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BadDistribution, IncompatibleRows, SolverError, TypeMismatch
from .labels import Label, label_key
from .matrix import LabeledMatrix, concat, matrix_sum, scalar_mul

VALIDATION_TOL = 1e-9


def stochastic(data, row_name) -> np.ndarray:
    """A checked copy of ``data``, rows along its last axis: entries
    finite and in [0, 1], row sums 1, both within ``VALIDATION_TOL``;
    then each row is renormalised exactly.  ``row_name(index)`` names a
    failing row by its index over the leading axes, so stacked channels
    are checked in one pass.  The row sums are taken again only when an
    entry below 0 was clipped: -0.0, which the clip turns into 0.0,
    leaves every sum as it was."""
    data = np.array(data, dtype=float)
    if data.size == 0:
        raise ValueError("channel must have at least one row and column")
    low = data.min()
    if not -VALIDATION_TOL <= low <= data.max() <= 1 + VALIDATION_TOL:  # NaN fails too
        raise ValueError("channel entries must be finite and lie in [0, 1]")
    sums = data.sum(axis=-1)
    worst = np.unravel_index(np.argmax(np.abs(sums - 1.0)), sums.shape)
    if abs(sums[worst] - 1.0) > VALIDATION_TOL:
        raise ValueError(f"{row_name(worst)} sums to {sums[worst]:.12g}, expected 1")
    np.clip(data, 0.0, None, out=data)
    if low < 0.0:
        sums = data.sum(axis=-1)
    data /= sums[..., None]
    return data


class Channel(LabeledMatrix):
    """A stochastic labelled matrix: entries in [0, 1], rows summing to 1.

    Construction validates within ``VALIDATION_TOL`` and then
    renormalises each row exactly, so file-sourced matrices that carry
    rounding are accepted and cleaned up.  The labels and index maps are
    the given matrix's, checked when it was built.  Immutable and
    thread-safe.
    """

    __slots__ = ()
    secrets, observables = LabeledMatrix.rows, LabeledMatrix.cols  # the paper's names

    def __init__(self, matrix: LabeledMatrix):
        self.data = stochastic(matrix.data, lambda i: f"row {matrix.rows[i[0]]!r}")
        self.data.setflags(write=False)
        self.rows, self._row_index = matrix.rows, matrix._row_index
        self.cols, self._col_index = matrix.cols, matrix._col_index

    def __repr__(self):
        return f"Channel({len(self.secrets)}x{len(self.observables)})"


class IndexDistribution:
    """Probability distribution over index labels.

    Weights are validated (finite, nonnegative, unit sum within 1e-9)
    and renormalised exactly.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[Label, float]):
        items = {k: float(v) for k, v in weights.items()}
        if not items:
            raise BadDistribution("empty distribution")
        vals = np.array(list(items.values()))
        if not (np.isfinite(vals).all() and vals.min() >= -VALIDATION_TOL):
            raise BadDistribution("weights must be finite and nonnegative")
        total = vals.sum()
        if abs(total - 1.0) > VALIDATION_TOL:
            raise BadDistribution(f"weights sum to {total:.12g}, expected 1")
        vals = np.clip(vals, 0.0, None)
        self.weights = dict(zip(items, (vals / vals.sum()).tolist()))

    @staticmethod
    def binary(p: float, first: Label = "1", second: Label = "2") -> "IndexDistribution":
        if not 0.0 <= p <= 1.0:
            raise BadDistribution(f"p = {p!r} outside [0, 1]")
        return IndexDistribution({first: p, second: 1.0 - p})

    def __getitem__(self, label: Label) -> float:
        return self.weights.get(label, 0.0)

    def support(self):
        return tuple(k for k in sorted(self.weights, key=label_key) if self.weights[k] > 0.0)


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
        terms.append(scalar_mul(mu[i], ch))
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
    scaled = [(i, scalar_mul(mu[i], family[i])) for i in order]
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
    # per direction: row-stochastic post-processing matrix R with
    # base @ R rebuilding the target (c1 from c2, then c2 from c1)
    coefficients: tuple | None = None
    violating_column: Label | None = None

    def __bool__(self):
        return self.equivalent


def _classes(data: np.ndarray, tol: float) -> np.ndarray:
    """Class of each column of ``data``; -1 marks a zero column.

    A column whose largest entry is <= tol is zero.  The others are
    taken heaviest first, ties broken by their entries, so the grouping
    does not depend on the order of the columns.  Each joins the first
    class whose posterior (the first member divided by its sum) lies
    within tol / mass of its own posterior in L-infinity, mass being the
    column's sum, so that mass times the class posterior rebuilds the
    column within tol.  Otherwise it starts a new class.
    """
    mass = data.sum(axis=0)
    classes = np.full(data.shape[1], -1)
    reps = np.empty((0, data.shape[0]))
    order = np.lexsort(np.vstack([data[::-1], -mass]))
    for j in order[data.max(axis=0)[order] > tol]:
        post = data[:, j] / mass[j]
        hits = np.flatnonzero(np.abs(reps - post).max(axis=1) <= tol / mass[j])
        if hits.size:
            classes[j] = hits[0]
        else:
            classes[j] = len(reps)
            reps = np.vstack([reps, post])
    return classes


def _witness(base_classes: np.ndarray, target_classes: np.ndarray,
             target_mass: np.ndarray) -> np.ndarray:
    """Post-processing matrix from the class matching: each base column
    sends its mass to the target columns of its class in proportion to
    their sums, or all of it to target column 0 when there are none."""
    R = np.zeros((base_classes.shape[0], target_classes.shape[0]))
    for z, cls in enumerate(base_classes):
        match = (target_classes == cls) & (cls >= 0)
        if match.any():
            R[z, match] = target_mass[match] / target_mass[match].sum()
        else:
            R[z, 0] = 1.0
    if R.min() < 0.0 or np.abs(R.sum(axis=1) - 1.0).max() > 1e-12:
        raise SolverError("equivalence witness is not row-stochastic")
    return R


def equivalent(c1: Channel, c2: Channel, tol: float = 1e-7) -> EquivalenceResult:
    """Decide channel equivalence within ``tol`` by comparing reduced forms.

    Two compatible channels are equivalent (same leakage for every prior
    and every convex vulnerability) when each is a stochastic
    post-processing of the other, that is, when their reduced forms
    agree: zero columns dropped, proportional columns grouped and added
    up.  The columns of both channels are grouped at once, heaviest
    first, so the grouping and the verdict do not depend on the order of
    the arguments (``_classes``); a witness R per direction is read off
    the grouping (``_witness``); and the verdict is the check that
    ``base @ R`` rebuilds the target within ``tol`` in every entry, c1
    from c2 first, then c2 from c1.
    ``residual`` is the largest error of the directions checked, and a
    not-equivalent verdict names the first target column whose error
    exceeds ``tol``: a place where the reduced forms differ, not a sign
    of which channel refines the other.

    The rule is one-sided near ``tol``.  An equivalent verdict is
    certified: both witnesses are feasible points of the L-infinity fit
    ``min t s.t. |base @ R - target| <= t, R row-stochastic`` with
    t <= tol.  But where columns lie within a few ``tol`` of each other,
    the check can answer not equivalent although a cheaper mix fits.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not c1.compatible(c2):
        raise IncompatibleRows("equivalence needs a common secret set")
    n1 = len(c1.observables)
    data = np.hstack([c1.data, c2.align_to(c1.secrets).data])
    classes, mass = _classes(data, tol), data.sum(axis=0)
    one, two = slice(None, n1), slice(n1, None)
    residual, witnesses = 0.0, []
    for t, b, names in ((one, two, c1.observables), (two, one, c2.observables)):
        R = _witness(classes[b], classes[t], mass[t])
        err = np.abs(data[:, b] @ R - data[:, t]).max(axis=0)
        residual = max(residual, float(err.max()))
        bad = np.flatnonzero(err > tol)
        if bad.size:
            return EquivalenceResult(False, residual, None, names[bad[0]])
        witnesses.append(R)
    return EquivalenceResult(True, residual, tuple(witnesses), None)
