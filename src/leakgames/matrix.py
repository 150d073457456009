"""Real matrices indexed by label sets, and their basic operators.

A :class:`LabeledMatrix` is a total map (row label, column label) -> real,
stored densely.  All operators match entries by label, never by
position, so two matrices with the same label sets in different orders
are interchangeable operands.

Values are immutable after construction and all operations are pure
functions, so matrices can be freely shared between threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateIndex, IncompatibleRows, TypeMismatch
from .labels import Label, check_label, label_key, tag


class LabeledMatrix:
    """Dense real matrix with labelled rows and columns."""

    __slots__ = ("rows", "cols", "data", "_row_index", "_col_index")

    def __init__(self, rows: Sequence[Label], cols: Sequence[Label], data):
        rows = tuple(check_label(r) for r in rows)
        cols = tuple(check_label(c) for c in cols)
        if len(set(rows)) != len(rows):
            raise DuplicateIndex("duplicate row labels")
        if len(set(cols)) != len(cols):
            raise DuplicateIndex("duplicate column labels")
        self.rows = rows
        self.cols = cols
        self.data = _checked_data(data, len(rows), len(cols))
        self._row_index = {r: i for i, r in enumerate(rows)}
        self._col_index = {c: i for i, c in enumerate(cols)}

    def at(self, row: Label, col: Label) -> float:
        return float(self.data[self._row_index[row], self._col_index[col]])

    def row(self, row: Label) -> np.ndarray:
        return self.data[self._row_index[row]]

    def col(self, col: Label) -> np.ndarray:
        return self.data[:, self._col_index[col]]

    def row_sums(self) -> np.ndarray:
        return self.data.sum(axis=1)

    def same_type(self, other: "LabeledMatrix") -> bool:
        """Same row and column label sets (order irrelevant)."""
        return set(self.rows) == set(other.rows) and set(self.cols) == set(other.cols)

    def compatible(self, other: "LabeledMatrix") -> bool:
        """Same row label set (order irrelevant)."""
        return set(self.rows) == set(other.rows)

    def align_to(self, rows: Sequence[Label], cols: Sequence[Label] | None = None) -> "LabeledMatrix":
        """Reorder rows (and optionally columns) to the given label order."""
        ri = [self._row_index[r] for r in rows]
        if cols is None:
            return LabeledMatrix(rows, self.cols, self.data[ri, :])
        ci = [self._col_index[c] for c in cols]
        return LabeledMatrix(rows, cols, self.data[np.ix_(ri, ci)])

    def entries_equal(self, other: "LabeledMatrix", tol: float = 0.0) -> bool:
        """Entrywise comparison by label, within ``tol``."""
        if not self.same_type(other):
            return False
        aligned = other.align_to(self.rows, self.cols)
        return bool(np.all(np.abs(self.data - aligned.data) <= tol))

    def __repr__(self):
        return f"LabeledMatrix(rows={self.rows!r}, cols={self.cols!r})"


def _checked_data(data, n_rows: int, n_cols: int) -> np.ndarray:
    """A read-only float copy of ``data``, which must be n_rows x n_cols."""
    arr = np.array(data, dtype=float)
    if arr.shape != (n_rows, n_cols):
        raise ValueError(
            f"data shape {arr.shape} does not match labels ({n_rows}, {n_cols})"
        )
    arr.setflags(write=False)
    return arr


def scalar_mul(r: float, m: LabeledMatrix) -> LabeledMatrix:
    """Multiply every entry by ``r``; labels unchanged."""
    return LabeledMatrix(m.rows, m.cols, r * m.data)


def matrix_sum(family: Iterable[LabeledMatrix]) -> LabeledMatrix:
    """Entrywise sum of matrices of the same type.

    Raises :class:`TypeMismatch` if any member has a different row or
    column label set.
    """
    mats = list(family)
    if not mats:
        raise ValueError("matrix_sum of an empty family")
    first = mats[0]
    total = np.array(first.data)
    for m in mats[1:]:
        if not m.same_type(first):
            raise TypeMismatch(
                f"matrix of type ({sorted(map(str, m.rows))}, {sorted(map(str, m.cols))}) "
                "differs from the first member"
            )
        total += m.align_to(first.rows, first.cols).data
    return LabeledMatrix(first.rows, first.cols, total)


def concat(family: Sequence[tuple[Label, LabeledMatrix]]) -> LabeledMatrix:
    """Concatenate compatible matrices, tagging columns with their index.

    ``family`` is an ordered list of (index label, matrix).  The result
    keeps the shared rows, and its columns are the disjoint union
    ``(y, j)`` for each column ``y`` of member ``j``, in family order
    then each member's own column order.
    """
    if not family:
        raise ValueError("concat of an empty family")
    indices = [idx for idx, _ in family]
    if len(set(indices)) != len(indices):
        raise DuplicateIndex(f"repeated index labels in {indices!r}")
    first = family[0][1]
    blocks = []
    cols: list[Label] = []
    for idx, m in family:
        if not m.compatible(first):
            raise IncompatibleRows(
                f"member {idx!r} has row labels {sorted(map(str, m.rows))}, "
                f"expected {sorted(map(str, first.rows))}"
            )
        blocks.append(m.align_to(first.rows).data)
        cols.extend(tag(c, idx) for c in m.cols)
    return LabeledMatrix(first.rows, cols, np.hstack(blocks))


def sorted_labels(labels: Iterable[Label]) -> tuple[Label, ...]:
    return tuple(sorted(labels, key=label_key))
