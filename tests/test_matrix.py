from collections import Counter

import numpy as np
import pytest

from leakgames.errors import DuplicateIndex, IncompatibleRows, TypeMismatch
from leakgames.matrix import LabeledMatrix, concat, matrix_sum, scalar_mul


def lm(rows, cols, data):
    return LabeledMatrix(tuple(rows), tuple(cols), data)


M1 = lm("ab", "xy", [[1, 2], [3, 4]])
M2 = lm("ab", "xyz", [[5, 6, 7], [8, 9, 10]])


def test_scalar_mul_identity_and_annihilator():
    assert scalar_mul(1.0, M1).entries_equal(M1)
    z = scalar_mul(0.0, M1)
    assert z.rows == M1.rows and z.cols == M1.cols
    assert np.all(z.data == 0)


def test_scalar_mul_scales_block():
    m = lm("ab", "xy", [[1 / 2, 1 / 2], [1 / 3, 2 / 3]])
    third = scalar_mul(1 / 3, m)
    assert np.allclose(third.data, [[1 / 6, 1 / 6], [1 / 9, 2 / 9]])


def test_sum_singleton_and_zero():
    assert matrix_sum([M1]).entries_equal(M1)
    assert matrix_sum([M1, scalar_mul(0.0, M1)]).entries_equal(M1)


def test_sum_weighted_channels():
    c1 = lm("ab", "xy", [[1 / 2, 1 / 2], [1 / 3, 2 / 3]])
    c2 = lm("ab", "xy", [[1 / 3, 2 / 3], [1 / 2, 1 / 2]])
    mix = matrix_sum([scalar_mul(1 / 3, c1), scalar_mul(2 / 3, c2)])
    assert np.allclose(mix.data, [[7 / 18, 11 / 18], [4 / 9, 5 / 9]])


def test_sum_rejects_type_mismatch():
    with pytest.raises(TypeMismatch):
        matrix_sum([M1, M2])
    with pytest.raises(TypeMismatch):
        matrix_sum([M1, lm("ab", "xw", [[0, 0], [0, 0]])])


def test_sum_matches_by_label_not_position():
    swapped = lm("ba", "yx", [[4, 3], [2, 1]])
    total = matrix_sum([M1, swapped])
    assert total.rows == M1.rows
    assert np.allclose(total.data, 2 * M1.data)


def test_concat_tabular_example():
    joined = concat([("1", M1), ("2", M2)])
    assert joined.cols == (("x", "1"), ("y", "1"), ("x", "2"), ("y", "2"), ("z", "2"))
    assert np.allclose(joined.row("a"), [1, 2, 5, 6, 7])
    assert np.allclose(joined.row("b"), [3, 4, 8, 9, 10])


def test_concat_single_retags_only():
    single = concat([("j", M1)])
    assert single.cols == (("x", "j"), ("y", "j"))
    assert np.allclose(single.data, M1.data)


def test_concat_partitions_row_sums():
    joined = concat([("1", M1), ("2", M2)])
    assert np.allclose(joined.row_sums(), M1.row_sums() + M2.row_sums())


def test_concat_preserves_entry_multiset():
    joined = concat([("1", M1), ("2", M2)])
    combined = Counter(M1.data.flatten().tolist()) + Counter(M2.data.flatten().tolist())
    assert Counter(joined.data.flatten().tolist()) == combined


def test_concat_errors():
    with pytest.raises(DuplicateIndex):
        concat([("1", M1), ("1", M2)])
    with pytest.raises(IncompatibleRows):
        concat([("1", M1), ("2", lm("ac", "xy", [[0, 0], [0, 0]]))])


def test_concat_nested_tags_flatten_consistently():
    inner = concat([("i", M1), ("j", M2)])
    outer = concat([("k", inner)])
    assert outer.cols == tuple((col, "k") for col in inner.cols)
    for row in inner.rows:
        for col in inner.cols:
            assert outer.at(row, (col, "k")) == inner.at(row, col)


def test_scalar_and_sum_commute():
    rng = np.random.default_rng(42)
    for _ in range(100):
        mats = [lm("abc", "uv", rng.random((3, 2))) for _ in range(3)]
        r = float(rng.uniform(-2, 2))
        left = scalar_mul(r, matrix_sum(mats))
        right = matrix_sum([scalar_mul(r, m) for m in mats])
        assert left.entries_equal(right, tol=1e-12)


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateIndex):
        lm(("a", "a"), ("x", "y"), [[1, 2], [3, 4]])


def test_data_is_immutable():
    with pytest.raises(ValueError):
        M1.data[0, 0] = 99.0

