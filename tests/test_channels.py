import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import _postprocessing_fit, channel, mix_example_channels, random_channel
from leakgames.channels import (
    Channel,
    IndexDistribution,
    binary_hidden,
    binary_visible,
    equivalent,
    hidden_choice,
    stochastic,
    visible_choice,
    zero_extend,
)
from leakgames.errors import BadDistribution, IncompatibleRows, TypeMismatch
from leakgames.jsonio import matrix_to_json
from leakgames.matrix import LabeledMatrix, concat, matrix_sum, scalar_mul

C00 = channel("01", "01", [[1, 0], [1, 0]])
C01 = channel("01", "01", [[1, 0], [0, 1]])
C10 = channel("01", "01", [[0, 1], [1, 0]])
C11 = channel("01", "01", [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])


def test_channel_validation():
    with pytest.raises(ValueError):
        channel("01", "01", [[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(ValueError):
        channel("01", "01", [[1.1, -0.1], [0.5, 0.5]])
    c = channel("01", "01", [[0.5 + 4e-10, 0.5], [0.5, 0.5 - 4e-10]])
    assert np.allclose(c.data.sum(axis=1), 1.0, atol=0)


def test_stochastic_is_bit_identical_to_clipping_and_summing_again():
    # the row sums of the check are reused unless an entry was clipped
    def reference(data):
        clipped = np.clip(data, 0.0, None)
        return clipped / clipped.sum(axis=-1, keepdims=True)

    rng = np.random.default_rng(5)
    unclipped = rng.dirichlet(np.ones(4), size=(3, 5))
    unclipped[1, 2] = [0.5, -0.0, 0.25 + 4e-10, 0.25]
    clipped = unclipped.copy()
    clipped[0, 1] = [-5e-10, 0.3 + 5e-10, 0.2, 0.5]
    for data in (unclipped, clipped):
        got = stochastic(data, str)
        assert np.array_equal(got.view(np.int64), reference(data).view(np.int64))
    assert clipped[0, 1, 0] == -5e-10        # the input is not touched


def test_channel_validation_rejects_non_finite_entries():
    # NaN fails every comparison, so it needs its own check
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            channel("01", "01", [[bad, 1.0], [0.5, 0.5]])


def test_channel_validation_names_the_bad_rows_sum():
    with pytest.raises(ValueError, match=r"^row '0' sums to 0\.5, expected 1$"):
        channel("01", "01", [[0.5, 0], [0, 1]])


def test_channel_is_its_labelled_matrix_checked_once(monkeypatch):
    import leakgames.matrix as matrix
    calls = []
    monkeypatch.setattr(matrix, "check_label", lambda label: calls.append(label) or label)
    rows, cols = ("x1", "x2"), ("y1", ("y2", "1"), "y3")
    c = Channel(LabeledMatrix(rows, cols, [[0.5, 0.5, 0], [0, 0.25, 0.75]]))
    assert calls == [*rows, *cols]
    monkeypatch.undo()

    assert isinstance(c, LabeledMatrix) and not hasattr(c, "matrix")
    assert (c.secrets, c.observables) == (c.rows, c.cols) == (rows, cols)
    flipped = c.align_to(rows[::-1], cols[::-1])
    assert flipped.at("x2", "y3") == c.at("x2", "y3") == 0.75
    assert c.same_type(flipped) and flipped.same_type(c)
    assert scalar_mul(2.0, c).at("x1", "y1") == 1.0
    assert matrix_sum([c, flipped]).entries_equal(scalar_mul(2.0, c))
    joined = concat([("1", c), ("2", flipped)])
    assert joined.col(("y3", "2")).tolist() == [0.0, 0.75]
    assert matrix_to_json(c) == {"rows": ["x1", "x2"], "cols": ["y1", "y2@1", "y3"],
                                 "data": [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]}


def test_index_distribution():
    mu = IndexDistribution({"a": 0.25, "b": 0.75, "c": 0.0})
    assert mu.support() == ("a", "b")
    assert mu["missing"] == 0.0
    with pytest.raises(BadDistribution):
        IndexDistribution({"a": 0.7, "b": 0.7})
    with pytest.raises(BadDistribution):
        IndexDistribution({"a": -0.2, "b": 1.2})
    with pytest.raises(BadDistribution):
        IndexDistribution.binary(1.5)


def test_index_distribution_renormalises_its_clipped_weights_exactly():
    weights = IndexDistribution({"a": 1 + 5e-10, "b": -5e-10}).weights
    assert weights == {"a": 1.0, "b": 0.0}
    assert sum(weights.values()) == 1.0


def test_index_distribution_rejects_non_finite_weights():
    for bad in (np.nan, np.inf):
        with pytest.raises(BadDistribution, match="finite"):
            IndexDistribution({"a": bad, "b": 1.0})


def test_hidden_choice_table():
    c1, c2, _ = mix_example_channels()
    mix = binary_hidden(1 / 3, c1, c2)
    assert np.allclose(mix.data, [[7 / 18, 11 / 18], [4 / 9, 5 / 9]])
    assert mix.observables == c1.observables


def test_hidden_choice_point_mass_and_idempotency():
    c1, c2, _ = mix_example_channels()
    point = hidden_choice(IndexDistribution({"1": 1.0, "2": 0.0}), {"1": c1, "2": c2})
    assert point.entries_equal(c1)
    same = hidden_choice(IndexDistribution({"i": 0.3, "j": 0.5, "k": 0.2}),
                         {x: c1 for x in "ijk"})
    assert same.entries_equal(c1, tol=1e-15)


def test_hidden_choice_requires_identical_outputs():
    c1, _, c3 = mix_example_channels()
    with pytest.raises(TypeMismatch):
        binary_hidden(0.5, c1, c3)


def test_visible_choice_table():
    c1, _, c3 = mix_example_channels()
    mix = binary_visible(1 / 3, c1, c3)
    assert mix.observables == (("y1", "1"), ("y2", "1"), ("y1", "2"), ("y3", "2"))
    assert np.allclose(mix.row("x1"), [1 / 6, 1 / 6, 2 / 9, 4 / 9])
    assert np.allclose(mix.row("x2"), [1 / 9, 2 / 9, 1 / 3, 1 / 3])
    assert np.allclose(mix.data.sum(axis=1), 1.0)


def test_visible_choice_point_mass_keeps_zero_columns():
    c1, c2, _ = mix_example_channels()
    v = binary_visible(1.0, c1, c2)
    assert np.allclose(v.col(("y1", "1")), c1.col("y1"))
    assert np.all(v.col(("y1", "2")) == 0)
    assert np.allclose(v.data.sum(axis=1), 1.0)
    assert equivalent(v, c1)


def test_visible_choice_rejects_incompatible_rows():
    c1, _, _ = mix_example_channels()
    other = channel(("a", "b"), ("y1", "y2"), [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(IncompatibleRows):
        binary_visible(0.5, c1, other)


def test_binary_hidden_boundaries_and_table():
    assert binary_hidden(0.0, C00, C10).entries_equal(C10)
    mixed = binary_hidden(0.3, C00, C10)
    assert np.allclose(mixed.data, [[0.3, 0.7], [1.0, 0.0]])
    assert binary_hidden(0.4, C11, C11).entries_equal(C11, tol=1e-15)


def test_zero_extend():
    ext = zero_extend(C01)
    assert ext.observables == ("0", "1", "y0")
    assert np.all(ext.col("y0") == 0)
    assert np.allclose(ext.data.sum(axis=1), 1.0)
    twice = zero_extend(ext)
    assert len(twice.observables) == 4
    assert len(set(twice.observables)) == 4


def test_equivalent_on_identity_permutation():
    # both are column permutations of each other: same leakage always
    result = equivalent(C01, C10)
    assert result.equivalent
    # independent check: the column multisets literally match
    cols_01 = sorted(tuple(C01.col(c)) for c in C01.observables)
    cols_10 = sorted(tuple(C10.col(c)) for c in C10.observables)
    assert cols_01 == cols_10


def test_not_equivalent_with_witness():
    # every mix of C00's columns has equal coordinates; (0,1) does not
    for col in ("0", "1"):
        assert C00.col(col)[0] == C00.col(col)[1]
    result = equivalent(C00, C01)
    assert not result.equivalent
    assert result.violating_column in ("0", "1")
    assert result.residual > 0.4


def test_equivalent_mix_with_self():
    result = equivalent(C11, binary_visible(0.25, C11, C11))
    assert result.equivalent
    assert result.residual <= 1e-12


def test_equivalent_verdict_does_not_depend_on_argument_order():
    # c1 is a visible self-mix of c2 with 1e-8 moved within row x0; the
    # light moved column must not become the representative that c2's
    # heavy column has to match within tol / mass
    secrets = ("x0", "x1", "x2")
    c2 = channel(secrets, ("y0", "y1", "y2"),
                 [[0.1, 0.7, 0.2], [0.125, 0.875, 0.0], [0.125, 0.875, 0.0]])
    low = [0.0625, 0.4375, 0.0, 0.0625, 0.4375, 0.0]
    c1 = channel(secrets, tuple(f"z{j}" for j in range(6)),
                 [[0.04999999, 0.35, 0.10000001, 0.05, 0.35, 0.1], low, low])
    assert max(_lp_residuals(c1, c2)) <= TOL
    for first, second in ((c1, c2), (c2, c1)):
        result = equivalent(first, second, tol=TOL)
        assert result.equivalent
        _check_witnesses(first, second, result)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-7])
def test_equivalent_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        equivalent(C01, C00, tol=tol)


def test_equivalent_requires_common_secrets():
    other = channel(("p", "q"), ("0", "1"), [[1, 0], [0, 1]])
    with pytest.raises(IncompatibleRows):
        equivalent(C01, other)


def test_hidden_does_not_distribute_over_visible():
    c1, c2, c3 = channel("01", ("u", "v"), [[0.5, 0.5], [0.2, 0.8]]), C01, C10
    # right side is well typed (c1 shares c2's secrets), left is not:
    # c1's outputs cannot match the tagged outputs of (c2 visible-mix c3)
    c1_matching = channel("01", ("0", "1"), [[0.5, 0.5], [0.2, 0.8]])
    rhs = binary_visible(0.4, binary_hidden(0.7, c1_matching, c2),
                         binary_hidden(0.7, c1_matching, c3))
    assert np.allclose(rhs.data.sum(axis=1), 1.0)
    with pytest.raises(TypeMismatch):
        binary_hidden(0.7, c1_matching, binary_visible(0.4, c2, c3))
    # and if c1 is retagged to match the visible mix, the right side dies
    tagged = binary_visible(0.4, c2, c3)
    with pytest.raises(TypeMismatch):
        binary_visible(0.4, binary_hidden(0.7, tagged, c2),
                       binary_hidden(0.7, tagged, c3))


# ---------------------------------------------------------------------------
# randomised operator algebra (>= 100 instances per law)

N_INSTANCES = 100
SECRETS = ("x1", "x2", "x3")


def _random_family(rng, same_type: bool, count: int):
    fam = {}
    for i in range(count):
        if same_type:
            cols = ("y1", "y2")
        else:
            cols = tuple(f"y{i}_{k}" for k in range(int(rng.integers(2, 4))))
        fam[str(i + 1)] = random_channel(rng, SECRETS, cols)
    return fam


def _random_dist(rng, keys):
    w = rng.dirichlet(np.ones(len(keys)))
    return IndexDistribution(dict(zip(keys, w)))


def test_typing_of_both_operators():
    rng = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        fam = _random_family(rng, same_type=True, count=3)
        mu = _random_dist(rng, list(fam))
        h = hidden_choice(mu, fam)
        assert h.observables == fam["1"].observables
        fam2 = _random_family(rng, same_type=False, count=3)
        v = visible_choice(mu, fam2)
        assert np.allclose(v.data.sum(axis=1), 1.0, atol=1e-9)
        assert len(v.observables) == sum(len(c.observables) for c in fam2.values())


def test_idempotency_laws():
    rng = np.random.default_rng(102)
    for _ in range(N_INSTANCES):
        c = random_channel(rng, SECRETS, ("y1", "y2"))
        mu = _random_dist(rng, ["1", "2", "3"])
        fam = {k: c for k in ("1", "2", "3")}
        assert hidden_choice(mu, fam).entries_equal(c, tol=1e-9)
        assert equivalent(visible_choice(mu, fam), c, tol=1e-7)


def test_reorganisation_laws():
    rng = np.random.default_rng(103)
    for _ in range(N_INSTANCES // 2):
        i_keys, j_keys = ("1", "2"), ("a", "b")
        mu, eta = _random_dist(rng, i_keys), _random_dist(rng, j_keys)
        prod = IndexDistribution({(i, j): mu[i] * eta[j] for i in i_keys for j in j_keys})

        # hidden over hidden collapses to the product mixture, exactly
        fam_same = {(i, j): random_channel(rng, SECRETS, ("y1", "y2"))
                    for i in i_keys for j in j_keys}
        nested = hidden_choice(mu, {
            i: hidden_choice(eta, {j: fam_same[i, j] for j in j_keys})
            for i in i_keys})
        flat = hidden_choice(prod, fam_same)
        assert nested.entries_equal(flat, tol=1e-9)

        # visible over visible is equivalent to the product tagging
        fam_cols = {j: tuple(f"y{j}{k}" for k in range(2)) for j in j_keys}
        fam_comp = {(i, j): random_channel(rng, SECRETS, fam_cols[j])
                    for i in i_keys for j in j_keys}
        nested_v = visible_choice(mu, {
            i: visible_choice(eta, {j: fam_comp[i, j] for j in j_keys})
            for i in i_keys})
        flat_v = visible_choice(prod, fam_comp)
        assert equivalent(nested_v, flat_v, tol=1e-7)

        # hidden and visible commute when types line up per inner index
        swap_h = hidden_choice(mu, {
            i: visible_choice(eta, {j: fam_comp[i, j] for j in j_keys})
            for i in i_keys})
        swap_v = visible_choice(eta, {
            j: hidden_choice(mu, {i: fam_comp[i, j] for i in i_keys})
            for j in j_keys})
        assert equivalent(swap_h, swap_v, tol=1e-7)


def test_binary_hidden_laws():
    rng = np.random.default_rng(104)
    for _ in range(N_INSTANCES):
        c1 = random_channel(rng, SECRETS, ("y1", "y2"))
        c2 = random_channel(rng, SECRETS, ("y1", "y2"))
        c3 = random_channel(rng, SECRETS, ("y1", "y2"))
        p, q, r = rng.uniform(size=3)
        q = max(q, 1e-3)

        assert binary_hidden(p, c1, c1).entries_equal(c1, tol=1e-9)
        assert binary_hidden(p, c1, c2).entries_equal(
            binary_hidden(1 - p, c2, c1), tol=1e-9)

        # associativity in rescaled form; intermediates are plain matrices
        lhs = binary_hidden(p, c1, binary_hidden(q, c2, c3))
        scaled = matrix_sum([scalar_mul(p, scalar_mul(1 / q, c1)),
                             scalar_mul(1 - p, c2)])
        rhs = matrix_sum([scalar_mul(q, scaled),
                          scalar_mul(1 - q, scalar_mul(1 - p, c3))])
        assert Channel(rhs).entries_equal(lhs, tol=1e-9)

        absorbed = binary_hidden(q, binary_hidden(p, c1, c2), binary_hidden(r, c1, c2))
        direct = binary_hidden(p * q + (1 - q) * r, c1, c2)
        assert absorbed.entries_equal(direct, tol=1e-9)


def test_binary_visible_laws():
    rng = np.random.default_rng(105)
    for _ in range(N_INSTANCES // 2):
        c1 = random_channel(rng, SECRETS, ("u1", "u2"))
        c2 = random_channel(rng, SECRETS, ("v1", "v2", "v3"))
        c3 = random_channel(rng, SECRETS, ("w1",))
        p, q = rng.uniform(size=2)
        q = max(q, 1e-3)

        assert equivalent(binary_visible(p, c1, c1), c1, tol=1e-7)
        assert equivalent(binary_visible(p, c1, c2),
                          binary_visible(1 - p, c2, c1), tol=1e-7)

        lhs = binary_visible(p, c1, binary_visible(q, c2, c3))
        scaled = concat([("1", scalar_mul(p / q, c1)),
                         ("2", scalar_mul(1 - p, c2))])
        rhs = Channel(concat([("1", scalar_mul(q, scaled)),
                              ("2", scalar_mul((1 - q) * (1 - p), c3))]))
        assert equivalent(lhs, rhs, tol=1e-7)


def test_visible_distributes_over_hidden():
    rng = np.random.default_rng(106)
    for _ in range(N_INSTANCES):
        c1 = random_channel(rng, SECRETS, ("u1", "u2"))
        c2 = random_channel(rng, SECRETS, ("y1", "y2"))
        c3 = random_channel(rng, SECRETS, ("y1", "y2"))
        p, q = rng.uniform(size=2)
        lhs = binary_visible(p, c1, binary_hidden(q, c2, c3))
        rhs = binary_hidden(q, binary_visible(p, c1, c2), binary_visible(p, c1, c3))
        assert equivalent(lhs, rhs, tol=1e-7)


# ---------------------------------------------------------------------------
# reduced-form check against the L-infinity fit LP it replaced

TOL = 1e-7


@st.composite
def grid_channels(draw):
    """Channels with entries k / (row total), k in 0..9: column masses are
    0 or at least 1/28, and distinct posteriors differ by far more than
    TOL, so exact constructions are decided far from the tolerance."""
    n_x, n_y = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 9), min_size=n_y, max_size=n_y).filter(any)
    data = np.array(draw(st.lists(row, min_size=n_x, max_size=n_x)), dtype=float)
    return channel([f"x{i}" for i in range(n_x)], [f"y{j}" for j in range(n_y)],
                   data / data.sum(axis=1, keepdims=True))


def _with_data(c: Channel, data, cols=None) -> Channel:
    return Channel(LabeledMatrix(c.secrets, c.observables if cols is None else cols, data))


@st.composite
def equivalent_pairs(draw):
    """A grid channel and an exact construction that leaks the same."""
    c = draw(grid_channels())
    n_y = len(c.observables)
    kind = draw(st.sampled_from(["permute", "split", "merge", "zero", "visible", "hidden"]))
    share = draw(st.floats(0.25, 0.75))
    j = draw(st.integers(0, n_y - 1))
    if kind == "permute":
        order = draw(st.permutations(range(n_y)))
        t = _with_data(c, c.data[:, order], tuple(c.observables[i] for i in order))
    elif kind in ("split", "merge"):
        data = np.insert(c.data, j + 1, (1 - share) * c.data[:, j], axis=1)
        data[:, j] *= share
        t = _with_data(c, data, c.observables + ("z",))
        if kind == "merge":
            c, t = t, c
    elif kind == "zero":
        t = _with_data(c, np.insert(c.data, j, 0.0, axis=1), c.observables + ("z",))
    elif kind == "visible":
        t = binary_visible(share, c, c)
    else:
        t = binary_hidden(share, c, c)
    rows = draw(st.permutations(range(len(c.secrets))))
    t = Channel(t.align_to(tuple(c.secrets[i] for i in rows)))
    return c, t


def _move(t: Channel, x: int, j: int, k: int, delta: float) -> Channel:
    data = np.array(t.data)
    data[x, j] -= delta
    data[x, k] += delta
    return _with_data(t, data)


def _lp_residuals(c1: Channel, c2: Channel):
    c2a = Channel(c2.align_to(c1.secrets))
    return _postprocessing_fit(c1, c2a), _postprocessing_fit(c2a, c1)


def _check_witnesses(c1: Channel, c2: Channel, result) -> None:
    c2a = c2.align_to(c1.secrets).data
    for (base, target), R in zip(((c2a, c1.data), (c1.data, c2a)), result.coefficients):
        assert R.min() >= 0.0 and np.allclose(R.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.abs(base @ R - target).max() <= result.residual <= TOL


@settings(max_examples=200, deadline=None)
@given(equivalent_pairs(), st.sampled_from([0.0, 0.1, 10.0]), st.booleans(), st.data())
def test_equivalent_agrees_with_lp_fit(pair, scale, swap, data):
    c, t = pair
    if scale:
        # Move scale * TOL within one row, from column j to a column k whose
        # largest entry sits in that row, leaving column j's largest entry.
        # Bayes vulnerability sum_y max_x then rises by exactly delta, and a
        # fit within TOL could raise it by at most |Y| * TOL < 10 * TOL.
        delta = scale * TOL
        T = t.data
        moves = [(x, j, k) for x in range(T.shape[0]) for j in range(T.shape[1])
                 for k in range(T.shape[1])
                 if j != k and T[x, j] >= delta and T[x, k] == T[:, k].max()
                 and np.delete(T[:, j], x).max() >= T[x, j]]
        assume(moves)
        t = _move(t, *data.draw(st.sampled_from(moves)), delta)
    c1, c2 = (t, c) if swap else (c, t)
    result = equivalent(c1, c2, tol=TOL)
    r12, r21 = _lp_residuals(c1, c2)
    assert result.equivalent == (max(r12, r21) <= TOL) == (scale < 1)
    assert equivalent(c2, c1, tol=TOL).equivalent == result.equivalent
    if result.equivalent:
        _check_witnesses(c1, c2, result)
    else:
        assert result.residual > TOL and result.coefficients is None
        assert result.violating_column in c1.observables + c2.observables


@settings(max_examples=200, deadline=None)
@given(equivalent_pairs(), st.floats(0.0, 20.0), st.data())
# found at random: HiGHS's raw fit of this pair errs by 6.1e-12, where the
# optimum and the witnesses reach 3.05e-12 (see _postprocessing_fit).  It
# is given already moved, so it draws no move
@example(pair=(channel("01", "0", [[1.0], [1.0]]),
               channel("01", "01", [[0.25 - 6.1e-12, 0.75 + 6.1e-12], [0.25, 0.75]])),
         scale=0.0, data=None)
def test_equivalent_verdict_is_a_feasible_lp_fit(pair, scale, data):
    # near TOL the check may refuse a pair the LP fits, never the reverse
    c, t = pair
    if scale:       # move scale * TOL within one row
        x = data.draw(st.integers(0, len(t.secrets) - 1))
        j = data.draw(st.integers(0, len(t.observables) - 1))
        k = data.draw(st.integers(0, len(t.observables) - 1))
        if j != k:
            t = _move(t, x, j, k, min(scale * TOL, t.data[x, j]))
    result = equivalent(c, t, tol=TOL)
    if result.equivalent:
        _check_witnesses(c, t, result)
        # the witnesses are feasible points of the LP, so its optimum is no
        # larger than their error (up to the LP solver's rounding)
        assert max(_lp_residuals(c, t)) <= result.residual + 1e-12
