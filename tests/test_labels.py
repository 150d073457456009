import pytest
from hypothesis import given
from hypothesis import strategies as st

from leakgames.labels import format_label, label_key, parse_label, parse_label_pair, tag

atoms = st.text(min_size=0, max_size=8)
labels = st.recursive(atoms, lambda kids: st.tuples(kids, kids), max_leaves=6)


def test_tagging_is_structural():
    assert tag("y", "1") == ("y", "1")
    assert tag(tag("y", "1"), "2") != tag("y", tag("1", "2"))
    assert "y" != ("y", "1")


def test_render_escapes_separator():
    assert format_label("a@b") == "a\\@b"
    assert parse_label("a\\@b") == "a@b"
    assert format_label(("y", "1")) == "y@1"
    assert format_label((("y", "1"), "2")) == "y@1@2"
    assert format_label(("y", ("1", "2"))) == "y@(1@2)"


def test_render_escapes_pair_separator():
    assert format_label("d|1") == "d\\|1"
    assert parse_label("d\\|1") == "d|1"
    assert parse_label_pair("d\\|1|a") == ("d|1", "a")
    assert parse_label_pair("y@(1@2)|a@b") == (("y", ("1", "2")), ("a", "b"))
    for bad in ("d|1|a", "d", "d|(a", "a|b)"):
        with pytest.raises(ValueError):
            parse_label_pair(bad)
    with pytest.raises(ValueError):
        parse_label("d|1")


@given(labels, labels)
def test_pair_round_trip(left, right):
    text = format_label(left) + "|" + format_label(right)
    assert parse_label_pair(text) == (left, right)


def test_parse_left_associative():
    assert parse_label("y@1@2") == (("y", "1"), "2")
    assert parse_label("y@(1@2)") == ("y", ("1", "2"))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_label("a@(b")
    with pytest.raises(ValueError):
        parse_label("a\\")
    with pytest.raises(ValueError):
        parse_label("a)b")


@given(labels)
def test_round_trip(label):
    assert parse_label(format_label(label)) == label


@given(labels, labels)
def test_order_total_and_consistent(a, b):
    ka, kb = label_key(a), label_key(b)
    assert (ka < kb) or (kb < ka) or (a == b)


def test_order_atoms_before_tags():
    assert label_key("z") < label_key(("a", "a"))
    assert label_key(("a", "1")) < label_key(("a", "2"))
    assert label_key(("a", "9")) < label_key(("b", "0"))
