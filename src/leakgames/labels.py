"""Structural labels for matrix rows and columns.

A label is either an atom (a plain string) or a tagged pair
``(inner, tag)`` where both components are labels.  Tagged labels are
produced by column concatenation: the column ``y`` of the family member
with index ``j`` becomes ``(y, j)``.  Tags nest, so a tagged label can
be tagged again.

Labels are plain Python values (``str`` or 2-tuples), immutable and
hashable.  Ordering is total and deterministic: atoms sort before
tagged labels, atoms by string order, tagged labels lexicographically
by (inner, tag).

The text rendering used in JSON files writes a tagged label as
``inner@tag``.  ``@``, ``\\``, ``(``, ``)`` and ``|`` occurring inside
atoms are escaped with a backslash; an unescaped ``|`` separates the
two labels of a pair (``parse_label_pair``).  Nesting on the left needs
no grouping (``@`` reads left-associatively), a tag that is itself a
pair is wrapped in parentheses, e.g. ``y@(1@2)``.
"""

from __future__ import annotations

from typing import Union

Label = Union[str, tuple]

_ESCAPED = "\\@()|"


def tag(inner: Label, index: Label) -> tuple:
    """Attach ``index`` as a tag to ``inner``."""
    return (inner, index)


def is_tagged(label: Label) -> bool:
    return isinstance(label, tuple)


def check_label(label) -> Label:
    if isinstance(label, str):
        return label
    if isinstance(label, tuple) and len(label) == 2:
        check_label(label[0])
        check_label(label[1])
        return label
    raise TypeError(f"not a label: {label!r}")


def label_key(label: Label):
    """Sort key giving the total order on labels."""
    if isinstance(label, str):
        return (0, label)
    return (1, label_key(label[0]), label_key(label[1]))


def format_label(label: Label) -> str:
    if isinstance(label, str):
        out = []
        for ch in label:
            if ch in _ESCAPED:
                out.append("\\")
            out.append(ch)
        return "".join(out)
    inner, idx = label
    left = format_label(inner)
    right = format_label(idx)
    if is_tagged(idx):
        right = f"({right})"
    return f"{left}@{right}"


def parse_label(text: str) -> Label:
    """Inverse of :func:`format_label`."""
    label, pos = _parse(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing characters in label: {text!r}")
    return label


def parse_label_pair(text: str) -> tuple[Label, Label]:
    """Read ``left|right``, two formatted labels joined by a bare ``|``."""
    left, pos = _parse(text, 0)
    if pos >= len(text) or text[pos] != "|":
        raise ValueError(f"not a pair of labels 'left|right': {text!r}")
    right, pos = _parse(text, pos + 1)
    if pos != len(text):
        raise ValueError(f"not a pair of labels 'left|right': {text!r}")
    return left, right


def _parse(text: str, pos: int) -> tuple[Label, int]:
    label, pos = _parse_part(text, pos)
    while pos < len(text) and text[pos] == "@":
        part, pos = _parse_part(text, pos + 1)
        label = (label, part)
    return label, pos


def _parse_part(text: str, pos: int) -> tuple[Label, int]:
    if pos < len(text) and text[pos] == "(":
        label, pos = _parse(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"unbalanced parentheses in label: {text!r}")
        return label, pos + 1
    chars = []
    while pos < len(text) and text[pos] not in "@()|":
        if text[pos] == "\\":
            pos += 1
            if pos >= len(text):
                raise ValueError(f"dangling escape in label: {text!r}")
        chars.append(text[pos])
        pos += 1
    return "".join(chars), pos
