"""JSON formats for matrices, channels, priors, gain functions, games.

Labels are rendered as strings ("inner@tag" for tagged labels, with
"@", "(", ")", "|" and backslash escaped inside atoms).  Matrix data is
row-major.  Channel files are matrix files with "kind": "channel".
Game channel keys are "defender|attacker", split at the one unescaped
"|".

Writing is deterministic: keys sorted, floats via repr, so identical
objects produce byte-identical files.

Reading has one rule for malformed input: a KeyError, TypeError,
ValueError or AttributeError raised while a ``*_from_json`` reader
takes its object apart becomes ``FormatError("bad <kind> JSON: ...")``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from .channels import Channel, IndexDistribution
from .errors import LeakGamesError
from .games import LeakageGame
from .labels import format_label, parse_label, parse_label_pair
from .matrix import LabeledMatrix
from .vuln import GainFunction, Prior, VulnMeasure


class FormatError(LeakGamesError):
    """A file does not match the expected JSON shape."""


def _reader(kind: str):
    """Re-raise the decorated reader's malformed-input errors as a
    FormatError that names ``kind``."""
    def decorate(read):
        @functools.wraps(read)
        def checked(*args, **kwargs):
            try:
                return read(*args, **kwargs)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise FormatError(f"bad {kind} JSON: {exc}") from exc
        return checked
    return decorate


def matrix_to_json(m: LabeledMatrix) -> dict:
    return {
        "rows": [format_label(r) for r in m.rows],
        "cols": [format_label(c) for c in m.cols],
        "data": [[float(v) for v in row] for row in m.data],
    }


@_reader("matrix")
def matrix_from_json(obj: dict) -> LabeledMatrix:
    rows = [parse_label(r) for r in obj["rows"]]
    cols = [parse_label(c) for c in obj["cols"]]
    return LabeledMatrix(rows, cols, obj["data"])


def channel_to_json(c: Channel) -> dict:
    obj = matrix_to_json(c.matrix)
    obj["kind"] = "channel"
    return obj


@_reader("channel")
def channel_from_json(obj: dict) -> Channel:
    return Channel(matrix_from_json(obj))


def prior_to_json(p: Prior) -> dict:
    return {"weights": {format_label(x): float(w)
                        for x, w in zip(p.labels, p.weights)}}


@_reader("prior")
def prior_from_json(obj: dict) -> Prior:
    return Prior({parse_label(k): v for k, v in obj["weights"].items()})


@_reader("distribution")
def dist_from_json(obj: dict) -> IndexDistribution:
    return IndexDistribution({parse_label(k): v for k, v in obj["weights"].items()})


def gain_to_json(g: GainFunction) -> dict:
    return {
        "guesses": [format_label(w) for w in g.guesses],
        "secrets": [format_label(x) for x in g.secrets],
        "gain": [[float(v) for v in row] for row in g.gain],
    }


@_reader("gain")
def gain_from_json(obj: dict, secrets=None) -> GainFunction:
    guesses = [parse_label(w) for w in obj["guesses"]]
    if "secrets" in obj:
        secs = [parse_label(x) for x in obj["secrets"]]
    elif secrets is not None:
        secs = list(secrets)
    else:
        raise FormatError("gain JSON lacks 'secrets' and no context is available")
    return GainFunction.build(guesses, secs, obj["gain"])


def measure_to_json(m: VulnMeasure) -> dict:
    if m.is_bayes:
        return {"variant": "bayes"}
    return {"variant": "gain", **gain_to_json(m.gain_fn)}


@_reader("measure")
def measure_from_json(obj: dict, secrets=None) -> VulnMeasure:
    variant = obj.get("variant")
    if variant == "bayes":
        return VulnMeasure.bayes()
    if variant == "gain":
        return VulnMeasure.from_gain(gain_from_json(obj, secrets))
    raise FormatError(f"unknown measure variant {variant!r}")


def game_to_json(g: LeakageGame) -> dict:
    return {
        "defender": [format_label(d) for d in g.defenders],
        "attacker": [format_label(a) for a in g.attackers],
        "prior": prior_to_json(g.prior),
        "measure": measure_to_json(g.measure),
        "channels": {
            f"{format_label(d)}|{format_label(a)}": channel_to_json(g.channel(d, a))
            for d in g.defenders for a in g.attackers
        },
    }


@_reader("game")
def game_from_json(obj: dict) -> LeakageGame:
    defenders = [parse_label(d) for d in obj["defender"]]
    attackers = [parse_label(a) for a in obj["attacker"]]
    prior = prior_from_json(obj["prior"])
    measure = measure_from_json(obj["measure"], secrets=prior.labels)
    channels = {}
    for key, cobj in obj["channels"].items():
        try:
            profile = parse_label_pair(key)
        except ValueError:
            raise FormatError(f"channel key {key!r} is not 'defender|attacker'") from None
        channels[profile] = channel_from_json(cobj)
    return LeakageGame(defenders, attackers, channels, prior, measure)


def dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
