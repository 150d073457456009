"""JSON formats for matrices, channels, priors, gain functions, games.

Labels are rendered as strings ("inner@tag" for tagged labels, with
"@", "(", ")", "|" and backslash escaped inside atoms).  Matrix data is
row-major.  Channel files are matrix files with "kind": "channel".
Game channel keys are "defender|attacker", split at the one unescaped
"|".

Writing is deterministic: keys sorted, floats via repr, so identical
objects produce byte-identical files.
"""

from __future__ import annotations

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


def matrix_to_json(m: LabeledMatrix) -> dict:
    return {
        "rows": [format_label(r) for r in m.rows],
        "cols": [format_label(c) for c in m.cols],
        "data": [[float(v) for v in row] for row in m.data],
    }


def matrix_from_json(obj: dict) -> LabeledMatrix:
    try:
        rows = [parse_label(r) for r in obj["rows"]]
        cols = [parse_label(c) for c in obj["cols"]]
        return LabeledMatrix(rows, cols, obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix JSON: {exc}") from exc


def channel_to_json(c: Channel) -> dict:
    obj = matrix_to_json(c.matrix)
    obj["kind"] = "channel"
    return obj


def channel_from_json(obj: dict) -> Channel:
    m = matrix_from_json(obj)
    try:
        return Channel(m)
    except ValueError as exc:
        raise FormatError(f"bad channel JSON: {exc}") from exc


def prior_to_json(p: Prior) -> dict:
    return {"weights": {format_label(x): float(w)
                        for x, w in zip(p.labels, p.weights)}}


def prior_from_json(obj: dict) -> Prior:
    try:
        return Prior({parse_label(k): v for k, v in obj["weights"].items()})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"bad prior JSON: {exc}") from exc


def dist_from_json(obj: dict) -> IndexDistribution:
    try:
        return IndexDistribution({parse_label(k): v for k, v in obj["weights"].items()})
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"bad distribution JSON: {exc}") from exc


def gain_to_json(g: GainFunction) -> dict:
    return {
        "guesses": [format_label(w) for w in g.guesses],
        "secrets": [format_label(x) for x in g.secrets],
        "gain": [[float(v) for v in row] for row in g.gain],
    }


def gain_from_json(obj: dict, secrets=None) -> GainFunction:
    try:
        guesses = [parse_label(w) for w in obj["guesses"]]
        if "secrets" in obj:
            secs = [parse_label(x) for x in obj["secrets"]]
        elif secrets is not None:
            secs = list(secrets)
        else:
            raise FormatError("gain JSON lacks 'secrets' and no context is available")
        return GainFunction.build(guesses, secs, obj["gain"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad gain JSON: {exc}") from exc


def measure_to_json(m: VulnMeasure) -> dict:
    if m.is_bayes:
        return {"variant": "bayes"}
    return {"variant": "gain", **gain_to_json(m.gain_fn)}


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


def game_from_json(obj: dict) -> LeakageGame:
    try:
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
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad game JSON: {exc}") from exc


def dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
