"""Leakage games: defender/attacker channel games and their solvers.

A leakage game fixes defender actions, attacker actions, one channel
per action pair, a prior and a vulnerability measure.  The payoff of a
pure profile (d, a) is the posterior vulnerability of the channel
C[d, a]; the attacker maximises it, the defender minimises it.  So a
game is held as one array C[d, a, x, y], a prior vector and a gain
matrix (see LeakageGame).

Seven solve modes cover the order-of-play / visibility grid:

    I               simultaneous, defender's choice visible
    II              defender first, visible
    III             attacker first, visible
    IV              simultaneous, defender's choice hidden
    V               defender first, hidden (equivalent to IV: with the
                    draw hidden the follower learns nothing)
    VI_mixed        attacker first, hidden; defender mixes over
                    functions attacker-action -> defender-action.
                    Under perfect recall a mixture over functions pays
                    what its per-action marginals pay (Kuhn, 1953), so
                    the value is VI_behavioral's and the witness is the
                    quantile coupling of its marginals
    VI_behavioral   attacker first, hidden; defender picks a mixture
                    after seeing the attacker's action

Hidden-choice payoffs are convex piecewise-linear in the defender's
mixture; visible-choice payoffs are bilinear, the case of one piece per
attacker action.  So I and IV-VI all go through
leakgames.minimax.solve_convex_linear_game (the epigraph LP or its dual,
whichever is smaller), and II-III are pure argmin/argmax.

Tie-breaking everywhere: lowest action in label order.  The actions
are stored in that order, so it is the first index np.argmin and
np.argmax return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .channels import Channel, stochastic
from .errors import DuplicateIndex, SolverError, TypeMismatch, UnknownAction
from .labels import label_key
from .matrix import LabeledMatrix, sorted_labels
from .minimax import (
    branch_value,
    solve_convex_linear_game,
    solve_matrix_game,
)
from .vuln import Prior, VulnMeasure

KINDS = ("I", "II", "III", "IV", "V", "VI_mixed", "VI_behavioral")


class LeakageGame:
    """A leakage game held as arrays, built once at construction.

    ``tensor[d, a, x, y]`` is the channel of profile (d, a): actions in
    label order, ``secrets`` in the prior's, ``observables`` the sorted
    union of all profiles' outputs (zero where a profile lacks one).
    ``declared[d, a, y]`` marks each profile's own outputs; ``gain[w, x]``
    is the measure's gain matrix, the identity for Bayes.  All are
    read-only.  The LP solutions of IV (also V's) and of each attacker
    action (both VI modes') are kept on first use.
    """

    __slots__ = ("defenders", "attackers", "secrets", "observables", "tensor",
                 "declared", "gain", "prior", "measure", "_hidden", "_per_action")

    def __init__(self, defenders, attackers, channels: Mapping, prior: Prior,
                 measure: VulnMeasure):
        """One ``Channel`` per profile, keyed ``(d, a)``."""
        defenders, attackers = sorted_labels(defenders), sorted_labels(attackers)
        profiles = [(d, a) for d in defenders for a in attackers]
        stray = set(channels).symmetric_difference(profiles)
        if stray:
            raise UnknownAction("profiles without a channel or channels without a "
                                f"profile: {sorted(stray, key=str)}")
        observables = sorted_labels({y for ch in channels.values() for y in ch.observables})
        column = {y: k for k, y in enumerate(observables)}
        tensor = np.zeros((len(defenders), len(attackers), len(prior.labels), len(observables)))
        declared = np.zeros(tensor.shape[:2] + tensor.shape[3:], dtype=bool)
        for k, (d, a) in enumerate(profiles):
            ch, at = channels[d, a], np.unravel_index(k, tensor.shape[:2])
            if set(ch.secrets) != set(prior.labels):
                raise TypeMismatch(
                    f"channel ({d!r}, {a!r}) has secrets {sorted(map(str, ch.secrets))}, "
                    f"prior has {sorted(map(str, prior.labels))}")
            cols = [column[y] for y in ch.observables]
            tensor[at][:, cols] = (ch.data if ch.secrets == prior.labels
                                   else ch.matrix.align_to(prior.labels).data)
            declared[at][cols] = True
        self._fill(defenders, attackers, observables, tensor, declared, prior, measure)

    @classmethod
    def from_tensor(cls, defenders, attackers, secrets, observables, tensor,
                    prior: Prior, measure: VulnMeasure) -> "LeakageGame":
        """A game whose ``tensor[d, a, x, y]`` lists the given labels in
        their order, every profile declaring every observable.  All
        profiles go through one stochastic check."""
        labels = defenders, attackers, secrets, observables = tuple(
            map(tuple, (defenders, attackers, secrets, observables)))
        if secrets != prior.labels:
            raise TypeMismatch(f"channel secrets {list(secrets)} are not the prior's")
        if np.shape(tensor) != tuple(map(len, labels)):
            raise ValueError(f"tensor shape {np.shape(tensor)} does not match the labels")
        tensor = stochastic(tensor, lambda i: f"row {secrets[i[2]]!r} of channel "
                                              f"({defenders[i[0]]!r}, {attackers[i[1]]!r})")
        game = cls.__new__(cls)
        game._fill(defenders, attackers, observables, tensor,
                   np.ones(tensor.shape[:2] + tensor.shape[3:], dtype=bool), prior, measure)
        return game

    def _fill(self, defenders, attackers, observables, tensor, declared, prior, measure):
        for role, labels in (("defender", defenders), ("attacker", attackers),
                             ("observable", observables)):
            if not labels:
                raise ValueError(f"a leakage game needs at least one {role}")
            if any(label_key(x) >= label_key(y) for x, y in zip(labels, labels[1:])):
                raise DuplicateIndex(f"{role} labels {list(labels)} repeat or are out of order")
        if measure.is_custom:
            raise TypeError("a leakage game needs a gain-based measure; custom "
                            "convex evaluators serve measurement only")
        measure.check_secrets(prior.labels)
        self.defenders, self.attackers, self.observables = defenders, attackers, observables
        self.secrets, self.prior, self.measure = prior.labels, prior, measure
        self.tensor, self.declared, self.gain = tensor, declared, measure.gain_matrix(prior.labels)
        for arr in (tensor, declared, self.gain):
            arr.setflags(write=False)
        self._hidden = self._per_action = None

    def channel(self, d, a) -> Channel:
        """Profile (d, a)'s channel over its own outputs, rebuilt from the tensor."""
        i, j = _index(self.defenders, d), _index(self.attackers, a)
        own = self.declared[i, j]
        cols = [y for y, kept in zip(self.observables, own) if kept]
        return Channel(LabeledMatrix(self.secrets, cols, self.tensor[i, j][:, own]))

    def check_hidden_typing(self):
        """Hidden-choice games need, per attacker action, one output type
        shared by all defender actions."""
        differs = (self.declared != self.declared[0]).any(axis=2)      # [d, a]
        if differs.any():
            j, i = np.argwhere(differs.T)[0]
            d, a, first = self.defenders[i], self.attackers[j], self.defenders[0]
            raise TypeMismatch(f"hidden choice ill-typed: channel ({d!r}, {a!r}) does not "
                               f"share the output set of ({first!r}, {a!r})")


def _index(labels: tuple, label) -> int:
    try:
        return labels.index(label)
    except ValueError:
        raise UnknownAction(f"unknown action {label!r}") from None


def _vulnerabilities(game: LeakageGame, channels: np.ndarray) -> np.ndarray:
    """Posterior vulnerability sum_y max_w sum_x pi(x) C(x, y) g(w, x) of
    every channel C in a stack ``channels[..., x, y]``."""
    joint = game.prior.weights[:, None] * channels
    return (game.gain @ joint).max(axis=-2).sum(axis=-1)


def payoff_matrix(game: LeakageGame) -> LabeledMatrix:
    """Pure-profile payoffs, defenders as rows: the posterior vulnerability
    of every profile's channel at once."""
    return LabeledMatrix(game.defenders, game.attackers, _vulnerabilities(game, game.tensor))


def uniform_worst_case(game: LeakageGame) -> float:
    """The best attacker action's payoff against the hidden uniform
    mixture of defender actions: the vulnerability of each column's
    mixture channel, tensor.mean over d, maximised over the columns."""
    return float(_vulnerabilities(game, game.tensor.mean(axis=0)).max())


@dataclass
class GameSolution:
    kind: str
    value: float
    defender: dict
    attacker: dict
    diagnostics: dict = field(default_factory=dict)

    def recompute_value(self, game: LeakageGame) -> float:
        """Re-derive the value from the returned strategies via the
        mode's own payoff formula (consistency check)."""
        kind = self.kind
        if kind in ("I", "II", "III"):
            u = payoff_matrix(game)
        if kind == "I":
            delta = np.array([self.defender["dist"][d] for d in game.defenders])
            alpha = np.array([self.attacker["dist"][a] for a in game.attackers])
            return float(delta @ u.data @ alpha)
        if kind == "II":
            d = self.defender["action"]
            return u.at(d, self.attacker["map"][d])
        if kind == "III":
            a = self.attacker["action"]
            return u.at(self.defender["map"][a], a)
        if kind in ("IV", "V"):
            delta = np.array([self.defender["dist"][d] for d in game.defenders])
            alpha = self.attacker["dist"]
            return float(sum(alpha[a] * hidden_mixture_value(game, a, delta)
                             for a in game.attackers))
        if kind == "VI_mixed":
            order = self.defender["function_order"]
            marg = mixed_to_behavioral(self.defender["dist"], order, game.defenders)
            a = self.attacker["action"]
            delta = np.array([marg[a][d] for d in game.defenders])
            total = delta.sum()
            delta = delta / total if total else delta
            return float(hidden_mixture_value(game, a, delta))
        if kind == "VI_behavioral":
            a = self.attacker["action"]
            delta = np.array([self.defender["map"][a][d] for d in game.defenders])
            return float(hidden_mixture_value(game, a, delta))
        raise ValueError(f"unknown kind {kind!r}")


def hidden_branch_pieces(game: LeakageGame, a) -> np.ndarray:
    """Epigraph pieces of delta -> posterior vuln of the delta-mixture
    of the column ``a`` channels: k[y, w, d] = sum_x pi(x) C_da(x, y) g(w, x).

    Rows run over the observables some channel of the column declares,
    in label order.  The array is C-contiguous.
    """
    j = _index(game.attackers, a)
    cols = game.declared[:, j].any(axis=0)
    joint = game.prior.weights[:, None] * game.tensor[:, j][:, :, cols]  # |D| x |X| x |Y|
    k = game.gain @ joint                                                  # |D| x |W| x |Y|
    return np.ascontiguousarray(k.transpose(2, 1, 0))                      # |Y| x |W| x |D|


def hidden_mixture_value(game: LeakageGame, a, delta: np.ndarray) -> float:
    """Posterior vulnerability of the hidden delta-mixture against pure a."""
    return branch_value(hidden_branch_pieces(game, a), delta)


def solve(game: LeakageGame, kind: str) -> GameSolution:
    if kind not in KINDS:
        raise ValueError(f"unknown game kind {kind!r}; expected one of {KINDS}")
    if kind == "I":
        return _solve_visible_simultaneous(game)
    if kind == "II":
        return _solve_defender_first_visible(game)
    if kind == "III":
        return _solve_attacker_first_visible(game)
    if kind in ("IV", "V"):
        out = _solve_hidden_simultaneous(game)
        out.kind = kind
        if kind == "V":
            out.diagnostics["alias"] = (
                "defender-first with hidden choice solves identically to the "
                "simultaneous game: a follower who cannot observe the draw "
                "learns nothing from moving second")
        return out
    if kind == "VI_mixed":
        return _solve_attacker_first_hidden_mixed(game)
    return _solve_attacker_first_hidden_behavioral(game)


def _solve_visible_simultaneous(game: LeakageGame) -> GameSolution:
    sol = solve_matrix_game(payoff_matrix(game))
    return GameSolution(
        kind="I",
        value=sol.value,
        defender={"type": "mixed", "dist": dict(zip(game.defenders, sol.delta))},
        attacker={"type": "mixed", "dist": dict(zip(game.attackers, sol.alpha))},
        diagnostics={"solver": "matrix-game LP", **sol.diagnostics},
    )


def _solve_defender_first_visible(game: LeakageGame) -> GameSolution:
    u = payoff_matrix(game).data
    worst = u.max(axis=1)
    i = int(np.argmin(worst))           # actions are sorted: ties go to the lowest label
    d_star = game.defenders[i]
    reply = dict(zip(game.defenders, (game.attackers[j] for j in u.argmax(axis=1))))
    value = float(worst[i])
    behavioral = {d: {reply[d]: 1.0} for d in game.defenders}
    # the pure follower reply and its one-point behavioural form must agree
    if abs(value - sum(p * u[i, game.attackers.index(a)]
                       for a, p in behavioral[d_star].items())) > 1e-12:
        raise SolverError("defender-first solution failed its consistency identity")
    return GameSolution(
        kind="II",
        value=value,
        defender={"type": "pure", "action": d_star},
        attacker={"type": "function", "map": reply, "behavioral": behavioral},
        diagnostics={"solver": "pure minimax scan",
                     "worst_case": dict(zip(game.defenders, worst))},
    )


def _solve_attacker_first_visible(game: LeakageGame) -> GameSolution:
    u = payoff_matrix(game).data
    best = u.min(axis=0)
    j = int(np.argmax(best))
    a_star = game.attackers[j]
    reply = dict(zip(game.attackers, (game.defenders[i] for i in u.argmin(axis=0))))
    behavioral = {a: {reply[a]: 1.0} for a in game.attackers}
    return GameSolution(
        kind="III",
        value=float(best[j]),
        defender={"type": "function", "map": reply, "behavioral": behavioral},
        attacker={"type": "pure", "action": a_star},
        diagnostics={"solver": "pure maximin scan",
                     "best_case": dict(zip(game.attackers, best))},
    )


def _solve_hidden_simultaneous(game: LeakageGame) -> GameSolution:
    if game._hidden is None:
        game.check_hidden_typing()
        game._hidden = solve_convex_linear_game(
            [hidden_branch_pieces(game, a) for a in game.attackers])
    sol = game._hidden
    return GameSolution(
        kind="IV",
        value=sol.value,
        defender={"type": "mixed", "dist": dict(zip(game.defenders, sol.delta))},
        attacker={"type": "mixed", "dist": dict(zip(game.attackers, sol.alpha))},
        diagnostics={"solver": "epigraph LP", **sol.diagnostics},
    )


def _attacker_first_hidden(game: LeakageGame):
    """Each attacker action's minimising hidden mixture (one LP per
    action, solved once per game and shared by both VI modes), the
    per-action minima and the attacker's best action."""
    if game._per_action is None:
        game.check_hidden_typing()
        game._per_action = {a: solve_convex_linear_game([hidden_branch_pieces(game, a)])
                            for a in game.attackers}
    sols = game._per_action
    minima = {a: sol.value for a, sol in sols.items()}
    return sols, minima, game.attackers[int(np.argmax(list(minima.values())))]


def _solve_attacker_first_hidden_mixed(game: LeakageGame) -> GameSolution:
    sols, minima, a_star = _attacker_first_hidden(game)
    sigma = quantile_coupling([sols[a].delta for a in game.attackers], game.defenders)
    return GameSolution(
        kind="VI_mixed",
        value=minima[a_star],
        defender={"type": "mixed_functions", "dist": sigma,
                  "marginals": mixed_to_behavioral(sigma, game.attackers, game.defenders),
                  "function_order": tuple(game.attackers)},
        attacker={"type": "pure", "action": a_star, "per_action_value": minima},
        diagnostics={"solver": "per-action epigraph LPs, quantile coupling"},
    )


def _solve_attacker_first_hidden_behavioral(game: LeakageGame) -> GameSolution:
    sols, minima, a_star = _attacker_first_hidden(game)
    return GameSolution(
        kind="VI_behavioral",
        value=minima[a_star],
        defender={"type": "behavioral",
                  "map": {a: dict(zip(game.defenders, sol.delta)) for a, sol in sols.items()}},
        attacker={"type": "pure", "action": a_star, "per_action_value": minima},
        diagnostics={"solver": "per-action epigraph LPs"},
    )


def quantile_coupling(marginals, defenders) -> dict:
    """A distribution over functions attacker-action -> defender-action
    with the given per-action marginals: their comonotone coupling.

    ``marginals[i]`` is a distribution over ``defenders`` for the i-th
    attacker action.  One u drawn uniformly from (0, 1] picks, for every
    action, the defender whose cumulative interval holds u.  The result
    maps function tuples (values in action order) to the length of the
    u-interval on which that tuple is picked.  Cut points are the
    partial sums below each action's last support point, so there are
    at most sum_i |supp_i| - |A| + 1 atoms.
    """
    supports, cuts = [], []
    for m in marginals:
        m = np.asarray(m, dtype=float)
        support = np.flatnonzero(m > 0.0)
        supports.append(support)
        cuts.append(np.cumsum(m)[support[:-1]])
    ends = np.unique(np.concatenate([*cuts, [1.0]]))
    ends = ends[ends <= 1.0]            # a partial sum may round above 1
    weights = np.diff(ends, prepend=0.0)
    picks = [support[np.searchsorted(cut, ends, side="left")]
             for support, cut in zip(supports, cuts)]
    return {tuple(defenders[p[k]] for p in picks): float(w)
            for k, w in enumerate(weights)}


def mixed_to_behavioral(sigma: Mapping[tuple, float], attackers, defenders) -> dict:
    """Marginalise a distribution over functions into a behavioural map.

    ``sigma`` maps tuples (the function's values in ``attackers``
    order) to probabilities.  For every attacker action the hidden
    mixture induced by the marginals equals the one induced by sigma,
    so the behavioural form is payoff-preserving pointwise.
    """
    attackers = tuple(attackers)
    out = {a: {d: 0.0 for d in defenders} for a in attackers}
    for func, w in sigma.items():
        if len(func) != len(attackers):
            raise ValueError("function tuple length does not match attacker count")
        for a, d in zip(attackers, func):
            out[a][d] += w
    return out


@dataclass
class HierarchyReport:
    values: dict
    orderings: list  # (name, left kind, right kind, holds)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


HIERARCHY_ORDERINGS = (
    ("II", "I"),
    ("I", "III"),
    ("I", "IV"),
    ("IV", "VI_mixed"),
    ("III", "VI_mixed"),
    ("VI_mixed", "VI_behavioral"),
)


def audit_hierarchy(game: LeakageGame, tol: float = 1e-7) -> HierarchyReport:
    """Solve every mode and check the value orderings between them.

    The expected lattice: II >= I >= III, I >= IV >= VI_mixed,
    III >= VI_mixed >= VI_behavioral, and IV == V.  III and IV are
    deliberately not compared: neither dominates the other.
    """
    values = {k: solve(game, k).value for k in KINDS}
    orderings = []
    violations = []
    for hi, lo in HIERARCHY_ORDERINGS:
        holds = values[hi] >= values[lo] - tol
        orderings.append((f"{hi}>={lo}", hi, lo, holds))
        if not holds:
            violations.append(f"{hi} = {values[hi]:.9g} < {lo} = {values[lo]:.9g}")
    same = abs(values["IV"] - values["V"]) <= tol
    orderings.append(("IV==V", "IV", "V", same))
    if not same:
        violations.append(f"IV = {values['IV']:.9g} != V = {values['V']:.9g}")
    return HierarchyReport(values=values, orderings=orderings, violations=violations)
