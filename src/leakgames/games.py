"""Leakage games: defender/attacker channel games and their solvers.

A leakage game fixes defender actions, attacker actions, one channel
per action pair, a prior and a vulnerability measure.  The payoff of a
pure profile (d, a) is the posterior vulnerability of the channel
C[d, a]; the attacker maximises it, the defender minimises it.

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

Visible-choice payoffs are bilinear, so I-III reduce to a matrix game
and pure argmin/argmax.  Hidden-choice payoffs are convex in the
defender's mixture, handled by leakgames.minimax.solve_convex_linear_game
(the epigraph LP or its dual, whichever is smaller).

Tie-breaking everywhere: lowest action in label order.  The inputs are
immutable; the arrays and LP solutions the solvers derive from them
are cached on the game on first use (see LeakageGame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .channels import Channel
from .errors import SolverError, TypeMismatch, UnknownAction
from .labels import label_key
from .matrix import LabeledMatrix, sorted_labels
from .minimax import (
    branch_value,
    solve_convex_linear_game,
    solve_matrix_game,
)
from .vuln import Prior, VulnMeasure, posterior_vuln

KINDS = ("I", "II", "III", "IV", "V", "VI_mixed", "VI_behavioral")


class LeakageGame:
    """Immutable bundle of actions, channels, prior and measure.

    What the solvers derive from it is built on first use and kept: the
    payoff table, each attacker action's epigraph pieces, the hidden
    simultaneous game's LP solution, which IV and its alias V share,
    and the per-action LP solutions, which VI_behavioral and VI_mixed
    share.
    """

    __slots__ = ("defenders", "attackers", "channels", "prior", "measure",
                 "_payoffs", "_pieces", "_hidden", "_per_action")

    def __init__(self, defenders, attackers, channels: Mapping, prior: Prior,
                 measure: VulnMeasure):
        self.defenders = sorted_labels(defenders)
        self.attackers = sorted_labels(attackers)
        self.channels = dict(channels)
        self.prior = prior
        self.measure = measure
        secrets = set(prior.labels)
        for d in self.defenders:
            for a in self.attackers:
                if (d, a) not in self.channels:
                    raise UnknownAction(f"no channel for profile ({d!r}, {a!r})")
                ch = self.channels[d, a]
                if set(ch.secrets) != secrets:
                    raise TypeMismatch(
                        f"channel ({d!r}, {a!r}) has secrets {sorted(map(str, ch.secrets))}, "
                        f"prior has {sorted(map(str, prior.labels))}")
        measure.check_secrets(prior.labels)
        self._payoffs = None
        self._pieces = {}
        self._hidden = None
        self._per_action = None

    def pieces(self, a) -> np.ndarray:
        """The epigraph pieces of attacker action ``a`` (see
        ``hidden_branch_pieces``), built once."""
        cached = self._pieces.get(a)
        return cached if cached is not None else hidden_branch_pieces(self, a)

    def channel(self, d, a) -> Channel:
        try:
            return self.channels[d, a]
        except KeyError:
            raise UnknownAction(f"unknown profile ({d!r}, {a!r})") from None

    def check_hidden_typing(self):
        """Hidden-choice games need, per attacker action, one output type
        shared by all defender actions."""
        for a in self.attackers:
            first = self.channel(self.defenders[0], a)
            for d in self.defenders[1:]:
                if not self.channel(d, a).same_type(first):
                    raise TypeMismatch(
                        f"hidden choice ill-typed: channel ({d!r}, {a!r}) does not "
                        f"share the output set of ({self.defenders[0]!r}, {a!r})")


def pure_payoff(game: LeakageGame, d, a) -> float:
    """Posterior vulnerability of the channel picked by the pure profile."""
    return posterior_vuln(game.measure, game.prior, game.channel(d, a))


def payoff_matrix(game: LeakageGame) -> LabeledMatrix:
    """Pure-profile payoffs, defenders as rows; kept on the game."""
    if game._payoffs is None:
        data = [[pure_payoff(game, d, a) for a in game.attackers] for d in game.defenders]
        game._payoffs = LabeledMatrix(game.defenders, game.attackers, data)
    return game._payoffs


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
        return _recompute(self, game)


def _argmin(labels, score):
    best = min(score(x) for x in labels)
    return next(x for x in sorted(labels, key=label_key) if score(x) == best)


def _argmax(labels, score):
    best = max(score(x) for x in labels)
    return next(x for x in sorted(labels, key=label_key) if score(x) == best)


def hidden_branch_pieces(game: LeakageGame, a) -> np.ndarray:
    """Epigraph pieces of delta -> posterior vuln of the delta-mixture
    of the column ``a`` channels: k[y, w, d] = sum_x pi(x) C_da(x, y) g(w, x).

    Rows and columns follow the first defender's channel.  The array is
    read-only, C-contiguous and kept on the game: later calls for the
    same ``a`` return the same object.
    """
    cached = game._pieces.get(a)
    if cached is not None:
        return cached
    chans = [game.channel(d, a) for d in game.defenders]
    ref = chans[0]
    pi = game.prior.aligned(ref.secrets)
    G = game.measure.gain_matrix(ref.secrets)
    stack = np.stack([
        ch.data if ch.secrets == ref.secrets and ch.observables == ref.observables
        else ch.matrix.align_to(ref.secrets, ref.observables).data
        for ch in chans])                                    # |D| x |X| x |Y|
    k = G @ (pi[:, None] * stack)                            # |D| x |W| x |Y|
    k = np.ascontiguousarray(k.transpose(2, 1, 0))           # |Y| x |W| x |D|
    k.setflags(write=False)
    game._pieces[a] = k
    return k


def hidden_mixture_value(game: LeakageGame, a, delta: np.ndarray) -> float:
    """Posterior vulnerability of the hidden delta-mixture against pure a."""
    return branch_value(game.pieces(a), delta)


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
    u = payoff_matrix(game)
    sol = solve_matrix_game(u)
    return GameSolution(
        kind="I",
        value=sol.value,
        defender={"type": "mixed", "dist": dict(zip(game.defenders, sol.row_strategy))},
        attacker={"type": "mixed", "dist": dict(zip(game.attackers, sol.col_strategy))},
        diagnostics={"solver": "matrix-game LP", **sol.diagnostics},
    )


def _solve_defender_first_visible(game: LeakageGame) -> GameSolution:
    u = payoff_matrix(game)
    worst = {d: max(u.at(d, a) for a in game.attackers) for d in game.defenders}
    d_star = _argmin(game.defenders, worst.__getitem__)
    reply = {d: _argmax(game.attackers, lambda a, d=d: u.at(d, a)) for d in game.defenders}
    value = u.at(d_star, reply[d_star])
    behavioral = {d: {reply[d]: 1.0} for d in game.defenders}
    # the pure follower reply and its one-point behavioural form must agree
    if abs(value - sum(p * u.at(d_star, a) for a, p in behavioral[d_star].items())) > 1e-12:
        raise SolverError("defender-first solution failed its consistency identity")
    return GameSolution(
        kind="II",
        value=value,
        defender={"type": "pure", "action": d_star},
        attacker={"type": "function", "map": reply, "behavioral": behavioral},
        diagnostics={"solver": "pure minimax scan", "worst_case": worst},
    )


def _solve_attacker_first_visible(game: LeakageGame) -> GameSolution:
    u = payoff_matrix(game)
    best = {a: min(u.at(d, a) for d in game.defenders) for a in game.attackers}
    a_star = _argmax(game.attackers, best.__getitem__)
    reply = {a: _argmin(game.defenders, lambda d, a=a: u.at(d, a)) for a in game.attackers}
    value = u.at(reply[a_star], a_star)
    behavioral = {a: {reply[a]: 1.0} for a in game.attackers}
    return GameSolution(
        kind="III",
        value=value,
        defender={"type": "function", "map": reply, "behavioral": behavioral},
        attacker={"type": "pure", "action": a_star},
        diagnostics={"solver": "pure maximin scan", "best_case": best},
    )


def _solve_hidden_simultaneous(game: LeakageGame) -> GameSolution:
    if game._hidden is None:
        game.check_hidden_typing()
        game._hidden = solve_convex_linear_game([game.pieces(a) for a in game.attackers])
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
        game._per_action = {a: solve_convex_linear_game([game.pieces(a)])
                            for a in game.attackers}
    sols = game._per_action
    minima = {a: sol.value for a, sol in sols.items()}
    return sols, minima, _argmax(game.attackers, minima.__getitem__)


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


def _recompute(solution: GameSolution, game: LeakageGame) -> float:
    kind = solution.kind
    if kind in ("I", "II", "III"):
        u = payoff_matrix(game)
    if kind == "I":
        delta = solution.defender["dist"]
        alpha = solution.attacker["dist"]
        return float(sum(delta[d] * alpha[a] * u.at(d, a)
                         for d in game.defenders for a in game.attackers))
    if kind == "II":
        d = solution.defender["action"]
        return float(u.at(d, solution.attacker["map"][d]))
    if kind == "III":
        a = solution.attacker["action"]
        return float(u.at(solution.defender["map"][a], a))
    if kind in ("IV", "V"):
        delta = np.array([solution.defender["dist"][d] for d in game.defenders])
        alpha = solution.attacker["dist"]
        return float(sum(alpha[a] * hidden_mixture_value(game, a, delta)
                         for a in game.attackers))
    if kind == "VI_mixed":
        order = solution.defender["function_order"]
        sigma = {f: w for f, w in solution.defender["dist"].items()}
        marg = mixed_to_behavioral(sigma, order, game.defenders)
        a = solution.attacker["action"]
        delta = np.array([marg[a][d] for d in game.defenders])
        total = delta.sum()
        delta = delta / total if total else delta
        return float(hidden_mixture_value(game, a, delta))
    if kind == "VI_behavioral":
        a = solution.attacker["action"]
        delta = np.array([solution.defender["map"][a][d] for d in game.defenders])
        return float(hidden_mixture_value(game, a, delta))
    raise ValueError(f"unknown kind {kind!r}")


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
