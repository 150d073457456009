"""Timing side-channel model of an n-bit password checker.

The checker compares a low input against the secret bit by bit and
rejects at the first mismatch, so the number of loop iterations leaks
through timing.  The defender may randomise the order in which bits are
checked; the attacker picks the low input.  Observables pair the
accept/reject outcome with the iteration count:

    (F, 1), ..., (F, n), (T, n)

rendered as labels "F@1" ... "T@n".  Secrets and low inputs are
fixed-width bit strings ("101"); check orders are digit strings
("231" means bit 2 first, then 3, then 1).

Every generated channel is deterministic (0/1 entries).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .channels import Channel
from .errors import BadPermutation, TooLarge
from .games import LeakageGame, solve
from .matrix import LabeledMatrix
from .vuln import Prior, VulnMeasure, stacked_posterior_vuln

MAX_BITS_DEFAULT = 5


def secret_labels(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple("".join(bits) for bits in itertools.product("01", repeat=n))


def order_labels(n: int):
    if n > 9:
        raise TooLarge("digit-string order labels support at most 9 bits")
    return tuple("".join(str(i) for i in perm)
                 for perm in itertools.permutations(range(1, n + 1)))


def observable_labels(n: int):
    return tuple(("F", str(k)) for k in range(1, n + 1)) + (("T", str(n)),)


def _parse_order(order: str, n: int):
    try:
        positions = [int(c) for c in order]
    except ValueError:
        raise BadPermutation(f"order {order!r} is not a digit string") from None
    if sorted(positions) != list(range(1, n + 1)):
        raise BadPermutation(f"order {order!r} is not a permutation of 1..{n}")
    return positions


def _observed_column(n: int, diff, order):
    """Observable column of the early-exit checker, elementwise: k - 1
    for F@k when the k-th checked bit is the first where secret and low
    input differ, n for T@n.  ``diff`` holds secret XOR low input as
    n-bit integers and ``order[k - 1]`` the k-th checked bit position
    (1-based, from the left); the two broadcast against each other."""
    column = n
    for k in reversed(range(n)):
        # bit p of an n-bit string s is s >> (n - p) & 1
        column = np.where(diff >> (n - order[k]) & 1, k, column)
    return column


def _low_input_value(n: int, low_input) -> int:
    """``low_input`` read as a binary number; it must be an n-bit string."""
    if not isinstance(low_input, str) or len(low_input) != n or low_input.strip("01"):
        raise ValueError(f"low input {low_input!r} is not an {n}-bit string")
    return int(low_input, 2)


def first_mismatch(x: str, a: str, order) -> int:
    """1-based position, in checking order, of the first differing bit;
    0 when x == a."""
    for k, bit in enumerate(order, start=1):
        if x[bit - 1] != a[bit - 1]:
            return k
    return 0


def pwd_channel(n: int, order: str, low_input: str) -> Channel:
    """Deterministic channel of the early-exit checker under one order
    and one attacker-chosen low input."""
    positions = _parse_order(order, n)
    secrets = secret_labels(n)
    _low_input_value(n, low_input)
    cols = observable_labels(n)
    col_index = {c: i for i, c in enumerate(cols)}
    data = np.zeros((len(secrets), len(cols)))
    for i, x in enumerate(secrets):
        k = first_mismatch(x, low_input, positions)
        col = ("T", str(n)) if k == 0 else ("F", str(k))
        data[i, col_index[col]] = 1.0
    return Channel(LabeledMatrix(secrets, cols, data))


def const_time_channel(n: int, low_input: str) -> Channel:
    """Constant-time variant: only accept/reject after n iterations."""
    secrets = secret_labels(n)
    _low_input_value(n, low_input)
    cols = (("F", str(n)), ("T", str(n)))
    data = np.zeros((len(secrets), 2))
    for i, x in enumerate(secrets):
        data[i, 1 if x == low_input else 0] = 1.0
    return Channel(LabeledMatrix(secrets, cols, data))


def build_game(n: int, prior: Prior, measure: VulnMeasure | None = None,
               max_bits: int = MAX_BITS_DEFAULT) -> LeakageGame:
    """Full leakage game: all n! orders against all 2^n low inputs."""
    if n > max_bits:
        raise TooLarge(f"n = {n} exceeds the size guard ({max_bits}); "
                       f"{math.factorial(n)} x {2 ** n} channels")
    measure = measure or VulnMeasure.bayes()
    orders = order_labels(n)
    lows = secret_labels(n)
    positions = np.array([_parse_order(d, n) for d in orders]).T        # [k, d]
    values = np.arange(2 ** n)
    diff = values[:, None] ^ values[None, :]                            # [a, x]
    # one-hot observable of every order, low input and secret: [d, a, x, y]
    blocks = np.eye(n + 1)[_observed_column(n, diff, positions[:, :, None, None])]
    return LeakageGame.from_tensor(orders, lows, lows, observable_labels(n), blocks,
                                   prior, measure)


def expected_iterations(n: int) -> float:
    """Mean loop count of the early-exit checker under a uniform
    secret/low-input pair: 2 (1 - 2^-n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * (1.0 - 2.0 ** (-n))


def measured_iterations(n: int, samples: int, seed: int = 0,
                        low_input: str | None = None) -> float:
    """Mean iteration count over uniformly random secrets against a
    fixed low input, checked in bit order 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    a = 0 if low_input is None else _low_input_value(n, low_input)
    xs = rng.integers(0, 2 ** n, size=samples)
    # F@k takes k iterations and T@n takes n
    column = _observed_column(n, xs ^ a, range(1, n + 1))
    return float(np.minimum(column + 1, n).mean())


@dataclass
class UniformEquilibriumReport:
    n: int
    uniform_payoffs: dict  # attacker action -> payoff of the uniform mixture
    payoff_spread: float
    lp_value: float
    lp_gap_to_uniform: float
    holds: bool


def verify_uniform_equilibrium(n: int, payoff_tol: float = 1e-9,
                               lp_tol: float = 1e-8,
                               max_bits: int = MAX_BITS_DEFAULT) -> UniformEquilibriumReport:
    """Check that a uniformly random check order is optimal under the
    uniform prior: every attacker action yields the same payoff against
    it, and the hidden simultaneous game's LP value equals that payoff."""
    game = build_game(n, Prior.uniform(secret_labels(n)), VulnMeasure.bayes(),
                      max_bits=max_bits)
    vals = stacked_posterior_vuln(game.gain, game.prior.weights, game.tensor.mean(axis=0))
    payoffs = dict(zip(game.attackers, vals.tolist()))
    spread = float(vals.max() - vals.min())
    lp_value = solve(game, "IV").value
    gap = abs(lp_value - float(vals.max()))
    return UniformEquilibriumReport(
        n=n, uniform_payoffs=payoffs, payoff_spread=spread,
        lp_value=lp_value, lp_gap_to_uniform=gap,
        holds=spread <= payoff_tol and gap <= lp_tol,
    )


def bundled_prior(name: str) -> Prior:
    """Load one of the shipped case-study priors: 'pihat', 'prior_a',
    'prior_b' (digits as published, renormalised on load)."""
    text = resources.files("leakgames.data").joinpath(f"{name}.json").read_text()
    weights = json.loads(text)["weights"]
    return Prior(weights)
