"""Seeded inputs of the benchmark's workloads.

``build(name, seed, workdir)`` writes the input files one workload's
jobs read and returns the jobs in run order.  A job is one CLI call:
its argv, the raw arrays the oracle checks its output against, and the
file it writes, if any.  The same seed writes byte-identical files.

Workloads:

pwd4       ``pwd analyze --bits 4``: the uniform prior, then three
           Dirichlet(1) priors over the 16 secrets.  A job takes 10-30 s
           and about half the random priors fail today, so the random
           priors are summary-only: ``run.py --all`` runs them once, and a
           timed run repeats the uniform job.
audit_mix  ``game audit``: the two-program demo game, then groups of
           24 small games and one wide game (|A| = 5, |D| 4-5, 6-8
           secrets), so wide games are one job in 25.  Wide VI_mixed LPs
           slow down more than small games when the host is busy, so
           ``job_s.p90`` is kept among the small games: the wide games
           are the top 4% of latencies, six points of rank above it.
channels   units of ``channel compose`` (one or two), ``channel equiv``
           and ``vuln`` on both sides of the pair.  Units cycle through
           identical members, a proportional column split, and two
           independent random pairs.

Shapes (sizes, operators, Bayes or gain measure, uniform or random
prior, deterministic channels) follow fixed cycles over the job index;
the seed draws the numbers (channel entries, priors, gains, weights).
So every seed gives the same mix of problem sizes, and a metric moves
across seeds with the values drawn, not with how many large problems
the seed happened to draw.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("pwd4", "audit_mix", "channels")

PWD_BITS = 4
PWD_RANDOM_PRIORS = 3

AUDIT_GROUPS = 12
AUDIT_SMALL_PER_GROUP = 24
SMALL_SIZES = tuple(itertools.product((2, 3), (2, 3), (2, 3, 4), (2, 3, 4)))  # D, A, X, Y
WIDE_ATTACKERS = 5
WIDE_OBSERVABLES = 3
WIDE_SIZES = ((4, 6), (5, 7), (4, 8), (5, 6), (4, 7), (5, 8))  # (|D|, secrets)

CHANNEL_UNITS = 120
UNIT_KINDS = ("identical", "split", "random", "random")
OPS = ("hidden", "visible")

DEMO_CHANNELS = {
    ("0", "0"): [[1, 0], [1, 0]],
    ("0", "1"): [[1, 0], [0, 1]],
    ("1", "0"): [[0, 1], [1, 0]],
    ("1", "1"): [[1 / 3, 2 / 3], [2 / 3, 1 / 3]],
}


@dataclass
class Job:
    argv: list
    kind: str                       # pwd | audit | compose | equiv | vuln
    data: dict = field(default_factory=dict)
    out: str | None = None          # file the job writes
    uniform_prior: bool | None = None
    summary_only: bool = False      # run once by --all, not in a timed run


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        return str(path)


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def build(name: str, seed: int, workdir: Path) -> list:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    builder = {"pwd4": _pwd4, "audit_mix": _audit_mix, "channels": _channels}[name]
    return builder(rng_for(name, seed), _Writer(workdir))


def _labels(prefix: str, n: int) -> list:
    return [f"{prefix}{i}" for i in range(n)]


def _prior(rng, n: int, uniform: bool) -> np.ndarray:
    return np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))


def _measure(rng, X, guesses: int):
    """Bayes (``guesses`` = 0) or a random gain function over X."""
    if not guesses:
        return np.eye(len(X)), None
    return rng.random((guesses, len(X))), _labels("w", guesses)


def _prior_json(labels, pi) -> dict:
    return {"weights": dict(zip(labels, pi.tolist()))}


def _channel_json(rows, cols, M) -> dict:
    return {"kind": "channel", "rows": list(rows), "cols": list(cols),
            "data": np.asarray(M, dtype=float).tolist()}


def _random_channel(rng, n_x: int, n_y: int, deterministic: bool = False) -> np.ndarray:
    if deterministic:
        M = np.zeros((n_x, n_y))
        M[np.arange(n_x), rng.integers(0, n_y, size=n_x)] = 1.0
        return M
    return rng.dirichlet(np.ones(n_y), size=n_x)


# --- pwd4 --------------------------------------------------------------------

def _pwd4(rng, write) -> list:
    _, secrets, C = oracle.checker_tensor(PWD_BITS)
    n = len(secrets)
    base = ["pwd", "analyze", "--bits", str(PWD_BITS), "--prior"]
    jobs = [Job(base + ["uniform"], "pwd", {"C": C, "pi": np.full(n, 1.0 / n)},
                uniform_prior=True)]
    for i in range(PWD_RANDOM_PRIORS):
        pi = rng.dirichlet(np.ones(n))
        path = write(f"prior{i}.json", _prior_json(secrets, pi))
        jobs.append(Job(base + [path], "pwd", {"C": C, "pi": pi}, uniform_prior=False,
                        summary_only=True))
    return jobs


# --- audit_mix ---------------------------------------------------------------

def _game_json(D, A, X, Y, C, pi, G, W) -> dict:
    measure = ({"variant": "bayes"} if W is None else
               {"variant": "gain", "guesses": W, "secrets": X, "gain": G.tolist()})
    return {
        "defender": D, "attacker": A,
        "prior": _prior_json(X, pi),
        "measure": measure,
        "channels": {f"{d}|{a}": _channel_json(X, Y, C[i, j])
                     for i, d in enumerate(D) for j, a in enumerate(A)},
    }


def _audit_job(write, index: int, D, A, X, Y, C, pi, G, W, uniform) -> Job:
    path = write(f"game{index:03d}.json", _game_json(D, A, X, Y, C, pi, G, W))
    return Job(["game", "audit", path], "audit",
               {"C": C, "pi": pi, "G": G, "functions": len(D) ** len(A)},
               uniform_prior=uniform)


def _random_game(rng, write, index, n_d, n_a, n_x, n_y, *, guesses, uniform,
                 deterministic=False) -> Job:
    D, A, X, Y = _labels("d", n_d), _labels("a", n_a), _labels("x", n_x), _labels("y", n_y)
    C = np.stack([np.stack([_random_channel(rng, n_x, n_y, deterministic)
                            for _ in range(n_a)]) for _ in range(n_d)])
    pi = _prior(rng, n_x, uniform)
    G, W = _measure(rng, X, guesses)
    return _audit_job(write, index, D, A, X, Y, C, pi, G, W, uniform)


def _audit_mix(rng, write) -> list:
    C = np.zeros((2, 2, 2, 2))
    for (d, a), M in DEMO_CHANNELS.items():
        C[int(d), int(a)] = M
    demo = _audit_job(write, 0, ["0", "1"], ["0", "1"], ["0", "1"], ["0", "1"],
                      C, np.full(2, 0.5), np.eye(2), None, True)
    jobs = [demo]
    for g in range(AUDIT_GROUPS):
        for s in range(AUDIT_SMALL_PER_GROUP):
            k = g * AUDIT_SMALL_PER_GROUP + s
            jobs.append(_random_game(
                rng, write, len(jobs), *SMALL_SIZES[k % len(SMALL_SIZES)],
                guesses=(k // 4) % 2 * (2 + (k // 8) % 3), uniform=k % 4 == 0,
                deterministic=k % 4 == 2))
        n_d, n_x = WIDE_SIZES[g % len(WIDE_SIZES)]
        jobs.append(_random_game(rng, write, len(jobs), n_d, WIDE_ATTACKERS, n_x,
                                 WIDE_OBSERVABLES, guesses=(g // 2) % 2 * 3,
                                 uniform=g % 4 == 0))
    return jobs


# --- channels ----------------------------------------------------------------

def _composition(rng, write, tag: str, op: str, X, members, member_cols):
    """Write the members and a distribution; return the compose job and
    the reference matrix it should produce."""
    weights = rng.dirichlet(np.ones(len(members)))
    dist = write(f"{tag}-dist.json",
                 {"weights": {str(i + 1): float(w) for i, w in enumerate(weights)}})
    paths = [write(f"{tag}-m{i + 1}.json", _channel_json(X, cols, M))
             for i, (M, cols) in enumerate(zip(members, member_cols))]
    out = str(write.workdir / f"{tag}.json")
    if op == "hidden":
        ref, cols = oracle.hidden_choice(weights, members), member_cols[0]
    else:
        ref = oracle.visible_choice(weights, members)
        cols = [f"{c}@{i + 1}" for i, mc in enumerate(member_cols) for c in mc]
    job = Job(["channel", "compose", "--op", op, "--dist", dist, "--out", out, *paths],
              "compose", {"rows": X, "cols": cols, "M": ref}, out=out)
    return job, ref


def _vuln_job(rng, write, tag: str, X, channel_path: str, M, *, guesses, uniform) -> Job:
    pi = _prior(rng, len(X), uniform)
    prior = write(f"{tag}-prior.json", _prior_json(X, pi))
    G, W = _measure(rng, X, guesses)
    measure = "bayes" if W is None else write(
        f"{tag}-gain.json", {"variant": "gain", "guesses": W, "secrets": X, "gain": G.tolist()})
    return Job(["vuln", "--prior", prior, "--channel", channel_path, "--measure", measure],
               "vuln", {"pi": pi, "C": M, "G": G}, uniform_prior=uniform)


def _channels(rng, write) -> list:
    jobs = []
    for u in range(CHANNEL_UNITS):
        kind = UNIT_KINDS[u % len(UNIT_KINDS)]
        n_x, n_y = 4 + u % 9, 2 + (u // 9) % 3
        op_a, op_b = OPS[(u + u // 4) % 2], OPS[(u + u // 4 + 1) % 2]
        X, Y = _labels("x", n_x), _labels("y", n_y)
        a_tag, b_tag = f"u{u:03d}a", f"u{u:03d}b"
        if kind == "identical":
            C = _random_channel(rng, n_x, n_y)
            a_job, A = _composition(rng, write, a_tag, op_a, X, [C, C], [Y, Y])
            b_job, B = _composition(rng, write, b_tag, op_b, X, [C, C], [Y, Y])
            compose = [a_job, b_job]
        elif kind == "split":
            members = [_random_channel(rng, n_x, n_y) for _ in range(2)]
            a_job, A = _composition(rng, write, a_tag, op_a, X, members, [Y, Y])
            j = int(rng.integers(0, A.shape[1]))
            share = float(rng.uniform(0.2, 0.8))
            B = np.hstack([A[:, :j], share * A[:, j:j + 1], (1 - share) * A[:, j:j + 1],
                           A[:, j + 1:]])
            b_job = None
            compose = [a_job]
        else:
            a_job, A = _composition(rng, write, a_tag, op_a, X,
                                    [_random_channel(rng, n_x, n_y) for _ in range(2)], [Y, Y])
            b_job, B = _composition(rng, write, b_tag, op_b, X,
                                    [_random_channel(rng, n_x, n_y) for _ in range(2)], [Y, Y])
            compose = [a_job, b_job]
        b_path = b_job.out if b_job else write(
            f"{b_tag}.json", _channel_json(X, _labels("z", B.shape[1]), B))
        jobs += compose
        jobs.append(Job(["channel", "equiv", a_job.out, b_path], "equiv", {"A": A, "B": B}))
        for side, (tag, path, M) in enumerate(((a_tag, a_job.out, A), (b_tag, b_path, B))):
            jobs.append(_vuln_job(rng, write, tag, X, path, M, uniform=(u + side) % 4 == 0,
                                  guesses=(u // 2 + side) % 2 * (2 + u % 3)))
    return jobs
