"""Spans around the calls into each leakgames layer, for traced runs.

The library is instrumented from the outside and its source is not
touched.  Public functions are wrapped by identity in every
``leakgames.*`` namespace that binds them (``from .x import f`` makes
several bindings of one function).  ``simplex._run_phase`` and
``simplex._refactor`` are module globals looked up at call time, and
the pivot kernel is reached through the module global ``_kernel``,
which is swapped for a proxy.

A span records its name, start, end, parent span and job id.  Spans
are kept in memory and written out when the run ends.  Self time is a
span's duration minus the time its child spans cover.

Pivot work is computed, not counted by hardware: one pivot of the
dense kernel updates the whole (m+1) x (n+1) tableau with an outer
product, 2 flops and 32 bytes (temporary written, tableau and temporary
read, tableau written) per entry.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

PIVOT_FLOPS_PER_ENTRY = 2
PIVOT_BYTES_PER_ENTRY = 32


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job]
        self.stack = []
        self.job = -1
        self.counts = Counter()
        self.maxima = Counter()
        self.lp_info = {}        # lp_solve span -> [has artificials, phases seen]

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def traced(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span named ``name``.  ``before(idx, args)``
        runs inside the span, ``after(args, result, ok)`` just after it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            if before:
                before(idx, args)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(idx)
                if after:
                    after(args, result, ok)
            return result
        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]},
                      fh)


class _KernelProxy:
    """Stands in for ``simplex._kernel`` with a traced ``run_simplex``."""

    def __init__(self, kernel, run_simplex):
        self._kernel = kernel
        self.run_simplex = run_simplex

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _rebind(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "leakgames" or mod_name.startswith("leakgames."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _has_artificials(lp) -> bool:
    """Whether lp_solve runs a phase 1 for ``lp``: some row, once its
    right-hand side is made nonnegative, is an equality or a >= row."""
    for _, rel, rhs in lp.rows:
        if rel == "=" or (rel == ">=" and rhs >= 0) or (rel == "<=" and rhs < 0):
            return True
    return False


def instrument(rec: Recorder) -> None:
    """Wrap the leakgames layers (imported before this call)."""
    import leakgames.channels as channels
    import leakgames.cli as cli
    import leakgames.games as games
    import leakgames.jsonio as jsonio
    import leakgames.matrix as matrix
    import leakgames.minimax as minimax
    import leakgames.pwdcheck as pwdcheck
    import leakgames.simplex as simplex
    import leakgames.vuln as vuln

    counts = rec.counts

    def wrap(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        _rebind(original, rec.traced(name, original, before, after))

    def count(key):
        return lambda args, result, ok: counts.update((key,))

    # simplex
    def lp_open(idx, args):
        rec.lp_info[idx] = [_has_artificials(args[0]), 0]

    def lp_done(args, result, ok):
        counts["simplex.lp_solve_calls"] += 1
        if not ok or result.status != "optimal":
            counts["simplex.lp_failed"] += 1

    wrap(simplex, "lp_solve", "simplex.lp_solve", lp_open, lp_done)

    original_phase = simplex._run_phase

    @functools.wraps(original_phase)
    def run_phase(*args, **kwargs):
        info = rec.lp_info[rec.stack[-1]]       # _run_phase is only called by lp_solve
        info[1] += 1
        phase = "phase1" if info[0] and info[1] == 1 else "phase2"
        idx = rec.open("simplex." + phase)
        try:
            result = original_phase(*args, **kwargs)
        finally:
            rec.close(idx)
        counts["simplex.pivots." + phase] += result[3]
        return result

    simplex._run_phase = run_phase
    wrap(simplex, "_refactor", "simplex.refactor", after=count("simplex.refactor_calls"))

    def kernel_done(args, result, ok):
        tableau = args[0]
        counts["simplex.kernel_calls"] += 1
        if ok:
            counts["simplex.pivot_flop"] += PIVOT_FLOPS_PER_ENTRY * tableau.size * result[1]
            counts["simplex.pivot_bytes"] += PIVOT_BYTES_PER_ENTRY * tableau.size * result[1]
        rec.peak("simplex.tableau_mb.max", tableau.nbytes / 1e6)

    kernel = simplex._kernel
    simplex._kernel = _KernelProxy(
        kernel, rec.traced("simplex.kernel", kernel.run_simplex, after=kernel_done))

    # minimax
    def lp_built(args, result, ok):
        if ok:
            lp = result[0] if isinstance(result, tuple) else result
            rec.peak("minimax.lp_rows.max", len(lp.rows))
            rec.peak("minimax.lp_cols.max", lp.n_vars)

    for attr in ("matrix_game_lp", "convex_game_lp", "convex_game_attacker_lp"):
        wrap(minimax, attr, "minimax.lp_build", after=lp_built)
    for attr in ("solve_matrix_game", "solve_convex_linear_game"):
        wrap(minimax, attr, "minimax.solve")

    # games, vuln, matrix, pwdcheck
    wrap(games, "solve", "games.solve", after=count("games.solve_calls"))
    wrap(games, "audit_hierarchy", "games.audit")
    wrap(games, "payoff_matrix", "games.payoff_matrix", after=count("games.payoff_matrix_calls"))
    wrap(games, "hidden_branch_pieces", "games.pieces", after=count("games.pieces_calls"))
    wrap(vuln, "posterior_vuln", "vuln.posterior_vuln", after=count("vuln.posterior_vuln_calls"))
    matrix.LabeledMatrix.__init__ = rec.counted("matrix.labeled_matrices",
                                                matrix.LabeledMatrix.__init__)
    wrap(pwdcheck, "build_game", "pwdcheck.build_game")
    _rebind(pwdcheck.pwd_channel, rec.counted("pwdcheck.channels_built", pwdcheck.pwd_channel))

    # channels
    for attr in ("hidden_choice", "visible_choice"):
        wrap(channels, attr, "channels.compose")
    wrap(channels, "equivalent", "channels.equivalent", after=count("channels.equivalent_calls"))

    # jsonio
    def loaded(idx, args):
        counts["jsonio.bytes_read"] += os.path.getsize(args[0])

    def dumped(args, result, ok):
        if ok:
            counts["jsonio.bytes_written"] += os.path.getsize(args[1])

    def dumps_done(args, result, ok):
        if ok:
            counts["jsonio.bytes_written"] += len(result)

    wrap(jsonio, "load", "jsonio.read", before=loaded)
    wrap(jsonio, "dump", "jsonio.write", after=dumped)
    wrap(jsonio, "dumps", "jsonio.write", after=dumps_done)
    for attr in dir(jsonio):
        if attr.endswith("_from_json"):
            wrap(jsonio, attr, "jsonio.read")
        elif attr.endswith("_to_json"):
            wrap(jsonio, attr, "jsonio.write")

    wrap(cli, "main", "cli.main")


def _times(spans):
    """Per span name: total time (spans nested in a same-name span are
    not counted twice) and self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own = Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += end - start - child[i]
        q = parent
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            total[name] += end - start
    return total, own


def layer_metrics(rec: Recorder) -> dict:
    total, own = _times(rec.spans)
    c, m = rec.counts, rec.maxima
    job_s = total["job"]
    return {
        "simplex.lp_solve_s": total["simplex.lp_solve"],
        "simplex.lp_solve_calls": c["simplex.lp_solve_calls"],
        "simplex.phase1_s": total["simplex.phase1"],
        "simplex.phase2_s": total["simplex.phase2"],
        "simplex.pivots.phase1": c["simplex.pivots.phase1"],
        "simplex.pivots.phase2": c["simplex.pivots.phase2"],
        "simplex.pivot_s": total["simplex.kernel"],
        "simplex.kernel_calls": c["simplex.kernel_calls"],
        "simplex.refactor_s": total["simplex.refactor"],
        "simplex.refactor_calls": c["simplex.refactor_calls"],
        "simplex.pivot_gflop_computed": c["simplex.pivot_flop"] / 1e9,
        "simplex.pivot_gb_computed": c["simplex.pivot_bytes"] / 1e9,
        "simplex.lp_failed": c["simplex.lp_failed"],
        "simplex.tableau_mb.max": m["simplex.tableau_mb.max"],
        "simplex.standard_form_s": own["simplex.lp_solve"],
        "simplex.share_of_job_time": total["simplex.lp_solve"] / job_s if job_s else 0.0,
        "minimax.lp_build_s": total["minimax.lp_build"],
        "minimax.lp_rows.max": m["minimax.lp_rows.max"],
        "minimax.lp_cols.max": m["minimax.lp_cols.max"],
        "games.solve_s": own["games.solve"],
        "games.solve_calls": c["games.solve_calls"],
        "games.payoff_matrix_s": total["games.payoff_matrix"],
        "games.payoff_matrix_calls": c["games.payoff_matrix_calls"],
        "games.pieces_s": total["games.pieces"],
        "games.pieces_calls": c["games.pieces_calls"],
        "vuln.posterior_vuln_s": total["vuln.posterior_vuln"],
        "vuln.posterior_vuln_calls": c["vuln.posterior_vuln_calls"],
        "matrix.labeled_matrices": c["matrix.labeled_matrices"],
        "pwdcheck.build_game_s": total["pwdcheck.build_game"],
        "pwdcheck.channels_built": c["pwdcheck.channels_built"],
        "channels.compose_s": total["channels.compose"],
        "channels.equivalent_s": own["channels.equivalent"],
        "channels.equivalent_calls": c["channels.equivalent_calls"],
        "jsonio.read_s": total["jsonio.read"],
        "jsonio.write_s": total["jsonio.write"],
        "jsonio.bytes_read": c["jsonio.bytes_read"],
        "jsonio.bytes_written": c["jsonio.bytes_written"],
        "cli.self_s": own["cli.main"],
    }


def job_shares(rec: Recorder, name: str = "simplex.lp_solve") -> dict:
    """Per job id: share of the job's time spent inside ``name`` spans."""
    inside, whole = Counter(), Counter()
    for span, start, end, _, job in rec.spans:
        if span == "job":
            whole[job] += end - start
        elif span == name:
            inside[job] += end - start
    return {job: inside[job] / seconds for job, seconds in whole.items() if seconds}
