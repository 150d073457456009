"""Benchmark of the leakgames command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One workload: generate the seeded input files, time set-up (a fresh
interpreter importing leakgames), run the jobs in a fresh worker
process for S seconds, check every job against the independent oracle,
and print the metrics by name and unit.  The last line of output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Details (environment, failures, input properties) go to
perfbench/out/<workload>-seed<N>-trace<T>.json.

--all runs every workload untraced and then traced, each for at least
one full pass over its job list including the summary-only jobs (the
pwd4 random priors), and prints one summary row per workload with the
failed ratio and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "out"

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170
FULL_PASS_TIMEOUT_S = 1800
P90_MIN_JOBS = 100
# One BLAS thread: on a shared 2-vCPU host two threads wait on each other
# whenever the other vCPU is busy, which made pwd4 jobs slower and noisier.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# --- set-up ----------------------------------------------------------------

def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    env = {**CHILD_ENV, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import leakgames.cli"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)   # warm the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --- checking against the oracle -------------------------------------------

def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return abs(float(got) - want) <= oracle.TOL


class Checker:
    """Verdicts per (job, distinct output): ok, wrong or error.  A job
    that returns an answer that disagrees with the oracle is wrong; one
    that raises or exits with the error code is an error."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.refs = {}

    def reference(self, j: int):
        if j not in self.refs:
            job, d = self.jobs[j], self.jobs[j].data
            if job.kind == "pwd":
                ref = oracle.checker_reference(d["C"], d["pi"])
            elif job.kind == "audit":
                ref = oracle.game_values(d["C"], d["pi"], d["G"])
            elif job.kind == "equiv":
                ref = oracle.equivalent(d["A"], d["B"])
            elif job.kind == "vuln":
                ref = oracle.vulnerabilities(d["pi"], d["C"], d["G"])
            else:
                ref = None
            self.refs[j] = ref
        return self.refs[j]

    def expected_code(self, j: int) -> int:
        if self.jobs[j].kind == "equiv":
            return 0 if self.reference(j) else 2
        return 0

    def verdict(self, j: int, code, text: str) -> tuple[str, str]:
        if not isinstance(code, int) or code == 1:
            return "error", f"{code}: {text.strip()[-300:]}"
        expected = self.expected_code(j)
        if code != expected:
            return "wrong", f"exit code {code}, expected {expected}"
        try:
            problem = self._compare(j, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        return ("wrong", problem) if problem else ("ok", "")

    def _compare(self, j: int, got: dict) -> str:
        job, ref = self.jobs[j], self.reference(j)
        if job.kind == "pwd":
            for key in ("value", "uniform_worst_case"):
                if not _close(got[key], ref[key]):
                    return f"{key} {got[key]!r}, reference {ref[key]!r}"
            return ""
        if job.kind == "audit":
            bad = {k: (got["values"][k], v) for k, v in ref.items()
                   if not _close(got["values"][k], v)}
            return f"values off the reference: {bad}" if bad else ""
        if job.kind == "equiv":
            return "" if got["equivalent"] == ref else f"equivalent = {got['equivalent']}"
        if job.kind == "vuln":
            bad = [k for k in ref if not _close(got[k], ref[k])]
            return f"{bad} off the reference" if bad else ""
        want = {(r, c): v for r, row in zip(job.data["rows"], job.data["M"])
                for c, v in zip(job.data["cols"], row)}
        have = {(r, c): v for r, row in zip(got["rows"], got["data"])
                for c, v in zip(got["cols"], row)}
        if have.keys() != want.keys():
            return f"labels {sorted(have)[:4]}..., reference {sorted(want)[:4]}..."
        worst = max(abs(have[k] - want[k]) for k in want)
        return "" if worst <= oracle.TOL else f"entries off by {worst:.3g}"


# --- one workload ------------------------------------------------------------

def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def input_properties(jobs, executed) -> dict:
    """Input properties of the job instances that ran."""
    cache = {}
    pruned = pieces = functions = 0
    priors = uniform = 0
    for j in executed:
        job = jobs[j]
        if job.kind in ("pwd", "audit"):
            if j not in cache:
                d = job.data
                G = d.get("G", np.eye(len(d["pi"])))
                cache[j] = oracle.prunable_pieces(oracle.pieces(d["C"], d["pi"], G))
            pruned += cache[j][0]
            pieces += cache[j][1]
        functions += job.data.get("functions", 0)
        if job.uniform_prior is not None:
            priors += 1
            uniform += job.uniform_prior
    return {
        "minimax.prunable_piece_share": pruned / pieces if pieces else 0.0,
        "minimax.epigraph_pieces": pieces,
        "games.vi_mixed_functions": functions,
        "input.uniform_prior_share": uniform / priors if priors else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 full: bool = False) -> dict:
    """Run one workload for ``seconds``; with ``full``, also run its
    summary-only jobs and at least one whole pass over the job list."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    jobs = [job for job in workloads.build(name, seed, workdir)
            if full or not job.summary_only]
    setup_s = None if trace else setup_seconds()

    spec = {
        "src": str(SRC), "seconds": seconds, "min_passes": int(full), "trace": trace,
        "jobs": [{"argv": job.argv, "out": job.out} for job in jobs],
        "result": str(workdir / "result.json"),
        "spans": str(OUT / f"{name}-seed{seed}-spans.json"),
    }
    OUT.mkdir(exist_ok=True)
    (workdir / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(workdir / "spec.json")],
                   check=True, cwd=ROOT, env=CHILD_ENV,
                   timeout=FULL_PASS_TIMEOUT_S if full else WORKER_TIMEOUT_S)
    result = json.loads((workdir / "result.json").read_text())

    checker = Checker(jobs)
    verdicts = {}
    failures = {}
    latencies = []
    for j, code, secs, k in result["records"]:
        key = (j, k)
        if key not in verdicts:
            verdicts[key] = checker.verdict(j, code, result["outputs"][j][k])
        verdict, why = verdicts[key]
        if verdict == "ok":
            latencies.append(secs)
        else:
            failures.setdefault(j, {"argv": jobs[j].argv, "verdict": verdict,
                                    "why": why, "count": 0})["count"] += 1
    attempted = len(result["records"])
    failed = attempted - len(latencies)
    jobs_per_s = len(latencies) / result["elapsed"]
    run = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed,
        "correct": all(v[0] != "wrong" for v in verdicts.values()),
        "failed_ratio": failed / attempted,
        "elapsed_s": result["elapsed"],
        "successful_jobs": len(latencies),
        "failures": list(failures.values()),
        "environment": result["environment"],
    }
    if trace:
        executed = [r[0] for r in result["records"]]
        run["metrics"] = {**result["layers"], **input_properties(jobs, executed),
                          "trace.jobs_per_s": jobs_per_s}
        run["simplex_share_by_job"] = result["simplex_share_by_job"]
        run["spans_file"] = spec["spans"]
    else:
        run["metrics"] = {
            "setup_s": setup_s,
            "jobs_per_s": jobs_per_s,
            "job_s.p50": quantile(latencies, 0.5),
            "job_s.p90": quantile(latencies, 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return run


def print_run(run: dict) -> None:
    units = metric_units(run["trace"])
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"attempted {run['attempted']}  failed {run['failed']}  "
          f"failed_ratio {run['failed_ratio']:.4g}  correct {run['correct']}")
    for name, value in run["metrics"].items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for f in run["failures"]:
        argv = " ".join(f["argv"]).replace(f"{ROOT}/", "")
        print(f"  failed x{f['count']} ({f['verdict']}): leakgames {argv}: {f['why'][:160]}")
    print(f"  environment {json.dumps(run['environment'], sort_keys=True)}")


def summary(seed: int, seconds: float) -> int:
    rows = []
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False, full=True)
        traced = run_workload(name, seed, seconds, trace=True, full=True)
        print_run(plain)
        print_run(traced)
        rows.append((name, plain, traced))
    print()
    header = ("workload", "setup_s", "jobs_per_s", "job_s.p50", "job_s.p90",
              "failed_ratio", "peak_rss_mb", "traced/untraced jobs_per_s")
    print("  ".join(f"{h:>12s}" for h in header))
    for name, plain, traced in rows:
        m = plain["metrics"]
        p90 = (f"{m['job_s.p90']:12.4g}" if plain["successful_jobs"] >= P90_MIN_JOBS
               else f"{'n/a (<100)':>12s}")
        overhead = traced["metrics"]["trace.jobs_per_s"] / m["jobs_per_s"] if m["jobs_per_s"] else 0
        print(f"{name:>12s}  {m['setup_s']:12.4g}  {m['jobs_per_s']:12.4g}  "
              f"{m['job_s.p50']:12.4g}  {p90}  {plain['failed_ratio']:12.4g}  "
              f"{m['peak_rss_mb']:12.4g}  {overhead:12.4g}")
    OUT.joinpath(f"summary-seed{seed}.json").write_text(json.dumps(
        {name: {"untraced": plain, "traced": traced} for name, plain, traced in rows},
        indent=1, sort_keys=True) + "\n")
    return 0 if all(p["correct"] and t["correct"] for _, p, t in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.WORKLOADS)
    which.add_argument("--all", action="store_true", help="summary of every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leakgames" / "cli.py").is_file():
        print(f"error: no leakgames source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return summary(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = metric_units(bool(args.trace))
    if set(units) != set(run["metrics"]):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(run['metrics']))} are not "
                           "both reported and declared in BENCHMARK.json")
    print_run(run)
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
