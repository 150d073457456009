"""Run one workload's jobs in a closed loop, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

run.py writes the spec: the leakgames source directory, the jobs'
argv lists, the run length, whether to trace and where to write the
result.  One client calls ``leakgames.cli.main(argv)`` in-process with
stdout captured, and starts the next job only when the previous one
has returned.  Jobs repeat in list order until ``seconds`` have passed
and at least ``min_passes`` full passes are done.

This process imports leakgames and numpy only, so its peak resident
memory is the workload's.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path


def _blas() -> dict:
    """BLAS library loaded in this process and its thread count."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    info = {"libraries": libs, "threads": None}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment() -> dict:
    import numpy
    import leakgames.simplex

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "kernel": leakgames.simplex.KERNEL_NAME,
        "blas": _blas(),
    }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import leakgames.cli as cli

    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.instrument(recorder)

    jobs = spec["jobs"]
    outputs = [[] for _ in jobs]     # distinct outputs seen per job
    records = []                      # [job index, exit code, seconds, output index]
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start < spec["seconds"]
                     or n < spec["min_passes"] * len(jobs)):
        j = n % len(jobs)
        argv, out = jobs[j]["argv"], jobs[j]["out"]
        stdout, stderr = io.StringIO(), io.StringIO()
        if recorder:
            recorder.job = n
            span = recorder.open("job")
        crash = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a crashing job is a failed job; the loop goes on
            code = f"raised {type(exc).__name__}: {exc}"
            crash = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if recorder:
            recorder.close(span)
        if isinstance(code, int) and code != 1:      # an answer: JSON on stdout or in --out
            text = stdout.getvalue() + (Path(out).read_text() if out and code == 0 else "")
        else:
            text = stderr.getvalue() + crash
        if text not in outputs[j]:
            outputs[j].append(text)
        records.append([j, code, seconds, outputs[j].index(text)])
        n += 1
    elapsed = time.perf_counter() - start

    result = {
        "records": records,
        "outputs": outputs,
        "elapsed": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if recorder:
        result["layers"] = spans.layer_metrics(recorder)
        result["simplex_share_by_job"] = spans.job_shares(recorder)
        recorder.dump(spec["spans"])
    return result


if __name__ == "__main__":
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    Path(spec["result"]).write_text(json.dumps(run(spec)))
