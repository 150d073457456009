"""The 6-bit password-checker census, solved through the full LP.

Runs ``leakgames pwd analyze --bits 6 --max-bits 6`` in a fresh process
on the uniform prior and on the census priors
``numpy.random.default_rng(s).dirichlet(ones(64))``, s = 0..3, and
compares each value with the value scipy's HiGHS (1.17.1) gives for the
same game's epigraph LP, pinned below, within 1e-9.  Prints one line
per run, with that run's own peak RSS, and exits 1 if any run fails or
differs.  On one 2-vCPU Xeon core the uniform run takes 13-15 s and
peaks near 768 MB, and each Dirichlet run takes 37-81 s and peaks near
815 MB.  pytest does not collect this file; it has a CI job of its own.

Usage: PYTHONPATH=src python tests/census6.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from leakgames.pwdcheck import secret_labels

HIGHS = {
    "uniform": 0.04687499999999997,
    0: 0.1594761899401286,
    1: 0.20810950913739454,
    2: 0.1294542613175558,
    3: 0.1283713174887256,
}
TOL = 1e-9


def run_case(prior: str):
    """Run one census case in a child process.  Returns its exit code,
    stdout, stderr, wall seconds and its own peak RSS in MB, read from
    ``wait4`` (``RUSAGE_CHILDREN`` would keep the largest child so far)."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "leakgames.cli", "pwd", "analyze",
             "--bits", "6", "--max-bits", "6", "--prior", prior],
            stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        # wait4 reaped the child; tell Popen, or it would try again
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read(), err.read(), seconds, usage.ru_maxrss / 1024


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case, reference in HIGHS.items():
            prior = "uniform"
            if case != "uniform":
                weights = np.random.default_rng(case).dirichlet(np.ones(64))
                prior = str(Path(tmp) / f"census{case}.json")
                Path(prior).write_text(json.dumps(
                    {"weights": dict(zip(secret_labels(6), weights.tolist()))}))
            code, stdout, stderr, seconds, peak = run_case(prior)
            if code != 0:
                failed += 1
                print(f"{case}: exit {code} after {seconds:.0f} s, "
                      f"peak RSS {peak:.0f} MB: {stderr.strip()}")
                continue
            value = json.loads(stdout)["value"]
            ok = abs(value - reference) <= TOL
            failed += not ok
            print(f"{case}: value {value!r}, HiGHS {reference!r}, "
                  f"{'ok' if ok else 'DIFFERS'}, {seconds:.0f} s, "
                  f"peak RSS {peak:.0f} MB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
