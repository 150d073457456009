"""Tests of the benchmark itself: the oracle against known values, the
input generator's determinism, the output checker and the traced
worker's metric names.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent


def demo_tensor():
    C = np.zeros((2, 2, 2, 2))
    for (d, a), M in workloads.DEMO_CHANNELS.items():
        C[int(d), int(a)] = M
    return C


def test_oracle_demo_game_values():
    got = oracle.game_values(demo_tensor(), np.full(2, 0.5), np.eye(2))
    want = {"I": 0.8, "II": 1.0, "III": 2 / 3, "IV": 5 / 7, "V": 5 / 7,
            "VI_mixed": 0.5, "VI_behavioral": 0.5}
    for kind, value in want.items():
        assert got[kind] == pytest.approx(value, abs=1e-9), kind


@pytest.mark.parametrize("bits, value", [(3, 1 / 3), (4, 17 / 96)])
def test_oracle_checker_uniform_prior(bits, value):
    _, secrets, C = oracle.checker_tensor(bits)
    ref = oracle.checker_reference(C, np.full(len(secrets), 1.0 / len(secrets)))
    assert ref["value"] == pytest.approx(value, abs=1e-9)
    # the uniform check order is an equilibrium strategy under the uniform prior
    assert ref["uniform_worst_case"] == pytest.approx(value, abs=1e-9)


def test_prunable_pieces_of_uniform_4bit_checker():
    _, secrets, C = oracle.checker_tensor(4)
    k = oracle.pieces(C, np.full(16, 1 / 16), np.eye(16))
    assert oracle.prunable_pieces(k) == (800, 1280)


def test_oracle_equivalence_verdicts():
    rng = np.random.default_rng(3)
    C = rng.dirichlet(np.ones(3), size=5)
    split = np.hstack([C[:, :1], 0.3 * C[:, 1:2], 0.7 * C[:, 1:2], C[:, 2:]])
    assert oracle.equivalent(C, split)
    assert oracle.equivalent(C, oracle.visible_choice([0.4, 0.6], [C, C]))
    assert not oracle.equivalent(C, rng.dirichlet(np.ones(3), size=5))


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_writes_identical_files(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    second = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert [j.kind for j in first] == [j.kind for j in second]
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    assert len(other) == len(first)


def test_checker_flags_wrong_answers(tmp_path):
    jobs = workloads.build("audit_mix", 0, tmp_path)
    checker = run.Checker(jobs)
    values = dict(checker.reference(0))
    ok = json.dumps({"values": values, "orderings": [], "violations": []})
    assert checker.verdict(0, 0, ok) == ("ok", "")
    values["VI_mixed"] = 4 / 7
    off = json.dumps({"values": values, "orderings": [], "violations": []})
    assert checker.verdict(0, 0, off)[0] == "wrong"
    assert checker.verdict(0, 3, ok)[0] == "wrong"
    assert checker.verdict(0, 1, "error: simplex lost primal feasibility")[0] == "error"
    assert checker.verdict(0, "raised LinAlgError: Singular matrix", "")[0] == "error"


def test_traced_worker_emits_every_per_layer_metric(tmp_path):
    jobs = workloads.build("audit_mix", 0, tmp_path)[:2]
    spec = {"src": str(run.SRC), "seconds": 0, "min_passes": 1, "trace": True,
            "jobs": [{"argv": j.argv, "out": j.out} for j in jobs],
            "result": str(tmp_path / "result.json"), "spans": str(tmp_path / "spans.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(tmp_path / "spec.json")],
                   check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [r[1] for r in result["records"]] == [0, 0]
    emitted = set(result["layers"]) | set(run.input_properties(jobs, [0, 1])) | {"trace.jobs_per_s"}
    assert emitted == set(run.metric_units(trace=True))
    layers = result["layers"]
    assert layers["games.solve_calls"] == 14          # seven modes per audit
    assert layers["simplex.lp_solve_calls"] > 0
    assert layers["simplex.pivots.phase1"] + layers["simplex.pivots.phase2"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert "simplex.kernel" in spans["names"]


def test_audit_mix_wide_games_stay_above_p90(tmp_path):
    # The wide games must be the top latencies with a margin above the
    # 90th percentile, which then falls among the small games.
    jobs = workloads.build("audit_mix", 0, tmp_path)
    wide = sum(job.data["C"].shape[1] == workloads.WIDE_ATTACKERS for job in jobs)
    assert 0 < wide / len(jobs) < 0.10 - 0.05
