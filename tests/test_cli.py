import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import demo_game
from leakgames import jsonio
from leakgames.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def mix_files(tmp_path):
    c1 = {"rows": ["x1", "x2"], "cols": ["y1", "y2"],
          "data": [[0.5, 0.5], [1 / 3, 2 / 3]], "kind": "channel"}
    c2 = {"rows": ["x1", "x2"], "cols": ["y1", "y2"],
          "data": [[1 / 3, 2 / 3], [0.5, 0.5]], "kind": "channel"}
    paths = {}
    for name, obj in [("c1", c1), ("c2", c2)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"weights": {"1": 1 / 3, "2": 2 / 3}}))
    paths["dist"] = str(dist)
    return paths


def test_channel_compose_hidden(capsys, tmp_path, mix_files):
    out_path = tmp_path / "mix.json"
    code, out, _ = run(capsys, "channel", "compose", "--op", "hidden",
                       "--dist", mix_files["dist"], "--out", str(out_path),
                       mix_files["c1"], mix_files["c2"])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert np.allclose(obj["data"], [[7 / 18, 11 / 18], [4 / 9, 5 / 9]])


def test_channel_compose_visible_tags_columns(capsys, mix_files):
    code, out, _ = run(capsys, "channel", "compose", "--op", "visible",
                       "--dist", mix_files["dist"], mix_files["c1"], mix_files["c2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["cols"] == ["y1@1", "y2@1", "y1@2", "y2@2"]


def test_channel_compose_mismatch_is_an_error(capsys, tmp_path, mix_files):
    # hidden composition of channels with different output sets
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"rows": ["x1", "x2"], "cols": ["y1", "y3"],
                                 "data": [[1, 0], [0, 1]], "kind": "channel"}))
    code, _, err = run(capsys, "channel", "compose", "--op", "hidden",
                       "--dist", mix_files["dist"], mix_files["c1"], str(other))
    assert code == 1
    assert "error" in err
    # and of channels over different secret sets
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps({"rows": ["p", "q"], "cols": ["y1", "y2"],
                                "data": [[1, 0], [0, 1]], "kind": "channel"}))
    code, _, err = run(capsys, "channel", "compose", "--op", "visible",
                       "--dist", mix_files["dist"], mix_files["c1"], str(rows))
    assert code == 1


def test_channel_equiv_exit_codes(capsys, mix_files):
    code, out, _ = run(capsys, "channel", "equiv", mix_files["c1"], mix_files["c1"])
    assert code == 0
    assert json.loads(out)["equivalent"] is True
    code, out, _ = run(capsys, "channel", "equiv", mix_files["c1"], mix_files["c2"])
    assert code == 2
    report = json.loads(out)
    assert report["equivalent"] is False
    assert "violating_column" in report


def _write_channel(path, rows, cols, data) -> str:
    path.write_text(json.dumps({"rows": rows, "cols": cols, "data": data, "kind": "channel"}))
    return str(path)


def test_channel_equiv_witness_rebuilds_each_channel(capsys, tmp_path):
    c1 = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
    # c2: rows in reverse order, column 0 split 1:3, column 2 duplicated, a zero column
    c2 = np.column_stack([0.25 * c1[:, 0], 0.75 * c1[:, 0], c1[:, 1],
                          0.5 * c1[:, 2], 0.5 * c1[:, 2], np.zeros(3)])
    first = _write_channel(tmp_path / "c1.json", ["x0", "x1", "x2"], ["a", "b", "c"], c1.tolist())
    second = _write_channel(tmp_path / "c2.json", ["x2", "x1", "x0"], list("uvwxyz"),
                            c2[::-1].tolist())
    tol = 1e-7
    code, out, _ = run(capsys, "channel", "equiv", first, second, "--tol", str(tol))
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True and report["residual"] <= tol
    # witness[d][j] mixes the other channel's columns into column j of the target
    for (base, target), direction in zip(((c2, c1), (c1, c2)), report["witness"]):
        R = np.array(direction).T
        assert R.shape == (base.shape[1], target.shape[1])
        assert R.min() >= 0.0 and np.allclose(R.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.abs(base @ R - target).max() <= tol


def test_channel_equiv_names_a_column_of_the_finer_channel(capsys, tmp_path):
    # the constant channel is a post-processing of the identity, not the reverse
    const = _write_channel(tmp_path / "const.json", ["x0", "x1"], ["a", "b"],
                           [[1, 0], [1, 0]])
    ident = _write_channel(tmp_path / "ident.json", ["x0", "x1"], ["u", "v"],
                           [[1, 0], [0, 1]])
    for pair in ((const, ident), (ident, const)):
        code, out, _ = run(capsys, "channel", "equiv", *pair)
        assert code == 2
        report = json.loads(out)
        assert report["equivalent"] is False and report["residual"] > 1e-7
        assert report["violating_column"] in ("u", "v")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_channel_equiv_rejects_non_finite_tol(capsys, mix_files, tol):
    code, out, err = run(capsys, "channel", "equiv", mix_files["c1"], mix_files["c2"],
                         "--tol", tol)
    assert code == 1
    assert out == "" and "finite and positive" in err


def test_channel_validate(capsys, tmp_path, mix_files):
    code, out, _ = run(capsys, "channel", "validate", mix_files["c1"])
    assert code == 0 and "valid" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": ["a"], "cols": ["y"], "data": [[0.7]],
                               "kind": "channel"}))
    code, _, err = run(capsys, "channel", "validate", str(bad))
    assert code == 1
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps({"rows": ["a", "b"], "cols": ["y", "z"],
                               "data": [[float("nan"), 1.0], [0.5, 0.5]],
                               "kind": "channel"}))
    code, out, err = run(capsys, "channel", "validate", str(nan))
    assert code == 1 and out == "" and "finite" in err


def test_vuln_rejects_non_finite_prior(capsys, tmp_path, mix_files):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"weights": {"x1": float("nan"), "x2": 0.5}}))
    code, out, err = run(capsys, "vuln", "--prior", str(prior), "--channel", mix_files["c1"])
    assert code == 1 and out == "" and "finite" in err


def test_vuln_table(capsys, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"weights": {"0": 0.5, "1": 0.5}}))
    values = {}
    for name, rows in [("c00", [[1, 0], [1, 0]]), ("c01", [[1, 0], [0, 1]]),
                       ("c10", [[0, 1], [1, 0]]), ("c11", [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"rows": ["0", "1"], "cols": ["0", "1"],
                                 "data": rows, "kind": "channel"}))
        code, out, _ = run(capsys, "vuln", "--prior", str(prior), "--channel", str(p))
        assert code == 0
        values[name] = json.loads(out)["posterior_vulnerability"]
    assert values == pytest.approx({"c00": 0.5, "c01": 1.0, "c10": 1.0, "c11": 2 / 3})


def test_vuln_noninterference(capsys, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"weights": {"0": 0.25, "1": 0.75}}))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"rows": ["0", "1"], "cols": ["0", "1"],
                                "data": [[0.5, 0.5], [0.5, 0.5]], "kind": "channel"}))
    code, out, _ = run(capsys, "vuln", "--prior", str(prior), "--channel", str(flat))
    report = json.loads(out)
    assert report["additive_leakage"] == pytest.approx(0.0, abs=1e-12)
    assert report["multiplicative_leakage"] == pytest.approx(1.0)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    jsonio.dump(jsonio.game_to_json(demo_game()), path)
    return str(path)


def test_game_solve_kinds(capsys, demo_file):
    for kind, value in [("I", 4 / 5), ("II", 1.0), ("III", 2 / 3),
                        ("IV", 5 / 7), ("V", 5 / 7), ("VI-mixed", 0.5),
                        ("VI-behavioral", 0.5)]:
        code, out, _ = run(capsys, "game", "solve", "--kind", kind, demo_file)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(value, abs=1e-8)


def test_game_solve_vi_mixed_writes_the_c01_witness(capsys, demo_file):
    # function tuples become "a0-value|a1-value" keys, function_order a list
    code, out, _ = run(capsys, "game", "solve", "--kind", "VI-mixed", demo_file)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(0.5, abs=1e-9)
    assert report["defender"]["dist"] == pytest.approx({"0|0": 0.25, "0|1": 0.75}, abs=1e-9)
    assert report["defender"]["function_order"] == ["0", "1"]


def test_game_solve_v_notes_alias(capsys, demo_file):
    code, out, _ = run(capsys, "game", "solve", "--kind", "V", demo_file)
    report = json.loads(out)
    assert "alias" in report["diagnostics"]
    code, out4, _ = run(capsys, "game", "solve", "--kind", "IV", demo_file)
    assert json.loads(out4)["value"] == pytest.approx(report["value"], abs=1e-12)


def test_game_audit_of_3bit_checker(capsys, tmp_path):
    # 6^8 defender functions: VI_mixed must not enumerate them
    path = str(tmp_path / "pwd3.json")
    code, _, _ = run(capsys, "pwd", "gen", "--bits", "3", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "game", "audit", path)
    assert code == 0
    report = json.loads(out)
    assert report["values"]["VI_mixed"] == pytest.approx(1 / 3, abs=1e-9)
    assert report["values"]["VI_mixed"] == report["values"]["VI_behavioral"]


@pytest.mark.parametrize("edit", ["repeat defender", "extra channel"])
def test_game_with_repeated_or_unknown_actions_is_an_error(capsys, tmp_path, edit):
    obj = jsonio.game_to_json(demo_game())
    if edit == "repeat defender":
        obj["defender"].append("1")
    else:
        obj["channels"]["7|0"] = obj["channels"]["0|0"]
    path = tmp_path / "game.json"
    jsonio.dump(obj, path)
    for argv in (["game", "solve", "--kind", "IV", str(path)], ["game", "audit", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert ("repeat or are out of order" if edit == "repeat defender" else "'7'") in err


def test_game_audit(capsys, demo_file):
    code, out, _ = run(capsys, "game", "audit", demo_file)
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["values"]["I"] == pytest.approx(4 / 5)
    assert report["values"]["II"] == pytest.approx(1.0)
    assert report["values"]["III"] == pytest.approx(2 / 3)
    assert report["values"]["IV"] == pytest.approx(5 / 7)


def test_game_audit_exits_3_on_a_violated_ordering(capsys, monkeypatch, demo_file):
    import leakgames.games as games

    solve = games.solve
    # II drops below I, so "II>=I" fails
    monkeypatch.setattr(games, "solve", lambda game, kind: dataclasses.replace(
        solve(game, kind), value=0.0) if kind == "II" else solve(game, kind))
    code, out, _ = run(capsys, "game", "audit", demo_file)
    assert code == 3
    report = json.loads(out)
    assert report["violations"] == ["II = 0 < I = 0.8"]
    assert {"check": "II>=I", "holds": False} in report["orderings"]


def _one_error_line(code, out, err):
    return (code == 1 and out == "" and "Traceback" not in err
            and len(err.splitlines()) == 1 and err.startswith("error: "))


@pytest.mark.parametrize("edit, message", [
    ({"channels": []}, "bad game JSON"),
    ({"channels": "0|0"}, "bad game JSON"),
    ({"measure": []}, "bad measure JSON"),
    ({"prior": {"weights": []}}, "bad prior JSON"),
    ({"defender": [], "channels": {}}, "at least one defender"),
    ({"attacker": [], "channels": {}}, "at least one attacker"),
])
def test_malformed_game_files_fail_cleanly(capsys, tmp_path, edit, message):
    path = tmp_path / "game.json"
    jsonio.dump({**jsonio.game_to_json(demo_game()), **edit}, path)
    for argv in (["game", "solve", "--kind", "IV", str(path)],
                 ["game", "solve", "--kind", "I", str(path)], ["game", "audit", str(path)]):
        code, out, err = run(capsys, *argv)
        assert _one_error_line(code, out, err) and message in err, err


def test_vuln_rejects_a_measure_that_is_not_an_object(capsys, tmp_path, mix_files):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"weights": {"x1": 0.5, "x2": 0.5}}))
    measure = tmp_path / "measure.json"
    measure.write_text("[]")
    code, out, err = run(capsys, "vuln", "--prior", str(prior), "--channel", mix_files["c1"],
                         "--measure", str(measure))
    assert _one_error_line(code, out, err) and "bad measure JSON" in err, err


@pytest.mark.parametrize("cmd", ["analyze", "gen", "timing"])
@pytest.mark.parametrize("bits", ["0", "-1"])
def test_pwd_needs_at_least_one_bit(capsys, tmp_path, cmd, bits):
    out_path = tmp_path / "g.json"
    argv = ["pwd", cmd, "--bits", bits] + (["--out", str(out_path)] if cmd == "gen" else [])
    code, out, err = run(capsys, *argv)
    assert _one_error_line(code, out, err) and "n must be >= 1" in err, err
    assert not out_path.exists()


def test_runtime_imports_neither_scipy_nor_hypothesis(tmp_path):
    # the package depends on numpy alone; scipy and hypothesis serve tests only
    game = tmp_path / "demo.json"
    jsonio.dump(jsonio.game_to_json(demo_game()), game)
    chan = tmp_path / "c.json"
    jsonio.dump(jsonio.channel_to_json(demo_game().channel("1", "1")), chan)
    script = f"""
import contextlib, io, sys
from leakgames.cli import main
for argv in (["pwd", "analyze", "--bits", "3"], ["game", "audit", {str(game)!r}],
             ["channel", "equiv", {str(chan)!r}, {str(chan)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in ("scipy", "hypothesis") if m in sys.modules))
"""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


def test_pwd_gen_round_trip(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "pwd", "gen", "--bits", "2", "--prior", "uniform",
                     "--out", str(out_path))
    assert code == 0
    game = jsonio.game_from_json(jsonio.load(out_path))
    assert len(game.defenders) == 2 and len(game.attackers) == 4


def test_pwd_analyze(capsys, tmp_path):
    table = tmp_path / "table.csv"
    code, out, _ = run(capsys, "pwd", "analyze", "--bits", "3", "--prior", "pihat",
                       "--table", str(table))
    assert code == 0
    report = json.loads(out)
    assert report["uniform_worst_case"] == pytest.approx(0.6573, abs=2e-3)
    assert report["value"] == pytest.approx(0.6573, abs=2e-3)
    lines = table.read_text().splitlines()
    assert lines[0].startswith("order,000,")
    assert len(lines) == 7


def test_pwd_analyze_builds_payoff_table_only_on_request(capsys, monkeypatch):
    import leakgames.cli as cli

    def no_table(game):
        raise AssertionError("payoff table built without --table")

    monkeypatch.setattr(cli, "payoff_matrix", no_table)
    code, out, _ = run(capsys, "pwd", "analyze", "--bits", "3", "--prior", "pihat")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.6573, abs=2e-3)


def test_pwd_analyze_builds_no_channel_and_one_lp(capsys, monkeypatch):
    import leakgames.games as games
    from leakgames.channels import Channel

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Channel, "__init__", counting("channels", Channel.__init__))
    monkeypatch.setattr(games, "solve_convex_linear_game",
                        counting("convex", games.solve_convex_linear_game))
    code, _, _ = run(capsys, "pwd", "analyze", "--bits", "3")
    assert code == 0
    # the checker goes in as one tensor, and IV is one convex LP
    assert calls == Counter({"convex": 1})


def test_pwd_analyze_prior_a(capsys):
    code, out, _ = run(capsys, "pwd", "analyze", "--bits", "3", "--prior", "prior_a")
    report = json.loads(out)
    assert report["value"] == pytest.approx(0.5625, abs=1e-6)


def test_pwd_timing(capsys):
    code, out, _ = run(capsys, "pwd", "timing", "--bits", "10", "--samples", "2000")
    assert code == 0
    report = json.loads(out)
    assert report["analytic"] == 1.998046875
    assert report["measured"] == pytest.approx(report["analytic"], rel=0.1)


def test_pwd_size_guard(capsys):
    code, _, err = run(capsys, "pwd", "gen", "--bits", "6", "--prior", "uniform",
                       "--out", "/tmp/never.json")
    assert code == 1
    assert "guard" in err or "exceed" in err


def test_seeded_runs_are_byte_identical(capsys, demo_file):
    _, out1, _ = run(capsys, "game", "solve", "--kind", "IV", demo_file)
    _, out2, _ = run(capsys, "game", "solve", "--kind", "IV", demo_file)
    assert out1 == out2
