import numpy as np
import pytest

from conftest import DEMO_CHANNELS, channel, demo_game, random_channel
from leakgames import jsonio
from leakgames.channels import zero_extend
from leakgames.errors import TypeMismatch
from leakgames.games import LeakageGame, solve
from leakgames.labels import tag
from leakgames.matrix import LabeledMatrix
from leakgames.vuln import Prior, VulnMeasure


def test_matrix_round_trip(tmp_path):
    m = LabeledMatrix(("a", "b"), ("x", tag("y", "1"), tag(tag("y", "1"), "2")),
                      [[0.125, 2.0, -3.5], [1e-17, 0.3333333333333333, 7.0]])
    path = tmp_path / "m.json"
    jsonio.dump(jsonio.matrix_to_json(m), path)
    back = jsonio.matrix_from_json(jsonio.load(path))
    assert back.rows == m.rows
    assert back.cols == m.cols
    assert np.array_equal(back.data, m.data)


def test_channel_round_trip_exact(tmp_path):
    rng = np.random.default_rng(50)
    for i in range(20):
        c = random_channel(rng, ("x1", "x2", "x3"), ("y1", "y2"))
        path = tmp_path / f"c{i}.json"
        jsonio.dump(jsonio.channel_to_json(c), path)
        back = jsonio.channel_from_json(jsonio.load(path))
        assert back.observables == c.observables
        assert np.max(np.abs(back.data - c.data)) <= 1e-15


def test_channel_json_is_tagged():
    c = channel("01", "01", [[1, 0], [0, 1]])
    obj = jsonio.channel_to_json(c)
    assert obj["kind"] == "channel"
    with pytest.raises(jsonio.FormatError):
        jsonio.channel_from_json({"rows": ["a"], "cols": ["y"], "data": [[0.5]]})


def test_prior_and_measure_round_trip(tmp_path):
    p = Prior({"a": 0.25, "b": 0.75})
    obj = jsonio.prior_to_json(p)
    assert jsonio.prior_from_json(obj).weights.tolist() == p.weights.tolist()

    m = VulnMeasure.from_gain(("w1", "w2"), ("a", "b"), [[1.0, 0.0], [0.2, 0.9]])
    back = jsonio.measure_from_json(jsonio.measure_to_json(m))
    assert back.guesses == m.guesses
    assert np.array_equal(back.gain, m.gain)
    assert jsonio.measure_from_json({"variant": "bayes"}).is_bayes


def test_gain_without_secrets_uses_context():
    obj = {"variant": "gain", "guesses": ["w"], "gain": [[1.0, 2.0]]}
    m = jsonio.measure_from_json(obj, secrets=("a", "b"))
    assert m.secrets == ("a", "b")
    with pytest.raises(jsonio.FormatError):
        jsonio.measure_from_json(obj)


def test_game_round_trip(tmp_path):
    g = demo_game()
    path = tmp_path / "game.json"
    jsonio.dump(jsonio.game_to_json(g), path)
    back = jsonio.game_from_json(jsonio.load(path))
    assert back.defenders == g.defenders
    assert back.attackers == g.attackers
    for d in g.defenders:
        for a in g.attackers:
            assert np.max(np.abs(back.channel(d, a).data
                                 - g.channel(d, a).data)) <= 1e-15


def test_game_round_trip_with_bar_in_labels(tmp_path):
    # "|" separates the defender and attacker of a channel key, so it is
    # escaped inside labels; "d|1" must not read back as "d" and "1|a"
    defenders = ("d|1", ("x|", "|"))
    attackers = ("a", "b|")
    chans = {(d, a): channel(("0", "1"), ("0", "1"), v)
             for (d, a), v in zip([(d, a) for d in defenders for a in attackers],
                                  DEMO_CHANNELS.values())}
    g = LeakageGame(defenders, attackers, chans, Prior.uniform(("0", "1")),
                    VulnMeasure.bayes())
    obj = jsonio.game_to_json(g)
    assert "d\\|1|a" in obj["channels"]
    path = tmp_path / "game.json"
    jsonio.dump(obj, path)
    back = jsonio.game_from_json(jsonio.load(path))
    assert back.defenders == g.defenders
    assert back.attackers == g.attackers
    for d in defenders:
        for a in attackers:
            assert np.array_equal(back.channel(d, a).data, g.channel(d, a).data)


def test_ill_typed_game_round_trip_keeps_each_profiles_observables(tmp_path):
    # profile (0, 0) declares an extra all-zero output, so hidden choice
    # over attacker 0 would reveal the defender's action
    c01 = channel("01", "01", DEMO_CHANNELS["0", "1"])
    g = LeakageGame(("0", "1"), ("0",), {("0", "0"): zero_extend(c01), ("1", "0"): c01},
                    Prior.uniform("01"), VulnMeasure.bayes())
    path = tmp_path / "game.json"
    jsonio.dump(jsonio.game_to_json(g), path)
    obj = jsonio.load(path)
    assert obj["channels"]["0|0"]["cols"] == ["0", "1", "y0"]
    assert obj["channels"]["1|0"]["cols"] == ["0", "1"]
    back = jsonio.game_from_json(obj)
    assert back.channel("0", "0").observables == ("0", "1", "y0")
    assert back.channel("1", "0").observables == ("0", "1")
    for game in (g, back):
        with pytest.raises(TypeMismatch):
            solve(game, "IV")


def test_game_channel_key_must_be_a_pair():
    obj = jsonio.game_to_json(demo_game())
    obj["channels"]["0|1|0"] = obj["channels"].pop("0|0")
    with pytest.raises(jsonio.FormatError):
        jsonio.game_from_json(obj)


@pytest.mark.parametrize("reader, kind", [
    (jsonio.matrix_from_json, "matrix"), (jsonio.channel_from_json, "matrix"),
    (jsonio.prior_from_json, "prior"), (jsonio.dist_from_json, "distribution"),
    (jsonio.measure_from_json, "measure"),
    (jsonio.game_from_json, "game"),
])
@pytest.mark.parametrize("obj", [[], "x"])
def test_every_reader_reports_malformed_input_as_a_format_error(reader, kind, obj):
    with pytest.raises(jsonio.FormatError, match=f"^bad {kind} JSON: "):
        reader(obj)


def test_dump_is_deterministic(tmp_path):
    g = demo_game()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.dump(jsonio.game_to_json(g), p1)
    jsonio.dump(jsonio.game_to_json(g), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(jsonio.FormatError):
        jsonio.load(path)
    with pytest.raises(jsonio.FormatError):
        jsonio.game_from_json({"defender": []})
