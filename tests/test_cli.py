"""End-to-end checks of the command line interface.

Each test drives ``boxnet.cli.main`` in process with an argv list and
captures stdout, so exit codes and payload shapes are pinned without
spawning subprocesses.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxnet
import boxnet.decompose as decompose
import boxnet.inequality as inequality
from boxnet.cli import _load_json, load_behavior_file, main
from boxnet.decompose import Mixture, decompose_extremal, local_deterministic_vertices
from boxnet.ghz import QuantumStrategy, ghz_behavior
from boxnet.inequality import (
    cao_s14_linearized,
    deterministic_behaviors,
    evaluate,
    mao_inequality,
)
from boxnet.resource import Alphabet, NonsignalingResource, make_pr_box, validate_nonsignaling

from test_inequality import wrong_cr_corr

FIXTURES = Path(boxnet.__file__).parent / "fixtures"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def test_validate_shipped_fixture(capsys):
    rc, data = run_json(capsys, "validate", "worked")
    assert rc == 0
    assert data["passed"] is True
    assert data["resources"] == {"R1": "ok", "R2": "ok"}
    assert data["network"].startswith("ok:")


def test_validate_rejects_signaling_fixture(capsys):
    rc, data = run_json(capsys, "validate", "paradox")
    assert rc == 1
    assert data["passed"] is False
    assert "signals" in data["resources"]["W1"]
    assert "signals" in data["resources"]["W2"]


def test_validate_fails_on_a_bins_key_outside_the_transcripts(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "worked")
    bins = {f"{a},{b}": a for a in (0, 1) for b in (0, 1, 2)}
    _edit(d / "scenario.json", lambda s: s.update({"bins": {"A1": {**bins, "9,9": 7}}}))
    rc, data = run_json(capsys, "validate", str(d))
    assert rc == 1 and data["passed"] is False
    assert data["network"] == "bins for 'A1': key (9, 9) is not a transcript of 'A1'"


def test_validate_allow_signaling_skips_unchecked(capsys):
    rc, data = run_json(capsys, "validate", "paradox", "--allow-signaling")
    assert rc == 0
    assert data["passed"] is True
    assert data["resources"]["W1"] == "skipped (marked unchecked)"


def test_scenario_resolved_by_path(capsys):
    # Directory path and explicit scenario.json both work.
    rc, _ = run_json(capsys, "validate", str(FIXTURES / "worked"))
    assert rc == 0
    rc, _ = run_json(capsys, "validate", str(FIXTURES / "worked" / "scenario.json"))
    assert rc == 0


def test_joint_worked_sums_to_one(capsys):
    rc, data = run_json(capsys, "joint", "worked", "--settings", "0,1,0")
    assert rc == 0
    assert data["total"] == "1"
    assert data["settings"] == {"A1": 0, "A2": 1, "A3": 0}
    assert sum(Fraction(v) for v in data["probabilities"].values()) == 1
    # Keys name each resource's output block.
    for key in data["probabilities"]:
        assert key.startswith("R1:") and ";R2:" in key


def test_joint_paradox_needs_flag(capsys):
    rc, _ = run(capsys, "joint", "paradox", "--settings", "0,0")
    assert rc == 1
    rc, data = run_json(capsys, "joint", "paradox", "--settings", "0,0",
                        "--allow-unnormalized")
    assert rc == 0
    assert data["total"] == "0"
    assert data["probabilities"] == {}


def test_joint_settings_arity_checked(capsys):
    assert main(["joint", "worked", "--settings", "0,1"]) == 2
    assert main(["joint", "worked", "--settings", "0,x,0"]) == 2


def test_behavior_round_trip(tmp_path, capsys):
    out_file = tmp_path / "wired.json"
    rc, out = run(capsys, "behavior", "wired-pr", "-o", str(out_file))
    assert rc == 0
    assert "wrote behavior" in out
    back = NonsignalingResource.from_json_dict(json.loads(out_file.read_text()))
    assert validate_nonsignaling(back).passed
    ev = evaluate(mao_inequality(), back)
    assert ev.value == 2 and ev.satisfied


def test_behavior_check_nosig(capsys):
    rc, data = run_json(capsys, "behavior", "worked", "--check-nosig")
    assert rc == 0
    assert data["parties"] == ["A1", "A2", "A3"]


def test_decompose_pr_box_not_local(capsys):
    rc, data = run_json(capsys, "decompose",
                        str(FIXTURES / "wired-pr" / "pr_ab.json"),
                        "--vertices", "local")
    assert rc == 1
    assert data["feasible"] is False
    # The exact functional the pivot rule reaches, in output order; a
    # different pivot sequence gives a different (equally valid) one.
    assert json.dumps(data["certificate"]) == json.dumps({
        "coefficients": {
            "0,0|0,0": "1", "0,0|0,1": "-4", "0,0|1,0": "-4", "0,0|1,1": "1",
            "0,1|0,0": "1", "0,1|0,1": "-4", "0,1|1,0": "-4", "0,1|1,1": "1",
            "1,0|0,0": "1", "1,0|0,1": "-4", "1,0|1,0": "-4", "1,0|1,1": "1",
            "1,1|0,0": "-4", "1,1|0,1": "1", "1,1|1,0": "1", "1,1|1,1": "-4",
        },
        "threshold": "-1",
        "value": "4",
    })


def test_decompose_pr_box_is_ns_vertex(capsys):
    rc, data = run_json(capsys, "decompose",
                        str(FIXTURES / "wired-pr" / "pr_ab.json"),
                        "--vertices", "ns222")
    assert rc == 0
    assert data["feasible"] is True
    assert len(data["components"]) == 1
    assert data["components"][0]["weight"] == "1"
    assert data["components"][0]["vertex"]["id"] == "PR"


def test_decompose_vertex_file(tmp_path, capsys):
    # A vertex list supplied as a JSON file works like the built-in sets.
    vs = local_deterministic_vertices(("A", "B"), ((0, 1), (0, 1)),
                                      ((0, 1), (0, 1)))
    vfile = tmp_path / "verts.json"
    vfile.write_text(json.dumps([v.to_json_dict() for v in vs.vertices]))
    uniform = {"id": "U", "parties": ["A", "B"],
               "inputs": {"A": [0, 1], "B": [0, 1]},
               "outputs": {"A": [0, 1], "B": [0, 1]},
               "table": {f"{x},{y}": {f"{a},{b}": "1/4"
                                      for a in (0, 1) for b in (0, 1)}
                         for x in (0, 1) for y in (0, 1)}}
    rfile = tmp_path / "uniform.json"
    rfile.write_text(json.dumps(uniform))
    rc, data = run_json(capsys, "decompose", str(rfile),
                        "--vertices", str(vfile))
    assert rc == 0
    assert data["feasible"] is True
    total = sum(Fraction(c["weight"]) for c in data["components"])
    assert total == 1


RESOURCE_FIXTURES = sorted(p for p in FIXTURES.glob("*/*.json")
                           if "table" in json.loads(p.read_text()))


def _decompose_payload(res) -> tuple[int, dict]:
    """The exit code and JSON of ``boxnet decompose`` for the answer res."""
    if isinstance(res, Mixture):
        return 0, {"feasible": True,
                   "components": [{"weight": str(w), "vertex": v.to_json_dict()}
                                  for w, v in res]}
    return 1, {"feasible": False,
               "certificate": {
                   "coefficients": {",".join(map(str, x)) + "|" + ",".join(map(str, a)): str(c)
                                    for (x, a), c in res.coefficients.items()},
                   "threshold": str(res.threshold),
                   "value": str(res.value)}}


def test_resource_fixtures_are_all_found():
    assert [f"{p.parent.name}/{p.name}" for p in RESOURCE_FIXTURES] == [
        "paradox/w1.json", "paradox/w2.json", "wired-pr/coin.json", "wired-pr/pr_ab.json",
        "wired-pr/pr_ac.json", "wired-pr/pr_bc.json", "worked/r1.json", "worked/r2.json"]


@pytest.mark.parametrize("path", RESOURCE_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_decompose_local_matches_the_dense_vertex_set(capsys, path):
    """``--vertices local`` prints what decompose_extremal gives over the
    materialized local vertices, signaling boxes (paradox) included."""
    r = NonsignalingResource.from_json_dict(json.loads(path.read_text()))
    want = decompose_extremal(r, local_deterministic_vertices(
        r.parties, r.input_alphabets, r.output_alphabets))
    rc, payload = _decompose_payload(want)
    assert main(["decompose", str(path), "--vertices", "local"]) == rc
    assert capsys.readouterr().out == json.dumps(payload) + "\n"
    if path.parent.name == "paradox":
        assert rc == 1 and not r.nonsignaling_checked


def test_decompose_builds_only_the_vertices_with_weight(monkeypatch, capsys):
    built = []
    real = decompose._deterministic_vertex

    def spy(j, *args):
        built.append(j)
        return real(j, *args)

    monkeypatch.setattr(decompose, "_deterministic_vertex", spy)
    # A signature's vertices are built once and then kept: start from none.
    decompose._local_polytope.cache_clear()
    # The PR box is not local: none of its 16 vertices is built.
    rc, data = run_json(capsys, "decompose", str(FIXTURES / "wired-pr" / "pr_ab.json"))
    assert rc == 1 and built == []
    coin = str(FIXTURES / "wired-pr" / "coin.json")
    rc, data = run_json(capsys, "decompose", coin)
    assert rc == 0
    assert built == [int(c["vertex"]["id"][3:]) for c in data["components"]] == [0, 7]
    # Asked again in the same process, the signature builds nothing.
    built.clear()
    assert run_json(capsys, "decompose", coin) == (rc, data) and built == []


def test_ineq_derive(capsys):
    rc, data = run_json(capsys, "ineq", "derive")
    assert rc == 0
    assert data["all_passed"] is True
    assert [s["name"] for s in data["steps"]] == list("abcdef")
    assert all(s["passed"] for s in data["steps"])


def test_ineq_derive_prints_failing_steps(capsys, monkeypatch):
    # A wrong correlator form fails steps (c) and (d); the report is still
    # printed, step by step, with exit 1.
    monkeypatch.setattr(inequality, "chao_reichardt_correlator", wrong_cr_corr)
    rc, data = run_json(capsys, "ineq", "derive")
    assert rc == 1 and data["all_passed"] is False
    assert [s["name"] for s in data["steps"] if not s["passed"]] == ["c", "d"]
    rc, out = run(capsys, "--pretty", "ineq", "derive")
    assert rc == 1
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [f"{name}:", "FAIL" if name in "cd" else "PASS"] for name in "abcdef"]
    assert "probability and correlator forms disagree" in lines[3]


def test_ineq_eval_on_wired_fixture(tmp_path, capsys):
    beh = tmp_path / "wired.json"
    assert main(["behavior", "wired-pr", "-o", str(beh)]) == 0
    capsys.readouterr()
    rc, data = run_json(capsys, "ineq", "eval", "--ineq", "mao",
                        "--behavior", str(beh))
    assert rc == 0
    assert data["value"] == "2" and data["bound"] == "4"
    assert data["direction"] == "<=" and data["satisfied"] is True
    rc, data = run_json(capsys, "ineq", "eval", "--ineq", "cr-prob",
                        "--behavior", str(beh))
    assert rc == 0
    assert data["value"] == "3" and data["direction"] == ">="


def test_ineq_eval_needs_behavior(capsys):
    assert main(["ineq", "eval", "--ineq", "mao"]) == 2


def _ternary_a():
    """A (2,2,2) behavior whose party A answers in {0, 1, 2}."""
    bits = Alphabet((0, 1))
    return local_deterministic_vertices(
        ("A", "B", "C"), [bits] * 3, [Alphabet((0, 1, 2)), bits, bits]).vertices[0]


@pytest.mark.parametrize("ineq, behavior, message", [
    ("mao", lambda: deterministic_behaviors({"A": 2, "B": 3, "C": 2})[37],
     "party 'B' has settings (0, 1, 2), inequality needs (0, 1)"),
    ("cr-prob", lambda: deterministic_behaviors({"A": 2, "B": 3, "C": 2})[37],
     "party 'B' has settings (0, 1, 2), inequality needs (0, 1)"),
    ("cao-s14", lambda: deterministic_behaviors({"A": 2, "B": 2, "C": 2})[37],
     "party 'B' has settings (0, 1), inequality needs (0, 1, 2)"),
    ("mao", make_pr_box,
     "behavior parties ['A', 'B'] do not match the inequality's parties ['A', 'B', 'C']"),
    ("cao", _ternary_a,
     "party 'A' outcomes (0, 1, 2) are not within {0, 1}; correlators need binary +/-1 outcomes"),
], ids=["mao-232", "cr-prob-232", "cao-s14-222", "mao-two-parties", "cao-ternary"])
def test_ineq_eval_scenario_mismatch_exits_two(tmp_path, capsys, ineq, behavior, message):
    """A behavior whose scenario does not fit the inequality is an input
    error, as a signature mismatch is for ``decompose``."""
    path = _write(tmp_path / "b.json", behavior().to_json_dict())
    assert main(["ineq", "eval", "--ineq", ineq, "--behavior", path]) == 2
    assert capsys.readouterr() == ("", f"input error: {path}: {message}\n")


def test_ineq_eval_signaling_behavior_still_exits_one(tmp_path, capsys):
    beh = deterministic_behaviors({"A": 2, "B": 2, "C": 2})[0].to_json_dict()
    for x in ("0,1,0", "0,1,1", "1,1,0", "1,1,1"):   # A answers B's setting
        beh["table"][x].update({"0,0,0": "0", "1,0,0": "1"})
    beh["unchecked"] = True
    assert main(["ineq", "eval", "--ineq", "mao", "--behavior", _write(tmp_path / "b.json", beh)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_ineq_eval_cao_s14_reads_the_linearized_value(tmp_path, capsys):
    """On (2,3,2) behaviors the conditional form reads the value of its
    linear twin, one behavior per value the deterministic ones reach."""
    behaviors = deterministic_behaviors({"A": 2, "B": 3, "C": 2})
    for i in (0, 2, 4, 11, 13):
        path = _write(tmp_path / f"b{i}.json", behaviors[i].to_json_dict())
        rc, data = run_json(capsys, "ineq", "eval", "--ineq", "cao-s14", "--behavior", path)
        assert rc == 0 and data["satisfied"] is True
        assert data["value"] == str(evaluate(cao_s14_linearized(), behaviors[i]).value)


def test_ghz_search_reproduces_snapshot(capsys):
    rc, data = run_json(capsys, "ghz", "search", "--ineq", "mao")
    assert rc == 0
    assert data["value"] == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-9)
    assert data["angles"]["A"] == pytest.approx([0.0, math.pi / 2], abs=1e-9)


def test_ghz_eval_pipeline_flags_violation(tmp_path, capsys):
    angles = "0,1.5707963267948966,0.7853981633974483," \
             "5.497787143782138,0,1.5707963267948966"
    beh = tmp_path / "ghz.json"
    assert main(["ghz", "eval", "--angles", angles, "-o", str(beh)]) == 0
    capsys.readouterr()
    assert json.loads(beh.read_text())["float"] is True
    rc, data = run_json(capsys, "ineq", "eval", "--ineq", "mao",
                        "--behavior", str(beh))
    assert rc == 1
    assert data["satisfied"] is False
    assert data["value"] == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-9)


def test_ghz_eval_requires_angles(capsys):
    assert main(["ghz", "eval"]) == 2
    assert main(["ghz", "eval", "--angles", "0,1,2"]) == 2
    assert main(["ghz", "eval", "--angles", "a,b,c,d,e,f"]) == 2


def test_input_errors_exit_two(tmp_path, capsys):
    assert main(["validate", "no-such-fixture"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken')
    assert main(["ineq", "eval", "--ineq", "mao", "--behavior", str(bad)]) == 2


def _pr_ab():
    return json.loads((FIXTURES / "wired-pr" / "pr_ab.json").read_text())


def _bad_fraction(tmp_path):
    r = _pr_ab()
    r["table"]["0,0"]["0,0"] = "1/0"
    return ["decompose", _write(tmp_path / "r.json", r)]


def _top_level_list(tmp_path):
    return ["decompose", _write(tmp_path / "r.json", [_pr_ab()])]


def _non_integer_key(tmp_path):
    r = _pr_ab()
    r["table"]["x,0"] = r["table"].pop("0,0")
    return ["decompose", _write(tmp_path / "r.json", r)]


def _non_integer_symbol(tmp_path):
    r = _pr_ab()
    r["inputs"][r["parties"][0]] = [0, 1.5]
    return ["decompose", _write(tmp_path / "r.json", r)]


def _list_behavior(tmp_path):
    return ["ineq", "eval", "--ineq", "mao", "--behavior",
            _write(tmp_path / "b.json", [_pr_ab()])]


def _non_integer_outcome(tmp_path):
    scenario = {
        "parties": ["A"], "settings": {"A": [0]},
        "resources": [{"id": "coin", "parties": ["A"], "inputs": {"A": [0]},
                       "outputs": {"A": [0, 1]},
                       "table": {"0": {"0": "1/2", "1": "1/2"}}}],
        "trees": {"A": {"settings": {"0": {"resource": "coin", "input": 0,
                                           "children": {"0": {"outcome": "x"},
                                                        "1": {"outcome": 1}}}}}},
    }
    return ["validate", _write(tmp_path / "scenario.json", scenario)]


def _signature_mismatch(tmp_path):
    return ["decompose", str(FIXTURES / "worked" / "r1.json"), "--vertices", "ns222"]


def _mixed_vertex_file(tmp_path):
    vertices = [_pr_ab(), json.loads((FIXTURES / "worked" / "r1.json").read_text())]
    return ["decompose", str(FIXTURES / "wired-pr" / "pr_ab.json"),
            "--vertices", _write(tmp_path / "v.json", vertices)]


def _string_parties_scenario(tmp_path):
    d = _fixture_copy(tmp_path, "wired-pr")
    _edit(d / "scenario.json", lambda s: s.update({"parties": "".join(s["parties"])}))
    return ["validate", str(d)]


def _scenario_field_as(key, value):
    """A worked-fixture scenario whose ``key`` is replaced by ``value``."""
    def make_argv(tmp_path):
        d = _fixture_copy(tmp_path, "worked")
        _edit(d / "scenario.json", lambda s: s.update({key: value}))
        return ["validate", str(d)]
    make_argv.__name__ = f"_{key}_as_{type(value).__name__}"
    return make_argv


def _string_parties_resource(tmp_path):
    r = _pr_ab()
    r["parties"] = "".join(r["parties"])
    return ["decompose", _write(tmp_path / "r.json", r)]


def _object_parties_resource(tmp_path):
    r = _pr_ab()
    r["parties"] = {p: i for i, p in enumerate(r["parties"])}
    return ["decompose", _write(tmp_path / "r.json", r)]


def _bool_exact_entry(tmp_path):
    r = _pr_ab()
    r["table"]["0,0"] = {"0,0": True, "0,1": 0, "1,0": 0, "1,1": 0}
    return ["decompose", _write(tmp_path / "r.json", r)]


def _bool_float_entry(tmp_path):
    beh = ghz_behavior(QuantumStrategy.from_angles({p: (0.0, 0.0) for p in "ABC"})).to_json_dict()
    beh["table"]["0,0,0"] = {"0,0,0": True}
    return ["ineq", "eval", "--ineq", "mao", "--behavior", _write(tmp_path / "b.json", beh)]


def _write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("make_argv", [
    _bad_fraction, _top_level_list, _non_integer_key, _non_integer_symbol,
    _list_behavior, _non_integer_outcome, _signature_mismatch, _mixed_vertex_file,
    _string_parties_scenario, _string_parties_resource, _object_parties_resource,
    _bool_exact_entry, _bool_float_entry,
    _scenario_field_as("resources", "r1.json"), _scenario_field_as("resources", {"r1": "r1.json"}),
    _scenario_field_as("trees", "alice.json"), _scenario_field_as("trees", ["alice.json"]),
    _scenario_field_as("settings", [[0, 1]] * 3), _scenario_field_as("settings", "0,1"),
])
def test_malformed_input_exits_two(tmp_path, capsys, make_argv):
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("key, value, kind", [
    ("resources", "r1.json", "list, got str"), ("resources", {"r1": "r1.json"}, "list, got dict"),
    ("trees", "alice.json", "object, got str"), ("trees", ["alice.json"], "object, got list"),
    ("settings", [[0, 1]] * 3, "object, got list"), ("settings", "0,1", "object, got str"),
])
def test_scenario_fields_of_the_wrong_json_type_are_named(tmp_path, capsys, key, value, kind):
    """A string of file names is not read as one file name per character."""
    argv = _scenario_field_as(key, value)(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected a JSON {kind}" in err and "No such file" not in err


def test_pretty_output_is_text(capsys):
    rc, out = run(capsys, "--pretty", "validate", "worked")
    assert rc == 0
    assert "PASS" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_threads_flag_accepted(capsys):
    rc, data = run_json(capsys, "--threads", "4", "validate", "worked")
    assert rc == 0 and data["passed"] is True


def _cli_process(*argv, timeout=20):
    """Run the CLI as its own process, so that a hang fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(boxnet.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "boxnet.cli", *argv], capture_output=True,
                          text=True, timeout=timeout, env=env)


def test_nan_float_behavior_is_refused(tmp_path, capsys):
    table = {f"{x},{y},{z}": {"0,0,0": float("nan")}
             for x in (0, 1) for y in (0, 1) for z in (0, 1)}
    beh = {"float": True, "id": "nan", "parties": ["A", "B", "C"],
           "inputs": {p: [0, 1] for p in "ABC"}, "outputs": {p: [0, 1] for p in "ABC"},
           "table": table}
    rc, out = run(capsys, "ineq", "eval", "--ineq", "mao",
                  "--behavior", _write(tmp_path / "nan.json", beh))
    assert rc == 1
    assert "NaN" not in out


def test_float_behavior_with_keys_outside_its_alphabets_exits_one(tmp_path, capsys):
    angles = {"A": (0.0, math.pi / 2), "B": (math.pi / 4, -math.pi / 4), "C": (0.0, math.pi / 2)}
    beh = ghz_behavior(QuantumStrategy.from_angles(angles)).to_json_dict()
    beh["table"]["0,1,0"]["2,2,2"] = 0.7
    beh["table"]["5,5,5"] = {"0,0,0": 1.0}
    rc = main(["ineq", "eval", "--ineq", "mao", "--behavior", _write(tmp_path / "b.json", beh)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: resource 'ghz")
    assert "output tuple (2, 2, 2) at input (0, 1, 0) is outside the output alphabets" in captured.err


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_ghz_search_refuses_a_step_floor_that_never_stops(refine):
    proc = _cli_process("ghz", "search", "--refine", refine)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["ghz", "search", "--grid", "0"],
    ["ghz", "search", "--grid", "-2"],
    ["ghz", "search", "--refine", "nan"],
    ["ghz", "search", "--refine", "inf"],
    ["ghz", "eval", "--angles", "nan,0,0,0,0,0"],
    ["ghz", "eval", "--angles", "0,0,0,0,0,inf"],
])
def test_bad_numeric_flags_exit_two(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("atol", ["nan", "inf", "-1"])
def test_bad_atol_exits_two(tmp_path, capsys, atol):
    bits = [Alphabet((0, 1))] * 3
    vertex = local_deterministic_vertices(("A", "B", "C"), bits, bits).vertices[0]
    beh = _write(tmp_path / "b.json", vertex.to_json_dict())
    assert main(["ineq", "eval", "--ineq", "mao", "--behavior", beh, "--atol", atol]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_joint_setting_outside_alphabet_exits_two(capsys):
    assert main(["joint", "worked", "--settings", "5,0,0"]) == 2
    assert capsys.readouterr().err == (
        "input error: --settings: setting 5 outside alphabet of 'A1'\n")


@pytest.mark.parametrize("argv, wording", [
    (["joint", "worked", "--settings", "0,1"], "2 settings for 3 parties"),
    (["joint", "worked", "--settings", "0,x,0"], "'x' does not spell a symbol"),
    (["ghz", "search", "--grid", "0"], "grid must be at least 1, got 0"),
    (["ghz", "search", "--refine", "nan"], "step_floor must be positive and finite, got nan"),
    (["ghz", "eval", "--angles", "nan,0,0,0,0,0"], "measurement angle must be finite, got nan"),
], ids=["settings-count", "settings-spelling", "grid", "refine", "angles"])
def test_flags_are_refused_in_the_librarys_words(capsys, argv, wording):
    """The CLI hands these flags to the library and maps its refusal to
    exit 2, keeping the library's message."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and wording in err, err


@pytest.mark.parametrize("flag, value", [
    ("--angles", "1_0,\u0660, 0 ,0,0,0"),   # read as A = (10.0, 0.0) by float
    ("--angles", "0,0,0,0,0,\u0661"),
    ("--angles", "0,0,0,0,0,0\n"),
    ("--refine", " 1e-4"),
    ("--refine", "1_0e-4"),
    ("--atol", "1e-9 "),
    ("--atol", "\uff11"),
], ids=["angles-underscore", "angles-arabic-digit", "angles-newline", "refine-space",
        "refine-underscore", "atol-space", "atol-fullwidth-digit"])
def test_float_flags_take_ascii_decimals_only(tmp_path, capsys, flag, value):
    """``float`` reads these; the flags refuse them as input errors."""
    argv = {"--angles": ["ghz", "eval"], "--refine": ["ghz", "search", "--grid", "2"],
            "--atol": ["ineq", "eval", "--behavior", _write(tmp_path / "b.json", make_pr_box(
                ).to_json_dict())]}[flag]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "does not spell a decimal number" in err, err


def test_float_flags_read_every_ascii_decimal_spelling(capsys):
    """Signs, points, exponents and the ``repr`` of floats read as ``float``
    reads them: the same output as the spelling ``repr`` gives."""
    for spelled in ("0.7853981633974483", "-1.5707963267948966", "1e-05", "+.5", "2.",
                    "1E+2", "-0", "007"):
        assert main(["ghz", "eval", "--angles=" + ",".join([spelled] * 6)]) == 0
        got = capsys.readouterr().out
        assert main(["ghz", "eval", "--angles=" + ",".join([repr(float(spelled))] * 6)]) == 0
        assert capsys.readouterr().out == got
    rc, data = run_json(capsys, "ghz", "search", "--grid", "2", "--refine", "5E-1")
    assert rc == 0 and data == run_json(capsys, "ghz", "search", "--grid", "2",
                                        "--refine", "0.5")[1]


def test_empty_vertex_file_exits_two(tmp_path, capsys):
    vfile = _write(tmp_path / "v.json", [])
    assert main(["decompose", str(FIXTURES / "wired-pr" / "pr_ab.json"), "--vertices", vfile]) == 2
    assert capsys.readouterr().err == (
        f"input error: {vfile}: expected a non-empty JSON list of vertices\n")


def _fixture_copy(tmp_path, name) -> Path:
    return Path(shutil.copytree(FIXTURES / name, tmp_path / name))


def _edit(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _assert_duplicate_keys_refused(capsys, argv, first, second):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{first!r} and {second!r}" in err


def test_table_input_keys_parsing_alike_exit_two(tmp_path, capsys):
    r = _pr_ab()
    r["table"]["00,0"] = r["table"]["0,0"]
    _assert_duplicate_keys_refused(capsys, ["decompose", _write(tmp_path / "r.json", r)],
                                   "0,0", "00,0")


def test_table_output_keys_parsing_alike_exit_two(tmp_path, capsys):
    r = _pr_ab()
    r["table"]["1,1"]["0,01"] = r["table"]["1,1"]["0,1"]
    _assert_duplicate_keys_refused(capsys, ["decompose", _write(tmp_path / "r.json", r)],
                                   "0,1", "0,01")


@pytest.mark.parametrize("where", ["settings", "children"])
def test_tree_keys_parsing_alike_exit_two(tmp_path, capsys, where):
    d = _fixture_copy(tmp_path, "worked")

    def change(tree):
        edges = tree["settings"] if where == "settings" else tree["settings"]["1"]["children"]
        edges["01"] = edges["1"]

    _edit(d / "bob.json", change)
    _assert_duplicate_keys_refused(capsys, ["validate", str(d)], "1", "01")


def test_bins_keys_parsing_alike_exit_two(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "wired-pr")
    _edit(d / "scenario.json", lambda s: s["bins"]["B"].update({"0,0,01": s["bins"]["B"]["0,0,1"]}))
    _assert_duplicate_keys_refused(capsys, ["validate", str(d)], "0,0,1", "0,0,01")


def _infinite_tree_input(d: Path) -> None:
    _edit(d / "bob.json", lambda t: t["settings"]["0"].update({"input": 1e400}))


def _infinite_bin(d: Path) -> None:
    _edit(d / "scenario.json", lambda s: s.update({"bins": {"A1": {"0,0": 1e400}}}))


def _tree_nested_past_the_recursion_limit(d: Path) -> None:
    # Refused by the JSON reader or, where that nests deeper, the tree loader.
    depth = sys.getrecursionlimit()
    node = '{"resource": "R1", "input": 0, "children": {"0": ' * depth + "{}" + "}}" * depth
    (d / "bob.json").write_text('{"party": "A2", "settings": {"0": ' + node + "}}")


def _file_nested_past_the_json_reader(d: Path) -> None:
    (d / "bob.json").write_text("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("spoil", [_infinite_tree_input, _infinite_bin,
                                   _tree_nested_past_the_recursion_limit,
                                   _file_nested_past_the_json_reader])
def test_unloadable_json_values_exit_two(tmp_path, capsys, spoil):
    d = _fixture_copy(tmp_path, "worked")
    spoil(d)
    assert main(["validate", str(d)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def _assert_refused_naming(capsys, argv, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and all(name in err for name in names), err


@pytest.mark.parametrize("value", [0.9, 1.5, True])
def test_non_integer_tree_input_exits_two(tmp_path, capsys, value):
    d = _fixture_copy(tmp_path, "worked")
    _edit(d / "bob.json", lambda t: t["settings"]["0"].update({"input": value}))
    _assert_refused_naming(capsys, ["validate", str(d)], "bob.json", repr(value))


def test_non_integer_tree_outcome_exits_two(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "worked")

    def change(tree):
        node = tree["settings"]["0"]
        while "children" in node:
            node = node["children"]["0"]
        node["outcome"] = 1.5

    _edit(d / "bob.json", change)
    _assert_refused_naming(capsys, ["validate", str(d)], "bob.json", "1.5")


def test_non_integer_bin_exits_two(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "wired-pr")
    _edit(d / "scenario.json", lambda s: s["bins"]["B"].update({"0,0,1": 0.5}))
    _assert_refused_naming(capsys, ["validate", str(d)], "scenario.json", "0.5")


def test_repeated_literal_key_exits_two(tmp_path, capsys):
    # A deterministic "0,0" column placed before the real one: json.load
    # alone would keep the last and decompose it without a word.
    text = (FIXTURES / "wired-pr" / "pr_ab.json").read_text()
    first = text.index('"0,0": {')
    path = tmp_path / "pr_ab.json"
    path.write_text(text[:first] + '"0,0": {"0,0": "1"}, ' + text[first:])
    _assert_refused_naming(capsys, ["decompose", str(path)], "pr_ab.json", "'0,0'", "repeated")


def test_shipped_fixtures_repeat_no_key():
    for path in sorted(FIXTURES.rglob("*.json")):
        _load_json(path)


def test_non_integer_table_key_exits_two(tmp_path, capsys):
    r = _pr_ab()
    r["table"]["1,1"]["0.9,1"] = r["table"]["1,1"].pop("0,1")
    assert main(["decompose", _write(tmp_path / "r.json", r)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


# Spellings that int() reads as a symbol, each with the plain symbol it
# would stand for; a symbol is spelled by an optional "-" and ASCII digits.
SPELLINGS = [("+1", "1"), ("0_1", "1"), (" 1 ", "1"), ("٠", "0")]


def _rename(mapping, old, new):
    mapping[new] = mapping.pop(old)


def _respelled_input_key(tmp_path, spelling, plain):
    r = _pr_ab()
    _rename(r["table"], f"{plain},0", f"{spelling},0")
    return ["decompose", _write(tmp_path / "r.json", r)], f"{spelling},0"


def _respelled_output_key(tmp_path, spelling, plain):
    r = _pr_ab()
    _rename(r["table"]["0,0"], f"0,{plain}", f"0,{spelling}")
    return ["decompose", _write(tmp_path / "r.json", r)], f"0,{spelling}"


def _respelled_in_worked_tree(change):
    def argv(tmp_path, spelling, plain):
        d = _fixture_copy(tmp_path, "worked")
        _edit(d / "bob.json", lambda t: change(t, spelling, plain))
        return ["validate", str(d)], spelling
    return argv


def _label_leaves(t, spelling, plain):
    t["settings"]["0"]["children"] = {"0": {"outcome": spelling}, "1": {"outcome": spelling}}


def _respelled_bins_key(tmp_path, spelling, plain):
    d = _fixture_copy(tmp_path, "wired-pr")
    _edit(d / "scenario.json", lambda s: _rename(s["bins"]["B"], f"0,0,{plain}", f"0,0,{spelling}"))
    return ["validate", str(d)], f"0,0,{spelling}"


def _respelled_setting(tmp_path, spelling, plain):
    return ["joint", "worked", "--settings", f"0,0,{spelling}"], spelling


@pytest.mark.parametrize("spelling, plain", SPELLINGS)
@pytest.mark.parametrize("respell", [
    _respelled_input_key,
    _respelled_output_key,
    _respelled_in_worked_tree(lambda t, s, p: _rename(t["settings"], p, s)),
    _respelled_in_worked_tree(lambda t, s, p: _rename(t["settings"]["0"]["children"], p, s)),
    _respelled_in_worked_tree(lambda t, s, p: t["settings"][p].update({"input": s})),
    _respelled_in_worked_tree(_label_leaves),
    _respelled_bins_key,
    _respelled_setting,
], ids=["table-input", "table-output", "tree-setting", "tree-child", "tree-input",
        "tree-outcome", "bins", "cli-settings"])
def test_symbols_spelled_other_than_digits_exit_two(tmp_path, capsys, respell, spelling, plain):
    argv, key = respell(tmp_path, spelling, plain)
    _assert_refused_naming(capsys, argv, repr(key), "does not spell a symbol")


@pytest.mark.parametrize("cap", ["lots", "-1", "1e6", "", " 16 ", "+16", "1_6", "\u0661\u0662"])
def test_bad_vertex_cap_exits_two(monkeypatch, cap):
    """NONSIG_VERTEX_CAP must be a non-negative integer spelled in ASCII
    digits only, as symbols are; anything else (spaces, a sign, an
    underscore, other scripts' digits) is an input error naming the
    variable, on one line."""
    monkeypatch.setenv("NONSIG_VERTEX_CAP", cap)
    done = _cli_process("decompose", str(FIXTURES / "wired-pr" / "pr_ab.json"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (f"input error: NONSIG_VERTEX_CAP={cap!r} is not a "
                           f"non-negative integer\n")


@pytest.mark.parametrize("cap, rc", [("16", 1), ("15", 1)])
def test_vertex_cap_within_and_past_the_count(monkeypatch, capsys, cap, rc):
    """The PR box has 16 deterministic vertices: a cap of 16 runs the LP
    (the box is not local, exit 1), a cap of 15 refuses it (exit 1 too,
    with the cap's message)."""
    monkeypatch.setenv("NONSIG_VERTEX_CAP", cap)
    assert main(["decompose", str(FIXTURES / "wired-pr" / "pr_ab.json")]) == rc
    err = capsys.readouterr().err
    assert ("exceed the cap 15" in err) == (cap == "15")


@pytest.mark.parametrize("argv", [
    ["behavior", "worked"],
    ["ghz", "eval", "--angles", "0,1,0,1,0,1"],
])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_exits_two(tmp_path, argv, where):
    """An ``-o`` path that cannot be written is an input error naming it,
    with nothing on stdout."""
    out = tmp_path / "no-such-dir" / "x.json" if where == "missing-dir" else tmp_path
    done = _cli_process(*argv, "-o", str(out))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"input error: {out}: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("node", ["leaf", "outcome", [1], None, 0, {"resourc": "R1"},
                                  {"outcome": 0, "resource": "R1"},
                                  {"resource": "R1", "input": 0}])
def test_tree_node_of_no_known_shape_exits_two(tmp_path, capsys, node):
    """A tree node is {}, {"outcome"} or {"resource", "input", "children"};
    any other value is an input error naming where it sits, not read as an
    unlabeled terminal."""
    d = _fixture_copy(tmp_path, "worked")
    _edit(d / "alice.json", lambda t: t["settings"].update({"0": node}))
    assert main(["validate", str(d)]) == 2
    err = capsys.readouterr().err
    assert "tree node at [setting 0]: expected {}, {outcome} or " in err
    assert "Traceback" not in err


def test_tree_node_below_the_root_is_named_by_its_path(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "worked")
    _edit(d / "alice.json",
          lambda t: t["settings"]["1"]["children"]["0"]["children"].update({"1": {"x": 1}}))
    assert main(["validate", str(d)]) == 2
    assert "tree node at [setting 1 -> R2:0 -> R1:1]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
def test_unchecked_flag_must_be_a_json_boolean(tmp_path, capsys, value):
    r = _pr_ab()
    r["unchecked"] = value
    path = _write(tmp_path / "pr_ab.json", r)
    for argv in (["decompose", path], ["ineq", "eval", "--behavior", path]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"unchecked: expected a JSON boolean, got {type(value).__name__}" in err


def test_unchecked_string_in_a_scenario_exits_two(tmp_path, capsys):
    d = _fixture_copy(tmp_path, "wired-pr")
    _edit(d / "pr_ab.json", lambda r: r.update({"unchecked": "false"}))
    for argv in (["joint", str(d), "--settings", "0,0,0"],
                 ["validate", "--allow-signaling", str(d)]):
        assert main(argv) == 2
        assert "unchecked: expected a JSON boolean, got str" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_float_flag_must_be_a_json_boolean(tmp_path, capsys, value):
    beh = ghz_behavior(QuantumStrategy.from_angles({p: (0.0, 1.0) for p in "ABC"})).to_json_dict()
    beh["float"] = value
    assert main(["ineq", "eval", "--behavior", _write(tmp_path / "b.json", beh)]) == 2
    assert (f"float: expected a JSON boolean, got {type(value).__name__}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("unchecked", [True, False])
def test_boolean_flags_are_read(tmp_path, unchecked):
    r = _pr_ab()
    r.update({"unchecked": unchecked, "float": False})
    loaded = load_behavior_file(_write(tmp_path / "r.json", r))
    assert isinstance(loaded, NonsignalingResource)
    assert loaded.nonsignaling_checked is not unchecked
