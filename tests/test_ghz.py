"""GHZ simulator: behavior construction, checks, and the violation search."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import boxnet
from boxnet.ghz import (
    FloatBehavior,
    MeasurementSetting,
    QuantumStrategy,
    ghz_behavior,
    search_max_violation,
)
from boxnet.inequality import (
    InequalityError,
    LinearInequality,
    _term,
    cao_inequality,
    cao_s14_linearized,
    correlator,
    evaluate,
    mao_inequality,
)
from boxnet.resource import Alphabet, NonsignalingResource, SignalingError, TableError, frac

PI = math.pi

# Regression snapshot of the deterministic search on the five-term
# inequality: the 16-point grid already contains the optimum and the
# descent stays put.
SNAPSHOT_VALUE = 2 + 2 * math.sqrt(2)
SNAPSHOT_ANGLES = {"A": (0.0, PI / 2), "B": (PI / 4, 7 * PI / 4), "C": (0.0, PI / 2)}


def strategy(a0=0.0, a1=0.0, b0=0.0, b1=0.0, c0=0.0, c1=0.0):
    return QuantumStrategy.from_angles({"A": (a0, a1), "B": (b0, b1), "C": (c0, c1)})


def test_all_z_measurements_perfectly_correlated():
    beh = ghz_behavior(strategy())
    for ctx in product((0, 1), repeat=3):
        col = beh.table[ctx]
        assert col[(0, 0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert col[(1, 1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert sum(col.values()) == pytest.approx(1.0, abs=1e-12)


def test_all_x_measurements_even_parity():
    x = PI / 2
    beh = ghz_behavior(strategy(x, x, x, x, x, x))
    for ctx in product((0, 1), repeat=3):
        assert correlator(beh, ("A", "B", "C"), ctx) == pytest.approx(1.0, abs=1e-12)
        for outs, v in beh.table[ctx].items():
            expected = 0.25 if sum(outs) % 2 == 0 else 0.0
            assert v == pytest.approx(expected, abs=1e-12)


def test_single_party_marginals_uniform():
    beh = ghz_behavior(strategy(0.3, 1.1, -0.7, 2.9, 0.01, 4.4))
    for p in ("A", "B", "C"):
        for s in (0, 1):
            assert correlator(beh, (p,), (s,)) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_correlators_match_state_vector():
    angles = {"A": (0.3, 1.1), "B": (-0.7, 2.9), "C": (0.01, 4.4)}
    beh = ghz_behavior(QuantumStrategy.from_angles(angles))
    for (p, q) in (("A", "B"), ("A", "C"), ("B", "C")):
        for sp, sq in product((0, 1), repeat=2):
            want = math.cos(angles[p][sp]) * math.cos(angles[q][sq])
            assert correlator(beh, (p, q), (sp, sq)) == pytest.approx(want, abs=1e-12)
    for sx, sy, sz in product((0, 1), repeat=3):
        want = (math.sin(angles["A"][sx]) * math.sin(angles["B"][sy])
                * math.sin(angles["C"][sz]))
        assert correlator(beh, ("A", "B", "C"), (sx, sy, sz)) == \
            pytest.approx(want, abs=1e-12)


def test_party_permutation_symmetry():
    a, b, c = (0.3, 1.1), (-0.7, 2.9), (0.01, 4.4)
    original = ghz_behavior(QuantumStrategy.from_angles({"A": a, "B": b, "C": c}))
    swapped = ghz_behavior(QuantumStrategy.from_angles({"A": b, "B": a, "C": c}))
    for ctx in product((0, 1), repeat=3):
        for outs in product((0, 1), repeat=3):
            flipped_ctx = (ctx[1], ctx[0], ctx[2])
            flipped_out = (outs[1], outs[0], outs[2])
            assert original.table[ctx][outs] == pytest.approx(
                swapped.table[flipped_ctx][flipped_out], abs=1e-12)


def test_float_behavior_rejects_bad_columns():
    bits = Alphabet((0, 1))
    with pytest.raises(ValueError, match="sums to"):
        FloatBehavior("bad", ("A",), [bits], [bits],
                      {(0,): {(0,): 0.7, (1,): 0.2},
                       (1,): {(0,): 0.5, (1,): 0.5}})


def test_float_behavior_rejects_non_finite_entries():
    bits = Alphabet((0, 1))
    table = {(x, y, z): {(0, 0, 0): float("nan")}
             for x, y, z in product((0, 1), repeat=3)}
    with pytest.raises(TableError, match=r"probability nan out of range at \(0, 0, 0\)"):
        FloatBehavior("nan", ("A", "B", "C"), [bits] * 3, [bits] * 3, table)
    with pytest.raises(TableError, match="probability inf out of range"):
        FloatBehavior("inf", ("A",), [bits], [bits],
                      {(0,): {(0,): float("inf")}, (1,): {(0,): 1.0}})


@pytest.mark.parametrize("fault, message", [
    ("extra output", r"output tuple \(2,\) at input \(1,\) is outside the output alphabets"),
    ("extra input", r"input tuples outside the input alphabets: \[\(5,\)\]"),
    ("missing input", r"missing input tuple \(1,\)"),
], ids=["extra-output", "extra-input", "missing-input"])
def test_float_and_exact_tables_refuse_the_same_keys(fault, message):
    bits = Alphabet((0, 1))
    table = {(x,): {(x,): 1} for x in (0, 1)}
    if fault == "extra output":
        table[(1,)][(2,)] = 0
    elif fault == "extra input":
        table[(5,)] = {(0,): 1}
    else:
        del table[(1,)]
    texts = []
    for make in (FloatBehavior, NonsignalingResource.make):
        with pytest.raises(TableError, match=message) as err:
            make("r", ("A",), [bits], [bits], table)
        texts.append(str(err.value))
    assert texts[0] == texts[1]


def test_float_behavior_file_with_keys_outside_its_alphabets_is_refused():
    d = ghz_behavior(QuantumStrategy.from_angles(SNAPSHOT_ANGLES)).to_json_dict()
    d["table"]["0,1,0"]["2,2,2"] = 0.7
    d["table"]["5,5,5"] = {"0,0,0": 1.0}
    with pytest.raises(TableError, match=r"output tuple \(2, 2, 2\) at input \(0, 1, 0\)"):
        FloatBehavior.from_json_dict(d)
    del d["table"]["0,1,0"]["2,2,2"]
    with pytest.raises(TableError, match=r"input tuples outside .*: \[\(5, 5, 5\)\]"):
        FloatBehavior.from_json_dict(d)


def test_float_behavior_rejects_signaling():
    bits = Alphabet((0, 1))
    table = {(x,): {(x,): 1.0, (1 - x,): 0.0} for x in (0, 1)}
    # Single party whose outcome tracks its input is fine (no one to
    # signal to); two parties where A's marginal tracks B's input is not.
    FloatBehavior("ok", ("A",), [bits], [bits], table)
    bad = {(x, y): {(a, b): (0.5 if a == y else 0.0)
                    for a in (0, 1) for b in (0, 1)}
           for x in (0, 1) for y in (0, 1)}
    with pytest.raises(SignalingError, match="signals"):
        FloatBehavior("sig", ("A", "B"), [bits] * 2, [bits] * 2, bad)


def test_measurement_setting_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        MeasurementSetting(float("nan"))
    with pytest.raises(ValueError, match="finite"):
        MeasurementSetting(float("inf"))


def test_search_snapshot_on_mao():
    res = search_max_violation(mao_inequality())
    assert res.value == pytest.approx(SNAPSHOT_VALUE, abs=1e-9)
    assert res.value > 4.1
    got = res.strategy.angles()
    for p, want in SNAPSHOT_ANGLES.items():
        assert got[p] == pytest.approx(want, abs=1e-9)


def test_search_is_deterministic():
    first = search_max_violation(mao_inequality())
    second = search_max_violation(mao_inequality())
    assert first.value == second.value
    assert first.strategy.angles() == second.strategy.angles()


def test_search_coarser_grid_same_optimum():
    # The optimum sits on the 8-point grid too.
    res = search_max_violation(mao_inequality(), grid=8)
    assert res.value == pytest.approx(SNAPSHOT_VALUE, abs=1e-9)


def test_search_descent_climbs_off_a_coarse_grid(monkeypatch):
    # The 5-point grid misses the optimum: coordinate descent, starting at
    # the grid's own best (the largest value of the slabs it scores first),
    # climbs to 2 + 2*sqrt(2).
    import boxnet.ghz as ghz

    slabs = []
    closed_form = ghz._closed_form_value

    def spy(ineq, angle_of):
        value = closed_form(ineq, angle_of)
        if value.ndim:
            slabs.append(value)
        return value

    monkeypatch.setattr(ghz, "_closed_form_value", spy)
    res = search_max_violation(mao_inequality(), grid=5)
    assert max(slab.max() for slab in slabs) < SNAPSHOT_VALUE - 0.01
    assert res.value == pytest.approx(SNAPSHOT_VALUE, abs=1e-9)


def test_search_respects_trivial_bound():
    triv = LinearInequality("triv", (_term(1, A=0, B=0),), frac(1),
                            {"A": 2, "B": 2, "C": 2})
    res = search_max_violation(triv)
    assert res.value <= 1 + 1e-9


def test_search_violates_cao():
    res = search_max_violation(cao_inequality())
    assert res.value > 8
    assert res.value == pytest.approx(4 + 4 * math.sqrt(2), abs=1e-9)


def test_search_rejects_oversized_scenarios():
    with pytest.raises(InequalityError, match="at most 6 angles"):
        search_max_violation(cao_s14_linearized())
    two_party = LinearInequality("chsh-ish", (_term(1, A=0, B=0),), frac(1),
                                 {"A": 2, "B": 2})
    with pytest.raises(InequalityError, match="three-party"):
        search_max_violation(two_party)


@pytest.mark.parametrize("kwargs", [
    {"grid": 0}, {"grid": -3}, {"step_floor": float("nan")}, {"step_floor": float("inf")},
])
def test_search_rejects_bad_grid_and_step_floor(kwargs):
    with pytest.raises(ValueError, match="grid must be|step_floor must be"):
        search_max_violation(mao_inequality(), **kwargs)


def test_search_rejects_a_step_floor_that_never_stops():
    # Without the check these floors loop forever, so the calls run in a
    # subprocess under a timeout.
    code = ("from boxnet.ghz import search_max_violation\n"
            "from boxnet.inequality import mao_inequality\n"
            "for floor in (0.0, -1.0, -float('inf')):\n"
            "    try:\n"
            "        search_max_violation(mao_inequality(), step_floor=floor)\n"
            "    except ValueError as e:\n"
            "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(boxnet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=env)
    assert proc.stdout.count("step_floor must be positive and finite") == 3


def test_search_value_matches_behavior_route():
    res = search_max_violation(mao_inequality())
    beh = ghz_behavior(res.strategy)
    ev = evaluate(mao_inequality(), beh, atol=1e-9)
    assert ev.value == pytest.approx(res.value, abs=1e-9)
    assert not ev.satisfied  # genuine violation, well past any tolerance


def test_float_behavior_json_round_trip():
    beh = ghz_behavior(QuantumStrategy.from_angles(SNAPSHOT_ANGLES))
    d = beh.to_json_dict()
    assert d["float"] is True
    back = FloatBehavior.from_json_dict(d)
    assert back.parties == beh.parties
    for ctx in beh.table:
        for outs, v in beh.table[ctx].items():
            assert back.table[ctx][outs] == pytest.approx(v, abs=1e-15)
