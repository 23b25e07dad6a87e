"""Exact probability tables: construction, validation, marginals, conditioning."""

from __future__ import annotations

import pickle
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import boxnet.resource as resource
from boxnet.ghz import FloatBehavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    SignalingError,
    TableError,
    ZeroConditioningError,
    check_subset_nonsignaling,
    condition,
    frac,
    make_local_deterministic,
    make_pr_box,
    make_shared_randomness,
    marginal,
    _Tensor,
    validate_nonsignaling,
)

BITS = Alphabet((0, 1))


def oriented_signaler() -> NonsignalingResource:
    # R(a,b|x,y) = 1/2 if a == y: Bob's input is readable from Alice's output.
    table = {
        (x, y): {
            (a, b): (Fraction(1, 2) if a == y else Fraction(0))
            for a, b in product((0, 1), repeat=2)
        }
        for x, y in product((0, 1), repeat=2)
    }
    return NonsignalingResource.new_unchecked("sig", ("A", "B"), [BITS, BITS], [BITS, BITS], table)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    assert frac("1/3") == Fraction(1, 3)
    assert frac(2) == 2


def test_alphabet_symbols_are_integers():
    class Index:
        def __index__(self):
            return 3

    assert Alphabet((0, Index())).values == (0, 3)
    assert type(Alphabet((Index(),)).values[0]) is int
    for bad in (1.5, 1.0, "1", True, None):
        with pytest.raises(ValueError, match="not an integer"):
            Alphabet((0, bad))


def test_alphabet_of_size_refuses_a_float_size_after_an_int_one():
    assert Alphabet.of_size(2).values == (0, 1)
    for bad in (2.0, True, False):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Alphabet.of_size(bad)


def test_an_alphabet_is_the_tuple_of_its_symbols():
    a = Alphabet((3, 0, 1))
    assert Alphabet(a) is a
    assert a == tuple(a) == (3, 0, 1) and hash(a) == hash(tuple(a))
    assert hash((a, BITS)) == hash(((3, 0, 1), (0, 1)))
    assert a.values is a and a.first == 3 and repr(a) == "(3, 0, 1)"
    assert len(a) == 3 and 0 in a and 2 not in a and a.index(1) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is Alphabet and back == a
    for bad, message in (((), "alphabet must be non-empty"),
                         ((0, 1, 0), "alphabet has duplicate symbols: (0, 1, 0)"),
                         ((0, True), "alphabet symbol True is not an integer"),
                         ((0, 1.0), "alphabet symbol 1.0 is not an integer"),
                         ((0, "1"), "alphabet symbol '1' is not an integer")):
        with pytest.raises(ValueError) as refused:
            Alphabet(bad)
        assert str(refused.value) == message


def test_pr_box_is_nonsignaling_by_direct_summation():
    pr = make_pr_box()
    report = validate_nonsignaling(pr)
    assert report.passed, report.errors
    # Independent check, summed by hand here: Alice's marginal must not
    # depend on y, and Bob's must not depend on x.
    for x in (0, 1):
        for a in (0, 1):
            sums = [sum(pr.prob((x, y), (a, b)) for b in (0, 1)) for y in (0, 1)]
            assert sums[0] == sums[1] == Fraction(1, 2)
    for y in (0, 1):
        for b in (0, 1):
            sums = [sum(pr.prob((x, y), (a, b)) for a in (0, 1)) for x in (0, 1)]
            assert sums[0] == sums[1] == Fraction(1, 2)


def test_make_rejects_signaling_table():
    table = {
        (x, y): {
            (a, b): (Fraction(1, 2) if a == y else Fraction(0))
            for a, b in product((0, 1), repeat=2)
        }
        for x, y in product((0, 1), repeat=2)
    }
    with pytest.raises(SignalingError):
        NonsignalingResource.make("sig", ("A", "B"), [BITS, BITS], [BITS, BITS], table)


def test_signaling_witness_locates_bobs_input():
    r = oriented_signaler()
    report = validate_nonsignaling(r)
    assert not report.passed
    w = report.witness
    assert w.party == "B"
    # With y=0 Alice outputs 0 surely; with y=1 she outputs 1 surely.
    assert w.values[0] != w.values[1]
    assert {w.values[0], w.values[1]} <= {Fraction(0), Fraction(1)}


def test_structural_validation():
    with pytest.raises(TableError):  # column sums to 1/2
        NonsignalingResource.make(
            "bad", ("A",), [BITS], [BITS], {(0,): {(0,): "1/2"}, (1,): {(0,): 1}})
    with pytest.raises(TableError):  # missing input tuple
        NonsignalingResource.make("bad", ("A",), [BITS], [BITS], {(0,): {(0,): 1}})
    with pytest.raises(TableError):  # output outside alphabet
        NonsignalingResource.make(
            "bad", ("A",), [BITS], [BITS], {(0,): {(2,): 1}, (1,): {(0,): 1}})
    with pytest.raises(TableError):  # negative entry
        NonsignalingResource.make(
            "bad", ("A",), [BITS], [BITS],
            {(0,): {(0,): "3/2", (1,): "-1/2"}, (1,): {(0,): 1}})
    # Absent outcomes are padded to zero, so a sparse column is fine.
    r = NonsignalingResource.make(
        "ok", ("A",), [BITS], [BITS], {(0,): {(0,): 1}, (1,): {(1,): 1}})
    assert r.prob((0,), (1,)) == 0


def test_all_16_bipartite_deterministic_boxes():
    seen = set()
    for fa0, fa1, fb0, fb1 in product((0, 1), repeat=4):
        r = make_local_deterministic(
            ("A", "B"), [BITS, BITS], [BITS, BITS],
            {"A": {0: fa0, 1: fa1}, "B": {0: fb0, 1: fb1}})
        assert validate_nonsignaling(r).passed
        key = tuple(sorted((x, a) for x, col in r.table.items() for a, v in col.items() if v))
        seen.add(key)
    assert len(seen) == 16


def test_marginal_of_pr_box_is_uniform():
    pr = make_pr_box()
    m = marginal(pr, ["A"])
    assert m.parties == ("A",)
    for x in (0, 1):
        for a in (0, 1):
            assert m.prob((x,), (a,)) == Fraction(1, 2)


def test_marginal_fixed_input_choice_is_immaterial():
    pr = make_pr_box()
    m0 = marginal(pr, ["A"], fixed_inputs={"B": 0})
    m1 = marginal(pr, ["A"], fixed_inputs={"B": 1})
    assert m0.table == m1.table


def test_marginal_on_every_party_is_the_resource_or_a_renamed_copy():
    pr = make_pr_box()
    assert marginal(pr, pr.parties) is pr
    assert marginal(pr, ["B", "A"], id=pr.id) is pr
    copy = marginal(pr, pr.parties, id="copy")
    assert copy is not pr and copy.id == "copy" and copy.parties == pr.parties
    assert copy.same_table(pr)


def test_marginal_refuses_signaling_resource():
    with pytest.raises(SignalingError):
        marginal(oriented_signaler(), ["A"])


def test_condition_pr_box_on_bob():
    # Observing b=0 at y=0 forces a = x AND 0 = 0 XOR b ... i.e. a=0 surely
    # at both of Alice's inputs (x*0 = 0 always).
    pr = make_pr_box()
    c = condition(pr, ["B"], outputs=[0], inputs=[0])
    assert c.parties == ("A",)
    assert c.prob((0,), (0,)) == 1
    assert c.prob((1,), (0,)) == 1
    # Conditioning on b=0 at y=1: a = x AND 1 = x, so a tracks Alice's input.
    c2 = condition(pr, ["B"], outputs=[0], inputs=[1])
    assert c2.prob((0,), (0,)) == 1
    assert c2.prob((1,), (1,)) == 1


def test_condition_zero_probability_event_raises():
    r = make_local_deterministic(
        ("A", "B"), [BITS, BITS], [BITS, BITS],
        {"A": {0: 0, 1: 0}, "B": {0: 0, 1: 0}})
    with pytest.raises(ZeroConditioningError):
        condition(r, ["B"], outputs=[1], inputs=[0])


def test_conditioned_resource_is_again_nonsignaling():
    # Three-party box: uniform GHZ-style correlations. Condition on one
    # party and the residual bipartite table must still pass validation
    # (the constructor inside condition() enforces this; assert anyway).
    table = {}
    for x, y, z in product((0, 1), repeat=3):
        table[(x, y, z)] = {
            (a, b, c): (Fraction(1, 4) if (a ^ b ^ c) == (x & y & z) else Fraction(0))
            for a, b, c in product((0, 1), repeat=3)
        }
    r = NonsignalingResource.make("ghz-box", ("A", "B", "C"), [BITS] * 3, [BITS] * 3, table)
    c = condition(r, ["C"], outputs=[0], inputs=[1])
    assert validate_nonsignaling(c).passed
    assert c.parties == ("A", "B")


def test_iterated_conditioning_matches_one_shot():
    table = {}
    for x, y, z in product((0, 1), repeat=3):
        table[(x, y, z)] = {
            (a, b, c): (Fraction(1, 4) if (a ^ b ^ c) == (x & y & z) else Fraction(0))
            for a, b, c in product((0, 1), repeat=3)
        }
    r = NonsignalingResource.make("ghz-box", ("A", "B", "C"), [BITS] * 3, [BITS] * 3, table)
    one_shot = condition(r, ["B", "C"], outputs=[0, 1], inputs=[1, 0])
    step1 = condition(r, ["C"], outputs=[1], inputs=[0])
    step2 = condition(step1, ["B"], outputs=[0], inputs=[1])
    assert one_shot.table == step2.table


def test_subset_nonsignaling_exhaustive_on_pr():
    pr = make_pr_box()
    assert check_subset_nonsignaling(pr, ["A"], ["B"]).passed
    assert check_subset_nonsignaling(pr, ["B"], ["A"]).passed


def test_subset_nonsignaling_three_party_all_splits():
    table = {}
    for x, y, z in product((0, 1), repeat=3):
        table[(x, y, z)] = {
            (a, b, c): (Fraction(1, 4) if (a ^ b ^ c) == (x & y & z) else Fraction(0))
            for a, b, c in product((0, 1), repeat=3)
        }
    r = NonsignalingResource.make("ghz-box", ("A", "B", "C"), [BITS] * 3, [BITS] * 3, table)
    parties = ("A", "B", "C")
    for k in (1, 2):
        for sig in product(parties, repeat=k):
            if len(set(sig)) != k:
                continue
            rest = [p for p in parties if p not in sig]
            for j in range(1, len(rest) + 1):
                recv = rest[:j]
                assert check_subset_nonsignaling(r, list(sig), recv).passed, (sig, recv)


def test_subset_check_detects_signaling_direction():
    r = oriented_signaler()
    # Bob's input is visible to Alice...
    assert not check_subset_nonsignaling(r, ["B"], ["A"]).passed
    # ...but Alice's input says nothing to Bob (his output is uniform).
    assert check_subset_nonsignaling(r, ["A"], ["B"]).passed


def test_shared_randomness_and_input_free():
    coin = make_shared_randomness(("A", "B", "C"), {(0, 0, 0): "1/2", (1, 1, 1): "1/2"})
    assert coin.is_input_free()
    assert validate_nonsignaling(coin).passed
    assert coin.prob((0, 0, 0), (0, 0, 0)) == Fraction(1, 2)
    assert coin.prob((0, 0, 0), (1, 1, 1)) == Fraction(1, 2)
    assert not make_pr_box().is_input_free()
    with pytest.raises(ValueError):
        make_shared_randomness(("A",), {(0,): "1/3"})


def test_json_round_trip():
    pr = make_pr_box()
    data = pr.to_json_dict()
    back = NonsignalingResource.from_json_dict(data)
    assert back.same_table(pr)
    assert back.nonsignaling_checked
    # The unchecked flag survives serialization, so a signaling table
    # round trips for counterexample work; stripping the flag re-arms
    # the constructor check.
    sig = oriented_signaler()
    data = sig.to_json_dict()
    assert data["unchecked"] is True
    loaded = NonsignalingResource.from_json_dict(data)
    assert not loaded.nonsignaling_checked
    assert loaded.same_table(sig)
    del data["unchecked"]
    with pytest.raises(SignalingError):
        NonsignalingResource.from_json_dict(data)


def test_ternary_output_alphabet():
    # One party ternary-output, partner binary: R(2,c|x,z) = 1/6 and
    # R(a,c|x,z) = 1/3 when a XOR c = x AND z for a in {0,1}.
    tern = Alphabet((0, 1, 2))
    table = {}
    for x, z in product((0, 1), repeat=2):
        col = {}
        for a, c in product((0, 1, 2), (0, 1)):
            if a == 2:
                col[(a, c)] = Fraction(1, 6)
            elif (a ^ c) == (x & z):
                col[(a, c)] = Fraction(1, 3)
        table[(x, z)] = col
    r = NonsignalingResource.make("tern", ("A", "C"), [BITS, BITS], [tern, BITS], table)
    assert validate_nonsignaling(r).passed
    m = marginal(r, ["A"])
    assert m.prob((0,), (2,)) == Fraction(1, 3)


@pytest.mark.parametrize("inputs, outputs, bad", [
    ([True], [0], "True"), ([0.9], [0], "0.9"), ([0], [True], "True"), ([0], ["1"], "'1'")])
def test_condition_refuses_non_integer_symbols(inputs, outputs, bad):
    with pytest.raises(ValueError, match=f"alphabet symbol {bad} is not an integer"):
        condition(make_pr_box(), ["A"], outputs, inputs)


def test_condition_accepts_numpy_integers():
    got = condition(make_pr_box(), ["B"], [np.int64(0)], [np.int8(1)])
    assert got.same_table(condition(make_pr_box(), ["B"], [0], [1]))


@pytest.mark.parametrize("table, message", [
    ({(0.9,): {(0,): 1}, (1,): {(0,): 1}}, "input key (0.9,): alphabet symbol 0.9 is not"),
    ({(True,): {(0,): 1}, (0,): {(0,): 1}}, "input key (True,): alphabet symbol True"),
    ({0: {(0,): 1}, 1: {(0,): 1}}, "input key 0: 'int' object is not iterable"),
    ({(0,): {(0,): 1}, (1,): {(True,): 1}}, "input (1,): output key (True,): alphabet symbol True"),
    ({(0,): {(Fraction(0),): 1}, (1,): {(0,): 1}}, "output key (Fraction(0, 1),): alphabet symbol"),
    ({(0,): {("0",): 1}, (1,): {(0,): 1}}, "output key ('0',): alphabet symbol '0'"),
])
def test_table_keys_must_be_integer_symbols(table, message):
    """A key that equals and hashes like an int tuple, such as (True,) or
    (1.0,), is refused, not looked up or truncated."""
    with pytest.raises(TableError) as err:
        NonsignalingResource.make("k", ("A",), [BITS], [BITS], table)
    assert str(err.value).startswith("resource 'k': ") and message in str(err.value)


def test_table_keys_of_numpy_integers_are_parsed():
    table = {(np.int64(x),): {(np.int8(x),): Fraction(1)} for x in (0, 1)}
    got = NonsignalingResource.make("k", ("A",), [BITS], [BITS], table)
    assert got.prob((1,), (1,)) == 1 and got.prob((0,), (1,)) == 0


def test_prob_reads_the_array_as_the_table_view_does():
    """``prob`` reads each kind's array at the symbols' alphabet positions,
    without building the ``table`` view, and agrees with that view on
    every entry: a Fraction for an exact table, a float for a float
    behavior."""
    gaps, tern = Alphabet((3, 1)), Alphabet((2, 0, 5))
    uniform = {x: {a: Fraction(1, 6) for a in product(tern, BITS)} for x in product(gaps, BITS)}
    exact = NonsignalingResource.make("u", ("A", "B"), [gaps, BITS], [tern, BITS], uniform)
    floats = FloatBehavior("f", ("A",), [gaps], [tern], [[0.25, 0.5, 0.25], [0.5, 0.0, 0.5]])
    for r, kind in ((exact, Fraction), (make_pr_box(), Fraction), (floats, float)):
        got = {(x, a): r.prob(x, a) for x in r.input_space() for a in r.output_space()}
        assert r._table is None
        assert got == {(x, a): v for x, column in r.table.items() for a, v in column.items()}
        assert {type(v) for v in got.values()} == {kind}


@pytest.mark.parametrize("inputs, outputs, error", [
    ((0, 2), (0, 0), KeyError), ((0,), (0, 0), KeyError), ((0, 0, 0), (0, 0), KeyError),
    ((0, 0), (0, 2), KeyError), ((0, 0), (0,), KeyError),
    ((True, 0), (0, 0), ValueError), ((0, 0), (0.0, 0), ValueError), ((0, 0), 0, TypeError)])
def test_prob_refuses_tuples_outside_the_table(inputs, outputs, error):
    with pytest.raises(error):
        make_pr_box().prob(inputs, outputs)


def test_shared_randomness_refuses_non_integer_outcomes():
    with pytest.raises(ValueError, match="alphabet symbol 0.5 is not an integer"):
        make_shared_randomness(("A",), {(0.5,): 1})


@pytest.mark.parametrize("nums, message", [
    ([[1, 1], [2, 1]], "column at input (1,) sums to 3/2, not 1"),
    ([[3, -1], [1, 1]], "entry at input (0,), output (0,) is 3/2"),
    ([[2, 2, -2], [1, 1, 0]], "entry at input (0,), output (2,) is -1"),
    # The int64 column sum wraps around to the denominator.
    ([[2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 + 2], [1, 1, 0, 0]],
     f"entry at input (0,), output (0,) is {2 ** 61}"),
    # The int64 minimum is the only entry out of range, in a column that sums
    # to the denominator: read as uint64 it is 2**63, above any int64 den.
    (_Tensor(np.array([[-2 ** 63, 2 ** 62, 2 ** 62, 2 ** 62], [2 ** 62, 0, 0, 0]]), 2 ** 62),
     "entry at input (0,), output (0,) is -2"),
])
def test_malformed_tensor_is_refused(nums, message):
    """``nums`` over the denominator 2, or a whole ``_Tensor``."""
    table = nums if isinstance(nums, _Tensor) else _Tensor(np.array(nums), 2)
    want = f"resource 't': {message}"
    outputs = Alphabet.of_size(table.numerators.shape[-1])
    with pytest.raises(TableError, match=f"^{re.escape(want)}$"):
        NonsignalingResource.make("t", ("A",), [BITS], [outputs], table)


@pytest.mark.parametrize("table, fault", [
    (_Tensor(np.array([[1, 1], [2, 1]]), 2), ((1,), None, Fraction(3, 2))),
    (_Tensor(np.array([[3, -1], [1, 1]]), 2), ((0,), (0,), Fraction(3, 2))),
    ({(0,): {(0,): 1}}, None),   # a parse fault (input (1,) is missing) carries none
])
def test_table_error_carries_the_structural_fault(table, fault):
    with pytest.raises(TableError) as exc:
        NonsignalingResource.make("t", ("A",), [BITS], [BITS], table)
    assert exc.value.fault == fault
    if fault is not None:
        assert str(exc.value) == f"resource 't': {exc.value.fault}"


def test_column_sum_beyond_int64_is_exact():
    den = 2 ** 61 + 1   # int64 numerators, but four of them can sum past 2**63
    nums = np.array([[den, den, den, den - 1], [den, 0, 0, 0]])
    want = f"resource 't': column at input (0,) sums to {Fraction(4 * den - 1, den)}, not 1"
    with pytest.raises(TableError, match=f"^{re.escape(want)}$"):
        NonsignalingResource.make("t", ("A",), [BITS], [Alphabet.of_size(4)], _Tensor(nums, den))


def test_structure_is_checked_once_per_construction(monkeypatch):
    """Every table, parsed or given as a _Tensor, gets the structural check
    once, and validate_nonsignaling re-runs it on demand."""
    seen = []
    real = resource._structure_problem
    monkeypatch.setattr(resource, "_structure_problem", lambda r: seen.append(r.id) or real(r))
    half = {(x,): {(a,): Fraction(1, 2) for a in (0, 1)} for x in (0, 1)}
    mapped = NonsignalingResource.make("m", ("A",), [BITS], [BITS], half)
    tensor = NonsignalingResource.make("t", ("A",), [BITS], [BITS],
                                       _Tensor(np.ones((2, 2), dtype=np.int64), 2))
    assert seen == ["m", "t"] and mapped.same_table(tensor)
    assert validate_nonsignaling(mapped).passed
    assert seen == ["m", "t", "m"]


def test_parse_fault_is_reported_before_an_earlier_column_sum():
    """The parser reads every entry before the one structural check sums
    the columns, so a bad entry in a later column is reported ahead of a
    column that does not sum to 1 in an earlier one."""
    table = {(0,): {(0,): Fraction(1, 2)}, (1,): {(0,): Fraction(3, 2)}}
    want = ("resource 't': bad entry at input (1,), output (0,): "
            "probability out of range: 3/2")
    with pytest.raises(TableError, match=f"^{re.escape(want)}$"):
        NonsignalingResource.make("t", ("A",), [BITS], [BITS], table)
    table[(1,)] = {(0,): 1}
    with pytest.raises(TableError, match=re.escape("column at input (0,) sums to 1/2, not 1")):
        NonsignalingResource.make("t", ("A",), [BITS], [BITS], table)



@pytest.mark.parametrize("shape, count", [((2,) * 6, 36), ((2,) * 4, 4), ((3, 2, 2, 3), 11),
                                          ((3, 2, 1, 2), 4), ((2, 2), 0)])
def test_signal_rows_leave_out_one_implied_row_per_block(shape, count):
    """Per (party, input k > 0, context) block, the row of the last tuple
    of the other outputs is left out: the kept rows are the full rows
    without it, 36 of 48 for a binary three-party table and 4 of 8 for a
    binary pair.  On a table whose columns all sum to one denominator,
    each full block's rows sum to 0, so the left-out row is implied."""
    n, size = len(shape) // 2, int(np.prod(shape))
    basis = np.eye(size, dtype=np.int64).reshape(*shape, size)
    margs = [np.moveaxis(basis.sum(axis=n + j), j, 0) for j in range(n)]
    blocks = [(m[1:] - m[:1]).reshape(-1, int(np.prod(shape[n:])) // shape[n + j], size)
              for j, m in enumerate(margs)]
    rows = resource._signal_rows(shape)
    assert rows.shape == (count, size) and not rows.flags.writeable
    assert np.array_equal(rows, np.concatenate([b[:, :-1].reshape(-1, size) for b in blocks]))
    rng = np.random.default_rng(0)
    width = int(np.prod(shape[n:]))
    for _ in range(20):   # columns of random entries, each summing to 12
        cuts = np.sort(rng.integers(0, 13, (size // width, width - 1)), axis=1)
        nums = np.diff(cuts, axis=1, prepend=0, append=12).reshape(-1)
        assert all(not (b.sum(axis=1) @ nums).any() for b in blocks)
