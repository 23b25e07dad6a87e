"""Differential tests of the numerator-tensor table core against the dict
code it replaced.

The reference functions below are the earlier implementations over padded
dicts of ``Fraction``: the one-party scan and the subset check (both built
on one project-and-compare scan), the structural re-check of
``validate_nonsignaling``, ``marginal``, ``condition`` and
``bottom_encode``.  Two seeded families exercise what the older families
(alphabets ``0..n-1``, denominator 12) cannot: gapped and unsorted
alphabets such as ``Alphabet((2, 0, 5))``, where alphabet positions and
symbols differ, and tables whose denominator is beyond 2**63, where the
numerators are Python ints instead of int64.  On both, the witness, every
subset report, ``marginal``, ``condition``, ``bottom_encode``, the JSON
round trip and ``same_table`` must match the references.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest

from boxnet.ghz import ATOL_NS, FloatBehavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    SignalingError,
    ZeroConditioningError,
    check_subset_nonsignaling,
    condition,
    marginal,
    validate_nonsignaling,
)
from boxnet.wiring import bottom_encode

from test_nonsignaling_reference import check_float_witness, reference_float_signals, relaid

CASES = 40
BIG = (2 ** 61 - 1) * (2 ** 31 - 1)   # a denominator beyond 2**63


# -- reference dict code -----------------------------------------------------------


def ref_project(column, idx):
    marg = {}
    for a, v in column.items():
        key = tuple(a[i] for i in idx)
        if key in marg:
            if v:
                marg[key] += v
        else:
            marg[key] = v
    return marg


def ref_first_signal(table, input_alphabets, movers, watched):
    mover_space = list(product(*(input_alphabets[i] for i in movers)))
    if len(mover_space) < 2:
        return None
    fixed = [i for i in range(len(input_alphabets)) if i not in movers]
    x = [0] * len(input_alphabets)
    for ctx in product(*(input_alphabets[i] for i in fixed)):
        for i, xi in zip(fixed, ctx):
            x[i] = xi
        base = None
        for xm in mover_space:
            for i, xi in zip(movers, xm):
                x[i] = xi
            marg = ref_project(table[tuple(x)], watched)
            if base is None:
                x0, base = tuple(x), marg
                continue
            for key, v in base.items():
                if marg[key] != v:
                    return x0, tuple(x), key, (v, marg[key])
    return None


def ref_witness(r):
    alphabets = [a.values for a in r.input_alphabets]
    for j, party in enumerate(r.parties):
        others = [i for i in range(len(r.parties)) if i != j]
        hit = ref_first_signal(r.table, alphabets, [j], others)
        if hit is not None:
            x0, x1, outputs, values = hit
            return (party, {r.parties[i]: x0[i] for i in others}, (x0[j], x1[j]),
                    outputs, values)
    return None


def ref_subset_errors(r, signalers, receivers):
    sig_idx = [r.party_index(p) for p in signalers]
    recv_idx = [r.party_index(p) for p in receivers]
    alphabets = [a.values if i in sig_idx or i in recv_idx else (a.first,)
                 for i, a in enumerate(r.input_alphabets)]
    hit = ref_first_signal(r.table, alphabets, sig_idx, recv_idx)
    if hit is None:
        return []
    x0, x1, bad, (v0, v1) = hit
    return [f"signalers {list(signalers)} switching {tuple(x0[i] for i in sig_idx)}->"
            f"{tuple(x1[i] for i in sig_idx)} changes receivers' marginal at outputs "
            f"{bad} from {v0} to {v1} (receiver inputs {tuple(x0[i] for i in recv_idx)})"]


def ref_structure_errors(input_space, table):
    for x in input_space:
        total = sum(v for v in table[x].values() if v)
        if total != 1:
            return [f"column at input {x} sums to {total}, not 1"]
        for a, v in table[x].items():
            if not 0 <= v <= 1:
                return [f"entry at input {x}, output {a} is {v}"]
    return []


def ref_full_input(idx, values, fixed):
    x = dict(fixed)
    x.update(zip(idx, values))
    return tuple(x[i] for i in range(len(x)))


def ref_marginal_table(r, keep_idx, fixed):
    return {x_keep: ref_project(r.table[ref_full_input(keep_idx, x_keep, fixed)], keep_idx)
            for x_keep in product(*(r.input_alphabets[i].values for i in keep_idx))}


def ref_condition_table(r, obs_idx, outs, ins):
    keep_idx = [i for i in range(len(r.parties)) if i not in obs_idx]
    obs_in, obs_out = dict(zip(obs_idx, ins)), dict(zip(obs_idx, outs))
    marg = ref_marginal_table(r, obs_idx, {i: r.input_alphabets[i].first for i in keep_idx})
    denom = marg[tuple(ins)][tuple(outs)]
    if denom == 0:
        return None
    table = {}
    for x_keep in product(*(r.input_alphabets[i].values for i in keep_idx)):
        column = r.table[ref_full_input(keep_idx, x_keep, obs_in)]
        event = {a: v for a, v in column.items() if all(a[i] == obs_out[i] for i in obs_idx)}
        table[x_keep] = {key: v / denom for key, v in ref_project(event, keep_idx).items()}
    return table


def ref_bottom_encode(r):
    n = len(r.parties)
    bot_in = [max(a.values) + 1 for a in r.input_alphabets]
    bot_out = [max(a.values) + 1 for a in r.output_alphabets]
    table = {}
    for opted_out in product((False, True), repeat=n):
        active = [i for i in range(n) if not opted_out[i]]
        m = ref_marginal_table(r, active, {i: r.input_alphabets[i].first
                                           for i in range(n) if opted_out[i]})
        for x_active, column in m.items():
            x = list(bot_in)
            for pos, i in enumerate(active):
                x[i] = x_active[pos]
            out = {}
            for a_active, v in column.items():
                a = list(bot_out)
                for pos, i in enumerate(active):
                    a[i] = a_active[pos]
                out[tuple(a)] = v
            table[tuple(x)] = out
    return NonsignalingResource.make(
        f"{r.id}+optout", r.parties,
        [Alphabet(a.values + (b,)) for a, b in zip(r.input_alphabets, bot_in)],
        [Alphabet(a.values + (b,)) for a, b in zip(r.output_alphabets, bot_out)], table)


def padded(r, mapping):
    """The dense table the constructor was given, zeros filled in."""
    return {x: {a: Fraction(mapping[x].get(a, 0)) for a in r.output_space()}
            for x in r.input_space()}


# -- seeded families ----------------------------------------------------------------


def gapped_alphabet(rng: random.Random, size: int) -> Alphabet:
    return Alphabet(tuple(rng.sample(range(7), size)))


def mixture_table(rng: random.Random, ins, outs, den: int, parts: tuple[int, int]) -> dict:
    """A convex mixture of local deterministic boxes with weights over
    ``den``; only nonzero entries are listed."""
    k = rng.randint(*parts)
    cuts = sorted(rng.randrange(1, den) for _ in range(k - 1))
    table = {x: {} for x in product(*(a.values for a in ins))}
    for lo, hi in zip([0, *cuts], [*cuts, den]):
        fns = [{x: rng.choice(o.values) for x in i.values} for i, o in zip(ins, outs)]
        for x, column in table.items():
            a = tuple(f[xi] for f, xi in zip(fns, x))
            column[a] = column.get(a, 0) + Fraction(hi - lo, den)
    return table


def moved_mass(rng: random.Random, table: dict, outs) -> dict:
    """The table with part of one entry's mass moved to another output of
    the same column; usually signaling."""
    table = {x: dict(column) for x, column in table.items()}
    column = table[rng.choice(list(table))]
    src = rng.choice(list(column))
    dst = rng.choice([a for a in product(*(o.values for o in outs)) if a != src])
    delta = column[src] * Fraction(rng.randint(1, 4), 4)
    column[src] -= delta
    column[dst] = column.get(dst, 0) + delta
    return table


def family(seed: int, den: int, parts: tuple[int, int]):
    """(resource, the mapping it was built from) pairs over gapped,
    unsorted alphabets; half of them with mass moved."""
    rng = random.Random(seed)
    for case in range(CASES):
        n = rng.choice((2, 3))
        parties = tuple("ABC"[:n])
        ins = [gapped_alphabet(rng, rng.randint(2, 3)) for _ in parties]
        outs = [gapped_alphabet(rng, rng.randint(2, 3)) for _ in parties]
        if case == 0:
            ins[0] = Alphabet((2, 0, 5))
        table = mixture_table(rng, ins, outs, den, parts)
        if rng.random() < 0.5:
            table = moved_mass(rng, table, outs)
        yield NonsignalingResource.new_unchecked(f"t{case}", parties, ins, outs, table), table


def gapped_cases():
    return family(31415, 12, (1, 3))


def big_cases():
    return family(27182, BIG, (2, 3))


FAMILIES = {"gapped": gapped_cases, "big": big_cases}


# -- the differential checks -----------------------------------------------------------


def test_families_cover_what_they_are_for():
    for name, cases in FAMILIES.items():
        rs = [r for r, _ in cases()]
        assert {ref_witness(r) is None for r in rs} == {True, False}, name
        assert any(a.values != tuple(sorted(a.values)) for r in rs for a in r.input_alphabets)
    assert all(r.numerators.dtype == object and r.denominator >= 2 ** 63
               for r, _ in big_cases())
    assert all(r.numerators.dtype == np.int64 for r, _ in gapped_cases())


@pytest.mark.parametrize("name", FAMILIES)
def test_table_view_matches_the_given_mapping(name):
    for r, mapping in FAMILIES[name]():
        expected = padded(r, mapping)
        assert list(r.table.items()) == list(expected.items())
        assert r.denominator == lcm(*(v.denominator for col in expected.values()
                                      for v in col.values()))
        zeros = {id(v) for col in r.table.values() for v in col.values() if v == 0}
        assert len(zeros) <= 1


@pytest.mark.parametrize("name", FAMILIES)
def test_witness_and_validation_match_reference(name):
    for r, _ in FAMILIES[name]():
        expected = ref_witness(r)
        w = r._find_signaling_witness()
        got = None if w is None else (w.party, w.context, w.inputs, w.outputs, w.values)
        assert got == expected, r.table
        report = validate_nonsignaling(r)
        assert report.passed == (expected is None)
        assert report.witness == w
        assert r.nonsignaling_checked == (expected is None)


@pytest.mark.parametrize("name", FAMILIES)
def test_subset_reports_match_reference(name):
    for r, _ in FAMILIES[name]():
        for k in range(1, len(r.parties)):
            for signalers in combinations(r.parties, k):
                rest = [p for p in r.parties if p not in signalers]
                for m in range(1, len(rest) + 1):
                    for receivers in combinations(rest, m):
                        for order in (receivers, receivers[::-1]):
                            report = check_subset_nonsignaling(r, signalers[::-1], order)
                            assert report.errors == ref_subset_errors(r, signalers[::-1], order)


@pytest.mark.parametrize("name", FAMILIES)
def test_subset_reports_with_an_empty_group_match_reference(name):
    for r, _ in FAMILIES[name]():
        for signalers, receivers in (((), ()), ((), r.parties), (r.parties[::-1], ())):
            report = check_subset_nonsignaling(r, signalers, receivers)
            assert report.errors == ref_subset_errors(r, signalers, receivers) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_marginal_condition_and_bottom_encode_match_reference(name):
    rng = random.Random(16180)
    checked = 0
    for r, _ in FAMILIES[name]():
        if ref_witness(r) is not None:
            with pytest.raises(SignalingError):
                marginal(r, r.parties[:1])
            continue
        validate_nonsignaling(r)
        n = len(r.parties)
        for size in range(1, n):
            for keep_idx in combinations(range(n), size):
                fixed = {i: rng.choice(r.input_alphabets[i].values)
                         for i in range(n) if i not in keep_idx}
                got = marginal(r, [r.parties[i] for i in keep_idx],
                               fixed_inputs={r.parties[i]: x for i, x in fixed.items()})
                ref = ref_marginal_table(r, list(keep_idx), fixed)
                assert list(got.table.items()) == list(ref.items())
                assert got.same_table(NonsignalingResource.make(
                    "m", got.parties, got.input_alphabets, got.output_alphabets, ref))

                obs_idx = [i for i in range(n) if i not in keep_idx]
                observed = [r.parties[i] for i in obs_idx]
                ins = [rng.choice(r.input_alphabets[i].values) for i in obs_idx]
                outs = [rng.choice(r.output_alphabets[i].values) for i in obs_idx]
                ref = ref_condition_table(r, obs_idx, outs, ins)
                if ref is None:
                    with pytest.raises(ZeroConditioningError):
                        condition(r, observed, outs, ins)
                    continue
                got = condition(r, observed, outs, ins)
                assert got.id == f"{r.id}|{','.join(observed)}"
                assert list(got.table.items()) == list(ref.items())
                checked += 1
        ext = bottom_encode(r)
        ref = ref_bottom_encode(r)
        assert ext.same_table(ref)
        assert list(ext.table.items()) == list(ref.table.items())
    assert checked > 20


@pytest.mark.parametrize("name", FAMILIES)
def test_json_round_trip_and_same_table(name):
    previous = None
    for r, mapping in FAMILIES[name]():
        data = r.to_json_dict()
        assert data["table"] == {
            ",".join(map(str, x)): {",".join(map(str, a)): f"{v.numerator}/{v.denominator}"
                                    for a, v in col.items()}
            for x, col in padded(r, mapping).items()}
        back = NonsignalingResource.from_json_dict(json.loads(json.dumps(data)))
        assert back.same_table(r) and back.to_json_dict() == data

        # The same table written with unreduced fractions and listed zeros.
        twin = NonsignalingResource.new_unchecked(
            "twin", r.parties, r.input_alphabets, r.output_alphabets,
            {x: {a: f"{3 * v.numerator}/{3 * v.denominator}" for a, v in col.items()}
             for x, col in r.table.items()})
        assert twin.same_table(r) and twin.denominator == r.denominator
        assert np.array_equal(twin.numerators, r.numerators)
        if previous is not None and previous.same_signature(r):
            assert previous.same_table(r) == (previous.table == r.table)
        previous = r


@pytest.mark.parametrize("name", FAMILIES)
def test_structural_recheck_matches_reference(name):
    """Forged numerators (one entry pushed past the denominator or below
    zero, with or without its column still summing to it) give the
    reference's message, stored in C order and out of it."""
    rng, layout = random.Random(11235), random.Random(4242)
    for r, _ in FAMILIES[name]():
        width = len(list(r.output_space()))
        for shift in (r.denominator + 1, -r.denominator - 1):
            forged = r.numerators.copy().reshape(-1, width)
            row, col = rng.randrange(len(forged)), rng.randrange(width)
            forged[row, col] += shift
            if rng.random() < 0.5:
                forged[row, (col + 1) % width] -= shift
            fake = NonsignalingResource.new_unchecked("f", r.parties, r.input_alphabets,
                                                      r.output_alphabets, r.table)
            table = {x: {a: Fraction(int(v), r.denominator) for a, v in zip(r.output_space(), nums)}
                     for x, nums in zip(r.input_space(), forged.tolist())}
            expected = ref_structure_errors(r.input_space(), table)
            forged = forged.reshape(r.numerators.shape)
            for stored in (forged, relaid(forged, layout)):
                fake.numerators = stored
                assert expected and validate_nonsignaling(fake).errors == expected


def test_float_verdicts_on_gapped_alphabets():
    for r, _ in gapped_cases():
        table = {x: {a: float(v) for a, v in col.items()} for x, col in r.table.items()}
        expected = reference_float_signals(r.input_alphabets, r.output_alphabets, table, ATOL_NS)
        try:
            FloatBehavior("f", r.parties, r.input_alphabets, r.output_alphabets, table)
            signals = False
        except SignalingError:
            signals = True
        assert signals == expected


def test_float_witness_on_gapped_alphabets():
    signals = set()
    for r, _ in gapped_cases():
        table = {x: {a: float(v) for a, v in col.items()} for x, col in r.table.items()}
        signals.add(check_float_witness(r.parties, r.input_alphabets, r.output_alphabets, table))
    assert signals == {True, False}
