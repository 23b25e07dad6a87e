"""Differential tests of the array-read inequality evaluation against the
dict loops it replaced.

The reference functions below are the earlier implementations, which
walked the dense ``table`` view of a behavior entry by entry:
``correlator``, ``evaluate``, ``evaluate_cao_s14``,
``functional_difference`` and the dict construction of a
``FloatBehavior`` (with the per-entry GHZ table it was built from).
``ref_term_rows`` compiles correlator rows and signs afresh on every
call, as ``_term_rows`` did before its results were cached.
Exact results must be ``==`` to the references with the same type, and
float results bit-identical: the references add left to right from 0, as
the built-in ``sum`` of Python 3.11 does, and so must the arrays.

Families: seeded exact mixtures over two and three parties with output
alphabets ``(0, 1)``, ``(1, 0)`` and a single symbol, gapped input
alphabets for ``correlator``, a denominator of (2**61-1)(2**31-1) that
forces Python-int numerators, induced behaviors of random wired networks,
float copies of exact tables, and seeded random GHZ behaviors.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np
import pytest

from boxnet.decompose import local_deterministic_vertices, ns_vertices_222
from boxnet.ghz import ATOL_NORM, FloatBehavior, QuantumStrategy, _GHZ, _observable, ghz_behavior
from boxnet import inequality
from boxnet.inequality import (
    LinearInequality,
    _functional_step,
    _term,
    _term_rows,
    _values,
    cao_inequality,
    cao_s14_linearized,
    chao_reichardt_correlator,
    correlator,
    deterministic_behaviors,
    evaluate,
    evaluate_cao_s14,
    functional_difference,
    mao_inequality,
    relabel_output,
)
from boxnet.network import induced_behavior
from boxnet.resource import Alphabet, NonsignalingResource, TableError, _Tensor, frac

from netgen import random_wired_pairwise_network

BIG_DEN = (2 ** 61 - 1) * (2 ** 31 - 1)
SIGN = {0: 1, 1: -1}


# -- the retired dict loops -----------------------------------------------------------


def ref_correlator(b, parties, settings):
    b.require_nonsignaling("correlator")
    setting_of = dict(zip(parties, settings))
    indices = [b.party_index(p) for p in parties]
    inputs = tuple(setting_of.get(p, b.input_alphabet(p).first) for p in b.parties)
    total = 0
    for outs, v in b.table[inputs].items():
        if v:
            sign = 1
            for i in indices:
                sign = sign if outs[i] == 0 else -sign
            total += sign * v
    return total


def ref_evaluate(ineq, b):
    # The loop is the built-in ``sum`` of Python 3.11 written out.
    value = 0
    for t in ineq.terms:
        value += t.coefficient * ref_correlator(b, t.parties, t.settings)
    return value


def ref_cao_s14(b):
    ia, ib, ic = (b.party_index(p) for p in ("A", "B", "C"))

    def column(x, y, z):
        inputs = [0] * len(b.parties)
        inputs[ia], inputs[ib], inputs[ic] = x, y, z
        return b.table[tuple(inputs)]

    c1 = ref_correlator(b, ("C",), (1,))
    half = Fraction(1, 2)
    patterns = {
        1: {(0, 0): 1, (0, 1): 1, (1, 0): -1, (1, 1): 1},
        0: {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1},
    }
    prefactor = {1: (1 - c1) * half, 0: (1 + c1) * half}
    value = 0
    for c, pattern in patterns.items():
        if prefactor[c] == 0:
            continue
        group = 0
        for (x, y), sign in pattern.items():
            num = 0
            den = 0
            for outs, v in column(x, y, 1).items():
                if outs[ic] == c and v:
                    den += v
                    num += SIGN[outs[ia]] * SIGN[outs[ib]] * v
            if den == 0:
                raise AssertionError(
                    "conditioning probability vanished in one context but "
                    "not in the single-party marginal; behavior is signaling")
            group += sign * (num / den)
        value += prefactor[c] * group
    return value + ref_correlator(b, ("A", "B"), (0, 2)) + ref_correlator(b, ("B", "C"), (2, 0))


def ref_functional_difference(first, second, behaviors):
    if first.settings_counts != second.settings_counts:
        return (f"scenario mismatch: {first.settings_counts} vs "
                f"{second.settings_counts}")
    if first.bound != second.bound:
        return f"bounds differ: {first.bound} vs {second.bound}"
    for b in behaviors:
        v1, v2 = ref_evaluate(first, b), ref_evaluate(second, b)
        if v1 != v2:
            return f"behavior {b.id}: {v1} != {v2}"
    return None


def ref_float_table(input_alphabets, output_alphabets, table):
    """The dict a FloatBehavior used to store, or its TableError text."""
    outs_space = list(product(*(a.values for a in output_alphabets)))
    full = {}
    for ctx in product(*(a.values for a in input_alphabets)):
        col = table[ctx]
        full[ctx] = {o: float(col.get(o, 0.0)) for o in outs_space}
        for o, v in full[ctx].items():
            if v < -ATOL_NORM or v > 1 + ATOL_NORM:
                return f"probability {v} out of range at {ctx} {o}"
        s = sum(full[ctx].values())
        if abs(s - 1) > ATOL_NORM:
            return f"column {ctx} sums to {s}, not 1"
    return full


def ref_ghz_table(strategy):
    projectors = {}
    for p in ("A", "B", "C"):
        eye = np.eye(2)
        projectors[p] = [((eye + _observable(ms.angle)) / 2, (eye - _observable(ms.angle)) / 2)
                         for ms in strategy.settings[p]]
    table = {}
    for ctx in product(*(range(len(strategy.settings[p])) for p in ("A", "B", "C"))):
        col = {}
        for outs in product((0, 1), repeat=3):
            op = np.kron(np.kron(projectors["A"][ctx[0]][outs[0]],
                                 projectors["B"][ctx[1]][outs[1]]),
                         projectors["C"][ctx[2]][outs[2]])
            col[outs] = float(_GHZ @ op @ _GHZ)
        table[ctx] = col
    return table


# -- comparison ------------------------------------------------------------------------


def same(new, ref) -> bool:
    """``==`` with the same type; floats bit for bit, signed zeros included."""
    if isinstance(ref, float):
        return type(new) is float and new.hex() == ref.hex()
    return type(new) is type(ref) and new == ref


def same_tables(new, ref) -> bool:
    return new.keys() == ref.keys() and all(
        new[x].keys() == ref[x].keys() and all(same(new[x][a], ref[x][a]) for a in ref[x])
        for x in ref)


# -- families --------------------------------------------------------------------------


def mixture(rng, rid, vertices, den):
    """A random convex mixture of up to four vertices, over ``den``."""
    members = rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
    cuts = sorted(rng.randrange(den + 1) for _ in members[1:])
    weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    scale = lcm(*(v.denominator for v in members))
    nums = sum(w * (scale // v.denominator) * v.numerators.astype(object)
               for w, v in zip(weights, members))
    v0 = members[0]
    return NonsignalingResource.make(rid, v0.parties, v0.input_alphabets, v0.output_alphabets,
                                     _Tensor(nums, den * scale))


OUTPUT_ALPHABETS = [(0, 1), (1, 0), (0,), (1,)]


def exact_family(rng, settings_counts, count, *, gapped=False):
    """Mixtures over random output alphabets within {0, 1}; inputs 0..k-1
    or, with ``gapped``, unsorted symbols with holes."""
    parties = tuple(sorted(settings_counts))
    out = []
    for i in range(count):
        ins = [Alphabet(tuple(rng.sample(range(7), k)) if gapped else tuple(range(k)))
               for k in settings_counts.values()]
        outs = [Alphabet(rng.choice(OUTPUT_ALPHABETS)) for _ in parties]
        vertices = local_deterministic_vertices(parties, ins, outs).vertices
        den = BIG_DEN if i % 4 == 0 else rng.choice([2, 6, 12, 35, 1024])
        out.append(mixture(rng, f"m{i}", vertices, den))
    return out


def float_copy(r):
    return FloatBehavior(f"{r.id}~f", r.parties, r.input_alphabets, r.output_alphabets,
                         {x: {a: float(v) for a, v in col.items()} for x, col in r.table.items()})


def random_ghz(rng, b_settings):
    angle = lambda: rng.uniform(-2 * math.pi, 2 * math.pi)  # noqa: E731
    return QuantumStrategy.from_angles({"A": (angle(), angle()),
                                        "B": tuple(angle() for _ in range(b_settings)),
                                        "C": (angle(), angle())})


def ghz_einsum(strategy):
    """The strategy's GHZ behavior from one contraction: the same physics
    as ``ghz_behavior``, rounded differently, at a fraction of the cost."""
    psi = _GHZ.reshape(2, 2, 2)
    eye = np.eye(2)
    proj = [np.array([[(eye + _observable(ms.angle)) / 2, (eye - _observable(ms.angle)) / 2]
                      for ms in strategy.settings[p]]) for p in ("A", "B", "C")]
    probs = np.einsum("ijk,xaip,ybjq,zckr,pqr->xyzabc", psi, *proj, psi)
    ins = [Alphabet.of_size(len(strategy.settings[p])) for p in ("A", "B", "C")]
    return FloatBehavior("ghz", ("A", "B", "C"), ins, [Alphabet((0, 1))] * 3, probs)


def random_inequality(rng, settings_counts):
    parties = sorted(settings_counts)
    terms = []
    for _ in range(rng.randint(1, 6)):
        support = rng.sample(parties, rng.randint(1, len(parties)))
        terms.append(_term(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])),
                           **{p: rng.randrange(settings_counts[p]) for p in support}))
    return LinearInequality("rnd", tuple(terms), frac(1), settings_counts)


def supports(settings_counts):
    parties = sorted(settings_counts)
    for k in range(1, len(parties) + 1):
        for named in combinations(parties, k):
            for settings in product(*(range(settings_counts[p]) for p in named)):
                yield named, settings


S222 = {"A": 2, "B": 2, "C": 2}
S232 = {"A": 2, "B": 3, "C": 2}
NAMED_222 = [mao_inequality(), chao_reichardt_correlator(), cao_inequality()]


# -- tests -----------------------------------------------------------------------------


def test_families_reach_the_cases_they_name():
    rng = random.Random(0)
    family = exact_family(rng, S222, 40)
    assert any(r.numerators.dtype == object for r in family)
    assert any(r.numerators.dtype == np.int64 for r in family)
    alphabets = {a.values for r in family for a in r.output_alphabets}
    assert alphabets == set(OUTPUT_ALPHABETS)


def test_exact_correlators_and_values_match():
    rng = random.Random(1)
    cases = [(S222, exact_family(rng, S222, 60)), (S232, exact_family(rng, S232, 40)),
             ({"A": 2, "B": 2}, exact_family(rng, {"A": 2, "B": 2}, 40)),
             ({"A": 2, "B": 2}, [mixture(rng, f"ns{i}", ns_vertices_222().vertices, 60)
                                 for i in range(20)]),
             ({"A": 3, "B": 2}, exact_family(rng, {"A": 3, "B": 2}, 20))]
    nets = [induced_behavior(random_wired_pairwise_network(rng, name=f"w{i}"))
            for i in range(15)]
    cases.append((S222, [b for b in nets
                         if all(a.values == (0, 1) for a in b.input_alphabets)
                         and all(set(a.values) <= {0, 1} for a in b.output_alphabets)]))
    assert len(cases[-1][1]) >= 5
    for counts, behaviors in cases:
        inequalities = [random_inequality(rng, counts) for _ in range(5)]
        if counts == S222:
            inequalities += NAMED_222
        if counts == S232:
            inequalities.append(cao_s14_linearized())
        for b in behaviors:
            for named, settings in supports(counts):
                assert same(correlator(b, named, settings), ref_correlator(b, named, settings))
            for ineq in inequalities:
                assert same(evaluate(ineq, b).value, ref_evaluate(ineq, b)), (ineq, b.id)


def test_correlators_on_gapped_input_alphabets():
    rng = random.Random(2)
    for counts in (S222, {"A": 3, "B": 2}, S232):
        for b in exact_family(rng, counts, 15, gapped=True):
            for named in (p for k in range(1, len(b.parties) + 1)
                          for p in combinations(b.parties, k)):
                for settings in product(*(b.input_alphabet(p).values for p in named)):
                    assert same(correlator(b, named, settings),
                                ref_correlator(b, named, settings))


def check_ghz_values(beh, b_settings):
    if b_settings == 2:
        for ineq in NAMED_222:
            assert same(evaluate(ineq, beh).value, ref_evaluate(ineq, beh))
    else:
        assert same(evaluate(cao_s14_linearized(), beh).value,
                    ref_evaluate(cao_s14_linearized(), beh))
        assert same(evaluate_cao_s14(beh).value, ref_cao_s14(beh))


def test_ghz_floats_are_bit_identical():
    rng = random.Random(3)
    for i in range(1200):
        b_settings = 2 if i % 2 else 3
        beh = ghz_einsum(random_ghz(rng, b_settings))
        check_ghz_values(beh, b_settings)
        if i % 50 == 0:
            counts = {"A": 2, "B": b_settings, "C": 2}
            for named, settings in supports(counts):
                assert same(correlator(beh, named, settings),
                            ref_correlator(beh, named, settings))


def test_ghz_behavior_matches_the_per_entry_build():
    rng = random.Random(6)
    for i in range(60):
        b_settings = 2 if i % 2 else 3
        strategy = random_ghz(rng, b_settings)
        beh = ghz_behavior(strategy)
        assert same_tables(beh.table, ref_ghz_table(strategy))
        check_ghz_values(beh, b_settings)


def test_float_copies_of_exact_tables_are_bit_identical():
    rng = random.Random(4)
    for counts, inequalities in ((S222, NAMED_222), (S232, [cao_s14_linearized()])):
        for r in exact_family(rng, counts, 40):
            f = float_copy(r)
            for ineq in inequalities + [random_inequality(rng, counts)]:
                assert same(evaluate(ineq, f).value, ref_evaluate(ineq, f))
            if counts == S232:
                try:
                    want = ref_cao_s14(f)
                except AssertionError as e:
                    with pytest.raises(AssertionError, match=str(e)):
                        evaluate_cao_s14(f)
                else:
                    assert same(evaluate_cao_s14(f).value, want)


def test_float_construction_matches_the_dict_build():
    rng = random.Random(5)
    bits = Alphabet((0, 1))
    for i in range(300):
        n = 2 + i % 3 // 2            # two parties, or three (eight outputs)
        ins = [bits] * n
        outs = [Alphabet(rng.choice([(0, 1), (1, 0)]))] + [bits] * (n - 1)
        if i % 3 == 0:
            # Product columns, the same at every input: nonsignaling, and
            # they pass unless rounding moves a sum past the tolerance.
            ps = [rng.random() for _ in range(n)]
            col = {a: math.prod(p if s else 1 - p for p, s in zip(ps, a))
                   for a in product((0, 1), repeat=n) if rng.random() < 0.9 or any(a)}
            table = {x: col for x in product((0, 1), repeat=n)}
        else:
            table = {x: {a: rng.choice([0.25, 0.0, -0.0, 0.1, 1 / 3, 0.7, -1e-13, 2.0,
                                        float("inf"), 0.5 + 1e-13])
                         for a in product((0, 1), repeat=n) if rng.random() < 0.8}
                     for x in product((0, 1), repeat=n)}
        want = ref_float_table(ins, outs, table)
        parties = ("A", "B", "C")[:n]
        if isinstance(want, str):
            with pytest.raises(TableError) as err:
                FloatBehavior("f", parties, ins, outs, table)
            assert str(err.value) == want
        else:
            assert same_tables(FloatBehavior("f", parties, ins, outs, table).table, want)


def test_nan_is_refused_where_the_dict_build_let_it_through():
    bits = Alphabet((0, 1))
    table = {x: {(0,): float("nan")} for x in ((0,), (1,))}
    assert isinstance(ref_float_table([bits], [bits], table), dict)
    with pytest.raises(TableError, match="probability nan out of range at"):
        FloatBehavior("f", ("A",), [bits], [bits], table)


def test_cao_s14_zero_prefactor_and_vanished_conditioning():
    # Deterministic vertices have <C1> = +/-1, so one group's prefactor is 0.
    for b in deterministic_behaviors(S232):
        assert same(evaluate_cao_s14(b).value, ref_cao_s14(b))
        f = float_copy(b)
        assert same(evaluate_cao_s14(f).value, ref_cao_s14(f))
    # C never outputs 1 in context (1, 0, 1) but does elsewhere: a signaling
    # table, flagged as checked to reach the division.
    bits, b3 = Alphabet((0, 1)), Alphabet((0, 1, 2))
    table = {(x, y, z): ({a: Fraction(1, 4) for a in product((0, 1), (0, 1), (0,))}
                         if (x, y, z) == (1, 0, 1) else
                         {a: Fraction(1, 8) for a in product((0, 1), repeat=3)})
             for x, y, z in product((0, 1), (0, 1, 2), (0, 1))}
    forged = NonsignalingResource.new_unchecked("forged", ("A", "B", "C"), [bits, b3, bits],
                                                [bits] * 3, table)
    forged.nonsignaling_checked = True
    for evaluator in (ref_cao_s14, lambda b: evaluate_cao_s14(b).value):
        with pytest.raises(AssertionError, match="conditioning probability vanished"):
            evaluator(forged)


def test_chain_witness_text_for_mutated_coefficients():
    v222 = deterministic_behaviors(S222)
    relabeled = relabel_output(mao_inequality(), "B", 1)
    for k, t in enumerate(relabeled.terms):
        for delta in (1, -1, Fraction(1, 2), -t.coefficient):
            terms = list(relabeled.terms)
            terms[k] = _term(t.coefficient + delta, **dict(zip(t.parties, t.settings)))
            mutated = LinearInequality("mutated", tuple(terms), relabeled.bound, S222)
            want = ref_functional_difference(relabeled, mutated, v222)
            assert want is not None
            assert functional_difference(relabeled, mutated, v222) == want
            step = _functional_step("x", "mutated", relabeled, mutated, v222)
            assert not step.passed and step.witness == want
    assert functional_difference(relabeled, relabeled, v222) is None
    wrong_bound = LinearInequality("wb", relabeled.terms, frac(5), S222)
    assert functional_difference(relabeled, wrong_bound, v222) == \
        ref_functional_difference(relabeled, wrong_bound, v222)


def test_functional_difference_on_mixed_denominators():
    # One stack of exact behaviors whose denominators differ, Python-int
    # numerators included: each row keeps its own denominator.
    rng = random.Random(7)
    vertices = deterministic_behaviors(S222)
    behaviors = [mixture(rng, f"m{i}", vertices, BIG_DEN if i % 3 == 0 else 2 + i)
                 for i in range(30)]
    assert len({b.denominator for b in behaviors}) > 10
    for _ in range(20):
        first, second = random_inequality(rng, S222), random_inequality(rng, S222)
        assert all(same(v, ref_evaluate(first, b))
                   for v, b in zip(_values(first, behaviors), behaviors))
        assert functional_difference(first, second, behaviors) == \
            ref_functional_difference(first, second, behaviors)
        assert functional_difference(first, first, behaviors) is None


def ref_term_rows(b, supports):
    rows, signs = [], []
    for parties, settings in supports:
        idx = [b.party_index(p) for p in parties]
        x = [0] * len(b.parties)
        for i, s in zip(idx, settings):
            x[i] = b.input_alphabets[i].values.index(s)
        rows.append(int(np.ravel_multi_index(x, [len(a) for a in b.input_alphabets])))
        signs.append([math.prod(SIGN[a[i]] for i in idx) for a in b.output_space()])
    width = math.prod(len(a) for a in b.output_alphabets)
    return rows, np.array(signs, dtype=np.int64).reshape(len(rows), width)


def test_cached_term_rows_match_the_uncached_build():
    """Over behaviors of many signatures (gapped inputs, output alphabets
    (0, 1), (1, 0) and single symbols), every support list gives the
    rows and signs compiled afresh, read-only, from a bounded cache."""
    compiled = inequality._compiled_rows
    compiled.cache_clear()
    rng = random.Random(11)
    behaviors = [b for counts in (S222, S232, {"A": 3, "B": 2})
                 for gapped in (False, True) for b in exact_family(rng, counts, 20, gapped=gapped)]
    calls = 0
    for b in behaviors:
        every = [(named, tuple(b.input_alphabet(p).values[k] for p, k in zip(named, ks)))
                 for named, ks in supports({p: len(b.input_alphabet(p)) for p in b.parties})]
        for terms in (every, rng.sample(every, 5), rng.sample(every, 3)):
            for _ in range(2):   # the second call is read from the cache
                rows, signs = _term_rows(b, terms)
                want_rows, want_signs = ref_term_rows(b, terms)
                assert rows.tolist() == want_rows
                assert signs.dtype == want_signs.dtype and np.array_equal(signs, want_signs)
                assert not rows.flags.writeable and not signs.flags.writeable
                calls += 1
    info = compiled.cache_info()
    assert info.hits + info.misses == calls and info.hits >= calls // 2
    assert info.maxsize == 256 and info.currsize == min(info.misses, 256)
    assert info.misses > 256   # more signatures and support lists than the cache holds


# -- integer values against one Fraction per correlator ------------------------------------


def ref_values(ineq, behaviors):
    """``_values`` on exact behaviors as it was: one ``Fraction`` per
    correlator, then an object-dtype product with the coefficients."""
    rows, vectors = _term_rows(behaviors[0], [t.support for t in ineq.terms])
    width = vectors.shape[-1]
    cols = np.stack([b.numerators.reshape(-1, width)[rows] for b in behaviors])
    sums = (vectors * cols).sum(axis=-1).tolist()
    corrs = np.array([[Fraction(v, b.denominator) for v in row]
                      for row, b in zip(sums, behaviors)], dtype=object)
    return list(corrs @ np.array([t.coefficient for t in ineq.terms], dtype=object))


def test_integer_values_match_a_fraction_per_correlator():
    """On stacks of exact behaviors (Python-int numerators among them) and
    inequalities with non-integer coefficients, each value is ``==`` to the
    reference's, a ``Fraction`` in lowest terms."""
    rng = random.Random(12)
    halves = LinearInequality("halves", (_term(Fraction(1, 2), A=0, B=1),
                                         _term(Fraction(-7, 3), A=1, C=0),
                                         _term(Fraction(5, 6), A=1, B=0, C=1)), frac(1), S222)
    for counts, extra in ((S222, NAMED_222 + [halves]), (S232, [cao_s14_linearized()]),
                          ({"A": 3, "B": 2}, [])):
        vertices = deterministic_behaviors(counts)
        stack = [mixture(rng, f"m{i}", vertices, BIG_DEN if i % 3 == 0 else rng.choice(
            [2, 6, 35, 1024])) for i in range(24)]   # one signature
        family = exact_family(rng, counts, 24)       # output alphabets vary
        for behaviors in (stack, family):
            assert {b.numerators.dtype for b in behaviors} == {np.dtype(np.int64), np.dtype(object)}
            assert any(b.denominator >= 2 ** 63 for b in behaviors)
        for ineq in extra + [random_inequality(rng, counts) for _ in range(12)]:
            got, want = _values(ineq, stack), ref_values(ineq, stack)
            assert len(got) == len(stack) and all(same(g, w) for g, w in zip(got, want)), ineq
            for b in family:
                assert same(_values(ineq, [b])[0], ref_values(ineq, [b])[0]), (ineq, b.id)
    assert any(t.coefficient.denominator > 1 for t in halves.terms)


def test_derivation_chain_is_unchanged_by_integer_values(monkeypatch):
    """Every step of the chain, scored through ``_values``, reads the same
    with the reference in its place."""
    report = inequality.verify_derivation_chain()
    monkeypatch.setattr(inequality, "_values", ref_values)
    assert report == inequality.verify_derivation_chain()
    assert report.all_passed and len(report.steps) == 6
