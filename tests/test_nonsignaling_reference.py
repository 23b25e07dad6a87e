"""Differential tests of the nonsignaling checker against the scans it
replaced.

The reference functions below are the earlier hand-written loops: the
exact one-party scan of ``NonsignalingResource``, the float scan of
``FloatBehavior`` and the subset check.  On seeded random two- and
three-party tables (mixtures of deterministic boxes, which are
nonsignaling, and the same tables with probability mass moved inside one
column, which mostly signal) the shared checker must return the same
witness, the same float verdict and the same subset verdicts.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from boxnet.ghz import ATOL_NS, FloatBehavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    SignalingError,
    SignalingWitness,
    check_subset_nonsignaling,
)

CASES = 150


# -- reference scans -----------------------------------------------------------


def reference_witness(r: NonsignalingResource) -> SignalingWitness | None:
    n = len(r.parties)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        in_j = r.input_alphabets[j].values
        if len(in_j) < 2:
            continue
        contexts = product(*(r.input_alphabets[i].values for i in others))
        for ctx in contexts:
            marginals = []
            for xj in in_j:
                x = [0] * n
                for pos, i in enumerate(others):
                    x[i] = ctx[pos]
                x[j] = xj
                column = r.table[tuple(x)]
                marg: dict = {}
                for a, v in column.items():
                    rest = tuple(a[i] for i in others)
                    marg[rest] = marg.get(rest, Fraction(0)) + v
                marginals.append((xj, marg))
            x0, base = marginals[0]
            for xj, marg in marginals[1:]:
                for rest, v in base.items():
                    if marg[rest] != v:
                        return SignalingWitness(
                            party=r.parties[j],
                            context={r.parties[i]: ctx[pos] for pos, i in enumerate(others)},
                            inputs=(x0, xj),
                            outputs=rest,
                            values=(v, marg[rest]),
                        )
    return None


def reference_float_signals(input_alphabets, output_alphabets, table, atol) -> bool:
    n = len(input_alphabets)
    for j in range(n):
        others_in = [a.values for k, a in enumerate(input_alphabets) if k != j]
        outs_rest = list(product(*(a.values for k, a in
                                   enumerate(output_alphabets) if k != j)))
        for rest in product(*others_in):
            reference = None
            for xj in input_alphabets[j].values:
                ctx = rest[:j] + (xj,) + rest[j:]
                marg = {o: 0.0 for o in outs_rest}
                for outs, v in table[ctx].items():
                    marg[outs[:j] + outs[j + 1:]] += v
                if reference is None:
                    reference = marg
                else:
                    for o in outs_rest:
                        if abs(marg[o] - reference[o]) > atol:
                            return True
    return False


def reference_subset_passes(r: NonsignalingResource, signalers, receivers) -> bool:
    n = len(r.parties)
    sig_idx = [r.party_index(p) for p in signalers]
    recv_idx = [r.party_index(p) for p in receivers]
    rest_idx = [i for i in range(n) if i not in sig_idx and i not in recv_idx]

    def receiver_marginal(x_recv, x_sig):
        x = [0] * n
        for i, xi in zip(recv_idx, x_recv):
            x[i] = xi
        for i, xi in zip(sig_idx, x_sig):
            x[i] = xi
        for i in rest_idx:
            x[i] = r.input_alphabets[i].first
        marg: dict = {}
        for a, v in r.table[tuple(x)].items():
            key = tuple(a[i] for i in recv_idx)
            marg[key] = marg.get(key, Fraction(0)) + v
        return marg

    sig_space = list(product(*(r.input_alphabets[i].values for i in sig_idx)))
    for x_recv in product(*(r.input_alphabets[i].values for i in recv_idx)):
        base = receiver_marginal(x_recv, sig_space[0])
        for x_sig in sig_space[1:]:
            if receiver_marginal(x_recv, x_sig) != base:
                return False
    return True


# -- random tables ---------------------------------------------------------------


def random_signature(rng: random.Random):
    n = rng.choice((2, 3))
    parties = tuple("ABC"[:n])
    ins = [Alphabet.of_size(rng.randint(2, 3)) for _ in parties]
    outs = [Alphabet.of_size(rng.randint(2, 3)) for _ in parties]
    return parties, ins, outs


def deterministic_mixture(rng: random.Random, ins, outs) -> dict:
    """A convex mixture of 1-3 random local deterministic boxes, as a
    total table."""
    out_space = list(product(*(a.values for a in outs)))
    k = rng.randint(1, 3)
    cuts = sorted(rng.randint(0, 12) for _ in range(k - 1))
    weights = [Fraction(b - a, 12) for a, b in zip([0, *cuts], [*cuts, 12])]
    table = {x: {a: Fraction(0) for a in out_space}
             for x in product(*(a.values for a in ins))}
    for w in weights:
        fns = [{x: rng.choice(o.values) for x in i.values} for i, o in zip(ins, outs)]
        for x, column in table.items():
            column[tuple(f[xi] for f, xi in zip(fns, x))] += w
    return table


def perturbed(rng: random.Random, table: dict, delta_of) -> dict:
    """The table with mass ``delta_of(p)`` moved, in one random column,
    from an output of positive probability p to another output."""
    table = {x: dict(column) for x, column in table.items()}
    column = table[rng.choice(list(table))]
    src = rng.choice([a for a, v in column.items() if v > 0])
    dst = rng.choice([a for a in column if a != src])
    delta = delta_of(column[src])
    column[src] -= delta
    column[dst] += delta
    return table


def exact_cases():
    rng = random.Random(20260816)
    for _ in range(CASES):
        parties, ins, outs = random_signature(rng)
        table = deterministic_mixture(rng, ins, outs)
        if rng.random() < 0.5:
            table = perturbed(rng, table, lambda p: p * Fraction(rng.randint(1, 4), 4))
        yield NonsignalingResource.new_unchecked("t", parties, ins, outs, table)


def float_cases():
    rng = random.Random(777)
    for _ in range(CASES):
        parties, ins, outs = random_signature(rng)
        table = {x: {a: float(v) for a, v in column.items()}
                 for x, column in deterministic_mixture(rng, ins, outs).items()}
        size = rng.choice((0.0, 1e-12, 5e-11, 2e-10, 1e-3))
        if size:
            table = perturbed(rng, table, lambda p: min(p, size))
        yield parties, ins, outs, table


# -- the differential checks -------------------------------------------------------


def test_families_cover_both_verdicts():
    verdicts = {reference_witness(r) is None for r in exact_cases()}
    assert verdicts == {True, False}
    verdicts = {reference_float_signals(ins, outs, table, ATOL_NS)
                for _, ins, outs, table in float_cases()}
    assert verdicts == {True, False}


def test_exact_witness_matches_reference():
    for r in exact_cases():
        assert r._find_signaling_witness() == reference_witness(r), r.table


def test_float_verdict_matches_reference():
    for parties, ins, outs, table in float_cases():
        expected = reference_float_signals(ins, outs, table, ATOL_NS)
        try:
            FloatBehavior("t", parties, ins, outs, table)
            signals = False
        except SignalingError:
            signals = True
        assert signals == expected, table


def test_subset_verdicts_match_reference():
    for r in exact_cases():
        for k in range(1, len(r.parties)):
            for signalers in combinations(r.parties, k):
                rest = [p for p in r.parties if p not in signalers]
                for m in range(1, len(rest) + 1):
                    for receivers in combinations(rest, m):
                        expected = reference_subset_passes(r, signalers, receivers)
                        got = check_subset_nonsignaling(r, signalers, receivers).passed
                        assert got == expected, (r.table, signalers, receivers)
