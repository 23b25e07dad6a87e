"""Differential tests of the nonsignaling checker against the scans it
replaced.

The reference functions below are the earlier hand-written loops: the
exact one-party scan of ``NonsignalingResource``, the float scan of
``FloatBehavior`` and the subset check.  On seeded random two- and
three-party tables (mixtures of deterministic boxes, which are
nonsignaling, and the same tables with probability mass moved inside one
column, which mostly signal) the shared checker must return the same
witness, the same float verdict and the same subset verdicts.

``reference_moves`` is the exact cheap test as it was before party j's
output axis was summed by slice adds: ``sum(axis=...)`` and one
broadcast comparison.  On arrays stored out of C order (PR-chain
behaviors as the contraction returns them, and random tables copied in a
shuffled axis order), on 4-6 parties with alphabets of size one, on
numerators beyond 2**63 and on tables with one entry's mass moved, the
slice-add test must give ``reference_moves``'s verdict for every party
and the scan ``reference_witness``'s witness.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from boxnet.ghz import ATOL_NS, FloatBehavior
from boxnet.network import induced_behavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    SignalingError,
    SignalingWitness,
    _input_moves_marginal,
    _Tensor,
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


def reference_moves(arr: np.ndarray, j: int) -> bool:
    marg = arr.sum(axis=arr.ndim // 2 + j)
    head = (slice(None),) * j
    return bool((marg[head + (slice(1, None),)] != marg[head + (slice(0, 1),)]).any())


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


# -- the slice-add test on wide, big and non-contiguous arrays ------------------------

BIG = (2 ** 61 - 1) * (2 ** 31 - 1)   # a denominator beyond 2**63


def relaid(nums: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same array stored in a shuffled axis order, as a transposed
    view of a copy."""
    order = list(range(nums.ndim))
    while order == sorted(order):
        rng.shuffle(order)
    return np.ascontiguousarray(nums.transpose(order)).transpose(np.argsort(order))


def moved(nums: np.ndarray, rng: random.Random) -> np.ndarray:
    """A copy in the same layout with part of one positive entry's mass
    moved to another entry of its column, if the column has another."""
    nums = nums.copy(order="K")
    n = nums.ndim // 2
    column = tuple(rng.randrange(size) for size in nums.shape[:n])
    entries = list(product(*(range(size) for size in nums.shape[n:])))
    src = rng.choice([a for a in entries if nums[column + a] > 0])
    dst = rng.choice([a for a in entries if a != src] or [src])
    delta = rng.randint(1, int(nums[column + src]))
    nums[column + src] -= delta
    nums[column + dst] += delta
    return nums


def mixture_numerators(rng: random.Random, ins, outs, den: int) -> np.ndarray:
    """A mixture of 1-3 local deterministic boxes as numerators over
    ``den``, Python ints when ``den`` is beyond 2**63."""
    nums = np.zeros([len(a) for a in ins + outs], dtype=object if den >= 2 ** 63 else np.int64)
    cuts = sorted(rng.randrange(den + 1) for _ in range(rng.randint(0, 2)))
    for weight in (b - a for a, b in zip([0, *cuts], [*cuts, den])):
        fns = [[rng.randrange(len(o)) for _ in i.values] for i, o in zip(ins, outs)]
        for x in product(*(range(len(a)) for a in ins)):
            nums[x + tuple(f[xi] for f, xi in zip(fns, x))] += weight
    return nums


def wide_cases():
    """4-6 parties with input and output alphabets of one or two symbols
    (one party may have three inputs or outputs), a third over ``BIG``,
    every array relaid; half have one entry's mass moved."""
    rng = random.Random(31415)
    for case in range(30):
        n = rng.randint(4, 6)
        ins = [Alphabet.of_size(rng.choice((1, 2, 2))) for _ in range(n)]
        outs = [Alphabet.of_size(rng.choice((1, 2, 2))) for _ in range(n)]
        (ins if case % 2 else outs)[rng.randrange(n)] = Alphabet.of_size(3)
        den = BIG if case % 3 == 0 else 12
        nums = relaid(mixture_numerators(rng, ins, outs, den), rng)
        if rng.random() < 0.5:
            nums = moved(nums, rng)
        yield NonsignalingResource.new_unchecked("w", tuple("ABCDEF"[:n]), ins, outs,
                                                 _Tensor(nums, den))


def chain_cases():
    """The k = 3..5 PR-chain behaviors as the contraction lays them out,
    and two copies of each with one entry's mass moved, in that layout."""
    from test_contraction_reference import pr_chain

    rng = random.Random(2718)
    for k in (3, 4, 5):
        beh = induced_behavior(pr_chain(k, random.Random(9700 + k)))
        yield beh
        for _ in range(2):
            yield NonsignalingResource.new_unchecked(
                beh.id, beh.parties, beh.input_alphabets, beh.output_alphabets,
                _Tensor(moved(beh.numerators, rng), beh.denominator))


@lru_cache(maxsize=1)
def kernel_cases() -> tuple:
    """Each wide and chain case with its family and reference witness."""
    return tuple((family, r, reference_witness(r))
                 for family, cases in (("wide", wide_cases()), ("chain", chain_cases()))
                 for r in cases)


def test_kernel_families_cover_their_cases():
    cases = kernel_cases()
    assert not any(r.numerators.flags.c_contiguous for _, r, _ in cases)
    assert {r.numerators.dtype == object for _, r, _ in cases} == {True, False}
    assert {len(r.parties) for _, r, _ in cases} == {4, 5, 6}
    assert any(1 in map(len, r.input_alphabets) for _, r, _ in cases)
    assert any(1 in map(len, r.output_alphabets) for _, r, _ in cases)
    for name in ("wide", "chain"):
        assert {w is None for family, _, w in cases if family == name} == {True, False}


def test_slice_adds_match_the_axis_sum():
    for _, r, witness in kernel_cases():
        for j in range(len(r.parties)):
            assert _input_moves_marginal(r.numerators, j) == reference_moves(r.numerators, j)
        assert r._find_signaling_witness() == witness
