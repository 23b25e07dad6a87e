"""Differential tests of the canonical reduction in ``NonsignalingResource``.

The reference is the reduction the constructor used before: gcd(den, every
entry), by one ``np.gcd.reduce`` over the whole array.  The constructor now
takes gcd(den, the first column's entries) as a candidate and reads every
entry only when that candidate is above 1.  Generated ``_Tensor``s cover the
three ways this can go (the first column settles it; every entry is
divisible by the candidate; a later entry is not), as int64 arrays and as
Python-int arrays with a denominator of at least 2**63, in C and Fortran
order, and so do ``condition``'s results, whose denominator is an event
mass.  A parsed mapping table is not reduced at all: the last property pins
that its numerators over the lcm of its entries' denominators are already
in lowest terms.  Runs by Hypothesis with a fixed seed and bounded example
counts (skipped when Hypothesis is not installed).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from boxnet.resource import Alphabet, NonsignalingResource, _Tensor, condition  # noqa: E402

BRANCHES = ("first column settles it", "every entry divisible", "a later entry not divisible")


def bounded(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def reference_canonical(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
    return nums // g, den // g


def branch_of(nums: np.ndarray, den: int, n: int) -> str:
    """Which way the first-column candidate goes on this tensor."""
    g = gcd(den, int(np.gcd.reduce(nums[(0,) * n], axis=None)))
    if g == 1:
        return BRANCHES[0]
    return BRANCHES[1] if gcd(g, int(np.gcd.reduce(nums, axis=None))) == g else BRANCHES[2]


def alphabets(sizes) -> list[Alphabet]:
    return [Alphabet.of_size(k) for k in sizes]


@st.composite
def tensors(draw, branch: str, big: bool):
    """(input sizes, output sizes, numerators, denominator) of a structurally
    valid table, whose first-column candidate goes the way ``branch`` says."""
    n = draw(st.integers(1, 3))
    ins = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    outs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    # The first column needs two entries to have a gcd of 1 with den; a
    # later entry needs a later column.
    outs[0] = max(outs[0], 2)
    if branch == BRANCHES[2]:
        ins[0] = max(ins[0], 2)
    k = draw(st.integers(2, 12))
    den = k * draw(st.integers(2 ** 63, 2 ** 66) if big else st.integers(1, 30))
    width = prod(outs)

    def column(q: int) -> list[int]:
        """den split into ``width`` multiples of q (q divides den)."""
        cuts = sorted(draw(st.lists(st.integers(0, den // q), min_size=width - 1,
                                    max_size=width - 1)))
        return [q * (hi - lo) for lo, hi in zip([0, *cuts], [*cuts, den // q])]

    columns = [column(1 if branch == BRANCHES[0] else k)]
    for _ in range(prod(ins) - 1):
        columns.append(column(k if branch == BRANCHES[1] else draw(st.sampled_from((1, k)))))
    nums = np.array(sum(columns, []), dtype=object if big else np.int64).reshape(ins + outs)
    hypothesis.assume(branch_of(nums, den, n) == branch)
    if draw(st.booleans()):
        nums = np.asfortranarray(nums)
    return ins, outs, nums, den


def assert_canonical_as_reference(r: NonsignalingResource, nums: np.ndarray, den: int) -> None:
    ref_nums, ref_den = reference_canonical(nums, den)
    assert r.denominator == ref_den
    assert r.numerators.dtype == (np.int64 if ref_den < 2 ** 63 else object)
    assert r.numerators.tolist() == ref_nums.tolist()


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("branch", BRANCHES)
@bounded(25)
@given(data=st.data())
def test_tensor_reduction_matches_the_whole_array_gcd(branch, big, data):
    ins, outs, nums, den = data.draw(tensors(branch, big))
    parties = "ABC"[:len(ins)]
    r = NonsignalingResource.new_unchecked("t", parties, alphabets(ins), alphabets(outs),
                                           _Tensor(nums, den))
    assert_canonical_as_reference(r, nums, den)


@st.composite
def conditioned(draw):
    """A nonsignaling mixture of local deterministic boxes and an event of
    its first party.  The weights are small, some of them times 2**64 + 1,
    over their sum: small weights make the event's entries share factors
    with its mass often enough to reach every branch, and a large one
    makes the denominator 2**63 or more (numerators as Python ints)."""
    n = draw(st.integers(2, 3))
    ins = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    outs = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    weights = [w * draw(st.sampled_from((1, 2 ** 64 + 1)))
               for w in draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))]
    table = {x: {} for x in product(*map(range, ins))}
    for w in weights:
        fns = [draw(st.lists(st.integers(0, o - 1), min_size=i, max_size=i))
               for i, o in zip(ins, outs)]
        for x, column in table.items():
            a = tuple(f[xi] for f, xi in zip(fns, x))
            column[a] = column.get(a, 0) + Fraction(w, sum(weights))
    r = NonsignalingResource.make("mix", "ABC"[:n], alphabets(ins), alphabets(outs), table)
    return r, draw(st.integers(0, outs[0] - 1)), draw(st.integers(0, ins[0] - 1))


def event_of(case) -> tuple[np.ndarray, int]:
    """The numerators of a ``conditioned`` case's event and its mass, as
    ``condition`` reads them."""
    r, output, setting = case
    event = r.numerators[(setting,) + (slice(None),) * (len(r.parties) - 1) + (output,)]
    return event, int(event[(0,) * (event.ndim // 2)].sum())


def assert_condition_as_reference(case) -> None:
    r, output, setting = case
    event, mass = event_of(case)
    assert_canonical_as_reference(condition(r, [r.parties[0]], [output], [setting]), event, mass)


@bounded(60)
@given(conditioned())
def test_condition_reduction_matches_the_whole_array_gcd(case):
    hypothesis.assume(event_of(case)[1] > 0)
    assert_condition_as_reference(case)


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_condition_cases_reach_every_branch(branch, dtype):
    def reaches(case):
        event, mass = event_of(case)
        return mass > 0 and event.dtype == dtype and branch_of(event, mass, event.ndim // 2) == branch

    found = hypothesis.find(conditioned(), reaches,   # the first case found, not shrunk
                            settings=settings(bounded(1000), phases=[Phase.generate]))
    assert_condition_as_reference(found)


@st.composite
def parsed_tables(draw):
    """A structurally valid mapping table of random Fractions: each column
    is random nonnegative weights over random denominators, normalized."""
    n = draw(st.integers(1, 3))
    ins = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    outs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    top = draw(st.sampled_from((12, 10 ** 6, 2 ** 70)))
    table = {}
    for x in product(*map(range, ins)):
        weights = [Fraction(draw(st.integers(0, top)), draw(st.integers(1, top)))
                   for _ in range(prod(outs))]
        weights[draw(st.integers(0, len(weights) - 1))] += Fraction(1, draw(st.integers(1, top)))
        total = sum(weights)
        table[x] = dict(zip(product(*map(range, outs)), (w / total for w in weights)))
    return ins, outs, table


@bounded(60)
@given(parsed_tables())
def test_a_parsed_table_is_in_lowest_terms(case):
    ins, outs, table = case
    r = NonsignalingResource.new_unchecked("p", "ABC"[:len(ins)], alphabets(ins), alphabets(outs),
                                           table)
    assert r.denominator == lcm(*(v.denominator for column in table.values()
                                  for v in column.values()))
    assert gcd(r.denominator, *r.numerators.flat) == 1
    assert_canonical_as_reference(r, r.numerators, r.denominator)
