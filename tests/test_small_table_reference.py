"""Differential property of the small-table verdicts against the scans.

A table of at most ``_ROW_SUM`` entries gets its column sums from one axis
sum of its rows, and one of at most ``_SMALL`` entries its nonsignaling
verdict from one product with ``_signal_rows``; a larger one, or any table
when both are 0, only from ``_sum_out`` and the slice scan
``_one_party_witness``.  On generated exact tables of 1-3 parties with
alphabets of 1-3 symbols, at or below ``_SMALL`` entries and just above
it, stored in C order or as a transposed view, over small denominators
and ones near 2**62, the two must agree: the same ``TableError`` text and
fault, else the same first witness.
The tables are mixtures of deterministic boxes (nonsignaling), the same
with mass moved inside one column (mostly signaling), with one entry off
by one (a column that does not sum to 1) or with one entry set outside
[0, den].  Skipped when Hypothesis is not installed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from boxnet import resource  # noqa: E402
from boxnet.resource import (  # noqa: E402
    _SMALL,
    Alphabet,
    NonsignalingResource,
    TableError,
    _one_party_witness,
    _Tensor,
)

PARTIES = ("A", "B", "C")
# (input sizes, output sizes) of every table of 1-3 parties with 1-3 symbols per alphabet.
SHAPES = [(ins, outs) for n in (1, 2, 3)
          for ins in product((1, 2, 3), repeat=n) for outs in product((1, 2, 3), repeat=n)]
SMALL = [s for s in SHAPES if prod(s[0] + s[1]) <= _SMALL]
JUST_ABOVE = [s for s in SHAPES if _SMALL < prod(s[0] + s[1]) <= 2 * _SMALL]
# 2**62 - 57 is prime, so no gcd reduction copies a transposed view back into C order.
DENOMINATORS = (1, 2, 7, 12, 97, 2 ** 62 - 57, 2 ** 62)
KINDS = ("nonsignaling", "moved", "off-by-one", "out-of-range")


def mixture(rng: random.Random, ins, outs, den: int) -> np.ndarray:
    """Numerators over ``den`` of a mixture of 1-3 deterministic boxes."""
    nums = np.zeros(ins + outs, dtype=np.int64)
    cuts = sorted(rng.randint(0, den) for _ in range(rng.randint(0, 2)))
    for w in np.diff([0, *cuts, den]).tolist():
        f = [[rng.randrange(o) for _ in range(i)] for i, o in zip(ins, outs)]
        for x in product(*map(range, ins)):
            nums[x + tuple(fj[xj] for fj, xj in zip(f, x))] += w
    return nums


def mutate(rng: random.Random, nums: np.ndarray, n: int, kind: str, den: int) -> None:
    x = tuple(rng.randrange(k) for k in nums.shape[:n])
    a = tuple(rng.randrange(k) for k in nums.shape[n:])
    if kind == "moved":
        a = max(np.ndindex(nums.shape[n:]), key=lambda b: nums[x + b])   # holds mass
        b = tuple(rng.randrange(k) for k in nums.shape[n:])
        t = rng.randint(1, int(nums[x + a]))
        nums[x + a] -= t
        nums[x + b] += t
    elif kind == "off-by-one":
        nums[x + a] += rng.choice((-1, 1))
    elif kind == "out-of-range":
        nums[x + a] = rng.choice((-1, den + 1, -den))


def verdict(ins, outs, nums, den):
    """The construction's ``TableError`` text and fault, else the resource."""
    try:
        return NonsignalingResource.new_unchecked(
            "t", PARTIES[:len(ins)], [Alphabet.of_size(k) for k in ins],
            [Alphabet.of_size(k) for k in outs], _Tensor(nums, den))
    except TableError as err:
        return str(err), err.fault


@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape=st.one_of(st.sampled_from(SMALL), st.sampled_from(JUST_ABOVE)),
       den=st.sampled_from(DENOMINATORS), kind=st.sampled_from(KINDS),
       transposed=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_small_verdicts_match_the_scans(shape, den, kind, transposed, seed):
    rng = random.Random(seed)
    ins, outs = shape
    nums = mixture(rng, ins, outs, den)
    mutate(rng, nums, len(ins), kind, den)
    if transposed:   # the same table, as a view of an array stored in another axis order
        axes = rng.sample(range(nums.ndim), nums.ndim)
        nums = np.ascontiguousarray(nums.transpose(axes)).transpose(np.argsort(axes))
    got = verdict(ins, outs, nums, den)
    with mock.patch.object(resource, "_SMALL", 0), mock.patch.object(resource, "_ROW_SUM", 0):
        scanned = verdict(ins, outs, nums, den)
    if isinstance(got, tuple) or isinstance(scanned, tuple):
        assert got == scanned
        return
    r = got
    assert r.same_table(scanned)
    witness = _one_party_witness(r.parties, r.input_alphabets, r.output_alphabets,
                                 r.numerators, lambda v: Fraction(int(v), r.denominator))
    assert r._find_signaling_witness() == witness
    if witness is None and r.numerators.size <= _SMALL:   # the product alone says so
        with mock.patch.object(resource, "_one_party_witness", side_effect=AssertionError):
            assert r._find_signaling_witness() is None


def test_the_property_reaches_both_sides_of_small():
    assert SMALL and JUST_ABOVE
