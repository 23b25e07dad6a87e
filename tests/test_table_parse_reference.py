"""Differential tests of table construction against the Fraction parser
it replaced.

``reference_parse_table`` is ``NonsignalingResource._parse_table`` as it
was: the old per-column walk (``reference_columns``), every entry through
``as_probability``, each column summed as Fractions as soon as its entries
are read, the numerators stored one numpy item at a time.  The library
reads ``int`` and ``Fraction`` entries as integers over the lcm of their
denominators and leaves the column sums to the structural check that
every table gets, so ``NonsignalingResource.new_unchecked`` (parse plus
structural check) is compared.  On seeded random tables, well-formed and
spoiled in one of several ways, both must give the same numerators,
dtype and denominator, or the same ``TableError`` text.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm, prod

import numpy as np
import pytest

from boxnet.resource import (
    _INT64,
    Alphabet,
    NonsignalingResource,
    TableError,
    _key_tuple,
    _Tensor,
    as_probability,
)

CASES = 200
# Denominators that push the lcm past 2**63 in a few tables, so the
# object-dtype path is compared too.
BIG = (2 ** 61 - 1, 2 ** 31 - 1)


def reference_columns(r: NonsignalingResource, table):
    """Each input tuple in input order with an iterator of its column's
    entries as (flat array position, output tuple, value); the same key
    checks and error texts as the library's flat walk."""
    width = prod(len(a) for a in r.output_alphabets)
    out_index = {a: i for i, a in enumerate(r.output_space())}

    def key(k, what: str):
        try:
            return _key_tuple(k)
        except (TypeError, ValueError) as err:
            raise TableError(f"resource {r.id!r}: {what} key {k!r}: {err}") from None

    raw = {key(x, "input"): column for x, column in table.items()}

    def entries(row, x):
        for a, value in raw[x].items():
            a = key(a, f"input {x}: output")
            if a not in out_index:
                raise TableError(f"resource {r.id!r}: output tuple {a} at input {x} "
                                 f"is outside the output alphabets")
            yield row * width + out_index[a], a, value

    for row, x in enumerate(r.input_space()):
        if x not in raw:
            raise TableError(f"resource {r.id!r}: missing input tuple {x}")
        yield x, entries(row, x)
    extra = set(raw).difference(r.input_space())
    if extra:
        raise TableError(
            f"resource {r.id!r}: input tuples outside the input alphabets: {sorted(extra)}")


def reference_parse_table(r: NonsignalingResource, table) -> _Tensor:
    cells: dict[int, Fraction] = {}   # flat position -> entry
    for x, entries in reference_columns(r, table):
        column: dict[int, Fraction] = {}
        for i, a, value in entries:
            try:
                column[i] = as_probability(value)
            except (ValueError, TypeError) as exc:
                raise TableError(
                    f"resource {r.id!r}: bad entry at input {x}, output {a}: {exc}"
                ) from exc
        total = sum(v for v in column.values() if v)
        if total != 1:
            raise TableError(
                f"resource {r.id!r}: column at input {x} sums to {total}, not 1")
        cells.update(column)
    den = lcm(*(v.denominator for v in cells.values()))
    size = prod(len(a) for a in r.input_alphabets + r.output_alphabets)
    nums = np.zeros(size, dtype=np.int64 if den < _INT64 else object)
    for i, v in cells.items():
        nums[i] = v.numerator * (den // v.denominator)
    return _Tensor(nums, den)


def signature(rng: random.Random) -> tuple:
    n = rng.randint(1, 3)
    parties = tuple("ABC"[:n])

    def alphabet():
        return Alphabet(tuple(sorted(rng.sample(range(4), rng.randint(1, 3)))))

    return parties, [alphabet() for _ in parties], [alphabet() for _ in parties]


def column(rng: random.Random, outputs: list) -> dict:
    """A random distribution over some of ``outputs``: Fractions, ints, or
    an occasional "n/d" string, explicit zeros now and then."""
    support = rng.sample(outputs, rng.randint(1, len(outputs)))
    dens = [rng.choice((1, 2, 3, 4, 6, 7, 12, *BIG)) for _ in support]
    weights = [Fraction(rng.randint(1, 9), d) for d in dens]
    total = sum(weights)
    col = {}
    for a, w in zip(support, weights):
        v = w / total
        col[a] = rng.choice((v, v, v, f"{v.numerator}/{v.denominator}"))
        if v == 1:
            col[a] = rng.choice((1, Fraction(1), "1"))
    if len(support) < len(outputs) and rng.random() < 0.3:
        col[rng.choice([a for a in outputs if a not in col])] = rng.choice((0, Fraction(0), "0"))
    return col


def spoil(rng: random.Random, table: dict, inputs: list, outputs: list) -> str:
    """Spoil ``table`` in place one way; returns the way."""
    x = rng.choice(inputs)
    col = table[x]
    a = rng.choice(list(col))
    kind = rng.choice(("entry", "negative", "above one", "sum", "missing input",
                       "extra input", "outside outputs", "float", "string", "empty column"))
    if kind == "entry":
        col[a] = rng.choice((None, [1], "1/0", "half", Fraction))
    elif kind == "negative":
        col[a] = -Fraction(1, rng.randint(1, 5))
    elif kind == "above one":
        col[a] = rng.choice((2, Fraction(3, 2), "5/4"))
    elif kind == "sum":
        col[a] = as_probability(col[a]) / 2
    elif kind == "missing input":
        del table[x]
    elif kind == "extra input":
        table[tuple(v + 4 for v in x)] = dict(col)
    elif kind == "outside outputs":
        col[tuple(v + 4 for v in a)] = col.pop(a)
    elif kind == "float":
        col[a] = float(as_probability(col[a]))
    elif kind == "string":
        col[a] = rng.choice(("", "0.5", "1/2/3", "x"))
    else:
        table[x] = {}
    return kind


def parse_both(parties, ins, outs, table):
    r = NonsignalingResource.__new__(NonsignalingResource)
    r._set_signature("t", parties, ins, outs)
    results = []
    for parse in (lambda t: NonsignalingResource.new_unchecked("t", parties, ins, outs, t),
                  lambda t: reference_parse_table(r, t)):
        try:
            results.append(parse(table))
        except (TableError, ArithmeticError) as err:   # "1/0" is a ZeroDivisionError
            results.append(f"{type(err).__name__}: {err}")
    return results


def case_table(case: int) -> tuple:
    """Case ``case``'s signature and table, and how it was spoiled (every
    third table is left well-formed)."""
    rng = random.Random(7000 + case)
    parties, ins, outs = signature(rng)
    inputs = list(product(*(a.values for a in ins)))
    outputs = list(product(*(a.values for a in outs)))
    table = {x: column(rng, outputs) for x in inputs}
    rng.shuffle(inputs)
    table = {x: table[x] for x in inputs}   # columns in any order
    kind = spoil(rng, table, inputs, outputs) if case % 3 else None
    return parties, ins, outs, table, kind


@pytest.mark.parametrize("case", range(CASES))
def test_integer_parser_matches_the_fraction_parser(case):
    parties, ins, outs, table, _ = case_table(case)
    got, want = parse_both(parties, ins, outs, table)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.denominator == want.denominator
        assert got.numerators.dtype == want.numerators.dtype
        assert np.array_equal(got.numerators.reshape(-1), want.numerators)


def test_the_cases_cover_every_outcome():
    """Across the cases: well-formed tables on both dtypes, every way of
    spoiling, and every error it gives."""
    errors = ("bad entry", "sums to", "missing input", "outside the input",
              "outside the output", "ZeroDivisionError")
    kinds, dtypes, seen = set(), set(), set()
    for case in range(CASES):
        parties, ins, outs, table, kind = case_table(case)
        kinds.add(kind)
        got, _ = parse_both(parties, ins, outs, table)
        if isinstance(got, str):
            seen.update(e for e in errors if e in got)
        else:
            dtypes.add(got.numerators.dtype.kind)
    assert len(kinds) == 11
    assert dtypes == {"i", "O"}
    assert seen == set(errors)


def test_column_sums_print_as_fractions():
    """The "sums to" text prints the column's exact sum as the Fraction
    sum printed it: an integer without a denominator, and 0 for a column
    with no entries."""
    bits = Alphabet((0, 1))
    for col, total in (({(0,): 1, (1,): 1}, "2"), ({(0,): Fraction(1, 3)}, "1/3"),
                       ({}, "0"), ({(0,): 0, (1,): "0"}, "0"),
                       ({(0,): Fraction(1, 2), (1,): Fraction(2, 3)}, "7/6")):
        got, want = parse_both(("A",), [bits], [bits], {(0,): col, (1,): {(0,): 1}})
        assert got == want == \
            f"TableError: resource 't': column at input (0,) sums to {total}, not 1"
