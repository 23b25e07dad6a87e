"""Exact rational linear feasibility via phase-1 simplex on integer rows.

Solves: find x >= 0 with A x = b, entries anything ``Fraction`` accepts.
Either a basic feasible solution or a Farkas certificate y (y^T A <= 0
componentwise while y^T b > 0, proving no solution exists) is returned —
never neither, and both are verified against the input, in integers,
before being handed back as ``Fraction``s.

Dense tableau, artificial variable on every row, Bland's rule (always the
lowest eligible index) so cycling cannot occur.  Every tableau row, the
phase-1 cost row with its objective value included, is held as integers
that are a positive multiple of the rational row: a pivot replaces a row
by ``row * p - row[e] * pivot_row`` (fraction-free elimination, Edmonds
1967; Bareiss 1968) and divides it by the gcd of its entries.  Bland's
choices read only the signs of the reduced costs and the ratios within
rows, which positive row scaling leaves alone, so the pivots — and the
returned solution or certificate — are exactly those of the same tableau
kept in Fractions.  Intended for the systems that arise from
polytope-membership questions (up to hundreds of rows and columns); no
sparsity, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np


@dataclass
class Feasible:
    solution: list[Fraction]

    def __bool__(self) -> bool:
        return True


@dataclass
class FarkasInfeasible:
    """y with y^T A <= 0 and y^T b > 0 for the original (unflipped) system."""

    certificate: list[Fraction]

    def __bool__(self) -> bool:
        return False


def _integer_row(values) -> tuple[list[int], int]:
    """Integers k and a scale s > 0 with values[j] == k[j] / s."""
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    s = lcm(*(v.denominator for v in exact))
    return [v.numerator * (s // v.denominator) for v in exact], s


# Entries below this bound keep row * p - f * pivot_row inside int64.
_INT64_SAFE = 2**31


def solve_feasibility(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> Feasible | FarkasInfeasible:
    m = len(a_rows)
    if m == 0:
        return Feasible([])
    n = len(a_rows[0])
    if any(len(r) != n for r in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != m:
        raise ValueError(f"{len(b)} rhs entries for {m} rows")
    # Row i of [A | b] is system[i][0] / system[i][1].
    system = [_integer_row([*row, bi]) for row, bi in zip(a_rows, b)]
    flipped = [ints[n] < 0 for ints, _ in system]

    # Tableau rows 0..m-1: n structural columns, m artificial, the
    # right-hand side, and a 0.  Basis starts artificial; a negative rhs
    # flips its row but not the row's artificial column.
    width = n + m
    rows = []
    for i, (ints, s) in enumerate(system):
        row = [-v for v in ints] if flipped[i] else list(ints)
        row[n:n] = [s if j == i else 0 for j in range(m)]
        rows.append(row + [0])
    # Row m, the phase-1 cost row minimizing the sum of artificials, with
    # its scale in the last column: row[j] / scale is the reduced cost of
    # column j and -row[width] / scale the objective value.  A pivot
    # updates it like any other row.  Artificial columns start at 1 - 1.
    common = lcm(*(s for _, s in system))
    cost = [0] * (width + 2)
    for row, (_, s) in zip(rows, system):
        k = common // s
        cost = [c - k * v for c, v in zip(cost, row)]
    cost[n:width] = [0] * m
    cost[-1] = common
    g = gcd(*cost)
    rows.append([c // g for c in cost])
    bound = max(max(map(max, rows)), -min(map(min, rows)))
    tab = np.array(rows, dtype=np.int64 if bound < _INT64_SAFE else object)
    basis = list(range(n, n + m))

    while True:
        negative = np.flatnonzero(tab[m, :width] < 0)
        if not negative.size:
            break
        enter = int(negative[0])
        col = tab[:, enter].tolist()
        rhs = tab[:m, width].tolist()
        # Ratio test by cross-multiplication; ties broken by smallest
        # basis variable (Bland).
        leave = None
        for i in range(m):
            t = col[i]
            if t > 0:
                if leave is None:
                    leave = i
                    continue
                here, best = rhs[i] * col[leave], rhs[leave] * t
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # Unbounded phase-1 objective is impossible (bounded below by 0);
            # a negative-cost column with no positive entry cannot occur.
            raise RuntimeError("phase-1 simplex lost boundedness — numeric bug")
        # Rows with a zero in the entering column keep their values.  No
        # updated row is all zero (its artificial part is a row of an
        # invertible matrix; the cost row keeps its positive scale).
        touched = [i for i, t in enumerate(col) if t and i != leave]
        block = tab[touched]
        block *= col[leave]
        block -= np.outer([col[i] for i in touched], tab[leave])
        g = np.gcd.reduce(block, axis=1)
        if (g > 1).any():
            block //= g[:, None]
        tab[touched] = block
        basis[leave] = enter
        if tab.dtype != object:
            bound = max(bound, int(block.max()), -int(block.min()))
            if bound >= _INT64_SAFE:
                tab = tab.astype(object)

    *rows, cost = tab.tolist()
    scale = cost[width + 1]
    if cost[width] == 0:
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = Fraction(rows[i][width], rows[i][bv])
        # Re-check every row in integers: x = xs / d, row i = ints / s.
        d = lcm(*(v.denominator for v in x))
        xs = [v.numerator * (d // v.denominator) for v in x]
        for i, (ints, s) in enumerate(system):
            got = sum(a * v for a, v in zip(ints, xs) if a)
            if got != ints[n] * d:
                raise RuntimeError(
                    f"solution fails row {i}: {Fraction(got, d * s)} != {b[i]}")
        if any(v < 0 for v in x):
            raise RuntimeError("negative component in basic solution")
        return Feasible(x)

    # Infeasible: read the dual prices off the artificial columns.  The
    # artificial for row i entered with cost 1, so y_i = 1 - cost[n + i].
    num = [scale - cost[n + i] for i in range(m)]
    num = [-v if flipped[i] else v for i, v in enumerate(num)]
    y = [Fraction(v, scale) for v in num]
    # Re-check in integers: y_i * (row i) == u_i * ints_i / (scale * common)
    # with u_i = num_i * (common / s_i).
    u = [v * (common // s) for v, (_, s) in zip(num, system)]
    dots = [0] * (n + 1)
    for ui, (ints, _) in zip(u, system):
        if ui:
            dots = [acc + ui * a for acc, a in zip(dots, ints)]
    for j in range(n):
        if dots[j] > 0:
            raise RuntimeError(
                f"certificate fails on column {j}: {Fraction(dots[j], scale * common)} > 0")
    if dots[n] <= 0:
        raise RuntimeError(
            f"certificate has nonpositive gap {Fraction(dots[n], scale * common)}")
    return FarkasInfeasible(y)
