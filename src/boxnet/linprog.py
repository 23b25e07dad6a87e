"""Exact rational linear feasibility: a revised phase-1 simplex with
Bland's rule on integer rows, reading its columns from a column source.

Solves: find x >= 0 with A x = b.  Either a basic feasible solution or a
Farkas certificate y (y^T A <= 0 componentwise while y^T b > 0, proving no
solution exists) is returned — never neither.

The solver never holds A.  It reads A from one column source,
``Columns``: n integer columns, each given by the same number of row
indices and the integers at them, standing for those integers over a
common ``scale``.  The source knows the largest column 1-norm ``norm``
and answers two calls: ``price(y)``, the least j with y . A_j > 0 (or
None), and ``column(j)``, the rows of column j and their values (of
every column in an index array j at once).  Its values are int64 only
while ``norm`` is below 2**31, so that int64 pricing and column products
cannot overflow; wider ones are Python integers.  The right-hand side
comes as one integer pair ``(nums, d)``, b_i = nums_i / d, which the
caller scales by ``scale`` too: the same system, with the same pivots,
duals and solution.  Row i starts as c_i [e_i | |b_i|], its scale c_i =
d / gcd(|nums_i|, d) the denominator of b_i, so no ``Fraction`` is built
on the way in.
``boxnet.decompose`` gives a vertex set as dense columns over the
vertices' common denominator, and the local deterministic vertices,
never built, as the rows where they hold a 1.

``solve_columns`` does not check its answer: the caller does, through
the same two calls.  ``column_sum`` rebuilds A x from ``column(j)`` for
the mixture check, and ``price(y)`` scores a Farkas certificate on every
column in one pass.  ``boxnet.decompose`` checks each answer once this
way; ``solve_columns`` is the solver's only entry point.

What the solver keeps is the artificial block of the phase-1 tableau
(B^-1, row-scaled), its right-hand side and its cost row: (m+1) x (m+2)
integers, each row a positive integer multiple of the rational row, the
cost row's scale in its last column.  A negative rhs flips its row but
not the row's artificial column.  Per pivot:

1. the duals y are read off the cost row's artificial part; the
   structural columns are priced in index order, in chunks of doubling
   size (reduced cost -y . A_j), and the first negative one enters, else
   the first artificial column with a negative reduced cost — Bland's
   rule, the lowest eligible index, so cycling cannot occur (Bland 1977;
   the revised form: Dantzig & Orchard-Hays 1954);
2. only the entering column B^-1 A_j is computed, from the kept block;
3. the ratio test cross-multiplies, ties going to the smallest basic
   index (Bland);
4. every other row with a nonzero f in that column becomes
   ``(row * p - f * pivot_row) / gcd(p, f)`` (fraction-free elimination,
   Edmonds 1967; Bareiss 1968); when p divides every f, no row scales
   up and the tableau is not multiplied first.  The rows this scales up
   are divided by the gcd of their entries once the tableau's largest
   entry reaches 2**20 (at every pivot once it holds Python integers):
   a row's primitive form does not depend on when it is taken.  The
   tableau is int64 until a reduced entry reaches 2**31, and Python
   integers after.

Once the objective reaches 0, a basic x_j in row i is rhs_i / c_i, c_i
the row's scale: the row's entry in column j, whose rational value is 1.
One gather over the rows of every basic structural column reads every
such scale at once (the tableau's last column is zero off the cost row),
where computing each basic column B^-1 A_j whole would give the same.

Bland's choices read only the signs of reduced costs and the ratios within
rows, which positive row scaling leaves alone, so the pivots — and the
solution or certificate — are exactly those of the full tableau kept in
Fractions.  Intended for the systems of polytope-membership questions (up
to hundreds of rows, thousands of columns); no floats.
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


def _abs_max(arr: np.ndarray) -> int:
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


# Entries below this bound keep row * p - f * pivot_row inside int64.
_INT64_SAFE = 2**31
# Rows scaled up are gcd-reduced once an entry of the tableau reaches this.
_SETTLE = 2**20
# Columns priced in the first step; each further step prices twice as many.
_PRICE_CHUNK = 64


def _first_positive(n: int, scores) -> int | None:
    """The least j < n with ``scores(start, stop)[j - start] > 0``, scanning
    chunks of doubling size, or None."""
    start, size = 0, _PRICE_CHUNK
    while start < n:
        found = (scores(start, start + size) > 0).nonzero()[0]
        if found.size:
            return start + int(found[0])
        start, size = start + size, 2 * size
    return None


class Columns:
    """n integer columns, given sparse: column j holds the integers
    ``values[j]`` at the distinct row indices ``rows[j]`` (the same number
    of rows for every j, zeros allowed) and stands for that column divided
    by ``scale``.  ``values`` comes as Python integers or as int64 small
    enough that its 1-norms do not overflow."""

    def __init__(self, rows: np.ndarray, values: np.ndarray, scale: int = 1):
        self.rows, self.n, self.scale = rows, len(rows), scale
        self.norm = int(np.abs(values).sum(axis=1).max()) if self.n else 0
        self.values = values.astype(np.int64 if self.norm < _INT64_SAFE else object, copy=False)

    def price(self, y: np.ndarray) -> int | None:
        return _first_positive(self.n, lambda start, stop: (
            y[self.rows[start:stop]] * self.values[start:stop]).sum(axis=1))

    def column(self, j: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.rows[j], self.values[j]


def integers(values: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """(ints, d) with values == ints / d: Python integers over the lcm d of
    the denominators."""
    d = lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (d // v.denominator) for v in values], dtype=object), d


def column_sum(columns, x: Sequence[Fraction], m: int) -> tuple[np.ndarray, int]:
    """sum_j x_j * A_j / scale, the m entries as Python integers over one
    denominator: (sums, den)."""
    xs, d = integers(x)
    got = np.zeros(m, dtype=object)
    for j, w in enumerate(xs.tolist()):
        if w:
            rows, vals = columns.column(j)
            got[rows] += vals.astype(object) * w
    return got, d * columns.scale


def _ratio_test(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    """The leaving row: the least ratio rhs_i / col_i >= 0 over col_i > 0,
    by cross-multiplication, ties broken by the smallest basic index
    (Bland)."""
    positive = col[:len(rhs)] > 0
    degenerate = (positive & (rhs == 0)).nonzero()[0]
    if degenerate.size:
        return int(degenerate[basis[degenerate].argmin()])
    rows = positive.nonzero()[0].tolist()
    if not rows:
        # Unbounded phase-1 objective is impossible (bounded below by 0);
        # a negative-cost column with no positive entry cannot occur.
        raise RuntimeError("phase-1 simplex lost boundedness — numeric bug")
    colv, rhsv, basisv = col.tolist(), rhs.tolist(), basis.tolist()
    leave = rows[0]
    for i in rows[1:]:
        here, best = rhsv[i] * colv[leave], rhsv[leave] * colv[i]
        if here < best or (here == best and basisv[i] < basisv[leave]):
            leave = i
    return leave


def solve_columns(columns, b: tuple[Sequence[int], int]) -> Feasible | FarkasInfeasible:
    """Phase 1 on A x = b, A given by the column source ``columns`` and b
    as one integer pair ``(nums, d)``: b_i = nums[i] / d, the nums Python
    integers and d > 0 (the pair ``integers`` returns).  The answer is not
    verified against A: the caller checks it."""
    nums, d = b
    m, n = len(nums), columns.n
    flip = np.array([-1 if v < 0 else 1 for v in nums], dtype=np.int64)
    flipped = (flip < 0).any()
    # Row i is c_i times [e_i | |b_i|], c_i = d / gcd(|nums_i|, d) the
    # denominator of b_i; the cost row, minimizing the sum of artificials,
    # is sigma times [0 | -sum |b_i| | 1], sigma = lcm(c_i) = d / G with G
    # the gcd of d and every nums_i: row[j] / scale is the reduced cost of
    # artificial j and -row[m] / scale the objective value.
    mags = [abs(v) for v in nums]
    gs = [gcd(v, d) for v in mags]
    whole = gcd(d, *gs)
    sigma, obj = d // whole, sum(mags) // whole
    g = gcd(obj, sigma)
    entries = [*(d // gi for gi in gs), *(v // gi for v, gi in zip(mags, gs)),
               obj // g, sigma // g]
    bound = max(entries)
    tab = np.zeros((m + 1, m + 2), dtype=np.int64 if bound < _INT64_SAFE else object)
    tab[range(m), range(m)] = entries[:m]
    tab[:m, m] = entries[m:2 * m]
    tab[m, m], tab[m, m + 1] = -entries[-2], entries[-1]
    basis = np.arange(n, n + m)
    # Rows scaled up by a pivot are reduced once an entry reaches
    # settle_at, low enough that an entering column (at most 2 * bound *
    # norm) stays inside the int64-safe range until then.
    dirty = np.zeros(m + 1, dtype=bool)
    work = np.empty((m + 1, m + 2), dtype=np.int64)
    settle_at = min(_SETTLE, _INT64_SAFE // (2 * columns.norm + 1))

    def entering(j):
        """Column j of the current tableau, the cost row included."""
        rows, a = columns.column(j)
        if flipped:
            a = a * flip[rows]
        t, last = tab[:, rows], tab[:, m + 1]
        if t.dtype == object or a.dtype == object:
            a, t, last = a.astype(object), t.astype(object), last.astype(object)
        # The cost row's artificial part is scale * (1 - duals).
        return t @ a - last * a.sum()

    def settle():
        """Divide each row scaled up since its last reduction by the gcd
        of its entries: the rows' primitive forms do not depend on when
        they are taken."""
        rows = dirty.nonzero()[0]
        block = tab[rows]
        tab[rows] = block // np.gcd.reduce(block, axis=1)[:, None]
        dirty[:] = False

    while True:
        cost = tab[m]
        y = (cost[m + 1] - cost[:m]) * flip if flipped else cost[m + 1] - cost[:m]
        enter = columns.price(y)
        if enter is not None:
            col, col_bound = entering(enter), 2 * bound * columns.norm
        else:
            art = (cost[:m] < 0).nonzero()[0]
            if not art.size:
                break
            enter = n + int(art[0])
            col, col_bound = tab[:, art[0]].copy(), bound
        if tab.dtype != object and (col_bound >= _INT64_SAFE or col.dtype == object):
            if _abs_max(col) >= _INT64_SAFE:
                tab = tab.astype(object)
            else:
                col = col.astype(np.int64)
        leave = _ratio_test(col, tab[:m, m], basis)
        # Row i becomes (row_i * p - f_i * pivot_row) / gcd(p, f_i) with
        # f = col: rows with f_i = 0, the pivot row among them, keep their
        # values.  No row becomes all zero (its artificial part is a row of
        # an invertible matrix; the cost row keeps its scale).
        p = col[leave]
        col[leave] = 0
        if p == 1:
            times = col
        else:
            g = np.gcd(col, p)
            scale_up, times = p // g, col // g
            up = scale_up > 1
            if up.any():
                tab *= scale_up[:, None]
                dirty |= up
        basis[leave] = enter
        if tab.dtype == object:
            tab -= np.outer(times, tab[leave])
            settle()
            continue
        # One buffer takes every pivot's product: no temporary per pivot.
        np.multiply.outer(times, tab[leave], out=work)
        tab -= work
        bound = _abs_max(tab)
        if bound >= settle_at and dirty.any():
            settle()
            bound = _abs_max(tab)
        if bound >= _INT64_SAFE:
            tab = tab.astype(object)

    cost = tab[m].tolist()
    if cost[m] == 0:
        # Basic x_j = rhs_i / c_i, c_i row i's entry in column j (whose
        # rational value is 1), gathered for every basic j at once.
        at = (basis < n).nonzero()[0]
        js = basis[at]
        rows, a = columns.column(js)
        scales = (tab[at[:, None], rows] * a * flip[rows]).sum(axis=1)
        x = [Fraction(0)] * n
        for j, r, c in zip(js.tolist(), tab[at, m].tolist(), scales.tolist()):
            x[j] = Fraction(r, c)
        return Feasible(x)
    # Infeasible: read the dual prices off the artificial columns.  The
    # artificial for row i entered with cost 1, so y_i = 1 - cost_i / scale.
    scale = cost[m + 1]
    return FarkasInfeasible([Fraction(int(f) * (scale - c), scale)
                             for f, c in zip(flip, cost[:m])])
