"""Exact rational linear feasibility: a revised phase-1 simplex with
Bland's rule on integer rows, reading its columns from a column source.

Solves: find x >= 0 with A x = b.  Either a basic feasible solution or a
Farkas certificate y (y^T A <= 0 componentwise while y^T b > 0, proving no
solution exists) is returned — never neither.

The solver never holds A.  A column source has ``n`` integer columns of
length m, the largest column 1-norm ``norm``, and answers two calls:
``price(y)``, the least j with y . A_j > 0 (or None), and ``column(j)``,
the nonzero rows of column j and their values.  Its columns are int64
only while ``norm`` is below 2**31, so that int64 pricing and column
products cannot overflow; wider ones come as Python integers.  Two
sources exist:

- ``DenseColumns``, a matrix given by rows.  Its rows are scaled by the
  common denominator ``scale`` of its entries, and the caller scales the
  right-hand side with them.  That is the same system with the same
  pivots, duals and solution.
- ``IncidenceColumns``, 0/1 columns given by the rows where they hold a 1
  (``scale`` 1).  ``boxnet.decompose`` prices the local deterministic
  vertices this way without building them.

``solve_columns`` does not check its answer: ``boxnet.decompose`` checks
each answer once, against the vertices.  ``solve_feasibility`` is the
dense entry point for direct callers, which checks its answer against the
matrix it was given; nothing in ``boxnet.decompose`` uses it.

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
   Edmonds 1967; Bareiss 1968).  The rows this scales up are divided by
   the gcd of their entries once the tableau's largest entry reaches
   2**20 (at every pivot once it holds Python integers): a row's
   primitive form does not depend on when it is taken.  The tableau is
   int64 until a reduced entry reaches 2**31, and Python integers after.

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


def _exact(values) -> list:
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]


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


class DenseColumns:
    """The columns of a dense matrix, all scaled by the lcm ``scale`` of
    its entries' denominators."""

    def __init__(self, a_rows: Sequence[Sequence], n: int):
        exact = [_exact(row) for row in a_rows]
        self.scale = lcm(1, *(v.denominator for row in exact for v in row))
        ints = [[v.numerator * (self.scale // v.denominator) for v in row] for row in exact]
        # int64 only while every column's 1-norm stays below _INT64_SAFE.
        self.norm = max((sum(map(abs, col)) for col in zip(*ints)), default=0)
        wide = self.norm >= _INT64_SAFE
        self.matrix = np.array(ints, dtype=object if wide else np.int64).reshape(len(ints), n)
        self.n = n

    def price(self, y: np.ndarray) -> int | None:
        mat = self.matrix
        if y.dtype == object or mat.dtype == object:
            y, mat = y.astype(object), mat.astype(object)
        return _first_positive(self.n, lambda start, stop: y @ mat[:, start:stop])

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        rows = np.flatnonzero(self.matrix[:, j])
        return rows, self.matrix[rows, j]


class IncidenceColumns:
    """0/1 columns, never built: column j is 1 at the row indices
    ``rows[j]`` (distinct, the same number for every j) and 0 elsewhere."""

    scale = 1

    def __init__(self, rows: np.ndarray):
        self.rows, self.n, self.norm = rows, len(rows), rows.shape[1]
        self._ones = np.ones(rows.shape[1], dtype=np.int64)

    def price(self, y: np.ndarray) -> int | None:
        return _first_positive(self.n, lambda start, stop: y[self.rows[start:stop]].sum(axis=1))

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.rows[j], self._ones


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


def solve_columns(columns, b: Sequence) -> Feasible | FarkasInfeasible:
    """Phase 1 on A x = b, A given by the column source ``columns``.  The
    answer is not verified against A: the caller checks it."""
    m, n = len(b), columns.n
    rhs = _exact(b)
    flip = np.array([-1 if v < 0 else 1 for v in rhs], dtype=np.int64)
    flipped = (flip < 0).any()
    # Row i is c_i times [e_i | |b_i|] with c_i the denominator of b_i; the
    # cost row, minimizing the sum of artificials, is sigma times
    # [0 | -sum |b_i| | 1]: row[j] / scale is the reduced cost of
    # artificial j and -row[m] / scale the objective value.
    sigma = lcm(*(v.denominator for v in rhs))
    obj = sum(abs(v.numerator) * (sigma // v.denominator) for v in rhs)
    g = gcd(obj, sigma)
    entries = [*(v.denominator for v in rhs), *(abs(v.numerator) for v in rhs), obj // g, sigma // g]
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
            tab *= scale_up[:, None]
            dirty |= scale_up > 1
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

    *rows, cost = tab.tolist()
    if cost[m] == 0:
        # Basic x_j = rhs_i / c_i, c_i the row's scale: its entry in
        # column j, whose rational value is 1.
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = Fraction(rows[i][m], int(entering(bv)[i]))
        return Feasible(x)
    # Infeasible: read the dual prices off the artificial columns.  The
    # artificial for row i entered with cost 1, so y_i = 1 - cost_i / scale.
    scale = cost[m + 1]
    return FarkasInfeasible([Fraction(int(f) * (scale - c), scale)
                             for f, c in zip(flip, cost[:m])])


def solve_feasibility(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> Feasible | FarkasInfeasible:
    """Solve a dense system and verify the answer against it, exactly,
    before handing it back."""
    m = len(a_rows)
    if m == 0:
        return Feasible([])
    n = len(a_rows[0])
    if any(len(r) != n for r in a_rows):
        raise ValueError("ragged constraint matrix")
    if len(b) != m:
        raise ValueError(f"{len(b)} rhs entries for {m} rows")
    columns = DenseColumns(a_rows, n)
    k, rhs = columns.scale, _exact(b)
    mat = columns.matrix.astype(object)
    res = solve_columns(columns, [k * v for v in rhs])

    if res:
        x = res.solution
        if any(v < 0 for v in x):
            raise RuntimeError("negative component in basic solution")
        # Every row in integers: x = xs / d, row i = k A_i.
        d = lcm(*(v.denominator for v in x))
        xs = np.array([v.numerator * (d // v.denominator) for v in x], dtype=object)
        for i, got in enumerate((mat @ xs).tolist()):
            if Fraction(got, d * k) != rhs[i]:
                raise RuntimeError(f"solution fails row {i}: {Fraction(got, d * k)} != {b[i]}")
        return res

    y = res.certificate
    d = lcm(*(v.denominator for v in y))
    ys = np.array([v.numerator * (d // v.denominator) for v in y], dtype=object)
    for j, dot in enumerate((ys @ mat).tolist()):
        if dot > 0:
            raise RuntimeError(f"certificate fails on column {j}: {Fraction(dot, d * k)} > 0")
    gap = sum(yi * bi for yi, bi in zip(y, rhs))
    if gap <= 0:
        raise RuntimeError(f"certificate has nonpositive gap {gap}")
    return res
