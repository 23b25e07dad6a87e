"""The integer-row simplex against the retired ``Fraction`` tableau.

``reference_solve`` is the dense ``Fraction`` tableau that
``boxnet.linprog.solve_columns`` replaced, kept as it was; ``solve_dense``
hands a dense system to ``solve_columns``.  Both run Bland's rule on the
same tableau up to positive row scaling, so they take the same pivots:
every test here asserts the same result type and ``==`` solutions or
certificates, on seeded random systems (negative and zero
right-hand sides, redundant and zero rows, ``int`` and ``str`` entries,
denominators whose products pass 2**63) and on the systems that
``decompose_extremal`` builds for noisy PR boxes, tripartite mixtures and
mixtures of the 24 bipartite nonsignaling vertices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import boxnet.decompose as decompose
from boxnet.decompose import (
    Infeasible,
    Mixture,
    local_deterministic_vertices,
    ns_vertices_222,
)
from boxnet.linprog import Columns, FarkasInfeasible, Feasible, integers, solve_columns
from boxnet.resource import Alphabet, NonsignalingResource, make_pr_box

F = Fraction


def reference_solve(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> Feasible | FarkasInfeasible:
    m = len(a_rows)
    if m == 0:
        return Feasible([])
    n = len(a_rows[0])
    rows = [[Fraction(v) for v in row] for row in a_rows]
    rhs = [Fraction(v) for v in b]
    if any(len(r) != n for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != m:
        raise ValueError(f"{len(rhs)} rhs entries for {m} rows")

    flipped = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True

    # Tableau columns: n structural, m artificial.  Basis starts artificial.
    width = n + m
    tab = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
           + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))

    # Phase-1 cost row: minimize sum of artificials.  cost[j] holds the
    # reduced cost of column j; obj holds the current objective value.
    cost = [Fraction(0)] * width
    obj = Fraction(0)
    for j in range(width):
        cost[j] = (Fraction(1) if j >= n else Fraction(0)) - sum(tab[i][j] for i in range(m))
    obj = sum(rhs)

    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test; ties broken by smallest basis variable (Bland).
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            # Unbounded phase-1 objective is impossible (bounded below by 0);
            # a negative-cost column with no positive entry cannot occur.
            raise RuntimeError("phase-1 simplex lost boundedness — numeric bug")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [vi - f * vl for vi, vl in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            for j in range(width):
                cost[j] -= f * tab[leave][j]
            obj += f * tab[leave][width]
        basis[leave] = enter

    if obj == 0:
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = tab[i][width]
        for i in range(m):
            got = sum(ai * xi for ai, xi in zip(a_rows[i], x))
            if got != b[i]:
                raise RuntimeError(f"solution fails row {i}: {got} != {b[i]}")
        if any(v < 0 for v in x):
            raise RuntimeError("negative component in basic solution")
        return Feasible(x)

    # Infeasible: read the dual prices off the artificial columns.  The
    # artificial for row i entered with cost 1, so y_i = 1 - cost[n + i].
    y = [Fraction(1) - cost[n + i] for i in range(m)]
    y = [-yi if flipped[i] else yi for i, yi in enumerate(y)]
    for j in range(n):
        dot = sum(y[i] * a_rows[i][j] for i in range(m))
        if dot > 0:
            raise RuntimeError(f"certificate fails on column {j}: {dot} > 0")
    gap = sum(y[i] * b[i] for i in range(m))
    if gap <= 0:
        raise RuntimeError(f"certificate has nonpositive gap {gap}")
    return FarkasInfeasible(y)


def solve_dense(a_rows, b) -> Feasible | FarkasInfeasible:
    """``solve_columns`` on dense rows: each entry parsed by ``Fraction``,
    the columns as integers over the lcm of their denominators.  The
    answer is returned unchecked."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    values, k = integers([F(v) for col in zip(*a_rows) for v in col])
    columns = Columns(np.broadcast_to(np.arange(m), (n, m)), values.reshape(n, m), k)
    return solve_columns(columns, [k * F(v) for v in b])


# -- comparison ------------------------------------------------------------


def assert_same(system_new, system_ref=None):
    """Solve with both solvers; same type and equal results.  The
    reference gets ``system_ref`` when given (Fractions for str entries,
    which its final checks cannot multiply)."""
    a, b = system_new
    got = solve_dense(a, b)
    want = reference_solve(*(system_ref or system_new))
    assert type(got) is type(want)
    if isinstance(want, Feasible):
        assert got.solution == want.solution
    else:
        assert got.certificate == want.certificate
    return got


def _entry(rng, den_choices):
    return F(rng.randint(-4, 4), rng.choice(den_choices))


def random_system(rng, den_choices=(1, 1, 1, 2, 3, 6)):
    """m x n system, feasible or not, with flipped, redundant, zero and
    degenerate rows mixed in."""
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    a = [[_entry(rng, den_choices) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x_star = [F(rng.randint(0, 5), rng.choice(den_choices)) if rng.random() < 0.7
                  else F(0) for _ in range(n)]
        b = [sum(ai * xi for ai, xi in zip(row, x_star)) for row in a]
    else:
        b = [_entry(rng, den_choices) for _ in range(m)]
    if rng.random() < 0.4:          # redundant row: a multiple of another
        i, k = rng.randrange(m), F(rng.choice((-3, -1, 2, 5)), rng.choice(den_choices))
        a.append([k * v for v in a[i]])
        b.append(k * b[i] if rng.random() < 0.8 else k * b[i] + 1)
    if rng.random() < 0.3:          # sum of two rows
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        a.append([u + v for u, v in zip(a[i], a[j])])
        b.append(b[i] + b[j])
    if rng.random() < 0.2:          # zero row, usually with zero rhs
        a.append([F(0)] * n)
        b.append(F(0) if rng.random() < 0.8 else F(1))
    if rng.random() < 0.3:          # degenerate: some zero right-hand sides
        for i in range(len(b)):
            if rng.random() < 0.5:
                b[i] = F(0)
    order = list(range(len(a)))
    rng.shuffle(order)
    return [a[i] for i in order], [b[i] for i in order]


def test_known_systems():
    systems = [
        ([[1, 0], [0, 1]], [3, F(1, 2)]),
        ([[-1]], [-2]),
        ([[1, 1]], [-1]),
        ([[1], [1]], [1, 2]),
        ([[1, 1], [2, 2], [1, 0]], [1, 2, F(1, 3)]),
        ([[1, -1]], [0]),
        ([[0, 0], [1, 1]], [0, 1]),
        ([[0, 0]], [1]),
        ([[]], [0]),
        ([[]], [1]),
    ]
    for a, b in systems:
        assert_same((a, b))


def test_random_systems_match_reference():
    rng = random.Random(20240531)
    kinds = {Feasible: 0, FarkasInfeasible: 0}
    for _ in range(600):
        res = assert_same(random_system(rng))
        kinds[type(res)] += 1
    assert min(kinds.values()) > 100


def _int_or_str(v: Fraction):
    return v.numerator if v.denominator == 1 else str(v)


def test_int_and_str_entries_match_reference():
    # Integers as int, the rest as "p/q" strings: the solver parses what
    # Fraction parses; the reference gets the same values as Fractions.
    rng = random.Random(77)
    for _ in range(200):
        a, b = random_system(rng)
        got = assert_same(([[_int_or_str(v) for v in row] for row in a],
                           [_int_or_str(v) for v in b]), (a, b))
        assert all(isinstance(v, Fraction) for v in
                   (got.solution if got else got.certificate))


def test_denominators_past_int64_match_reference():
    # Products of these denominators pass 2**63 within one row.
    big = (2**61 - 1, 2**31 - 1, 2**89 - 1, 10**19 + 51)
    rng = random.Random(4242)
    for _ in range(150):
        assert_same(random_system(rng, den_choices=(1,) + big))


def test_entries_near_int64_products_match_reference():
    # Integer entries near 2**24, so the tableau starts in int64 and the
    # first pivots leave its safe range: it changes representation mid-solve.
    rng = random.Random(3131)
    for _ in range(100):
        a, b = random_system(rng)
        k = rng.choice((2**22 - 3, 2**22 + 9, 3 * 2**21 + 1))
        assert_same(([[v * k + rng.randint(-3, 3) for v in row] for row in a],
                     [v * k for v in b]))


def test_rejects_like_reference():
    for a, b in [([[1, 2], [3]], [1, 2]), ([[1, 2]], [1, 2])]:
        with pytest.raises(ValueError):
            reference_solve(a, b)


# -- the systems decompose_extremal builds --------------------------------------


def _mixture(rid, parts):
    """sum w * table over (w, resource) pairs, as a new resource."""
    first = parts[0][1]
    table = {x: {a: sum(w * q.table[x][a] for w, q in parts) for a in first.output_space()}
             for x in first.input_space()}
    return NonsignalingResource.make(rid, first.parties, first.input_alphabets,
                                     first.output_alphabets, table)


def _weights(rng, k):
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [F(w, sum(raw)) for w in raw]


def reference_decompose(r, vs):
    """The retired table-view system and post-processing over the
    reference solver."""
    keys = [(x, a) for x in r.input_space() for a in r.output_space()]
    rows = [[v.table[x][a] for v in vs.vertices] for x, a in keys] + [[F(1)] * len(vs)]
    rhs = [r.table[x][a] for x, a in keys] + [F(1)]
    res = reference_solve(rows, rhs)
    if isinstance(res, Feasible):
        return rows, rhs, [(w, v) for w, v in zip(res.solution, vs.vertices) if w > 0]
    y = res.certificate
    coeffs = {k: yi for k, yi in zip(keys, y[:-1]) if yi != 0}
    return rows, rhs, (coeffs, -y[-1], sum(c * r.table[x][a] for (x, a), c in coeffs.items()))


def assert_decompose_matches(r, vs, monkeypatch):
    seen = []

    def spy(columns, rhs):
        # The system as the rational rows it was scaled from, rebuilt
        # from the columns, so that any column source reads the same.
        k = columns.scale
        rows = [[F(0)] * columns.n for _ in rhs]
        for j in range(columns.n):
            for i, v in zip(*(part.tolist() for part in columns.column(j))):
                rows[i][j] = F(v, k)
        seen.append((rows, [F(v) / k for v in rhs]))
        return solve_columns(columns, rhs)

    monkeypatch.setattr(decompose, "solve_columns", spy)
    out = decompose.decompose_extremal(r, vs)
    if not seen:        # r is one of the vertices
        assert isinstance(out, Mixture) and len(out) == 1
        return out
    rows, rhs, want = reference_decompose(r, vs)
    assert seen == [(rows, rhs)]
    assert_same((rows, rhs))
    if isinstance(out, Mixture):
        assert [(w, v.id) for w, v in out] == [(w, v.id) for w, v in want]
    else:
        assert isinstance(out, Infeasible)
        assert (out.coefficients, out.threshold, out.value) == want
        assert list(out.coefficients) == list(want[0])
    return out


BITS = Alphabet((0, 1))


def test_noisy_pr_boxes_match_reference(monkeypatch):
    local = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    uniform = _mixture("U", [(F(1, 4), v) for v in local.vertices[:4]])
    verdicts = []
    for k in range(17):
        v = F(k, 16)
        box = _mixture(f"noisy{v}", [(v, make_pr_box()), (1 - v, uniform)])
        verdicts.append(isinstance(assert_decompose_matches(box, local, monkeypatch), Mixture))
        assert_decompose_matches(box, ns_vertices_222(), monkeypatch)
    assert verdicts == [k <= 8 for k in range(17)]


def _pr_ab_times(c):
    """PR box between A and B; C answers as in the deterministic vertex c."""
    pr = make_pr_box()
    table = {}
    for x in c.input_space():
        hit = next(a for a in c.output_space() if c.table[x][a])
        table[x] = {a: pr.table[x[:2]][a[:2]] if a[2] == hit[2] else F(0)
                    for a in c.output_space()}
    return NonsignalingResource.make(f"pr-{c.id}", c.parties, c.input_alphabets,
                                     c.output_alphabets, table)


def test_tripartite_mixtures_match_reference(monkeypatch):
    rng = random.Random(1303)
    vs = local_deterministic_vertices(("A", "B", "C"), [BITS] * 3, [BITS] * 3)
    pr_ab = [_pr_ab_times(c) for c in vs.vertices[:4]]
    kinds = set()
    for i in range(4):
        parts = list(zip(_weights(rng, 4), rng.sample(vs.vertices, 4)))
        if i % 2:       # 3/4 of a PR box between A and B: not local
            parts = [(F(3, 4), rng.choice(pr_ab))] + [(w / 4, v) for w, v in parts]
        kinds.add(type(assert_decompose_matches(_mixture(f"tri{i}", parts), vs, monkeypatch)))
    assert kinds == {Mixture, Infeasible}


def test_ns222_mixtures_match_reference(monkeypatch):
    rng = random.Random(222)
    ns = ns_vertices_222()
    local = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    kinds = set()
    for i in range(12):
        k = rng.randint(1, 4)
        parts = list(zip(_weights(rng, k), rng.sample(ns.vertices, k)))
        box = _mixture(f"nsmix{i}", parts)
        assert isinstance(assert_decompose_matches(box, ns, monkeypatch), Mixture)
        kinds.add(type(assert_decompose_matches(box, local, monkeypatch)))
    assert kinds == {Mixture, Infeasible}
