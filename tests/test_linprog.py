"""Feasibility solver: exact solutions and exact infeasibility certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import boxnet.linprog as linprog
from boxnet.linprog import FarkasInfeasible, Feasible, solve_feasibility

F = Fraction


def test_identity_system():
    res = solve_feasibility([[F(1), F(0)], [F(0), F(1)]], [F(3), F('1/2')])
    assert isinstance(res, Feasible)
    assert res.solution == [F(3), F('1/2')]


def test_negative_rhs_is_flipped_not_rejected():
    # -x1 = -2 has the solution x1 = 2.
    res = solve_feasibility([[F(-1)]], [F(-2)])
    assert isinstance(res, Feasible)
    assert res.solution == [F(2)]


def test_simple_infeasible():
    # x1 + x2 = -1 with x >= 0.
    res = solve_feasibility([[F(1), F(1)]], [F(-1)])
    assert isinstance(res, FarkasInfeasible)
    y = res.certificate
    assert y[0] * 1 <= 0 and y[0] * 1 <= 0
    assert y[0] * F(-1) > 0


def test_conflicting_rows_infeasible():
    # x1 = 1 and x1 = 2.
    res = solve_feasibility([[F(1)], [F(1)]], [F(1), F(2)])
    assert isinstance(res, FarkasInfeasible)


def test_redundant_rows_feasible():
    rows = [[F(1), F(1)], [F(2), F(2)], [F(1), F(0)]]
    res = solve_feasibility(rows, [F(1), F(2), F('1/3')])
    assert isinstance(res, Feasible)
    x = res.solution
    assert x[0] == F('1/3') and x[0] + x[1] == 1


def test_zero_rhs_degenerate():
    res = solve_feasibility([[F(1), F(-1)]], [F(0)])
    assert isinstance(res, Feasible)


def test_random_feasible_systems_reconstruct():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x_star = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(ai * xi for ai, xi in zip(row, x_star)) for row in a]
        res = solve_feasibility(a, b)
        assert isinstance(res, Feasible)  # solver must find *some* solution
        for row, bi in zip(a, b):
            assert sum(ai * xi for ai, xi in zip(row, res.solution)) == bi
        assert all(xi >= 0 for xi in res.solution)


def test_random_systems_always_answer_with_verified_result():
    # Whatever the outcome, the returned object is internally verified;
    # here we re-verify externally on a mix of feasible and infeasible.
    rng = random.Random(17)
    feas = infeas = 0
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-4, 4)) for _ in range(m)]
        res = solve_feasibility(a, b)
        if isinstance(res, Feasible):
            feas += 1
            for row, bi in zip(a, b):
                assert sum(ai * xi for ai, xi in zip(row, res.solution)) == bi
        else:
            infeas += 1
            y = res.certificate
            for j in range(n):
                assert sum(y[i] * a[i][j] for i in range(m)) <= 0
            assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    assert feas > 0 and infeas > 0


def test_pr_box_not_in_local_hull_raw():
    # The 16 bipartite deterministic boxes vs the PR box, as a raw system:
    # columns are vertices, rows are the 16 (x,y,a,b) probabilities plus
    # normalization.  Infeasibility here is the CHSH theorem in LP form.
    from itertools import product

    def det_entry(fa, fb, x, y, a, b):
        return F(1) if (fa[x] == a and fb[y] == b) else F(0)

    fns = list(product((0, 1), repeat=2))  # (f(0), f(1))
    cols = [(fa, fb) for fa in fns for fb in fns]
    rows, rhs = [], []
    for x, y, a, b in product((0, 1), repeat=4):
        rows.append([det_entry(fa, fb, x, y, a, b) for fa, fb in cols])
        rhs.append(F(1, 2) if (a ^ b) == (x & y) else F(0))
    rows.append([F(1)] * len(cols))
    rhs.append(F(1))
    res = solve_feasibility(rows, rhs)
    assert isinstance(res, FarkasInfeasible)


def test_seeded_systems_with_reentering_artificials_match_reference():
    # In some of these systems several artificial columns have a negative
    # reduced cost at once, and only Bland's lowest index reproduces the
    # reference certificate (seed 6, system 26 and seed 10, system 91).
    from test_linprog_reference import assert_same, random_system

    for seed in (6, 10):
        rng = random.Random(seed)
        for _ in range(100):
            assert_same(random_system(rng))


@pytest.mark.parametrize("answer, message", [
    (Feasible([F(-1), F(3)]), "negative component in basic solution"),
    (Feasible([F(2), F(0)]), "solution fails row 1: 2 != 0"),
    (FarkasInfeasible([F(1), F(0)]), "certificate fails on column 0: 1 > 0"),
    (FarkasInfeasible([F(-1), F(0)]), "certificate has nonpositive gap -2"),
])
def test_wrong_answers_are_refused(monkeypatch, answer, message):
    """x + y = 2, x - y = 0: each guard refuses a solver answer that is
    wrong in its own way."""
    monkeypatch.setattr(linprog, "solve_columns", lambda columns, rhs: answer)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        solve_feasibility([[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)])
