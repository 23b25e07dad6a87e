"""``is_local`` over implicit vertex columns against the dense path.

``is_local`` never builds the deterministic vertices it prices: the LP
reads them as 0/1 incidence columns and only the vertices with positive
weight become resources.  ``decompose_extremal`` over the materialized
``local_deterministic_vertices`` solves the same system through the dense
column source.  Both run the same Bland pivots, so every test here asserts
``==`` answers: mixture weights and vertex ids (and tables), certificate
coefficients in the same order, threshold and value.  The guards of the
implicit path (entry-by-entry reconstruction, the certificate scored on
every vertex, the vertex cap) are tested with wrong LP answers.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cache, reduce
from itertools import product

import numpy as np
import pytest

import boxnet.decompose as decompose
from boxnet.decompose import (
    DEFAULT_VERTEX_CAP,
    VERTEX_CAP_ENV,
    Infeasible,
    Mixture,
    decompose_extremal,
    decompose_local,
    is_local,
    local_deterministic_vertices,
    ns_vertices_222,
)
from boxnet.linprog import FarkasInfeasible, Feasible
from boxnet.resource import Alphabet, NonsignalingResource, _Tensor, make_pr_box
from test_linprog_reference import _mixture, _pr_ab_times, _weights

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

F = Fraction
BITS = Alphabet((0, 1))


def local_vertices(r: NonsignalingResource):
    return local_deterministic_vertices(r.parties, r.input_alphabets, r.output_alphabets)


def assert_matches_dense(r: NonsignalingResource, vs=None):
    """is_local(r) == decompose_extremal(r, the local vertices), field by
    field; returns the verdict."""
    got = is_local(r)
    want = decompose_extremal(r, vs or local_vertices(r))
    if isinstance(want, Mixture):
        assert got.local and got.certificate is None
        assert [(w, v.id) for w, v in got.mixture] == [(w, v.id) for w, v in want]
        assert all(v.same_table(u) for (_, v), (_, u) in zip(got.mixture, want))
    else:
        assert isinstance(want, Infeasible)
        assert not got.local and got.mixture is None
        cert = got.certificate
        assert (cert.coefficients, cert.threshold, cert.value) == \
            (want.coefficients, want.threshold, want.value)
        assert list(cert.coefficients) == list(want.coefficients)
    return got.local


def noisy(box: NonsignalingResource, v: Fraction) -> NonsignalingResource:
    """v * box + (1 - v) * uniform noise over the output tuples."""
    k = len(list(box.output_space()))
    table = {x: {a: v * box.table[x][a] + (1 - v) * F(1, k) for a in box.output_space()}
             for x in box.input_space()}
    return NonsignalingResource.make(f"{box.id}@{v}", box.parties, box.input_alphabets,
                                     box.output_alphabets, table)


def pr_ab_uniform_c(settings) -> NonsignalingResource:
    """A PR box between A and B on their settings mod 2, C a uniform bit."""
    table = {x: {a: F(1, 4) if a[0] ^ a[1] == (x[0] % 2) * (x[1] % 2) else F(0)
                 for a in product((0, 1), repeat=3)}
             for x in product(*(range(s) for s in settings))}
    return NonsignalingResource.make(f"prab{settings}", ("A", "B", "C"),
                                     [Alphabet(tuple(range(s))) for s in settings],
                                     [BITS] * 3, table)


def reference_vertices(parties, in_alphas, out_alphas):
    """The retired enumerator of ``local_deterministic_vertices``: per
    party, the 0/1 matrix [x, a] of each function input -> output in
    product order, one vertex per choice of functions in product order,
    as an outer product moved to [x_1..x_n, a_1..a_n]."""
    per_party = [[np.eye(len(a_out), dtype=np.int64)[list(choice)]
                  for choice in product(range(len(a_out)), repeat=len(a_in))]
                 for a_in, a_out in zip(in_alphas, out_alphas)]
    n = len(parties)
    axes = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return [NonsignalingResource.make(
        f"det{i}", parties, in_alphas, out_alphas,
        _Tensor(np.ascontiguousarray(reduce(np.multiply.outer, combo).transpose(axes)), 1))
        for i, combo in enumerate(product(*per_party))]


@pytest.mark.parametrize("ins, outs", [
    ((1,), (2,)), ((2, 2), (2, 2)), ((2, 3, 2), (2, 2, 2)), ((3, 3), (3, 3)),
    ((2, 1), (3, 2)), ((1, 2, 2), (2, 3, 2)),
])
def test_vertex_order_matches_retired_enumerator(ins, outs):
    parties = ("A", "B", "C")[:len(ins)]
    in_alphas = [Alphabet(tuple(range(k))) for k in ins]
    out_alphas = [Alphabet(tuple(range(k))) for k in outs]
    got = local_deterministic_vertices(parties, in_alphas, out_alphas).vertices
    want = reference_vertices(parties, in_alphas, out_alphas)
    assert [v.id for v in got] == [v.id for v in want]
    assert all(v.same_table(u) for v, u in zip(got, want))


# -- the locality systems of the reference suite --------------------------------------


def test_noisy_pr_boxes_match_dense():
    local = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    verdicts = [assert_matches_dense(noisy(make_pr_box(), F(k, 16)), local) for k in range(17)]
    assert verdicts == [k <= 8 for k in range(17)]


def test_tripartite_mixtures_match_dense():
    rng = random.Random(1303)
    vs = local_deterministic_vertices(("A", "B", "C"), [BITS] * 3, [BITS] * 3)
    pr_ab = [_pr_ab_times(c) for c in vs.vertices[:4]]
    verdicts = set()
    for i in range(6):
        parts = list(zip(_weights(rng, 4), rng.sample(vs.vertices, 4)))
        if i % 2:
            parts = [(F(3, 4), rng.choice(pr_ab))] + [(w / 4, v) for w, v in parts]
        verdicts.add(assert_matches_dense(_mixture(f"tri{i}", parts), vs))
    assert verdicts == {True, False}


def test_ns222_mixtures_match_dense():
    rng = random.Random(222)
    ns = ns_vertices_222()
    local = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    verdicts = set()
    for i in range(12):
        k = rng.randint(1, 4)
        parts = list(zip(_weights(rng, k), rng.sample(ns.vertices, k)))
        verdicts.add(assert_matches_dense(_mixture(f"nsmix{i}", parts), local))
    assert verdicts == {True, False}


def test_vertices_decompose_as_themselves():
    vs = local_deterministic_vertices(("A", "B", "C"), [BITS] * 3, [BITS] * 3)
    for v in vs.vertices[::9]:
        res = is_local(v)
        assert [(w, u.id) for w, u in res.mixture] == [(F(1), v.id)]
        assert_matches_dense(v, vs)


@pytest.mark.parametrize("n", [2, 3])
def test_every_vertex_decomposes_through_the_lp_as_itself(n):
    """A deterministic box takes the LP like any other: each local vertex
    of the binary n-party signature comes back alone, with weight 1."""
    vs = local_deterministic_vertices("ABC"[:n], [BITS] * n, [BITS] * n)
    for v in vs.vertices:
        (w, u), = decompose_local(v)
        assert (w, u.id) == (1, v.id) and u.same_table(v)


@pytest.mark.parametrize("settings, v, local", [
    ((2, 3, 2), F(1, 2), True),
    ((2, 3, 2), F(3, 4), False),
    ((3, 3, 3), F(1, 2), True),
    ((3, 3, 3), F(3, 4), False),
])
def test_larger_tripartite_signatures_match_dense(settings, v, local):
    assert assert_matches_dense(noisy(pr_ab_uniform_c(settings), v)) is local


@cache
def pools() -> dict:
    """Per signature: the mixing pool (deterministic vertices and PR-class
    boxes) and the local vertices."""
    bi = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    tri = local_deterministic_vertices(("A", "B", "C"), [BITS] * 3, [BITS] * 3)
    return {"bipartite": (ns_vertices_222().vertices, bi),
            "tripartite": (tri.vertices + [_pr_ab_times(c) for c in tri.vertices[:8]], tri)}


@st.composite
def mixtures(draw):
    """A rational mixture of up to 4 deterministic vertices and PR-class
    boxes of one signature, with the local vertices of that signature."""
    pool, local = pools()[draw(st.sampled_from(["bipartite", "tripartite"]))]
    picks = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(0, len(pool) - 1)),
                          min_size=1, max_size=4))
    total = sum(w for w, _ in picks)
    return _mixture("mix", [(F(w, total), pool[i]) for w, i in picks]), local


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mixtures())
def test_random_mixtures_match_dense(case):
    r, local = case
    assert_matches_dense(r, local)


# -- the guards of the implicit path -------------------------------------------------


def _answer_with(monkeypatch, result):
    """Make is_local's LP return ``result``, right or wrong."""
    monkeypatch.setattr(decompose, "solve_columns", lambda columns, rhs: result)


def test_reconstruction_guard_checks_every_entry(monkeypatch):
    box = noisy(make_pr_box(), F(1, 4))
    vs = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    weights = [w for w, _ in is_local(box).mixture]
    wrong = [F(0)] * (len(vs) - len(weights)) + weights[::-1]
    _answer_with(monkeypatch, Feasible(wrong))
    first = next((x, a) for x in box.input_space() for a in box.output_space()
                 if sum(w * v.table[x][a] for w, v in zip(wrong, vs.vertices))
                 != box.table[x][a])
    with pytest.raises(AssertionError,
                       match=re.escape(f"reconstruction mismatch at {first[0]},{first[1]}:")):
        is_local(box)


def test_certificate_guard_scores_every_vertex(monkeypatch):
    # G = the PR box's support scores 3 on the deterministic vertices that
    # win CHSH 3 times in 4, 1 on the others: a threshold of 5/2 fails on
    # the first of the former, which the guard must name.
    pr = make_pr_box()
    support = [F(1) if pr.table[x][a] else F(0)
               for x in pr.input_space() for a in pr.output_space()]
    vs = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    scores = [sum(v.table[x][a] for x in pr.input_space() for a in pr.output_space()
                  if pr.table[x][a]) for v in vs.vertices]
    first = next(v.id for v, s in zip(vs.vertices, scores) if s > F(5, 2))
    box = noisy(pr, F(9, 10))
    _answer_with(monkeypatch, FarkasInfeasible(support + [F(-5, 2)]))
    with pytest.raises(AssertionError, match=f"certificate fails on vertex '{first}'$"):
        is_local(box)
    _answer_with(monkeypatch, FarkasInfeasible(support + [F(-4)]))
    with pytest.raises(AssertionError, match="does not separate the target"):
        is_local(box)


def test_builds_only_the_vertices_with_weight(monkeypatch):
    built = []
    real = decompose._deterministic_vertex

    def spy(j, *args):
        built.append(j)
        return real(j, *args)

    monkeypatch.setattr(decompose, "_deterministic_vertex", spy)
    res = is_local(noisy(pr_ab_uniform_c((2, 2, 2)), F(1, 2)))
    assert built == [int(v.id[3:]) for _, v in res.mixture]


def test_vertex_cap_refuses_before_allocating(monkeypatch):
    # 20 binary inputs a party: 2**40 vertices, refused at once.
    wide = [Alphabet(tuple(range(20))), Alphabet(tuple(range(20)))]
    uniform = {x: {a: F(1, 4) for a in product((0, 1), repeat=2)}
               for x in product(range(20), repeat=2)}
    box = NonsignalingResource.make("wide", ("A", "B"), wide, [BITS] * 2, uniform)
    message = (f"{2**40} deterministic vertices exceed the cap {DEFAULT_VERTEX_CAP} "
               f"(raise {VERTEX_CAP_ENV} to override)")
    monkeypatch.setattr(decompose, "solve_columns", None)
    with pytest.raises(ValueError, match=re.escape(message)):
        is_local(box)
    monkeypatch.setenv(VERTEX_CAP_ENV, "15")
    with pytest.raises(ValueError, match=re.escape(
            f"16 deterministic vertices exceed the cap 15 (raise {VERTEX_CAP_ENV} to override)")):
        is_local(noisy(make_pr_box(), F(1, 2)))
    with pytest.raises(ValueError, match="16 deterministic vertices exceed the cap 15"):
        local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
