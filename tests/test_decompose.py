"""Vertex sets, polytope membership, and network mixture rewrites."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product

import pytest

import boxnet.decompose as decompose
from boxnet.decompose import (
    Infeasible,
    Mixture,
    VertexSet,
    decompose_extremal,
    excise_local_deterministic,
    expand_to_extremal_mixture,
    factor_out_shared_randomness,
    is_local,
    local_deterministic_vertices,
    ns_vertices_222,
)
from boxnet.linprog import FarkasInfeasible, Feasible
from boxnet.network import Network, induced_behavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    make_local_deterministic,
    make_pr_box,
    make_shared_randomness,
)
from boxnet.wiring import DecisionTree, Internal, Terminal

from netgen import BITS, random_small_network, random_wired_pairwise_network, worked_network

F = Fraction


def support(beh):
    return {x: {a: v for a, v in col.items() if v != 0}
            for x, col in beh.table.items()}


def noisy_pr(v: Fraction) -> NonsignalingResource:
    pr = make_pr_box()
    table = {
        x: {a: v * pr.table[x][a] + (1 - v) * F(1, 4)
            for a in pr.table[x]}
        for x in pr.table
    }
    return NonsignalingResource.make(f"noisy{v}", ("A", "B"),
                                     pr.input_alphabets, pr.output_alphabets, table)


def test_local_vertex_counts():
    bits = Alphabet((0, 1))
    vs = local_deterministic_vertices(("A", "B"), [bits, bits], [bits, bits])
    assert len(vs) == 16
    vs3 = local_deterministic_vertices(("A", "B", "C"), [bits] * 3, [bits] * 3)
    assert len(vs3) == 64
    one = local_deterministic_vertices(("A",), [Alphabet((0,))], [bits])
    assert len(one) == 2
    vs.check_distinct()
    one.check_distinct()


def test_empty_vertex_set_is_refused():
    with pytest.raises(ValueError, match="empty vertex set"):
        VertexSet([], [])


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("NONSIG_VERTEX_CAP", "10")
    bits = Alphabet((0, 1))
    with pytest.raises(ValueError, match="exceed the cap"):
        local_deterministic_vertices(("A", "B"), [bits, bits], [bits, bits])


def test_ns222_has_24_extremal_vertices():
    vs = ns_vertices_222()
    assert len(vs) == 24
    assert vs.provenance.count("deterministic") == 16
    assert vs.provenance.count("pr-class") == 8
    # Extremality of the PR-class members is certified inside the
    # constructor; spot-check one separation by hand here.
    pr = make_pr_box()
    others = VertexSet([v for v in vs.vertices if not v.same_table(pr)],
                       ["x"] * 23)
    res = decompose_extremal(pr, others)
    assert isinstance(res, Infeasible)
    assert res.value > res.threshold


def test_vertex_decomposes_as_itself():
    """An extreme vertex is the hull LP's only solution for itself: weight 1
    on that vertex, for the PR box and every other ns222 vertex and the
    local deterministic ones."""
    mix = decompose_extremal(make_pr_box(), ns_vertices_222())
    assert isinstance(mix, Mixture)
    assert len(mix) == 1
    w, v = mix.components[0]
    assert w == 1 and v.same_table(make_pr_box())
    local = local_deterministic_vertices(("A", "B"), [BITS, BITS], [BITS, BITS])
    for vs in (ns_vertices_222(), local):
        for v in vs.vertices:
            assert decompose_extremal(v, vs).components == [(1, v)]


def test_pr_plus_antipr_is_local():
    pr = make_pr_box()
    anti = make_pr_box(gamma=1)
    table = {x: {a: F(1, 2) * (pr.table[x][a] + anti.table[x][a])
                 for a in pr.table[x]} for x in pr.table}
    mixed = NonsignalingResource.make("even", ("A", "B"),
                                      pr.input_alphabets, pr.output_alphabets, table)
    res = is_local(mixed)
    assert res.local
    got = {x: {a: F(0) for a in mixed.table[x]} for x in mixed.table}
    for w, v in res.mixture:
        for x in got:
            for a in got[x]:
                got[x][a] += w * v.table[x][a]
    assert got == mixed.table


def test_uniform_box_is_uniform_mixture_region():
    uniform = noisy_pr(F(0))
    assert is_local(uniform).local


def test_pr_box_not_local_with_chsh_like_certificate():
    res = is_local(make_pr_box())
    assert not res.local
    cert = res.certificate
    # The functional strictly exceeds its vertex maximum on the PR box.
    assert cert.evaluate(make_pr_box()) == cert.value > cert.threshold
    for v in local_deterministic_vertices(("A", "B"), [BITS, BITS], [BITS, BITS]).vertices:
        assert cert.evaluate(v) <= cert.threshold


def test_noisy_pr_local_iff_half():
    for k in range(9):
        v = F(k, 8)
        res = is_local(noisy_pr(v))
        assert res.local == (v <= F(1, 2)), f"v={v}"


def _answer_with(monkeypatch, result):
    """Make decompose_extremal's LP return ``result``, right or wrong."""
    monkeypatch.setattr(decompose, "solve_columns", lambda columns, rhs: result)


def test_reconstruction_guard_checks_every_entry(monkeypatch):
    box = noisy_pr(F(1, 4))
    vs = local_deterministic_vertices(("A", "B"), [BITS, BITS], [BITS, BITS])
    weights = [w for w, _ in is_local(box).mixture]
    wrong = [F(0)] * (len(vs) - len(weights)) + weights[::-1]
    _answer_with(monkeypatch, Feasible(wrong))
    first = next((x, a) for x in box.input_space() for a in box.output_space()
                 if sum(w * v.table[x][a] for w, v in zip(wrong, vs.vertices))
                 != box.table[x][a])
    with pytest.raises(AssertionError, match=re.escape(f"mismatch at {first[0]},{first[1]}:")):
        decompose_extremal(box, vs)


def test_certificate_guard_scores_every_vertex_exactly(monkeypatch):
    # G = the PR box's support; G(PR) = 4, G(deterministic) <= 3, and the
    # PR box's entries are halves, so the vertex check must use them exactly.
    vs = ns_vertices_222()
    pr = make_pr_box()
    support = [F(1) if pr.table[x][a] else F(0)
               for x in pr.input_space() for a in pr.output_space()]
    box = noisy_pr(F(9, 10))
    _answer_with(monkeypatch, FarkasInfeasible(support + [F(-7, 2)]))
    with pytest.raises(AssertionError, match="certificate fails on vertex 'PR'"):
        decompose_extremal(box, vs)
    _answer_with(monkeypatch, FarkasInfeasible(support + [F(-4)]))
    with pytest.raises(AssertionError, match="does not separate the target"):
        decompose_extremal(box, vs)


def test_a_solution_with_negative_weights_is_refused(monkeypatch):
    # -1/16 on each deterministic vertex takes the uniform box out, 1/8 on
    # each PR-class box puts it back, and 1 more on PR leaves the PR box:
    # every entry is rebuilt and the weights sum to 1, but no mixture has a
    # negative weight.
    vs = ns_vertices_222()
    weights = [F(-1, 16) if kind == "deterministic" else F(1, 8) for kind in vs.provenance]
    weights[[v.id for v in vs.vertices].index("PR")] += 1
    _answer_with(monkeypatch, Feasible(weights))
    with pytest.raises(ValueError, match="^weights sum to 2, not 1$"):
        decompose_extremal(make_pr_box(), vs)


def test_noisy_pr_above_half_still_nonsignaling_mixture():
    box = noisy_pr(F(3, 4))
    assert isinstance(is_local(box).certificate, Infeasible)
    mix = decompose_extremal(box, ns_vertices_222())
    assert isinstance(mix, Mixture)


def coin_network():
    coin = make_shared_randomness(("A", "B"), {(0, 0): "1/2", (1, 1): "1/2"}, id="coin")
    pr = make_pr_box(id="box", parties=("A", "B"))
    trees = {
        p: DecisionTree(
            p,
            {s: Internal("coin", 0, {
                c: Internal("box", (s + c) % 2, {0: Terminal(), 1: Terminal()})
                for c in (0, 1)})
             for s in (0, 1)},
            frozenset({"coin", "box"}))
        for p in ("A", "B")
    }
    return Network(("A", "B"), [coin, pr], trees, {"A": BITS, "B": BITS},
                   name="coin+box")


def test_factor_out_single_coin():
    net = coin_network()
    mix = factor_out_shared_randomness(net)  # asserts behavior equality itself
    assert len(mix) == 2
    for w, comp in mix:
        assert w == F(1, 2)
        assert all(not r.is_input_free() for r in comp.resources)


def test_factor_out_without_randomness_is_singleton():
    net = worked_network()
    mix = factor_out_shared_randomness(net)
    assert len(mix) == 1
    assert mix.components[0][0] == 1
    assert mix.components[0][1] is net


def test_factor_out_two_coins():
    c1 = make_shared_randomness(("A",), {(0,): "1/2", (1,): "1/2"}, id="c1")
    c2 = make_shared_randomness(("A",), {(0,): "1/3", (1,): "2/3"}, id="c2")
    tree = DecisionTree(
        "A",
        {0: Internal("c1", 0, {o1: Internal("c2", 0, {o2: Terminal() for o2 in (0, 1)})
                               for o1 in (0, 1)})},
        frozenset({"c1", "c2"}))
    net = Network(("A",), [c1, c2], {"A": tree}, {"A": Alphabet((0,))})
    mix = factor_out_shared_randomness(net)
    assert len(mix) == 4
    assert sorted(w for w, _ in mix) == sorted([F(1, 6), F(1, 3), F(1, 6), F(1, 3)])


def test_factor_out_prunes_zero_probability_samples():
    skew = make_shared_randomness(("A", "B"), {(0, 0): "1"}, id="skew")
    # One party: output alphabet per party is {0} only, so nothing to prune
    # there; use a two-outcome coin with a zero entry instead.
    coin = NonsignalingResource.make(
        "halfdead", ("A",), [Alphabet((0,))], [Alphabet((0, 1))],
        {(0,): {(0,): F(1), (1,): F(0)}})
    tree = DecisionTree(
        "A", {0: Internal("halfdead", 0, {0: Terminal(), 1: Terminal()})},
        frozenset({"halfdead"}))
    net = Network(("A",), [coin], {"A": tree}, {"A": Alphabet((0,))})
    mix = factor_out_shared_randomness(net)
    assert len(mix) == 1  # the probability-0 branch is gone


def test_factor_out_coin_whose_one_input_is_not_zero():
    """An input-free resource's one input symbol need not be 0: each
    sample is weighed at the symbols the coin's alphabets hold."""
    one = Alphabet((1,))
    coin = NonsignalingResource.make("c", ("A", "B"), [one, one], [BITS, BITS],
                                     {(1, 1): {(0, 0): F(1, 3), (1, 1): F(2, 3)}})
    trees = {p: DecisionTree(p, {0: Internal("c", 1, {0: Terminal(), 1: Terminal()})},
                             frozenset({"c"})) for p in "AB"}
    net = Network(("A", "B"), [coin], trees, {"A": Alphabet((0,)), "B": Alphabet((0,))})
    mix = factor_out_shared_randomness(net)  # asserts behavior equality itself
    assert [w for w, _ in mix] == [F(1, 3), F(2, 3)]


def test_factor_out_random_networks():
    # random_small_network never draws an input-free resource; these
    # networks share a three-way coin about half the time.
    rng, factored = random.Random(3), 0
    for i in range(10):
        net = random_wired_pairwise_network(rng, name=f"f{i}")
        mix = factor_out_shared_randomness(net)  # internal exact-equality assert
        factored += mix.components[0][1] is not net
    assert factored >= 3


def build_vertex_sets(net):
    sets = {}
    for r in net.resources:
        if len(r.parties) == 2 and all(len(a) == 2 for a in r.input_alphabets) \
                and all(len(a) == 2 for a in r.output_alphabets):
            sets[r.id] = ns_vertices_222()
        else:
            sets[r.id] = local_deterministic_vertices(
                r.parties, r.input_alphabets, r.output_alphabets)
    return sets


def test_expand_single_noisy_resource():
    box = noisy_pr(F(3, 4))
    box = NonsignalingResource.make("box", ("A", "B"), box.input_alphabets,
                                    box.output_alphabets, box.table)
    trees = {
        p: DecisionTree(p, {s: Internal("box", s, {0: Terminal(), 1: Terminal()})
                            for s in (0, 1)}, frozenset({"box"}))
        for p in ("A", "B")
    }
    net = Network(("A", "B"), [box], trees, {"A": BITS, "B": BITS})
    mix = expand_to_extremal_mixture(net, {"box": ns_vertices_222()})
    assert len(mix) <= 24
    for w, comp in mix:
        assert len(comp.resources) == 1


def test_expand_already_extremal_is_singleton():
    pr = make_pr_box(id="box", parties=("A", "B"))
    trees = {
        p: DecisionTree(p, {s: Internal("box", s, {0: Terminal(), 1: Terminal()})
                            for s in (0, 1)}, frozenset({"box"}))
        for p in ("A", "B")
    }
    net = Network(("A", "B"), [pr], trees, {"A": BITS, "B": BITS})
    mix = expand_to_extremal_mixture(net, {"box": ns_vertices_222()})
    assert len(mix) == 1
    assert mix.components[0][0] == 1


def test_expand_infeasible_raises():
    pr = make_pr_box(id="box", parties=("A", "B"))
    trees = {
        p: DecisionTree(p, {s: Internal("box", s, {0: Terminal(), 1: Terminal()})
                            for s in (0, 1)}, frozenset({"box"}))
        for p in ("A", "B")
    }
    net = Network(("A", "B"), [pr], trees, {"A": BITS, "B": BITS})
    local16 = local_deterministic_vertices(("A", "B"), [BITS] * 2, [BITS] * 2)
    with pytest.raises(ValueError, match="outside the hull"):
        expand_to_extremal_mixture(net, {"box": local16})


def test_expand_random_networks():
    rng = random.Random(9)
    for i in range(5):
        net = random_small_network(rng, name=f"x{i}")
        expand_to_extremal_mixture(net, build_vertex_sets(net))


def flip_network():
    det = make_local_deterministic(("A", "B"), [BITS] * 2, [BITS] * 2,
                                   {"A": {0: 1, 1: 0}, "B": {0: 0, 1: 0}}, id="flip")
    pr = make_pr_box(id="box", parties=("A", "B"))
    trees = {
        p: DecisionTree(
            p,
            {s: Internal("flip", s, {
                o: Internal("box", o, {0: Terminal(), 1: Terminal()}) for o in (0, 1)})
             for s in (0, 1)},
            frozenset({"flip", "box"}))
        for p in ("A", "B")
    }
    return Network(("A", "B"), [det, pr], trees, {"A": BITS, "B": BITS})


def test_excise_local_deterministic():
    net = flip_network()
    smaller = excise_local_deterministic(net)  # asserts behavior equality
    assert [r.id for r in smaller.resources] == ["box"]
    assert smaller.trees["A"].resource_scope == frozenset({"box"})


def test_expand_keeps_a_resource_without_a_vertex_set():
    net = coin_network()
    coin = net.resources_by_id["coin"]
    mix = expand_to_extremal_mixture(net, {"box": ns_vertices_222()})  # asserts the behavior
    assert len(mix) == 1
    assert mix.components[0][1].resources_by_id["coin"] is coin


def test_excise_without_a_deterministic_resource_is_the_same_network():
    net = coin_network()
    assert excise_local_deterministic(net) is net


def test_excise_after_expansion_preserves_behavior():
    rng = random.Random(21)
    for i in range(3):
        net = random_small_network(rng, name=f"e{i}")
        mix = expand_to_extremal_mixture(net, build_vertex_sets(net))
        # Every component's deterministic resources can be cut out without
        # touching the component's behavior.
        for _, comp in mix.components[:4]:
            excised = excise_local_deterministic(comp)
            assert support(induced_behavior(excised)) == support(induced_behavior(comp))


# -- what the rewrites build, and their one behavior assertion ---------------------


def count_networks(monkeypatch) -> list:
    """From here on, the name of every ``Network`` built, in order."""
    built = []
    init = Network.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(Network, "__init__", spy)
    return built


def test_factor_out_builds_one_network_per_component(monkeypatch):
    coin, rng = coin_network(), random.Random(3)
    nets = [random_wired_pairwise_network(rng, name=f"f{i}") for i in range(6)]
    built = count_networks(monkeypatch)
    assert len(factor_out_shared_randomness(coin)) == len(built) == 2
    for net in nets:
        built.clear()
        mix = factor_out_shared_randomness(net)
        assert built == ([] if mix.components[0][1] is net else [c.name for _, c in mix])


def test_excise_builds_one_network_or_none(monkeypatch):
    flip, coin = flip_network(), coin_network()
    built = count_networks(monkeypatch)
    assert excise_local_deterministic(coin) is coin and built == []
    assert [excise_local_deterministic(flip).name] == built == ["net-excised"]


def frozen_at_zero(monkeypatch):
    """Corrupt every frozen tree: each terminal's outcome becomes 0."""
    def zero(node):
        if isinstance(node, Terminal):
            return Terminal(0)
        return Internal(node.resource_choice, node.input_choice,
                        {o: zero(c) for o, c in node.children.items()})

    freeze = decompose.freeze_outcomes
    monkeypatch.setattr(decompose, "freeze_outcomes", lambda net, p: DecisionTree(
        p, {s: zero(n) for s, n in freeze(net, p).root.items()}, net.trees[p].resource_scope))


MIXTURE_DIFFERS = "^mixture behavior differs from the original network$"


def test_factor_out_asserts_the_behavior(monkeypatch):
    frozen_at_zero(monkeypatch)
    with pytest.raises(AssertionError, match=MIXTURE_DIFFERS):
        factor_out_shared_randomness(coin_network())


def test_excise_asserts_the_behavior(monkeypatch):
    frozen_at_zero(monkeypatch)
    with pytest.raises(AssertionError, match=MIXTURE_DIFFERS):
        excise_local_deterministic(flip_network())


def test_expand_asserts_the_behavior(monkeypatch):
    # A wrong decomposition of the PR box: the anti-PR box, at weight 1.
    anti = make_pr_box(gamma=1)
    monkeypatch.setattr(decompose, "decompose_extremal", lambda r, vs: Mixture([(F(1), anti)]))
    with pytest.raises(AssertionError, match=MIXTURE_DIFFERS):
        expand_to_extremal_mixture(coin_network(), {"box": ns_vertices_222()})
