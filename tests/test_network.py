"""Induced joint distributions, behaviors, and the causality checks."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from boxnet.network import (
    Network,
    NetworkError,
    check_disjoint_factorization,
    freeze_outcomes,
    induced_behavior,
    joint_distribution,
    joint_probability,
    marginal_without_party,
    relabel_network,
    union_network,
)
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    make_pr_box,
    make_shared_randomness,
    validate_nonsignaling,
)
from boxnet.wiring import DecisionTree, Internal, Terminal, append_unused, bottom_encode

from netgen import (
    BITS,
    alice_tree,
    paradox_network,
    bob_tree,
    charlie_tree,
    r1_three_party,
    r2_ternary_pair,
    random_network,
    unsorted_alphabet_network,
    worked_network,
)


def pass_through_pair(resource, parties=("A", "B"), name="pass"):
    trees = {
        p: DecisionTree(
            party=p,
            root={s: Internal(resource.id, s,
                              {o: Terminal() for o in resource.output_alphabet(p).values})
                  for s in resource.input_alphabet(p).values},
            resource_scope=frozenset({resource.id}),
        )
        for p in parties
    }
    settings = {p: resource.input_alphabet(p) for p in parties}
    return Network(parties, [resource], trees, settings, name=name)


def test_scope_mismatch_rejected():
    pr = make_pr_box()
    # B's tree ignores the box it shares.
    trees = {
        "A": DecisionTree("A", {0: Internal("PR", 0, {0: Terminal(), 1: Terminal()})},
                          frozenset({"PR"})),
        "B": DecisionTree("B", {0: Terminal()}, frozenset()),
    }
    with pytest.raises(NetworkError, match="scope"):
        Network(("A", "B"), [pr], trees, {"A": Alphabet((0,)), "B": Alphabet((0,))})


def test_pass_through_network_reproduces_resource():
    pr = make_pr_box()
    net = pass_through_pair(pr)
    beh = induced_behavior(net)
    assert beh.same_table(pr)


def test_worked_network_joint_sums_to_one():
    net = worked_network()
    for settings in product((0, 1), repeat=3):
        jd = joint_distribution(net, settings)
        assert jd.total == 1
        assert sum(jd.table.values()) == 1


def test_worked_network_product_factorization():
    # At Alice's setting 0 with her R1 output 1 and R2 output 0, the joint
    # probability is the product of the two table entries with Alice's
    # traced inputs both 0 — for every choice of the others' outputs and
    # settings.  The other parties' inputs come from their own traces:
    # Bob passes his setting into R1; Charlie's order and inputs depend on
    # his setting (R1 then R2 fed with R1's output, or R2 at input 1 then
    # R1 fed with R2's output).
    r1, r2 = r1_three_party(), r2_ternary_pair()
    net = worked_network()
    for x2, x3 in product((0, 1), repeat=2):
        for b, c, c2 in product((0, 1), (0, 1), (0, 1)):
            outputs = ((1, b, c), (0, c2))  # (R1's abc, R2's (a,c))
            if x3 == 0:
                ch_r1_in, ch_r2_in = 0, c
            else:
                ch_r1_in, ch_r2_in = c2, 1
            expected = (r1.prob((0, x2, ch_r1_in), (1, b, c))
                        * r2.prob((0, ch_r2_in), (0, c2)))
            got = joint_probability(net, (0, x2, x3), outputs)
            assert got == expected


def test_worked_network_behavior_is_nonsignaling():
    beh = induced_behavior(worked_network())
    assert validate_nonsignaling(beh).passed
    assert beh.parties == ("A1", "A2", "A3")
    # A1's transcript space: 2 R1-outputs x 3 R2-outputs.
    assert len(beh.output_alphabet("A1")) == 6


def test_worked_network_with_bins():
    # Bin A1's six transcripts onto two symbols by the R1 component.
    bins = {"A1": {(r1o, r2o): r1o for r1o, r2o in product((0, 1), (0, 1, 2))}}
    beh = induced_behavior(worked_network(bins=bins))
    assert validate_nonsignaling(beh).passed
    assert beh.output_alphabet("A1").values == (0, 1)


def test_bins_must_be_total():
    bins = {"A1": {(0, 0): 0}}
    with pytest.raises(NetworkError, match="not total"):
        worked_network(bins=bins)


def test_bins_error_names_the_first_missing_transcript_in_alphabet_order():
    # A's transcripts are (R output, S output) over (2, 0, 5) x (0, 1), so
    # alphabet-product order puts (2, 1) before (0, 0); sorted order would not.
    space = product((2, 0, 5), (0, 1))
    bins = {"A": {tr: 0 for tr in space if tr not in {(0, 0), (2, 1)}}}
    with pytest.raises(NetworkError, match=r"bins for 'A' not total: missing transcript \(2, 1\)$"):
        unsorted_alphabet_network(bins=bins)


@pytest.mark.parametrize("stray, named", [({(9, 9): 7}, "(9, 9)"), ({(0,): 3}, "(0,)"),
                                           ({(9, 9): 7, (0,): 3}, "(0,)")])
def test_bins_keys_outside_the_transcript_space_are_refused(stray, named):
    # Accepted, they added outcomes 3 and 7 with all-zero behavior columns.
    total = {tr: tr[0] for tr in product((0, 1), (0, 1, 2))}
    with pytest.raises(NetworkError, match=rf"^bins for 'A1': key {re.escape(named)} "
                                           rf"is not a transcript of 'A1'$"):
        worked_network(bins={"A1": {**total, **stray}})


def test_joint_probability_refuses_settings_and_outputs_outside_the_alphabets():
    net = unsorted_alphabet_network()
    outputs = ((0, 0), (0,))   # R's outputs for (A, B), then S's for A
    assert joint_probability(net, (3, 0), outputs) == Fraction(1, 3) * Fraction(3, 4)
    with pytest.raises(NetworkError, match="setting 2 outside alphabet of 'A'"):
        joint_probability(net, (2, 0), outputs)
    for outside in (((7, 0), (0,)), ((0, 2), (0,)), ((0, 0), (5,))):
        with pytest.raises(KeyError):
            joint_probability(net, (3, 0), outside)
    net = worked_network()
    assert joint_probability(net, (0, 0, 0), ((0, 0, 0), (0, 0))) == Fraction(1, 12)
    for misshapen in (((0, 0, 0), (0, 0), (0,)), ((0, 0, 0),), ((0, 0, 0), (0,)), ((0, 0, 0), 5)):
        with pytest.raises(KeyError, match="does not have the shape"):
            joint_probability(net, (0, 0, 0), misshapen)


def test_settings_that_are_not_integers_are_refused_not_truncated():
    net = worked_network()
    outputs = next(iter(net.output_assignments()))
    for settings in ((0.9, 0.9, 0.9), (0, 1.0, 0), (True, 0, 0), (0, 0, "1")):
        with pytest.raises(NetworkError, match=r"^settings: alphabet symbol .* is not an integer"):
            joint_distribution(net, settings)
        with pytest.raises(NetworkError, match="is not an integer"):
            joint_probability(net, settings, outputs)
    exact = joint_distribution(net, (1, 0, 1))
    assert joint_distribution(net, (np.int64(1), np.uint8(0), 1)).table == exact.table


def test_bins_that_are_not_integers_are_refused_not_truncated():
    space = list(product((0, 1), (0, 1, 2)))
    for bad in ({tr: 0.5 if tr == (1, 2) else 0 for tr in space},
                {(a + 0.5, b): a for a, b in space},
                {tr: True for tr in space},
                {(bool(a), b): a for a, b in space}):
        with pytest.raises(NetworkError, match=r"^bins for 'A1': alphabet symbol .* is not an integer"):
            worked_network(bins={"A1": bad})
    net = worked_network(bins={"A1": {(np.int64(a), b): np.int8(a) for a, b in space}})
    assert net.bins["A1"] == {tr: tr[0] for tr in space}
    assert all(type(k[0]) is int and type(v) is int for k, v in net.bins["A1"].items())


def test_two_shared_coins_give_correlated_uniform():
    c1 = make_shared_randomness(("A", "B"), {(0, 0): "1/2", (1, 1): "1/2"}, id="c1")
    c2 = make_shared_randomness(("A", "B"), {(0, 0): "1/2", (1, 1): "1/2"}, id="c2")
    one = Alphabet((0,))
    trees = {
        p: DecisionTree(
            p,
            {0: Internal("c1", 0, {o1: Internal("c2", 0, {o2: Terminal() for o2 in (0, 1)})
                                   for o1 in (0, 1)})},
            frozenset({"c1", "c2"}))
        for p in ("A", "B")
    }
    net = Network(("A", "B"), [c1, c2], trees, {"A": one, "B": one})
    beh = induced_behavior(net)
    for k in range(4):
        assert beh.prob((0, 0), (k, k)) == Fraction(1, 4)


def test_paradoxical_wiring_sums_to_zero():
    net = paradox_network()
    with pytest.raises(NetworkError, match="allow_unnormalized"):
        joint_distribution(net, (0, 0))
    jd = joint_distribution(net, (0, 0), allow_unnormalized=True)
    assert jd.total == 0
    assert all(v == 0 for v in jd.table.values())


def _consult(first, second, feed):
    """A subtree: consult ``first`` with input 0, then ``second`` with the
    output just read when ``feed`` is true, else with input 0."""
    return Internal(first, 0, {o: Internal(second, o if feed else 0, {0: Terminal(), 1: Terminal()})
                               for o in (0, 1)})


def _forcing(id, forced):
    """A structurally valid, signaling two-party box over bits: (a, b) has
    probability 1/2 at inputs (x, y) where ``forced(x, y, a, b)`` holds."""
    table = {(x, y): {(a, b): Fraction(int(forced(x, y, a, b)), 2)
                      for a, b in product((0, 1), repeat=2)}
             for x, y in product((0, 1), repeat=2)}
    return NonsignalingResource.new_unchecked(id, ("A", "B"), [BITS] * 2, [BITS] * 2, table)


def _marked_checked(resources, alice, bob, alice_settings):
    """A network of signaling resources marked as checked, so that
    ``induced_behavior`` does not refuse them up front and its
    normalization guard is what must catch the wiring."""
    for r in resources:
        r.nonsignaling_checked = True
    return Network(("A", "B"), resources,
                   [DecisionTree("A", alice, frozenset(r.id for r in resources)),
                    DecisionTree("B", {0: bob}, frozenset(r.id for r in resources))],
                   {"A": Alphabet(alice_settings), "B": Alphabet((0,))})


def _assert_inconsistent(net, settings, total):
    with pytest.raises(NetworkError) as exc:
        induced_behavior(net)
    assert type(exc.value) is NetworkError and exc.value.__context__ is None
    assert str(exc.value) == (f"transcript distribution at settings {settings} sums to "
                              f"{total}, not 1 — the wiring is inconsistent")


def test_induced_behavior_refuses_a_paradoxical_wiring_marked_checked():
    net = paradox_network()
    for r in net.resources:
        r.nonsignaling_checked = True
    _assert_inconsistent(net, (0, 0), 0)


def test_induced_behavior_names_the_first_inconsistent_settings():
    """Alice's setting 0 wires the signaling boxes consistently, her setting
    1 does not: the guard names (1, 0), with the column's exact total."""
    w1 = _forcing("W1", lambda x, y, a, b: a == y)        # Alice's output copies Bob's input
    w2 = _forcing("W2", lambda x, y, a, b: b == 1 - x)    # Bob's output negates Alice's input
    w3 = _forcing("W3", lambda x, y, a, b: b == x)        # Bob's output copies Alice's input
    # No transcript is consistent: the loop through W1 and W2 has no fixed point.
    _assert_inconsistent(_marked_checked([w1, w2], {0: _consult("W2", "W1", False),
                                                    1: _consult("W1", "W2", True)},
                                         _consult("W2", "W1", True), (0, 1)), (1, 0), 0)
    # The loop through W1 and W3 has two fixed points: the column sums to 2.
    _assert_inconsistent(_marked_checked([w1, w3], {0: _consult("W3", "W1", False),
                                                    1: _consult("W1", "W3", True)},
                                         _consult("W3", "W1", True), (0, 1)), (1, 0), 2)


def test_consultation_order_of_independent_resources_is_irrelevant():
    ca = make_shared_randomness(("A",), {(0,): "1/3", (1,): "2/3"}, id="ca")
    cb = make_shared_randomness(("A",), {(0,): "1/2", (1,): "1/2"}, id="cb")
    one = Alphabet((0,))

    def tree(order):
        first, second = order
        return DecisionTree(
            "A",
            {0: Internal(first, 0, {o: Internal(second, 0, {q: Terminal() for q in (0, 1)})
                                    for o in (0, 1)})},
            frozenset({"ca", "cb"}))

    net1 = Network(("A",), [ca, cb], {"A": tree(("ca", "cb"))}, {"A": one})
    net2 = Network(("A",), [ca, cb], {"A": tree(("cb", "ca"))}, {"A": one})
    assert induced_behavior(net1).same_table(induced_behavior(net2))


def test_marginal_without_party_two_routes_agree_on_worked_network():
    net = worked_network()
    for p in ("A1", "A2", "A3"):
        beh = marginal_without_party(net, p)  # raises on route mismatch
        assert set(beh.parties) == {"A1", "A2", "A3"} - {p}


def test_marginal_drop_party_sharing_nothing():
    pr = make_pr_box()
    lonely = make_shared_randomness(("D",), {(0,): "1/2", (1,): "1/2"}, id="cd")
    trees = {
        "A": DecisionTree("A", {s: Internal("PR", s, {0: Terminal(), 1: Terminal()})
                                for s in (0, 1)}, frozenset({"PR"})),
        "B": DecisionTree("B", {s: Internal("PR", s, {0: Terminal(), 1: Terminal()})
                                for s in (0, 1)}, frozenset({"PR"})),
        "D": DecisionTree("D", {0: Internal("cd", 0, {0: Terminal(), 1: Terminal()})},
                          frozenset({"cd"})),
    }
    net = Network(("A", "B", "D"), [pr, lonely], trees,
                  {"A": BITS, "B": BITS, "D": Alphabet((0,))})
    beh = marginal_without_party(net, "D")
    assert beh.same_table(make_pr_box(parties=("A", "B")))


def test_iterated_drops_commute():
    net = worked_network()
    ab = marginal_without_party(net, "A3")
    ac = marginal_without_party(net, "A2")
    from boxnet.resource import marginal as rmarg
    a_via_b = rmarg(ab, ["A1"])
    a_via_c = rmarg(ac, ["A1"])
    assert a_via_b.same_table(a_via_c)


def test_disjoint_factorization():
    netA = pass_through_pair(make_pr_box(id="PRab", parties=("A", "B")),
                             ("A", "B"), name="ab")
    netB = pass_through_pair(make_pr_box(id="PRcd", parties=("C", "D")),
                             ("C", "D"), name="cd")
    assert check_disjoint_factorization(netA, netB).passed
    with pytest.raises(NetworkError):
        union_network(netA, netA)


def test_factorization_with_resource_free_component():
    netA = pass_through_pair(make_pr_box(), ("A", "B"))
    # A single party with no resources answering its setting deterministically.
    t = DecisionTree("E", {0: Terminal(4), 1: Terminal(7)}, frozenset())
    netB = Network(("E",), [], {"E": t}, {"E": BITS}, name="point")
    behB = induced_behavior(netB)
    assert behB.prob((0,), (4,)) == 1
    assert behB.prob((1,), (7,)) == 1
    assert check_disjoint_factorization(netA, netB).passed


def test_replication_clone_matches():
    net = worked_network()
    clone = relabel_network(net, {"A1": "B1", "A2": "B2", "A3": "B3"},
                            {"R1": "Q1", "R2": "Q2"})
    beh, beh2 = induced_behavior(net), induced_behavior(clone)
    assert beh2.parties == ("B1", "B2", "B3")
    assert beh.table == beh2.table


def test_freeze_outcomes_preserves_behavior():
    rng = random.Random(7)
    for _ in range(5):
        net = random_network(rng)
        base = induced_behavior(net)
        p = net.parties[rng.randrange(len(net.parties))]
        frozen = freeze_outcomes(net, p)
        bins = {q: m for q, m in net.bins.items() if q != p}
        net2 = Network(net.parties, net.resources,
                       {**net.trees, p: frozen},
                       net.settings_alphabets, bins or None, name="frozen")
        assert induced_behavior(net2).same_table(base)


def test_append_unused_and_optout_encodings_agree():
    # A party gains a share of a fresh coin it never uses: appending the
    # consult at the bottom of its tree (real input, output ignored) and
    # re-encoding the coin with an opt-out input must induce the same
    # behavior once outcomes are frozen to the original labeling.
    rng = random.Random(11)
    for case in range(6):
        net = random_network(rng)
        base = induced_behavior(net)
        p = net.parties[rng.randrange(len(net.parties))]
        frozen = freeze_outcomes(net, p)
        bins = {q: m for q, m in net.bins.items() if q != p}

        coin = make_shared_randomness((p,), {(0,): "1/2", (1,): "1/2"}, id="xtra")
        resources = {r.id: r for r in net.resources}

        appended = append_unused(frozen, ["xtra"], {"xtra": 0},
                                 {**resources, "xtra": coin})
        net_app = Network(net.parties, list(net.resources) + [coin],
                          {**net.trees, p: appended},
                          net.settings_alphabets, bins or None, name="app")

        ext = bottom_encode(coin)
        opted = NonsignalingResource.make(  # same table under the tree's id
            "xtra", ext.parties, ext.input_alphabets, ext.output_alphabets, ext.table)
        bot_in = 1   # coin input alphabet (0,) gains opt-out symbol 1
        optout = append_unused(frozen, ["xtra"], {"xtra": bot_in},
                               {**resources, "xtra": opted})
        net_opt = Network(net.parties, list(net.resources) + [opted],
                          {**net.trees, p: optout},
                          net.settings_alphabets, bins or None, name="opt")

        beh_app = induced_behavior(net_app)
        beh_opt = induced_behavior(net_opt)
        assert beh_app.same_table(base)
        assert beh_opt.same_table(base)


def test_random_networks_normalize_and_are_nonsignaling():
    rng = random.Random(2026)
    for i in range(20):
        net = random_network(rng, name=f"rnd{i}")
        beh = induced_behavior(net)  # asserts sum-to-1 per settings and validates
        assert validate_nonsignaling(beh).passed


def test_disjoint_factorization_reports_the_first_mismatch(monkeypatch):
    import boxnet.network as network_module

    netA = pass_through_pair(make_pr_box(), ("A", "B"))
    netB = Network(("E",), [], {"E": DecisionTree("E", {0: Terminal(4), 1: Terminal(7)},
                                                    frozenset())}, {"E": BITS}, name="point")
    # The union is answered with the behavior of a different PR-class box.
    forged = induced_behavior(union_network(
        pass_through_pair(make_pr_box(alpha=1, gamma=1), ("A", "B")), netB))
    real = network_module.induced_behavior
    monkeypatch.setattr(network_module, "induced_behavior",
                        lambda net: forged if net.name == "pass+point" else real(net))
    report = check_disjoint_factorization(netA, netB)

    # The entry-by-entry loop over the dict views that the check replaced.
    whole, part_a, part_b = forged, real(netA), real(netB)
    expected = None
    for x, column in whole.table.items():
        for outcome, v in column.items():
            product_ = part_a.prob(x[:2], outcome[:2]) * part_b.prob(x[2:], outcome[2:])
            if v != product_ and expected is None:
                expected = (f"joint {v} != product {product_} at settings {x}, "
                            f"outcomes {outcome}")
    assert not report.passed and report.errors == [expected]
