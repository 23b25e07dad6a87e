"""Differential tests of the tensor contraction against the transcript
enumerator it replaced.

The reference functions below are the earlier implementations of
``joint_distribution`` (one ``joint_probability`` per complete output
assignment) and ``induced_behavior`` (that enumeration at every settings
tuple, regrouped by party and binned).  On seeded networks from the
``netgen`` corpora, binned and unbinned, with labeled and default-labeled
trees, on PR-box chains and on the paradox, the contraction must give the
same behavior tables, the same joint tables in the same key order, the
same totals and the same error text.

``reference_contract`` is the greedy pairwise contraction as it ran
before contractions were planned once per shape: on every network built
here, each planned contraction must give its array, dtype and sequence
of pair choices.
"""
from __future__ import annotations

import random
import string
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from boxnet import network
from boxnet.network import (
    JointDistribution,
    Network,
    NetworkError,
    induced_behavior,
    joint_distribution,
    joint_probability,
    relabel_network,
)
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    make_pr_box,
    make_shared_randomness,
)
from boxnet.wiring import DecisionTree, Internal, Node, Terminal, trace_path

from netgen import (
    BITS,
    paradox_network,
    random_mixture_resource,
    random_network,
    random_small_network,
    random_tree,
    random_wired_pairwise_network,
    unsorted_alphabet_network,
    worked_network,
)

CASES = 20


# -- reference enumerator ---------------------------------------------------------


def reference_joint(net: Network, settings, *, allow_unnormalized=False) -> JointDistribution:
    settings = net._check_settings(settings)
    unchecked = [r.id for r in net.resources if not r.nonsignaling_checked]
    if unchecked and not allow_unnormalized:
        raise NetworkError(
            f"resources {unchecked} are not verified nonsignaling; pass "
            f"allow_unnormalized=True to evaluate anyway")
    table = {}
    total = Fraction(0)
    for outputs in net.output_assignments():
        v = joint_probability(net, settings, outputs)
        table[outputs] = v
        total += v
    if not allow_unnormalized and total != 1:
        raise NetworkError(
            f"transcript distribution at settings {settings} sums to {total}, "
            f"not 1 — the wiring is inconsistent")
    return JointDistribution(settings=settings, table=table, total=total)


def reference_behavior(net: Network) -> NonsignalingResource:
    table = {}
    for settings in net.settings_space():
        jd = reference_joint(net, settings)
        column = {}
        for outputs, v in jd.table.items():
            if v == 0:
                continue
            outcome = tuple(
                net.outcome_of(p, settings[i], net._party_transcript(p, outputs))
                for i, p in enumerate(net.parties))
            column[outcome] = column.get(outcome, Fraction(0)) + v
        table[settings] = column
    return NonsignalingResource.make(
        f"behavior({net.name})", net.parties,
        [net.settings_alphabets[p] for p in net.parties],
        [net.outcome_alphabet(p) for p in net.parties], table)


def reference_compiled(net: Network, p) -> tuple[np.ndarray, dict, Alphabet]:
    """Party p's wiring tensor, outcomes and outcome alphabet built the
    way the network built them before its path table: ``trace_path`` for
    every setting and transcript, then the bin, else the terminal label,
    else the transcript's index in the enumeration of its output space."""
    rids = sorted(net.trees[p].resource_scope)
    ins = [net.resources_by_id[rid].input_alphabet(p).values for rid in rids]
    outs = [net.resources_by_id[rid].output_alphabet(p).values for rid in rids]
    settings = net.settings_alphabets[p].values
    space = list(product(*outs))
    traces, outcomes = {}, {}
    for s in settings:
        for index, transcript in enumerate(space):
            tr = trace_path(net.trees[p], s, dict(zip(rids, transcript)))
            traces[s, transcript] = tr
            if p in net.bins:
                outcomes[s, transcript] = net.bins[p][transcript]
            elif tr.outcome_label is not None:
                outcomes[s, transcript] = tr.outcome_label
            else:
                outcomes[s, transcript] = index
    if p in net.bins:
        alphabet = sorted(set(net.bins[p].values()))
    elif any(tr.outcome_label is not None for tr in traces.values()):
        alphabet = sorted({tr.outcome_label for tr in traces.values()})
    else:
        alphabet = list(range(len(space)))
    w = np.zeros((len(settings), len(alphabet), *map(len, ins), *map(len, outs)), dtype=np.int64)
    for si, s in enumerate(settings):
        for ai in product(*(range(len(o)) for o in outs)):
            transcript = tuple(o[i] for o, i in zip(outs, ai))
            xi = tuple(x.index(traces[s, transcript].inputs[rid]) for x, rid in zip(ins, rids))
            w[(si, alphabet.index(outcomes[s, transcript]), *xi, *ai)] = 1
    return w, outcomes, Alphabet(tuple(alphabet))


def assert_same_compiled(net: Network) -> None:
    for p in net.parties:
        wiring, outcomes, alphabet = reference_compiled(net, p)
        assert np.array_equal(net._wiring(p), wiring)
        assert {key: net.outcome_of(p, *key) for key in outcomes} == outcomes
        assert net.outcome_alphabet(p) == alphabet


def assert_same_joint(net: Network, settings, **kw) -> None:
    got = joint_distribution(net, settings, **kw)
    ref = reference_joint(net, settings, **kw)
    assert got.settings == ref.settings
    assert list(got.table.items()) == list(ref.table.items())
    assert got.total == ref.total


def assert_same_behavior(net: Network) -> None:
    got = induced_behavior(net)
    ref = reference_behavior(net)
    assert got.id == ref.id and got.parties == ref.parties
    assert got.same_table(ref)


def assert_agrees(net: Network) -> None:
    for settings in net.settings_space():
        assert_same_joint(net, settings)
    assert_same_behavior(net)


def fresh(net: Network, **changes) -> Network:
    """The same network rebuilt (no caches), with some fields replaced."""
    fields = dict(parties=net.parties, resources=net.resources, trees=net.trees,
                  settings_alphabets=net.settings_alphabets, bins=net.bins or None,
                  name=net.name)
    fields.update(changes)
    return Network(**fields)


def labeled(tree: DecisionTree, rng: random.Random) -> DecisionTree:
    """The tree with a random label from {0, 2, 5} on every terminal, so
    the outcome alphabet can have gaps and labels depend on the setting."""
    def walk(node: Node) -> Node:
        if isinstance(node, Terminal):
            return Terminal(rng.choice((0, 2, 5)))
        return Internal(node.resource_choice, node.input_choice,
                        {o: walk(c) for o, c in node.children.items()})

    return DecisionTree(tree.party, {s: walk(n) for s, n in tree.root.items()},
                        tree.resource_scope)


def pr_chain(k: int, rng: random.Random) -> Network:
    """k PR-class boxes on a line of k + 1 parties; each inner party feeds
    its left box's output into its right box."""
    parties = [f"P{i}" for i in range(k + 1)]
    boxes = [make_pr_box(id=f"B{i}", parties=(parties[i], parties[i + 1]),
                         alpha=rng.randint(0, 1), beta=rng.randint(0, 1),
                         gamma=rng.randint(0, 1)) for i in range(k)]

    def consult(rid, inp, then):
        return Internal(rid, inp, {o: then(o) for o in (0, 1)})

    trees = {}
    for i, p in enumerate(parties):
        left, right = f"B{i - 1}", f"B{i}"
        if 0 < i < k:
            root = {s: consult(left, s, lambda o: consult(right, o, lambda _: Terminal()))
                    for s in (0, 1)}
        else:
            root = {s: consult(right if i == 0 else left, s, lambda _: Terminal())
                    for s in (0, 1)}
        trees[p] = DecisionTree(p, root, frozenset({left, right} & {b.id for b in boxes}))
    return Network(parties, boxes, trees, {p: BITS for p in parties}, name=f"chain{k}")


# -- corpora ----------------------------------------------------------------------


@pytest.mark.parametrize("case", range(CASES))
def test_random_networks_binned_and_unbinned(case):
    net = random_network(random.Random(9100 + case), f"rnd{case}")
    assert_agrees(net)
    if net.bins:
        assert_agrees(fresh(net, bins=None))


def test_small_and_pairwise_networks():
    for case in range(CASES):
        assert_agrees(random_small_network(random.Random(9200 + case), f"small{case}"))
    for case in range(CASES // 2):
        pair = random_wired_pairwise_network(random.Random(9300 + case), f"pair{case}")
        assert_same_joint(pair, (case % 2, 1, 0))
        assert_same_behavior(pair)


def test_labeled_and_default_labeled_trees():
    rng = random.Random(9400)
    worked = worked_network()
    assert_agrees(worked)
    assert_agrees(fresh(worked, trees={p: labeled(t, rng) for p, t in worked.trees.items()}))
    for case in range(CASES):
        net = random_network(random.Random(9500 + case), f"lab{case}", with_bins=False)
        assert_agrees(fresh(net, trees={p: labeled(t, rng) for p, t in net.trees.items()}))


def test_alphabets_with_gaps():
    rng = random.Random(9600)
    g = random_mixture_resource(rng, "g", ("A", "B"), in_sizes=[2, 2], out_sizes=[3, 2])
    shifted = {(2 * x + 1, y): {(3 * a, b + 4): v for (a, b), v in col.items()}
               for (x, y), col in g.table.items()}
    g = NonsignalingResource.make(
        "g", ("A", "B"), [Alphabet((1, 3)), Alphabet((0, 1))],
        [Alphabet((0, 3, 6)), Alphabet((4, 5))], shifted)
    coin = make_shared_randomness(("A",), {(7,): "1/3", (9,): "2/3"}, id="c")
    resources = {"g": g, "c": coin}
    settings = {"A": Alphabet((2, 5)), "B": Alphabet((0, 8))}
    trees = {p: random_tree(rng, p, {rid for rid, r in resources.items() if p in r.parties},
                            settings[p].values, resources) for p in ("A", "B")}
    assert_agrees(Network(("A", "B"), [g, coin], trees, settings, name="gaps"))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pr_chains(k):
    net = pr_chain(k, random.Random(9700 + k))
    assert_same_behavior(net)
    assert_same_joint(net, (1,) * (k + 1))


def test_path_table_matches_per_transcript_tracing(monkeypatch):
    """The compiled path table against ``reference_compiled`` on every
    network the tests above build (they run with their checks replaced by
    a recorder), and on a network over output alphabets out of sorted
    order, binned and not."""
    nets = {}
    for check in ("assert_agrees", "assert_same_behavior", "assert_same_joint"):
        monkeypatch.setattr(sys.modules[__name__], check,
                            lambda net, *args, **kw: nets.setdefault(id(net), net))
    for case in range(CASES):
        test_random_networks_binned_and_unbinned(case)
    test_small_and_pairwise_networks()
    test_labeled_and_default_labeled_trees()
    test_alphabets_with_gaps()
    for k in (1, 2, 3, 4):
        test_pr_chains(k)
    test_more_labels_than_einsum_letters()
    test_denominators_beyond_int64()
    assert len(nets) == 95
    unsorted = unsorted_alphabet_network()
    bins = {"A": {tr: i % 4 for i, tr in enumerate(product((5, 0, 2), (1, 0)))}}
    for net in (*nets.values(), unsorted, fresh(unsorted, bins=bins)):
        assert_same_compiled(net)


# -- paradox and inconsistent wiring ------------------------------------------------


def test_paradox_joint_unnormalized():
    net = paradox_network()
    assert_same_joint(net, (0, 0), allow_unnormalized=True)
    for run in (joint_distribution, reference_joint):
        with pytest.raises(NetworkError, match="allow_unnormalized"):
            run(net, (0, 0))
    with pytest.raises(NetworkError, match="allow_unnormalized"):
        induced_behavior(net)


def forged_paradox() -> Network:
    """The paradox's signaling boxes flagged as checked, and a setting 1
    for A that consults them in a fixed order: settings (0, 0) are
    normalized, (1, 0) are the first that are not."""
    net = paradox_network()
    for r in net.resources:
        r.nonsignaling_checked = True
    alice = net.trees["A"]
    fixed = Internal("W1", 0, {o: Internal("W2", 0, {0: Terminal(), 1: Terminal()})
                               for o in (0, 1)})
    trees = {**net.trees, "A": DecisionTree("A", {0: fixed, 1: alice.root[0]},
                                            alice.resource_scope)}
    return fresh(net, trees=trees, settings_alphabets={"A": BITS, "B": Alphabet((0,))})


def test_inconsistent_wiring_error_text():
    net = forged_paradox()
    assert_same_joint(net, (0, 0))
    assert_same_joint(net, (1, 0), allow_unnormalized=True)
    messages = []
    for run in (joint_distribution, reference_joint, lambda n, _: induced_behavior(n),
                lambda n, _: reference_behavior(n)):
        with pytest.raises(NetworkError) as err:
            run(fresh(net), (1, 0))
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert "at settings (1, 0) sums to 0" in messages[0]


# -- no label cap, exact big integers ------------------------------------------------


def test_more_labels_than_einsum_letters():
    """11 parties share a coin; each feeds its coin output into three
    private boxes.  With the three inputs, the coin output and the outcome
    of every party, the network has 55 indices of size 2, beyond the 52
    that one ``np.einsum`` call can name."""
    parties = [f"P{i:02d}" for i in range(11)]
    one, bits = Alphabet((0,)), BITS
    coin = NonsignalingResource.make(
        "coin", parties, [one] * 11, [bits] * 11,
        {(0,) * 11: {(0,) * 11: Fraction(1, 3), (1,) * 11: Fraction(2, 3)}})
    resources = [coin]
    trees = {}
    for p in parties:
        u, v, w = (NonsignalingResource.make(f"{p}{k}", [p], [bits], [one],
                                             {(0,): {(0,): 1}, (1,): {(0,): 1}})
                   for k in "uvw")
        resources += [u, v, w]
        trees[p] = DecisionTree(p, {0: Internal("coin", 0, {
            o: Internal(u.id, o, {0: Internal(v.id, 1 - o, {0: Internal(w.id, o, {
                0: Terminal()})})}) for o in (0, 1)})},
            frozenset({"coin", u.id, v.id, w.id}))
    net = Network(parties, resources, trees, {p: one for p in parties}, name="wide")
    labels = {lab for p, axes in zip(parties, net._party_labels)
              for lab, n in zip(axes, net._wiring(p).shape) if n > 1}
    assert len(labels) == 55
    assert_agrees(net)


def test_denominators_beyond_int64():
    """Coins with prime denominators 2**31 - 1 and 2**61 - 1: products of
    their numerators leave int64, so the contraction runs on Python ints."""
    p31, p61 = 2 ** 31 - 1, 2 ** 61 - 1
    a = make_shared_randomness(("A",), {(0,): Fraction(1, p31), (1,): 1 - Fraction(1, p31)},
                               id="a")
    b = make_shared_randomness(("A", "B"), {(0, 0): Fraction(5, p61),
                                            (1, 1): 1 - Fraction(5, p61)}, id="b")
    g = make_pr_box(id="g", parties=("A", "B"))
    resources = {"a": a, "b": b, "g": g}
    rng = random.Random(9800)
    trees = {p: random_tree(rng, p, {rid for rid, r in resources.items() if p in r.parties},
                            (0, 1), resources) for p in ("A", "B")}
    net = Network(("A", "B"), [a, b, g], trees, {"A": BITS, "B": BITS}, name="primes")
    assert p31 * p61 * 2 > 2 ** 63
    assert_agrees(net)
    beh = induced_behavior(net)
    assert any(v.denominator % (p31 * p61) == 0 for col in beh.table.values() for v in col.values())


# -- the planned contraction against the greedy contraction it replaced ---------------


def reference_einsum(operands, output) -> np.ndarray:
    """``np.einsum`` over labelled operands, the labels renamed to letters
    for this call only."""
    letter: dict = {}
    for _, labels in operands:
        for label in labels:
            letter.setdefault(label, string.ascii_letters[len(letter)])
    spec = ",".join("".join(letter[l] for l in labels) for _, labels in operands)
    return np.einsum(spec + "->" + "".join(letter[l] for l in output),
                     *(arr for arr, _ in operands))


def reference_contract(operands, output, choices: list) -> np.ndarray:
    """The greedy contraction as it ran before plans: chosen afresh on
    every call and on the arrays themselves; appends each step's pair
    ``(i, j)`` to ``choices``."""
    sizes = {l: n for arr, labels in operands for l, n in zip(labels, arr.shape)}
    ops = []
    for arr, labels in operands:
        labels = tuple(l for l in labels if sizes[l] > 1)
        ops.append((arr.reshape([sizes[l] for l in labels]), labels))
    out = tuple(l for l in output if sizes[l] > 1)
    while len(ops) > 1:
        uses = Counter(out)
        for _, labels in ops:
            uses.update(labels)
        pairs = list(combinations(range(len(ops)), 2))
        pairs = [(i, j) for i, j in pairs
                 if not set(ops[i][1]).isdisjoint(ops[j][1])] or pairs
        best = None
        for i, j in pairs:
            (a, la), (b, lb) = ops[i], ops[j]
            kept = tuple(l for l in dict.fromkeys(la + lb)
                         if uses[l] > (l in la) + (l in lb))
            cost = prod(sizes[l] for l in kept) - a.size - b.size
            if best is None or cost < best[0]:
                best = cost, i, j, kept
        _, i, j, kept = best
        choices.append((i, j))
        pair = [ops[i], ops[j]]
        ops = [op for k, op in enumerate(ops) if k not in (i, j)]
        ops.append((reference_einsum(pair, kept), kept))
    return reference_einsum(ops, out).reshape([sizes[l] for l in output])


def plan_of(operands, output) -> network._Plan:
    """The plan for labelled operands, the labels renamed to ints by
    first appearance."""
    ids: dict = {}
    patterns = tuple(tuple(ids.setdefault(l, len(ids)) for l in labels) for _, labels in operands)
    return network._plan(patterns, tuple(arr.shape for arr, _ in operands),
                         tuple(ids[l] for l in output))


def labelled_contractions(m, check) -> None:
    """Route each ``network._contract(arrays, plan)`` through
    ``check(operands, output, plan)``, which returns its result: the
    operands pair the arrays with their labels, and both the labels and
    ``output`` come from the ``_contract_network`` call being made."""
    contract_network, call = network._contract_network, {}

    def labelled(net, wirings, labels, output):
        call.update(labels=net._table_labels + tuple(labels), output=tuple(output))
        return contract_network(net, wirings, labels, output)

    m.setattr(network, "_contract_network", labelled)
    m.setattr(network, "_contract", lambda arrays, plan: check(
        list(zip(arrays, call["labels"])), call["output"], plan))


def all_built_networks(monkeypatch) -> list[Network]:
    """Every network the tests of this file build, collected by running
    them with their checks replaced by a recorder."""
    nets = {}
    record = lambda net, *args, **kw: nets.setdefault(id(net), net)  # noqa: E731
    with monkeypatch.context() as m:
        for check in ("assert_agrees", "assert_same_behavior", "assert_same_joint"):
            m.setattr(sys.modules[__name__], check, record)
        for case in range(CASES):
            test_random_networks_binned_and_unbinned(case)
        test_small_and_pairwise_networks()
        test_labeled_and_default_labeled_trees()
        test_alphabets_with_gaps()
        for k in (1, 2, 3, 4):
            test_pr_chains(k)
        test_more_labels_than_einsum_letters()
        test_denominators_beyond_int64()
        test_paradox_joint_unnormalized()
        record(forged_paradox())
    return list(nets.values())


def test_planned_contraction_matches_the_greedy_reference(monkeypatch):
    """On every network this file builds, each contraction of every joint
    distribution and induced behavior gives the reference's array, with
    its dtype, from the same pairs in the same order.  The network's own
    label numbering gives the plan of the labels renamed by first
    appearance."""
    planned = network._contract
    seen = Counter()

    def compare(operands, output, plan):
        got = planned([arr for arr, _ in operands], plan)
        choices = []
        ref = reference_contract(operands, output, choices)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert plan == plan_of(operands, output)
        assert [(i, j) for i, j, _ in plan.steps] == choices
        seen[got.dtype.kind] += 1
        return got

    nets = all_built_networks(monkeypatch)
    assert len(nets) == 97
    labelled_contractions(monkeypatch, compare)
    for net in nets:
        for settings in net.settings_space():
            joint_distribution(net, settings, allow_unnormalized=True)
        if all(r.nonsignaling_checked for r in net.resources):
            try:
                induced_behavior(net)
            except NetworkError as err:   # the forged paradox, after its contraction
                assert "at settings (1, 0) sums to 0" in str(err)
    assert seen["i"] > 500 and seen["O"] == 5


def test_networks_differing_in_names_and_dtype_share_one_plan():
    """Renamed parties and resources (in the same sorted order), and a
    coin whose denominator sends the contraction to Python ints, reuse the
    plan of the first network; each still gets its own exact behavior."""
    rng = random.Random(9900)
    resources = {"g": make_pr_box(id="g", parties=("A", "B")),
                 "c": make_shared_randomness(("A", "B"), {(0, 0): "1/3", (1, 1): "2/3"}, id="c")}
    trees = {p: random_tree(rng, p, set(resources), (0, 1), resources) for p in ("A", "B")}
    net = Network(("A", "B"), list(resources.values()), trees, {"A": BITS, "B": BITS})
    renamed = relabel_network(net, {"A": "Alice", "B": "Bob"}, {"g": "gate", "c": "coin"})
    p61 = 2 ** 61 - 1
    wide_coin = make_shared_randomness(("A", "B"), {(0, 0): Fraction(1, p61),
                                                    (1, 1): 1 - Fraction(1, p61)}, id="c")
    wide = fresh(net, resources=[resources["g"], wide_coin])

    network._plan.cache_clear()
    first = induced_behavior(net)
    cold = network._plan.cache_info()
    assert (cold.hits, cold.misses, cold.currsize) == (0, 1, 1)
    for other in (renamed, wide):
        before = network._plan.cache_info()
        behavior = induced_behavior(other)
        after = network._plan.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, 1, 1)
        assert_same_behavior(other)
    assert induced_behavior(renamed).table == first.table
    assert not behavior.same_table(first)
    assert network._plan.cache_info().maxsize == 1024
