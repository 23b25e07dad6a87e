"""Differential tests of the one copying tree walk against the walks it
replaced.

``reference_excise_input_free``, ``reference_append_unused``,
``reference_freeze_outcomes`` and ``reference_relabel_network`` below are
the earlier implementations, each with its own recursive copy of a tree,
and ``reference_excised`` the earlier ``decompose._excised``, which made
one copy per observed resource.  All of them now go through
``wiring._rewrite``; ``_excised`` cuts all of a party's observed
resources in one walk.  On the shipped fixtures and seeded generated
networks, for every party, every resource in scope and every known
output (symbols and input -> output maps, inside and outside the
alphabets), every append set and a spread of relabel maps, the trees must
be ``==`` and every refusal must have the reference's type and text.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Mapping, Sequence

import pytest

from boxnet import decompose
from boxnet.cli import _read_scenario
from boxnet.network import Network, freeze_outcomes, relabel_network
from boxnet.resource import NonsignalingResource, Party, Symbol, _Tensor
from boxnet.wiring import (
    DecisionTree,
    Internal,
    Node,
    Terminal,
    append_unused,
    excise_input_free,
)

from netgen import (
    paradox_network,
    random_network,
    random_small_network,
    random_wired_pairwise_network,
    unsorted_alphabet_network,
    worked_network,
)


# -- the retired walks -------------------------------------------------------------


def reference_excise_input_free(
    t: DecisionTree,
    k: str,
    a: Symbol | Mapping[Symbol, Symbol],
) -> DecisionTree:
    if k not in t.resource_scope:
        raise KeyError(f"resource {k!r} not in scope {sorted(t.resource_scope)}")

    def observed(input_choice: Symbol) -> Symbol:
        if isinstance(a, Mapping):
            if input_choice not in a:
                raise ValueError(f"no known output of {k!r} for input {input_choice}")
            return a[input_choice]
        return a

    def walk(node: Node) -> Node:
        if isinstance(node, Terminal):
            return node
        if node.resource_choice == k:
            out = observed(node.input_choice)
            if out not in node.children:
                raise ValueError(
                    f"output {out} outside {k!r}'s edges {sorted(node.children)}")
            return walk(node.children[out])
        return Internal(node.resource_choice, node.input_choice,
                        {out: walk(c) for out, c in node.children.items()})

    return DecisionTree(
        party=t.party,
        root={s: walk(n) for s, n in t.root.items()},
        resource_scope=t.resource_scope - {k},
    )


def reference_append_unused(
    t: DecisionTree,
    unused: Sequence[str],
    dummy_inputs: Mapping[str, Symbol],
    resources: Mapping[str, NonsignalingResource],
) -> DecisionTree:
    unused = list(unused)
    overlap = set(unused) & t.resource_scope
    if overlap:
        raise ValueError(f"resources already consulted: {sorted(overlap)}")
    if len(set(unused)) != len(unused):
        raise ValueError(f"duplicate ids in unused: {unused}")
    for rid in unused:
        r = resources[rid]
        if dummy_inputs[rid] not in r.input_alphabet(t.party):
            raise ValueError(
                f"dummy input {dummy_inputs[rid]} outside {rid!r}'s alphabet "
                f"{list(r.input_alphabet(t.party).values)} for {t.party!r}")

    def chain_below(terminal: Terminal) -> Node:
        node: Node = terminal
        for rid in reversed(unused):
            outs = resources[rid].output_alphabet(t.party).values
            node = Internal(rid, dummy_inputs[rid], {out: node for out in outs})
        return node

    def walk(node: Node) -> Node:
        if isinstance(node, Terminal):
            return chain_below(node)
        return Internal(node.resource_choice, node.input_choice,
                        {out: walk(c) for out, c in node.children.items()})

    return DecisionTree(
        party=t.party,
        root={s: walk(n) for s, n in t.root.items()},
        resource_scope=t.resource_scope | set(unused),
    )


def reference_freeze_outcomes(net: Network, p: Party) -> DecisionTree:
    tree = net.trees[p]
    rids = sorted(tree.resource_scope)

    def walk(node: Node, outs: dict[str, Symbol], setting: Symbol) -> Node:
        if isinstance(node, Terminal):
            transcript = tuple(outs[rid] for rid in rids)
            return Terminal(net.outcome_of(p, setting, transcript))
        rebuilt = {}
        for out, child in node.children.items():
            rebuilt[out] = walk(child, {**outs, node.resource_choice: out}, setting)
        return Internal(node.resource_choice, node.input_choice, rebuilt)

    return DecisionTree(
        party=p,
        root={s: walk(n, {}, s) for s, n in tree.root.items()},
        resource_scope=tree.resource_scope,
    )


def reference_relabel_network(
    net: Network,
    party_map: Mapping[Party, Party] | None = None,
    resource_map: Mapping[str, str] | None = None,
    *,
    name: str | None = None,
) -> Network:
    pm = dict(party_map or {})
    rm = dict(resource_map or {})

    def rp(p: Party) -> Party:
        return pm.get(p, p)

    def rr(rid: str) -> str:
        return rm.get(rid, rid)

    resources = []
    for r in net.resources:
        ctor = (NonsignalingResource.make if r.nonsignaling_checked
                else NonsignalingResource.new_unchecked)
        resources.append(ctor(rr(r.id), [rp(q) for q in r.parties], r.input_alphabets,
                              r.output_alphabets, _Tensor(r.numerators, r.denominator)))

    def rebuild(node: Node) -> Node:
        if isinstance(node, Terminal):
            return node
        return Internal(rr(node.resource_choice), node.input_choice,
                        {out: rebuild(c) for out, c in node.children.items()})

    trees = {}
    for q, t in net.trees.items():
        trees[rp(q)] = DecisionTree(
            party=rp(q),
            root={s: rebuild(n) for s, n in t.root.items()},
            resource_scope=frozenset(rr(rid) for rid in t.resource_scope),
        )

    return Network(
        parties=[rp(q) for q in net.parties],
        resources=resources,
        trees=trees,
        settings_alphabets={rp(q): a for q, a in net.settings_alphabets.items()},
        bins={rp(q): m for q, m in net.bins.items()},
        name=name or f"{net.name}-clone",
    )


def reference_excised(net: Network, frozen: Mapping[Party, DecisionTree],
                      observed: Mapping[str, Mapping[Party, Symbol | Mapping[Symbol, Symbol]]],
                      name: str) -> Network:
    trees = {}
    for p in net.parties:
        t = frozen[p]
        for rid, outputs in observed.items():
            if p in outputs:
                t = reference_excise_input_free(t, rid, outputs[p])
        trees[p] = t
    return Network(parties=net.parties,
                   resources=[r for r in net.resources if r.id not in observed],
                   trees=trees, settings_alphabets=net.settings_alphabets, name=name)


# -- the comparison ----------------------------------------------------------------


def outcome(call):
    """The call's result, or its refusal as (type, text)."""
    try:
        return call()
    except (KeyError, ValueError) as err:
        return type(err), str(err)


def assert_same(call, reference):
    got, want = outcome(call), outcome(reference)
    assert type(got) is type(want) and got == want


def fields(net: Network) -> tuple:
    """Everything a Network is built from, comparable with ``==``."""
    return (net.parties, net.name, net.trees, net.settings_alphabets, net.bins,
            [(r.id, r.parties, r.input_alphabets, r.output_alphabets, r.numerators.tolist(),
              r.denominator, r.nonsignaling_checked) for r in net.resources])


def known_outputs(r: NonsignalingResource, p: Party) -> list:
    """Every known output of ``r`` for member ``p``: each symbol, one symbol
    outside the alphabet, every total map input -> output, each map with
    one input left out, and a map with one output outside the alphabet."""
    ins, outs = r.input_alphabet(p).values, r.output_alphabet(p).values
    outside = max(outs) + 1
    maps = [dict(zip(ins, image)) for image in product(outs, repeat=len(ins))]
    return [*outs, outside, *maps,
            *({x: outs[0] for x in ins if x != left} for left in ins),
            {**maps[0], ins[-1]: outside}]


def assert_party_rewrites_agree(net: Network) -> None:
    """Freeze, excise and append on every party's tree."""
    for p in net.parties:
        frozen = freeze_outcomes(net, p)
        assert frozen == reference_freeze_outcomes(net, p)
        for t in (net.trees[p], frozen):
            assert_same(lambda: excise_input_free(t, "nowhere", 0),
                        lambda: reference_excise_input_free(t, "nowhere", 0))
            for rid in sorted(t.resource_scope):
                r = net.resources_by_id[rid]
                for a in known_outputs(r, p):
                    assert_same(lambda: excise_input_free(t, rid, a),
                                lambda: reference_excise_input_free(t, rid, a))
        assert_appends_agree(frozen, net.resources_by_id)


def assert_appends_agree(t: DecisionTree, resources) -> None:
    """Cut one or two resources out of ``t`` with their first output, then
    append sets of resources back: every order of the cut ones, every
    dummy input and one outside the alphabet, and the refusals for a
    resource still in scope or named twice."""
    p, scope = t.party, sorted(t.resource_scope)
    assert_same(lambda: append_unused(t, [], {}, resources),
                lambda: reference_append_unused(t, [], {}, resources))
    for k in (1, 2):
        for cut in combinations(scope, k):
            bare = t
            for rid in cut:
                bare = excise_input_free(bare, rid, resources[rid].output_alphabet(p).values[0])
            for order in permutations(cut):
                inputs = [resources[rid].input_alphabet(p).values for rid in order]
                for dummies in [*product(*inputs), [max(x) + 1 for x in inputs]]:
                    dummy = dict(zip(order, dummies))
                    for unused in (order, [*order, order[0]], [*order, *scope[:1]]):
                        assert_same(
                            lambda: append_unused(bare, unused, dummy, resources),
                            lambda: reference_append_unused(bare, unused, dummy, resources))


def relabel_maps(net: Network) -> list[tuple[dict, dict]]:
    """Party and resource maps, each one-to-one on the network's names:
    none, all renamed, a rotation, a partial map and a map naming a stranger."""
    parties, rids = list(net.parties), [r.id for r in net.resources]
    return [({}, {}),
            ({p: f"{p}'" for p in parties}, {rid: f"{rid}'" for rid in rids}),
            (dict(zip(parties, parties[1:] + parties[:1])), dict(zip(rids, rids[1:] + rids[:1]))),
            ({parties[0]: "solo"}, {rids[-1]: "last"} if rids else {}),
            ({"stranger": parties[0]}, {"stranger": "x"})]


def assert_relabels_agree(net: Network) -> None:
    for pm, rm in relabel_maps(net):
        assert_same(lambda: fields(relabel_network(net, pm, rm, name="r")),
                    lambda: fields(reference_relabel_network(net, pm, rm, name="r")))


def observations(net: Network, rng: random.Random) -> list[dict]:
    """Valid observed outputs for ``_excised``: each resource alone and all
    of them, once with each member's output symbol from one output tuple
    and once with a total map input -> output per member."""
    def observe(r: NonsignalingResource, as_maps: bool) -> dict:
        if not as_maps:
            return dict(zip(r.parties, rng.choice(list(r.output_space()))))
        return {p: {x: rng.choice(r.output_alphabet(p).values) for x in r.input_alphabet(p).values}
                for p in r.parties}

    subsets = [[r] for r in net.resources]
    if len(net.resources) > 1:
        subsets.append(list(net.resources))
    return [{r.id: observe(r, as_maps) for r in subset}
            for subset in subsets for as_maps in (False, True)]


def assert_excisions_agree(net: Network, rng: random.Random) -> None:
    frozen = {p: freeze_outcomes(net, p) for p in net.parties}
    for observed in observations(net, rng):
        got = decompose._excised(net, frozen, observed, "x")
        assert fields(got) == fields(reference_excised(net, frozen, observed, "x"))


def assert_network_rewrites_agree(net: Network, rng: random.Random) -> None:
    assert_party_rewrites_agree(net)
    assert_relabels_agree(net)
    assert_excisions_agree(net, rng)


# -- corpora -----------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["worked", "paradox", "wired-pr"])
def test_rewrites_agree_on_the_shipped_fixtures(fixture):
    assert_network_rewrites_agree(Network(**_read_scenario(fixture)[1]), random.Random(fixture))


def test_rewrites_agree_on_the_named_networks():
    for net in (worked_network(), unsorted_alphabet_network(), paradox_network()):
        assert_network_rewrites_agree(net, random.Random(net.name))


def test_rewrites_agree_on_generated_networks():
    rng = random.Random(20261020)
    makers = (random_network, random_small_network, random_wired_pairwise_network)
    for i in range(42):
        assert_network_rewrites_agree(makers[i % 3](rng, name=f"g{i}"), rng)


# -- refusals the single walk meets in another order --------------------------------


def test_a_cut_resource_refuses_as_the_reference_does():
    """One observed resource with an output outside a member's edges, or a
    map missing an input: ``_excised`` raises the reference's refusal."""
    net = worked_network()
    frozen = {p: freeze_outcomes(net, p) for p in net.parties}
    for observed in ({"R2": {"A1": 5, "A3": 0}}, {"R1": {"A1": {0: 0}, "A2": 0, "A3": 0}}):
        assert_same(lambda: decompose._excised(net, frozen, observed, "x"),
                    lambda: reference_excised(net, frozen, observed, "x"))
