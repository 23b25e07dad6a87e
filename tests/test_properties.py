"""Property tests, run by Hypothesis with a fixed seed and bounded example
counts (skipped when Hypothesis is not installed).

1. The checked tree walk agrees with the retired ``validate_tree`` and
   ``maximal_paths`` on generated valid trees, which also round-trip
   through JSON, and on single mutations of them.
2. Exact and float resource JSON round-trips, and the exact text is the
   retired view-based writer's.
3. Any JSON given as a resource, tree or scenario file makes ``main``
   return 0, 1 or 2, never raise.
4. On generated networks, no contraction step exceeds its plan's largest
   intermediate, and the induced behavior is normalized, nonsignaling and
   has the same marginals by both of ``marginal_without_party``'s routes.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from unittest import mock
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import boxnet  # noqa: E402
from boxnet import network  # noqa: E402
from boxnet.cli import main  # noqa: E402
from boxnet.ghz import FloatBehavior  # noqa: E402
from boxnet.resource import (  # noqa: E402
    Alphabet,
    NonsignalingResource,
    marginal,
    validate_nonsignaling,
)
from boxnet.wiring import (  # noqa: E402
    DecisionTree,
    Internal,
    Terminal,
    tree_from_json_dict,
    tree_to_json_dict,
)

from netgen import random_network, random_small_network  # noqa: E402
from test_json_writer_reference import reference_to_json_dict  # noqa: E402
from test_tree_walk_reference import assert_walks_agree  # noqa: E402


def bounded(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def alphabets(max_size: int = 3):
    """Gapped, unsorted alphabets."""
    return st.lists(st.integers(0, 9), min_size=1, max_size=max_size,
                    unique=True).map(lambda v: Alphabet(tuple(v)))


# -- 1. the checked tree walk -------------------------------------------------------


@lru_cache(maxsize=None)
def uniform(rid: str, parties: tuple, ins: tuple, outs: tuple) -> NonsignalingResource:
    """The uniform box over the given alphabets (tuples of symbol tuples)."""
    ins, outs = [Alphabet(a) for a in ins], [Alphabet(a) for a in outs]
    width = prod(len(a) for a in outs)
    column = {a: Fraction(1, width) for a in product(*(a.values for a in outs))}
    return NonsignalingResource.make(
        rid, parties, ins, outs, {x: column for x in product(*(a.values for a in ins))})


@st.composite
def valid_trees(draw):
    """(tree, settings alphabet, resources): party P's valid tree over one
    to three boxes it shares with Q, plus a box RQ that P is not in."""
    resources = {"RQ": uniform("RQ", ("Q",), ((0,),), ((0, 1),))}
    for k in range(draw(st.integers(1, 3))):
        parties = ("P", "Q") if draw(st.booleans()) else ("P",)
        ins = [draw(alphabets()).values] + [(0, 1)] * (len(parties) - 1)
        outs = [draw(alphabets(2 if k else 3)).values] + [(0,)] * (len(parties) - 1)
        resources[f"R{k}"] = uniform(f"R{k}", parties, tuple(ins), tuple(outs))
    scope = frozenset(rid for rid in resources if rid != "RQ")
    labeled = draw(st.booleans())

    def build(remaining: frozenset):
        if not remaining:
            return Terminal(draw(st.integers(0, 3)) if labeled else None)
        rid = draw(st.sampled_from(sorted(remaining)))
        r = resources[rid]
        return Internal(rid, draw(st.sampled_from(r.input_alphabet("P").values)),
                        {out: build(remaining - {rid}) for out in r.output_alphabet("P").values})

    setting_alphabet = draw(alphabets())
    t = DecisionTree("P", {s: build(scope) for s in setting_alphabet.values}, scope)
    return t, setting_alphabet, resources


def nodes(t: DecisionTree):
    """Every node with its key path from the root: (setting, output, ...)."""
    def walk(node, keys):
        yield keys, node
        if isinstance(node, Internal):
            for out, child in node.children.items():
                yield from walk(child, keys + (out,))

    for s, node in t.root.items():
        yield from walk(node, (s,))


def replaced(t: DecisionTree, keys: tuple, new) -> DecisionTree:
    def at(node, rest):
        if not rest:
            return new
        out, *rest = rest
        return Internal(node.resource_choice, node.input_choice,
                        {**node.children, out: at(node.children[out], rest)})

    s, *rest = keys
    return DecisionTree(t.party, {**t.root, s: at(t.root[s], rest)}, t.resource_scope)


@st.composite
def mutated(draw, case):
    """One mutation of a valid tree: of its scope, its root, or one node."""
    t, setting_alphabet, resources = case
    where = draw(st.sampled_from(["scope", "root", "node"]))
    if where == "scope":
        extra = draw(st.sampled_from(["R9", "RQ", None]))
        scope = t.resource_scope | {extra} if extra else t.resource_scope - {min(t.resource_scope)}
        return DecisionTree(t.party, t.root, frozenset(scope))
    if where == "root":
        root = dict(t.root)
        if len(root) > 1 and draw(st.booleans()):
            del root[draw(st.sampled_from(sorted(root)))]
        else:
            root[draw(st.integers(0, 10))] = next(iter(t.root.values()))
        return DecisionTree(t.party, root, t.resource_scope)
    keys, node = draw(st.sampled_from(list(nodes(t))))
    rids = st.sampled_from(sorted(t.resource_scope) + ["RQ", "R9"])
    if isinstance(node, Terminal):
        label = None if node.outcome is not None else 0
        return replaced(t, keys, draw(st.sampled_from([
            Terminal(label), Internal(draw(rids), 0, {0: Terminal(), 1: Terminal()})])))
    kind = draw(st.sampled_from(["input", "resource", "drop edge", "add edge", "move edge",
                                 "cut"]))
    children = dict(node.children)
    if kind == "input":
        new = Internal(node.resource_choice, draw(st.integers(-1, 10)), children)
    elif kind == "resource":
        new = Internal(draw(rids), node.input_choice, children)
    elif kind == "drop edge":
        del children[draw(st.sampled_from(sorted(children)))]
        new = Internal(node.resource_choice, node.input_choice, children)
    elif kind == "add edge":
        children[draw(st.integers(0, 10))] = Terminal()
        new = Internal(node.resource_choice, node.input_choice, children)
    elif kind == "move edge":
        child = children.pop(draw(st.sampled_from(sorted(children))))
        children[draw(st.integers(0, 10))] = child
        new = Internal(node.resource_choice, node.input_choice, children)
    else:
        new = Terminal()
    return replaced(t, keys, new)


@bounded(40)
@given(valid_trees())
def test_checked_walk_agrees_on_valid_trees_which_round_trip(case):
    t, setting_alphabet, resources = case
    assert assert_walks_agree(t, setting_alphabet, resources).passed
    assert tree_from_json_dict(json.loads(json.dumps(tree_to_json_dict(t)))) == t


@bounded(80)
@given(valid_trees().flatmap(lambda case: st.tuples(st.just(case), mutated(case))))
def test_checked_walk_agrees_on_mutated_trees(cases):
    (_, setting_alphabet, resources), t = cases
    assert_walks_agree(t, setting_alphabet, resources)


# -- 2. resource JSON ------------------------------------------------------------------


@st.composite
def signatures(draw):
    n = draw(st.integers(1, 3))
    parties = tuple("ABC"[:n])
    ins = [draw(alphabets(2 if n == 3 else 3)) for _ in parties]
    outs = [draw(alphabets(2 if n == 3 else 3)) for _ in parties]
    return parties, ins, outs


def distributions(draw, support, big: bool) -> list:
    weights = draw(st.lists(st.integers(0, 2 ** 70 if big else 4), min_size=len(support),
                            max_size=len(support)).filter(any))
    return [Fraction(w, sum(weights)) for w in weights]


@st.composite
def exact_resources(draw):
    """A product of per-party conditional distributions (nonsignaling), or
    with independent columns (usually signaling, built unchecked); large
    weights give denominators beyond 2**63."""
    parties, ins, outs = draw(signatures())
    big, signaling = draw(st.booleans()), draw(st.booleans())
    out_space = list(product(*(a.values for a in outs)))
    if signaling:
        table = {x: dict(zip(out_space, distributions(draw, out_space, big)))
                 for x in product(*(a.values for a in ins))}
        return NonsignalingResource.new_unchecked("s", parties, ins, outs, table)
    local = [{x: distributions(draw, o.values, big) for x in i.values}
             for i, o in zip(ins, outs)]
    table = {x: {a: prod((local[j][x[j]][o.values.index(a[j])]
                          for j, o in enumerate(outs)), start=Fraction(1))
                 for a in out_space}
             for x in product(*(a.values for a in ins))}
    return NonsignalingResource.make("ns", parties, ins, outs, table)


@bounded(40)
@given(exact_resources())
def test_exact_json_round_trips_and_matches_the_reference_text(r):
    text = json.dumps(r.to_json_dict())
    assert r._table is None
    back = NonsignalingResource.from_json_dict(json.loads(text))
    assert back.same_table(r) and back.nonsignaling_checked == r.nonsignaling_checked
    assert json.dumps(back.to_json_dict()) == text
    assert text == json.dumps(reference_to_json_dict(r))


@st.composite
def float_behaviors(draw):
    """A product of per-party float conditional distributions."""
    parties, ins, outs = draw(signatures())
    unit = st.floats(0, 1).filter(lambda v: v == 0 or v > 1e-3)

    def local(o):
        weights = draw(st.lists(unit, min_size=len(o), max_size=len(o)).filter(any))
        return np.array(weights) / sum(weights)

    factors = [[local(o) for _ in i.values] for i, o in zip(ins, outs)]
    probabilities = np.zeros([len(a) for a in ins + outs])
    for x in product(*(range(len(a)) for a in ins)):
        column = factors[0][x[0]]
        for j in range(1, len(parties)):
            column = np.multiply.outer(column, factors[j][x[j]])
        probabilities[x] = column
    return FloatBehavior("f", parties, ins, outs, probabilities)


@bounded(40)
@given(float_behaviors())
def test_float_json_round_trips(b):
    text = json.dumps(b.to_json_dict())
    back = FloatBehavior.from_json_dict(json.loads(text))
    assert np.array_equal(back.probabilities, b.probabilities)
    assert json.dumps(back.to_json_dict()) == text


# -- 3. any JSON in an input file ----------------------------------------------------------


FIXTURES = Path(boxnet.__file__).parent / "fixtures"
KEYS = st.sampled_from(["0", "00", "1", "+1", " 1", "-1", "0,0", "0,00", "", "x",
                        "id", "parties", "inputs", "outputs", "table", "settings",
                        "resource", "input", "children", "outcome", "bins", "unchecked",
                        "float", "resources", "trees"])
LEAVES = (st.sampled_from([0, 1, 2, "1/2", "0/1", "1/3", "2/3", 2 ** 64, 1e400, 0.5])
          | st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=True)
          | KEYS | st.text(max_size=3))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8)


def places(doc, path=()):
    """Every position in a JSON document, as its key path."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from places(v, path + (k,))


def value_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def mutated_json(draw, doc):
    """``doc`` with one value replaced by arbitrary JSON (a leaf, often, by
    another leaf), or one key renamed."""
    paths = list(places(doc))
    leaves = [p for p in paths if not p or not isinstance(value_at(doc, p), (dict, list))]
    path = draw(st.sampled_from(leaves if draw(st.booleans()) else paths))
    new = draw(LEAVES if draw(st.booleans()) else JSON)
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(KEYS)] = parent.pop(path[-1])
    else:
        parent[path[-1]] = new
    return doc


FILES = [("worked", "scenario.json"), ("worked", "alice.json"), ("worked", "r2.json"),
         ("wired-pr", "scenario.json"), ("wired-pr", "b.json"), ("wired-pr", "pr_ab.json"),
         ("paradox", "w1.json")]


@st.composite
def broken_inputs(draw):
    fixture, name = draw(st.sampled_from(FILES))
    doc = json.loads((FIXTURES / fixture / name).read_text())
    return fixture, name, draw(mutated_json(doc))


@bounded(60)
@given(broken_inputs())
def test_any_json_input_gives_an_exit_code(case):
    fixture, name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(shutil.copytree(FIXTURES / fixture, Path(tmp) / fixture))
        (d / name).write_text(json.dumps(doc))
        for argv in (["validate", str(d)], ["behavior", str(d)], ["decompose", str(d / name)],
                     ["ineq", "eval", "--ineq", "mao", "--behavior", str(d / name)]):
            assert main(argv) in (0, 1, 2), argv


# -- 4. planned contractions on generated networks -------------------------------------


@bounded(60)
@given(st.randoms(use_true_random=False), st.sampled_from([random_network, random_small_network]))
def test_generated_networks_stay_within_the_plan_normalized_and_nonsignaling(rng, generate):
    """Each ``np.einsum`` a contraction runs (its plan's pair steps and the
    last one) yields at most the plan's ``largest`` elements, and the
    largest step yields exactly that; the induced behavior is normalized
    and nonsignaling, and ``marginal_without_party``'s two routes agree
    for every party."""
    net = generate(rng, "hyp")
    planned, einsum = network._contract, np.einsum

    def recording(arrays, plan):
        sizes = []

        def counted(*args):
            result = einsum(*args)
            sizes.append(result.size)
            return result

        with mock.patch.object(np, "einsum", counted):
            result = planned(arrays, plan)
        assert len(sizes) == len(plan.steps) + 1
        assert all(size <= plan.largest for size in sizes) and max(sizes) == plan.largest
        return result

    with mock.patch.object(network, "_contract", recording):
        behavior = network.induced_behavior(net)
        assert all(sum(column.values()) == 1 for column in behavior.table.values())
        assert validate_nonsignaling(behavior).passed
        if len(net.parties) > 1:
            for p in net.parties:
                rest = [q for q in net.parties if q != p]
                assert network.marginal_without_party(net, p).same_table(
                    marginal(behavior, rest))
