"""Differential tests of the one checked tree walk against the two walks it
replaced.

``reference_validate_tree`` and ``reference_maximal_paths`` below are the
earlier implementations, as they were: a validating walk that stops at
the first violation, and a separate walk that lists every maximal path.
``wiring._tree_paths`` does both in one walk.  On every tree of the test
corpora and the shipped fixtures, on one tree per violation class and on
trees with several violations, ``validate_tree`` must give the reference's
report (``passed`` and ``errors``) and ``_tree_paths`` the reference's
paths, mapped to its (setting position, offset, label) form, or its
first error.  A last test counts how often a ``Network`` reads each
internal node's children.
"""
from __future__ import annotations

import random
from collections import Counter
from typing import Iterator, Mapping, Sequence

import pytest

from boxnet.cli import _read_scenario
from boxnet.network import Network
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    Symbol,
    ValidationReport,
    make_pr_box,
)
from boxnet.wiring import (
    DecisionTree,
    Internal,
    Node,
    Terminal,
    _tree_paths,
    validate_tree,
)

from netgen import (
    alice_tree,
    bob_tree,
    charlie_tree,
    paradox_network,
    r1_three_party,
    r2_ternary_pair,
    random_network,
    random_small_network,
    random_wired_pairwise_network,
    unsorted_alphabet_network,
    worked_network,
)

BITS = Alphabet((0, 1))


# -- the retired walks -------------------------------------------------------------


def reference_validate_tree(
    t: DecisionTree,
    settings_alphabet: Alphabet | Sequence[Symbol],
    resources: Mapping[str, NonsignalingResource],
) -> ValidationReport:
    if not isinstance(settings_alphabet, Alphabet):
        settings_alphabet = Alphabet(tuple(settings_alphabet))

    for rid in sorted(t.resource_scope):
        if rid not in resources:
            return ValidationReport.fail([f"scope names unknown resource {rid!r}"])
        if t.party not in resources[rid].parties:
            return ValidationReport.fail(
                [f"party {t.party!r} is not a member of resource {rid!r}"])

    if set(t.root) != set(settings_alphabet.values):
        return ValidationReport.fail([
            f"root edges {sorted(t.root)} do not match the settings "
            f"alphabet {list(settings_alphabet.values)}"])

    unlabeled = [0]
    labeled = [0]

    def walk(node: Node, used: frozenset[str], path: str, setting: Symbol) -> list[str]:
        if isinstance(node, Terminal):
            if used != t.resource_scope:
                missing = sorted(t.resource_scope - used)
                return [f"path [{path}] ends without consulting {missing}"]
            if node.outcome is None:
                unlabeled[0] += 1
            else:
                labeled[0] += 1
            return []
        if node.resource_choice not in t.resource_scope:
            return [f"path [{path}] consults {node.resource_choice!r}, "
                    f"which is outside the scope"]
        if node.resource_choice in used:
            return [f"path [{path}] consults {node.resource_choice!r} twice"]
        r = resources[node.resource_choice]
        if node.input_choice not in r.input_alphabet(t.party):
            return [f"path [{path}] gives {node.resource_choice!r} input "
                    f"{node.input_choice}, outside this party's alphabet "
                    f"{list(r.input_alphabet(t.party).values)}"]
        expected = set(r.output_alphabet(t.party).values)
        if set(node.children) != expected:
            return [f"path [{path}] node for {node.resource_choice!r} has output "
                    f"edges {sorted(node.children)}, expected {sorted(expected)}"]
        used = used | {node.resource_choice}
        for out, child in sorted(node.children.items()):
            errs = walk(child, used,
                        f"{path} -> {node.resource_choice}:{out}", setting)
            if errs:
                return errs
        return []

    for setting in settings_alphabet.values:
        errs = walk(t.root[setting], frozenset(), f"setting {setting}", setting)
        if errs:
            return ValidationReport.fail(errs)

    if labeled[0] and unlabeled[0]:
        return ValidationReport.fail(
            ["terminals are partially labeled: label all of them or none"])
    return ValidationReport.ok()


def reference_maximal_paths(
    t: DecisionTree,
) -> Iterator[tuple[Symbol, dict[str, Symbol], dict[str, Symbol], int | None]]:
    def walk(node: Node, inputs: dict[str, Symbol], outputs: dict[str, Symbol]):
        if isinstance(node, Terminal):
            yield inputs, outputs, node.outcome
            return
        rid = node.resource_choice
        for out, child in node.children.items():
            yield from walk(child, {**inputs, rid: node.input_choice}, {**outputs, rid: out})

    for setting, node in t.root.items():
        for inputs, outputs, label in walk(node, {}, {}):
            yield setting, inputs, outputs, label


# -- the comparison ----------------------------------------------------------------


def path_multiset(paths) -> Counter:
    """Paths as hashable tuples."""
    return Counter(tuple(path) for path in paths)


def as_walked(paths, t: DecisionTree, settings_alphabet: Alphabet, resources) -> tuple:
    """Reference paths as the checked walk reports them, with the shape
    of their offsets: (setting position, offset, label), the offset being
    the index of the path's inputs and outputs in the row-major array
    [x_r..., a_r...] over the scope in sorted-id order, each axis indexed
    by alphabet position."""
    rids = sorted(t.resource_scope)
    axes = ([(rid, 0, resources[rid].input_alphabet(t.party)) for rid in rids]
            + [(rid, 1, resources[rid].output_alphabet(t.party)) for rid in rids])
    walked = []
    for s, inputs, outputs, label in paths:
        offset = 0
        for rid, side, alphabet in axes:
            offset = offset * len(alphabet) + alphabet.values.index((inputs, outputs)[side][rid])
        walked.append((settings_alphabet.values.index(s), offset, label))
    return walked, tuple(len(alphabet) for *_, alphabet in axes)


def assert_walks_agree(t: DecisionTree, settings, resources) -> ValidationReport:
    """The checked walk gives the reference report and, on a valid tree,
    the reference paths; returns the reference report."""
    ref = reference_validate_tree(t, settings, resources)
    report = validate_tree(t, settings, resources)
    assert (report.passed, report.errors) == (ref.passed, ref.errors)
    alphabet = settings if isinstance(settings, Alphabet) else Alphabet(tuple(settings))
    paths, shape, error = _tree_paths(t, alphabet, resources)
    if ref.passed:
        assert error is None
        walked, ref_shape = as_walked(reference_maximal_paths(t), t, alphabet, resources)
        assert shape == ref_shape
        assert path_multiset(paths) == path_multiset(walked)
    else:
        assert (paths, shape, error) == ([], (), ref.errors[0])
    return ref


def assert_network_walks_agree(net: Network) -> None:
    for p in net.parties:
        ref = assert_walks_agree(net.trees[p], net.settings_alphabets[p], net.resources_by_id)
        assert ref.passed


# -- corpora -----------------------------------------------------------------------


def test_walks_agree_on_the_shipped_fixtures():
    for name in ("worked", "paradox", "wired-pr"):
        _, args = _read_scenario(name)
        resources = {r.id: r for r in args["resources"]}
        for p in args["parties"]:
            ref = assert_walks_agree(args["trees"][p], args["settings_alphabets"][p],
                                     resources)
            assert ref.passed


def test_walks_agree_on_the_named_networks():
    for net in (worked_network(), unsorted_alphabet_network(), paradox_network()):
        assert_network_walks_agree(net)


def test_walks_agree_on_the_acceptance_corpora():
    rng = random.Random(20260816)
    for i in range(200):
        assert_network_walks_agree(random_network(rng, name=f"n{i}"))
    rng = random.Random(777)
    for i in range(500):
        assert_network_walks_agree(random_wired_pairwise_network(rng, name=f"w{i}"))


def test_walks_agree_on_small_random_networks():
    rng = random.Random(2026)
    for i in range(100):
        assert_network_walks_agree(random_small_network(rng, name=f"s{i}"))


# -- one tree per violation class ----------------------------------------------------


@pytest.fixture()
def resources():
    outsider = make_pr_box(id="PRBC", parties=("B", "C"))
    return {"R1": r1_three_party(), "R2": r2_ternary_pair(), "PRBC": outsider}


def fan(rid, inp, outs=(0, 1), child=Terminal):
    return Internal(rid, inp, {out: child() for out in outs})


def tree(party, root, scope) -> DecisionTree:
    return DecisionTree(party=party, root=root, resource_scope=frozenset(scope))


def bob(root) -> DecisionTree:
    return tree("A2", root, {"R1"})


VIOLATIONS = {
    "unknown resource": (
        lambda: tree("A2", {s: fan("R1", s) for s in (0, 1)}, {"R1", "R9"}),
        "scope names unknown resource 'R9'"),
    "non-member": (
        lambda: tree("A2", {s: fan("R1", s) for s in (0, 1)}, {"R1", "R2"}),
        "party 'A2' is not a member of resource 'R2'"),
    "root-edge mismatch": (
        lambda: bob({0: fan("R1", 0), 2: fan("R1", 1)}),
        "root edges [0, 2] do not match the settings alphabet [0, 1]"),
    "outside scope": (
        lambda: tree("A1", {0: fan("R1", 0, child=lambda: fan("R2", 0, (0, 1, 2))),
                            1: fan("R1", 0, child=lambda: fan("R3", 0))}, {"R1", "R2"}),
        "path [setting 1 -> R1:0] consults 'R3', which is outside the scope"),
    "consulted twice": (
        lambda: bob({0: fan("R1", 0), 1: fan("R1", 1, child=lambda: fan("R1", 0))}),
        "path [setting 1 -> R1:0] consults 'R1' twice"),
    "bad input": (
        lambda: bob({0: fan("R1", 0), 1: fan("R1", 5)}),
        "path [setting 1] gives 'R1' input 5, outside this party's alphabet [0, 1]"),
    "wrong edges": (
        lambda: tree("A1", {s: fan("R2", 0, child=lambda: fan("R1", 0)) for s in (0, 1)},
                     {"R1", "R2"}),
        "path [setting 0] node for 'R2' has output edges [0, 1], expected [0, 1, 2]"),
    "relabeled edges": (
        lambda: bob({0: fan("R1", 0), 1: fan("R1", 1, (0, 2))}),
        "path [setting 1] node for 'R1' has output edges [0, 2], expected [0, 1]"),
    "short path": (
        lambda: tree("A1", {0: fan("R1", 1, child=lambda: fan("R2", 0, (0, 1, 2))),
                            1: fan("R2", 1, (0, 1, 2))}, {"R1", "R2"}),
        "path [setting 1 -> R2:0] ends without consulting ['R1']"),
    "partial labels": (
        lambda: bob({0: Internal("R1", 0, {0: Terminal(3), 1: Terminal(4)}),
                     1: Internal("R1", 1, {0: Terminal(3), 1: Terminal()})}),
        "terminals are partially labeled: label all of them or none"),
}


@pytest.mark.parametrize("violation", list(VIOLATIONS))
def test_each_violation_class_is_reported_as_before(resources, violation):
    make, message = VIOLATIONS[violation]
    ref = assert_walks_agree(make(), BITS, resources)
    assert ref.errors == [message]


def test_the_first_of_several_violations_wins(resources):
    # Scope problems come before the root, the root before any path, and
    # the scope's ids are checked in sorted order.
    both = tree("A2", {0: fan("R1", 7)}, {"R1", "R9"})
    assert assert_walks_agree(both, BITS, resources).errors == [
        "scope names unknown resource 'R9'"]
    crowded = tree("A2", {0: fan("R1", 7)}, {"R1", "R2", *(f"X{i}" for i in range(9))})
    assert assert_walks_agree(crowded, BITS, resources).errors == [
        "party 'A2' is not a member of resource 'R2'"]
    # Paths are walked in settings-alphabet order, children in sorted order,
    # and a path's first bad node wins over anything below or after it.
    several = tree("A1", {
        1: fan("R1", 9),
        0: Internal("R1", 0, {1: fan("R1", 0),
                              0: Internal("R2", 5, {0: Terminal(), 1: Terminal()})}),
    }, {"R1", "R2"})
    assert assert_walks_agree(several, BITS, resources).errors == [
        "path [setting 0 -> R1:0] gives 'R2' input 5, outside this party's alphabet [0, 1]"]
    # Settings alphabet (1, 0) walks setting 1 first.
    assert assert_walks_agree(several, Alphabet((1, 0)), resources).errors == [
        "path [setting 1] gives 'R1' input 9, outside this party's alphabet [0, 1]"]
    # A short path anywhere beats partial labels, which are judged last.
    labeled_then_short = bob({0: Internal("R1", 0, {0: Terminal(1), 1: Terminal()}),
                              1: Terminal()})
    assert assert_walks_agree(labeled_then_short, BITS, resources).errors == [
        "path [setting 1] ends without consulting ['R1']"]


def test_children_are_walked_in_sorted_order_not_alphabet_order():
    # A's outputs of R are (2, 0, 5): the bad input under output 0 comes
    # first in sorted order, the one under output 2 first in alphabet order.
    net = unsorted_alphabet_network()
    root = Internal("R", 1, {out: Internal("S", inp, {0: Terminal(), 1: Terminal()})
                             for out, inp in ((2, 7), (0, 9), (5, 0))})
    t = tree("A", {3: root, 1: root}, {"R", "S"})
    assert assert_walks_agree(t, net.settings_alphabets["A"], net.resources_by_id).errors == [
        "path [setting 3 -> R:0] gives 'S' input 9, outside this party's alphabet [0]"]


def test_valid_trees_of_the_worked_scenario(resources):
    for t in (alice_tree(), bob_tree(), charlie_tree()):
        assert assert_walks_agree(t, BITS, resources).passed
        assert assert_walks_agree(t, [0, 1], resources).passed


# -- one read per child ---------------------------------------------------------------


class CountingChildren(dict):
    """A children map that counts the reads of each child, by key or by
    enumeration."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads[key] += 1
        return super().get(key, default)

    def items(self):
        self.reads.update(self.keys())
        return super().items()

    def values(self):
        self.reads.update(self.keys())
        return super().values()


def counted(node: Node, maps: list) -> Node:
    """A copy of ``node`` with a fresh counting children map at every
    internal node, each appended to ``maps``."""
    if isinstance(node, Terminal):
        return node
    children = CountingChildren({out: counted(c, maps) for out, c in node.children.items()})
    maps.append(children)
    return Internal(node.resource_choice, node.input_choice, children)


def test_network_enumerates_each_nodes_children_once():
    net = worked_network()
    maps: list[CountingChildren] = []
    trees = {p: DecisionTree(p, {s: counted(n, maps) for s, n in t.root.items()},
                             t.resource_scope)
             for p, t in net.trees.items()}
    Network(net.parties, net.resources, trees, net.settings_alphabets, name="counted")
    assert maps and all(m.reads == Counter(dict.fromkeys(m, 1)) for m in maps)
