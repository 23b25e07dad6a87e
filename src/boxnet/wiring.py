"""Per-party decision trees: adaptive wiring of a party's resource shares.

A party holding shares of resources R_k measures them adaptively: which
resource to consult next, and with which input, may depend on the party's
setting and on all outputs seen so far.  That strategy is a finite tree:
one root edge per setting, then internal nodes labeled (resource, input)
whose outgoing edges are labeled by the possible outputs of that resource
as seen by this party, ending in terminals.  Validity requires every
root-to-terminal path to consult every resource in the party's scope
exactly once, so a setting plus a full output assignment determines a
unique maximal path — and hence the input every resource was given.

The tree is stored explicitly, node by node.  No structure sharing is
assumed (though `append_unused` produces it harmlessly), and traversal
never needs the resource tables themselves — only the alphabets, and only
during validation.  Every rewrite of a tree is one copying walk,
``_rewrite``: cutting out resources whose outputs are known
(`excise_input_free`, and the network rewrites, which cut all of a
party's at once), appending unused resources, freezing outcomes into
terminal labels and renaming.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    Party,
    Symbol,
    ValidationReport,
    _parse_keys,
    _parse_symbol,
    _Tensor,
)


@dataclass(frozen=True)
class Terminal:
    """Leaf of a decision tree.  ``outcome`` is the party's final outcome
    symbol for this transcript; ``None`` means "use the default labeling"
    (the canonical transcript index — see the network module)."""

    outcome: int | None = None


@dataclass(frozen=True)
class Internal:
    """Consult ``resource_choice`` with ``input_choice``; ``children``
    maps each output symbol this party can see to the next node."""

    resource_choice: str
    input_choice: Symbol
    children: dict[Symbol, "Node"]


Node = Union[Internal, Terminal]


@dataclass(frozen=True)
class DecisionTree:
    party: Party
    root: dict[Symbol, Node]  # setting -> first node
    resource_scope: frozenset[str]


@dataclass(frozen=True)
class PathTrace:
    """Result of walking one maximal path: the input each resource was
    given, the order the resources were consulted in, and the terminal's
    outcome label (None when terminals are unlabeled)."""

    inputs: dict[str, Symbol]
    consult_order: tuple[str, ...]
    outcome_label: int | None


@lru_cache(maxsize=1024)
def _compiled(ins: tuple[tuple[Symbol, ...], ...], outs: tuple[tuple[Symbol, ...], ...]) -> tuple:
    """The shape [x_r..., a_r...] of a party's shares with these input and output alphabets,
    and each share as a walk reads it: its bit in the mask of those consulted, each input's
    step, the set of outputs, and each output in sorted order with its step; read only."""
    shape, n = (*map(len, ins), *map(len, outs)), len(ins)
    return shape, [(1 << i, {x: k * prod(shape[i + 1:]) for k, x in enumerate(ins[i])},
                    frozenset(outs[i]), sorted((out, j * prod(shape[n + i + 1:]))
                                               for j, out in enumerate(outs[i])))
                   for i in range(n)]


def _tree_paths(
    t: DecisionTree,
    settings_alphabet: Alphabet,
    resources: Mapping[str, NonsignalingResource],
) -> tuple[list[tuple[int, int, int | None]], tuple[int, ...], str | None]:
    """One checked walk of a tree: every maximal path as (setting position,
    offset, terminal label), the shape the offsets index and None; or ([],
    (), the first violation `validate_tree` reports).  The shape is [x_r...,
    a_r...]: the inputs, then the outputs, of the resources r in scope in
    sorted-id order, by alphabet position; an offset is a flat index into it.
    Both are ``_compiled`` per signature: a node costs one lookup and an add per edge."""
    rids = sorted(t.resource_scope)
    for rid in rids:
        if rid not in resources:
            return [], (), f"scope names unknown resource {rid!r}"
        if t.party not in resources[rid].parties:
            return [], (), f"party {t.party!r} is not a member of resource {rid!r}"

    if set(t.root) != set(settings_alphabet):
        return [], (), (f"root edges {sorted(t.root)} do not match the settings "
                        f"alphabet {list(settings_alphabet)}")

    # A walk returns None, or the first violation and the edges back up to it.
    shape, compiled = _compiled(
        tuple(resources[rid].input_alphabet(t.party) for rid in rids),
        tuple(resources[rid].output_alphabet(t.party) for rid in rids))
    compiled = dict(zip(rids, compiled))
    everything, paths = (1 << len(rids)) - 1, []

    def walk(node: Node, consulted: int, offset: int) -> list | None:
        if isinstance(node, Terminal):
            if consulted != everything:
                return [f"ends without consulting "
                        f"{[rid for i, rid in enumerate(rids) if not consulted >> i & 1]}"]
            paths.append((position, offset, node.outcome))
            return None
        rid = node.resource_choice
        if rid not in compiled:
            return [f"consults {rid!r}, which is outside the scope"]
        bit, in_steps, out_keys, edges = compiled[rid]
        if consulted & bit:
            return [f"consults {rid!r} twice"]
        try:   # an unhashable input is no symbol either
            offset += in_steps[node.input_choice]
        except (KeyError, TypeError):
            return [f"gives {rid!r} input {node.input_choice}, outside "
                    f"this party's alphabet {list(in_steps)}"]
        if node.children.keys() != out_keys:
            return [f"node for {rid!r} has output edges "
                    f"{sorted(node.children)}, expected {sorted(out_keys)}"]
        for out, out_offset in edges:  # in sorted order
            error = walk(node.children[out], consulted | bit, offset + out_offset)
            if error is not None:
                return [*error, f" -> {rid}:{out}"]
        return None

    for position, setting in enumerate(settings_alphabet):
        error = walk(t.root[setting], 0, 0)
        if error is not None:
            return [], (), f"path [setting {setting}{''.join(reversed(error[1:]))}] {error[0]}"

    if len({label is None for *_, label in paths}) == 2:
        return [], (), "terminals are partially labeled: label all of them or none"
    return paths, shape, None


def validate_tree(
    t: DecisionTree,
    settings_alphabet: Alphabet | Sequence[Symbol],
    resources: Mapping[str, NonsignalingResource],
) -> ValidationReport:
    """Check the four structural conditions of a decision tree.

    (i)   the root has exactly one edge per setting value;
    (ii)  along every maximal path each resource in scope is consulted
          exactly once (which forces uniform path length |scope| + 1);
    (iii) every internal node's input is in this party's input alphabet
          of the chosen resource, and its outgoing edges are labeled
          bijectively with this party's output alphabet of that resource;
    plus: terminal labels, when used at all, are used on every terminal
          (the party's outcome alphabet is the union of labels over all
          settings; a label can be reachable under some settings only,
          e.g. a party answering deterministically from its setting).

    The first violation is reported with its path from the root.
    """
    error = _tree_paths(t, Alphabet(settings_alphabet), resources)[2]
    return ValidationReport.ok() if error is None else ValidationReport.fail([error])


def trace_path(
    t: DecisionTree,
    setting: Symbol,
    outputs: Mapping[str, Symbol],
) -> PathTrace:
    """Walk the unique maximal path selected by a setting and a full
    output assignment; return the inputs it handed each resource.

    Requires a *valid* tree, one output per resource in scope, and a
    setting present at the root.  Under those preconditions the walk is
    total: every consulted resource has an entry in ``outputs`` and every
    output symbol has an edge.
    """
    missing = t.resource_scope - set(outputs)
    if missing:
        raise KeyError(f"outputs missing entries for {sorted(missing)}")
    if setting not in t.root:
        raise KeyError(f"setting {setting} has no root edge (have {sorted(t.root)})")

    inputs: dict[str, Symbol] = {}
    order: list[str] = []
    node = t.root[setting]
    while isinstance(node, Internal):
        rid = node.resource_choice
        inputs[rid] = node.input_choice
        order.append(rid)
        out = outputs[rid]
        if out not in node.children:
            raise KeyError(f"output {out} of {rid!r} has no edge here "
                           f"(have {sorted(node.children)})")
        node = node.children[out]
    return PathTrace(inputs=inputs, consult_order=tuple(order),
                     outcome_label=node.outcome)


def _rewrite(t: DecisionTree, scope: Iterable[str], *, cut: Mapping = {}, terminal=None,
             rename=None, party: Party | None = None) -> DecisionTree:
    """The one copying walk behind every tree rewrite: ``t`` as a tree of
    ``party`` (default ``t.party``) over ``scope``.  A node consulting a
    resource in ``cut`` gives way to its child along that resource's known
    output, a symbol or a map input -> output; a terminal becomes
    ``terminal(node, setting, seen)`` (default: itself), ``seen`` being the
    outputs along its path, cut ones included; every other node keeps its
    input and its edges, its resource renamed by ``rename``."""

    def walk(node: Node, setting: Symbol, seen: dict[str, Symbol]) -> Node:
        if isinstance(node, Terminal):
            return node if terminal is None else terminal(node, setting, seen)
        rid = node.resource_choice
        if rid not in cut:
            return Internal(rid if rename is None else rename(rid), node.input_choice,
                            {out: walk(c, setting, {**seen, rid: out})
                             for out, c in node.children.items()})
        out = cut[rid]
        if isinstance(out, abc.Mapping):
            if node.input_choice not in out:
                raise ValueError(f"no known output of {rid!r} for input {node.input_choice}")
            out = out[node.input_choice]
        if out not in node.children:
            raise ValueError(f"output {out} outside {rid!r}'s edges {sorted(node.children)}")
        return walk(node.children[out], setting, {**seen, rid: out})

    return DecisionTree(party=t.party if party is None else party,
                        root={s: walk(n, s, {}) for s, n in t.root.items()},
                        resource_scope=frozenset(scope))


def excise_input_free(
    t: DecisionTree,
    k: str,
    a: Symbol | Mapping[Symbol, Symbol],
) -> DecisionTree:
    """Remove resource ``k`` from the tree given its known output.

    Every node consulting ``k`` is replaced by its child along the edge
    for the observed output: pass a single symbol ``a`` when the output
    is input-independent (shared randomness), or a map input -> output
    when ``k`` behaves locally deterministically (the output depends on
    which input the node chose).  All paths shorten by one edge and the
    scope loses ``k``.
    """
    if k not in t.resource_scope:
        raise KeyError(f"resource {k!r} not in scope {sorted(t.resource_scope)}")
    return _rewrite(t, t.resource_scope - {k}, cut={k: a})


def append_unused(
    t: DecisionTree,
    unused: Sequence[str],
    dummy_inputs: Mapping[str, Symbol],
    resources: Mapping[str, NonsignalingResource],
) -> DecisionTree:
    """Extend every path to also consult the ``unused`` resources, in
    order, each with a fixed dummy input, every output leading to the same
    continuation.  The original terminal (label included) survives at the
    bottom.  The party's *behavior* is unchanged up to marginalizing the
    appended outputs away; that equality is checked at the network level.

    ``resources`` supplies the output alphabets needed to fan out each
    appended node.
    """
    unused = list(unused)
    overlap = set(unused) & t.resource_scope
    if overlap:
        raise ValueError(f"resources already consulted: {sorted(overlap)}")
    if len(set(unused)) != len(unused):
        raise ValueError(f"duplicate ids in unused: {unused}")
    for rid in unused:
        if rid not in resources:
            raise ValueError(f"unused id {rid!r} names no resource")
        if rid not in dummy_inputs:
            raise ValueError(f"unused id {rid!r} has no dummy input")
        r = resources[rid]
        if dummy_inputs[rid] not in r.input_alphabet(t.party):
            raise ValueError(
                f"dummy input {dummy_inputs[rid]} outside {rid!r}'s alphabet "
                f"{list(r.input_alphabet(t.party))} for {t.party!r}")

    def chain_below(terminal: Terminal, *_) -> Node:
        node: Node = terminal
        for rid in reversed(unused):
            outs = resources[rid].output_alphabet(t.party)
            node = Internal(rid, dummy_inputs[rid], {out: node for out in outs})
        return node

    return _rewrite(t, t.resource_scope | set(unused), terminal=chain_below)


def bottom_encode(r: NonsignalingResource) -> NonsignalingResource:
    """The "opt-out" extension of a resource: every party gains one extra
    input symbol meaning *do not use this resource*, and one extra output
    symbol that is returned (with certainty) exactly when they opt out.
    The parties who do use it see their marginal of the original table.

    This is the alternative to `append_unused` for modeling a party that
    never consults a shared resource; the two encodings induce identical
    behaviors, which the test suite checks by direct comparison.
    """
    r.require_nonsignaling("bottom_encode")
    n = len(r.parties)
    in_alphas = [Alphabet(a + (max(a) + 1,)) for a in r.input_alphabets]
    out_alphas = [Alphabet(a + (max(a) + 1,)) for a in r.output_alphabets]
    nums = np.zeros([len(a) for a in in_alphas + out_alphas], dtype=r.numerators.dtype)
    for opted_out in product((False, True), repeat=n):
        # Opted-out parties sit at their new last symbols; the others get r's
        # marginal with the opted-out inputs at their first symbol.
        block = r.numerators[tuple(0 if o else slice(None) for o in opted_out)]
        active = n - sum(opted_out)
        block = block.sum(axis=tuple(active + i for i in range(n) if opted_out[i]))
        nums[tuple(-1 if o else slice(-1) for o in opted_out * 2)] = block
    return NonsignalingResource.make(f"{r.id}+optout", r.parties, in_alphas,
                                     out_alphas, _Tensor(nums, r.denominator))


# -- serialization ----------------------------------------------------------------


#: The keys of an unlabeled terminal, a labeled one and an internal node.
_NODE_KEYS = (set(), {"outcome"}, {"resource", "input", "children"})


def _node_to_json(node: Node) -> dict:
    if isinstance(node, Terminal):
        return {} if node.outcome is None else {"outcome": str(node.outcome)}
    return {
        "resource": node.resource_choice,
        "input": int(node.input_choice),
        "children": {str(out): _node_to_json(c) for out, c in node.children.items()},
    }


def _node_from_json(data: object, where: str, scope: set[str]) -> Node:
    """The node ``data`` at path ``where``, a mapping with the keys of one
    node shape; each resource it consults joins ``scope``."""
    if not isinstance(data, abc.Mapping) or data.keys() not in _NODE_KEYS:
        got = f"keys {sorted(data)}" if isinstance(data, abc.Mapping) else type(data).__name__
        raise ValueError(f"tree node at [{where}]: expected {{}}, {{outcome}} or "
                         f"{{resource, input, children}}, got {got}")
    if "resource" not in data:
        return Terminal(outcome=_parse_symbol(data["outcome"]) if data else None)
    rid = str(data["resource"])
    scope.add(rid)
    return Internal(rid, _parse_symbol(data["input"]),
                    {out: _node_from_json(c, f"{where} -> {rid}:{out}", scope)
                     for out, c in _parse_keys(data["children"], _parse_symbol).items()})


def tree_to_json_dict(t: DecisionTree) -> dict:
    return {
        "party": t.party,
        "settings": {str(s): _node_to_json(n) for s, n in t.root.items()},
    }


def tree_from_json_dict(data: Mapping, *, party: Party | None = None) -> DecisionTree:
    """Load a tree; the scope is inferred from the resources the tree
    actually consults (validation separately enforces that every path
    consults all of them)."""
    scope: set[str] = set()
    root = {s: _node_from_json(n, f"setting {s}", scope)
            for s, n in _parse_keys(data["settings"], _parse_symbol).items()}
    p = party if party is not None else data["party"]
    return DecisionTree(party=p, root=root, resource_scope=frozenset(scope))
