"""Wired networks: the induced joint distribution and its consistency checks.

A network is n parties, m shared resources, and one decision tree per
party.  The probability of a complete transcript (every resource's full
output tuple) under a settings choice is the product of the resource
tables, each evaluated at the inputs its member parties' trees handed it
along their paths; each tree is walked once, by the walk that checks it.
Everything here is exact rational arithmetic; normalization (sum over all
transcripts equals one) is *asserted*, not assumed, each time a
distribution is built — for well-formed networks of nonsignaling
resources it always holds, and a deliberately signaling counterexample
shows up as a total different from one.

That product is a tensor network.  Each resource is an integer tensor
R_r[x_r, a_r] (its stored numerators over its denominator), each
party a 0/1 wiring tensor W_p[s_p, o_p, x_p, a_p] that is 1 where p's tree,
at setting s_p and with outputs a_p, hands the inputs x_p to its
resources and yields the outcome o_p.  The joint distribution and the
induced behavior are both contractions of these tensors, done pairwise
in exact integer arithmetic, each pair step one batched matrix product
(``np.matmul``) between transposes; their cost follows the widest
intermediate tensor, not the number of transcripts.
``joint_probability`` evaluates one transcript directly, reading each
party's path table: its paths' flat indices in W_p.

Each network numbers the tensors' axes once, as int labels, in the order
the operands first name them: every resource's input axes and then its
output axes, resource by resource, then every party's setting and
outcome.  The plan of a contraction is cached by those labels and the
shapes, so networks that differ only in names share it.

The induced behavior is itself a nonsignaling resource over the parties'
settings, and is validated as such on construction.
"""

from __future__ import annotations

from collections import Counter, abc
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    Party,
    Symbol,
    TableError,
    ValidationReport,
    _INT64,
    _INT_TYPE,
    _key_tuple,
    _plain_keys,
    _positions,
    _symbol,
    _Tensor,
)
from boxnet.resource import marginal as resource_marginal
from boxnet.wiring import DecisionTree, Terminal, _rewrite, _tree_paths

Behavior = NonsignalingResource

Transcript = tuple[Symbol, ...]           # one party's outputs, sorted-resource-id order
OutputAssignment = tuple[Transcript, ...]  # one tuple per resource, resource order
_outcome_alphabet = lru_cache(maxsize=256)(Alphabet)   # one per tuple of int outcomes


class NetworkError(ValueError):
    """The network is structurally inconsistent (scope mismatches, invalid
    trees, non-total bins) or an operation's precondition failed."""


@dataclass
class JointDistribution:
    """Distribution of complete transcripts for one settings tuple.

    ``table`` maps each output assignment — a tuple with one entry per
    resource (in network resource order), each entry being that resource's
    full output tuple — to its exact probability.  ``total`` is the sum of
    all entries: exactly 1 unless the distribution was built in
    counterexample mode from signaling components.
    """

    settings: tuple[Symbol, ...]
    table: dict[OutputAssignment, Fraction]
    total: Fraction


class Network:
    """Immutable-after-validation assembly of parties, resources, trees.

    Invariants enforced at construction: resource ids unique; trees,
    settings alphabets and bins are keyed by network parties only; party p's
    tree scope is exactly the set of resources p is a member of; every
    tree validates against the shared resources; bins (when given) are
    total over the party's transcript space and have no other key.
    """

    def __init__(
        self,
        parties: Sequence[Party],
        resources: Sequence[NonsignalingResource],
        trees: Mapping[Party, DecisionTree] | Iterable[DecisionTree],
        settings_alphabets: Mapping[Party, Alphabet | Sequence[Symbol]],
        bins: Mapping[Party, Mapping[Sequence[Symbol], int]] | None = None,
        *,
        name: str = "net",
    ):
        self.name = str(name)
        self.parties = tuple(parties)
        if not self.parties:
            raise NetworkError("network needs at least one party")
        if len(set(self.parties)) != len(self.parties):
            raise NetworkError(f"duplicate parties: {self.parties}")
        self.resources = tuple(resources)
        ids = [r.id for r in self.resources]
        if len(set(ids)) != len(ids):
            raise NetworkError(f"duplicate resource ids: {ids}")
        self.resources_by_id = {r.id: r for r in self.resources}

        if not isinstance(trees, abc.Mapping):
            trees = {t.party: t for t in trees}
        self.trees = dict(trees)
        self.settings_alphabets = {}
        for p, a in dict(settings_alphabets).items():
            try:
                self.settings_alphabets[p] = Alphabet(a)
            except (TypeError, ValueError) as err:
                raise NetworkError(f"settings alphabet of {p!r}: {err}") from None
        for kind, keyed in (("trees", self.trees), ("settings alphabets", self.settings_alphabets),
                            ("bins", bins or {})):
            for p in keyed:
                if p not in self.parties:
                    raise NetworkError(f"{kind} name unknown party {p!r}")
        for p in self.parties:
            if p not in self.trees:
                raise NetworkError(f"no decision tree for party {p!r}")
            if p not in self.settings_alphabets:
                raise NetworkError(f"no settings alphabet for party {p!r}")

        for r in self.resources:
            for q in r.parties:
                if q not in self.parties:
                    raise NetworkError(
                        f"resource {r.id!r} names {q!r}, which is not a network party")

        # Scope consistency: p consults exactly the resources it shares.
        walks = {}
        for p in self.parties:
            member_of = {r.id for r in self.resources if p in r.parties}
            scope = self.trees[p].resource_scope
            if scope != member_of:
                raise NetworkError(
                    f"party {p!r}: tree scope {sorted(scope)} != shared resources "
                    f"{sorted(member_of)} (use append_unused or bottom_encode "
                    f"to cover unconsulted shares)")
            walks[p] = _tree_paths(self.trees[p], self.settings_alphabets[p], self.resources_by_id)
            if walks[p][2] is not None:
                raise NetworkError(f"tree of {p!r} invalid: {walks[p][2]}")

        self.bins: dict[Party, dict[Transcript, int]] = {}
        if bins:
            for p, mapping in bins.items():
                if not isinstance(mapping, abc.Mapping):
                    raise NetworkError(f"bins for {p!r}: expected a mapping, "
                                       f"got {type(mapping).__name__}")
                plain = _plain_keys(mapping) and set(map(type, mapping.values())) <= _INT_TYPE
                try:   # int-typed bins are taken as they are: parsing would not change them
                    self.bins[p] = (dict(mapping) if plain else
                                    {_key_tuple(k): _symbol(v) for k, v in mapping.items()})
                except (TypeError, ValueError) as err:
                    raise NetworkError(f"bins for {p!r}: {err}") from None

        # Per party: where its component of each resource in scope, in sorted-id
        # order, is in an output assignment; its outcome alphabet (bins, else labels,
        # else transcript indices); its wiring tensor; and its path table.
        self._component: dict[Party, tuple[tuple[int, int], ...]] = {}
        self._outcome_alphabets: dict[Party, Alphabet] = {}
        self._wirings: dict[Party, np.ndarray] = {}
        self._tables: dict[Party, list[int]] = {}
        res_index = {r.id: i for i, r in enumerate(self.resources)}
        for p in self.parties:
            self._component[p] = component = tuple(
                (res_index[rid], self.resources_by_id[rid].parties.index(p))
                for rid in sorted(self.trees[p].resource_scope))
            paths, shape, _ = walks[p]
            size = prod(shape[len(component):])  # of the transcript space
            party_bins = self.bins.get(p)
            if party_bins is not None:
                space = _positions(tuple(self.resources[ri].output_alphabets[k]
                                         for ri, k in component))   # shared, read only
                binned = list(map(party_bins.get, space))
                if None in binned:
                    raise NetworkError(f"bins for {p!r} not total: missing transcript "
                                       f"{list(space)[binned.index(None)]}")
                if len(party_bins) > size:
                    stray = min(set(party_bins).difference(space))
                    raise NetworkError(f"bins for {p!r}: key {stray} is not a transcript of {p!r}")
                outcomes = [binned[offset % size] for _, offset, _ in paths]
            else:
                outcomes = [offset % size if label is None else label for _, offset, label in paths]
            if not set(map(type, outcomes)) <= _INT_TYPE:   # True or 1.0 hashes like 1
                try:
                    outcomes = list(map(_symbol, outcomes))
                except ValueError as err:
                    raise NetworkError(f"terminal labels of {p!r}: {err}") from None
            self._outcome_alphabets[p] = alphabet = _outcome_alphabet(tuple(sorted(set(outcomes))))
            shape = (len(self.settings_alphabets[p]), len(alphabet), *shape)
            position, block = _positions((alphabet,)), prod(shape[2:])   # (outcome,) -> position
            self._tables[p] = table = [0] * (shape[0] * size)
            for (s, offset, _), o in zip(paths, outcomes):
                table[s * size + offset % size] = (s * shape[1] + position[(o,)]) * block + offset
            self._wirings[p] = np.bincount(table, minlength=prod(shape)).reshape(shape)

        # The contraction labels (module docstring) of each table's and each wiring's axes.
        ends = list(accumulate((2 * len(r.parties) for r in self.resources), initial=0))
        self._table_labels = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
        self._party_labels = tuple(
            (ends[-1] + 2 * i, ends[-1] + 2 * i + 1,
             *(ends[ri] + pos for ri, pos in self._component[p]),
             *((ends[ri] + ends[ri + 1]) // 2 + pos for ri, pos in self._component[p]))
            for i, p in enumerate(self.parties))

    # -- core evaluation ------------------------------------------------------

    def _path(self, p: Party, setting: Symbol,
              transcript: Transcript) -> tuple[tuple[Symbol, ...], Symbol]:
        """The inputs, in sorted-id order, and the outcome of p's path at a
        setting and transcript, read from p's path table at their row in
        ``_positions`` of p's settings and transcript alphabets.  ``KeyError``
        for a symbol outside those alphabets or a transcript of the wrong length."""
        component = self._component[p]
        outs = (self.resources[ri].output_alphabets[pos] for ri, pos in component)
        row = _positions((self.settings_alphabets[p], *outs))[(setting, *transcript)]
        # The wiring tensor's index of the path: setting, outcome, inputs, outputs.
        index = np.unravel_index(self._tables[p][row], self._wirings[p].shape)
        inputs = tuple(self.resources[ri].input_alphabets[pos][i]
                       for (ri, pos), i in zip(component, index[2:]))
        return inputs, self._outcome_alphabets[p][index[1]]

    def outcome_of(self, p: Party, setting: Symbol, transcript: Transcript) -> Symbol:
        """The party's final outcome for a transcript: the bin when one is
        supplied, else the terminal label, else the transcript's index."""
        return self._path(p, setting, transcript)[1]

    def outcome_alphabet(self, p: Party) -> Alphabet:
        return self._outcome_alphabets[p]

    def _check_settings(self, settings: Sequence[Symbol]) -> tuple[Symbol, ...]:
        try:
            settings = tuple(_symbol(s) for s in settings)
        except ValueError as err:
            raise NetworkError(f"settings: {err}") from None
        if len(settings) != len(self.parties):
            raise NetworkError(f"{len(settings)} settings for {len(self.parties)} parties")
        for p, s in zip(self.parties, settings):
            if s not in self.settings_alphabets[p]:
                raise NetworkError(f"setting {s} outside alphabet of {p!r}")
        return settings

    def settings_space(self) -> Iterable[tuple[Symbol, ...]]:
        return product(*(self.settings_alphabets[p] for p in self.parties))

    def output_assignments(self) -> Iterable[OutputAssignment]:
        return product(*(r.output_space() for r in self.resources))


def joint_probability(
    net: Network,
    settings: Sequence[Symbol],
    outputs: OutputAssignment,
) -> Fraction:
    """Probability of one complete transcript: look up every party's path
    to learn the input each resource received, then multiply the resource
    table entries.  Exact.  ``KeyError`` unless the outputs are one tuple
    per resource, of one symbol per party, in the resource's alphabets."""
    settings = net._check_settings(settings)
    try:
        shape = [len(o) for o in outputs]
    except TypeError:   # outputs, or one of its entries, has no length
        shape = None
    if shape != [len(r.parties) for r in net.resources]:
        raise KeyError(f"output assignment {outputs} does not have the shape of the resources")
    inputs_by_resource = [[0] * len(r.parties) for r in net.resources]
    for p, s in zip(net.parties, settings):
        inputs, _ = net._path(p, s, tuple(outputs[ri][pos] for ri, pos in net._component[p]))
        for (ri, pos), x in zip(net._component[p], inputs):
            inputs_by_resource[ri][pos] = x
    prob = Fraction(1)
    for ri, r in enumerate(net.resources):
        prob *= r.prob(inputs_by_resource[ri], outputs[ri])
        if prob == 0:
            return prob
    return prob


class _Plan(NamedTuple):
    """How ``_contract`` contracts operands of given labels and shapes:
    each operand's shape without its size-one axes; the pair steps, each
    ``(i, j, (a, b, shape, axes))``, which remove operands i < j from the
    list and append the ``np.matmul`` of operand i by recipe ``a`` and
    operand j by recipe ``b``, reshaped to ``shape`` and transposed by
    ``axes``; the recipe that takes the one operand left to the output;
    the most elements any step's result holds; and the product of the
    sizes of the labels summed out."""

    shapes: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[int, int, tuple], ...]
    final: tuple
    largest: int
    summed: int


def _recipe(labels: tuple[int, ...], groups: Sequence[Sequence[int]],
            sizes: Mapping[int, int]) -> tuple:
    """How ``_apply`` gives an operand with these ``labels`` one axis per
    group of labels: the axes of labels in no group, summed out (left at
    size one, last); the transpose to group order; the shape."""
    order = [l for group in groups for l in group]
    summed = tuple(k for k, l in enumerate(labels) if l not in order)
    return (summed, tuple(map(labels.index, order)) + summed,
            tuple(prod(sizes[l] for l in group) for group in groups))


def _apply(arr: np.ndarray, summed: tuple[int, ...], axes: tuple[int, ...],
           shape: tuple[int, ...]) -> np.ndarray:
    if summed:
        arr = arr.sum(summed, keepdims=True)
    return arr.transpose(axes).reshape(shape)


@lru_cache(maxsize=1024)
def _plan(patterns: tuple[tuple[int, ...], ...], shapes: tuple[tuple[int, ...], ...],
          output: tuple[int, ...]) -> _Plan:
    """The contraction of operands with these labels (one int per axis; an
    int shared by several operands is one index) and shapes to the
    ``output`` labels, cached per labels and shapes, not per name or dtype;
    see ``_contract``.  Axes of size one are dropped first.  Operands are
    then contracted two at a time, greedily as in ``np.einsum_path``'s
    "greedy" order: among the pairs that share a label, the one whose
    result is smallest relative to its inputs, the first such pair on
    ties.  Each step is one batched matrix product, (batch, rows, inner)
    by (batch, inner, cols): the batch is the shared labels the step
    keeps, the inner axis those it sums out, and labels one operand holds
    alone are its rows or columns if kept, else summed out first."""
    sizes = {l: n for labels, shape in zip(patterns, shapes) for l, n in zip(labels, shape)}
    ops = [tuple(l for l in labels if sizes[l] > 1) for labels in patterns]
    reshapes = tuple(tuple(sizes[l] for l in labels) for labels in ops)
    out = tuple(l for l in output if sizes[l] > 1)
    steps = []
    largest = prod(sizes[l] for l in out)
    while len(ops) > 1:
        uses = Counter(out)
        for labels in ops:
            uses.update(labels)
        pairs = list(combinations(range(len(ops)), 2))
        pairs = [(i, j) for i, j in pairs if not set(ops[i]).isdisjoint(ops[j])] or pairs
        best = None
        for i, j in pairs:
            la, lb = ops[i], ops[j]
            kept = tuple(l for l in dict.fromkeys(la + lb)
                         if uses[l] > (l in la) + (l in lb))
            size = prod(sizes[l] for l in kept)
            cost = size - prod(sizes[l] for l in la) - prod(sizes[l] for l in lb)
            if best is None or cost < best[0]:
                best = cost, i, j, kept, size
        _, i, j, kept, size = best
        la, lb = ops[i], ops[j]
        batch = [l for l in kept if l in la and l in lb]
        rows = [l for l in kept if l not in lb]
        cols = [l for l in kept if l not in la]
        inner = [l for l in la if l in lb and l not in kept]
        product_labels = batch + rows + cols
        steps.append((i, j, (_recipe(la, (batch, rows, inner), sizes),
                             _recipe(lb, (batch, inner, cols), sizes),
                             tuple(sizes[l] for l in product_labels),
                             tuple(map(product_labels.index, kept)))))
        largest = max(largest, size)
        ops = [labels for k, labels in enumerate(ops) if k not in (i, j)] + [kept]
    final = _recipe(ops[0], [(l,) if l in out else () for l in output], sizes)
    return _Plan(reshapes, tuple(steps), final, largest,
                 prod(n for l, n in sizes.items() if l not in output))


def _contract(arrays: Sequence[np.ndarray], plan: _Plan) -> np.ndarray:
    """Replay ``plan``'s steps on ``arrays``, the operands it was made for,
    in their order: each step as sums, transposes and reshapes around one
    ``np.matmul``, then the last operand summed over its leftover labels
    and transposed to the output."""
    arrays = [arr.reshape(shape) for arr, shape in zip(arrays, plan.shapes)]
    for i, j, (a, b, shape, axes) in plan.steps:
        right, left = arrays.pop(j), arrays.pop(i)
        arrays.append(np.matmul(_apply(left, *a), _apply(right, *b))
                      .reshape(shape).transpose(axes))
    return _apply(arrays[0], *plan.final)


def _contract_network(
    net: Network,
    wirings: Sequence[np.ndarray],
    labels: Sequence[tuple[int, ...]],
    output: Sequence[int],
) -> _Tensor:
    """Sum over every label not in ``output`` of the product of all
    resource tables and the given wiring tensors, whose axes have the
    network's ``labels``: exact integer numerators with one axis per
    ``output`` label, over the product of the tables' denominators.

    No entry of any intermediate exceeds the product of the denominators
    times the plan's product of the summed labels' sizes; the int64
    operands are contracted as they are when that bound is below 2**63,
    as exact Python ints otherwise.
    """
    arrays = [r.numerators for r in net.resources] + list(wirings)
    plan = _plan(net._table_labels + tuple(labels), tuple(arr.shape for arr in arrays),
                 tuple(output))
    den = prod(r.denominator for r in net.resources)
    if den * plan.summed >= _INT64:
        arrays = [arr.astype(object, copy=False) for arr in arrays]
    return _Tensor(_contract(arrays, plan), den)


def _refuse_unchecked(net: Network) -> None:
    unchecked = [r.id for r in net.resources if not r.nonsignaling_checked]
    if unchecked:
        raise NetworkError(
            f"resources {unchecked} are not verified nonsignaling; pass "
            f"allow_unnormalized=True to evaluate anyway")


def _unnormalized(settings: tuple[Symbol, ...], total: Fraction) -> NetworkError:
    return NetworkError(f"transcript distribution at settings {settings} sums to {total}, "
                        "not 1 — the wiring is inconsistent")


def joint_distribution(
    net: Network,
    settings: Sequence[Symbol],
    *,
    allow_unnormalized: bool = False,
) -> JointDistribution:
    """Full transcript distribution at one settings tuple: the network's
    contraction with the settings fixed, every resource output kept and
    the outcomes summed out.

    Verifies the total is exactly 1.  Networks containing a resource that
    has not passed the nonsignaling check are refused unless
    ``allow_unnormalized`` is set, in which case the total is reported in
    the result instead of asserted — the mode for exhibiting paradoxical
    wirings, whose "distributions" can sum to something else.
    """
    settings = net._check_settings(settings)
    if not allow_unnormalized:
        _refuse_unchecked(net)
    wirings = [net._wirings[p][net.settings_alphabets[p].index(s)].sum(axis=0)
               for p, s in zip(net.parties, settings)]
    output = [l for labels in net._table_labels for l in labels[len(labels) // 2:]]
    nums, den = _contract_network(net, wirings, [l[2:] for l in net._party_labels], output)
    nums = nums.reshape(-1).tolist()
    total = sum(nums)
    if not allow_unnormalized and total != den:
        raise _unnormalized(settings, Fraction(total, den))
    zero = Fraction(0)
    table = {outputs: Fraction(v, den) if v else zero
             for outputs, v in zip(net.output_assignments(), nums)}
    return JointDistribution(settings=settings, table=table, total=Fraction(total, den))


def induced_behavior(net: Network) -> Behavior:
    """The network as seen from outside: settings in, binned outcomes out.

    One contraction keeps every party's setting and outcome open, in the
    layout it leaves (not copied).  The result is constructed as a full
    resource over the parties, whose structural check asserts that each
    settings tuple's column sums to exactly 1 (its first fault, in settings
    order, is raised as a ``NetworkError``) and whose nonsignaling scan runs
    — so wired nonsignaling resources are checked, not trusted.
    """
    _refuse_unchecked(net)
    labels = net._party_labels
    behavior = _contract_network(net, [net._wirings[p] for p in net.parties], labels,
                                 [l[0] for l in labels] + [l[1] for l in labels])
    try:
        return NonsignalingResource.make(
            f"behavior({net.name})", net.parties,
            [net.settings_alphabets[p] for p in net.parties],
            [net.outcome_alphabet(p) for p in net.parties], behavior)
    except TableError as err:   # entries are >= 0: one above 1 puts its column's sum above 1,
        fault = err.fault         # and a column's sum is reported before its entries
    raise _unnormalized(fault.inputs, fault.value)


def marginal_without_party(net: Network, p: Party) -> Behavior:
    """Behavior of the other parties, computed two independent ways and
    compared exactly:

    (a) marginalize the full induced behavior over party p;
    (b) delete p from the network itself — resources p shared are replaced
        by their marginals (same ids, so other trees are untouched),
        resources only p held vanish — and induce the behavior of the
        reduced network.

    Route (b) reconnects the remaining parties to physically smaller
    devices; agreement with route (a) is the statement that removing a
    party cannot disturb the rest.  A mismatch raises.
    """
    if p not in net.parties:
        raise NetworkError(f"no party {p!r} in network")
    rest = [q for q in net.parties if q != p]
    if not rest:
        raise NetworkError("cannot marginalize the only party away")

    via_behavior = resource_marginal(induced_behavior(net), rest)

    reduced_resources = []
    for r in net.resources:
        if p not in r.parties:
            reduced_resources.append(r)
            continue
        others = [q for q in r.parties if q != p]
        if others:
            reduced_resources.append(resource_marginal(r, others, id=r.id))
    reduced = Network(
        parties=rest,
        resources=reduced_resources,
        trees={q: net.trees[q] for q in rest},
        settings_alphabets={q: net.settings_alphabets[q] for q in rest},
        bins={q: net.bins[q] for q in rest if q in net.bins},
        name=f"{net.name}-minus-{p}",
    )
    via_network = induced_behavior(reduced)

    if not via_behavior.same_table(via_network):
        raise NetworkError(
            f"marginal over {p!r} differs between direct marginalization and "
            f"the reduced network — nonsignaling consistency is broken")
    return via_behavior


def union_network(a: Network, b: Network, *, name: str | None = None) -> Network:
    """Side-by-side composition of two networks sharing nothing."""
    overlap_p = set(a.parties) & set(b.parties)
    if overlap_p:
        raise NetworkError(f"parties appear in both networks: {sorted(overlap_p)}")
    overlap_r = set(a.resources_by_id) & set(b.resources_by_id)
    if overlap_r:
        raise NetworkError(f"resource ids appear in both networks: {sorted(overlap_r)}")
    return Network(
        parties=a.parties + b.parties,
        resources=a.resources + b.resources,
        trees={**a.trees, **b.trees},
        settings_alphabets={**a.settings_alphabets, **b.settings_alphabets},
        bins={**a.bins, **b.bins},
        name=name or f"{a.name}+{b.name}",
    )


def check_disjoint_factorization(net_a: Network, net_b: Network) -> ValidationReport:
    """Two networks with no common party or resource, run side by side,
    must produce the product of their separate behaviors — exactly, entry
    by entry."""
    union = union_network(net_a, net_b)
    whole = induced_behavior(union)
    part_a = induced_behavior(net_a)
    part_b = induced_behavior(net_b)
    na, nb = len(net_a.parties), len(net_b.parties)
    # In integers: whole[xa, xb, aa, ab] / dw == a[xa, aa] * b[xb, ab] / dp;
    # the outer product has axes [xa, aa, xb, ab].
    dw, dp = whole.denominator, part_a.denominator * part_b.denominator
    outer = np.multiply.outer(part_a.numerators.astype(object), part_b.numerators.astype(object))
    outer = outer.transpose([*range(na), *range(2 * na, 2 * na + nb),
                             *range(na, 2 * na), *range(2 * na + nb, 2 * (na + nb))])
    bad = np.flatnonzero(whole.numerators.astype(object) * dp != outer * dw)
    if bad.size:
        pos = np.unravel_index(bad[0], outer.shape)
        x, outcome = whole._symbols_at(pos)
        return ValidationReport.fail([
            f"joint {Fraction(int(whole.numerators[pos]), dw)} != product "
            f"{Fraction(int(outer[pos]), dp)} at settings {x}, outcomes {outcome}"])
    return ValidationReport.ok()


def freeze_outcomes(net: Network, p: Party) -> DecisionTree:
    """Rewrite party p's tree with every terminal explicitly labeled by the
    outcome the network currently assigns it (bin value, existing label,
    or default transcript index).

    Useful before surgery that changes the transcript space or its order —
    appending resources, opt-out re-encoding, renaming resources — since
    explicit labels survive those operations while bins and index-based
    default labeling, both read in sorted-resource-id order, do not.
    """
    if p not in net.parties:
        raise NetworkError(f"no party {p!r} in network")
    rids = sorted(net.trees[p].resource_scope)
    return _rewrite(net.trees[p], rids, party=p, terminal=lambda _, setting, seen: Terminal(
        net.outcome_of(p, setting, tuple(seen[rid] for rid in rids))))


def relabel_network(
    net: Network,
    party_map: Mapping[Party, Party] | None = None,
    resource_map: Mapping[str, str] | None = None,
    *,
    name: str | None = None,
) -> Network:
    """Structural clone under renamed parties and/or resource ids; the
    tables are bit-identical.  Each party's outcomes are first written into
    its terminals (`freeze_outcomes`) and the tree is then renamed, so the
    clone has no bins and no outcome hangs on the order the new ids sort
    in.  Replicating a network and checking the clone induces the identical
    behavior (modulo names) is the executable form of device replicability."""
    pm = dict(party_map or {})
    rm = dict(resource_map or {})

    def rp(p: Party) -> Party:
        return pm.get(p, p)

    def rr(rid: str) -> str:
        return rm.get(rid, rid)

    for arg, rename, names in (("party_map", rp, net.parties),
                               ("resource_map", rr, net.resources_by_id)):
        first: dict[str, str] = {}  # new name -> the first old name sent to it
        for n in names:
            if (old := first.setdefault(rename(n), n)) != n:
                raise NetworkError(f"{arg} sends {old!r} and {n!r} both to {rename(n)!r}")

    resources = []
    for r in net.resources:
        ctor = (NonsignalingResource.make if r.nonsignaling_checked
                else NonsignalingResource.new_unchecked)
        resources.append(ctor(rr(r.id), [rp(q) for q in r.parties], r.input_alphabets,
                              r.output_alphabets, _Tensor(r.numerators, r.denominator)))

    return Network(
        parties=[rp(q) for q in net.parties],
        resources=resources,
        trees={rp(q): _rewrite(freeze_outcomes(net, q), map(rr, net.trees[q].resource_scope),
                               rename=rr, party=rp(q)) for q in net.parties},
        settings_alphabets={rp(q): a for q, a in net.settings_alphabets.items()},
        name=name or f"{net.name}-clone",
    )
