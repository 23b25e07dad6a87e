"""Convex structure: vertex enumeration, polytope membership, and rewriting
networks into mixtures of simpler ones.

Membership questions ("is this box a mixture of these vertices?") all go
through ``_hull``: one call of the exact solver ``solve_columns``, then
each guard once.  Every positive answer comes with weights that are
checked to rebuild the box entry by entry, and every negative answer with
a separating linear functional — a Bell-type expression scoring the box
strictly above everything in the hull — checked against every vertex in
one pricing pass.  Both read the vertices as ``linprog.Columns``:
``decompose_extremal`` gives each vertex's integer numerators over the
vertices' common denominator; ``decompose_local`` and ``is_local`` give
each local deterministic vertex, never built, as the rows where it holds
a 1.  The three network rewrites (pulling shared randomness out in
front, replacing resources by their extremal components, cutting out
deterministic resources) end in one exact behavior assertion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm, prod
from typing import Mapping, Sequence

import numpy as np

from boxnet.linprog import Columns, Feasible, column_sum, integers, solve_columns
from boxnet.network import Network, freeze_outcomes, induced_behavior
from boxnet.resource import (
    Alphabet,
    CapSettingError,
    NonsignalingResource,
    Party,
    Symbol,
    _align,
    _Tensor,
    make_pr_box,
)
from boxnet.wiring import DecisionTree, _rewrite

VERTEX_CAP_ENV = "NONSIG_VERTEX_CAP"
DEFAULT_VERTEX_CAP = 10**6


@dataclass
class Mixture:
    """Convex combination: positive exact weights summing to one."""

    components: list[tuple[Fraction, object]]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty mixture")
        for w, _ in self.components:
            if not (isinstance(w, Fraction) and w > 0):
                raise ValueError(f"weight {w!r} must be a positive Fraction")
        total = sum(w for w, _ in self.components)
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


@dataclass
class VertexSet:
    """Extreme points of a polytope of same-signature resources, each
    tagged with where it came from ('deterministic' or 'pr-class')."""

    vertices: list[NonsignalingResource]
    provenance: list[str]

    def __post_init__(self):
        if len(self.vertices) != len(self.provenance):
            raise ValueError("one provenance tag per vertex")
        if not self.vertices:
            raise ValueError("empty vertex set")
        first = self.vertices[0]
        for v in self.vertices[1:]:
            if not v.same_signature(first):
                raise ValueError(f"vertex {v.id!r} has a different signature")

    def check_distinct(self) -> None:
        for i, v in enumerate(self.vertices):
            for w in self.vertices[i + 1:]:
                if v.same_table(w):
                    raise ValueError(f"vertices {v.id!r} and {w.id!r} have equal tables")

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def columns(self) -> Columns:
        """``decompose_extremal``'s LP columns, built once: column j is vertex
        j's numerators over the common denominator, then normalization."""
        den = lcm(*(v.denominator for v in self.vertices))
        values = np.array([[*(v.numerators.ravel().astype(object) * (den // v.denominator)), den]
                           for v in self.vertices], dtype=object)
        rows = np.broadcast_to(np.arange(values.shape[1]), values.shape)
        return Columns(rows, values, den)


@dataclass
class Infeasible:
    """Separating functional: G(Q) = sum coefficients[(x, a)] * Q(a|x)
    satisfies G(vertex) <= threshold for every vertex in the set that was
    tested, while G(target) = value > threshold."""

    coefficients: dict[tuple[tuple[Symbol, ...], tuple[Symbol, ...]], Fraction]
    threshold: Fraction
    value: Fraction

    def __bool__(self) -> bool:
        return False

    def evaluate(self, q: NonsignalingResource) -> Fraction:
        return sum(c * q.prob(x, a) for (x, a), c in self.coefficients.items())


@dataclass
class LocalityResult:
    local: bool
    mixture: Mixture | None = None
    certificate: Infeasible | None = None

    def __bool__(self) -> bool:
        return self.local


def _vertex_cap() -> int:
    """The cap from its variable: ASCII digits only, as symbols are spelled."""
    raw = os.environ.get(VERTEX_CAP_ENV)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    if not (raw.isascii() and raw.isdigit()):
        raise CapSettingError(f"{VERTEX_CAP_ENV}={raw!r} is not a non-negative integer")
    return int(raw)


def _refuse_past_cap(in_alphas: Sequence[Alphabet], out_alphas: Sequence[Alphabet]) -> None:
    """Refuse a signature with more deterministic vertices than the cap
    (env NONSIG_VERTEX_CAP, default 10^6), read afresh on every call."""
    count = prod(len(o) ** len(i) for i, o in zip(in_alphas, out_alphas))
    cap = _vertex_cap()
    if count > cap:
        raise ValueError(
            f"{count} deterministic vertices exceed the cap {cap} "
            f"(raise {VERTEX_CAP_ENV} to override)")


def _deterministic_hits(in_alphas: Sequence[Alphabet],
                       out_alphas: Sequence[Alphabet]) -> np.ndarray:
    """hit[j, x]: the flat entry (C order of the numerator tensor) where the
    deterministic vertex j puts its 1 in input column x.  Vertex j is the
    j-th choice of per-party functions input -> output in product order,
    each party's functions in product order of the outputs chosen for its
    inputs.  Callers refuse past the cap first (``_refuse_past_cap``)."""
    ins = [len(a) for a in in_alphas]
    outs = [len(a) for a in out_alphas]
    # Axes [f_1..f_n, x_1..x_n]: party p's function f_p adds its output at
    # x_p times the output stride of p; input tuple x adds x times the
    # size of an input column.
    n = len(ins)
    n_outputs = int(np.prod(outs))
    hit = (np.arange(int(np.prod(ins))) * n_outputs).reshape([1] * n + ins)
    stride = n_outputs
    for p, (i, o) in enumerate(zip(ins, outs)):
        stride //= o
        functions = np.array(list(product(range(o), repeat=i)), dtype=np.int64)
        shape = [1] * (2 * n)
        shape[p], shape[n + p] = o ** i, i
        hit = hit + (functions * stride).reshape(shape)
    return hit.reshape(-1, int(np.prod(ins)))


def _deterministic_vertex(j: int, hit: np.ndarray, parties: Sequence[Party],
                          in_alphas: Sequence[Alphabet],
                          out_alphas: Sequence[Alphabet]) -> NonsignalingResource:
    """The checked resource ``det{j}`` of the vertex j of ``hit``."""
    shape = [len(a) for a in (*in_alphas, *out_alphas)]
    nums = np.zeros(int(np.prod(shape)), dtype=np.int64)
    nums[hit[j]] = 1
    return NonsignalingResource.make(f"det{j}", parties, in_alphas, out_alphas,
                                     _Tensor(nums.reshape(shape), 1))


def local_deterministic_vertices(
    parties: Sequence[Party],
    input_alphabets: Sequence[Alphabet],
    output_alphabets: Sequence[Alphabet],
) -> VertexSet:
    """Every assignment of a per-party function input -> output; these are
    the extreme points of the local polytope for the signature.  Refuses
    to enumerate past the cap (env NONSIG_VERTEX_CAP, default 10^6)."""
    parties = tuple(parties)
    in_alphas = _align(parties, input_alphabets)
    out_alphas = _align(parties, output_alphabets)
    _refuse_past_cap(in_alphas, out_alphas)
    hit = _deterministic_hits(in_alphas, out_alphas)
    return VertexSet([_deterministic_vertex(j, hit, parties, in_alphas, out_alphas)
                      for j in range(len(hit))], ["deterministic"] * len(hit))


@lru_cache(maxsize=1)
def ns_vertices_222() -> VertexSet:
    """The 24 extreme points of the bipartite binary nonsignaling polytope:
    16 deterministic vertices plus the 8 PR-class boxes.  Each PR-class
    member is certified extremal on first construction by LP
    non-membership in the hull of the other 23."""
    bits = Alphabet((0, 1))
    det = local_deterministic_vertices(("A", "B"), [bits, bits], [bits, bits])
    pr = [make_pr_box(alpha=a, beta=b, gamma=g)
          for a, b, g in product((0, 1), repeat=3)]
    vs = VertexSet(det.vertices + pr,
                   det.provenance + ["pr-class"] * len(pr))
    vs.check_distinct()
    for i in range(len(det.vertices), len(vs.vertices)):
        target = vs.vertices[i]
        others = VertexSet([v for j, v in enumerate(vs.vertices) if j != i],
                           ["x"] * (len(vs.vertices) - 1))
        if not isinstance(decompose_extremal(target, others), Infeasible):
            raise AssertionError(f"{target.id} is not extremal — vertex set is wrong")
    return vs


def decompose_extremal(
    r: NonsignalingResource,
    vs: VertexSet,
) -> Mixture | Infeasible:
    """Express r as an exact convex combination of the vertices, or prove
    none exists: the hull question of ``_hull`` over the vertices' dense
    table columns.  (Weights are whatever basic solution the pivot rule
    reaches first — decompositions are generally non-unique.)  An extreme
    vertex of the set is the LP's only solution for itself, at weight 1; a
    set that also lists non-extreme or repeated points may decompose one of
    its own points into others, still exactly and checked.
    """
    first = vs.vertices[0]
    if not r.same_signature(first):
        raise ValueError(
            f"signature mismatch: {r.id!r} vs vertex set over "
            f"{len(first.parties)} parties")
    return _hull(r, vs.columns, vs.vertices.__getitem__)


def _hull(r: NonsignalingResource, columns, vertex) -> Mixture | Infeasible:
    """Is r in the hull of the vertices of ``columns``?

    Column j is vertex j's entries in C order of its numerator tensor
    (input_space() x output_space() order) and a 1 for normalization, all
    times ``columns.scale``; ``vertex(j)`` builds vertex j.  One LP, whose
    answer is checked once: a feasible basic solution must rebuild r entry
    by entry; a Farkas certificate y is priced against every column in one
    pass (the first j with y . A_j > 0 is the first vertex its functional
    fails on), then must separate r.
    """
    k, nums = columns.scale, r.numerators.ravel().astype(object)
    res = solve_columns(columns, [Fraction(k * v, r.denominator) for v in nums] + [k])
    if isinstance(res, Feasible):
        # Every entry in integers: sum_j w_j * column j / k == r.
        got, den = column_sum(columns, res.solution, nums.size + 1)
        bad = np.flatnonzero(got[:-1] * r.denominator != nums * den)
        if bad.size:
            i = bad[0]
            x, a = _entry_keys(r)[i]
            raise AssertionError(
                f"reconstruction mismatch at {x},{a}: "
                f"{Fraction(got[i], den)} != {Fraction(nums[i], r.denominator)}")
        return Mixture([(w, vertex(j)) for j, w in enumerate(res.solution) if w > 0])

    # G(q) = sum y_i q_i <= -y[-1] on every vertex, with y = ys / den.
    y = res.certificate
    ys, den = integers(y)
    fails = columns.price(ys)
    if fails is not None:
        raise AssertionError(f"certificate fails on vertex {vertex(fails).id!r}")
    coeffs = {key: yi for key, yi in zip(_entry_keys(r), y[:-1]) if yi != 0}
    cert = Infeasible(coefficients=coeffs, threshold=-y[-1],
                      value=Fraction(ys[:-1] @ nums, den * r.denominator))
    if not cert.value > cert.threshold:
        raise AssertionError("certificate does not separate the target")
    return cert


def _entry_keys(q: NonsignalingResource) -> list[tuple[tuple[Symbol, ...], tuple[Symbol, ...]]]:
    """The (input tuple, output tuple) of each entry, in C order."""
    return list(product(q.input_space(), q.output_space()))


@lru_cache(maxsize=4)
def _local_polytope(parties: tuple[Party, ...], in_alphas: tuple[Alphabet, ...],
                    out_alphas: tuple[Alphabet, ...]):
    """The local polytope of one signature as ``decompose_local`` reads it,
    built once: its LP columns (column j: a 1 at each entry of hit[j] and
    at the normalization row) and ``vertex(j)``, which builds and checks
    vertex j on first use and then returns that same resource."""
    hit = _deterministic_hits(in_alphas, out_alphas)
    rows = np.column_stack([hit, np.full(len(hit), hit.shape[1] * prod(map(len, out_alphas)))])
    hit, built = rows[:, :-1], {}  # the hit rows kept only inside the columns' rows

    def vertex(j):
        if j not in built:
            built[j] = _deterministic_vertex(j, hit, parties, in_alphas, out_alphas)
        return built[j]

    return Columns(rows, np.broadcast_to(np.int64(1), rows.shape)), vertex


def decompose_local(r: NonsignalingResource) -> Mixture | Infeasible:
    """``decompose_extremal`` over ``local_deterministic_vertices``, with the
    same answer, for any table r, nonsignaling or not, deterministic or not.
    The vertices are LP columns read from their ``hit`` rows: only those
    with positive weight are built as resources.  Columns and vertices
    come from ``_local_polytope``, which keeps the last 4 signatures; the
    vertex cap is enforced on every call, before the lookup."""
    _refuse_past_cap(r.input_alphabets, r.output_alphabets)
    return _hull(r, *_local_polytope(r.parties, r.input_alphabets, r.output_alphabets))


def is_local(r: NonsignalingResource) -> LocalityResult:
    """Membership of a nonsignaling r in the local polytope of its
    signature, by ``decompose_local``.  False comes with a Bell-type
    functional scoring r strictly above every deterministic vertex."""
    r.require_nonsignaling("is_local")
    res = decompose_local(r)
    if isinstance(res, Mixture):
        return LocalityResult(True, mixture=res)
    return LocalityResult(False, certificate=res)


# -- network-level rewriting -------------------------------------------------------


def _behavior_support(beh: NonsignalingResource) -> dict:
    """The nonzero entries, (input symbols, output symbols) -> Fraction:
    keyed by symbol, behaviors whose outcome alphabets differ (excision
    drops unreachable labels) still compare and add."""
    hit = np.nonzero(beh.numerators)
    return {beh._symbols_at(pos): Fraction(v, beh.denominator)
            for pos, v in zip(np.transpose(hit).tolist(), beh.numerators[hit].tolist())}


def _assert_mixture_matches(net: Network, mix: Mixture) -> None:
    target = _behavior_support(induced_behavior(net))
    got: dict = {}
    for w, comp in mix:
        for key, v in _behavior_support(induced_behavior(comp)).items():
            got[key] = got.get(key, 0) + w * v
    if got != target:
        raise AssertionError("mixture behavior differs from the original network")


def _excised(net: Network, frozen: Mapping[Party, DecisionTree],
             observed: Mapping[str, Mapping[Party, Symbol | Mapping[Symbol, Symbol]]],
             name: str) -> Network:
    """``net`` without bins and without each resource in ``observed``, cut
    out of every member's tree in ``frozen`` (``net``'s trees with outcomes
    in terminal labels, which survive the surgery) given that member's
    observed output: a symbol, or a map input -> output.  Each tree is
    copied once, every one of its observed resources cut in that walk."""
    trees = {}
    for p in net.parties:
        cut = {rid: outputs[p] for rid, outputs in observed.items() if p in outputs}
        trees[p] = _rewrite(frozen[p], frozen[p].resource_scope - cut.keys(), cut=cut)
    return Network(parties=net.parties,
                   resources=[r for r in net.resources if r.id not in observed],
                   trees=trees, settings_alphabets=net.settings_alphabets, name=name)


def factor_out_shared_randomness(net: Network) -> Mixture:
    """Pull every input-free resource out in front: the network equals a
    mixture, over the joint sample of all its shared randomness, of
    networks with that randomness excised from every tree.

    Returns a Mixture of Networks (weights = joint sample probabilities,
    zero-probability samples pruned) and asserts exact behavior equality
    before returning.  A network with no input-free resources comes back
    as a singleton mixture.
    """
    free = [r for r in net.resources if r.is_input_free()]
    if not free:
        return Mixture([(Fraction(1), net)])

    frozen = {p: freeze_outcomes(net, p) for p in net.parties}
    inputs = [tuple(x.first for x in r.input_alphabets) for r in free]  # each one's only input
    components = []
    for sample in product(*(list(r.output_space()) for r in free)):
        weight = prod(map(NonsignalingResource.prob, free, inputs, sample), start=Fraction(1))
        if weight == 0:
            continue
        observed = {r.id: dict(zip(r.parties, a)) for r, a in zip(free, sample)}
        label = ",".join(f"{r.id}={''.join(map(str, a))}" for r, a in zip(free, sample))
        components.append((weight, _excised(net, frozen, observed, f"{net.name}|{label}")))
    mix = Mixture(components)
    _assert_mixture_matches(net, mix)
    return mix


def expand_to_extremal_mixture(
    net: Network,
    vertex_sets: Mapping[str, VertexSet],
) -> Mixture:
    """Replace each resource by the components of its extremal
    decomposition, in every combination: the network becomes an exact
    mixture of networks whose listed resources are all polytope vertices.

    ``vertex_sets`` maps resource ids to the vertex set to decompose that
    resource over; resources without an entry are kept as they are.  Any
    supplied decomposition that turns out infeasible raises with the
    separating functional attached.  Exact behavior preservation is
    asserted before returning.
    """
    per_resource: list[list[tuple[Fraction, NonsignalingResource]]] = []
    for r in net.resources:
        if r.id not in vertex_sets:
            per_resource.append([(Fraction(1), r)])
            continue
        res = decompose_extremal(r, vertex_sets[r.id])
        if isinstance(res, Infeasible):
            raise ValueError(
                f"resource {r.id!r} is outside the hull of its vertex set "
                f"(separated by a functional with gap "
                f"{res.value - res.threshold})") from None
        per_resource.append([
            (w, NonsignalingResource.make(r.id, r.parties, v.input_alphabets, v.output_alphabets,
                                          _Tensor(v.numerators, v.denominator)))
            for w, v in res
        ])

    components = []
    for combo in product(*per_resource):
        components.append((prod((w for w, _ in combo), start=Fraction(1)), Network(
            parties=net.parties,
            resources=[v for _, v in combo],
            trees=net.trees,
            settings_alphabets=net.settings_alphabets,
            bins=net.bins or None,
            name=f"{net.name}!",
        )))
    mix = Mixture(components)
    _assert_mixture_matches(net, mix)
    return mix


def _deterministic_functions(r: NonsignalingResource) -> dict[Party, dict[Symbol, Symbol]] | None:
    """For a resource whose every column is a point mass (exactly the
    tables with denominator 1), the per-party functions input -> output
    (a nonsignaling deterministic table is always such a product).  None
    if the table is not deterministic."""
    if r.denominator != 1:
        return None
    fns: dict[Party, dict[Symbol, Symbol]] = {p: {} for p in r.parties}
    for hit in np.argwhere(r.numerators).tolist():
        for p, x, out in zip(r.parties, *r._symbols_at(hit)):
            if fns[p].setdefault(x, out) != out:
                # Output depends on someone else's input: signaling table.
                return None
    return fns


def excise_local_deterministic(net: Network) -> Network:
    """Remove every deterministic resource from the network entirely,
    rewriting each member party's tree with the resource's known
    input -> output function.  Outcomes are frozen into terminal labels
    first, so the induced behavior is preserved exactly on its support
    (asserted).  Outcome symbols that could only be produced along
    now-unreachable branches carried probability zero before the cut;
    they drop out of the outcome alphabets."""
    fns_by_resource = {}
    for r in net.resources:
        fns = _deterministic_functions(r)
        if fns is not None:
            fns_by_resource[r.id] = fns
    if not fns_by_resource:
        return net

    out = _excised(net, {p: freeze_outcomes(net, p) for p in net.parties}, fns_by_resource,
                   f"{net.name}-excised")
    _assert_mixture_matches(net, Mixture([(Fraction(1), out)]))
    return out
