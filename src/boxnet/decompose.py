"""Convex structure: vertex enumeration, polytope membership, and rewriting
networks into mixtures of simpler ones.

Membership questions ("is this box a mixture of these vertices?") are
answered by the exact feasibility solver, so every positive answer comes
with reconstructing weights and every negative answer with a separating
linear functional — a Bell-type expression scoring the box strictly above
everything in the hull.  The two network-level operations (pulling shared
randomness out in front, replacing resources by their extremal components)
both return mixtures of networks and verify exact behavior preservation
before returning.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from boxnet.linprog import FarkasInfeasible, Feasible, solve_feasibility
from boxnet.network import Network, freeze_outcomes, induced_behavior
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    Party,
    Symbol,
    _align,
    _Tensor,
    make_local_deterministic,
    make_pr_box,
    validate_nonsignaling,
)
from boxnet.wiring import excise_input_free

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
    return int(os.environ.get(VERTEX_CAP_ENV, DEFAULT_VERTEX_CAP))


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
    count = 1
    for a_in, a_out in zip(in_alphas, out_alphas):
        count *= len(a_out) ** len(a_in)
    cap = _vertex_cap()
    if count > cap:
        raise ValueError(
            f"{count} deterministic vertices exceed the cap {cap} "
            f"(raise {VERTEX_CAP_ENV} to override)")

    per_party_functions = [
        [dict(zip(a_in.values, choice))
         for choice in product(a_out.values, repeat=len(a_in))]
        for a_in, a_out in zip(in_alphas, out_alphas)
    ]
    vertices = []
    for i, combo in enumerate(product(*per_party_functions)):
        vertices.append(make_local_deterministic(
            parties, in_alphas, out_alphas,
            {p: combo[j] for j, p in enumerate(parties)}, id=f"det{i}"))
    assert len(vertices) == count
    return VertexSet(vertices, ["deterministic"] * count)


@cache
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
    none exists.

    Feasibility system: one equality row per (input tuple, output tuple)
    entry plus normalization, columns indexed by vertices.  A feasible
    basic solution is pruned of zero weights and re-checked entry by
    entry; an infeasible outcome is converted into the separating
    functional read off the Farkas certificate, re-checked against every
    vertex.  (Weights are whatever basic solution the pivot rule reaches
    first — decompositions are generally non-unique.)
    """
    first = vs.vertices[0]
    if not r.same_signature(first):
        raise ValueError(
            f"signature mismatch: {r.id!r} vs vertex set over "
            f"{len(first.parties)} parties")
    for v in vs.vertices:
        if r.same_table(v):
            return Mixture([(Fraction(1), v)])

    row_keys = [(x, a) for x in r.input_space() for a in r.output_space()]
    rows = [[v.table[x][a] for v in vs.vertices] for (x, a) in row_keys]
    rhs = [r.table[x][a] for (x, a) in row_keys]
    rows.append([Fraction(1)] * len(vs.vertices))
    rhs.append(Fraction(1))

    res = solve_feasibility(rows, rhs)
    if isinstance(res, Feasible):
        components = [(w, v) for w, v in zip(res.solution, vs.vertices) if w > 0]
        for x, a in row_keys:
            got = sum(w * v.table[x][a] for w, v in components)
            if got != r.table[x][a]:
                raise AssertionError(
                    f"reconstruction mismatch at {x},{a}: {got} != {r.table[x][a]}")
        return Mixture(components)

    y = res.certificate
    coeffs = {key: yi for key, yi in zip(row_keys, y[:-1]) if yi != 0}
    threshold = -y[-1]
    cert = Infeasible(coefficients=coeffs, threshold=threshold,
                      value=sum(c * r.table[x][a] for (x, a), c in coeffs.items()))
    for v in vs.vertices:
        on_v = sum(c * v.table[x][a] for (x, a), c in coeffs.items())
        if on_v > threshold:
            raise AssertionError(f"certificate fails on vertex {v.id!r}")
    if not cert.value > threshold:
        raise AssertionError("certificate does not separate the target")
    return cert


def is_local(r: NonsignalingResource) -> LocalityResult:
    """Membership in the local polytope of r's signature.  False comes
    with a Bell-type functional scoring r strictly above every
    deterministic vertex."""
    r.require_nonsignaling("is_local")
    vs = local_deterministic_vertices(r.parties, r.input_alphabets,
                                      r.output_alphabets)
    res = decompose_extremal(r, vs)
    if isinstance(res, Mixture):
        return LocalityResult(True, mixture=res)
    return LocalityResult(False, certificate=res)


# -- network-level rewriting -------------------------------------------------------


def _behavior_support(beh: NonsignalingResource) -> dict:
    return {x: {a: v for a, v in col.items() if v != 0}
            for x, col in beh.table.items()}


def _assert_mixture_matches(net: Network, mix: Mixture) -> None:
    target = _behavior_support(induced_behavior(net))
    got: dict = {x: {} for x in target}
    for w, comp in mix:
        for x, col in _behavior_support(induced_behavior(comp)).items():
            for a, v in col.items():
                got[x][a] = got[x].get(a, 0) + w * v
    if got != target:
        raise AssertionError("mixture behavior differs from the original network")


def _frozen_unbinned(net: Network) -> Network:
    """Same network with every party's outcome rule written into terminal
    labels, and bins dropped — making outcomes survive tree surgery."""
    return Network(
        parties=net.parties,
        resources=net.resources,
        trees={p: freeze_outcomes(net, p) for p in net.parties},
        settings_alphabets=net.settings_alphabets,
        bins=None,
        name=net.name,
    )


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
        mix = Mixture([(Fraction(1), net)])
        return mix

    base = _frozen_unbinned(net)
    kept = [r for r in base.resources if not r.is_input_free()]
    components = []
    for sample in product(*(list(r.output_space()) for r in free)):
        weight = Fraction(1)
        for r, a in zip(free, sample):
            weight *= r.prob(tuple([0] * len(r.parties)), a)
        if weight == 0:
            continue
        trees = {}
        for p in base.parties:
            t = base.trees[p]
            for r, a in zip(free, sample):
                if r.id in t.resource_scope:
                    t = excise_input_free(t, r.id, a[r.party_index(p)])
            trees[p] = t
        label = ",".join(f"{r.id}={''.join(map(str, a))}" for r, a in zip(free, sample))
        components.append((weight, Network(
            parties=base.parties,
            resources=kept,
            trees=trees,
            settings_alphabets=base.settings_alphabets,
            name=f"{net.name}|{label}",
        )))
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
        weight = Fraction(1)
        for w, _ in combo:
            weight *= w
        replaced = [v for _, v in combo]
        components.append((weight, Network(
            parties=net.parties,
            resources=replaced,
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
    n = len(r.parties)
    fns: dict[Party, dict[Symbol, Symbol]] = {p: {} for p in r.parties}
    for hit in np.argwhere(r.numerators).tolist():
        for i, p in enumerate(r.parties):
            out = r.output_alphabets[i].values[hit[n + i]]
            if fns[p].setdefault(r.input_alphabets[i].values[hit[i]], out) != out:
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

    base = _frozen_unbinned(net)
    trees = {}
    for p in base.parties:
        t = base.trees[p]
        for rid, fns in fns_by_resource.items():
            if rid in t.resource_scope:
                t = excise_input_free(t, rid, fns[p])
        trees[p] = t
    out = Network(
        parties=base.parties,
        resources=[r for r in base.resources if r.id not in fns_by_resource],
        trees=trees,
        settings_alphabets=base.settings_alphabets,
        name=f"{net.name}-excised",
    )
    before = _behavior_support(induced_behavior(net))
    after = _behavior_support(induced_behavior(out))
    if before != after:
        raise AssertionError("excision changed the induced behavior")
    return out
