"""Seeded input generators for the benchmark workloads.

Everything here produces plain data ("specs"): resources are tuples of
ids, parties, alphabet sizes and exact ``Fraction`` tables; decision trees
are nested ``(resource, input, {output: child})`` tuples with ``None`` as a
terminal.  Nothing here imports boxnet, so the library only ever receives
the generated inputs, and the benchmark's own copies keep what is measured
fixed when the test helpers change.

``random_network``, ``random_wired_pairwise_network`` and
``random_mixture_resource`` consume the random stream exactly as the
helpers in ``tests/netgen.py`` do, so ``sweep_corpora`` rebuilds the
normalization corpus and the pairwise Mao corpus of the acceptance tests.
``digest`` fingerprints any spec; runs check the fingerprint of their
inputs against the ones recorded in ``goldens.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple


class ResourceSpec(NamedTuple):
    id: str
    parties: tuple
    in_sizes: tuple
    out_sizes: tuple
    table: dict  # input tuple -> {output tuple: Fraction}, zeros omitted


class NetworkSpec(NamedTuple):
    name: str
    parties: tuple
    resources: tuple  # of ResourceSpec
    trees: dict       # party -> {setting: node}; node = None | (rid, input, {out: node})
    settings: dict    # party -> alphabet size
    bins: dict | None  # party -> {transcript tuple: outcome}


# -- canonical fingerprint ----------------------------------------------------------


def _canon(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (tuple, list)):
        return [_canon(v) for v in obj]
    return obj


def digest(obj) -> str:
    """SHA-256 of a canonical JSON rendering: dicts in key order, exact
    fractions as ``n/d``."""
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- resource tables ----------------------------------------------------------------


def pr_table(alpha: int = 0, beta: int = 0, gamma: int = 0) -> dict:
    """PR-class box: P(ab|xy) = 1/2 when a^b = xy ^ alpha.x ^ beta.y ^ gamma."""
    half = Fraction(1, 2)
    return {(x, y): {(a, b): half for a, b in product((0, 1), repeat=2)
                     if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma}
            for x, y in product((0, 1), repeat=2)}


def _deterministic_table(rng, in_sizes, out_sizes) -> dict:
    fns = [{x: rng.choice(range(o)) for x in range(i)} for i, o in zip(in_sizes, out_sizes)]
    return {x: {tuple(fns[k][xk] for k, xk in enumerate(x)): Fraction(1)}
            for x in product(*(range(i) for i in in_sizes))}


def _mix_weights(rng: random.Random, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 4) for _ in range(k)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def mix(weights, tables) -> dict:
    out: dict = {}
    for w, t in zip(weights, tables):
        for x, col in t.items():
            dst = out.setdefault(x, {})
            for a, v in col.items():
                dst[a] = dst.get(a, Fraction(0)) + w * v
    return {x: {a: v for a, v in col.items() if v} for x, col in out.items()}


def random_mixture_resource(rng: random.Random, rid: str, members, *,
                            in_sizes=None, out_sizes=None) -> ResourceSpec:
    """Exact convex mixture of deterministic vertices and, for bipartite
    binary signatures, PR-class boxes."""
    members = tuple(members)
    n = len(members)
    in_sizes = tuple(in_sizes) if in_sizes else tuple(rng.randint(1, 3) for _ in range(n))
    out_sizes = tuple(out_sizes) if out_sizes else tuple(rng.randint(1, 3) for _ in range(n))
    binary_pair = n == 2 and in_sizes == (2, 2) and out_sizes == (2, 2)
    components = []
    for _ in range(rng.randint(1, 4)):
        if binary_pair and rng.random() < 0.5:
            components.append(pr_table(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)))
        else:
            components.append(_deterministic_table(rng, in_sizes, out_sizes))
    weights = _mix_weights(rng, len(components))
    return ResourceSpec(rid, members, in_sizes, out_sizes, mix(weights, components))


# -- networks -----------------------------------------------------------------------


def _output_size(r: ResourceSpec, party) -> int:
    return r.out_sizes[r.parties.index(party)]


def random_tree(rng: random.Random, party, scope, n_settings, resources) -> dict:
    def build(remaining: frozenset):
        if not remaining:
            return None
        rid = rng.choice(sorted(remaining))
        r = resources[rid]
        inp = rng.choice(range(r.in_sizes[r.parties.index(party)]))
        rest = remaining - {rid}
        return (rid, inp, {out: build(rest) for out in range(_output_size(r, party))})

    return {s: build(frozenset(scope)) for s in range(n_settings)}


def _transcripts(party, scope, resources) -> list:
    return list(product(*(range(_output_size(resources[rid], party)) for rid in sorted(scope))))


def random_bins(rng: random.Random, party, scope, resources) -> dict:
    transcripts = _transcripts(party, scope, resources)
    n_out = rng.randint(1, min(3, len(transcripts)))
    rng.shuffle(transcripts)
    return {tr: (i if i < n_out else rng.randrange(n_out)) for i, tr in enumerate(transcripts)}


COST_CAP = 3000


def network_cost(settings_sizes, resources) -> int:
    cost = 1
    for s in settings_sizes:
        cost *= s
    for r in resources:
        for o in r.out_sizes:
            cost *= o
    return cost


def _scopes(parties, resources) -> dict:
    return {p: {rid for rid, r in resources.items() if p in r.parties} for p in parties}


def random_network(rng: random.Random, name: str) -> NetworkSpec:
    """At most 3 parties, 3 resources and alphabets of size 3; about half
    the parties bin their transcripts.  Rejection-sampled under COST_CAP."""
    while True:
        n = rng.randint(1, 3)
        parties = tuple(f"P{i}" for i in range(n))
        resources = {}
        for k in range(rng.randint(1, 3)):
            members = sorted(rng.sample(parties, rng.randint(1, n)))
            resources[f"S{k}"] = random_mixture_resource(rng, f"S{k}", members)
        settings = {p: rng.randint(1, 3) for p in parties}
        if network_cost(settings.values(), resources.values()) > COST_CAP:
            continue
        scopes = _scopes(parties, resources)
        trees = {p: random_tree(rng, p, scopes[p], settings[p], resources) for p in parties}
        bins = {}
        for p in parties:
            if rng.random() < 0.5:
                bins[p] = random_bins(rng, p, scopes[p], resources)
        return NetworkSpec(name, parties, tuple(resources.values()), trees, settings,
                           bins or None)


def random_wired_pairwise_network(rng: random.Random, name: str) -> NetworkSpec:
    """Three parties with binary settings, bipartite resources on some
    pairs plus an optional three-way coin, outcomes binned to bits."""
    parties = ("A", "B", "C")
    resources = {}
    k = 0
    for pair in (("A", "B"), ("B", "C"), ("A", "C")):
        if rng.random() < 0.75:
            if rng.random() < 0.6:
                table = pr_table(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                resources[f"S{k}"] = ResourceSpec(f"S{k}", pair, (2, 2), (2, 2), table)
            else:
                resources[f"S{k}"] = random_mixture_resource(
                    rng, f"S{k}", pair, in_sizes=[2, 2], out_sizes=[2, 2])
            k += 1
    if rng.random() < 0.5 or not resources:
        outcomes = list(product((0, 1), repeat=3))
        weights = _mix_weights(rng, len(outcomes))
        resources[f"S{k}"] = ResourceSpec(f"S{k}", parties, (1, 1, 1), (2, 2, 2),
                                          {(0, 0, 0): dict(zip(outcomes, weights))})
    scopes = _scopes(parties, resources)
    trees, bins = {}, {}
    for p in parties:
        trees[p] = random_tree(rng, p, scopes[p], 2, resources)
        transcripts = _transcripts(p, scopes[p], resources)
        if len(transcripts) == 1:
            bins[p] = {transcripts[0]: rng.randint(0, 1)}
        else:
            rng.shuffle(transcripts)
            half = len(transcripts) // 2
            bins[p] = {tr: (0 if i < half else 1) for i, tr in enumerate(transcripts)}
    return NetworkSpec(name, parties, tuple(resources.values()), trees,
                       {p: 2 for p in parties}, bins)


def sweep_corpora() -> tuple[list, list]:
    """The network-sweep inputs, the two fixed corpora of the acceptance
    tests: 200 random networks (seed 20260816) and 500 wired pairwise
    networks (seed 777)."""
    rng = random.Random(20260816)
    norm = [random_network(rng, f"n{i}") for i in range(200)]
    rng = random.Random(777)
    pairwise = [random_wired_pairwise_network(rng, f"w{i}") for i in range(500)]
    return norm, pairwise


# -- PR-box chain -------------------------------------------------------------------


def pr_chain(k: int, rng: random.Random) -> NetworkSpec:
    """k PR-class boxes B0..B(k-1) on a line of k+1 parties.  Party i
    consults its left box with its setting, then its right box with that
    box's output; the end parties hold one box each.  Outcomes are the
    full transcripts (no binning)."""
    parties = tuple(f"P{i}" for i in range(k + 1))
    boxes = tuple(ResourceSpec(f"B{i}", (parties[i], parties[i + 1]), (2, 2), (2, 2),
                               pr_table(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1)))
                  for i in range(k))
    trees = {}
    for i, p in enumerate(parties):
        left = f"B{i - 1}" if i > 0 else None
        right = f"B{i}" if i < k else None
        if left and right:
            trees[p] = {s: (left, s, {o: (right, o, {0: None, 1: None}) for o in (0, 1)})
                        for s in (0, 1)}
        else:
            trees[p] = {s: (left or right, s, {0: None, 1: None}) for s in (0, 1)}
    return NetworkSpec(f"chain{k}", parties, boxes, trees, {p: 2 for p in parties}, None)


def chain_specs(seed: int, ks) -> dict:
    rng = random.Random(4242 + seed)
    return {k: pr_chain(k, rng) for k in ks}


# -- locality questions ---------------------------------------------------------------


class Question(NamedTuple):
    name: str
    kind: str       # "is_local" or "ns222" (decompose over the 24 NS vertices)
    resource: ResourceSpec
    local: bool     # known verdict (for "ns222": the box lies in the hull)


def noisy_box(rid, parties, in_sizes, out_sizes, ideal, v: Fraction) -> ResourceSpec:
    """v * ideal + (1 - v) * uniform noise over all output tuples."""
    n_out = 1
    for o in out_sizes:
        n_out *= o
    noise = {x: {a: Fraction(1, n_out) for a in product(*(range(o) for o in out_sizes))}
             for x in product(*(range(i) for i in in_sizes))}
    return ResourceSpec(rid, tuple(parties), tuple(in_sizes), tuple(out_sizes),
                        mix((v, 1 - v), (ideal, noise)))


def pr_ab_uniform_c(settings=(2, 2, 2)) -> dict:
    """PR box between A and B (on settings mod 2) times a uniform bit at C."""
    pr = pr_table()
    half = Fraction(1, 2)
    return {(x, y, z): {(a, b, c): half * pr[(x % 2, y % 2)][(a, b)]
                        for (a, b) in pr[(x % 2, y % 2)] for c in (0, 1)}
            for x, y, z in product(*(range(s) for s in settings))}


def z3_box() -> dict:
    """Bipartite 3-input/3-output box: b - a = x*y mod 3, uniform marginals."""
    third = Fraction(1, 3)
    return {(x, y): {(a, (a + x * y) % 3): third for a in range(3)}
            for x, y in product(range(3), repeat=2)}


def random_deterministic_mixture(rng, rid, parties, in_sizes, out_sizes, k) -> ResourceSpec:
    tables = [_deterministic_table(rng, in_sizes, out_sizes) for _ in range(k)]
    return ResourceSpec(rid, tuple(parties), tuple(in_sizes), tuple(out_sizes),
                        mix(_mix_weights(rng, k), tables))


def ns222_tables() -> list:
    """The 24 vertices of the bipartite binary nonsignaling polytope."""
    det = [{x: {(fa[x[0]], fb[x[1]]): Fraction(1)} for x in product((0, 1), repeat=2)}
           for fa in product((0, 1), repeat=2) for fb in product((0, 1), repeat=2)]
    return det + [pr_table(a, b, g) for a, b, g in product((0, 1), repeat=3)]


def locality_questions(seed: int) -> list[Question]:
    """Questions with verdicts known by construction: noisy PR boxes are
    local iff v <= 1/2 (CHSH), a PR box between two parties stays so with
    a third uniform party or a copied third setting, and mixtures of
    deterministic vertices are local."""
    rng = random.Random(8080 + seed)
    ab, abc = ("A", "B"), ("A", "B", "C")
    qs = []
    for k in range(9):
        v = Fraction(k, 8)
        qs.append(Question(f"pr-v{k}/8", "is_local",
                           noisy_box(f"noisyPR{k}", ab, (2, 2), (2, 2), pr_table(), v), v <= Fraction(1, 2)))
    for i in range(3):
        qs.append(Question(f"tri-mix{i}", "is_local", random_deterministic_mixture(
            rng, f"trimix{i}", abc, (2, 2, 2), (2, 2, 2), 4), True))
    for v in (Fraction(1, 2), Fraction(5, 8), Fraction(1)):
        qs.append(Question(f"tri-v{v}", "is_local", noisy_box(
            f"tri{v}", abc, (2, 2, 2), (2, 2, 2), pr_ab_uniform_c(), v), v <= Fraction(1, 2)))
    for v in (Fraction(1, 2), Fraction(3, 4)):
        qs.append(Question(f"tri-b3-v{v}", "is_local", noisy_box(
            f"trib3{v}", abc, (2, 3, 2), (2, 2, 2), pr_ab_uniform_c((2, 3, 2)), v),
            v <= Fraction(1, 2)))
    vertices = ns222_tables()
    for i in range(6):
        picks = rng.sample(range(len(vertices)), 3)
        table = mix(_mix_weights(rng, len(picks)), [vertices[j] for j in picks])
        qs.append(Question(f"ns222-mix{i}", "ns222",
                           ResourceSpec(f"nsmix{i}", ab, (2, 2), (2, 2), table), True))
    return qs
