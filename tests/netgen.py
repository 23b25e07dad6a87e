"""Shared builders for tests: the three-party worked scenario and random
network generators.

The worked scenario: three parties A1, A2, A3; resource R1 shared by all
three (binary in/out, outputs uniform on a XOR b XOR c = x AND y AND z);
resource R2 shared by A1 and A3 only, with a ternary output on A1's side.
A1's tree consults the two resources in a setting-dependent order with
setting-dependent inputs; A2 passes its setting straight into R1; A3 is
adaptive in the opposite order from A1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from boxnet.network import Network
from boxnet.resource import Alphabet, NonsignalingResource, make_pr_box
from boxnet.wiring import DecisionTree, Internal, Terminal

BITS = Alphabet((0, 1))
TERN = Alphabet((0, 1, 2))


def r1_three_party() -> NonsignalingResource:
    table = {}
    for x, y, z in product((0, 1), repeat=3):
        table[(x, y, z)] = {
            (a, b, c): (Fraction(1, 4) if (a ^ b ^ c) == (x & y & z) else Fraction(0))
            for a, b, c in product((0, 1), repeat=3)
        }
    return NonsignalingResource.make(
        "R1", ("A1", "A2", "A3"), [BITS] * 3, [BITS] * 3, table)


def r2_ternary_pair() -> NonsignalingResource:
    # A1 ternary output: symbol 2 occurs with probability 1/3 (split
    # evenly over A3's output); otherwise a XOR c = x AND z with weight 1/3.
    table = {}
    for x, z in product((0, 1), repeat=2):
        col = {}
        for a, c in product((0, 1, 2), (0, 1)):
            if a == 2:
                col[(a, c)] = Fraction(1, 6)
            elif (a ^ c) == (x & z):
                col[(a, c)] = Fraction(1, 3)
        table[(x, z)] = col
    return NonsignalingResource.make(
        "R2", ("A1", "A3"), [BITS, BITS], [TERN, BITS], table)


def alice_tree() -> DecisionTree:
    """A1's adaptive strategy.

    Setting 0: consult R1 with input 0; on output 1 consult R2 with
    input 0, on output 0 consult R2 with input 1.
    Setting 1: consult R2 with input 1; on outputs 2 and 0 consult R1
    with input 0, on output 1 consult R1 with input 1.
    """
    def r2_fan(inp):
        return Internal("R2", inp, {0: Terminal(), 1: Terminal(), 2: Terminal()})

    def r1_fan(inp):
        return Internal("R1", inp, {0: Terminal(), 1: Terminal()})

    return DecisionTree(
        party="A1",
        root={
            0: Internal("R1", 0, {1: r2_fan(0), 0: r2_fan(1)}),
            1: Internal("R2", 1, {2: r1_fan(0), 1: r1_fan(1), 0: r1_fan(0)}),
        },
        resource_scope=frozenset({"R1", "R2"}),
    )


def bob_tree() -> DecisionTree:
    """A2 holds only R1 and passes its setting straight through."""
    return DecisionTree(
        party="A2",
        root={s: Internal("R1", s, {0: Terminal(), 1: Terminal()}) for s in (0, 1)},
        resource_scope=frozenset({"R1"}),
    )


def charlie_tree() -> DecisionTree:
    """A3 wires the resources into each other, order depending on setting."""
    def r2_fan(inp):
        return Internal("R2", inp, {0: Terminal(), 1: Terminal()})

    def r1_fan(inp):
        return Internal("R1", inp, {0: Terminal(), 1: Terminal()})

    return DecisionTree(
        party="A3",
        root={
            0: Internal("R1", 0, {out: r2_fan(out) for out in (0, 1)}),
            1: Internal("R2", 1, {out: r1_fan(out) for out in (0, 1)}),
        },
        resource_scope=frozenset({"R1", "R2"}),
    )


def worked_network(bins=None) -> Network:
    return Network(
        parties=("A1", "A2", "A3"),
        resources=(r1_three_party(), r2_ternary_pair()),
        trees=[alice_tree(), bob_tree(), charlie_tree()],
        settings_alphabets={p: BITS for p in ("A1", "A2", "A3")},
        bins=bins,
        name="worked",
    )


def unsorted_alphabet_network(bins=None) -> Network:
    """A and B share a box R whose alphabets are out of sorted order: A's
    inputs (1, 0) and outputs (2, 0, 5), B's outputs (1, 0).  R gives
    a = 5 with probability 1/3 and otherwise a PR correlation between
    "a is 0" and "b is 0"; A also holds a biased coin S.  The trees are
    random (seed 4242) and unlabeled; A's settings are (3, 1)."""
    table = {}
    for x, y in product((1, 0), (0, 1)):
        column = {(5, b): Fraction(1, 6) for b in (1, 0)}
        for a, b in product((2, 0), (1, 0)):
            if ((a == 0) ^ (b == 0)) == (x & y):
                column[(a, b)] = Fraction(1, 3)
        table[(x, y)] = column
    r = NonsignalingResource.make("R", ("A", "B"), [Alphabet((1, 0)), BITS],
                                  [Alphabet((2, 0, 5)), Alphabet((1, 0))], table)
    s = NonsignalingResource.make("S", ("A",), [Alphabet((0,))], [BITS],
                                  {(0,): {(0,): Fraction(3, 4), (1,): Fraction(1, 4)}})
    resources = {"R": r, "S": s}
    settings = {"A": Alphabet((3, 1)), "B": BITS}
    rng = random.Random(4242)
    trees = {p: random_tree(rng, p, {rid for rid, q in resources.items() if p in q.parties},
                            settings[p].values, resources) for p in ("A", "B")}
    return Network(("A", "B"), [r, s], trees, settings, bins, name="unsorted")


# -- random corpus ----------------------------------------------------------------
#
# Resources are sampled as exact convex mixtures of local deterministic
# vertices, plus PR-class boxes when the signature is bipartite binary.
# A cost cap keeps |settings space| x |transcript space| small enough
# that hundreds of networks enumerate in seconds.

COST_CAP = 3000


def _mix_weights(rng: random.Random, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 4) for _ in range(k)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def _deterministic_table(rng, in_alphas, out_alphas):
    fns = [{x: rng.choice(a_out.values) for x in a_in.values}
           for a_in, a_out in zip(in_alphas, out_alphas)]
    table = {}
    for x in product(*(a.values for a in in_alphas)):
        table[x] = {tuple(fns[i][xi] for i, xi in enumerate(x)): Fraction(1)}
    return table


def random_mixture_resource(rng: random.Random, rid: str, members, *,
                            in_sizes=None, out_sizes=None) -> NonsignalingResource:
    members = tuple(members)
    n = len(members)
    in_alphas = [Alphabet.of_size(s) for s in in_sizes] if in_sizes else \
        [Alphabet.of_size(rng.randint(1, 3)) for _ in range(n)]
    out_alphas = [Alphabet.of_size(s) for s in out_sizes] if out_sizes else \
        [Alphabet.of_size(rng.randint(1, 3)) for _ in range(n)]
    binary_pair = (n == 2 and all(len(a) == 2 for a in in_alphas)
                   and all(len(a) == 2 for a in out_alphas))

    components = []
    for _ in range(rng.randint(1, 4)):
        if binary_pair and rng.random() < 0.5:
            abc = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
            components.append(make_pr_box(parties=members, alpha=abc[0],
                                          beta=abc[1], gamma=abc[2]).table)
        else:
            components.append(_deterministic_table(rng, in_alphas, out_alphas))

    weights = _mix_weights(rng, len(components))
    table: dict = {}
    for x in product(*(a.values for a in in_alphas)):
        col: dict = {}
        for w, comp in zip(weights, components):
            for a, v in comp[x].items():
                col[a] = col.get(a, Fraction(0)) + w * v
        table[x] = col
    return NonsignalingResource.make(rid, members, in_alphas, out_alphas, table)


def random_tree(rng: random.Random, party, scope, settings, resources) -> DecisionTree:
    def build(remaining: frozenset) -> Internal | Terminal:
        if not remaining:
            return Terminal()
        rid = rng.choice(sorted(remaining))
        r = resources[rid]
        inp = rng.choice(r.input_alphabet(party).values)
        rest = remaining - {rid}
        return Internal(rid, inp, {
            out: build(rest) for out in r.output_alphabet(party).values
        })

    return DecisionTree(
        party=party,
        root={s: build(frozenset(scope)) for s in settings},
        resource_scope=frozenset(scope),
    )


def random_bins(rng: random.Random, party, scope, resources) -> dict:
    transcripts = list(product(*(
        resources[rid].output_alphabet(party).values for rid in sorted(scope)
    )))
    n_out = rng.randint(1, min(3, len(transcripts)))
    rng.shuffle(transcripts)
    bins = {}
    for i, tr in enumerate(transcripts):
        bins[tr] = i if i < n_out else rng.randrange(n_out)  # surjective
    return bins


def network_cost(net_settings_sizes, resources) -> int:
    cost = 1
    for s in net_settings_sizes:
        cost *= s
    for r in resources:
        for a in r.output_alphabets:
            cost *= len(a)
    return cost


def random_network(rng: random.Random, name: str = "rnd", *, with_bins: bool = True) -> Network:
    """A valid random network: n <= 3 parties, m <= 3 resources, alphabets
    <= 3, resources drawn as mixtures of deterministic vertices and
    PR-class boxes; roughly half the parties get a random surjective
    binning.  Rejection-sampled under a work cap."""
    while True:
        n = rng.randint(1, 3)
        parties = [f"P{i}" for i in range(n)]
        m = rng.randint(1, 3)
        resources = {}
        for k in range(m):
            members = sorted(rng.sample(parties, rng.randint(1, n)))
            r = random_mixture_resource(rng, f"S{k}", members)
            resources[r.id] = r
        settings = {p: Alphabet.of_size(rng.randint(1, 3)) for p in parties}
        if network_cost([len(a) for a in settings.values()], resources.values()) > COST_CAP:
            continue
        trees = {}
        for p in parties:
            scope = {rid for rid, r in resources.items() if p in r.parties}
            trees[p] = random_tree(rng, p, scope, settings[p].values, resources)
        bins = {}
        if with_bins:
            for p in parties:
                if rng.random() < 0.5:
                    scope = trees[p].resource_scope
                    bins[p] = random_bins(rng, p, scope, resources)
        return Network(parties, list(resources.values()), trees, settings,
                       bins or None, name=name)


def random_small_network(rng: random.Random, name: str = "small") -> Network:
    """Like random_network but resources are at most bipartite with binary
    alphabets, so every resource lies in a polytope whose vertex set the
    decomposition machinery can enumerate and solve quickly (24 vertices
    for pairs, |out|^|in| for singles)."""
    while True:
        n = rng.randint(1, 3)
        parties = [f"P{i}" for i in range(n)]
        m = rng.randint(1, 3)
        resources = {}
        for k in range(m):
            members = sorted(rng.sample(parties, rng.randint(1, min(2, n))))
            r = random_mixture_resource(rng, f"S{k}", members,
                                        in_sizes=[2] * len(members),
                                        out_sizes=[2] * len(members))
            resources[r.id] = r
        settings = {p: Alphabet.of_size(rng.randint(1, 2)) for p in parties}
        if network_cost([len(a) for a in settings.values()], resources.values()) > COST_CAP:
            continue
        trees = {}
        for p in parties:
            scope = {rid for rid, r in resources.items() if p in r.parties}
            trees[p] = random_tree(rng, p, scope, settings[p].values, resources)
        bins = {}
        for p in parties:
            if rng.random() < 0.5:
                bins[p] = random_bins(rng, p, trees[p].resource_scope, resources)
        return Network(parties, list(resources.values()), trees, settings,
                       bins or None, name=name)


def random_wired_pairwise_network(rng: random.Random, name: str = "pairwise") -> Network:
    """Three parties with two binary settings each, sharing only bipartite
    resources (PR-class boxes or bipartite deterministic mixtures) and an
    optional three-way shared coin; outcomes binned to bits.  The corpus
    for checking that no such network beats the three-party inequalities."""
    parties = ["A", "B", "C"]
    pairs = [("A", "B"), ("B", "C"), ("A", "C")]
    resources = {}
    k = 0
    for pair in pairs:
        if rng.random() < 0.75:
            if rng.random() < 0.6:
                abc = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                r = make_pr_box(id=f"S{k}", parties=pair, alpha=abc[0],
                                beta=abc[1], gamma=abc[2])
            else:
                r = random_mixture_resource(rng, f"S{k}", pair,
                                            in_sizes=[2, 2], out_sizes=[2, 2])
            resources[r.id] = r
            k += 1
    if rng.random() < 0.5 or not resources:
        outcomes = list(product((0, 1), repeat=3))
        weights = _mix_weights(rng, len(outcomes))
        dist = {o: w for o, w in zip(outcomes, weights)}
        r = NonsignalingResource.make(
            f"S{k}", tuple(parties), [Alphabet((0,))] * 3,
            [BITS] * 3, {(0, 0, 0): dist})
        resources[r.id] = r

    settings = {p: BITS for p in parties}
    trees, bins = {}, {}
    for p in parties:
        scope = {rid for rid, r in resources.items() if p in r.parties}
        trees[p] = random_tree(rng, p, scope, (0, 1), resources)
        transcripts = list(product(*(
            resources[rid].output_alphabet(p).values for rid in sorted(scope))))
        if len(transcripts) == 1:
            bins[p] = {transcripts[0]: rng.randint(0, 1)}
        else:
            rng.shuffle(transcripts)
            half = len(transcripts) // 2
            bins[p] = {tr: (0 if i < half else 1) for i, tr in enumerate(transcripts)}
    return Network(parties, list(resources.values()), trees, settings, bins, name=name)


def paradox_network() -> Network:
    """Two deliberately signaling resources wired in opposite orders: the
    first forces a1 = (Bob's input to it) while the second forces Bob's
    output to be NOT (Alice's input to it); wiring each party's first
    output into the other resource makes every transcript impossible."""
    half = Fraction(1, 2)
    t1 = {(x, y): {(a, b): (half if a == y else Fraction(0))
                   for a, b in product((0, 1), repeat=2)}
          for x, y in product((0, 1), repeat=2)}
    t2 = {(x, y): {(a, b): (half if b == 1 - x else Fraction(0))
                   for a, b in product((0, 1), repeat=2)}
          for x, y in product((0, 1), repeat=2)}
    r1 = NonsignalingResource.new_unchecked("W1", ("A", "B"), [BITS] * 2, [BITS] * 2, t1)
    r2 = NonsignalingResource.new_unchecked("W2", ("A", "B"), [BITS] * 2, [BITS] * 2, t2)

    alice = DecisionTree(
        party="A",
        root={0: Internal("W1", 0, {
            out: Internal("W2", out, {0: Terminal(), 1: Terminal()}) for out in (0, 1)
        })},
        resource_scope=frozenset({"W1", "W2"}),
    )
    bob = DecisionTree(
        party="B",
        root={0: Internal("W2", 0, {
            out: Internal("W1", out, {0: Terminal(), 1: Terminal()}) for out in (0, 1)
        })},
        resource_scope=frozenset({"W1", "W2"}),
    )
    return Network(
        parties=("A", "B"),
        resources=(r1, r2),
        trees=[alice, bob],
        settings_alphabets={"A": Alphabet((0,)), "B": Alphabet((0,))},
        name="paradox",
    )
