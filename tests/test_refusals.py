"""Refusals of malformed arguments: constructors, marginals, conditioning,
subset checks, mixtures, vertex sets and network composition.

One table of cases, each a call that must raise: the test asserts the
exception type and its whole message.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from boxnet.decompose import Mixture, VertexSet
from boxnet.network import Network, NetworkError, marginal_without_party, union_network
from boxnet.resource import (
    Alphabet,
    check_subset_nonsignaling,
    condition,
    make_local_deterministic,
    make_pr_box,
    make_shared_randomness,
    marginal,
)
from boxnet.wiring import DecisionTree, Internal, Terminal

F = Fraction
BITS, ONE = Alphabet((0, 1)), Alphabet((0,))
PR = make_pr_box()


def bare(party="A"):
    """A tree for a party that consults no resource."""
    return DecisionTree(party, {0: Terminal()}, frozenset())


def lone(party="A"):
    """One party, no resources."""
    return Network((party,), [], {party: bare(party)}, {party: ONE}, name=party)


def coin_net(party):
    """One party reading its own fair coin, whose id is 'coin'."""
    coin = make_shared_randomness((party,), {(0,): F(1, 2), (1,): F(1, 2)}, id="coin")
    tree = DecisionTree(party, {0: Internal("coin", 0, {0: Terminal(), 1: Terminal()})},
                        frozenset({"coin"}))
    return Network((party,), [coin], {party: tree}, {party: ONE}, name=party)


CASES = {
    # Network(...)
    "network-no-parties": (lambda: Network((), [], {}, {}),
                           NetworkError, "network needs at least one party"),
    "network-duplicate-parties": (
        lambda: Network(("A", "A"), [], {"A": bare()}, {"A": ONE}),
        NetworkError, "duplicate parties: ('A', 'A')"),
    "network-duplicate-resource-ids": (
        lambda: Network(("A", "B"), [PR, PR], {}, {}),
        NetworkError, "duplicate resource ids: ['PR', 'PR']"),
    "network-missing-tree": (lambda: Network(("A",), [], {}, {"A": ONE}),
                             NetworkError, "no decision tree for party 'A'"),
    "network-missing-settings": (lambda: Network(("A",), [], {"A": bare()}, {}),
                                 NetworkError, "no settings alphabet for party 'A'"),
    "network-resource-names-non-party": (
        lambda: Network(("A",), [PR], {"A": bare()}, {"A": ONE}),
        NetworkError, "resource 'PR' names 'B', which is not a network party"),
    "network-bins-unknown-party": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": ONE}, bins={"Z": {(): 0}}),
        NetworkError, "bins name unknown party 'Z'"),
    # marginal
    "marginal-empty-keep": (lambda: marginal(PR, []), ValueError, "keep must be non-empty"),
    "marginal-duplicate-keep": (lambda: marginal(PR, ["A", "A"]),
                                ValueError, "duplicate parties in keep: ('A', 'A')"),
    "marginal-fixed-input-for-kept-party": (
        lambda: marginal(PR, ["A"], fixed_inputs={"A": 0}),
        ValueError, "fixed_inputs names 'A', which is not a dropped party"),
    "marginal-fixed-input-outside-alphabet": (
        lambda: marginal(PR, ["A"], fixed_inputs={"B": 5}),
        ValueError, "fixed input 5 outside alphabet of party 'B'"),
    "marginal-bool-fixed-input": (
        lambda: marginal(PR, ["A"], fixed_inputs={"B": True}),
        ValueError, "alphabet symbol True is not an integer"),
    "marginal-float-fixed-input": (
        lambda: marginal(PR, ["A"], fixed_inputs={"B": 1.0}),
        ValueError, "alphabet symbol 1.0 is not an integer"),
    # condition
    "condition-empty-observed": (lambda: condition(PR, [], [], []),
                                 ValueError, "observed must be non-empty"),
    "condition-duplicate-observed": (
        lambda: condition(PR, ["A", "A"], [0, 0], [0, 0]),
        ValueError, "duplicate parties in observed: ('A', 'A')"),
    "condition-misaligned-outputs": (
        lambda: condition(PR, ["A"], [0, 1], [0]),
        ValueError, "outputs and inputs must align with observed"),
    "condition-misaligned-inputs": (
        lambda: condition(PR, ["A"], [0], []),
        ValueError, "outputs and inputs must align with observed"),
    "condition-every-party": (
        lambda: condition(PR, ["A", "B"], [0, 0], [0, 0]),
        ValueError, "conditioning on every party leaves no resource"),
    "condition-input-outside-alphabet": (
        lambda: condition(PR, ["A"], [0], [5]),
        ValueError, "input 5 outside alphabet of 'A'"),
    "condition-output-outside-alphabet": (
        lambda: condition(PR, ["A"], [5], [0]),
        ValueError, "output 5 outside alphabet of 'A'"),
    # check_subset_nonsignaling
    "subset-duplicate-signalers": (
        lambda: check_subset_nonsignaling(PR, ("A", "A"), ("B",)),
        ValueError, "duplicate parties in signalers: ('A', 'A')"),
    "subset-duplicate-receivers": (
        lambda: check_subset_nonsignaling(PR, ("A",), ("B", "B")),
        ValueError, "duplicate parties in receivers: ('B', 'B')"),
    # Mixture and VertexSet
    "mixture-empty": (lambda: Mixture([]), ValueError, "empty mixture"),
    "mixture-int-weight": (lambda: Mixture([(1, "x")]),
                           ValueError, "weight 1 must be a positive Fraction"),
    "mixture-negative-weight": (
        lambda: Mixture([(F(3, 2), "x"), (F(-1, 2), "y")]),
        ValueError, "weight Fraction(-1, 2) must be a positive Fraction"),
    "mixture-weights-not-summing-to-one": (
        lambda: Mixture([(F(1, 2), "x")]), ValueError, "weights sum to 1/2, not 1"),
    "vertex-set-provenance-count": (lambda: VertexSet([PR], []),
                                    ValueError, "one provenance tag per vertex"),
    "vertex-set-empty": (lambda: VertexSet([], []), ValueError, "empty vertex set"),
    "vertex-set-signatures": (
        lambda: VertexSet([PR, coin_net("A").resources[0]], ["a", "b"]),
        ValueError, "vertex 'coin' has a different signature"),
    "vertex-set-equal-tables": (
        lambda: VertexSet([PR, make_pr_box(id="twin")], ["a", "b"]).check_distinct(),
        ValueError, "vertices 'PR' and 'twin' have equal tables"),
    # constructors
    "deterministic-partial-function": (
        lambda: make_local_deterministic(("A",), [BITS], [BITS], {"A": {0: 0}}),
        ValueError, "function for 'A' is partial: missing inputs [1]"),
    "deterministic-output-outside-alphabet": (
        lambda: make_local_deterministic(("A",), [BITS], [BITS], {"A": {0: 0, 1: 5}}),
        ValueError, "function for 'A' maps [1] outside the output alphabet"),
    "pr-box-three-parties": (lambda: make_pr_box(parties=("A", "B", "C")),
                             ValueError, "a PR box has exactly two parties"),
    "shared-randomness-misaligned-outcome": (
        lambda: make_shared_randomness(("A", "B"), {(0,): 1}),
        ValueError, "outcome (0,) does not align with 2 parties"),
    "shared-randomness-not-normalized": (
        lambda: make_shared_randomness(("A",), {(0,): F(1, 2)}),
        ValueError, "output distribution sums to 1/2, not 1"),
    "alphabet-empty": (lambda: Alphabet(()), ValueError, "alphabet must be non-empty"),
    "alphabet-duplicates": (lambda: Alphabet((0, 1, 0)),
                            ValueError, "alphabet has duplicate symbols: (0, 1, 0)"),
    # network operations
    "marginal-without-unknown-party": (lambda: marginal_without_party(lone(), "Z"),
                                       NetworkError, "no party 'Z' in network"),
    "marginal-without-only-party": (lambda: marginal_without_party(lone(), "A"),
                                    NetworkError, "cannot marginalize the only party away"),
    "union-overlapping-parties": (lambda: union_network(lone(), lone()),
                                  NetworkError, "parties appear in both networks: ['A']"),
    "union-overlapping-resources": (
        lambda: union_network(coin_net("A"), coin_net("B")),
        NetworkError, "resource ids appear in both networks: ['coin']"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_refused(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
