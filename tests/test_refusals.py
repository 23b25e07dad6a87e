"""Refusals of malformed arguments: constructors, marginals, conditioning,
subset checks, mixtures, vertex sets, network composition, decision trees,
correlator inequalities and GHZ strategies.

One table of cases, each a call that must raise: the test asserts the
exception type and its whole message.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from boxnet.decompose import Mixture, VertexSet, decompose_extremal, ns_vertices_222
from boxnet.ghz import FloatBehavior, QuantumStrategy, ghz_behavior
from boxnet.inequality import (
    CorrelatorTerm,
    InequalityError,
    LinearInequality,
    correlator,
    deterministic_behaviors,
    functional_difference,
    mao_inequality,
    relabel_output,
    swap_parties,
)
from boxnet.network import (
    Network,
    NetworkError,
    freeze_outcomes,
    joint_distribution,
    marginal_without_party,
    relabel_network,
    union_network,
)
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    TableError,
    check_subset_nonsignaling,
    condition,
    frac,
    make_local_deterministic,
    make_pr_box,
    make_shared_randomness,
    marginal,
)
from boxnet.wiring import (
    DecisionTree,
    Internal,
    Terminal,
    append_unused,
    excise_input_free,
    trace_path,
)

from netgen import worked_network

F = Fraction
BITS, ONE = Alphabet((0, 1)), Alphabet((0,))
PR = make_pr_box()


def bare(party="A"):
    """A tree for a party that consults no resource."""
    return DecisionTree(party, {0: Terminal()}, frozenset())


def lone(party="A"):
    """One party, no resources."""
    return Network((party,), [], {party: bare(party)}, {party: ONE}, name=party)


def labeled(*labels):
    """One party, no resources, answering ``labels[s]`` at setting s."""
    tree = DecisionTree("A", {s: Terminal(label) for s, label in enumerate(labels)}, frozenset())
    return Network(("A",), [], {"A": tree}, {"A": Alphabet.of_size(len(labels))})


def coin_net(party):
    """One party reading its own fair coin, whose id is 'coin'."""
    coin = make_shared_randomness((party,), {(0,): F(1, 2), (1,): F(1, 2)}, id="coin")
    tree = DecisionTree(party, {0: Internal("coin", 0, {0: Terminal(), 1: Terminal()})},
                        frozenset({"coin"}))
    return Network((party,), [coin], {party: tree}, {party: ONE}, name=party)


def reads_coin(edges=(0, 1)):
    """A tree of 'A' that reads 'coin', with an edge for each output in
    ``edges``."""
    return DecisionTree("A", {0: Internal("coin", 0, {e: Terminal() for e in edges})},
                        frozenset({"coin"}))


def table_for_a(inputs, outputs):
    """The resource 't' of party 'A' answering 0, with alphabets as given."""
    return NonsignalingResource.make("t", ("A",), inputs, outputs, {(0,): {(0,): 1, (1,): 0}})


TRI = deterministic_behaviors({"A": 2, "B": 2, "C": 2})
TERNARY_C = make_local_deterministic(
    ("A", "B", "C"), [BITS] * 3, [BITS, BITS, Alphabet((0, 1, 2))],
    {p: {0: 0, 1: 0} for p in "ABC"}, id="ternary")


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
    "network-trees-unknown-party": (
        lambda: Network(("A",), [], {"A": bare(), "Z": bare("Z")}, {"A": ONE}),
        NetworkError, "trees name unknown party 'Z'"),
    "network-tree-list-unknown-party": (
        lambda: Network(("A",), [], [bare(), bare("Z")], {"A": ONE}),
        NetworkError, "trees name unknown party 'Z'"),
    "network-settings-unknown-party": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": ONE, "Z": ONE}),
        NetworkError, "settings alphabets name unknown party 'Z'"),
    "network-settings-alphabet-not-iterable": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": 2}),
        NetworkError, "settings alphabet of 'A': 'int' object is not iterable"),
    "network-settings-alphabet-str-symbol": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": [0, "x"]}),
        NetworkError, "settings alphabet of 'A': alphabet symbol 'x' is not an integer"),
    "network-settings-alphabet-empty": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": []}),
        NetworkError, "settings alphabet of 'A': alphabet must be non-empty"),
    "network-root-edges-not-the-settings": (
        lambda: Network(("A",), [], {"A": DecisionTree("A", {0: Terminal(), 1: Terminal()},
                                                       frozenset())}, {"A": Alphabet((0, 1, 2))}),
        NetworkError,
        "tree of 'A' invalid: root edges [0, 1] do not match the settings alphabet [0, 1, 2]"),
    # terminal labels are symbols; (0, True) hashes like (0, 1), built first
    "network-bool-terminal-label": (lambda: labeled(True), NetworkError,
                                    "terminal labels of 'A': alphabet symbol True is not an integer"),
    "network-float-terminal-label": (lambda: labeled(1.0), NetworkError,
                                     "terminal labels of 'A': alphabet symbol 1.0 is not an integer"),
    "network-bool-label-after-int-labels": (
        lambda: (labeled(0, 1), labeled(0, True)),
        NetworkError, "terminal labels of 'A': alphabet symbol True is not an integer"),
    # a set of the labels would keep 1 and drop True
    "network-bool-label-beside-one": (lambda: labeled(1, True), NetworkError,
                                      "terminal labels of 'A': alphabet symbol True is not an integer"),
    "network-str-terminal-label": (lambda: labeled(0, "1"), NetworkError,
                                   "terminal labels of 'A': alphabet symbol '1' is not an integer"),
    "joint-distribution-settings-count": (lambda: joint_distribution(lone(), (0, 0)),
                                          NetworkError, "2 settings for 1 parties"),
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
    "decompose-signature-mismatch": (
        lambda: decompose_extremal(TRI[0], ns_vertices_222()),
        ValueError, "signature mismatch: 'det0' vs vertex set over 2 parties"),
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
    "resource-alphabet-map-misses-a-party": (
        lambda: table_for_a({"B": ONE}, [BITS]), ValueError, "no alphabet for parties ['A']"),
    "resource-alphabet-count": (lambda: table_for_a([ONE, ONE], [BITS]),
                                ValueError, "2 alphabets for 1 parties"),
    "resource-no-parties": (lambda: NonsignalingResource.make("t", (), [], [], {}),
                            ValueError, "resource must have at least one party"),
    "resource-duplicate-parties": (
        lambda: NonsignalingResource.make("t", ("A", "A"), [ONE, ONE], [BITS, BITS], {}),
        ValueError, "duplicate parties: ('A', 'A')"),
    "subset-overlapping-groups": (lambda: check_subset_nonsignaling(PR, ("A",), ("A",)),
                                  ValueError, "signalers and receivers must be disjoint"),
    # decision trees
    "trace-path-no-edge": (lambda: trace_path(reads_coin(edges=(0,)), 0, {"coin": 1}),
                           KeyError, "\"output 1 of 'coin' has no edge here (have [0])\""),
    "excise-no-known-output": (lambda: excise_input_free(reads_coin(), "coin", {1: 0}),
                               ValueError, "no known output of 'coin' for input 0"),
    "append-unused-duplicate-ids": (
        lambda: append_unused(bare(), ["coin", "coin"], {"coin": 0}, {"coin": PR}),
        ValueError, "duplicate ids in unused: ['coin', 'coin']"),
    "append-unused-unknown-resource": (lambda: append_unused(bare(), ["R9"], {"R9": 0}, {}),
                                       ValueError, "unused id 'R9' names no resource"),
    "append-unused-no-dummy-input": (lambda: append_unused(bare(), ["coin"], {}, {"coin": PR}),
                                     ValueError, "unused id 'coin' has no dummy input"),
    # GHZ strategies
    "quantum-strategy-no-settings": (lambda: QuantumStrategy({"A": ()}),
                                     ValueError, "party 'A' has no measurement settings"),
    "ghz-underscore-angle": (
        lambda: QuantumStrategy.from_angles({"A": ("1_0", "0")}), ValueError,
        "'1_0' does not spell a decimal number (ASCII digits, an optional sign, point and exponent)"),
    "ghz-other-parties": (
        lambda: ghz_behavior(QuantumStrategy.from_angles({"A": [0.0], "B": [0.0]})),
        ValueError, "a GHZ strategy names parties ('A', 'B', 'C'), got ['A', 'B']"),
    # network operations
    "marginal-without-unknown-party": (lambda: marginal_without_party(lone(), "Z"),
                                       NetworkError, "no party 'Z' in network"),
    "marginal-without-only-party": (lambda: marginal_without_party(lone(), "A"),
                                    NetworkError, "cannot marginalize the only party away"),
    "freeze-unknown-party": (lambda: freeze_outcomes(lone(), "Z"),
                             NetworkError, "no party 'Z' in network"),
    "relabel-merging-parties": (lambda: relabel_network(worked_network(), {"A1": "A2"}),
                                NetworkError, "party_map sends 'A1' and 'A2' both to 'A2'"),
    "relabel-merging-resources": (
        lambda: relabel_network(worked_network(), resource_map={"R1": "X", "R2": "X"}),
        NetworkError, "resource_map sends 'R1' and 'R2' both to 'X'"),
    "union-overlapping-parties": (lambda: union_network(lone(), lone()),
                                  NetworkError, "parties appear in both networks: ['A']"),
    # correlator inequalities: settings are symbols, counts integers >= 1
    "term-float-setting": (lambda: CorrelatorTerm(F(1), ("A", "B"), (1.5, 0)),
                           ValueError, "alphabet symbol 1.5 is not an integer"),
    "term-integral-float-setting": (lambda: CorrelatorTerm(F(1), ("A", "B"), (1.0, 0)),
                                    ValueError, "alphabet symbol 1.0 is not an integer"),
    "term-bool-setting": (lambda: CorrelatorTerm(F(1), ("A", "B"), (True, 0)),
                          ValueError, "alphabet symbol True is not an integer"),
    "correlator-bool-setting": (lambda: correlator(PR, ("A", "B"), (True, 0)),
                                ValueError, "alphabet symbol True is not an integer"),
    "correlator-float-setting": (lambda: correlator(PR, ("A", "B"), (0, 1.0)),
                                 ValueError, "alphabet symbol 1.0 is not an integer"),
    "inequality-float-count": (
        lambda: LinearInequality("t", (), F(1), {"A": 2.0, "B": 2}),
        InequalityError, "party 'A': settings count 2.0 is not an integer >= 1"),
    "inequality-bool-count": (
        lambda: LinearInequality("t", (), F(1), {"A": 2, "B": True}),
        InequalityError, "party 'B': settings count True is not an integer >= 1"),
    "inequality-zero-count": (
        lambda: LinearInequality("t", (), F(1), {"A": 0}),
        InequalityError, "party 'A': settings count 0 is not an integer >= 1"),
    "term-no-party": (lambda: CorrelatorTerm(F(1), (), ()),
                      ValueError, "a correlator term involves at least one party"),
    "term-repeated-party": (lambda: CorrelatorTerm(F(1), ("A", "A"), (0, 1)),
                            ValueError, "repeated party in correlator term ('A', 'A')"),
    "inequality-term-unknown-party": (
        lambda: LinearInequality("t", (CorrelatorTerm(F(1), ("Z",), (0,)),), F(1), {"A": 2}),
        InequalityError, "term names unknown party 'Z'"),
    "correlator-repeated-party": (lambda: correlator(PR, ("A", "A"), (0, 0)),
                                  ValueError, "repeated party in correlator ('A', 'A')"),
    "correlator-settings-count": (lambda: correlator(PR, ("A", "B"), (0,)),
                                  ValueError, "need exactly one setting per involved party"),
    "correlator-unknown-setting": (lambda: correlator(PR, ("A",), (5,)),
                                   KeyError, "\"party 'A' has no setting 5\""),
    "relabel-bool-setting": (lambda: relabel_output(mao_inequality(), "A", True),
                             ValueError, "alphabet symbol True is not an integer"),
    "relabel-unknown-party": (lambda: relabel_output(mao_inequality(), "Z", 0),
                              KeyError, "\"unknown party 'Z'\""),
    "relabel-unknown-setting": (lambda: relabel_output(mao_inequality(), "A", 5),
                                KeyError, "\"party 'A' has no setting 5\""),
    "swap-unknown-party": (lambda: swap_parties(mao_inequality(), "A", "Z"),
                           KeyError, "\"unknown party 'Z'\""),
    "functional-difference-mixed-signatures": (
        lambda: functional_difference(mao_inequality(), mao_inequality(), [TRI[0], TERNARY_C]),
        InequalityError, "behaviors 'det0' and 'ternary' differ in signature"),
    # a bool is not a probability; float entries are read naming the entry
    "frac-bool": (lambda: frac(True), TypeError,
                  "refusing to coerce bool True to an exact rational"),
    "exact-bool-entry": (
        lambda: NonsignalingResource.make("t", ("A",), [ONE], [BITS], {(0,): {(0,): True, (1,): 0}}),
        TableError, "resource 't': bad entry at input (0,), output (0,): "
                    "refusing to coerce bool True to an exact rational"),
    "float-bool-entry": (
        lambda: FloatBehavior("f", ("A",), [ONE], [BITS], {(0,): {(0,): True, (1,): 0.0}}),
        TableError, "resource 'f': bad entry at input (0,), output (0,): "
                    "refusing to read bool True as a probability"),
    "float-fraction-string-entry": (
        lambda: FloatBehavior("f", ("A",), [ONE], [BITS], {(0,): {(0,): 0.5, (1,): "1/2"}}),
        TableError, "resource 'f': bad entry at input (0,), output (1,): "
                    "could not convert string to float: '1/2'"),
    "float-none-entry": (
        lambda: FloatBehavior("f", ("A",), [ONE], [BITS], {(0,): {(0,): None, (1,): 1.0}}),
        TableError, "resource 'f': bad entry at input (0,), output (0,): "
                    "float() argument must be a string or a real number, not 'NoneType'"),
    "json-string-parties": (
        lambda: NonsignalingResource.from_json_dict({"id": "t", "parties": "A", "inputs": {},
                                                     "outputs": {}, "table": {}}),
        TypeError, "parties: expected a JSON list, got str"),
    # bins are a mapping per party, keyed by transcript tuples
    "bins-int-key": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": ONE}, bins={"A": {0: 0}}),
        NetworkError, "bins for 'A': 'int' object is not iterable"),
    "bins-list-of-pairs": (
        lambda: Network(("A",), [], {"A": bare()}, {"A": ONE}, bins={"A": [((), 0)]}),
        NetworkError, "bins for 'A': expected a mapping, got list"),
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


def test_functional_difference_answers_before_reading_behaviors():
    """Two scenarios that differ are a witness string, and an empty list of
    behaviors leaves nothing to differ on."""
    other = LinearInequality("t", (), F(4), {"A": 2})
    assert functional_difference(mao_inequality(), other, TRI) == \
        "scenario mismatch: {'A': 2, 'B': 2, 'C': 2} vs {'A': 2}"
    assert functional_difference(mao_inequality(), mao_inequality(), []) is None
