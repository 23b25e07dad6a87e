"""The plain records are ``NamedTuple``s, and keep what a dataclass gave them.

A record with fields is a non-empty tuple, so it is true unless its class
says otherwise: ``ValidationReport``, ``Infeasible`` and ``LocalityResult``
do.  Fields are read-only; trees, witnesses and reports pickle; a
terminal's ``repr`` names its field, and its hash is its tuple's.
A tree whose symbols are numpy integers is still a tree.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import numpy as np
import pytest

from boxnet.decompose import Infeasible, LocalityResult
from boxnet.ghz import QuantumStrategy, SearchResult
from boxnet.inequality import ChainReport, ChainStep, Evaluation
from boxnet.network import JointDistribution, Network
from boxnet.resource import (
    Alphabet,
    SignalingWitness,
    ValidationReport,
    make_pr_box,
    validate_nonsignaling,
)
from boxnet.wiring import DecisionTree, Internal, PathTrace, Terminal, trace_path, validate_tree

F = Fraction
BITS = Alphabet((0, 1))
PR = make_pr_box()
TREE = DecisionTree("A", {0: Internal("PR", 0, {0: Terminal(0), 1: Terminal(1)})},
                    frozenset({"PR"}))
WITNESS = SignalingWitness("A", {"B": 0}, (0, 1), (0,), (F(1, 2), F(1, 3)))

RECORDS = {
    "terminal": Terminal(1),
    "internal": TREE.root[0],
    "tree": TREE,
    "path-trace": PathTrace({"PR": 0}, ("PR",), 1),
    "witness": WITNESS,
    "report": ValidationReport.fail(["bad"], WITNESS),
    "joint-distribution": JointDistribution((0,), {((0,),): F(1)}, F(1)),
    "evaluation": Evaluation(F(4), F(4), "<=", True),
    "chain-step": ChainStep("step", "what it checks", True),
    "chain-report": ChainReport((ChainStep("step", "what it checks", True),)),
    "search-result": SearchResult(QuantumStrategy.from_angles({"A": [0.0]}), 1.0),
    "infeasible": Infeasible({((0,), (0,)): F(1)}, F(0), F(1)),
    "locality-result": LocalityResult(False),
}


def test_a_record_is_false_only_where_its_class_says():
    assert not ValidationReport.fail(["bad"])
    assert not Infeasible({}, F(0), F(1))
    assert not LocalityResult(False)
    assert ValidationReport.ok() and LocalityResult(True)
    assert all(RECORDS[k] for k in ("terminal", "tree", "witness", "chain-report"))


def test_an_ok_report_has_its_own_error_list():
    first, second = ValidationReport.ok(), ValidationReport.ok()
    assert first == (True, [], None) and first.errors is not second.errors
    assert validate_nonsignaling(PR) == first


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_fields_are_read_only(record):
    name = next(iter(type(record).__annotations__))   # read outside the raises block
    with pytest.raises(AttributeError):
        setattr(record, name, None)


@pytest.mark.parametrize("record", [TREE, WITNESS, RECORDS["report"]],
                         ids=["tree", "witness", "report"])
def test_pickle_round_trips(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert str(back) == str(record)


def test_terminal_repr_and_hash():
    assert repr(Terminal(1)) == "Terminal(outcome=1)"
    assert repr(Terminal()) == "Terminal(outcome=None)"
    # the hash of the tuple of its fields, the same in every process
    assert hash(Terminal(1)) == hash(Terminal(1)) == hash((1,))
    assert {Terminal(1): "x"}[Terminal(1)] == "x"


def test_witness_and_chain_report_keep_their_text():
    assert str(WITNESS) == ("party 'A' signals: at context {'B': 0}, inputs 0 vs 1 give "
                            "marginal 1/2 vs 1/3 on outputs (0,)")
    report = ChainReport((ChainStep("s1", "first", True), ChainStep("s2", "second", False, "why")))
    assert str(report) == "s1: PASS  first\ns2: FAIL  second  [why]"
    assert not report.all_passed


def test_numpy_integer_symbols_make_a_tree():
    x = np.int64
    tree = DecisionTree("A", {x(0): Internal("PR", x(1), {x(0): Terminal(), x(1): Terminal()}),
                              1: Internal("PR", 0, {0: Terminal(), 1: Terminal()})},
                        frozenset({"PR"}))
    assert validate_tree(tree, BITS, {"PR": PR})
    other = DecisionTree("B", {0: Internal("PR", 0, {0: Terminal(), 1: Terminal()})},
                         frozenset({"PR"}))
    net = Network(("A", "B"), [PR], {"A": tree, "B": other}, {"A": BITS, "B": Alphabet((0,))})
    assert net.outcome_alphabet("A") == BITS
    assert trace_path(tree, 0, {"PR": 1}).inputs == {"PR": 1}
