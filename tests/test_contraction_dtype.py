"""The int64/object choice of ``network._contract_network`` against the
rule it replaced.

The rule was computed on every call from a label -> size dict over the
operands: int64 when the product of the resources' denominators times
the product of the summed labels' sizes is below 2**63, Python ints
otherwise.  The product is now read from the cached plan's ``summed``.
On every network that ``test_contraction_reference`` builds, and on
both sides of the 2**63 boundary, each contraction must see the old
rule's product and receive operands of the old rule's dtype.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import prod

import numpy as np

from boxnet import network
from boxnet.network import Network, NetworkError, induced_behavior, joint_distribution
from boxnet.resource import make_pr_box, make_shared_randomness

from netgen import BITS, random_tree
from test_contraction_reference import all_built_networks, labelled_contractions


def checking_contract(monkeypatch, den_of) -> list[str]:
    """Replace ``network._contract`` with a check of each call against
    the sizes-dict rule, ``den_of()`` giving the current product of
    denominators; returns the list of dtype kinds seen, in call order."""
    planned = network._contract
    seen = []

    def check(operands, output, plan):
        sizes = {l: n for arr, labels in operands for l, n in zip(labels, arr.shape)}
        summed = prod(n for l, n in sizes.items() if l not in set(output))
        want = np.dtype(np.int64 if den_of() * summed < 2 ** 63 else object)
        assert plan.summed == summed
        assert {arr.dtype for arr, _ in operands} == {want}
        seen.append(want.kind)
        return planned([arr for arr, _ in operands], plan)

    labelled_contractions(monkeypatch, check)
    return seen


def test_plan_read_dtype_matches_the_sizes_dict_rule(monkeypatch):
    nets = all_built_networks(monkeypatch)
    assert len(nets) == 97
    net = None
    seen = checking_contract(monkeypatch, lambda: prod(r.denominator for r in net.resources))
    for net in nets:
        for settings in net.settings_space():
            joint_distribution(net, settings, allow_unnormalized=True)
        if all(r.nonsignaling_checked for r in net.resources):
            try:
                induced_behavior(net)
            except NetworkError as err:   # the forged paradox, after its contraction
                assert "at settings (1, 0) sums to 0" in str(err)
    kinds = Counter(seen)
    assert kinds["i"] > 500 and kinds["O"] == 5


def test_dtype_turns_to_object_where_the_bound_reaches_two_to_the_63(monkeypatch):
    """A PR box and a coin of denominator d, so the denominators' product
    is 2d.  The induced behavior sums out 64 label values: d = 2**56 is
    the first coin that needs Python ints.  A joint distribution sums out
    only the 4 input values but keeps 16 output values: there the
    boundary is d = 2**60."""
    rng = random.Random(3)
    kinds = []
    for d in (2 ** 56 - 1, 2 ** 56, 2 ** 60 - 1, 2 ** 60):
        resources = {"g": make_pr_box(id="g"),
                     "c": make_shared_randomness(("A", "B"), {(0, 0): Fraction(1, d),
                                                             (1, 1): 1 - Fraction(1, d)}, id="c")}
        trees = {p: random_tree(rng, p, set(resources), (0, 1), resources) for p in "AB"}
        net = Network(("A", "B"), list(resources.values()), trees, {"A": BITS, "B": BITS})
        with monkeypatch.context() as m:
            seen = checking_contract(m, lambda: 2 * d)
            induced_behavior(net)
            joint_distribution(net, (0, 1))
        kinds.append("".join(seen))
    assert kinds == ["ii", "Oi", "Oi", "OO"]   # (behavior, joint) per coin
