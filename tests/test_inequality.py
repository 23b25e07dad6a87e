"""Correlators, the named tripartite inequalities, and the derivation chain."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

import boxnet.inequality as inequality
from boxnet.inequality import (
    ChainStep,
    InequalityError,
    LinearInequality,
    _functional_step,
    _term,
    add,
    cao_inequality,
    cao_s14_linearized,
    chao_reichardt_correlator,
    chao_reichardt_probability_form,
    correlator,
    deterministic_behaviors,
    evaluate,
    evaluate_cao_s14,
    functional_difference,
    mao_inequality,
    relabel_output,
    swap_parties,
    verify_derivation_chain,
)
from boxnet.resource import (
    Alphabet,
    NonsignalingResource,
    SignalingError,
    frac,
    make_local_deterministic,
    make_pr_box,
)

F = Fraction
BITS = Alphabet((0, 1))


def all_plus_behavior(settings_counts={"A": 2, "B": 2, "C": 2}):
    parties = tuple(sorted(settings_counts))
    return make_local_deterministic(
        parties,
        [Alphabet(tuple(range(settings_counts[p]))) for p in parties],
        [BITS] * len(parties),
        {p: {s: 0 for s in range(settings_counts[p])} for p in parties},
        id="all-plus")


def uniform_behavior():
    table = {x: {a: F(1, 8) for a in product((0, 1), repeat=3)}
             for x in product((0, 1), repeat=3)}
    return NonsignalingResource.make("uniform", ("A", "B", "C"),
                                     [BITS] * 3, [BITS] * 3, table)


def test_named_inequality_coefficients():
    mao = mao_inequality()
    assert [t.coefficient for t in mao.terms] == [1, 1, 1, -1, 2]
    assert mao.bound == 4
    assert mao.coefficient_of(A=0, C=0) == 2
    assert mao.coefficient_of(A=1, B=1, C=1) == -1
    assert mao.coefficient_of(A=1, C=0) == 0

    cr = chao_reichardt_correlator()
    assert [t.coefficient for t in cr.terms] == [1, 1, 1, -1, 4]
    assert cr.bound == 6

    cao = cao_inequality()
    assert [t.coefficient for t in cao.terms] == [1, 1, -1, -1, 4, 2, 2]
    assert cao.bound == 8

    s14 = cao_s14_linearized()
    assert [t.coefficient for t in s14.terms] == [1, 1, 1, -1, 1, 1]
    assert s14.bound == 6
    assert s14.settings_counts == {"A": 2, "B": 3, "C": 2}


def test_term_canonicalization():
    assert _term(1, C=1, A=0).parties == ("A", "C")
    assert _term(1, C=1, A=0).settings == (0, 1)
    assert _term(1, C=1, A=0) == _term(1, A=0, C=1)
    with pytest.raises(ValueError, match="one setting per"):
        from boxnet.inequality import CorrelatorTerm
        CorrelatorTerm(frac(1), ("A", "B"), (0,))


def test_out_of_range_setting_rejected():
    with pytest.raises(InequalityError, match="out of range"):
        LinearInequality("bad", (_term(1, A=2, B=0),), frac(1),
                         {"A": 2, "B": 2})


def test_correlators_on_all_plus():
    b = all_plus_behavior()
    for parties in (("A",), ("A", "B"), ("B", "C"), ("A", "B", "C")):
        for settings in product((0, 1), repeat=len(parties)):
            assert correlator(b, parties, settings) == 1


def test_correlators_on_uniform():
    b = uniform_behavior()
    for parties in (("A",), ("A", "B"), ("A", "B", "C")):
        for settings in product((0, 1), repeat=len(parties)):
            assert correlator(b, parties, settings) == 0


def test_pr_box_correlators():
    pr = make_pr_box()
    assert correlator(pr, ("A", "B"), (0, 0)) == 1
    assert correlator(pr, ("A", "B"), (0, 1)) == 1
    assert correlator(pr, ("A", "B"), (1, 0)) == 1
    assert correlator(pr, ("A", "B"), (1, 1)) == -1
    assert correlator(pr, ("A",), (0,)) == 0


def test_correlator_refuses_signaling():
    onesided = {(x,): {(x,): F(1), (1 - x,): F(0)} for x in (0, 1)}
    table = {(x, y): {(a, b): onesided[(y,)][(a,)] * F(1, 2)
                      for a in (0, 1) for b in (0, 1)}
             for x in (0, 1) for y in (0, 1)}
    sig = NonsignalingResource.new_unchecked("sig", ("A", "B"),
                                             [BITS] * 2, [BITS] * 2, table)
    with pytest.raises(SignalingError):
        correlator(sig, ("A", "B"), (0, 0))


def test_correlator_rejects_nonbinary_outcomes():
    tern = NonsignalingResource.make(
        "tern", ("A",), [Alphabet((0,))], [Alphabet((0, 1, 2))],
        {(0,): {(0,): F(1, 3), (1,): F(1, 3), (2,): F(1, 3)}})
    with pytest.raises(InequalityError, match="binary"):
        correlator(tern, ("A",), (0,))


def test_correlator_matches_explicit_marginal():
    # Pinning uninvolved settings must agree with marginalizing them out.
    from boxnet.resource import marginal
    b = uniform_behavior()
    pr = make_pr_box(parties=("A", "B"))
    for x, y in product((0, 1), repeat=2):
        via_pin = correlator(b, ("A", "B"), (x, y))
        two_party = marginal(b, ("A", "B"))
        assert via_pin == correlator(two_party, ("A", "B"), (x, y))
    del pr


def test_evaluate_boundary_and_uniform():
    mao = mao_inequality()
    at_plus = evaluate(mao, all_plus_behavior())
    assert at_plus.value == 4 and at_plus.satisfied
    at_uniform = evaluate(mao, uniform_behavior())
    assert at_uniform.value == 0 and at_uniform.satisfied


def test_evaluate_signature_mismatch():
    mao = mao_inequality()
    with pytest.raises(InequalityError, match="do not match"):
        evaluate(mao, make_pr_box())  # two parties only
    b232 = all_plus_behavior({"A": 2, "B": 3, "C": 2})
    with pytest.raises(InequalityError, match="settings"):
        evaluate(mao, b232)
    with pytest.raises(InequalityError, match="settings"):
        evaluate(cao_s14_linearized(), all_plus_behavior())


def test_probability_form_values():
    at_plus = chao_reichardt_probability_form(all_plus_behavior())
    assert at_plus.value == 1 and at_plus.satisfied and at_plus.direction == ">="
    at_uniform = chao_reichardt_probability_form(uniform_behavior())
    assert at_uniform.value == 4 and at_uniform.satisfied


def test_s14_on_all_plus():
    ev = evaluate_cao_s14(all_plus_behavior({"A": 2, "B": 3, "C": 2}))
    assert ev.value == 4 and ev.satisfied


def test_s14_independent_coin_matches_unconditional():
    # A and B always answer 0; C is a fair coin ignoring its setting.
    # Conditioning on C's outcome then changes nothing, so the two groups
    # average to (1+1-1+1)/2 + (1+1+1-1)/2 = 2 and the tail adds
    # <A0B2> + <B2C0> = 1 + 0.
    table = {}
    for x, y, z in product((0, 1), (0, 1, 2), (0, 1)):
        table[(x, y, z)] = {(a, b, c): (F(1, 2) if a == 0 and b == 0 else F(0))
                            for a, b, c in product((0, 1), repeat=3)}
    b = NonsignalingResource.make(
        "indep", ("A", "B", "C"),
        [BITS, Alphabet((0, 1, 2)), BITS], [BITS] * 3, table)
    ev = evaluate_cao_s14(b)
    assert ev.value == 3 and ev.satisfied


def test_relabel_output_flips_matching_terms():
    mao = mao_inequality()
    flipped = relabel_output(mao, "B", 1)
    assert [t.coefficient for t in flipped.terms] == [1, -1, 1, 1, 2]
    assert flipped.bound == 4
    again = relabel_output(flipped, "B", 1)
    assert again.terms == mao.terms and again.bound == mao.bound


def relabel_behavior(b, party, setting):
    i = b.parties.index(party)
    table = {}
    for x, col in b.table.items():
        flip = x[i] == setting
        table[x] = {
            tuple(o ^ 1 if j == i and flip else o for j, o in enumerate(outs)): v
            for outs, v in col.items()}
    return NonsignalingResource.make(f"{b.id}~", b.parties, b.input_alphabets,
                                     b.output_alphabets, table)


def swap_behavior(b, p, q):
    i, j = b.parties.index(p), b.parties.index(q)

    def flip(t):
        t = list(t)
        t[i], t[j] = t[j], t[i]
        return tuple(t)

    table = {flip(x): {flip(a): v for a, v in col.items()}
             for x, col in b.table.items()}
    return NonsignalingResource.make(f"{b.id}<>", b.parties, b.input_alphabets,
                                     b.output_alphabets, table)


def test_relabel_commutation_law():
    mao = mao_inequality()
    flipped = relabel_output(mao, "B", 1)
    for b in deterministic_behaviors({"A": 2, "B": 2, "C": 2}):
        assert evaluate(flipped, b).value == evaluate(mao, relabel_behavior(b, "B", 1)).value


def test_swap_commutation_law():
    mao = mao_inequality()
    swapped = swap_parties(mao, "A", "C")
    for b in deterministic_behaviors({"A": 2, "B": 2, "C": 2}):
        assert evaluate(swapped, b).value == evaluate(mao, swap_behavior(b, "A", "C")).value


def test_add_merges_and_sums_bounds():
    mao = mao_inequality()
    relabeled = relabel_output(mao, "B", 1)
    summed = add(relabeled, swap_parties(relabeled, "A", "C"))
    assert summed.bound == 8
    assert summed.coefficient_of(A=0, C=0) == 4
    assert summed.coefficient_of(A=1, B=0, C=1) == 2
    assert summed.coefficient_of(A=1, B=1, C=1) == 2
    # Adding mao to its own relabeling cancels the flipped terms entirely.
    cancel = add(mao, relabeled)
    assert cancel.coefficient_of(A=0, B=1) == 0
    assert len(cancel.terms) == 3


def test_add_zero_is_identity():
    mao = mao_inequality()
    zero = LinearInequality("zero", (), frac(0), {"A": 2, "B": 2, "C": 2})
    same = add(mao, zero)
    assert same.terms == mao.terms and same.bound == mao.bound


def test_add_scenario_mismatch():
    with pytest.raises(InequalityError, match="different scenarios"):
        add(mao_inequality(), cao_s14_linearized())


def test_all_vertices_satisfy_the_inequalities():
    v222 = deterministic_behaviors({"A": 2, "B": 2, "C": 2})
    assert len(v222) == 64
    mao, cr, cao = mao_inequality(), chao_reichardt_correlator(), cao_inequality()
    for b in v222:
        assert evaluate(mao, b).satisfied
        assert evaluate(cr, b).satisfied
        assert evaluate(cao, b).satisfied
        assert chao_reichardt_probability_form(b).satisfied
    v232 = deterministic_behaviors({"A": 2, "B": 3, "C": 2})
    assert len(v232) == 128
    for b in v232:
        assert evaluate_cao_s14(b).satisfied
    # Boundaries are reached: each bound is attained by some vertex.
    assert max(evaluate(mao, b).value for b in v222) == 4
    assert max(evaluate(cr, b).value for b in v222) == 6
    assert max(evaluate(cao, b).value for b in v222) == 8
    # The conditional form's deterministic maximum sits strictly below its
    # bound: the four-correlator group peaks at 2 on deterministic points
    # and the tail at 2, so 4 is the best a vertex can do.
    assert max(evaluate_cao_s14(b).value for b in v232) == 4


def test_derivation_chain_passes():
    report = verify_derivation_chain()
    assert len(report.steps) == 6
    assert report.all_passed
    assert [s.name for s in report.steps] == ["a", "b", "c", "d", "e", "f"]
    text = str(report)
    assert text.count("PASS") == 6 and "FAIL" not in text


def test_chain_negative_control():
    # A deliberately corrupted coefficient must be caught with a witness.
    mao = mao_inequality()
    corrupted = LinearInequality(
        "corrupt",
        (_term(1, A=0, B=0), _term(1, A=0, B=1), _term(1, A=1, B=0, C=1),
         _term(1, A=1, B=1, C=1), _term(2, A=0, C=0)),  # sign flipped
        frac(4), {"A": 2, "B": 2, "C": 2})
    behaviors = deterministic_behaviors({"A": 2, "B": 2, "C": 2})
    step = _functional_step("x", "corrupted comparison",
                            relabel_output(mao, "B", 1), corrupted, behaviors)
    assert isinstance(step, ChainStep)
    assert not step.passed
    assert step.witness is not None and "behavior" in step.witness
    # Bound corruption is caught too.
    wrong_bound = LinearInequality("wb", mao.terms, frac(5), mao.settings_counts)
    assert functional_difference(mao, wrong_bound, behaviors) is not None


def wrong_cr_corr() -> LinearInequality:
    """The correlator form with <A0C0>'s coefficient 3 instead of 4."""
    right = chao_reichardt_correlator()
    return LinearInequality(right.name, right.terms[:-1] + (_term(3, A=0, C=0),),
                            right.bound, right.settings_counts)


def test_chain_reports_a_wrong_correlator_form(monkeypatch):
    # The probability form's own identity check raises on the wrong form;
    # step (d) reports that as its witness, so step (c)'s FAIL is kept too.
    monkeypatch.setattr(inequality, "chao_reichardt_correlator", wrong_cr_corr)
    report = verify_derivation_chain()
    assert [s.name for s in report.steps] == list("abcdef")
    assert [s.name for s in report.steps if not s.passed] == ["c", "d"]
    step_d = report.steps[3]
    assert step_d.witness.startswith("behavior det")
    assert "probability and correlator forms disagree" in step_d.witness


def test_chain_reports_a_wrong_linear_twin(monkeypatch):
    # <B2C0> with coefficient 2: on det0 (every outcome +1) the twin reads
    # 5 where the conditional form reads 4, and only step (e) fails.
    right = cao_s14_linearized()
    wrong = LinearInequality(right.name, right.terms[:-1] + (_term(2, B=2, C=0),),
                             right.bound, right.settings_counts)
    monkeypatch.setattr(inequality, "cao_s14_linearized", lambda: wrong)
    report = verify_derivation_chain()
    assert [s.name for s in report.steps if not s.passed] == ["e"]
    assert report.steps[4].witness == "behavior det0: 4 != 5"


def test_wired_pr_networks_respect_mao():
    import random

    from boxnet.network import induced_behavior
    from netgen import random_wired_pairwise_network

    mao = mao_inequality()
    rng = random.Random(5)
    hit_binary = 0
    for i in range(20):
        net = random_wired_pairwise_network(rng, name=f"w{i}")
        beh = induced_behavior(net)
        try:
            ev = evaluate(mao, beh)
        except InequalityError:
            continue  # a party with a single-valued outcome alphabet is fine
        hit_binary += 1
        assert ev.satisfied, f"network {net.name} broke the bound: {ev.value}"
    assert hit_binary >= 10
