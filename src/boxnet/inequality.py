"""Correlator inequalities for binary-outcome parties.

Correlators use the sign convention outcome symbol 0 -> +1, symbol
1 -> -1.  A ``LinearInequality`` is an exact-rational combination of
correlator terms with an upper bound.  The module ships the named
tripartite inequalities (``mao``, the two Chao-Reichardt forms, ``cao``
and its three-setting conditional variant ``cao-s14``), the
outcome-relabeling and party-swap transforms that connect them, and
``verify_derivation_chain``, which re-derives each inequality from the
previous one and checks the results agree as linear functionals on the
deterministic spanning set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Mapping, Sequence, Union

import numpy as np

from .resource import Alphabet, NonsignalingResource, ProbabilityTable, _symbol, frac

#: Either behavior kind: an exact ``NonsignalingResource`` or a ``FloatBehavior``.
Behavior = ProbabilityTable

#: Outcome symbol -> the +/-1 value it stands for in correlators.
SIGN = {0: 1, 1: -1}


class InequalityError(ValueError):
    """An inequality and a behavior (or two inequalities) do not fit together."""


@dataclass(frozen=True)
class CorrelatorTerm:
    """One ``coefficient * <P_s Q_t ...>`` summand.

    ``parties`` and ``settings`` are aligned and stored sorted by party
    name, so terms that mean the same product compare equal.  Each setting
    is parsed by ``_symbol``: an integer, not a ``bool`` or a float.
    """

    coefficient: Fraction
    parties: tuple[str, ...]
    settings: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parties:
            raise ValueError("a correlator term involves at least one party")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError(f"repeated party in correlator term {self.parties}")
        if len(self.settings) != len(self.parties):
            raise ValueError("need exactly one setting per involved party")
        order = sorted(range(len(self.parties)), key=lambda i: self.parties[i])
        object.__setattr__(self, "coefficient", frac(self.coefficient))
        object.__setattr__(self, "parties", tuple(self.parties[i] for i in order))
        settings = tuple(map(_symbol, self.settings))
        object.__setattr__(self, "settings", tuple(settings[i] for i in order))

    @property
    def support(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        return (self.parties, self.settings)


def _term(coefficient: Union[int, Fraction], **setting_by_party: int) -> CorrelatorTerm:
    return CorrelatorTerm(frac(coefficient), tuple(setting_by_party),
                          tuple(setting_by_party.values()))


@dataclass(frozen=True)
class LinearInequality:
    """``sum(coefficient * correlator) <= bound`` over a fixed scenario.

    ``settings_counts`` pins the scenario (number of settings per party,
    binary outcomes), so inequalities for different scenarios cannot be
    evaluated, added, or compared by accident.  Each count is an integer
    of at least 1 (not a ``bool`` or a float).
    """

    name: str
    terms: tuple[CorrelatorTerm, ...]
    bound: Fraction
    settings_counts: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "bound", frac(self.bound))
        counts = dict(self.settings_counts)
        for p, c in counts.items():
            if isinstance(c, bool) or not hasattr(c, "__index__") or c < 1:
                raise InequalityError(f"party {p!r}: settings count {c!r} is not an integer >= 1")
            counts[p] = int(c)
        object.__setattr__(self, "settings_counts", counts)
        for t in self.terms:
            for p, s in zip(t.parties, t.settings):
                if p not in self.settings_counts:
                    raise InequalityError(f"term names unknown party {p!r}")
                if not 0 <= s < self.settings_counts[p]:
                    raise InequalityError(
                        f"setting {s} out of range for party {p!r} "
                        f"(has {self.settings_counts[p]} settings)")

    def coefficient_of(self, **setting_by_party: int) -> Fraction:
        """Coefficient of the term with exactly this support (0 if absent)."""
        probe = _term(1, **setting_by_party)
        for t in self.terms:
            if t.support == probe.support:
                return t.coefficient
        return Fraction(0)


@dataclass(frozen=True)
class Evaluation:
    """Left-hand-side value of an inequality on one behavior."""

    value: Union[Fraction, float]
    bound: Fraction
    direction: str  # "<=" or ">="
    satisfied: bool


def _require_binary(b: Behavior, p: str) -> None:
    if not set(b.output_alphabet(p)) <= {0, 1}:
        raise InequalityError(
            f"party {p!r} outcomes {b.output_alphabet(p)} are not "
            "within {0, 1}; correlators need binary +/-1 outcomes")


def _check_scenario(b: Behavior, settings_counts: Mapping[str, int]) -> None:
    if set(b.parties) != set(settings_counts):
        raise InequalityError(
            f"behavior parties {sorted(b.parties)} do not match the "
            f"inequality's parties {sorted(settings_counts)}")
    for p, count in settings_counts.items():
        have = b.input_alphabet(p)
        if have != tuple(range(count)):
            raise InequalityError(
                f"party {p!r} has settings {have}, inequality needs "
                f"{tuple(range(count))}")
        _require_binary(b, p)


def _running_sum(values: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right from 0.0 as the
    built-in ``sum`` of Python 3.11 adds floats; ``np.sum`` and ``@``
    round in another order."""
    start = np.zeros(values.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, values], axis=-1), axis=-1)[..., -1]


def _term_rows(b: Behavior, supports: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Each (parties, settings) correlator compiled for b's signature: the
    flat row of its input tuple (other parties at their first setting) and
    its +/-1 sign over the flat outputs, read from each output symbol.
    Both arrays are read-only and shared by every behavior of the same
    parties and alphabets."""
    supports = tuple((tuple(parties), tuple(settings)) for parties, settings in supports)
    return _compiled_rows(supports, b.parties, b.input_alphabets, b.output_alphabets)


@lru_cache(maxsize=256)
def _compiled_rows(supports: tuple[tuple[tuple, tuple], ...], parties: tuple[str, ...],
                   input_alphabets: tuple[Alphabet, ...],
                   output_alphabets: tuple[Alphabet, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``_term_rows`` for one signature, cached."""
    rows, signs = [], []
    outputs = list(product(*output_alphabets))
    for term_parties, settings in supports:
        idx = [parties.index(p) for p in term_parties]
        x = [0] * len(parties)
        for i, s in zip(idx, settings):
            x[i] = input_alphabets[i].index(s)
        rows.append(int(np.ravel_multi_index(x, [len(a) for a in input_alphabets])))
        signs.append([prod(SIGN[a[i]] for i in idx) for a in outputs])
    rows = np.array(rows, dtype=np.intp)
    signs = np.array(signs, dtype=np.int64).reshape(len(rows), len(outputs))
    rows.flags.writeable = signs.flags.writeable = False
    return rows, signs


def _dots(behaviors: Sequence[Behavior], rows: Sequence[int], vectors: np.ndarray) -> np.ndarray:
    """``sum(vector * column)`` at each input row (one vector per row, or
    one for all) of behaviors of one kind and signature: a (behaviors x
    rows) array of integers over each exact behavior's denominator (a
    +/-1 or 0/1 vector keeps each within it, so int64 numerators do not
    overflow), or of floats added left to right."""
    width = vectors.shape[-1]
    if isinstance(behaviors[0], NonsignalingResource):
        cols = np.stack([b.numerators.reshape(-1, width)[rows] for b in behaviors])
        return (vectors * cols).sum(axis=-1)
    cols = np.stack([b.probabilities.reshape(-1, width)[rows] for b in behaviors])
    return _running_sum(vectors * cols)


def _values(ineq: LinearInequality, behaviors: Sequence[Behavior]) -> list:
    """The left side on behaviors of one kind and signature: all terms'
    correlators in one array, then one product with the coefficients.  On
    exact behaviors the correlators stay integers over each denominator and
    the coefficients are taken over their lcm, so the product is in
    integers and each value one ``Fraction``."""
    corrs = _dots(behaviors, *_term_rows(behaviors[0], [t.support for t in ineq.terms]))
    if isinstance(behaviors[0], NonsignalingResource):
        scale = lcm(*(t.coefficient.denominator for t in ineq.terms))
        ks = [t.coefficient.numerator * (scale // t.coefficient.denominator) for t in ineq.terms]
        return [Fraction(sum(map(mul, ks, row)), scale * b.denominator)
                for row, b in zip(corrs.tolist(), behaviors)]
    return _running_sum(corrs * [float(t.coefficient) for t in ineq.terms]).tolist()


def correlator(b: Behavior, parties: Sequence[str],
               settings: Sequence[int]) -> Union[Fraction, float]:
    """Expected product of the named parties' +/-1 outcomes at the given
    settings.

    Parties not named are summed out, with their settings pinned to the
    first value of their alphabet -- immaterial for a nonsignaling
    behavior, which is why signaling behaviors are refused (the marginal
    would be ambiguous).  Works for exact tables and for float tables
    that passed a nonsignaling check at construction.
    """
    b.require_nonsignaling("correlator")
    if len(set(parties)) != len(parties):
        raise ValueError(f"repeated party in correlator {tuple(parties)}")
    if len(settings) != len(parties):
        raise ValueError("need exactly one setting per involved party")
    settings = tuple(map(_symbol, settings))
    for p, s in zip(parties, settings):
        if s not in b.input_alphabet(p):
            raise KeyError(f"party {p!r} has no setting {s}")
        _require_binary(b, p)
    value = _dots([b], *_term_rows(b, [(parties, settings)])).tolist()[0][0]
    return Fraction(value, b.denominator) if isinstance(b, NonsignalingResource) else value


def evaluate(ineq: LinearInequality, b: Behavior, *,
             atol: Union[Fraction, float] = 0) -> Evaluation:
    """Value of the inequality's left side on ``b`` and whether the bound
    holds.  ``atol`` loosens the satisfaction test (``value <= bound +
    atol``) for floating-point behaviors; leave it 0 for exact ones."""
    _check_scenario(b, ineq.settings_counts)
    b.require_nonsignaling("correlator")
    value = _values(ineq, [b])[0]
    return Evaluation(value=value, bound=ineq.bound, direction="<=",
                      satisfied=value <= ineq.bound + atol)


# ---------------------------------------------------------------------------
# The named tripartite inequalities.  Every party has binary outcomes;
# A and C have two settings, B has two (or, for the cao-s14 forms, three).


def mao_inequality() -> LinearInequality:
    """<A0B0> + <A0B1> + <A1B0C1> - <A1B1C1> + 2<A0C0> <= 4."""
    return LinearInequality(
        name="mao",
        terms=(
            _term(1, A=0, B=0),
            _term(1, A=0, B=1),
            _term(1, A=1, B=0, C=1),
            _term(-1, A=1, B=1, C=1),
            _term(2, A=0, C=0),
        ),
        bound=frac(4),
        settings_counts={"A": 2, "B": 2, "C": 2},
    )


def chao_reichardt_correlator() -> LinearInequality:
    """<A0B0> + <A0B1> + <A1B0C1> - <A1B1C1> + 4<A0C0> <= 6."""
    return LinearInequality(
        name="cr-corr",
        terms=(
            _term(1, A=0, B=0),
            _term(1, A=0, B=1),
            _term(1, A=1, B=0, C=1),
            _term(-1, A=1, B=1, C=1),
            _term(4, A=0, C=0),
        ),
        bound=frac(6),
        settings_counts={"A": 2, "B": 2, "C": 2},
    )


def cao_inequality() -> LinearInequality:
    """<A0B0> + <B0C0> - <A0B1> - <B1C0> + 4<A0C0> + 2<A1B0C1> +
    2<A1B1C1> <= 8."""
    return LinearInequality(
        name="cao",
        terms=(
            _term(1, A=0, B=0),
            _term(1, B=0, C=0),
            _term(-1, A=0, B=1),
            _term(-1, B=1, C=0),
            _term(4, A=0, C=0),
            _term(2, A=1, B=0, C=1),
            _term(2, A=1, B=1, C=1),
        ),
        bound=frac(8),
        settings_counts={"A": 2, "B": 2, "C": 2},
    )


def cao_s14_linearized() -> LinearInequality:
    """Fully linear twin of ``evaluate_cao_s14``: <A0B0> + <A0B1> +
    <A1B0C1> - <A1B1C1> + <A0B2> + <B2C0> <= 6, for B with a third
    setting."""
    return LinearInequality(
        name="cao-s14-linear",
        terms=(
            _term(1, A=0, B=0),
            _term(1, A=0, B=1),
            _term(1, A=1, B=0, C=1),
            _term(-1, A=1, B=1, C=1),
            _term(1, A=0, B=2),
            _term(1, B=2, C=0),
        ),
        bound=frac(6),
        settings_counts={"A": 2, "B": 3, "C": 2},
    )


def chao_reichardt_probability_form(b: Behavior, *,
                                    atol: Union[Fraction, float] = 0) -> Evaluation:
    """4 P(A!=C|00) + P(A!=B|00) + P(A!=B|01) + P(ABC=-1|101) +
    P(ABC=+1|111) >= 1.

    Each probability is read from its correlator c as (1 - c)/2 (or
    (1 + c)/2 for P(ABC=+1)), so the value is an affine expansion of five
    correlators.  Every call checks that expansion against the
    coefficients of ``chao_reichardt_correlator()``: the identity
    ``value = 4 - correlator_value/2`` must hold, else ``AssertionError``.
    """
    _check_scenario(b, {"A": 2, "B": 2, "C": 2})
    half = Fraction(1, 2)
    value = (4 * (1 - correlator(b, ("A", "C"), (0, 0))) * half
             + (1 - correlator(b, ("A", "B"), (0, 0))) * half
             + (1 - correlator(b, ("A", "B"), (0, 1))) * half
             + (1 - correlator(b, ("A", "B", "C"), (1, 0, 1))) * half
             + (1 + correlator(b, ("A", "B", "C"), (1, 1, 1))) * half)
    corr = evaluate(chao_reichardt_correlator(), b).value
    if abs(value - (4 - corr * half)) > (1e-9 if isinstance(value, float) else 0):
        raise AssertionError(
            f"probability and correlator forms disagree: {value} vs 4 - {corr}/2")
    return Evaluation(value=value, bound=frac(1), direction=">=",
                      satisfied=value >= 1 - atol)


def evaluate_cao_s14(b: Behavior, *,
                     atol: Union[Fraction, float] = 0) -> Evaluation:
    """Conditional two-group form of the seven-term inequality, for B
    with a third setting:

        (1 - <C1>)/2 * (<A0B0> + <A0B1> - <A1B0> + <A1B1> | C=-1, z=1)
      + (1 + <C1>)/2 * (<A0B0> + <A0B1> + <A1B0> - <A1B1> | C=+1, z=1)
      + <A0B2> + <B2C0>  <=  6

    The conditional correlators are computed by honest division by the
    conditioning probability in each context; a group whose conditioning
    event has probability zero contributes zero (its prefactor
    vanishes).  ``cao_s14_linearized`` evaluates the same functional
    without any conditioning.
    """
    _check_scenario(b, {"A": 2, "B": 3, "C": 2})
    ia, ib, ic = (b.party_index(p) for p in ("A", "B", "C"))
    c1 = correlator(b, ("C",), (1,))
    half = Fraction(1, 2)
    # Group patterns over the (x, y) settings pairs, keyed by C's outcome
    # symbol (symbol 1 stands for C=-1, symbol 0 for C=+1).
    patterns = {
        1: {(0, 0): 1, (0, 1): 1, (1, 0): -1, (1, 1): 1},
        0: {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1},
    }
    prefactor = {1: (1 - c1) * half, 0: (1 + c1) * half}
    outs = list(b.output_space())
    ab = np.array([SIGN[a[ia]] * SIGN[a[ib]] for a in outs])
    value = 0
    for c, pattern in patterns.items():
        if prefactor[c] == 0:
            continue
        # Per context (x, y, z=1): the numerator <AB; C=c> and the
        # denominator P(C=c) of the conditional correlator.
        given = np.array([a[ic] == c for a in outs], dtype=np.int64)
        rows = _term_rows(b, [(("A", "B", "C"), (x, y, 1)) for x, y in pattern])[0]
        nums, dens = (_dots([b], rows, v).tolist()[0] for v in (ab * given, given))
        group = 0
        for sign, num, den in zip(pattern.values(), nums, dens):
            if den == 0:
                raise AssertionError(
                    "conditioning probability vanished in one context but "
                    "not in the single-party marginal; behavior is signaling")
            group += sign * (num / den if isinstance(den, float) else Fraction(num, den))
        value += prefactor[c] * group
    value = value + correlator(b, ("A", "B"), (0, 2)) \
        + correlator(b, ("B", "C"), (2, 0))
    return Evaluation(value=value, bound=frac(6), direction="<=",
                      satisfied=value <= 6 + atol)


# ---------------------------------------------------------------------------
# Transforms.


def relabel_output(ineq: LinearInequality, party: str,
                   setting: int) -> LinearInequality:
    """Flip the +/-1 labeling of one party's outcomes at one setting:
    every term consulting that (party, setting) changes sign.  Applying
    the same relabeling twice restores the original inequality."""
    if party not in ineq.settings_counts:
        raise KeyError(f"unknown party {party!r}")
    setting = _symbol(setting)
    if not 0 <= setting < ineq.settings_counts[party]:
        raise KeyError(f"party {party!r} has no setting {setting}")
    terms = []
    for t in ineq.terms:
        if party in t.parties and t.settings[t.parties.index(party)] == setting:
            terms.append(CorrelatorTerm(-t.coefficient, t.parties, t.settings))
        else:
            terms.append(t)
    return LinearInequality(name=f"{ineq.name}~{party}{setting}",
                            terms=tuple(terms), bound=ineq.bound,
                            settings_counts=dict(ineq.settings_counts))


def swap_parties(ineq: LinearInequality, p: str, q: str) -> LinearInequality:
    """Exchange the roles of two parties in every term; each setting
    follows its party through the swap."""
    for x in (p, q):
        if x not in ineq.settings_counts:
            raise KeyError(f"unknown party {x!r}")
    rename = {p: q, q: p}
    counts = dict(ineq.settings_counts)
    counts[p], counts[q] = counts[q], counts[p]
    terms = tuple(
        CorrelatorTerm(t.coefficient,
                       tuple(rename.get(x, x) for x in t.parties),
                       t.settings)
        for t in ineq.terms)
    return LinearInequality(name=f"{ineq.name}[{p}<->{q}]", terms=terms,
                            bound=ineq.bound, settings_counts=counts)


def add(first: LinearInequality, second: LinearInequality) -> LinearInequality:
    """Sum two inequalities over the same scenario: equal-support terms
    merge (coefficients add, zeros drop) and the bounds add."""
    if first.settings_counts != second.settings_counts:
        raise InequalityError(
            f"cannot add inequalities over different scenarios "
            f"{first.settings_counts} vs {second.settings_counts}")
    merged: dict[tuple, Fraction] = {}
    order: list[tuple] = []
    for t in first.terms + second.terms:
        if t.support not in merged:
            merged[t.support] = Fraction(0)
            order.append(t.support)
        merged[t.support] += t.coefficient
    terms = tuple(CorrelatorTerm(merged[s], s[0], s[1])
                  for s in order if merged[s] != 0)
    return LinearInequality(name=f"({first.name})+({second.name})",
                            terms=terms, bound=first.bound + second.bound,
                            settings_counts=dict(first.settings_counts))


# ---------------------------------------------------------------------------
# The derivation chain.


def deterministic_behaviors(settings_counts: Mapping[str, int]) -> list[NonsignalingResource]:
    """Every deterministic behavior for the given scenario: one local
    function (setting -> outcome bit) per party.  These points affinely
    span the behavior space, so two linear functionals that agree on all
    of them agree everywhere."""
    from .decompose import local_deterministic_vertices

    parties = tuple(sorted(settings_counts))
    return local_deterministic_vertices(
        parties, [Alphabet.of_size(settings_counts[p]) for p in parties],
        [Alphabet((0, 1))] * len(parties)).vertices


@dataclass(frozen=True)
class ChainStep:
    name: str
    description: str
    passed: bool
    witness: Union[str, None] = None


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[ChainStep, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def __str__(self) -> str:
        lines = []
        for s in self.steps:
            status = "PASS" if s.passed else "FAIL"
            suffix = f"  [{s.witness}]" if s.witness and not s.passed else ""
            lines.append(f"{s.name}: {status}  {s.description}{suffix}")
        return "\n".join(lines)


def functional_difference(first: LinearInequality, second: LinearInequality,
                          behaviors: Sequence[Behavior]) -> Union[str, None]:
    """First behavior where the two left-hand sides differ (as a witness
    string), or None when they agree on all of them.  Bounds are compared
    too.  Agreement on a deterministic spanning set extends to every
    behavior by linearity.  The behaviors share one kind and signature,
    so each side is one product over all of them."""
    if first.settings_counts != second.settings_counts:
        return (f"scenario mismatch: {first.settings_counts} vs "
                f"{second.settings_counts}")
    if first.bound != second.bound:
        return f"bounds differ: {first.bound} vs {second.bound}"
    if not behaviors:
        return None
    _check_scenario(behaviors[0], first.settings_counts)
    for b in behaviors:
        if b.parties != behaviors[0].parties or not b.same_signature(behaviors[0]):
            raise InequalityError(f"behaviors {behaviors[0].id!r} and {b.id!r} differ in signature")
        b.require_nonsignaling("correlator")
    for b, v1, v2 in zip(behaviors, _values(first, behaviors), _values(second, behaviors)):
        if v1 != v2:
            return f"behavior {b.id}: {v1} != {v2}"
    return None


def _functional_step(name: str, description: str, derived: LinearInequality,
                     stated: LinearInequality,
                     behaviors: Sequence[Behavior]) -> ChainStep:
    witness = functional_difference(derived, stated, behaviors)
    return ChainStep(name=name, description=description,
                     passed=witness is None, witness=witness)


def verify_derivation_chain() -> ChainReport:
    """Machine-check each step that connects the named inequalities.

    Each constructor above hard-codes its published coefficients; the
    chain independently re-derives every inequality from the previous
    one via the transforms and confirms the two agree as functionals on
    the deterministic spanning set (64 vertices for two settings each,
    128 when B has three)."""
    v222 = deterministic_behaviors({"A": 2, "B": 2, "C": 2})
    v232 = deterministic_behaviors({"A": 2, "B": 3, "C": 2})
    mao = mao_inequality()

    steps = []

    # (a) relabeling B's outcomes at setting 1 flips exactly two signs.
    relabeled = relabel_output(mao, "B", 1)
    stated_relabeled = LinearInequality(
        name="mao~B1-stated",
        terms=(_term(1, A=0, B=0), _term(-1, A=0, B=1),
               _term(1, A=1, B=0, C=1), _term(1, A=1, B=1, C=1),
               _term(2, A=0, C=0)),
        bound=frac(4), settings_counts={"A": 2, "B": 2, "C": 2})
    steps.append(_functional_step(
        "a", "relabeling B's outcomes at setting 1 gives the stated "
        "sign-flipped inequality", relabeled, stated_relabeled, v222))

    # (b) adding the relabeled inequality to its A<->C swap gives cao.
    derived_cao = add(relabeled, swap_parties(relabeled, "A", "C"))
    steps.append(_functional_step(
        "b", "the relabeled inequality plus its A<->C swap equals the "
        "seven-term inequality with bound 8", derived_cao, cao_inequality(),
        v222))

    # (c) the correlator form is mao plus twice the trivial bound
    # <A0C0> <= 1 (checked to hold on every vertex first).
    trivial = LinearInequality(name="2<A0C0>", terms=(_term(2, A=0, C=0),),
                               bound=frac(2),
                               settings_counts={"A": 2, "B": 2, "C": 2})
    worst = max(_values(trivial, v222)) / 2
    if worst > 1:
        steps.append(ChainStep(
            "c", "trivial bound <A0C0> <= 1 fails", False,
            f"vertex correlator reached {worst}"))
    else:
        steps.append(_functional_step(
            "c", "mao plus twice the trivial bound <A0C0> <= 1 equals the "
            "correlator form with bound 6", add(mao, trivial),
            chao_reichardt_correlator(), v222))

    # (d) probability and correlator forms are the same statement: the
    # probability form checks the exact affine identity and raises if it
    # fails, and value >= 1 exactly when correlator value <= 6.
    witness = None
    for b in v222:
        try:
            chao_reichardt_probability_form(b)
        except AssertionError as err:
            witness = f"behavior {b.id}: {err}"
            break
    steps.append(ChainStep(
        "d", "probability form = 4 - correlator form / 2, so the two "
        "satisfaction tests coincide", witness is None, witness))

    # (e) the conditional two-group evaluator linearizes exactly.
    witness = None
    for b, flat in zip(v232, _values(cao_s14_linearized(), v232)):
        conditional = evaluate_cao_s14(b).value
        if conditional != flat:
            witness = f"behavior {b.id}: {conditional} != {flat}"
            break
    steps.append(ChainStep(
        "e", "the conditional two-group form equals its fully linear twin "
        "on every spanning vertex", witness is None, witness))

    # (f) <A0C0> >= <A0B2> + <B2C0> - 1, tight: the slack reaches 0.
    slack = LinearInequality(name="slack", terms=(_term(1, A=0, C=0), _term(-1, A=0, B=2),
                                                  _term(-1, B=2, C=0)),
                             bound=frac(1), settings_counts={"A": 2, "B": 3, "C": 2})
    low = min(_values(slack, v232)) + 1
    steps.append(ChainStep(
        "f", "<A0C0> >= <A0B2> + <B2C0> - 1 holds on every vertex and is "
        "tight (minimum slack exactly 0)", low == 0,
        None if low == 0 else f"minimum slack {low}"))

    return ChainReport(steps=tuple(steps))
