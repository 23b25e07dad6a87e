"""Exact multiparty conditional probability tables ("boxes").

A resource is a family of output distributions R(a_1..a_n | x_1..x_n)
indexed by the parties' inputs, stored with exact rational probabilities
(`fractions.Fraction` end to end; no floats ever enter this module).

The load-bearing property is the one-party nonsignaling condition: for
every party j, summing out party j's output must give the same result no
matter which input party j chose, for every fixed assignment of the other
parties' inputs.  Subset-to-subset checks, marginals and output
conditioning are all derived from that single condition, and each derived
construction re-validates its own result so a bug cannot silently produce
a signaling table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

Symbol = int
Party = str


class TableError(ValueError):
    """The probability table is structurally malformed (missing tuples,
    out-of-range values, or a column that does not sum to one)."""


class SignalingError(ValueError):
    """An operation that requires a nonsignaling resource was given a
    signaling one."""


class ZeroConditioningError(ValueError):
    """Conditioning was requested on an input/output event of probability
    zero."""


def frac(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "num/den" string.

    Floats are rejected on purpose: a float that reaches this module is
    almost always a bug upstream.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return value if type(value) is Fraction else Fraction(value)


def as_probability(value: int | str | Fraction) -> Fraction:
    """Like :func:`frac` but additionally requires 0 <= value <= 1."""
    f = frac(value)
    if not 0 <= f <= 1:
        raise ValueError(f"probability out of range: {f}")
    return f


def _symbol(value) -> Symbol:
    """An alphabet symbol as an ``int``: anything ``operator.index``
    accepts except ``bool``."""
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValueError(f"alphabet symbol {value!r} is not an integer")


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of symbols (small non-negative integers).

    Each symbol is stored as an ``int``; a value that is not an integer,
    or is a ``bool``, raises ``ValueError``."""

    values: tuple[Symbol, ...]

    def __post_init__(self):
        vals = tuple(_symbol(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("alphabet must be non-empty")
        if len(set(vals)) != len(vals):
            raise ValueError(f"alphabet has duplicate symbols: {vals}")

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        return cls(tuple(range(n)))

    @property
    def first(self) -> Symbol:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.values


@dataclass(frozen=True)
class SignalingWitness:
    """First located violation of the one-party nonsignaling condition.

    ``party`` could influence the others by switching between the two
    ``inputs``: with the other parties' inputs fixed at ``context``, the
    marginal probability of the other parties' outputs ``outputs`` takes
    the two distinct ``values``.
    """

    party: Party
    context: dict[Party, Symbol]
    inputs: tuple[Symbol, Symbol]
    outputs: tuple[Symbol, ...]
    values: tuple[Fraction, Fraction]

    def __str__(self) -> str:
        return (f"party {self.party!r} signals: at context {self.context}, "
                f"inputs {self.inputs[0]} vs {self.inputs[1]} give marginal "
                f"{self.values[0]} vs {self.values[1]} on outputs {self.outputs}")


@dataclass
class ValidationReport:
    passed: bool
    errors: list[str] = field(default_factory=list)
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.passed

    @classmethod
    def ok(cls) -> "ValidationReport":
        return cls(True)

    @classmethod
    def fail(cls, errors: list[str], witness: object | None = None) -> "ValidationReport":
        return cls(False, errors, witness)


def _key_tuple(values: Sequence[Symbol]) -> tuple[Symbol, ...]:
    return tuple(int(v) for v in values)


def _align(parties: Sequence[Party], alphabets) -> tuple[Alphabet, ...]:
    """One Alphabet per party, from a per-party mapping or a sequence in
    party order."""
    if isinstance(alphabets, Mapping):
        missing = [p for p in parties if p not in alphabets]
        if missing:
            raise ValueError(f"no alphabet for parties {missing}")
        seq = [alphabets[p] for p in parties]
    else:
        seq = list(alphabets)
        if len(seq) != len(parties):
            raise ValueError(f"{len(seq)} alphabets for {len(parties)} parties")
    return tuple(a if isinstance(a, Alphabet) else Alphabet(tuple(a)) for a in seq)


def _project(column: Mapping[tuple, object], idx: Sequence[int]) -> dict[tuple, object]:
    """Marginal of one table column on the output positions ``idx``.

    Keys keep the order in which they first occur in the column; zero
    entries add nothing, so an exact column costs no Fraction addition for
    them.
    """
    marg = {}
    for a, v in column.items():
        key = tuple([a[i] for i in idx])
        if key in marg:
            if v:
                marg[key] += v
        else:
            marg[key] = v
    return marg


def _first_signal(table, input_alphabets, movers, watched, atol=0):
    """First place where the ``watched`` positions' output marginal changes
    with the ``movers``' inputs, every other input held fixed.

    ``input_alphabets`` lists the symbols each input position ranges over.
    Contexts of the other positions run in ``product`` order and, within a
    context, every choice of the movers' inputs is compared with the first.
    Returns ``(x0, x1, outputs, (v0, v1))``: two full input tuples that
    differ only at the movers, and the watched outputs whose marginal is
    ``v0`` at ``x0`` and ``v1`` at ``x1``; or None.  Exact values are
    compared with ``!=``; with ``atol`` > 0 two values differ when they are
    more than ``atol`` apart.
    """
    mover_space = list(product(*(input_alphabets[i] for i in movers)))
    if len(mover_space) < 2:
        return None
    fixed = [i for i in range(len(input_alphabets)) if i not in movers]
    x = [0] * len(input_alphabets)
    for ctx in product(*(input_alphabets[i] for i in fixed)):
        for i, xi in zip(fixed, ctx):
            x[i] = xi
        base = None
        for xm in mover_space:
            for i, xi in zip(movers, xm):
                x[i] = xi
            marg = _project(table[tuple(x)], watched)
            if base is None:
                x0, base = tuple(x), marg
                continue
            for key, v in base.items():
                w = marg[key]
                if abs(w - v) > atol if atol else w != v:
                    return x0, tuple(x), key, (v, w)
    return None


def _one_party_witness(parties, input_alphabets, table, atol=0) -> SignalingWitness | None:
    """First violation of the one-party condition: for each party j in
    order, party j's input moves and the other parties' outputs are
    watched."""
    alphabets = [a.values for a in input_alphabets]
    for j, party in enumerate(parties):
        others = [i for i in range(len(parties)) if i != j]
        hit = _first_signal(table, alphabets, [j], others, atol)
        if hit is not None:
            x0, x1, outputs, values = hit
            return SignalingWitness(
                party=party,
                context={parties[i]: x0[i] for i in others},
                inputs=(x0[j], x1[j]),
                outputs=outputs,
                values=values,
            )
    return None


class NonsignalingResource:
    """An exact conditional probability table over an ordered party list.

    ``table`` maps each full input tuple (aligned with ``parties``) to a
    map from full output tuples to probabilities.  Tables are stored
    *total*: at construction every output tuple of the product alphabet is
    present, with absent outcomes padded to probability zero, so lookups
    never need a default.

    Construction always verifies structure (totality, range, exact unit
    column sums) and, by default, the nonsignaling condition; use
    :meth:`new_unchecked` to represent a deliberately signaling table
    (needed for grandfather-paradox counterexamples).
    """

    __slots__ = ("id", "parties", "input_alphabets", "output_alphabets", "table",
                 "nonsignaling_checked")

    def __init__(
        self,
        id: str,
        parties: Sequence[Party],
        input_alphabets: Sequence[Alphabet] | Mapping[Party, Alphabet],
        output_alphabets: Sequence[Alphabet] | Mapping[Party, Alphabet],
        table: Mapping[Sequence[Symbol], Mapping[Sequence[Symbol], int | str | Fraction]],
        *,
        check_nonsignaling: bool = True,
    ):
        self.id = str(id)
        self.parties = tuple(parties)
        if not self.parties:
            raise ValueError("resource must have at least one party")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError(f"duplicate parties: {self.parties}")
        self.input_alphabets = _align(self.parties, input_alphabets)
        self.output_alphabets = _align(self.parties, output_alphabets)
        self.table = self._normalize_table(table)
        self.nonsignaling_checked = False
        if check_nonsignaling:
            self.require_nonsignaling("construction")

    @classmethod
    def make(cls, id, parties, input_alphabets, output_alphabets, table) -> "NonsignalingResource":
        """Construct and fully validate (structure + nonsignaling)."""
        return cls(id, parties, input_alphabets, output_alphabets, table)

    @classmethod
    def new_unchecked(cls, id, parties, input_alphabets, output_alphabets, table) -> "NonsignalingResource":
        """Construct with structural validation only, skipping the
        nonsignaling check.  The result is flagged so downstream
        operations that require nonsignaling can refuse it."""
        return cls(id, parties, input_alphabets, output_alphabets, table,
                   check_nonsignaling=False)

    # -- construction helpers -------------------------------------------------

    def input_space(self) -> Iterable[tuple[Symbol, ...]]:
        return product(*(a.values for a in self.input_alphabets))

    def output_space(self) -> Iterable[tuple[Symbol, ...]]:
        return product(*(a.values for a in self.output_alphabets))

    def _normalize_table(self, table) -> dict[tuple[Symbol, ...], dict[tuple[Symbol, ...], Fraction]]:
        out_space = list(self.output_space())
        out_set = set(out_space)
        zero = Fraction(0)
        raw = {_key_tuple(x): entries for x, entries in table.items()}
        normalized: dict[tuple[Symbol, ...], dict[tuple[Symbol, ...], Fraction]] = {}
        for x in self.input_space():
            if x not in raw:
                raise TableError(f"resource {self.id!r}: missing input tuple {x}")
            entries: dict[tuple[Symbol, ...], Fraction] = {}
            for a, value in raw[x].items():
                a = _key_tuple(a)
                if a not in out_set:
                    raise TableError(
                        f"resource {self.id!r}: output tuple {a} at input {x} "
                        f"is outside the output alphabets")
                try:
                    entries[a] = as_probability(value)
                except (ValueError, TypeError) as exc:
                    raise TableError(
                        f"resource {self.id!r}: bad entry at input {x}, output {a}: {exc}"
                    ) from exc
            total = sum(v for v in entries.values() if v)
            if total != 1:
                raise TableError(
                    f"resource {self.id!r}: column at input {x} sums to {total}, not 1")
            column = dict.fromkeys(out_space, zero)
            column.update(entries)
            normalized[x] = column
        extra = set(raw) - set(normalized)
        if extra:
            raise TableError(
                f"resource {self.id!r}: input tuples outside the input alphabets: {sorted(extra)}")
        return normalized

    # -- basic access ---------------------------------------------------------

    def prob(self, inputs: Sequence[Symbol], outputs: Sequence[Symbol]) -> Fraction:
        return self.table[_key_tuple(inputs)][_key_tuple(outputs)]

    def party_index(self, party: Party) -> int:
        try:
            return self.parties.index(party)
        except ValueError:
            raise KeyError(f"party {party!r} is not a member of resource {self.id!r}") from None

    def input_alphabet(self, party: Party) -> Alphabet:
        return self.input_alphabets[self.party_index(party)]

    def output_alphabet(self, party: Party) -> Alphabet:
        return self.output_alphabets[self.party_index(party)]

    def is_input_free(self) -> bool:
        """True when every party's input alphabet is a single symbol, i.e.
        the resource is just shared randomness."""
        return all(len(a) == 1 for a in self.input_alphabets)

    def same_signature(self, other: "NonsignalingResource") -> bool:
        return (len(self.parties) == len(other.parties)
                and self.input_alphabets == other.input_alphabets
                and self.output_alphabets == other.output_alphabets)

    def same_table(self, other: "NonsignalingResource") -> bool:
        return self.same_signature(other) and self.table == other.table

    def __repr__(self) -> str:
        ins = "x".join(str(len(a)) for a in self.input_alphabets)
        outs = "x".join(str(len(a)) for a in self.output_alphabets)
        return f"<NonsignalingResource {self.id!r} parties={list(self.parties)} in={ins} out={outs}>"

    # -- nonsignaling ---------------------------------------------------------

    def _find_signaling_witness(self) -> SignalingWitness | None:
        """Scan for the first violation of the one-party condition.

        For each party j: the distribution of the *other* parties' outputs
        (party j's output summed out) must be identical across all of
        party j's input choices, for every fixed input context.
        """
        return _one_party_witness(self.parties, self.input_alphabets, self.table)

    def require_nonsignaling(self, operation: str) -> None:
        """Raise unless this resource is known (or now verified) to be
        nonsignaling; used by operations that are ill-defined otherwise."""
        if self.nonsignaling_checked:
            return
        witness = self._find_signaling_witness()
        if witness is not None:
            raise SignalingError(
                f"{operation}: resource {self.id!r} is signaling: {witness}")
        self.nonsignaling_checked = True

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        data = {
            "id": self.id,
            "parties": list(self.parties),
            "inputs": {p: list(a.values) for p, a in zip(self.parties, self.input_alphabets)},
            "outputs": {p: list(a.values) for p, a in zip(self.parties, self.output_alphabets)},
            "table": {
                ",".join(map(str, x)): {
                    ",".join(map(str, a)): f"{v.numerator}/{v.denominator}"
                    for a, v in column.items()
                }
                for x, column in self.table.items()
            },
        }
        if not self.nonsignaling_checked:
            data["unchecked"] = True
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NonsignalingResource":
        parties = list(data["parties"])
        inputs = {p: Alphabet(tuple(data["inputs"][p])) for p in parties}
        outputs = {p: Alphabet(tuple(data["outputs"][p])) for p in parties}
        table = {
            tuple(int(s) for s in x.split(",")): {
                tuple(int(s) for s in a.split(",")): frac(v)
                for a, v in column.items()
            }
            for x, column in data["table"].items()
        }
        ctor = cls.new_unchecked if data.get("unchecked") else cls.make
        return ctor(data["id"], parties, inputs, outputs, table)


# -- validation ----------------------------------------------------------------


def validate_nonsignaling(r: NonsignalingResource) -> ValidationReport:
    """Exact check of the one-party nonsignaling condition for every party,
    every fixed context of the other parties' inputs, and every input pair.

    Structural problems (the constructor normally rules these out) are
    reported separately from signaling violations.
    """
    for x in r.input_space():
        if x not in r.table:
            return ValidationReport.fail([f"missing input tuple {x}"])
        total = sum(v for v in r.table[x].values() if v)
        if total != 1:
            return ValidationReport.fail([f"column at input {x} sums to {total}, not 1"])
        for a, v in r.table[x].items():
            if not 0 <= v <= 1:
                return ValidationReport.fail([f"entry at input {x}, output {a} is {v}"])
    witness = r._find_signaling_witness()
    if witness is not None:
        return ValidationReport.fail([str(witness)], witness=witness)
    r.nonsignaling_checked = True
    return ValidationReport.ok()


def check_subset_nonsignaling(
    r: NonsignalingResource,
    signalers: Sequence[Party],
    receivers: Sequence[Party],
) -> ValidationReport:
    """Check that the receivers' output distribution is independent of the
    signalers' inputs.

    The remaining parties (neither signaler nor receiver) have their
    inputs held fixed at the first alphabet value and their outputs summed
    out; this fixed choice is immaterial for a resource that passes the
    one-party check, which is exactly the derived property being verified.
    """
    signalers = tuple(signalers)
    receivers = tuple(receivers)
    if set(signalers) & set(receivers):
        raise ValueError("signalers and receivers must be disjoint")
    sig_idx = [r.party_index(p) for p in signalers]
    recv_idx = [r.party_index(p) for p in receivers]
    alphabets = [a.values if i in sig_idx or i in recv_idx else (a.first,)
                 for i, a in enumerate(r.input_alphabets)]
    hit = _first_signal(r.table, alphabets, sig_idx, recv_idx)
    if hit is None:
        return ValidationReport.ok()
    x0, x1, bad, (v0, v1) = hit
    return ValidationReport.fail([
        f"signalers {list(signalers)} switching {tuple(x0[i] for i in sig_idx)}->"
        f"{tuple(x1[i] for i in sig_idx)} changes receivers' marginal at outputs "
        f"{bad} from {v0} to {v1} (receiver inputs {tuple(x0[i] for i in recv_idx)})"
    ])


# -- derived resources -----------------------------------------------------------


def _full_input(idx: Sequence[int], values: Sequence[Symbol],
                fixed: Mapping[int, Symbol]) -> tuple[Symbol, ...]:
    """The input tuple with ``values`` at positions ``idx`` and the
    remaining positions taken from ``fixed``."""
    x = dict(fixed)
    x.update(zip(idx, values))
    return tuple(x[i] for i in range(len(x)))


def marginal(
    r: NonsignalingResource,
    keep: Sequence[Party],
    *,
    fixed_inputs: Mapping[Party, Symbol] | None = None,
    id: str | None = None,
) -> NonsignalingResource:
    """Marginal resource on the ``keep`` parties.

    The dropped parties' inputs are fixed (first alphabet value unless
    ``fixed_inputs`` overrides) and their outputs summed out.  For a
    nonsignaling resource the fixed choice is provably irrelevant, which
    is why a signaling resource is refused: its "marginal" would be a
    different table for different choices.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    for p in keep:
        r.party_index(p)
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate parties in keep: {keep}")
    r.require_nonsignaling("marginal")

    keep_idx = [r.party_index(p) for p in sorted(keep, key=r.parties.index)]
    keep_parties = tuple(r.parties[i] for i in keep_idx)
    drop_idx = [i for i in range(len(r.parties)) if i not in keep_idx]
    fixed_inputs = dict(fixed_inputs or {})
    for p in fixed_inputs:
        if p not in (r.parties[i] for i in drop_idx):
            raise ValueError(f"fixed_inputs names {p!r}, which is not a dropped party")
    fixed = {}
    for i in drop_idx:
        p = r.parties[i]
        xi = fixed_inputs.get(p, r.input_alphabets[i].first)
        if xi not in r.input_alphabets[i]:
            raise ValueError(f"fixed input {xi} outside alphabet of party {p!r}")
        fixed[i] = xi

    if not drop_idx and (id is None or id == r.id):
        return r

    table = {x_keep: _project(r.table[_full_input(keep_idx, x_keep, fixed)], keep_idx)
             for x_keep in product(*(r.input_alphabets[i].values for i in keep_idx))}

    return NonsignalingResource.make(
        id if id is not None else f"{r.id}[{','.join(keep_parties)}]",
        keep_parties,
        [r.input_alphabets[i] for i in keep_idx],
        [r.output_alphabets[i] for i in keep_idx],
        table,
    )


def condition(
    r: NonsignalingResource,
    observed: Sequence[Party],
    outputs: Sequence[Symbol],
    inputs: Sequence[Symbol],
) -> NonsignalingResource:
    """Distribution of the remaining parties conditioned on the observed
    parties having used ``inputs`` and produced ``outputs``.

    The denominator is the observed parties' marginal probability, which
    by nonsignaling does not depend on the remaining parties' inputs; a
    zero-probability conditioning event raises rather than dividing by
    zero.
    """
    observed = tuple(observed)
    if len(observed) != len(set(observed)):
        raise ValueError(f"duplicate parties in observed: {observed}")
    if len(outputs) != len(observed) or len(inputs) != len(observed):
        raise ValueError("outputs and inputs must align with observed")
    r.require_nonsignaling("condition")

    obs_idx = [r.party_index(p) for p in observed]
    keep_idx = [i for i in range(len(r.parties)) if i not in obs_idx]
    if not keep_idx:
        raise ValueError("conditioning on every party leaves no resource")
    obs_in = dict(zip(obs_idx, (int(v) for v in inputs)))
    obs_out = dict(zip(obs_idx, (int(v) for v in outputs)))
    for i in obs_idx:
        if obs_in[i] not in r.input_alphabets[i]:
            raise ValueError(f"input {obs_in[i]} outside alphabet of {r.parties[i]!r}")
        if obs_out[i] not in r.output_alphabets[i]:
            raise ValueError(f"output {obs_out[i]} outside alphabet of {r.parties[i]!r}")

    marg = marginal(r, [r.parties[i] for i in obs_idx])
    denom = marg.prob([obs_in[i] for i in obs_idx], [obs_out[i] for i in obs_idx])
    if denom == 0:
        raise ZeroConditioningError(
            f"conditioning event has probability zero: parties "
            f"{[r.parties[i] for i in obs_idx]} outputs {outputs} at inputs {inputs}")

    table = {}
    for x_keep in product(*(r.input_alphabets[i].values for i in keep_idx)):
        column = r.table[_full_input(keep_idx, x_keep, obs_in)]
        observed_event = {a: v for a, v in column.items()
                          if all(a[i] == obs_out[i] for i in obs_idx)}
        table[x_keep] = {key: v / denom
                         for key, v in _project(observed_event, keep_idx).items()}

    keep_parties = tuple(r.parties[i] for i in keep_idx)
    return NonsignalingResource.make(
        f"{r.id}|{','.join(observed)}",
        keep_parties,
        [r.input_alphabets[i] for i in keep_idx],
        [r.output_alphabets[i] for i in keep_idx],
        table,
    )


# -- constructors ----------------------------------------------------------------


def make_local_deterministic(
    parties: Sequence[Party],
    input_alphabets: Sequence[Alphabet] | Mapping[Party, Alphabet],
    output_alphabets: Sequence[Alphabet] | Mapping[Party, Alphabet],
    functions: Mapping[Party, Mapping[Symbol, Symbol]],
    *,
    id: str | None = None,
) -> NonsignalingResource:
    """Product of Kronecker deltas: each party's output is a fixed function
    of its own input.  Each per-party function must be total on the input
    alphabet and land in the output alphabet."""
    parties = tuple(parties)
    in_alphas = _align(parties, input_alphabets)
    out_alphas = _align(parties, output_alphabets)

    fns = []
    for p, ain, aout in zip(parties, in_alphas, out_alphas):
        f = functions[p]
        missing = [x for x in ain if x not in f]
        if missing:
            raise ValueError(f"function for {p!r} is partial: missing inputs {missing}")
        bad = [x for x in ain if f[x] not in aout]
        if bad:
            raise ValueError(f"function for {p!r} maps {bad} outside the output alphabet")
        fns.append(f)

    table = {}
    for x in product(*(a.values for a in in_alphas)):
        target = tuple(fns[i][xi] for i, xi in enumerate(x))
        table[x] = {target: Fraction(1)}

    if id is None:
        id = "det:" + ";".join(
            f"{p}({','.join(f'{x}>{fns[i][x]}' for x in in_alphas[i])})"
            for i, p in enumerate(parties)
        )
    return NonsignalingResource.make(id, parties, in_alphas, out_alphas, table)


def make_shared_randomness(
    parties: Sequence[Party],
    output_distribution: Mapping[Sequence[Symbol], int | str | Fraction],
    *,
    id: str = "shared",
) -> NonsignalingResource:
    """Input-free resource: every party has the single input 0 and the
    output tuple is drawn from ``output_distribution`` (which must sum to
    exactly one).  This is how classical shared randomness enters a
    network."""
    parties = tuple(parties)
    dist = {_key_tuple(a): as_probability(v) for a, v in output_distribution.items()}
    if sum(dist.values()) != 1:
        raise ValueError(f"output distribution sums to {sum(dist.values())}, not 1")
    for a in dist:
        if len(a) != len(parties):
            raise ValueError(f"outcome {a} does not align with {len(parties)} parties")
    out_alphas = [
        Alphabet(tuple(sorted({a[i] for a in dist})))
        for i in range(len(parties))
    ]
    in_alphas = [Alphabet((0,))] * len(parties)
    x0 = (0,) * len(parties)
    return NonsignalingResource.make(id, parties, in_alphas, out_alphas, {x0: dist})


def make_pr_box(
    *,
    id: str | None = None,
    parties: Sequence[Party] = ("A", "B"),
    alpha: int = 0,
    beta: int = 0,
    gamma: int = 0,
) -> NonsignalingResource:
    """A box of the PR class: P(ab|xy) = 1/2 if a XOR b = xy XOR αx XOR βy XOR γ.

    The default (α=β=γ=0) is the standard PR box with a XOR b = x AND y;
    the eight (α,β,γ) choices are exactly the nonlocal extreme points of
    the bipartite binary nonsignaling polytope.
    """
    parties = tuple(parties)
    if len(parties) != 2:
        raise ValueError("a PR box has exactly two parties")
    alpha, beta, gamma = alpha & 1, beta & 1, gamma & 1
    half = Fraction(1, 2)
    table = {}
    for x, y in product((0, 1), repeat=2):
        rhs = (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        table[(x, y)] = {
            (a, b): (half if (a ^ b) == rhs else Fraction(0))
            for a, b in product((0, 1), repeat=2)
        }
    if id is None:
        id = "PR" if (alpha, beta, gamma) == (0, 0, 0) else f"PR{alpha}{beta}{gamma}"
    bits = Alphabet((0, 1))
    return NonsignalingResource.make(id, parties, [bits, bits], [bits, bits], table)
