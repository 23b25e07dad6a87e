"""Exact multiparty conditional probability tables ("boxes").

A resource is a family of output distributions R(a_1..a_n | x_1..x_n)
indexed by the parties' inputs, with exact rational probabilities (no
floats ever enter this module).  It is stored as one integer array of
numerators, indexed [x_1..x_n, a_1..a_n] by alphabet position, over one
common denominator; every scan, marginal and contraction reads that array.

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
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

Symbol = int
Party = str

_INT64 = 2 ** 63
_INT_TYPE, _TUPLE_TYPE = {int}, {tuple}
_EXACT_TYPES = {int, Fraction}


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


def _parse_symbol(value) -> Symbol:
    """A symbol read from JSON or the command line: an integer as for
    ``_symbol``, or a string spelling one as an optional "-" and ASCII
    digits, nothing else."""
    if not isinstance(value, str):
        return _symbol(value)
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ValueError(f"{value!r} does not spell a symbol (an optional '-' and ASCII digits)")
    return int(value)


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
        """The symbols 0..n-1.  Alphabets are immutable, so one is shared
        per size; ``n`` is parsed by ``operator.index`` before the lookup,
        so a size that is not an integer always raises ``TypeError``."""
        return cls._of_size(operator.index(n))

    @classmethod
    @lru_cache(maxsize=64)
    def _of_size(cls, n: int) -> "Alphabet":
        return cls(tuple(range(n)))

    @cached_property
    def sorted_positions(self) -> dict[Symbol, int]:
        """Each symbol's position in ``values``, keyed in sorted order."""
        return dict(sorted(zip(self.values, range(len(self.values)))))

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
    """A table key as a tuple of symbols, each parsed by ``_symbol``."""
    return tuple(_symbol(v) for v in values)


def _plain_keys(keys: Iterable) -> bool:
    """Whether every key is already a tuple of ``int`` symbols, which
    ``_key_tuple`` would return unchanged.  A ``bool``, float or
    ``Fraction`` symbol can equal and hash like an ``int``, so the types
    are checked, not looked up."""
    return (set(map(type, keys)) <= _TUPLE_TYPE
            and set(map(type, chain.from_iterable(keys))) <= _INT_TYPE)


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


class _Tensor(NamedTuple):
    """A table as integer numerators, indexed [x_1..x_n, a_1..a_n] by
    alphabet position, over one denominator."""

    numerators: np.ndarray
    denominator: int


def _symbols(alphabets: Sequence[Alphabet], idx: Sequence[int],
             positions: Sequence[int]) -> tuple[Symbol, ...]:
    """The symbols of the parties ``idx`` at their entries of the full
    alphabet-position tuple ``positions``."""
    return tuple(alphabets[i].values[positions[i]] for i in idx)


def _first_signal(arr: np.ndarray, movers: Sequence[int], watched: Sequence[int], atol=0):
    """First place where the ``watched`` positions' output marginal changes
    with the ``movers``' inputs, every other input held fixed.

    ``arr`` has axes [x_1..x_n, a_1..a_n] by alphabet position.  The
    unwatched outputs are summed out, the mover axes moved after the other
    (context) inputs, and each choice of the movers' inputs compared with
    the first; the first difference in C order wins.  Returns ``(x0, x1,
    outputs, (v0, v1))`` as full alphabet-position tuples (unwatched
    outputs at 0), or None.  Values differ by ``!=``, or by more than
    ``atol``.
    """
    n = arr.ndim // 2
    unwatched = tuple(n + i for i in range(n) if i not in watched)
    marg = arr.sum(axis=unwatched) if unwatched else arr
    fixed = [i for i in range(n) if i not in movers]
    marg = marg.transpose(fixed + list(movers) + list(range(n, marg.ndim)))
    ctx_shape, mover_shape, out_shape = (marg.shape[:len(fixed)], marg.shape[len(fixed):n],
                                         marg.shape[n:])
    marg = marg.reshape(prod(ctx_shape), prod(mover_shape), prod(out_shape))
    if marg.shape[1] < 2:
        return None
    base, rest = marg[:, :1], marg[:, 1:]
    diff = (np.abs(rest - base) > atol if atol else rest != base).reshape(-1)
    hit = int(diff.argmax())
    if not diff[hit]:
        return None
    c, m, o = np.unravel_index(hit, rest.shape)
    x0, outputs = [0] * n, [0] * n
    for i, k in zip(fixed, np.unravel_index(c, ctx_shape)):
        x0[i] = int(k)
    x1 = list(x0)
    for i, k in zip(movers, np.unravel_index(m + 1, mover_shape)):
        x1[i] = int(k)
    for i, k in zip(sorted(watched), np.unravel_index(o, out_shape)):
        outputs[i] = int(k)
    return x0, x1, outputs, (base[c, 0, o], rest[c, m, o])


def _sum_out(arr: np.ndarray, axis: int, count: int = 1) -> np.ndarray:
    """``arr`` summed over ``count`` axes from ``axis`` on, by adds of basic slices."""
    for _ in range(count):
        head = (slice(None),) * axis
        total = arr[head + (0,)]
        for k in range(1, arr.shape[axis]):
            total = total + arr[head + (k,)]
        arr = total
    return arr


def _input_moves_marginal(arr: np.ndarray, j: int) -> bool:
    """Whether party j's input changes the exact array's marginal with party
    j's output summed out by slice adds (cheap on non-contiguous views): the
    test that precedes the locator.  A party with one input symbol cannot signal."""
    if arr.shape[j] == 1:
        return False
    marg = _sum_out(arr, arr.ndim // 2 + j)
    head = (slice(None),) * j
    return bool((marg[head + (slice(1, None),)] != marg[head + (slice(0, 1),)]).any())


def _one_party_witness(parties, input_alphabets, output_alphabets, arr, value,
                       atol=0) -> SignalingWitness | None:
    """First violation of the one-party condition in the table ``arr``: for
    each party j in order, party j's input moves and the other parties'
    outputs are watched.  ``value`` turns a scanned marginal into the
    witness's value.  An exact array (``atol`` 0) is tested for every
    party before the locator runs, from the first party that fails."""
    n = len(parties)
    first = 0
    if not atol:
        first = next((j for j in range(n) if _input_moves_marginal(arr, j)), n)
    for j in range(first, n):
        party = parties[j]
        others = [i for i in range(n) if i != j]
        hit = _first_signal(arr, [j], others, atol)
        if hit is not None:
            x0, x1, outputs, (v0, v1) = hit
            return SignalingWitness(
                party=party,
                context=dict(zip([parties[i] for i in others],
                                 _symbols(input_alphabets, others, x0))),
                inputs=(input_alphabets[j].values[x0[j]], input_alphabets[j].values[x1[j]]),
                outputs=_symbols(output_alphabets, others, outputs),
                values=(value(v0), value(v1)),
            )
    return None


def _structure_problem(r: "NonsignalingResource") -> str | None:
    """The first structural fault of r's numerators, columns in input order: a
    column whose sum is not the denominator (first), else an entry outside [0,
    denominator]; located only if one whole-array test (sums, min, max) fails."""
    den, nums, n = r.denominator, r.numerators, len(r.parties)
    width = prod(len(a) for a in r.output_alphabets)
    sums = _sum_out(nums if den * width < _INT64 else nums.astype(object), n, n)
    if (sums == den).all() and nums.min() >= 0 and nums.max() <= den:
        return None
    nums, sums = nums.reshape(-1, width), sums.reshape(-1)
    bad_sum = sums != den
    bad_entry = (nums < 0) | (nums > den)
    bad = bad_sum | bad_entry.any(axis=1)
    i = int(bad.argmax())
    j = int(bad_entry[i].argmax())
    x, a = r._symbols_at(np.unravel_index(i * width + j, r.numerators.shape))
    if bad_sum[i]:
        return f"column at input {x} sums to {Fraction(int(sums[i]), den)}, not 1"
    return f"entry at input {x}, output {a} is {Fraction(int(nums[i, j]), den)}"


class ProbabilityTable:
    """What every behavior kind shares: parties, alphabets and one array
    indexed [x_1..x_n, a_1..a_n] by alphabet position, which a subclass
    stores, reads (``_value``, ``_rows``) and scans (``_find_signaling_witness``).
    """

    __slots__ = ("id", "parties", "input_alphabets", "output_alphabets", "_table",
                 "nonsignaling_checked")

    def _set_signature(self, id: str, parties: Sequence[Party], input_alphabets,
                       output_alphabets) -> None:
        self.id = str(id)
        self.parties = tuple(parties)
        if not self.parties:
            raise ValueError("resource must have at least one party")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError(f"duplicate parties: {self.parties}")
        self.input_alphabets = _align(self.parties, input_alphabets)
        self.output_alphabets = _align(self.parties, output_alphabets)
        self._table = None
        self.nonsignaling_checked = False

    def input_space(self) -> Iterable[tuple[Symbol, ...]]:
        return product(*(a.values for a in self.input_alphabets))

    def output_space(self) -> Iterable[tuple[Symbol, ...]]:
        return product(*(a.values for a in self.output_alphabets))

    @property
    def table(self) -> dict[tuple[Symbol, ...], dict[tuple[Symbol, ...], object]]:
        """Every input tuple -> every output tuple -> value, in product
        order; a read-only view built from the array on first access."""
        if self._table is None:
            out_space = list(self.output_space())
            self._table = {x: dict(zip(out_space, row))
                           for x, row in zip(self.input_space(), self._rows())}
        return self._table

    def prob(self, inputs: Sequence[Symbol], outputs: Sequence[Symbol]):
        """The value at one input and output tuple, read from the array at
        the symbols' alphabet positions; ``KeyError`` outside the table."""
        pos = []
        for key, alphabets in ((_key_tuple(inputs), self.input_alphabets),
                               (_key_tuple(outputs), self.output_alphabets)):
            if len(key) != len(alphabets) or not all(map(Alphabet.__contains__, alphabets, key)):
                raise KeyError(key)
            pos += (a.values.index(s) for a, s in zip(alphabets, key))
        return self._value(tuple(pos))

    def party_index(self, party: Party) -> int:
        try:
            return self.parties.index(party)
        except ValueError:
            raise KeyError(f"party {party!r} is not a member of resource {self.id!r}") from None

    def input_alphabet(self, party: Party) -> Alphabet:
        return self.input_alphabets[self.party_index(party)]

    def output_alphabet(self, party: Party) -> Alphabet:
        return self.output_alphabets[self.party_index(party)]

    def _symbols_at(self, pos: Sequence[int]) -> tuple[tuple[Symbol, ...], tuple[Symbol, ...]]:
        """The input and output symbol tuples at an array position."""
        n = len(self.parties)
        return (_symbols(self.input_alphabets, range(n), pos[:n]),
                _symbols(self.output_alphabets, range(n), pos[n:]))

    def same_signature(self, other: "ProbabilityTable") -> bool:
        return (len(self.parties) == len(other.parties)
                and self.input_alphabets == other.input_alphabets
                and self.output_alphabets == other.output_alphabets)

    def require_nonsignaling(self, operation: str) -> None:
        """Raise unless this table is known (or now verified) to be
        nonsignaling; used by operations that are ill-defined otherwise."""
        if self.nonsignaling_checked:
            return
        witness = self._find_signaling_witness()
        if witness is not None:
            raise SignalingError(
                f"{operation}: resource {self.id!r} is signaling: {witness}")
        self.nonsignaling_checked = True

    def _columns(self, table: Mapping) -> Iterator[tuple[tuple[Symbol, ...], Iterator]]:
        """A mapping table's columns in input order: each input tuple with
        an iterator of its entries as (flat array position, output tuple,
        value).  An input key that is not a tuple of integer symbols, a
        missing input tuple, an output key that is not a tuple of integer
        symbols or lies outside the output alphabets (when its entry is
        reached) and, after the last column, an input tuple outside the
        input alphabets raise ``TableError``."""
        width = prod(len(a) for a in self.output_alphabets)
        out_index = {a: i for i, a in enumerate(self.output_space())}

        def key(k, what: str) -> tuple[Symbol, ...]:
            try:
                return _key_tuple(k)
            except (TypeError, ValueError) as err:
                raise TableError(f"resource {self.id!r}: {what} key {k!r}: {err}") from None

        raw = (table if _plain_keys(table)
               else {key(x, "input"): column for x, column in table.items()})

        def entries(row: int, x: tuple[Symbol, ...]):
            column = raw[x]
            plain = _plain_keys(column)
            for a, value in column.items():
                i = out_index.get(a) if plain else None
                if i is None:
                    a = key(a, f"input {x}: output")
                    if a not in out_index:
                        raise TableError(
                            f"resource {self.id!r}: output tuple {a} at input {x} "
                            f"is outside the output alphabets")
                    i = out_index[a]
                yield row * width + i, a, value

        for row, x in enumerate(self.input_space()):
            if x not in raw:
                raise TableError(f"resource {self.id!r}: missing input tuple {x}")
            yield x, entries(row, x)
        extra = set(raw).difference(self.input_space())
        if extra:
            raise TableError(
                f"resource {self.id!r}: input tuples outside the input alphabets: {sorted(extra)}")

    def _signature_json(self) -> dict:
        return {
            "id": self.id,
            "parties": list(self.parties),
            "inputs": {p: list(a.values) for p, a in zip(self.parties, self.input_alphabets)},
            "outputs": {p: list(a.values) for p, a in zip(self.parties, self.output_alphabets)},
        }


class NonsignalingResource(ProbabilityTable):
    """An exact conditional probability table over an ordered party list.

    Stored as ``numerators``, one integer array indexed [x_1..x_n,
    a_1..a_n] by alphabet position, over ``denominator``, the lcm of the
    entries' denominators, so equal tables have equal arrays.  The array is
    int64 when the denominator is below 2**63 (every marginal is a partial
    column sum, at most the denominator), else Python ints.  ``table`` is
    a derived read-only view: input tuple -> output tuple -> Fraction.

    Construction always verifies structure (totality, range, exact unit
    column sums) and, by default, the nonsignaling condition; use
    :meth:`new_unchecked` to represent a deliberately signaling table
    (needed for grandfather-paradox counterexamples).
    """

    __slots__ = ("numerators", "denominator")

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
        self._set_signature(id, parties, input_alphabets, output_alphabets)
        # Library-derived resources pass a _Tensor; reduce to the canonical
        # denominator.  A mapping table is checked for structure as it is
        # parsed, so only a _Tensor gets the structural check below.
        tensor = isinstance(table, _Tensor)
        nums, den = table if tensor else self._parse_table(table)
        nums = nums.reshape([len(a) for a in self.input_alphabets + self.output_alphabets])
        g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
        if g > 1:
            nums, den = nums // g, den // g
        nums = nums.astype(np.int64 if den < _INT64 else object, copy=False)
        nums.flags.writeable = False
        self.numerators, self.denominator = nums, den
        problem = _structure_problem(self) if tensor else None
        if problem is not None:
            raise TableError(f"resource {self.id!r}: {problem}")
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

    def _parse_table(self, table) -> _Tensor:
        """A mapping table, checked column by column for totality, range
        and a unit sum, as numerators over the lcm of its denominators.

        An ``int`` or ``Fraction`` entry in [0, 1] is read as its numerator
        and denominator; any other entry, or one out of range, goes through
        ``as_probability``, which parses it or raises.  Each column is
        summed over the lcm of its own denominators."""
        width = prod(len(a) for a in self.output_alphabets)
        size = width * prod(len(a) for a in self.input_alphabets)
        nums, dens = [0] * size, [1] * size   # flat position -> entry
        for row, (x, entries) in enumerate(self._columns(table)):
            for i, a, value in entries:
                if type(value) in _EXACT_TYPES and 0 <= value.numerator <= value.denominator:
                    v = value
                else:
                    try:
                        v = as_probability(value)
                    except (ValueError, TypeError) as exc:
                        raise TableError(
                            f"resource {self.id!r}: bad entry at input {x}, output {a}: {exc}"
                        ) from exc
                nums[i], dens[i] = v.numerator, v.denominator
            column = slice(row * width, (row + 1) * width)
            den = lcm(*dens[column])
            total = sum(n * (den // d) for n, d in zip(nums[column], dens[column]))
            if total != den:
                raise TableError(f"resource {self.id!r}: column at input {x} sums to "
                                 f"{Fraction(total, den)}, not 1")
        den = lcm(*dens)
        nums = [n * (den // d) for n, d in zip(nums, dens)]
        return _Tensor(np.array(nums, dtype=np.int64 if den < _INT64 else object), den)

    def _value(self, pos: tuple[int, ...]) -> Fraction:
        return Fraction(int(self.numerators[pos]), self.denominator)

    def _rows(self, form=lambda v: v) -> Iterable[Iterable]:
        """The Fractions of each input tuple, one shared Fraction per value,
        each passed once through ``form``."""
        rows = self.numerators.reshape(-1, prod(len(a) for a in self.output_alphabets)).tolist()
        values = {n: form(Fraction(n, self.denominator)) for n in set(chain.from_iterable(rows))}
        return (map(values.__getitem__, row) for row in rows)

    # -- basic access ---------------------------------------------------------

    def is_input_free(self) -> bool:
        """True when every party's input alphabet is a single symbol, i.e.
        the resource is just shared randomness."""
        return all(len(a) == 1 for a in self.input_alphabets)

    def same_table(self, other: "NonsignalingResource") -> bool:
        return (self.same_signature(other) and self.denominator == other.denominator
                and np.array_equal(self.numerators, other.numerators))

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
        den = self.denominator
        return _one_party_witness(self.parties, self.input_alphabets, self.output_alphabets,
                                  self.numerators, lambda v: Fraction(int(v), den))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Every entry as "num/den" in lowest terms, zeros as "0/1"; the
        ``table`` view is not built."""
        data = self._signature_json()
        out_keys = [",".join(map(str, a)) for a in self.output_space()]
        rows = self._rows(lambda v: f"{v.numerator}/{v.denominator}")
        data["table"] = {",".join(map(str, x)): dict(zip(out_keys, row))
                         for x, row in zip(self.input_space(), rows)}
        if not self.nonsignaling_checked:
            data["unchecked"] = True
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NonsignalingResource":
        ctor = cls.new_unchecked if data.get("unchecked") else cls.make
        return ctor(data["id"], *_json_parts(data, frac))


def _parse_keys(mapping: Mapping, parse) -> dict:
    """``mapping`` with each key parsed by ``parse``; two keys that parse
    to the same value, such as "0,0" and "00,0", raise ``ValueError``."""
    parsed, spelled = {}, {}
    for k, v in mapping.items():
        try:
            key = parse(k)
        except ValueError as e:
            raise ValueError(f"key {k!r}: {e}") from None
        if key in spelled:
            raise ValueError(f"keys {spelled[key]!r} and {k!r} both parse to {key}")
        parsed[key], spelled[key] = v, k
    return parsed


def _json_parts(data: Mapping, value) -> tuple:
    """The parties, input and output alphabets and table of a table's JSON
    object, each entry parsed by ``value``."""
    def key(s: str) -> tuple[Symbol, ...]:
        return tuple(map(_parse_symbol, s.split(",")))

    parties = list(data["parties"])
    return (parties,
            {p: Alphabet(tuple(data["inputs"][p])) for p in parties},
            {p: Alphabet(tuple(data["outputs"][p])) for p in parties},
            {x: {a: value(v) for a, v in _parse_keys(column, key).items()}
             for x, column in _parse_keys(data["table"], key).items()})


# -- validation ----------------------------------------------------------------


def validate_nonsignaling(r: NonsignalingResource) -> ValidationReport:
    """Exact check of the one-party nonsignaling condition for every party,
    every fixed context of the other parties' inputs, and every input pair.

    Structural problems (the constructor normally rules these out) are
    reported separately from signaling violations: every entry is
    re-checked to lie in [0, 1] and every column to sum to exactly 1, on
    the integer numerators.
    """
    problem = _structure_problem(r)
    if problem is not None:
        return ValidationReport.fail([problem])
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
    signalers, receivers = tuple(signalers), tuple(receivers)
    for name, group in (("signalers", signalers), ("receivers", receivers)):
        if len(set(group)) != len(group):
            raise ValueError(f"duplicate parties in {name}: {group}")
    if set(signalers) & set(receivers):
        raise ValueError("signalers and receivers must be disjoint")
    sig_idx = [r.party_index(p) for p in signalers]
    recv_idx = [r.party_index(p) for p in receivers]
    held = tuple(slice(None) if i in sig_idx or i in recv_idx else slice(0, 1)
                 for i in range(len(r.parties)))
    hit = _first_signal(r.numerators[held], sig_idx, recv_idx)
    if hit is None:
        return ValidationReport.ok()
    x0, x1, bad, (v0, v1) = hit
    ins, den = r.input_alphabets, r.denominator
    return ValidationReport.fail([
        f"signalers {list(signalers)} switching {_symbols(ins, sig_idx, x0)}->"
        f"{_symbols(ins, sig_idx, x1)} changes receivers' marginal at outputs "
        f"{_symbols(r.output_alphabets, recv_idx, bad)} from {Fraction(int(v0), den)} to "
        f"{Fraction(int(v1), den)} (receiver inputs {_symbols(ins, recv_idx, x0)})"
    ])


# -- derived resources -----------------------------------------------------------


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
    pick: list = [slice(None)] * len(r.parties)
    for i in drop_idx:
        p = r.parties[i]
        xi = _symbol(fixed_inputs.get(p, r.input_alphabets[i].first))
        if xi not in r.input_alphabets[i]:
            raise ValueError(f"fixed input {xi} outside alphabet of party {p!r}")
        pick[i] = r.input_alphabets[i].values.index(xi)

    if not drop_idx and (id is None or id == r.id):
        return r

    nums = r.numerators[tuple(pick)]
    if drop_idx:
        nums = nums.sum(axis=tuple(len(keep_idx) + i for i in drop_idx))
    return NonsignalingResource.make(
        id if id is not None else f"{r.id}[{','.join(keep_parties)}]",
        keep_parties,
        [r.input_alphabets[i] for i in keep_idx],
        [r.output_alphabets[i] for i in keep_idx],
        _Tensor(nums, r.denominator),
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
    if not observed:
        raise ValueError("observed must be non-empty")
    if len(observed) != len(set(observed)):
        raise ValueError(f"duplicate parties in observed: {observed}")
    if len(outputs) != len(observed) or len(inputs) != len(observed):
        raise ValueError("outputs and inputs must align with observed")
    r.require_nonsignaling("condition")

    obs_idx = [r.party_index(p) for p in observed]
    keep_idx = [i for i in range(len(r.parties)) if i not in obs_idx]
    if not keep_idx:
        raise ValueError("conditioning on every party leaves no resource")
    obs_in = dict(zip(obs_idx, map(_symbol, inputs)))
    obs_out = dict(zip(obs_idx, map(_symbol, outputs)))
    for i in obs_idx:
        if obs_in[i] not in r.input_alphabets[i]:
            raise ValueError(f"input {obs_in[i]} outside alphabet of {r.parties[i]!r}")
        if obs_out[i] not in r.output_alphabets[i]:
            raise ValueError(f"output {obs_out[i]} outside alphabet of {r.parties[i]!r}")

    # The observed event's numerators over the kept parties' inputs and
    # outputs; its mass (the same at every kept input) is the denominator.
    n = len(r.parties)
    pick = [slice(None)] * (2 * n)
    for i in obs_idx:
        pick[i] = r.input_alphabets[i].values.index(obs_in[i])
        pick[n + i] = r.output_alphabets[i].values.index(obs_out[i])
    event = r.numerators[tuple(pick)]
    mass = int(event[(0,) * len(keep_idx)].sum())
    if mass == 0:
        raise ZeroConditioningError(
            f"conditioning event has probability zero: parties "
            f"{[r.parties[i] for i in obs_idx]} outputs {outputs} at inputs {inputs}")

    keep_parties = tuple(r.parties[i] for i in keep_idx)
    return NonsignalingResource.make(
        f"{r.id}|{','.join(observed)}",
        keep_parties,
        [r.input_alphabets[i] for i in keep_idx],
        [r.output_alphabets[i] for i in keep_idx],
        _Tensor(event, mass),
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

    table = {x: {tuple(f[xi] for f, xi in zip(fns, x)): 1}
             for x in product(*(a.values for a in in_alphas))}

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
    table = {(x, y): {(a, a ^ rhs): Fraction(1, 2) for a in (0, 1)}
             for x, y in product((0, 1), repeat=2)
             for rhs in [(x & y) ^ (alpha & x) ^ (beta & y) ^ gamma]}
    if id is None:
        id = "PR" if (alpha, beta, gamma) == (0, 0, 0) else f"PR{alpha}{beta}{gamma}"
    bits = Alphabet((0, 1))
    return NonsignalingResource.make(id, parties, [bits, bits], [bits, bits], table)
