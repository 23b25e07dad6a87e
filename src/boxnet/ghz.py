"""Floating-point three-qubit GHZ measurement simulator.

The only float-typed module.  Measurements are +/-1-valued projective
measurements in the X-Z plane, ``cos(t)*Z + sin(t)*X``; behaviors are
computed from the state vector ``(|000> + |111>)/sqrt(2)`` and checked
for normalization (1e-12 per column) and nonsignaling (1e-10) before
use.  ``search_max_violation`` scans a deterministic angle grid and
refines by coordinate descent, scoring strategies with the closed-form
GHZ correlators (pair ``cos*cos``, triple ``sin*sin*sin``, singles 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .inequality import InequalityError, LinearInequality
from .resource import (
    Alphabet,
    ProbabilityTable,
    SignalingWitness,
    TableError,
    _json_parts,
    _one_party_witness,
)

GHZ_PARTIES = ("A", "B", "C")

#: Per-entry and per-column tolerance of a float behavior's normalization.
ATOL_NORM = 1e-12
#: Largest difference of two marginals a float behavior may show and
#: still count as nonsignaling.
ATOL_NS = 1e-10

_GHZ = np.zeros(8)
_GHZ[0] = _GHZ[7] = 1 / math.sqrt(2)


@dataclass(frozen=True)
class MeasurementSetting:
    """One projective qubit measurement along cos(angle)*Z + sin(angle)*X."""

    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"measurement angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class QuantumStrategy:
    """One MeasurementSetting per (party, setting)."""

    settings: dict[str, tuple[MeasurementSetting, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "settings",
            {p: tuple(ms) for p, ms in self.settings.items()})
        for p, per_setting in self.settings.items():
            if not per_setting:
                raise ValueError(f"party {p!r} has no measurement settings")

    @classmethod
    def from_angles(cls, angles: Mapping[str, Sequence[float]]) -> "QuantumStrategy":
        return cls({p: tuple(MeasurementSetting(float(a)) for a in per)
                    for p, per in angles.items()})

    def angle(self, party: str, setting: int) -> float:
        return self.settings[party][setting].angle

    def angles(self) -> dict[str, tuple[float, ...]]:
        return {p: tuple(ms.angle for ms in per)
                for p, per in self.settings.items()}


class FloatBehavior(ProbabilityTable):
    """Behavior with float probabilities, validated at construction.

    Stored as ``probabilities``, one float64 array with the axis layout of
    ``NonsignalingResource.numerators``; the signature accessors, the
    nonsignaling check and the ``table`` view come from the shared base.
    ``table`` is such an array or a mapping input tuple -> output tuple ->
    probability, with missing outputs 0; a mapping's keys are checked as
    an exact table's are.
    """

    __slots__ = ("probabilities",)

    def __init__(self, id: str, parties: Sequence[str],
                 input_alphabets: Sequence[Alphabet],
                 output_alphabets: Sequence[Alphabet],
                 table: np.ndarray | Mapping[tuple, Mapping[tuple, float]]) -> None:
        self._set_signature(id, parties, input_alphabets, output_alphabets)
        shape = [len(a) for a in self.input_alphabets + self.output_alphabets]
        if isinstance(table, Mapping):
            flat = np.zeros(math.prod(shape))
            for _, entries in self._columns(table):
                for i, _, value in entries:
                    flat[i] = float(value)
            table = flat
        self.probabilities = np.array(table, dtype=np.float64).reshape(shape)
        self.probabilities.flags.writeable = False
        for x, row in zip(self.input_space(), self._rows()):
            total = 0.0
            for a, v in zip(self.output_space(), row):
                if not -ATOL_NORM <= v <= 1 + ATOL_NORM:  # false for NaN too
                    raise TableError(f"probability {v} out of range at {x} {a}")
                total += v
            if abs(total - 1) > ATOL_NORM:
                raise TableError(f"column {x} sums to {total}, not 1")
        self.require_nonsignaling("construction")

    def _value(self, pos: tuple[int, ...]) -> float:
        return float(self.probabilities[pos])

    def _rows(self) -> list[list[float]]:
        width = math.prod(len(a) for a in self.output_alphabets)
        return self.probabilities.reshape(-1, width).tolist()

    def _find_signaling_witness(self) -> SignalingWitness | None:
        return _one_party_witness(self.parties, self.input_alphabets, self.output_alphabets,
                                  self.probabilities, float, ATOL_NS)

    def to_json_dict(self) -> dict:
        out_keys = [",".join(map(str, a)) for a in self.output_space()]
        return {
            "float": True,
            **self._signature_json(),
            "table": {
                ",".join(map(str, x)): {k: v for k, v in zip(out_keys, row) if v != 0.0}
                for x, row in zip(self.input_space(), self._rows())},
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "FloatBehavior":
        return cls(d["id"], *_json_parts(d, float))


def _observable(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def ghz_behavior(strategy: QuantumStrategy, *, id: str = "ghz") -> FloatBehavior:
    """Outcome probabilities for measuring (|000> + |111>)/sqrt(2) with
    the strategy's product projective measurements.  Outcome symbol 0 is
    the +1 result, symbol 1 the -1 result."""
    if set(strategy.settings) != set(GHZ_PARTIES):
        raise ValueError(f"a GHZ strategy names parties {GHZ_PARTIES}, got "
                         f"{sorted(strategy.settings)}")
    projectors = {}
    for p in GHZ_PARTIES:
        per = []
        for ms in strategy.settings[p]:
            m = _observable(ms.angle)
            eye = np.eye(2)
            per.append(((eye + m) / 2, (eye - m) / 2))
        projectors[p] = per

    in_alphas = [Alphabet(tuple(range(len(strategy.settings[p]))))
                 for p in GHZ_PARTIES]
    bits = Alphabet((0, 1))
    probs = np.empty([len(a) for a in in_alphas] + [2, 2, 2])
    for ctx in product(*(a.values for a in in_alphas)):
        for outs in product((0, 1), repeat=3):
            op = np.kron(np.kron(projectors["A"][ctx[0]][outs[0]],
                                 projectors["B"][ctx[1]][outs[1]]),
                         projectors["C"][ctx[2]][outs[2]])
            probs[ctx + outs] = _GHZ @ op @ _GHZ
    return FloatBehavior(id, GHZ_PARTIES, in_alphas, [bits] * 3, probs)


def _closed_form_value(ineq: LinearInequality,
                       angle_of: Mapping[tuple, float]) -> float:
    """LHS of the inequality on the GHZ behavior of the given angles,
    via the closed-form correlators."""
    total = 0.0
    for t in ineq.terms:
        if len(t.parties) == 1:
            continue
        f = math.cos if len(t.parties) == 2 else math.sin
        prod = float(t.coefficient)
        for p, s in zip(t.parties, t.settings):
            prod *= f(angle_of[(p, s)])
        total += prod
    return total


@dataclass(frozen=True)
class SearchResult:
    strategy: QuantumStrategy
    value: float


def search_max_violation(ineq: LinearInequality, *, grid: int = 16,
                         step_floor: float = 1e-4) -> SearchResult:
    """Deterministic maximization of the inequality's LHS over X-Z-plane
    GHZ strategies: a full grid of ``grid`` points per angle, then
    coordinate descent halving the step down to ``step_floor``.  Ties on
    the grid break toward the lexicographically smallest angle tuple.
    ``grid`` must be at least 1 and ``step_floor`` positive and finite,
    else the descent would never stop.  The descent finds a local
    maximum only.  Measured for ``mao``: from grids of 1 to 4 points it
    stops at the stationary value 4.0; grids of 5 to 13 and of 16 points
    reach 2 + 2*sqrt(2), and on 5 points the descent climbs there from
    the grid's best."""
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if not (math.isfinite(step_floor) and step_floor > 0):
        raise ValueError(f"step_floor must be positive and finite, got {step_floor}")
    parties = sorted(ineq.settings_counts)
    if len(parties) != 3:
        raise InequalityError("GHZ search needs a three-party inequality")
    axes = [(p, s) for p in parties for s in range(ineq.settings_counts[p])]
    if len(axes) > 6:
        raise InequalityError(
            f"GHZ search handles at most 6 angles, scenario needs {len(axes)}")

    thetas = np.arange(grid) * (2 * math.pi / grid)
    landscape = np.zeros((grid,) * len(axes))
    for t in ineq.terms:
        if len(t.parties) == 1:
            continue
        f = np.cos if len(t.parties) == 2 else np.sin
        term = np.array(float(t.coefficient))
        for p, s in zip(t.parties, t.settings):
            i = axes.index((p, s))
            shape = [1] * len(axes)
            shape[i] = grid
            term = term * f(thetas).reshape(shape)
        landscape += term
    best_idx = np.unravel_index(np.argmax(landscape), landscape.shape)
    angle_of = {axis: float(thetas[k]) for axis, k in zip(axes, best_idx)}

    best = _closed_form_value(ineq, angle_of)
    step = 2 * math.pi / grid
    while step >= step_floor:
        improved = False
        for axis in axes:
            for delta in (step, -step):
                candidate = dict(angle_of)
                candidate[axis] += delta
                v = _closed_form_value(ineq, candidate)
                if v > best:
                    best, angle_of, improved = v, candidate, True
        if not improved:
            step /= 2

    by_party = {p: tuple(angle_of[(p, s)]
                         for s in range(ineq.settings_counts[p]))
                for p in parties}
    return SearchResult(strategy=QuantumStrategy.from_angles(by_party),
                        value=best)
