"""Differential tests of the GHZ search's one closed-form evaluator against
the two it replaced.

``reference_search`` below is the earlier ``search_max_violation``, as it
was: the whole grid as one numpy landscape, then a coordinate descent
scored by a ``math`` scalar.  ``ghz.search_max_violation`` scores both the
grid, one slab at a time, and the descent with ``ghz._closed_form_value``.
On the named three-party inequalities at every grid from 1 to 16, and on
seeded random ones, the value and every angle must equal the reference's
exactly.  Further tests pin how the grid is sliced and the peak memory of
``boxnet ghz search`` in its own process.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import boxnet
import boxnet.ghz as ghz
from boxnet.inequality import (
    LinearInequality,
    _term,
    cao_inequality,
    chao_reichardt_correlator,
    mao_inequality,
)


def _reference_value(ineq, angle_of):
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


def reference_search(ineq, grid=16, step_floor=1e-4):
    """(value, angles by party) of the earlier search."""
    parties = sorted(ineq.settings_counts)
    axes = [(p, s) for p in parties for s in range(ineq.settings_counts[p])]
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

    best = _reference_value(ineq, angle_of)
    step = 2 * math.pi / grid
    while step >= step_floor:
        improved = False
        for axis in axes:
            for delta in (step, -step):
                candidate = dict(angle_of)
                candidate[axis] += delta
                v = _reference_value(ineq, candidate)
                if v > best:
                    best, angle_of, improved = v, candidate, True
        if not improved:
            step /= 2
    return best, {p: tuple(angle_of[(p, s)] for s in range(ineq.settings_counts[p]))
                  for p in parties}


def _assert_same(ineq, grid, step_floor=1e-4):
    res = ghz.search_max_violation(ineq, grid=grid, step_floor=step_floor)
    value, angles = reference_search(ineq, grid, step_floor)
    assert type(res.value) is float
    assert (res.value, res.strategy.angles()) == (value, angles)


@pytest.mark.parametrize("make", [mao_inequality, chao_reichardt_correlator, cao_inequality])
@pytest.mark.parametrize("grid", range(1, 17))
def test_named_inequalities_match_the_reference(make, grid):
    _assert_same(make(), grid)


def _random_inequality(seed: int) -> LinearInequality:
    """Three parties with 1-2 settings each; singles, pairs and triples
    with small signed rational coefficients."""
    rng = random.Random(seed)
    counts = {p: rng.randint(1, 2) for p in "ABC"}
    terms = {}
    for _ in range(rng.randint(1, 8)):
        parties = rng.sample("ABC", rng.choice((1, 2, 2, 3, 3)))
        settings = {p: rng.randrange(counts[p]) for p in sorted(parties)}
        terms[tuple(settings.items())] = _term(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)), **settings)
    return LinearInequality(f"random{seed}", tuple(terms.values()), Fraction(1), counts)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("grid", [3, 5, 8])
def test_random_inequalities_match_the_reference(seed, grid):
    _assert_same(_random_inequality(seed), grid, step_floor=1e-3)


def test_grid_is_scored_one_slab_per_first_angle(monkeypatch):
    # Every grid point is scored once, in slabs of grid**5 values, and every
    # descent candidate on floats, by the same evaluator.
    shapes = []
    closed_form = ghz._closed_form_value

    def spy(ineq, angle_of):
        value = closed_form(ineq, angle_of)
        shapes.append(value.shape)
        return value

    monkeypatch.setattr(ghz, "_closed_form_value", spy)
    ghz.search_max_violation(mao_inequality(), grid=7)
    assert shapes[:7] == [(7,) * 5] * 7
    assert len(shapes) > 7 and set(shapes[7:]) == {()}


def test_ghz_search_process_stays_small():
    # ru_maxrss of the CLI's own process, read in an interpreter that has no
    # other child; the whole 16**6 grid alone would be 128 MiB.
    code = ("import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'boxnet.cli', 'ghz', 'search',"
            " '--ineq', 'mao'], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(boxnet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 100
