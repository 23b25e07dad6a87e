"""The benchmark's tracer wraps library functions by name.

``perfbench/tracing.py`` looks each (module, attribute) target up with
``_resolve`` and skips a name the library no longer has, so a renamed
entry point would silently read 0 in its per-layer metrics.  This test
loads the tracer as it is (it is not changed) and requires every target
to resolve, apart from ``Network._trace``, whose lookup the network
construction no longer has, and ``linprog.solve_feasibility``, the dense
entry point retired because nothing called it: ``solve_columns`` is the
LP's only entry point, and the tracer's ``linprog.*`` metrics read 0
with or without it.
"""
from __future__ import annotations

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
DEAD = {("boxnet.network", "Network._trace"), ("boxnet.linprog", "solve_feasibility")}


def _tracing():
    """The tracer's module, compiled from its source: no bytecode cache is
    written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()
TARGETS = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.LEAVES
           if (module, attr) not in DEAD]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    owner, fn = tracing._resolve(module, attr)
    assert owner is not None and callable(fn)
