"""What a process pays to start: ``import boxnet`` loads no submodule
(each public name is served from its module, imported on first use), each
CLI command loads only the modules it calls, and the CLI keeps numpy's
OpenBLAS to one thread unless the caller chose a count.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxnet

SRC = Path(boxnet.__file__).parents[1]


def _python(code: str, **env) -> str:
    """The last line ``code`` prints in a fresh interpreter that has no
    ``OPENBLAS_NUM_THREADS`` unless given one in ``env``."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**base, "PYTHONPATH": str(SRC), **env})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _python("import sys, boxnet; print(sorted(m for m in sys.modules "
                     "if m == 'numpy' or m.startswith(('numpy.', 'boxnet.'))))")
    assert loaded == "[]"


def test_submodules_are_served_on_first_use():
    code = ("import boxnet; from boxnet import decompose; "
            "print(decompose.__name__, boxnet.linprog.__name__, boxnet.ghz.__name__)")
    assert _python(code) == "boxnet.decompose boxnet.linprog boxnet.ghz"


@pytest.mark.parametrize("name", [n for n in boxnet.__all__ if n != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(boxnet, name)
    assert vars(sys.modules[obj.__module__])[name] is obj
    assert hasattr(boxnet, name) and name in dir(boxnet)


def test_a_public_name_is_read_from_its_module_each_time():
    # Read while the module's binding is patched, then after it is restored:
    # the package keeps no copy of either.
    code = ("import boxnet, boxnet.decompose as d; real = d.is_local; d.is_local = len; "
            "patched = boxnet.is_local; d.is_local = real; "
            "print(patched is len, boxnet.is_local is d.is_local)")
    assert _python(code) == "True True"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from boxnet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(boxnet.__all__)
    assert namespace["__version__"] == boxnet.__version__


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(boxnet, "no_such_name")
    with pytest.raises(AttributeError, match="^module 'boxnet' has no attribute 'cli_main'$"):
        boxnet.cli_main  # noqa: B018


def _loaded_by(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code of ``main(argv)`` in a fresh interpreter, and the
    ``boxnet.*`` modules that process then holds."""
    code = (f"import sys; from boxnet.cli import main; rc = main({argv!r}); "
            "print((rc, sorted(m for m in sys.modules if m.startswith('boxnet.'))))")
    return ast.literal_eval(_python(code))


NETWORK_LAYERS = ["boxnet.cli", "boxnet.network", "boxnet.resource", "boxnet.wiring"]


@pytest.mark.parametrize("argv", [
    ["validate", "worked"],
    ["joint", "worked", "--settings", "0,1,0"],
    ["behavior", "worked"],
], ids=["validate", "joint", "behavior"])
def test_network_commands_load_only_the_network_layers(argv):
    assert _loaded_by(argv) == (0, NETWORK_LAYERS)


@pytest.mark.parametrize("command", ["ineq-eval", "ghz-eval"])
def test_evaluations_load_no_lp(tmp_path, capsys, command):
    """Scoring an inequality or a GHZ strategy needs neither the vertex
    enumerator nor the simplex."""
    from boxnet.cli import main

    if command == "ineq-eval":
        main(["behavior", "wired-pr", "-o", str(tmp_path / "wired.json")])
        argv = ["ineq", "eval", "--ineq", "mao", "--behavior", str(tmp_path / "wired.json")]
    else:
        argv = ["ghz", "eval", "--angles", "0,1,0,1,0,1"]
    capsys.readouterr()
    rc, loaded = _loaded_by(argv)
    assert rc in (0, 1)
    assert {"boxnet.inequality", "boxnet.ghz"} <= set(loaded)
    assert not {"boxnet.decompose", "boxnet.linprog"} & set(loaded)


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


needs_openblas_and_proc = pytest.mark.skipif(
    not (Path("/proc/self/status").is_file() and _openblas()),
    reason="needs /proc and a numpy built with OpenBLAS")

RUN_AND_COUNT = (
    "import os; from boxnet.cli import main; rc = main(['validate', 'worked']); "
    "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')]; "
    "print(rc, os.environ['OPENBLAS_NUM_THREADS'], *threads)")


@needs_openblas_and_proc
def test_cli_process_runs_one_thread():
    assert _python(RUN_AND_COUNT) == "0 1 1"


@needs_openblas_and_proc
def test_callers_thread_count_is_kept():
    assert _python(RUN_AND_COUNT, OPENBLAS_NUM_THREADS="2").split()[:2] == ["0", "2"]
