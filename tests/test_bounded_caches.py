"""Every cache in ``boxnet`` is bounded and has no knob.

A plain AST scan, beside the unused-import scan: ``functools.cache``
and ``lru_cache(maxsize=None)`` (or ``lru_cache(None)``) grow without
bound in a long-running process, so neither may appear in the package;
``lru_cache`` with a fixed size may.
"""

from __future__ import annotations

import ast
from pathlib import Path

import boxnet

SRC = Path(boxnet.__file__).parent


def unbounded_caches(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "cache" and \
                getattr(node.value, "id", None) == "functools":
            found.append(f"line {node.lineno}: functools.cache")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"line {node.lineno}: import cache" for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "lru_cache"
                or getattr(node.func, "attr", None) == "lru_cache"):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if size is not None and isinstance(size, ast.Constant) and size.value is None:
                found.append(f"line {node.lineno}: lru_cache(maxsize=None)")
    return found


def test_scan_finds_unbounded_caches():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef a(): pass\n@cache\ndef b(): pass\n"
              "@lru_cache(maxsize=None)\ndef c(): pass\n@functools.lru_cache(None)\ndef d(): pass\n"
              "@lru_cache(maxsize=64)\ndef e(): pass\n@lru_cache\ndef f(): pass\n")
    assert unbounded_caches(source) == [
        "line 2: import cache", "line 3: functools.cache",
        "line 7: lru_cache(maxsize=None)", "line 9: lru_cache(maxsize=None)"]
    assert unbounded_caches("cache = {}\nself.cache = cache\n") == []


def test_every_cache_in_the_package_is_bounded():
    found = {path.name: unbounded_caches(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # The scan reads the modules that do cache.
    cached = [path.name for path in sorted(SRC.glob("*.py"))
              if "lru_cache(maxsize=" in path.read_text()]
    assert cached == ["decompose.py", "inequality.py", "network.py", "resource.py", "wiring.py"]
