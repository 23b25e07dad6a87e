"""Every name a ``boxnet`` module imports is used in that module, and
every private function it defines is used somewhere in ``boxnet``.

Plain AST scans, so they need no linter: an imported name counts as used
when it appears as a name anywhere in the module (attribute bases
included) or, for re-exports, as a string in ``__all__``; a private
function or method (one leading underscore, not a dunder) counts as used
when its name appears as a name or an attribute in any module of the
package, so none is kept alive only for callers outside it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import boxnet

SRC = Path(boxnet.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == \
        ["line 1: os", "line 2: lcm"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__") and not name.endswith("__"):
                    defined.append(f"{module}:{node.lineno}: {name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defined if d.rsplit(" ", 1)[1] not in used]


def test_scan_finds_an_unused_private_function():
    sources = {
        "a.py": "class C:\n    def _kept(self): pass\n    def _dropped(self): pass\n"
                "    def __len__(self): return 0\n"
                "def _helper(): pass\ndef public(): return C()._kept()\n",
        "b.py": "from a import _helper\nprint(_helper)\n",
    }
    assert unused_private_functions(sources) == ["a.py:3: _dropped"]


def test_no_private_function_is_unused_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_functions(sources) == []
