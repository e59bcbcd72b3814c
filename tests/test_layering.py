"""The package's import layering, read from the source with ``ast``.

Each module may import only modules earlier in ``ORDER``, so the package
has no import cycle, and every import sits in a module header.
"""

from __future__ import annotations

import ast
from pathlib import Path

import scrollfiber

PACKAGE = Path(scrollfiber.__file__).parent
ORDER = (
    "errors",
    "scroll_model",
    "facet_complex",
    "oracle",
    "dual_quotients",
    "invariants",
    "cli",
)


def _violations(path: Path) -> list[str]:
    module = path.stem
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = (ast.Import, ast.ImportFrom)
    in_function = {
        id(node): func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, imports)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, imports):
            continue
        if id(node) in in_function:
            found.append(f"{module}:{node.lineno} imports inside {in_function[id(node)]}()")
        if module == "__init__" or not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None and module == "cli":  # ``from . import __version__``
            continue
        target = node.module or "__init__"
        if target not in ORDER or ORDER.index(target) >= ORDER.index(module):
            found.append(f"{module}:{node.lineno} imports {target}, not earlier in the order")
    return found


def test_every_module_has_a_place_in_the_order():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ORDER) | {"__init__"}


def test_imports_follow_the_order_and_sit_in_module_headers():
    violations = [v for path in sorted(PACKAGE.glob("*.py")) for v in _violations(path)]
    assert violations == []
