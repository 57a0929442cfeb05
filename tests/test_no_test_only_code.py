"""Nothing in the package is reached only from the tests.

Every ``def`` and ``class`` in ``src/iotsim`` (dunders aside) must be named
somewhere in the package or in the benchmark's own modules
(``perfbench/*.py``, not its tests): as a name, an attribute, an import, or
a string that is an identifier, which covers the names perfbench's
``targets()`` wraps.  A definition does not count as a use of itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The run's receipt audit: C01, C03 and C04 read it, and the README describes it.
ALLOWED = {"receiver_sets", "duplicate_deliveries", "max_trace_len"}


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update({node.name.rpartition(".")[2], node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def test_every_package_definition_is_reached_outside_the_tests():
    package = sorted((ROOT / "src" / "iotsim").glob("*.py"))
    assert package, "package sources not found"
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used |= _names_used(tree)
        if path not in package:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    unreached = sorted(f"{where} {name}" for name, where in defined.items() if name not in used | ALLOWED)
    assert unreached == []
