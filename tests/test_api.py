"""Public surface and imports, checked by AST in place of a linter.

Every exported name is used somewhere outside the tests. References are
collected from the library modules and the benchmark: bare names, attribute
names, and the last part of dotted "module.fn" string constants (the
benchmark names its ops that way). Every name a library
module imports is used in that module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pbtbounds"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

# exported without a caller outside the tests: none. A name only the tests
# need lives in the tests (the depolarizing reference channel is in conftest);
# a new estimator or channel is exported together with its first caller.
UNREFERENCED = set()


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.add(node.value.rsplit(".", 1)[1])
    return names


def test_every_export_has_a_caller_outside_the_tests():
    assert _exports() - _references() == UNREFERENCED


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_library_modules_use_every_import(path):
    assert _unused_imports(path) == set()
