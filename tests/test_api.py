"""Public surface: every exported name is used somewhere outside the tests.

References are collected by AST from the library modules, the scripts and
the benchmark: bare names, attribute names, and the last part of dotted
"module.fn" string constants (the benchmark names its ops that way).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pbtbounds"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

# exported without a caller outside the tests: the README example uses
# block_bounds_ad, the tests build their reference channels and distances with
# depolarizing, trace_norm and relative_entropy, and the planned channel-pair
# layer is to call them together with bound_B_analytic_M
UNREFERENCED = {"block_bounds_ad", "bound_B_analytic_M", "depolarizing", "relative_entropy", "trace_norm"}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
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


def test_exports_without_a_caller_are_the_known_few():
    assert _exports() - _references() == UNREFERENCED
