"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permtwist"


def _absolute_imports(path: Path):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    allowed = set(sys.stdlib_module_names) | {"permtwist"}
    outside = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
               for path in modules for line, name in _absolute_imports(path)
               if name not in allowed]
    assert not outside, outside


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os.path\nfrom sympy import Rational\nfrom . import exact\n",
                      encoding="utf-8")
    assert list(_absolute_imports(module)) == [(1, "os"), (2, "sympy")]
