"""The mode-action oracle builds its own c_{mnr}: `tests/fock_reference.py`
neither imports nor reads `c_coeffs` or `_c_series`, so the Delta_x it
computes does not share the coefficient code it is compared against."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "fock_reference.py"
C_SERIES = {"c_coeffs", "_c_series"}


def _c_series_uses(path: Path):
    """(line, name) of every import or attribute read of the package's c-series."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.split(".")[-1]
                if name in C_SERIES:
                    yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr in C_SERIES:
            yield node.lineno, node.attr


def test_fock_reference_builds_its_own_c_series():
    assert not list(_c_series_uses(REFERENCE))


def test_the_check_sees_a_c_series_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from permtwist.coeffs import a_coeffs, c_coeffs\n"
                      "import permtwist.coeffs as pc\n"
                      "s = pc._c_series(3, 1, 2)\n", encoding="utf-8")
    assert list(_c_series_uses(module)) == [(1, "c_coeffs"), (3, "_c_series")]
