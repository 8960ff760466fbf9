"""The oracles build what they check: `tests/fock_reference.py` neither
imports nor reads `c_coeffs` or `_c_series`, so the Delta_x it computes does
not share the coefficient code it is compared against, nor `Sector` or its
`vector`, so `eigenprojection` keeps its own nu-sum; and
`tests/characters_reference.py` reads neither `norm_counts` nor `_descend`,
so its theta series keeps its own ball and its own norms."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "fock_reference.py"
C_SERIES = {"c_coeffs", "_c_series"}
NORM_COUNTS = {"norm_counts", "_descend"}
SECTOR_VECTOR = {"Sector", "vector"}


def _reads(path: Path, names):
    """(line, name) of every import or attribute read of one of the names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.split(".")[-1]
                if name in names:
                    yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr


def test_fock_reference_builds_its_own_c_series():
    assert not list(_reads(REFERENCE, C_SERIES))


def test_fock_reference_projects_without_the_sector_split():
    assert not list(_reads(REFERENCE, SECTOR_VECTOR))


def test_characters_reference_takes_its_own_norms():
    assert not list(_reads(TESTS / "characters_reference.py", NORM_COUNTS))


def test_the_check_sees_a_c_series_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from permtwist.coeffs import a_coeffs, c_coeffs\n"
                      "import permtwist.coeffs as pc\n"
                      "s = pc._c_series(3, 1, 2)\n", encoding="utf-8")
    assert list(_reads(module, C_SERIES)) == [(1, "c_coeffs"), (3, "_c_series")]
    module.write_text("counts = K.norm_counts(3)\nK._descend(3, None, print)\n", encoding="utf-8")
    assert list(_reads(module, NORM_COUNTS)) == [(1, "norm_counts"), (2, "_descend")]
    module.write_text("from permtwist.fock import Sector\nsplit = sector.vector(h)\n",
                      encoding="utf-8")
    assert list(_reads(module, SECTOR_VECTOR)) == [(1, "Sector"), (2, "vector")]
