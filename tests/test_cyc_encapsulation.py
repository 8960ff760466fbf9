"""Only `permtwist.exact` reads the storage of a `Cyc`: its numerators `_num`
and denominator `_den`.  Every other module goes through the field
operations, so the representation can change in one file."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permtwist"
STORAGE = {"_num", "_den"}


def _storage_reads(path: Path):
    """(line, attribute) of every `._num` or `._den` in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            yield node.lineno, node.attr


def test_only_exact_reads_cyc_storage():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "exact.py" in modules and len(modules) > 5
    outside = [f"{path.relative_to(PACKAGE)}:{line}: .{attr}"
               for path in modules if path.name != "exact.py"
               for line, attr in _storage_reads(path)]
    assert not outside, outside


def test_the_check_sees_a_storage_read(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f(x):\n    return x.den, x._num[0]\n\n\ny = f(1)._den\n",
                      encoding="utf-8")
    assert sorted(_storage_reads(module)) == [(2, "_num"), (5, "_den")]
