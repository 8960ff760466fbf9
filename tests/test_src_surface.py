"""`src/` keeps only what a report, the bench or the engine calls.

Every module-level function and class of the package, and every method,
must be read somewhere: as an `ast.Name` or `ast.Attribute` in
`src/permtwist` outside its own definition, or in `bench/*.py`, where the
tracer's TARGETS strings count too.  Dunder methods are left out, as Python
calls them itself.  RESERVED lists the public names that have no caller
yet, each with the ROADMAP item that will call it from a report; the check
runs both ways, so a reserved name that gains a caller leaves the dict.  A
private helper has no such entry: one that nothing reads, as a refactor can
leave behind, fails.  Names are matched on the AST, so a mention in a
comment or docstring is not a call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESERVED = {
    "nu_hat_state": "ROADMAP item 1",
    "twisted_state_counts": "ROADMAP item 5",
    "TwistSystem.commutator_C0": "ROADMAP item 5",
    "TwistSystem.commutator_C": "ROADMAP item 5",
    "TwistSystem.ext_commutator": "ROADMAP item 5",
    "TwistSystem.n_generators": "ROADMAP item 5",
    "TwistSystem.kernel_basis": "ROADMAP item 5",
    "general_mode_image": "ROADMAP item 5",
    "f_inverse_apply": "ROADMAP item 5",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def _definitions(path: Path):
    """(qualified name, first line, last line) of each module-level function
    and class of a module, and of each method but the dunder ones."""
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _reads(path: Path):
    """(line, name) of every ast.Name and ast.Attribute in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def _target_names(path: Path):
    """Each part of the function or "Class.method" strings in TARGETS."""
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            for entry in node.value.elts:
                yield from entry.elts[2].value.split(".")


def uncalled(package: Path, bench: Path) -> set[str]:
    """The names of the package that nothing in it or in the bench reads."""
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted(package.glob("*.py")):
        for line, name in _reads(path):
            seen.setdefault(name, []).append((path, line))
    outside = {name for path in sorted(bench.glob("*.py")) for _, name in _reads(path)}
    tracing = bench / "tracing.py"
    if tracing.exists():
        outside.update(_target_names(tracing))
    out = set()
    for path in sorted(package.glob("*.py")):
        for qualified, first, last in _definitions(path):
            name = qualified.rsplit(".", 1)[-1]
            if name in outside:
                continue
            if not any(where != path or not first <= line <= last
                       for where, line in seen.get(name, ())):
                out.add(qualified)
    return out


def test_every_public_name_is_called_or_reserved():
    found = uncalled(ROOT / "src" / "permtwist", ROOT / "bench")
    assert {name for name in found if not _private(name)} == set(RESERVED)
    assert all(item.startswith("ROADMAP item ") for item in RESERVED.values())


def test_every_private_helper_is_read():
    found = uncalled(ROOT / "src" / "permtwist", ROOT / "bench")
    assert {name for name in found if _private(name)} == set()


def test_the_check_sees_a_planted_unused_name(tmp_path):
    package, bench = tmp_path / "permtwist", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "def planted(n):\n"
        '    """planted calls itself, which is no call from outside."""\n'
        "    return planted(n - 1) if n else 0\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def traced(self):\n"
        "        return 2\n"
        "\n"
        "    def _private(self):\n"
        "        return 3\n"
        "\n"
        "    def __repr__(self):\n"
        "        return self._read()\n"
        "\n"
        "    def _read(self):\n"
        "        return 'Thing'\n"
        "\n"
        "\n"
        "def _helper():\n"
        '    """_helper is only named in its own docstring."""\n'
        "    return 4\n"
        "\n"
        "\n"
        "def caller():\n"
        '    """Mentions planted() in a docstring."""\n'
        "    # and planted() in a comment\n"
        "    return Thing().used()\n", encoding="utf-8")
    (bench / "run.py").write_text("from permtwist import mod\nmod.caller()\n", encoding="utf-8")
    (bench / "tracing.py").write_text(
        'TARGETS = (("mod.thing", "mod", "Thing.traced", "span"),)\n', encoding="utf-8")
    assert uncalled(package, bench) == {"planted", "Thing._private", "_helper"}
    (bench / "tracing.py").unlink()
    assert uncalled(package, bench) == {"planted", "Thing._private", "_helper", "Thing.traced"}
