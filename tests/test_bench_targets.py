"""The benchmark's tracing targets name functions that exist in permtwist.

`bench/tracing.py` patches each TARGETS entry by name; a refactor that
deletes or renames one would otherwise break `bench/run.py --trace 1`
without any test noticing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up while it executes
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_tracing_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for metric, modname, attr, _ in targets:
        owner = importlib.import_module(f"permtwist.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((metric, f"permtwist.{modname}.{attr}"))
    assert not missing
