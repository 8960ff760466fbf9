"""Outside-in per-layer tracing of permtwist.

`Tracer.install` wraps the public functions listed in TARGETS by patching
each name where it is looked up: the defining module, every permtwist module
that imported the name, and class attributes for methods.  A wrapper keeps,
per target, its call count and self time (its duration minus the time spent
in nested wrapped calls); entry points of isomap, vertexops, coeffs,
characters and lattice also record a span (name, start, end, id, parent id,
operation id).  Scalar, state and mode-level targets, called over a hundred
thousand times a round, keep counts and time only.

A layer's self time is the sum over its targets, so time spent in an
unwrapped helper of another layer counts toward the caller.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

SPAN, COUNT = "span", "count"

# (metric name, module, function or "Class.method", kind)
TARGETS = (
    ("cli.parse_lattice_file", "cli", "parse_lattice_file", COUNT),
    ("exact.cyc_mul", "exact", "Cyc.__mul__", COUNT),
    ("exact.cyc_add", "exact", "Cyc.__add__", COUNT),
    ("exact.cyc_inv", "exact", "Cyc.inv", COUNT),
    ("lattice.enumerate_up_to_norm", "lattice", "Lattice.enumerate_up_to_norm", SPAN),
    ("lattice.direct_sum_power", "lattice", "Lattice.direct_sum_power", SPAN),
    ("lattice.dual_coset_reps", "lattice", "Lattice.dual_coset_reps", SPAN),
    ("cocycle.twist_system", "cocycle", "TwistSystem.__init__", COUNT),
    ("cocycle.ut_action", "cocycle", "TwistSystem.ut_action", COUNT),
    ("cocycle.sigma", "cocycle", "TwistSystem.sigma", COUNT),
    ("fock.apply_mode", "fock", "apply_mode", COUNT),
    ("fock.apply_vector_mode", "fock", "apply_vector_mode", COUNT),
    ("fock.apply_twisted_vector_mode", "fock", "apply_twisted_vector_mode", COUNT),
    ("fock.state_add", "fock", "StateVector.__add__", COUNT),
    ("fock.state_scaled", "fock", "StateVector.scaled", COUNT),
    ("fock.virasoro_L", "fock", "virasoro_L", COUNT),
    ("fock.twisted_L0", "fock", "twisted_L0", COUNT),
    ("fock.weight_basis", "fock", "weight_basis", COUNT),
    ("coeffs.exp_delta_apply", "coeffs", "exp_delta_apply", SPAN),
    ("coeffs.ef_apply", "coeffs", "ef_apply", SPAN),
    ("coeffs.ef_inverse_apply", "coeffs", "ef_inverse_apply", SPAN),
    ("vertexops.untwisted_mode", "vertexops", "untwisted_mode", SPAN),
    ("vertexops.spacetime_series_coefficient", "vertexops",
     "spacetime_series_coefficient", SPAN),
    ("vertexops.spacetime_twisted_mode", "vertexops", "spacetime_twisted_mode", SPAN),
    ("vertexops.worldsheet_twisted_mode", "vertexops", "worldsheet_twisted_mode", SPAN),
    ("vertexops.base_module_mode", "vertexops", "base_module_mode", SPAN),
    ("characters.series_mul", "characters", "FracQSeries.__mul__", COUNT),
    ("characters.series_inverse", "characters", "FracQSeries.inverse", COUNT),
    ("characters.eta_power", "characters", "eta_power", SPAN),
    ("characters.theta_series", "characters", "theta_series", SPAN),
    ("characters.char_twisted", "characters", "char_twisted", SPAN),
    ("characters.char_voa", "characters", "char_voa", SPAN),
    ("characters.char_coset", "characters", "char_coset", SPAN),
    ("characters.char_cycle_type", "characters", "char_cycle_type", SPAN),
    ("characters.compare_thm41", "characters", "compare_thm41", SPAN),
    ("isomap.intertwine_check", "isomap", "intertwine_check", SPAN),
    ("isomap.f_apply", "isomap", "f_apply", SPAN),
    ("isomap.generator_family", "isomap", "generator_family", SPAN),
    ("isomap.default_mode_set", "isomap", "default_mode_set", SPAN),
)

LAYERS = ("exact", "lattice", "cocycle", "fock", "coeffs", "vertexops",
          "characters", "isomap", "cli")

# The per-layer metrics a traced run reports, with their units.  Counts
# repeat exactly between runs with the same seed; times do not.
METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"vertexops.{f}.calls", "count") for f in
       ("untwisted_mode", "spacetime_series_coefficient",
        "worldsheet_twisted_mode", "base_module_mode")]
    + [(f"coeffs.{f}.calls", "count") for f in
       ("exp_delta_apply", "ef_apply", "ef_inverse_apply")]
    + [("coeffs.exp_delta_apply.self_s", "s"),
       ("coeffs.exp_delta_apply.distinct_share", "ratio"),
       ("coeffs.ef_apply.distinct_share", "ratio"),
       ("fock.apply_mode.calls", "count"), ("fock.apply_mode.self_s", "s"),
       ("fock.virasoro_L.calls", "count"), ("fock.twisted_L0.calls", "count"),
       ("exact.cyc_mul.calls", "count"), ("exact.cyc_mul.self_s", "s"),
       ("exact.cyc_mul.rational_share", "ratio"),
       ("exact.cyc_add.calls", "count"), ("exact.cyc_inv.calls", "count"),
       ("lattice.enumerate_up_to_norm.calls", "count"),
       ("lattice.enumerate_up_to_norm.vectors", "count"),
       ("lattice.enumerate_up_to_norm.self_s", "s"),
       ("characters.series_mul.calls", "count"),
       ("characters.series_inverse.calls", "count"),
       ("characters.series_inverse.self_s", "s"),
       ("characters.eta_power.self_s", "s"),
       ("isomap.intertwine_check.calls", "count"), ("isomap.f_apply.calls", "count"),
       ("cocycle.twist_system.self_s", "s"),
       ("cocycle.ut_action.calls", "count"), ("cocycle.sigma.calls", "count"),
       ("fock.weight_basis.self_s", "s"), ("cli.parse_lattice_file.self_s", "s"),
       ("trace.overhead_s", "s")]
)


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    vectors: int = 0          # enumerate_up_to_norm: vectors returned
    rational: int = 0         # cyc_mul: products of two rational operands
    inputs: set = field(default_factory=set)  # distinct input states


class Tracer:
    """Counters and spans for one traced round; wrappers record only while
    `active` is set, so the benchmark's own checks are not counted."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.spans: list[tuple] = []
        self._frame = [0.0, -1]       # [time in nested wrapped calls, span id]

    def install(self, mods) -> None:
        """Patch every target in the freshly imported permtwist modules."""
        modules = list(vars(mods).values())
        for name, modname, attr, kind in TARGETS:
            owner = getattr(mods, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name, original, kind)
                for key, val in list(cls.__dict__.items()):
                    if val is original:          # e.g. __rmul__ = __mul__
                        setattr(cls, key, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, kind)
                for module in modules:
                    for key, val in list(vars(module).items()):
                        if val is original:
                            setattr(module, key, wrapper)

    def _wrap(self, name, fn, kind):
        stat = self.stats[name]
        tracer = self
        clock = time.perf_counter
        spans = self.spans if kind == SPAN else None
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(stat, args)
            parent = tracer._frame
            frame = [0.0, len(spans) if spans is not None else -1]
            if spans is not None:
                spans.append(None)               # reserve the id
            tracer._frame = frame
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._frame = parent
                parent[0] += end - start
                stat.calls += 1
                stat.self_s += end - start - frame[0]
                if spans is not None:
                    spans[frame[1]] = (name, start, end, frame[1], parent[1], tracer.op)
            if after is not None:
                after(stat, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """The per-layer metric values of this round (without the overhead)."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".")[0] + ".self_s"] += stat.self_s
            out[name + ".calls"] = stat.calls
            out[name + ".self_s"] = stat.self_s
        out["lattice.enumerate_up_to_norm.vectors"] = \
            self.stats["lattice.enumerate_up_to_norm"].vectors
        mul = self.stats["exact.cyc_mul"]
        out["exact.cyc_mul.rational_share"] = mul.rational / mul.calls if mul.calls else 0.0
        for name in ("coeffs.exp_delta_apply", "coeffs.ef_apply"):
            st = self.stats[name]
            out[name + ".distinct_share"] = len(st.inputs) / st.calls if st.calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, sid, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": sid, "parent": parent, "op": op}) + "\n")


def _count_rational(stat, args):
    a, b = args
    if a.is_rational() and (not isinstance(b, type(a)) or b.is_rational()):
        stat.rational += 1


def _record_input(stat, args):
    system, v = args[0], args[1]
    stat.inputs.add((system.K.gram, system.k, v.sector, frozenset(v.terms.items())))


def _count_vectors(stat, result):
    stat.vectors += len(result)


_BEFORE = {"exact.cyc_mul": _count_rational,
           "coeffs.exp_delta_apply": _record_input,
           "coeffs.ef_apply": _record_input}
_AFTER = {"lattice.enumerate_up_to_norm": _count_vectors}
