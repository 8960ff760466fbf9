"""The benchmark's three workloads, built on permtwist's public API.

Each workload's `build` runs inside a round, right after a fresh import of
permtwist: it parses the lattice files, constructs the systems, bases, mode
sets and generators (this is the round's set-up time) and returns the list
of operations.  An operation's `run` is the timed call into the program; its
`check` runs afterwards, untimed, against the oracles in `oracles.py` or a
property the construction must have.

Workload sizes are chosen so one round takes a few seconds on a 2-CPU
machine, leaving room for several rounds in one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

# (lattice, k, weight cutoff, mode bound): A1 k=3 exercises every generator
# cheaply; A2 k=3 is the configuration whose omega generator dominates the
# full verify-all run.
INTERTWINE = (("A1", 3, Fraction(1), Fraction(1)),
              ("A2", 3, Fraction(5, 9), Fraction(2, 3)))
# the transported degree operator on twisted states up to these weights
TRANSPORT_L0 = (("A1", 3, Fraction(3)), ("A2", 3, Fraction(3, 2)))
# the Virasoro bracket [L(m), L(n)] on V_K, |m|, |n| <= 2
VIRASORO = ("A2", Fraction(2), range(-2, 3))
# the single operation that fails today: the short-vector enumeration it
# needs never returns (see README), so it runs under this time limit
HANG_OP = ("cycle-type character", "D4", Fraction(4), (3, 2, 1))
HANG_LIMIT_S = 1.0

LATTICE_FILES = {"A1": "lattices/a1.lat", "A2": "lattices/a2.lat", "D4": "bench/d4.lat"}


@dataclass
class Op:
    """One timed call into the program and its untimed check.

    `check(value)` returns (correct, nonzero_image, comparisons).
    """
    family: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, bool, int]]
    limit_s: float | None = None


@dataclass
class Family:
    """An identity family: the comparisons it must make, and optionally an
    independent check, run once per run after the first round, that returns
    (every image it compared agreed, some image was nonzero)."""
    expected: int
    verify: Callable[[], tuple[bool, bool]] | None = None


@dataclass
class Build:
    ops: list[Op] = field(default_factory=list)
    families: dict[str, Family] = field(default_factory=dict)


class Context:
    """Run-wide inputs: lattice paths, the seed's choices and the oracles'
    expected values for one workload.

    Everything here is computed once per run, outside every timed region,
    and is identical in every round.
    """

    def __init__(self, root, seed: int, grams: dict, workload: str):
        self.lattice_paths = {name: root / path for name, path in LATTICE_FILES.items()}
        rng = random.Random(seed)
        # the lattice-ground generator's vector: a minimal vector of K
        self.ground_vector = {name: rng.choice(oracles.minimal_vectors(grams[name]))
                              for name in ("A1", "A2")}
        self.order_seed = rng.randrange(2 ** 32)
        self.build, expect = WORKLOADS[workload]
        self.expected = expect(grams)

    def shuffled(self, ops: list[Op]) -> list[Op]:
        """The round's operation order; the same permutation in every round."""
        random.Random(self.order_seed).shuffle(ops)
        return ops


def _parse(m, ctx, name):
    return m.cli.parse_lattice_file(str(ctx.lattice_paths[name]))


# -- intertwine ----------------------------------------------------------------


def expect_intertwine(grams) -> dict:
    """Comparisons per generator: twisted states times modes in the window."""
    return {(name, k): oracles.states_up_to(grams[name], k, cutoff)
            * oracles.mode_count(k, bound) for name, k, cutoff, bound in INTERTWINE}


def build_intertwine(m, ctx: Context) -> Build:
    out = Build()
    for name, k, cutoff, bound in INTERTWINE:
        system = m.cocycle.TwistSystem(_parse(m, ctx, name), k)
        basis = m.fock.weight_basis(system, "T", cutoff)
        modes = m.isomap.default_mode_set(system, bound)
        expected = ctx.expected[name, k]
        for gen, u in m.isomap.generator_family(system, ctx.ground_vector[name]):
            family = f"{name} k={k} {gen}"
            out.families[family] = Family(
                expected, _compare_images(m, system, u, basis, modes))
            for v in basis:
                out.ops.append(Op(
                    family,
                    lambda s=system, u=u, v=v, ms=modes, label=gen:
                        m.isomap.intertwine_check(s, u, v, ms, label=label),
                    lambda reports: (bool(reports) and all(r.passed for r in reports),
                                     False, len(reports))))
    return out


def _compare_images(m, system, u, basis, modes):
    """Compare both twisted actions of u through F, mode by mode, here.

    intertwine_check reports only its verdicts, so this recomputes both sides
    of every comparison it makes, worldsheet_twisted_mode(u, n, F v) and
    F spacetime_twisted_mode(u, n, v), and requires them equal (every report
    must say pass, so the two agree) and some image nonzero (a generator whose
    images were all zero would pass vacuously).
    """
    def verify() -> tuple[bool, bool]:
        same, image = True, False
        for v in basis:
            fv = m.isomap.f_apply(system, v)
            for n in modes:
                lhs = m.vertexops.worldsheet_twisted_mode(system, u, n, fv)
                rhs = m.isomap.f_apply(
                    system, m.vertexops.spacetime_twisted_mode(system, u, n, v))
                same = same and lhs == rhs
                image = image or not rhs.is_zero()
        return same, image
    return verify


# -- transport -------------------------------------------------------------------


def expect_transport(grams) -> dict:
    """Comparisons per half: one per twisted state for the degree operator,
    one per (m, n, state of V_K) for the bracket."""
    name, cutoff, window = VIRASORO
    return {"transported degree operator":
            sum(oracles.states_up_to(grams[n], k, c) for n, k, c in TRANSPORT_L0),
            "Virasoro bracket": len(window) ** 2 * oracles.states_up_to(grams[name], 1, cutoff)}


def build_transport(m, ctx: Context) -> Build:
    out = Build()
    systems = {}
    family = "transported degree operator"
    out.families[family] = Family(ctx.expected[family])
    for name, k, cutoff in TRANSPORT_L0:
        system = systems[name] = m.cocycle.TwistSystem(_parse(m, ctx, name), k)
        omega = m.fock.omega_state(system, "K")
        d = system.d
        shift = Fraction((k * k - 1) * d, 24)
        for v in m.fock.weight_basis(system, "T", cutoff):
            def run(s=system, v=v, om=omega, k=k, shift=shift):
                lhs = m.vertexops.base_module_mode(s, om, 1, v)
                rhs = m.fock.twisted_L0(s, v).scaled(k) - v.scaled(shift)
                return lhs, lhs == rhs
            out.ops.append(Op(family, run,
                              lambda res, v=v, k=k, d=d, shift=shift:
                                  _check_degree(res, v, k, d, shift)))

    name, cutoff, window = VIRASORO
    family = "Virasoro bracket"
    system = systems[name]
    d = system.d
    basis = m.fock.weight_basis(system, "K", cutoff)
    out.families[family] = Family(ctx.expected[family])
    for mm in window:
        for nn in window:
            central = Fraction((mm ** 3 - mm) * d, 12) if mm + nn == 0 else 0
            for v in basis:
                def run(s=system, v=v, mm=mm, nn=nn, central=central):
                    L = m.fock.virasoro_L
                    lhs = L(s, mm, L(s, nn, v)) - L(s, nn, L(s, mm, v))
                    rhs = L(s, mm + nn, v).scaled(mm - nn)
                    if central:
                        rhs = rhs + v.scaled(central)
                    return lhs, lhs == rhs
                out.ops.append(Op(family, run,
                                  lambda res: (res[1], not res[0].is_zero(), 1)))
    return out


def _check_degree(res, v, k: int, d: int, shift: Fraction):
    """The identity held, and its image is (k w - shift) v for the weight w
    of v computed here from its modes and ground label."""
    lhs, same = res
    (mono,) = v.terms
    level = -sum(n for n, _ in mono.modes)
    g = mono.ground
    gram = v.system.K.gram
    norm = sum(gram[i][j] * g[i] * g[j] for i in range(d) for j in range(d))
    w = level + Fraction(norm, 2 * k) + oracles.twisted_vacuum_weight(d, k)
    scalar = k * w - shift
    if scalar == 0:
        ok = lhs.is_zero()
    else:
        ok = (list(lhs.terms) == [mono] and lhs.terms[mono].is_rational()
              and lhs.terms[mono].as_rational() == scalar)
    return same and ok, not lhs.is_zero(), 1


# -- characters --------------------------------------------------------------------

# The operations are many and mostly light (2-170 ms), so that the three
# heavy ones (the identity on D4, whose coset characters take about 0.5 s,
# and the operation at its time limit) stay above the 95th percentile, and
# op_p95_ms falls among the three twisted characters of 160-170 ms rather
# than in a gap between single operations (D4 at k=6, 220 ms, would open
# one).  D4 enters the cycle-type family only through HANG_OP: several D4
# cycle types hit the same fault.
SERIES_ORDERS = (("A1", Fraction(20)), ("A2", Fraction(8)), ("D4", Fraction(3)))
TWISTED = (("A1", Fraction(12), range(1, 7)), ("A1", Fraction(6), range(1, 7)),
           ("A2", Fraction(6), range(1, 7)), ("A2", Fraction(3), range(1, 7)),
           ("D4", Fraction(3), range(1, 6)))
THM41 = (("A1", Fraction(20), range(2, 7)), ("A2", Fraction(12), range(2, 7)),
         ("D4", Fraction(6), (2, 3)))
CYCLE_ORDERS = (("A1", Fraction(6)), ("A2", Fraction(4)))


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


# (family, lattice, q-order, k or cycle type) of every characters operation
CHARACTER_OPS = tuple(
    [("theta series", name, order, None) for name, order in SERIES_ORDERS]
    + [("eta inverse", name, order, None) for name, order in SERIES_ORDERS]
    + [("twisted character", name, order, k) for name, order, ks in TWISTED for k in ks]
    + [("q^k character identity", name, order, k) for name, order, ks in THM41 for k in ks]
    + [("cycle-type character", name, order, cycles)
       for name, order in CYCLE_ORDERS for n in range(2, 7)
       for cycles in _partitions(n) if cycles[0] > 1]
    + [HANG_OP])


def expect_characters(grams) -> dict:
    """The oracle's coefficients {exponent: count} for each series operation,
    and the number of reports (one per dual coset) for the identity."""
    out = {}
    for spec in CHARACTER_OPS:
        family, name, order, arg = spec
        gram, d = grams[name], len(grams[name])
        if family == "theta series":
            out[spec] = {Fraction(n): oracles.THETA[name](n) for n in range(int(order) + 1)}
        elif family == "eta inverse":
            parts = oracles.coloured_partitions(d, int(order))
            out[spec] = {Fraction(-d, 24) + n: parts[n] for n in range(int(order) + 1)}
        elif family == "twisted character":
            lead = Fraction(-d, 24 * arg)
            out[spec] = _shifted(oracles.twisted_counts(gram, arg, order - lead), lead)
        elif family == "cycle-type character":
            lead = sum(Fraction(-d, 24 * k) for k in arg)
            out[spec] = _shifted(oracles.cycle_type_counts(gram, arg, order - lead), lead)
        else:
            out[spec] = int(oracles.determinant(gram))
    return out


def build_characters(m, ctx: Context) -> Build:
    out = Build()
    ch = m.characters
    lattices = {name: _parse(m, ctx, name) for name in LATTICE_FILES}
    calls = {   # each takes (lattice, q-order, k or cycle type)
        "theta series": lambda K, o, _: ch.theta_series(K, o),
        # eta(q)^d to enough order that its inverse is complete through o
        "eta inverse": lambda K, o, _: ch.eta_power(
            K.rank, o + Fraction(K.rank, 24) + 1).inverse(),
        "twisted character": lambda K, o, k: ch.char_twisted(K, k, o),
        "q^k character identity": lambda K, o, k: ch.compare_thm41(K, k, o),
        "cycle-type character": lambda K, o, c: ch.char_cycle_type(K, c, o),
    }
    for spec in CHARACTER_OPS:
        kind, name, order, arg = spec
        # one family per kind and lattice, so the failing D4 operation
        # exempts only its own family from the comparison count
        family = f"{kind} on {name}"
        want = ctx.expected[spec]
        if kind == "q^k character identity":
            check = (lambda reports, det=want:
                     (len(reports) == det and all(r.passed for r in reports),
                      True, len(reports)))
        else:
            check = lambda series, want=want, o=order: _check_series(series, want, o)
        fam = out.families.setdefault(family, Family(0))
        fam.expected += want if isinstance(want, int) else len(want)
        out.ops.append(Op(family,
                          lambda f=calls[kind], K=lattices[name], o=order, a=arg: f(K, o, a),
                          check,
                          HANG_LIMIT_S if spec == HANG_OP else None))
    return out


def _shifted(counts: dict, lead: Fraction) -> dict:
    return {lead + w: c for w, c in counts.items()}


def _check_series(series, want: dict, order: Fraction):
    """Every coefficient up to `order` equals the oracle's, none missing."""
    got = {e: c for e, c in series.items() if e <= order}
    ok = series.order >= order and got == {e: c for e, c in want.items() if c}
    return ok, bool(got), len(want)


# name: (build, expected comparison counts from the oracles)
WORKLOADS = {
    "intertwine": (build_intertwine, expect_intertwine),
    "transport": (build_transport, expect_transport),
    "characters": (build_characters, expect_characters),
}
