"""The explicit isomorphism between the two twisted-module constructions.

The map F sends the twisted space onto the base space V_K: each projected
first-block creation mode at a fractional degree becomes (1/k) times the
integer-degree base mode, and the group-algebra label at the diagonal coset
of a K-vector becomes the corresponding lattice label.  F is normalized by
fixing the vacuum.  The intertwining property against the two twisted
operator families is *checked*, never imposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cocycle import TwistSystem
from .exact import Cyc
from .fock import FockMono, StateVector, apply_vector_mode, zero_state
from .report import Report
from .vertexops import spacetime_twisted_modes, worldsheet_twisted_modes


def f_apply(system: TwistSystem, v: StateVector) -> StateVector:
    """The normalized isomorphism from the twisted space to V_K."""
    if v.sector != "T":
        raise ValueError("f_apply takes twisted states")
    k = system.k
    inv_k = Fraction(1, k)
    out = {}
    for mono, c in v.terms.items():
        modes = tuple((n * k, i) for n, i in mono.modes)
        scale = inv_k ** len(mono.modes)
        newmono = FockMono(modes, mono.ground)
        coeff = c * scale
        prev = out.get(newmono)
        out[newmono] = coeff if prev is None else prev + coeff
    return StateVector(system, "K", out)


def f_inverse_apply(system: TwistSystem, v: StateVector) -> StateVector:
    """The two-sided inverse of f_apply."""
    if v.sector != "K":
        raise ValueError("f_inverse_apply takes base-sector states")
    k = system.k
    out = {}
    for mono, c in v.terms.items():
        modes = tuple((Fraction(n, k), i) for n, i in mono.modes)
        scale = Fraction(k) ** len(mono.modes)
        newmono = FockMono(modes, mono.ground)
        coeff = c * scale
        prev = out.get(newmono)
        out[newmono] = coeff if prev is None else prev + coeff
    return StateVector(system, "T", out)


@dataclass
class ConjugatedMode:
    """F . (alpha_1,...,alpha_k)^T(n) . F^{-1} as a combination of base modes."""
    mode: Fraction                      # the integer base-mode degree (k*n)
    entries: list = field(default_factory=list)   # (Cyc coefficient, K-vector)

    def apply(self, system, v: StateVector) -> StateVector:
        out = zero_state(system, "K")
        for coeff, vec in self.entries:
            piece = apply_vector_mode(system, self.mode, vec, v)
            if not piece.is_zero():
                out = out + piece.scaled(coeff)
        return out

    def is_zero(self) -> bool:
        return not self.entries


def general_mode_image(system: TwistSystem, alphas, n) -> ConjugatedMode:
    """The conjugated image of the twisted current mode of (alpha_1,...,alpha_k).

    Zero off the integer grid; on it, (1/k) sum_j eta^{-(j-1)kn} alpha_j(kn).
    """
    n = Fraction(n)
    if len(alphas) != system.k:
        raise ValueError("need one K-vector per tensor slot")
    kn = n * system.k
    if kn.denominator != 1:
        raise ValueError("twisted modes lie in (1/k)Z")
    inv_k = Fraction(1, system.k)
    entries = []
    for j, alpha in enumerate(alphas, start=1):
        if not any(alpha):
            continue
        phase = system.eta_pow(-(j - 1) * int(kn)) * inv_k
        entries.append((phase, tuple(alpha)))
    # merge parallel vectors
    merged: dict[tuple, Cyc] = {}
    for coeff, vec in entries:
        prev = merged.get(vec)
        merged[vec] = coeff if prev is None else prev + coeff
    out = ConjugatedMode(mode=kn)
    for vec, coeff in merged.items():
        if not coeff.is_zero():
            out.entries.append((coeff, vec))
    return out


def intertwine_check(system: TwistSystem, u: StateVector, v: StateVector,
                     modes, label: str = "") -> list[Report]:
    """Compare both twisted actions of u through the isomorphism, mode by mode.

    Each side is extracted for the whole mode window at once.
    """
    reports = []
    modes = [Fraction(n) for n in modes]
    worldsheet = worldsheet_twisted_modes(system, u, modes, f_apply(system, v))
    spacetime = spacetime_twisted_modes(system, u, modes, v)
    for n in modes:
        lhs = worldsheet[n]
        rhs = f_apply(system, spacetime[n])
        ok = lhs == rhs
        witness = ""
        if not ok:
            diff = lhs - rhs
            mono = next(iter(diff.terms))
            witness = f"mode {n}: first difference at {mono}: {diff.terms[mono]}"
        reports.append(Report(
            check_id=f"intertwine[{label}][n={n}]",
            anchor="twisted-operator-intertwining",
            status="pass" if ok else "fail",
            witness=witness))
    return reports


def default_mode_set(system: TwistSystem, bound) -> list[Fraction]:
    """All modes |n| <= bound with denominator dividing k."""
    bound = Fraction(bound)
    k = system.k
    top = int(bound * k)
    return [Fraction(t, k) for t in range(-top, top + 1)]


def generator_family(system: TwistSystem, alpha=None) -> list[tuple[str, StateVector]]:
    """The intertwining test generators: slot currents, omega, a lattice state."""
    from .fock import apply_mode, ground_state, omega_state, slot_state, vacuum
    if alpha is None:
        alpha = tuple([1] + [0] * (system.d - 1))
    out = []
    current = apply_mode(system, Fraction(-1), 0, vacuum(system, "K"))
    for p in range(system.k):
        out.append((f"current-slot{p + 1}", slot_state(system, current, p)))
    out.append(("omega", omega_state(system, "L")))
    out.append(("lattice-ground", slot_state(system, ground_state(system, "K", alpha), 0)))
    return out
