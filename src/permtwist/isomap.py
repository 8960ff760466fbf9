"""The explicit isomorphism between the two twisted-module constructions.

The map F sends the twisted space onto the base space V_K: each projected
first-block creation mode at a fractional degree becomes (1/k) times the
integer-degree base mode, and the group-algebra label at the diagonal coset
of a K-vector becomes the corresponding lattice label.  F is normalized by
fixing the vacuum.  The intertwining property against the two twisted
operator families is *checked*, never imposed, by one loop over both
windows (`_comparisons`) that yields a witness per state and mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cocycle import TwistSystem
from .fock import (FockMono, Sector, StateVector, apply_mode, ground_state, omega_state,
                   slot_state, vacuum)
from .report import Report
from .vertexops import spacetime_twisted_windows, worldsheet_twisted_windows


def f_apply(system: TwistSystem, v: StateVector) -> StateVector:
    """The normalized isomorphism from the twisted space to V_K."""
    if v.sector != "T":
        raise ValueError("f_apply takes twisted states")
    return _regrade(system, v, "K", 1, system.k)


def f_inverse_apply(system: TwistSystem, v: StateVector) -> StateVector:
    """The two-sided inverse of f_apply."""
    if v.sector != "K":
        raise ValueError("f_inverse_apply takes base-sector states")
    return _regrade(system, v, "T", system.k, 1)


def _regrade(system: TwistSystem, v: StateVector, sector: str, p: int, q: int) -> StateVector:
    """Each monomial read in `sector` and multiplied by p/q once per mode.

    The twisted mode t/k and the base mode t share the grid int t, so the
    grid stays and only the step changes."""
    den = Sector.of(system, sector).den
    out = {}
    for mono, c in v.terms.items():
        n = len(mono.grid)
        out[FockMono(mono.grid, mono.ground, den)] = c._scale(p ** n, q ** n)
    return StateVector._of(system, sector, out)


@dataclass
class ConjugatedMode:
    """F . (alpha_1,...,alpha_k)^T(n) . F^{-1} as a combination of base modes."""
    mode: Fraction                      # the integer base-mode degree (k*n)
    entries: list = field(default_factory=list)   # (Cyc coefficient, K-vector)

    def is_zero(self) -> bool:
        return not self.entries


def general_mode_image(system: TwistSystem, alphas, n) -> ConjugatedMode:
    """The conjugated image of the twisted current mode of (alpha_1,...,alpha_k).

    (1/k) sum_j eta^{-(j-1)kn} alpha_j(kn), read off `Sector.vector` of the
    ambient vector as one entry (coefficient, unit vector) per colour of K
    whose coefficient is nonzero.
    """
    k, d = system.k, system.d
    if len(alphas) != k or any(len(alpha) != d for alpha in alphas):
        raise ValueError("need one K-vector per tensor slot")
    sector = Sector.of(system, "T")
    kn = sector.grid(n)
    vec = sector.vector(tuple(x for alpha in alphas for x in alpha))
    inv_k = Fraction(1, k)
    out = ConjugatedMode(mode=Fraction(kn))
    for i, c in vec[kn % k]:
        out.entries.append((c * inv_k, tuple(int(j == i) for j in range(d))))
    return out


def intertwine_check(system: TwistSystem, u: StateVector, v: StateVector,
                     modes, label: str = "") -> list[Report]:
    """Compare both twisted actions of u through the isomorphism, mode by
    mode: one report per mode.  Each side is extracted for the whole mode
    window at once."""
    return [Report(check_id=f"intertwine[{label}][n={n}]",
                   anchor="twisted-operator-intertwining",
                   status="fail" if witness else "pass",
                   witness=witness)
            for n, witness, _ in _comparisons(system, u, [v], [f_apply(system, v)], list(modes))]


def intertwine_generators(system: TwistSystem, basis, modes) -> list[Report]:
    """One report per generator of generator_family: intertwine_check of the
    generator on every state of basis, over every mode.

    Each generator's exp(Delta_x) u is computed once for the whole basis,
    and E_f once per distinct V_K slot state of the family (the slot
    currents share one).  The witness is the first failure in (basis, mode)
    order, else the number of modes checked.  A generator fails unless some
    comparison has a nonzero space-time image: 0 = 0 alone would pass an
    engine that computes nothing.
    """
    basis, modes = list(basis), list(modes)
    images = [f_apply(system, v) for v in basis]
    out = []
    for name, u in generator_family(system):
        failure = ""
        count = nonzero = 0
        for _, witness, zero in _comparisons(system, u, basis, images, modes):
            count += 1
            nonzero += not zero
            failure = failure or witness
        witness = failure or f"{count} modes checked"
        if count and not nonzero and not failure:
            witness += ", every image zero"
        out.append(Report(
            check_id=f"intertwine[{name}]",
            anchor="twisted-operator-intertwining",
            status="pass" if nonzero and not failure else "fail",
            witness=witness))
    return out


def _comparisons(system, u: StateVector, states, images, modes: list):
    """Yields (n, witness, whether the space-time image is zero) for each
    state v of states and each mode n in turn: the worldsheet image of F v,
    from images, against F of the space-time image of v.  The witness is ""
    when they agree, else the first monomial where they differ."""
    worldsheet = worldsheet_twisted_windows(system, u, modes, images)
    spacetime = spacetime_twisted_windows(system, u, modes, states)
    for ws, st in zip(worldsheet, spacetime):
        # both windows list the same modes in the same order
        for (n, lhs), image in zip(ws.items(), st.values()):
            rhs = f_apply(system, image)
            witness = ""
            if lhs != rhs:
                diff = lhs - rhs
                mono = next(iter(diff.terms))
                witness = f"mode {n}: first difference at {mono}: {diff.terms[mono]}"
            yield n, witness, image.is_zero()


def default_mode_set(system: TwistSystem, bound) -> list[Fraction]:
    """All modes |n| <= bound with denominator dividing k."""
    bound = Fraction(bound)
    k = system.k
    top = int(bound * k)
    return [Fraction(t, k) for t in range(-top, top + 1)]


def generator_family(system: TwistSystem, alpha=None) -> list[tuple[str, StateVector]]:
    """The intertwining test generators: slot currents, omega, a lattice state."""
    if alpha is None:
        alpha = tuple([1] + [0] * (system.d - 1))
    out = []
    current = apply_mode(system, Fraction(-1), 0, vacuum(system, "K"))
    for p in range(system.k):
        out.append((f"current-slot{p + 1}", slot_state(system, current, p)))
    out.append(("omega", omega_state(system, "L")))
    out.append(("lattice-ground", slot_state(system, ground_state(system, "K", alpha), 0)))
    return out
