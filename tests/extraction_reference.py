"""Per-mode reference extractor, kept as an oracle for the series engine.

This is the mode-at-a-time extraction that `permtwist.vertexops` used
before it built each operator's window at once: every requested mode
reruns the coefficient operators, the annihilation phase of every mask and
an exact-budget creation fill from scratch.  It is slow and independent of
the engine's exponent tables, which is what makes it useful in tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from fock_reference import fock_mono
from permtwist.cocycle import SECTION_PLAIN, SECTION_TWISTED
from permtwist.coeffs import ef_apply, ef_inverse_apply, exp_delta_apply
from permtwist.fock import FockMono, StateVector, apply_vector_mode, slot_state


def _dcoeff(m: Fraction, nt: int) -> Fraction:
    """(-1)^(nt-1) binom(m + nt - 1, nt - 1), the mode coefficient of the
    (nt-1)-fold derivative factor."""
    out = Fraction(1)
    for s in range(nt - 1):
        out *= Fraction(m + nt - 1 - s, s + 1)
    return -out if (nt - 1) % 2 else out


def _positive_levels(sv: StateVector):
    return sorted({-n for mono in sv.terms for n, _ in mono.modes})


def _slot_monomial(system, umono: FockMono):
    """(p, V_K monomial) for a V_L monomial that lives in the tensor slot p
    alone: ambient colour p*d + i is colour i of slot p, and block p of the
    ground label is the V_K ground label."""
    k, d = system.k, system.d
    used = []
    for p in range(k):
        colours = range(p * d, (p + 1) * d)
        if any(umono.ground[c] for c in colours) or any(i in colours for _, i in umono.modes):
            used.append(p)
    if len(used) > 1:
        raise ValueError("state is not supported in a single tensor slot")
    p = used[0] if used else 0
    modes = [(n, i - p * d) for n, i in umono.modes]
    return p, fock_mono(modes, umono.ground[p * d:(p + 1) * d])


def slot_states(system, u: StateVector) -> dict:
    """{p: V_K terms of u in the tensor slot p}, for u a sum of one-slot states."""
    by_slot = {}
    for umono, c in u.terms.items():
        p, kmono = _slot_monomial(system, umono)
        by_slot.setdefault(p, {})[kmono] = c
    return by_slot


def _umono_factors(umono: FockMono):
    """Derivative factors (order, coordinate vector) for a u-monomial."""
    rank = len(umono.ground)
    return [(int(-n), tuple(int(j == idx) for j in range(rank)))
            for n, idx in umono.modes]


class _Dialect:
    """Sector hooks, with modes applied through the public Fock functions."""

    def __init__(self, system, sector: str):
        self.system = system
        self.sector = sector
        self.step = Fraction(1, system.k) if sector == "T" else Fraction(1)

    def vec_mode(self, n, coords, sv):
        if self.sector == "T":
            coords = self.first_block(n, coords)
        return apply_vector_mode(self.system, n, coords, sv)

    def first_block(self, n, coords):
        """The first-block coordinates of the ambient L-vector `coords` at the
        twisted mode n: h(n) = sum_i c_i b_i(n) with
        c_i = sum_j h_{j,i} eta^{-(j-1)kn} over the slots j = 1..k, where
        eta = zeta_{2k}^2."""
        s = self.system
        k, d = s.k, s.d
        kn = int(n * k)
        out = []
        for i in range(d):
            c = s.field.zero()
            for j in range(1, k + 1):
                c = c + s.field.zeta(-2 * (j - 1) * kn) * coords[(j - 1) * d + i]
            out.append(c)
        return out

    def x_exponent(self, beta, ground) -> Fraction:
        s = self.system
        if self.sector == "T":
            t = s.tot(beta)
            return (Fraction(s.K.inner(t, ground), s.k)
                    + Fraction(s.K.inner(t, t), 2 * s.k)
                    - Fraction(s.L.inner(beta, beta), 2))
        lat = s.K if self.sector == "K" else s.L
        return Fraction(lat.inner(beta, ground))

    def ground_action(self, beta, ground):
        """(scalar, new_ground) for the group element over beta."""
        s = self.system
        if self.sector == "T":
            return s.ut_action(s.ext_from_base(beta, SECTION_TWISTED), ground)
        phase = s.eps_exponent(SECTION_PLAIN, beta, ground)
        return s.eta0_pow(phase), tuple(x + y for x, y in zip(beta, ground))

    def prefactor(self, beta):
        s = self.system
        if self.sector == "T":
            norm = s.L.inner(beta, beta)
            return s.sigma(beta) * Fraction(s.k) ** (-(norm // 2))
        return s.field.one()


def _apply_exp_annihilators(dialect, xp: dict, beta) -> dict:
    """exp(-sum_{m>0} beta(m) x^{-m} / m) on an exponent-keyed state table."""
    levels = set()
    for sv in xp.values():
        levels.update(_positive_levels(sv))
    out = dict(xp)
    for m in sorted(levels):
        nxt = dict(out)
        for e, sv in out.items():
            cur = sv
            t = 1
            while True:
                cur = dialect.vec_mode(m, beta, cur)
                if cur.is_zero():
                    break
                coeff = (Fraction(-1) / m) ** t / factorial(t)
                key = e - m * t
                piece = cur.scaled(coeff)
                prev = nxt.get(key)
                nxt[key] = piece if prev is None else prev + piece
                t += 1
        out = {e: s for e, s in nxt.items() if not s.is_zero()}
    return out


def creation_partitions(total: Fraction, step: Fraction, max_part=None):
    """Multisets of positive grid levels summing exactly to `total`."""
    if total == 0:
        yield ()
        return
    if total < 0:
        return
    top = total if max_part is None else min(total, max_part)
    m = (int(top / step)) * step
    while m >= step:
        for rest in creation_partitions(total - m, step, m):
            yield (m,) + rest
        m -= step


def partition_coeff(parts) -> Fraction:
    """1 / prod_m (m^c c!) for a multiset with level m repeated c times."""
    out = Fraction(1)
    mult: dict[Fraction, int] = {}
    for m in parts:
        mult[m] = mult.get(m, 0) + 1
    for m, c in mult.items():
        out /= (m ** c) * factorial(c)
    return out


def extract_for_vmono(system, dialect, dfactors, beta, coeff,
                      vmono: FockMono, e_target: Fraction) -> StateVector:
    """All normal-ordered contributions landing on x^{e_target}."""
    sector = dialect.sector
    has_group = any(beta)
    base_exp = dialect.x_exponent(beta, vmono.ground) if has_group else Fraction(0)
    base = StateVector(system, sector, {vmono: coeff})
    r = len(dfactors)
    result = StateVector(system, sector)
    for mask in range(1 << r):
        deferred = [t for t in range(r) if mask & (1 << t)]
        annih = [t for t in range(r) if not (mask & (1 << t))]
        # annihilation / zero-mode choices for the non-deferred factors
        table = {base_exp: base}
        for t in annih:
            nt, coords = dfactors[t]
            nxt: dict = {}
            for e, sv in table.items():
                for m in [Fraction(0)] + _positive_levels(sv):
                    c = _dcoeff(m, nt)
                    if c == 0:
                        continue
                    piece = dialect.vec_mode(m, coords, sv)
                    if piece.is_zero():
                        continue
                    key = e - m - nt
                    piece = piece.scaled(c)
                    prev = nxt.get(key)
                    nxt[key] = piece if prev is None else prev + piece
            table = {e: sv for e, sv in nxt.items() if not sv.is_zero()}
            if not table:
                break
        if not table:
            continue
        if has_group:
            table = _apply_exp_annihilators(dialect, table, beta)
        # the group element and then the creation side
        for e, sv in table.items():
            if has_group:
                shifted = StateVector(system, sector)
                for mono, c in sv.terms.items():
                    scalar, newg = dialect.ground_action(beta, mono.ground)
                    shifted = shifted + StateVector(
                        system, sector, {FockMono(mono.grid, tuple(newg), mono.den): c * scalar})
                sv = shifted
                if sv.is_zero():
                    continue
            result = result + fill_creation(system, dialect, dfactors, deferred,
                                            beta if has_group else None,
                                            sv, e_target - e)
    return result


def fill_creation(system, dialect, dfactors, deferred, beta,
                  sv: StateVector, budget: Fraction) -> StateVector:
    """Distribute the remaining exponent over deferred derivative factors and
    the creation exponential."""
    step = dialect.step
    out = StateVector(system, dialect.sector)

    def rec(idx, sv_cur, budget_cur):
        nonlocal out
        if idx == len(deferred):
            if beta is None:
                if budget_cur == 0:
                    out = out + sv_cur
                return
            if budget_cur < 0 or (budget_cur / step).denominator != 1:
                return
            for parts in creation_partitions(budget_cur, step):
                piece = sv_cur.scaled(partition_coeff(parts))
                for m in parts:
                    piece = dialect.vec_mode(-m, beta, piece)
                out = out + piece
            return
        t = deferred[idx]
        nt, coords = dfactors[t]
        # minimal exponent the remaining deferred factors must consume
        rest_min = sum(step - dfactors[t2][0] for t2 in deferred[idx + 1:])
        cap = budget_cur - rest_min
        # s runs over creation degrees; exponent contribution is s - nt
        s = step
        while s - nt <= cap:
            c = _dcoeff(-s, nt)
            if c != 0:
                piece = dialect.vec_mode(-s, coords, sv_cur)
                if not piece.is_zero():
                    rec(idx + 1, piece.scaled(c), budget_cur - (s - nt))
            s += step

    rec(0, sv, budget)
    return out


def untwisted_mode(system, u: StateVector, n, v: StateVector) -> StateVector:
    """u_n v, one mode at a time."""
    dialect = _Dialect(system, v.sector)
    e_target = -Fraction(n) - 1
    result = StateVector(system, v.sector)
    for umono, cu in u.terms.items():
        factors = _umono_factors(umono)
        beta = umono.ground
        scalar = cu * dialect.prefactor(beta)
        for vmono, cv in v.terms.items():
            result = result + extract_for_vmono(
                system, dialect, factors, beta, scalar * cv, vmono, e_target)
    return result


def spacetime_twisted_mode(system, u: StateVector, n, v: StateVector) -> StateVector:
    """The space-time twisted mode u_n v, one mode at a time."""
    dialect = _Dialect(system, "T")
    exponent = -Fraction(n) - 1
    result = StateVector(system, "T")
    for e_delta, u_e in exp_delta_apply(system, u).items():
        for umono, cu in u_e.terms.items():
            factors = _umono_factors(umono)
            beta = umono.ground
            scalar = cu * dialect.prefactor(beta)
            for vmono, cv in v.terms.items():
                result = result + extract_for_vmono(
                    system, dialect, factors, beta, scalar * cv, vmono,
                    exponent - e_delta)
    return result


def worldsheet_twisted_mode(system, u: StateVector, n, v: StateVector) -> StateVector:
    """The worldsheet twisted mode u_n v, one mode at a time."""
    n = Fraction(n)
    k = system.k
    result = StateVector(system, "K")
    for umono, cu in u.terms.items():
        p, kmono = _slot_monomial(system, umono)
        base = StateVector(system, "K", {kmono: cu})
        phase = system.eta_pow(-p * int(n * k))
        # the key t stands for x^{t/k}
        for t, w_t in ef_apply(system, base).items():
            piece = untwisted_mode(system, w_t, k * (n + 1) + t - 1, v)
            if not piece.is_zero():
                result = result + piece.scaled(phase)
    return result


def base_module_mode(system, u: StateVector, n, v: StateVector) -> StateVector:
    """The base-module mode u_n v, one mode at a time: the space-time mode
    (n + 1 + t)/k - 1 of w_t in slot 0, summed over the x^{t/k} w_t of
    E_f(x^{1/k})^{-1} u."""
    k = system.k
    result = StateVector(system, "T")
    for t, w_t in ef_inverse_apply(system, u).items():
        result = result + spacetime_twisted_mode(
            system, slot_state(system, w_t, 0), Fraction(n + 1 + t, k) - 1, v)
    return result
