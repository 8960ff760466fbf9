"""Mode actions as `permtwist.fock` and `permtwist.coeffs` computed them
before they accumulated into one dict per operator, kept as oracles.

Each operator here rebuilds the whole state after every piece
(`out = out + piece.scaled(c)`), applies the first mode of a quadratic
again for every colour of the second, and `delta_apply` reapplies each
first mode for every (r, m, i).  It is slow and shares no mode-action
code with the package, which is what makes it useful in tests: only state
addition and scaling, the flow coefficients a_j and the twisted vacuum
weight are imported.  The pairing, the zero-mode eigenvalues and the grid
check are written here from the Gram matrices of K and L, `fock_mono`
reads (mode, colour) pairs onto the grid itself, and `c_series_reference`
expands the c_{mnr} as a log series on plain dicts, with its own bivariate
product and log(1 + u) loop.  `exp_delta_apply` divides each power by t
with `StateVector.scaled` per exponent.  Both return
{exponent: StateVector} tables built one term at a time by `_add_term`.
`ef_apply` and `ef_inverse_apply` build E_f and its inverse from the
`virasoro_L` here and the flow coefficients a_j up to the top weight + 2,
applying every L(j) to every coefficient, the ones that must vanish too.
`omega_state` writes the conformal vector out as the explicit
(1/2) sum ginv[i][j] b_i(-1) b_j(-1), not as L(-2) applied to the vacuum.
`level` reads a state's top level off its monomials.  `eigenprojection`,
the oracle of `Sector.vector`, sums eta^{-nj} nu^j v over j with the block
rotation nu written out here, and `relabel_slots` moves the tensor slots
of a V_L state.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from permtwist.cocycle import TwistSystem
from permtwist.coeffs import a_coeffs
from permtwist.exact import CycField
from permtwist.fock import FockMono, StateVector, twisted_vacuum_weight


def pairing(system, sector, i, j) -> Fraction:
    """<b_i, b_j> in the sector: the Gram entry of L in V_L, of K in V_K, and
    of K over k on the twisted space, where b_i is the projected first-block
    generator."""
    if sector == "L":
        return Fraction(system.L.gram[i][j])
    if sector == "K":
        return Fraction(system.K.gram[i][j])
    return Fraction(system.K.gram[i][j], system.k)


def zero_mode_eigenvalue(system, sector, i, ground) -> Fraction:
    """The eigenvalue of b_i(0) on a ground label: its pairing with b_i."""
    return sum((pairing(system, sector, i, j) * g for j, g in enumerate(ground)),
               Fraction(0))


def level(sv: StateVector) -> Fraction:
    """The largest level of a monomial of sv, 0 for the zero state."""
    return max((mono.level() for mono in sv.terms), default=Fraction(0))


def eigenprojection(system: TwistSystem, v, n: int) -> tuple:
    """The component of v in the eta^n-eigenspace of the block shift nu,
    (1/k) sum_j eta^{-nj} nu^j v, as Cyc coordinates; nu^j moves block q + j
    to block q."""
    k, d, field = system.k, system.d, system.field
    acc = [field.zero()] * (k * d)
    for j in range(k):
        phase = field.zeta((-2 * n * j) % (2 * k))
        for q in range(k):
            for i in range(d):
                x = v[((q + j) % k) * d + i]
                if x != 0:
                    acc[q * d + i] = acc[q * d + i] + phase * x
    return tuple(a * Fraction(1, k) for a in acc)


def relabel_slots(system, v: StateVector, perm) -> StateVector:
    """Tensor-factor permutation of V_L: slot p moves to slot perm[p]."""
    if v.sector != "L":
        raise ValueError("slot relabeling acts on V_L")
    k, d = system.k, system.d
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of the slots")
    out = StateVector(system, "L")
    for mono, c in v.terms.items():
        modes = [(n, perm[i // d] * d + i % d) for n, i in mono.modes]
        ground = [0] * (k * d)
        for p in range(k):
            for i in range(d):
                ground[perm[p] * d + i] = mono.ground[p * d + i]
        out = out + StateVector(system, "L", {fock_mono(modes, ground): c})
    return out


def check_mode(system, sector, n) -> Fraction:
    """n as a Fraction: integral in V_K and V_L, in (1/k)Z on the twisted space."""
    n = Fraction(n)
    if sector == "T":
        if (n * system.k).denominator != 1:
            raise ValueError(f"mode {n} not in (1/k)Z")
    elif n.denominator != 1:
        raise ValueError(f"fractional mode {n} in untwisted sector")
    return n


def fock_mono(modes, ground, den: int = 1) -> FockMono:
    """The monomial of (mode, colour) pairs with modes in (1/den)Z, read onto
    the grid here; a mode off that grid raises."""
    grid = []
    for n, i in modes:
        t = Fraction(n) * den
        if t.denominator != 1:
            raise ValueError(f"mode {n} not in (1/{den})Z")
        grid.append((t.numerator, i))
    return FockMono(tuple(sorted(grid)), tuple(ground), den)


def apply_mode(system, n, i, sv: StateVector) -> StateVector:
    """Apply the basis mode b_i(n): creation, annihilation or zero mode."""
    n = check_mode(system, sv.sector, n)
    out = {}

    def add(mono, c):
        if c.is_zero():
            return
        s = out.get(mono)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = s

    if n < 0:
        for mono, c in sv.terms.items():
            add(fock_mono(mono.modes + ((n, i),), mono.ground, mono.den), c)
    elif n > 0:
        for mono, c in sv.terms.items():
            seen = set()
            for pos, (m, j) in enumerate(mono.modes):
                if m != -n or (m, j) in seen:
                    continue
                seen.add((m, j))
                count = mono.modes.count((m, j))
                pair = pairing(system, sv.sector, i, j)
                if pair == 0:
                    continue
                rest = list(mono.modes)
                rest.pop(pos)
                add(fock_mono(rest, mono.ground, mono.den), c * (n * pair * count))
    else:
        for mono, c in sv.terms.items():
            ev = zero_mode_eigenvalue(system, sv.sector, i, mono.ground)
            if ev != 0:
                add(mono, c * ev)
    return StateVector(system, sv.sector, out)


def apply_vector_mode(system, n, coords, sv: StateVector) -> StateVector:
    """Apply h(n) for h given by mode-basis coordinates (scalar entries)."""
    out = StateVector(system, sv.sector)
    for i, c in enumerate(coords):
        if c == 0:
            continue
        piece = apply_mode(system, n, i, sv)
        if not piece.is_zero():
            out = out + piece.scaled(c)
    return out


def virasoro_L(system, j: int, sv: StateVector) -> StateVector:
    """L(j) on V_K via the normal-ordered dual-basis quadratic."""
    if sv.sector != "K":
        raise ValueError("virasoro_L acts on the base sector")
    ginv = system.K.gram_inverse()
    d = system.d
    lev = int(level(sv))
    out = StateVector(system, "K")
    half = Fraction(1, 2)
    for m in range(min(j, 0) - lev - 1, max(j, 0) + lev + 2):
        mm = Fraction(m)
        other = Fraction(j - m)
        if mm > 0 and mm > lev:
            continue
        if other > 0 and other > lev + max(0, -m):
            continue
        # normal order: larger mode acts first
        for a in range(d):
            for b in range(d):
                f = ginv[a][b]
                if not f:
                    continue
                if other >= mm:
                    piece = apply_mode(system, other, b, sv)
                    piece = apply_mode(system, mm, a, piece)
                else:
                    piece = apply_mode(system, mm, a, sv)
                    piece = apply_mode(system, other, b, piece)
                if not piece.is_zero():
                    out = out + piece.scaled(f * half)
    return out


def omega_state(system, sector) -> StateVector:
    """The conformal vector: half the dual-basis quadratic in modes (-1)."""
    if sector == "T":
        raise ValueError("conformal vector lives in an untwisted sector")
    lat = system.L if sector == "L" else system.K
    ginv = lat.gram_inverse()
    n = lat.rank
    out = StateVector(system, sector)
    for i in range(n):
        for j in range(n):
            if ginv[i][j]:
                mono = fock_mono(((Fraction(-1), i), (Fraction(-1), j)), (0,) * n)
                piece = StateVector(system, sector, {mono: system.field.one()})
                out = out + piece.scaled(ginv[i][j] / 2)
    return out


def twisted_L0(system, sv: StateVector) -> StateVector:
    """The degree operator on the twisted sector, built from the mode sum."""
    if sv.sector != "T":
        raise ValueError("twisted_L0 acts on the twisted sector")
    k, d = system.k, system.d
    ginv = system.K.gram_inverse()
    out = sv.scaled(twisted_vacuum_weight(system))
    lev = level(sv)
    # zero-mode square, coefficient k/2
    for a in range(d):
        for b in range(d):
            f = ginv[a][b]
            if not f:
                continue
            piece = apply_mode(system, 0, b, sv)
            piece = apply_mode(system, 0, a, piece)
            if not piece.is_zero():
                out = out + piece.scaled(f * Fraction(k, 2))
    # paired creation/annihilation, coefficient k per positive mode
    n = Fraction(1, k)
    while n <= lev:
        for a in range(d):
            for b in range(d):
                f = ginv[a][b]
                if not f:
                    continue
                piece = apply_mode(system, n, b, sv)
                if piece.is_zero():
                    continue
                piece = apply_mode(system, -n, a, piece)
                out = out + piece.scaled(f * Fraction(k))
        n += Fraction(1, k)
    return out



def _add_term(table: dict, e: int, sv: StateVector) -> None:
    """Add sv at exponent e of a table {exponent: StateVector}, keeping no
    zero entry."""
    combined = table[e] + sv if e in table else sv
    if combined.is_zero():
        table.pop(e, None)
    else:
        table[e] = combined


def _bi_add(a: dict, b: dict) -> dict:
    """The sum of two bivariate series {(m, n): Cyc}, keeping no zero entry."""
    out = dict(a)
    for key, c in b.items():
        s = out[key] + c if key in out else c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _bi_mul(a: dict, b: dict, degree: int) -> dict:
    """The product of two bivariate series, cut off above total degree `degree`."""
    out: dict = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            key = (m1 + m2, n1 + n2)
            if sum(key) <= degree:
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {key: c for key, c in out.items() if not c.is_zero()}


@cache
def c_series_reference(k: int, r: int, degree: int) -> dict:
    """The c_{mnr} with m + n <= degree as {(m, n): Cyc}: the coefficients of
    (1/2) log((X - e Y)/(1 - e)) with X = (1+x)^{1/k}, Y = (1+y)^{1/k} and
    e = eta^{-r}, summed as log(1 + u) = sum_t (-1)^{t+1} u^t / t for
    u = (X - 1 - e (Y - 1))/(1 - e); c_{mn0} = -sum_{r != 0} c_{mnr}."""
    r %= k
    if r == 0:
        out: dict = {}
        for s in range(1, k):
            out = _bi_add(out, {key: -c for key, c in c_series_reference(k, s, degree).items()})
        return out
    field = CycField(2 * k)
    e = field.zeta(-2 * r)
    scale = (field.one() - e).inv()
    u: dict = {}
    binom = Fraction(1)     # binom(1/k, m)
    for m in range(1, degree + 1):
        binom = binom * (Fraction(1, k) - m + 1) / m
        u = _bi_add(u, {(m, 0): scale * binom, (0, m): -(e * scale) * binom})
    out, power = {}, {(0, 0): field.one()}
    for t in range(1, degree + 1):
        power = _bi_mul(power, u, degree)
        out = _bi_add(out, {key: c * Fraction((-1) ** (t + 1), 2 * t)
                            for key, c in power.items()})
    return out


def delta_apply(system: TwistSystem, v: StateVector, order: int | None = None) -> dict:
    """Delta_x applied to a V_L state; a polynomial in the inverse variable."""
    if v.sector != "L":
        raise ValueError("Delta_x acts on V_L")
    lev = int(level(v))
    if order is None:
        order = 2 * lev + 2
    k, d = system.k, system.d
    ginv = system.K.gram_inverse()
    out: dict = {}
    for r in range(k):
        for (m, n), c in c_series_reference(k, r, order).items():
            if m > lev or n > lev or (m == 0 and n == 0):
                continue
            # sum_j sum_p c_mnr (nu^{-r} dual-pair) (m) pair (n)
            for i in range(d):
                for j in range(d):
                    f = ginv[i][j]
                    if not f:
                        continue
                    for p in range(k):
                        # (nu^{-r} b_i^p)(m) b_j^p(n): nu^{-r} moves block p to p+r
                        src = p * d + j
                        dst = ((p + r) % k) * d + i
                        piece = apply_mode(system, Fraction(n), src, v)
                        if piece.is_zero():
                            continue
                        piece = apply_mode(system, Fraction(m), dst, piece)
                        if piece.is_zero():
                            continue
                        _add_term(out, -m - n, piece.scaled(c * f))
    return out


def exp_delta_apply(system: TwistSystem, v: StateVector, order: int | None = None) -> dict:
    """e^{Delta_x} v, exact by weight-graded nilpotence; `order`, if given,
    is the c-series degree of every delta_apply."""
    out = {0: v} if not v.is_zero() else {}
    current = dict(out)
    t = 1
    while current:
        nxt: dict = {}
        for e, sv in current.items():
            piece = delta_apply(system, sv, order)
            for e2, sv2 in piece.items():
                _add_term(nxt, e + e2, sv2)
        if not nxt:
            break
        current = {e: sv.scaled(Fraction(1, t)) for e, sv in nxt.items()}
        for e, sv in current.items():
            _add_term(out, e, sv)
        t += 1
    return out


def _weight(system, mono) -> int:
    """The L(0)-weight of a V_K monomial, its level plus <g, g>/2; an int as
    K is even."""
    w = mono.level() + Fraction(system.K.inner(mono.ground, mono.ground), 2)
    assert w.denominator == 1, w
    return int(w)


def _scaling(system, sv: StateVector, power: int) -> dict:
    """(k x^{(k-1)/k})^(power * L(0)) on a V_K state: {t: coefficient of x^{t/k}}."""
    k = system.k
    out: dict = {}
    for mono, c in sv.terms.items():
        w = power * _weight(system, mono)
        _add_term(out, (k - 1) * w,
                  StateVector(system, "K", {mono: c}).scaled(Fraction(k) ** w))
    return out


def _exp_virasoro(system, table: dict, avals, sign: int) -> dict:
    """exp(sign * sum_j a_j x^{-j/k} L(j)) on a table {t: StateVector}."""
    out = dict(table)
    current = dict(table)
    t = 1
    while current:
        nxt: dict = {}
        for e, sv in current.items():
            for j, aj in enumerate(avals, start=1):
                piece = virasoro_L(system, j, sv)
                if not piece.is_zero():
                    _add_term(nxt, e - j, piece.scaled(aj * sign))
        current = {e: sv.scaled(Fraction(1, t)) for e, sv in nxt.items()}
        for e, sv in current.items():
            _add_term(out, e, sv)
        t += 1
    return out


def _flow_coefficients(system, sv: StateVector) -> list:
    """a_1 .. a_{w+2} for w the top weight of sv."""
    top = max((_weight(system, mono) for mono in sv.terms), default=0)
    return a_coeffs(system.k, top + 2)


def ef_apply(system: TwistSystem, v: StateVector) -> dict:
    """E_f(x^(1/k)) v = exp(sum_j a_j x^{-j/k} L(j)) (k x^{(k-1)/k})^{-L(0)} v
    as {t: coefficient of x^{t/k}}."""
    if v.sector != "K":
        raise ValueError("E_f acts on the base sector")
    return _exp_virasoro(system, _scaling(system, v, -1), _flow_coefficients(system, v), +1)


def ef_inverse_apply(system: TwistSystem, v: StateVector) -> dict:
    """E_f(x^(1/k))^(-1) v = (k x^{(k-1)/k})^{L(0)} exp(-sum_j a_j x^{-j/k} L(j)) v
    as {t: coefficient of x^{t/k}}."""
    if v.sector != "K":
        raise ValueError("E_f acts on the base sector")
    start = {} if v.is_zero() else {0: v}
    out: dict = {}
    for t, sv in _exp_virasoro(system, start, _flow_coefficients(system, v), -1).items():
        for t2, sv2 in _scaling(system, sv, +1).items():
            _add_term(out, t + t2, sv2)
    return out
