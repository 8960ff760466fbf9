"""Coefficient engines for the two twisted constructions.

* the coefficients c_{mnr} of (1/2) log((X - eta^{-r} Y)/(1 - eta^{-r})),
  X = (1+x)^{1/k}, Y = (1+y)^{1/k}, each one closed double sum over the
  powers of (1+x)^{1/k} - 1 and (1+y)^{1/k} - 1, and the operator Delta_x,
  which contracts a monomial's own modes through K's Gram matrix, with its
  exponential (space-time side),
* the change-of-variables coefficients a_j and the operator E_f with its
  inverse (worldsheet side).

Everything is exact: exponentials are expanded by weight-graded nilpotence,
never by order truncation.  Each engine reads its degree off the state: an
operator that lowers the Heisenberg level by j kills every state of level
below j.  The c_{mnr} and a_j are memoized on their integer arguments.

Each engine returns a plain table {exponent: StateVector} with no zero
entry, its keys ints on a fixed step: e stands for x^e for Delta_x and
exp(Delta_x), and t for x^{t/k} for E_f and its inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import comb

from .cocycle import TwistSystem
from .exact import Cyc, CycField, lemma_root_sum
from .fock import (FockMono, Sector, StateVector, _accumulate, _max_level, _merge_into,
                   _virasoro_into)


def rational_binomial(top, r: int) -> Fraction:
    """binom(top, r) for rational (or integer, possibly negative) top."""
    top = Fraction(top)
    out = Fraction(1)
    for s in range(r):
        out *= (top - s)
    for s in range(1, r + 1):
        out /= s
    return out


def c_coeffs(system: TwistSystem, r: int, degree: int) -> dict[tuple[int, int], Cyc]:
    """The c_{mnr} with m + n <= degree as {(m, n): Cyc}, with no zero entry."""
    return _c_series(system.k, r % system.k, degree)


@cache
def _c_series(k: int, r: int, degree: int) -> dict[tuple[int, int], Cyc]:
    """c_coeffs for the residue 0 <= r < k, over Q(eta) with eta = zeta_{2k}^2.

    With e = eta^{-r}, A = (1+x)^{1/k} - 1 and B = (1+y)^{1/k} - 1, the series
    is (1/2) log(1 + (A - e B)/(1 - e)); the binomial theorem on each power of
    log(1 + u) gives
      c_{mnr} = sum_{j <= m, l <= n, j + l >= 1} (-1)^{j+1} binom(j+l, j)
                / (2(j+l)) e^l (1 - e)^{-(j+l)} [x^m] A^j [y^n] B^l,
    and c_{mn0} = -sum_{r != 0} c_{mnr}."""
    field = CycField(2 * k)
    out: dict = {}
    if r == 0:
        for s in range(1, k):
            for key, c in _c_series(k, s, degree).items():
                _accumulate(out, key, -c)
        return out
    # power[j][m] = [x^m] A^j, zero for m < j
    base = [0] + [rational_binomial(Fraction(1, k), m) for m in range(1, degree + 1)]
    power = [[1] + [0] * degree]
    for _ in range(degree):
        prev = power[-1]
        power.append([sum(prev[s] * base[m - s] for s in range(m)) for m in range(degree + 1)])
    e = field.zeta(-2 * r)
    step = (field.one() - e).inv()
    weight = {(j, l): (e * step) ** l * step ** j
              * Fraction((-1) ** (j + 1) * comb(j + l, j), 2 * (j + l))
              for j in range(degree + 1) for l in range(degree + 1 - j) if j + l}
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            c = sum((w * (power[j][m] * power[l][n]) for (j, l), w in weight.items()
                     if power[j][m] and power[l][n]), field.zero())
            if not c.is_zero():
                out[(m, n)] = c
    return out


def c110_closed_form(system: TwistSystem) -> Fraction:
    """c_{110} through the root-sum route: -(1/2k^2) sum eta^{-j}/(1-eta^{-j})^2."""
    k = system.k
    return (lemma_root_sum(k) * Fraction(-1, 2 * k * k)).as_rational()


def a_coeffs(k: int, J: int) -> list[Fraction]:
    """a_1..a_J with exp(-sum a_j x^(j+1) d/dx) . x = ((1+x)^k - 1)/k through x^(J+1).

    The vector field V = sum_m v_m x^m, v_m = -a_(m-1), whose time-one flow is
    f = sum_t f_t x^t solves the Julia equation V(f(x)) = f'(x) V(x).  Its
    x^(m+1) coefficient reads (m - 2) f_2 v_m + sum_(i<m) v_i [x^(m+1)](f^i -
    x^i f') = 0, which gives v_3, v_4, ... in turn from v_2 = f_2.  This does
    not run the flow, so `substitute_flow` checks the result independently.
    When k = 1, f = x and every a_j vanishes.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    return list(_a_series(k, J))


@cache
def _a_series(k: int, J: int) -> tuple[Fraction, ...]:
    """a_coeffs(k, J) as a tuple."""
    if k == 1:
        return (Fraction(0),) * J
    deg = J + 2
    f = [Fraction(0)] + [rational_binomial(k, t) / k for t in range(1, deg + 1)]
    fprime = [(t + 1) * f[t + 1] for t in range(deg)]
    power = f
    solved = []     # (v_m, coefficients of f^m - x^m f') for m = 2, 3, ...
    for m in range(2, J + 2):
        power = [sum(power[s] * f[t - s] for s in range(1, t)) for t in range(deg + 1)]
        if m == 2:
            vm = f[2]
        else:
            vm = -sum(v * defect[m + 1] for v, defect in solved) / ((m - 2) * f[2])
        solved.append((vm, [p - (fprime[t - m] if t >= m else 0)
                            for t, p in enumerate(power)]))
    return tuple(-v for v, _ in solved)


def substitute_flow(avals: list[Fraction], deg: int) -> list[Fraction]:
    """exp(-sum a_j x^(j+1) d/dx) . x as a coefficient list through x^deg."""
    series = [Fraction(0)] * (deg + 1)
    series[1] = Fraction(1)
    term = list(series)
    fact = 1
    for it in range(1, deg + 1):
        nxt = [Fraction(0)] * (deg + 1)
        for t, c in enumerate(term):
            if c == 0:
                continue
            for j, aj in enumerate(avals, start=1):
                if aj == 0:
                    continue
                nd = t + j
                if nd <= deg:
                    nxt[nd] -= aj * c * t
        term = nxt
        if not any(term):
            break
        fact *= it
        for t, c in enumerate(term):
            if c:
                series[t] += c / fact
    return series


# -- Delta_x -------------------------------------------------------------------


def _delta_into(system: TwistSystem, terms: dict, scale: tuple, shift: int, acc: dict) -> None:
    """Add p/q * Delta_x applied to the V_L state `terms` into acc, an
    accumulator {exponent: {FockMono: Cyc}}, with every exponent moved by
    shift, for scale = (p, q).

    Delta_x = sum c_{mnr} x^{-m-n} (nu^{-r} b^a)(m) b_a(n) over dual bases of
    L, nu^{-r} moving block p to p + r, has no creation mode: it contracts a
    monomial's own modes.  A mode (-n, x) and each other mode (-m, y) give
    m n c_{mnr} <b_x, b_y>_K at x^{-m-n}, r = block(y) - block(x) mod k; (-n, x)
    and the ground label g give 2n sum_r c_{n0r} <b_x, nu^{-r} g> at x^{-n}, as
    c_{0nr} = c_{n0,-r} and c_{00r} = 0; m + n is at most the level of terms."""
    k, d, gram = system.k, system.d, system.K.gram
    series = [c_coeffs(system, r, _max_level(terms)) for r in range(k)]
    for mono, c in terms.items():
        modes, g = mono.grid, mono.ground
        c = c._scale(*scale)
        for pos, (t, x) in enumerate(modes):
            p, row = x // d, gram[x % d]
            rest = modes[:pos] + modes[pos + 1:]
            for r, cr in enumerate(series):
                q = (p - r) % k * d
                pair = sum(a * b for a, b in zip(row, g[q:q + d]))
                if pair and (-t, 0) in cr:
                    _accumulate(acc.setdefault(shift + t, {}), FockMono(rest, g, 1),
                                c * (cr[(-t, 0)] * (-2 * t * pair)))
            for at, (s, y) in enumerate(rest):
                cmn = series[(y // d - p) % k].get((-s, -t)) if row[y % d] else None
                if cmn is not None:
                    _accumulate(acc.setdefault(shift + t + s, {}),
                                FockMono(rest[:at] + rest[at + 1:], g, 1),
                                c * (cmn * (s * t * row[y % d])))


def _states(system, sector, table: dict) -> dict[int, StateVector]:
    """The nonzero entries of a table {exponent: {FockMono: Cyc}} as states."""
    return {e: StateVector._of(system, sector, t) for e, t in table.items() if t}


def _exp_series(start: dict, step_into) -> dict:
    """exp(D) applied to a table {exponent: terms}, exact by nilpotence;
    step_into(terms, (1, t), e, acc) adds (1/t) * D x^e terms into acc."""
    out = {e: dict(t) for e, t in start.items()}
    current, t = start, 1
    while current:
        nxt: dict = {}
        for e, terms in current.items():
            step_into(terms, (1, t), e, nxt)
        current = {e: ts for e, ts in nxt.items() if ts}
        for e, ts in current.items():
            _merge_into(out.setdefault(e, {}), ts)
        t += 1
    return {e: ts for e, ts in out.items() if ts}


def exp_delta_apply(system: TwistSystem, v: StateVector) -> dict[int, StateVector]:
    """e^{Delta_x} v as {e: coefficient of x^e}, exact by weight-graded nilpotence."""
    if v.sector != "L":
        raise ValueError("Delta_x acts on V_L")
    return _states(system, "L", _exp_series({0: v.terms}, partial(_delta_into, system)))


# -- E_f -----------------------------------------------------------------------


def _scaling_into(sector: Sector, terms: dict, power: int, shift: int, out: dict) -> None:
    """Add (k x^{(k-1)/k})^(power * L(0)) applied to the V_K state `terms`,
    moved by x^{shift/k}, into the table `out`; sector is the descriptor of K."""
    k = sector.system.k
    for mono, c in terms.items():
        w = sector.mono_weight(mono)
        if w.denominator != 1:
            raise ValueError("non-integer weight in the base sector")
        w = power * w.numerator
        factor = c._scale(k ** w, 1) if w >= 0 else c._scale(1, k ** -w)
        _accumulate(out.setdefault(shift + (k - 1) * w, {}), mono, factor)


def _exp_virasoro_sum(sector: Sector, table: dict, avals: tuple, sign: int) -> dict:
    """exp(sign * sum_j a_j x^{-j/k} L(j)) applied to a table; L(j) lowers
    the level by j, so it acts only on terms of level at least j."""
    weights = [(j, sign * aj.numerator, aj.denominator)
               for j, aj in enumerate(avals, start=1) if aj]

    def step_into(terms, scale, t, acc):
        p, q = scale
        lev = _max_level(terms)
        for j, a, b in weights:
            if j <= lev:
                _virasoro_into(sector, j, terms, (a * p, b * q), acc.setdefault(t - j, {}))

    return _exp_series(table, step_into)


def _ef_data(system: TwistSystem, v: StateVector):
    """The K descriptor and the a_j up to the level of v (at least a_1): every
    L(j) above it kills v, and neither the scaling nor any L(j), j > 0,
    raises the level."""
    if v.sector != "K":
        raise ValueError("E_f acts on the base sector")
    return Sector.of(system, "K"), _a_series(system.k, max(1, _max_level(v.terms)))


def ef_apply(system: TwistSystem, v: StateVector) -> dict[int, StateVector]:
    """E_f(x^(1/k)) v on the base sector as {t: coefficient of x^{t/k}}."""
    sector, avals = _ef_data(system, v)
    scaled: dict = {}
    _scaling_into(sector, v.terms, -1, 0, scaled)
    return _states(system, "K", _exp_virasoro_sum(sector, scaled, avals, +1))


def ef_inverse_apply(system: TwistSystem, v: StateVector) -> dict[int, StateVector]:
    """E_f(x^(1/k))^(-1) v as {t: coefficient of x^{t/k}}; the two-sided
    inverse of ef_apply on finite states."""
    sector, avals = _ef_data(system, v)
    out: dict = {}
    for t, terms in _exp_virasoro_sum(sector, {0: v.terms}, avals, -1).items():
        _scaling_into(sector, terms, +1, t, out)
    return _states(system, "K", out)
