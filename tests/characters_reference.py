"""Slow reference q-series: the product-form eta power, the Fraction inverse
and the ball-bound shifted theta series, kept as oracles for
`permtwist.characters`.

Nothing here imports the package's characters code.  eta^d is built from
about N*d binomial factors (1 - q^n), its inverse by the O(N^2) Fraction
recurrence, and a shifted theta series enumerates the ball
<alpha, alpha>/2 <= 2*order + <beta, beta> + 1 around 0 (which holds every
alpha with <alpha + beta, alpha + beta>/2 <= order) with norms taken in
Fraction.  The only package code used is `Lattice.enumerate_up_to_norm`
without a centre and `Lattice.inner`.
"""

from __future__ import annotations

import math
from fractions import Fraction


class RefSeries:
    """Truncated series sum_e c_e q^(e/denom), Fraction coefficients."""

    def __init__(self, denom: int, coeffs: dict, order):
        self.denom = denom
        self.order = Fraction(order)
        self.coeffs = {e: Fraction(c) for e, c in coeffs.items()
                       if c != 0 and Fraction(e, denom) <= self.order}

    def rescaled(self, denom: int) -> "RefSeries":
        f = denom // self.denom
        return RefSeries(denom, {e * f: c for e, c in self.coeffs.items()}, self.order)

    def _align(self, other):
        denom = self.denom * other.denom // math.gcd(self.denom, other.denom)
        return self.rescaled(denom), other.rescaled(denom)

    def leading_exponent(self) -> Fraction:
        return Fraction(min(self.coeffs), self.denom)

    def items(self):
        return [(Fraction(e, self.denom), c) for e, c in sorted(self.coeffs.items())]

    def __mul__(self, other):
        a, b = self._align(other)
        la = a.leading_exponent() if a.coeffs else a.order
        lb = b.leading_exponent() if b.coeffs else b.order
        order = min(a.order + lb, b.order + la)
        lim = order * a.denom
        out: dict[int, Fraction] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e <= lim:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return RefSeries(a.denom, out, order)

    def inverse(self) -> "RefSeries":
        lead_e = min(self.coeffs)
        lead_c = self.coeffs[lead_e]
        tail_order = self.order - Fraction(lead_e, self.denom)
        lim = int(tail_order * self.denom)
        tail = {e - lead_e: c / lead_c for e, c in self.coeffs.items()}
        inv = {0: Fraction(1)}
        for e in range(1, lim + 1):
            s = Fraction(0)
            for e2, c2 in tail.items():
                if 0 < e2 <= e:
                    s += c2 * inv.get(e - e2, Fraction(0))
            if s:
                inv[e] = -s
        out = {e - lead_e: c / lead_c for e, c in inv.items()}
        return RefSeries(self.denom, out, tail_order - Fraction(lead_e, self.denom))

    def truncated(self, order) -> "RefSeries":
        order = Fraction(order)
        assert order <= self.order, "cannot extend a truncated series"
        return RefSeries(self.denom, self.coeffs, order)


def eta_power(d: int, order, k_scale: int = 1) -> RefSeries:
    """eta(q^(1/k_scale))^d, d >= 0, as a product of (1 - q^(n/k_scale))^d."""
    order = Fraction(order)
    denom = 24 * k_scale
    if d == 0:
        return RefSeries(denom, {0: 1}, order)
    out = RefSeries(denom, {d: 1}, order)  # q^(d/24k)
    nmax = int(order - Fraction(d, denom)) + 2
    step = Fraction(1, k_scale)
    n = step
    while n <= nmax:
        factor = RefSeries(denom, {0: 1, int(n * denom): -1}, order)
        for _ in range(d):
            out = out * factor
        n += step
    return out


def theta_series(L, order, shift=None, denom: int = 2) -> RefSeries:
    """Theta series of L, optionally shifted by a dual vector, from a ball."""
    order = Fraction(order)
    if shift is not None:
        shift = tuple(Fraction(x) for x in shift)
        base = denom
        for x in shift:
            base = math.lcm(base, x.denominator)
        denom = 2 * base * base if base > 1 else denom
    if shift is None or not any(shift):
        bound = max(order, 0)
    else:
        bound = 2 * order + Fraction(L.inner(shift, shift)) + 1
    coeffs: dict[int, int] = {}
    for alpha in L.enumerate_up_to_norm(bound):
        vec = alpha if shift is None else tuple(a + s for a, s in zip(alpha, shift))
        e = Fraction(L.inner(vec, vec), 2)
        if e <= order:
            key = e * denom
            assert key.denominator == 1
            coeffs[int(key)] = coeffs.get(int(key), 0) + 1
    return RefSeries(denom, coeffs, order)


def char_twisted(K, k: int, order) -> RefSeries:
    """Theta_K(q^(1/k)) / eta(q^(1/k))^d, exponents in (1/24k)Z."""
    order = Fraction(order)
    d = K.rank
    denom = 24 * k
    theta_order = order + Fraction(d, denom)
    theta = theta_series(K, theta_order * k, denom=24)
    theta_scaled = RefSeries(denom, theta.coeffs, theta_order)
    etad = eta_power(d, order + Fraction(d, denom) + 1, k_scale=k)
    return (theta_scaled * etad.inverse()).truncated(order)


def char_coset(K, beta, order) -> RefSeries:
    """Theta_{K + beta} / eta^d; beta None is the lattice itself."""
    order = Fraction(order)
    d = K.rank
    theta = theta_series(K, order + Fraction(d, 24), shift=beta)
    etad = eta_power(d, order + Fraction(d, 24) + 1)
    return (theta * etad.inverse()).truncated(order)
