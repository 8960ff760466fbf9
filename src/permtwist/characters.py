"""Exact truncated q-series: eta powers, theta series, graded dimensions.

Exponents are rationals held as integers over a per-series denominator
scale; arithmetic merges scales by lcm.  Every series tracks the exponent
up to which its coefficients are complete, so products and inverses never
silently lose terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import Lattice
from .report import Report


class FracQSeries:
    """Truncated series sum_e c_e q^(e/denom) with rational coefficients."""

    def __init__(self, denom: int, coeffs: dict[int, Fraction], order: Fraction):
        self.denom = denom
        self.order = Fraction(order)
        self.coeffs = {e: Fraction(c) for e, c in coeffs.items()
                       if c != 0 and Fraction(e, denom) <= self.order}

    @classmethod
    def constant(cls, value, order, denom: int = 1) -> "FracQSeries":
        return cls(denom, {0: Fraction(value)}, order)

    def rescaled(self, denom: int) -> "FracQSeries":
        if denom == self.denom:
            return self
        if denom % self.denom:
            raise ValueError("denominator scales incompatible")
        f = denom // self.denom
        return FracQSeries(denom, {e * f: c for e, c in self.coeffs.items()}, self.order)

    def _align(self, other):
        denom = self.denom * other.denom // math.gcd(self.denom, other.denom)
        return self.rescaled(denom), other.rescaled(denom)

    def coefficient(self, exponent) -> Fraction:
        exponent = Fraction(exponent)
        if exponent > self.order:
            raise ValueError(f"coefficient at {exponent} beyond truncation {self.order}")
        e = exponent * self.denom
        if e.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(e), Fraction(0))

    def leading_exponent(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero series has no leading exponent")
        return Fraction(min(self.coeffs), self.denom)

    def items(self):
        return [(Fraction(e, self.denom), c) for e, c in sorted(self.coeffs.items())]

    def __add__(self, other):
        a, b = self._align(other)
        order = min(a.order, b.order)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FracQSeries(a.denom, out, order)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "FracQSeries":
        return FracQSeries(self.denom, {e: v * c for e, v in self.coeffs.items()},
                           self.order)

    def __mul__(self, other):
        a, b = self._align(other)
        # a series that vanishes to its order holds terms only above it
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
        return FracQSeries(a.denom, out, order)

    def inverse(self) -> "FracQSeries":
        """Inverse of a series whose leading coefficient is a unit."""
        lead_e = min(self.coeffs)
        lead_c = self.coeffs[lead_e]
        tail_order = self.order - Fraction(lead_e, self.denom)  # relative precision
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
        order = tail_order - Fraction(lead_e, self.denom)
        return FracQSeries(self.denom, out, order)

    def substitute_power(self, k: int) -> "FracQSeries":
        """q -> q^k: multiplies every exponent (and the valid order) by k."""
        new_denom = self.denom
        coeffs = {e * k: c for e, c in self.coeffs.items()}
        return FracQSeries(new_denom, coeffs, self.order * k)

    def truncated(self, order) -> "FracQSeries":
        order = Fraction(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return FracQSeries(self.denom, self.coeffs, order)

    def __eq__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        a, b = self._align(other)
        order = min(a.order, b.order)
        lim = order * a.denom
        ka = {e: c for e, c in a.coeffs.items() if e <= lim}
        kb = {e: c for e, c in b.coeffs.items() if e <= lim}
        return ka == kb

    def __repr__(self):
        bits = [f"{c}*q^({e})" for e, c in self.items()[:8]]
        more = " + ..." if len(self.coeffs) > 8 else ""
        return " + ".join(bits) + more + f"  (order {self.order})"


def eta_power(d: int, order, k_scale: int = 1) -> FracQSeries:
    """eta(q^(1/k_scale))^d truncated at `order`, exponents in (1/(24 k_scale))Z."""
    if d < 0:
        raise ValueError("use .inverse() for negative powers")
    order = Fraction(order)
    denom = 24 * k_scale
    out = FracQSeries(denom, {d: Fraction(1)}, order)  # q^(d/24k)
    if d == 0:
        return FracQSeries(denom, {0: Fraction(1)}, order)
    nmax = int(order - Fraction(d, denom)) + 2
    step = Fraction(1, k_scale)
    n = step
    while n <= nmax:
        factor = FracQSeries(denom, {0: Fraction(1), int(n * denom): Fraction(-1)}, order)
        fd = factor
        for _ in range(d - 1):
            fd = fd * factor
        out = out * fd
        n += step
    return out


def theta_series(L: Lattice, order, shift=None, denom: int = 2) -> FracQSeries:
    """Theta series of L (optionally shifted by a dual vector), truncated."""
    order = Fraction(order)
    if shift is not None:
        shift = tuple(Fraction(x) for x in shift)
        for row in L.gram:
            pairing = sum(Fraction(g) * x for g, x in zip(row, shift))
            if pairing.denominator != 1:
                raise ValueError("shift not in the dual lattice")
        denoms = [x.denominator for x in shift] + [denom]
        base = 1
        for dd in denoms:
            base = base * dd // math.gcd(base, dd)
        denom = 2 * base * base if base > 1 else denom
    coeffs: dict[int, Fraction] = {}
    if shift is None or not any(shift):
        bound = max(order, 0)
    else:
        # |alpha|^2 <= 2|alpha+shift|^2 + 2|shift|^2, so this ball is complete
        bound = 2 * order + Fraction(L.inner(shift, shift)) + 1
    for alpha in L.enumerate_up_to_norm(bound):
        vec = alpha if shift is None else tuple(a + s for a, s in zip(alpha, shift))
        e = Fraction(L.inner(vec, vec), 2)
        if e <= order:
            key = e * denom
            if key.denominator != 1:
                raise ArithmeticError("denominator scale too small for shifted norms")
            coeffs[int(key)] = coeffs.get(int(key), Fraction(0)) + 1
    return FracQSeries(denom, coeffs, order)


def twisted_lead_exponent(K: Lattice, k: int) -> Fraction:
    """Leading exponent of the twisted graded dimension."""
    return Fraction(-K.rank, 24 * k)


def char_voa(K: Lattice, order) -> FracQSeries:
    """Graded dimension of the lattice vertex algebra: Theta_K / eta^d."""
    return char_coset(K, None, order)


def char_twisted(K: Lattice, k: int, order) -> FracQSeries:
    """Graded dimension of the twisted module, exponents in (1/24k)Z."""
    order = Fraction(order)
    d = K.rank
    denom = 24 * k
    theta_order = order + Fraction(d, denom)
    # sum_alpha q^{<alpha,alpha>/2k}: the theta series on the 1/24 grid, read
    # on the 1/(24k) grid (q -> q^{1/k})
    theta = theta_series(K, theta_order * k, denom=24)
    theta_scaled = FracQSeries(denom, theta.coeffs, theta_order)
    # eta(q^{1/k})^d = q^{d/24k} prod (1 - q^{n/k})^d; its inverse brings q^{-d/24k}
    etad = eta_power(d, order + Fraction(d, denom) + 1, k_scale=k)
    return (theta_scaled * etad.inverse()).truncated(order)


def char_coset(K: Lattice, beta, order) -> FracQSeries:
    """Graded dimension of the coset module attached to a dual vector beta;
    beta None is the zero coset, the lattice vertex algebra itself."""
    order = Fraction(order)
    d = K.rank
    lead = Fraction(-d, 24)
    theta = theta_series(K, order - lead, shift=beta)
    etad = eta_power(d, order + Fraction(d, 24) + 1)
    return (theta * etad.inverse()).truncated(order)


def char_cycle_type(K: Lattice, cycle_lengths, order) -> FracQSeries:
    """Product of twisted characters over the cycles of a permutation."""
    order = Fraction(order)
    if not cycle_lengths:
        raise ValueError("need at least one cycle")
    d = K.rank
    leads = [Fraction(-d, 24 * k_i) for k_i in cycle_lengths]
    total_lead = sum(leads)
    out = None
    for k_i, lead in zip(cycle_lengths, leads):
        factor = char_twisted(K, k_i, order - (total_lead - lead))
        out = factor if out is None else out * factor
    return out.truncated(order)


def compare_thm41(K: Lattice, k: int, order) -> list[Report]:
    """The character identity between the two constructions, plus coset exclusion."""
    order = Fraction(order)
    reports = []
    tw = char_twisted(K, k, order / k)
    substituted = tw.substitute_power(k)
    base = char_voa(K, order)
    same = substituted.truncated(order) == base
    witness = ""
    if not same:
        diff = substituted.truncated(order) - base
        e = diff.leading_exponent()
        witness = (f"first difference at q^{e}: "
                   f"{substituted.coefficient(e)} vs {base.coefficient(e)}")
    reports.append(Report(
        check_id=f"char-equality[{K.name or 'K'} k={k} order={order}]",
        anchor="twisted-character-substitution",
        status="pass" if same else "fail",
        witness=witness))
    base_lead = base.leading_exponent()
    for idx, beta in enumerate(K.dual_coset_reps()):
        if not any(beta):
            continue
        # a coset series that vanishes to its order (at least base_lead)
        # starts above it, so its leading exponent differs from base_lead
        cos = char_coset(K, beta, min(order, Fraction(3)))
        lead = cos.leading_exponent() if cos.coeffs else None
        distinct = lead != base_lead
        reports.append(Report(
            check_id=f"coset-exclusion[{K.name or 'K'} k={k} rep{idx}]",
            anchor="coset-leading-exponent",
            status="pass" if distinct else "fail",
            witness="" if distinct else f"coset {beta} has leading exponent {lead}"))
    return reports
