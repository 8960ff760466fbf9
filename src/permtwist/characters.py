"""Exact truncated q-series: eta powers, theta series, graded dimensions.

Exponents are rationals held as integers over a per-series denominator
scale; arithmetic merges scales by lcm.  Every series tracks the exponent
up to which its coefficients are complete, so products and inverses never
silently lose terms.  Integral coefficients stay ints (a float is refused);
eta^e for every integer e comes from one divisor-sum recurrence, so Theta /
eta^d needs no inverse; a theta series counts its ellipsoid's int norms.
Only the public constructor checks coefficients; results made here come
from `FracQSeries._of`, their producers keeping out zeros and exponents
above the order.  Products and inverses loop over output coefficients or
one factor's terms, never over pairs: each step is one C-level sum or slice.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .lattice import Lattice
from .report import Report


class FracQSeries:
    """Truncated series sum_e c_e q^(e/denom) with int or Fraction coefficients."""

    def __init__(self, denom: int, coeffs: dict, order):
        self.denom = denom
        self.order = Fraction(order)
        if not all(isinstance(c, (int, Fraction)) for c in coeffs.values()):
            raise TypeError("series coefficients must be ints or Fractions")
        lim = math.floor(self.order * denom)
        self.coeffs = {e: c for e, c in coeffs.items() if c and e <= lim}

    @classmethod
    def _of(cls, denom: int, coeffs: dict, order: Fraction) -> "FracQSeries":
        """A series that takes ownership of coeffs, which its producer holds
        to the invariant: no zero coefficient, no exponent above order*denom."""
        series = object.__new__(cls)
        series.denom, series.coeffs, series.order = denom, coeffs, order
        return series

    def rescaled(self, denom: int) -> "FracQSeries":
        f, rest = divmod(denom, self.denom)
        if rest:
            raise ValueError("denominator scales incompatible")
        return self if f == 1 else FracQSeries._of(
            denom, {e * f: c for e, c in self.coeffs.items()}, self.order)

    def _align(self, other):
        denom = math.lcm(self.denom, other.denom)
        return self.rescaled(denom), other.rescaled(denom)

    def coefficient(self, exponent):
        exponent = Fraction(exponent)
        if exponent > self.order:
            raise ValueError(f"coefficient at {exponent} beyond truncation {self.order}")
        e = exponent * self.denom
        return self.coeffs.get(e.numerator, 0) if e.denominator == 1 else 0

    def leading_exponent(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero series has no leading exponent")
        return Fraction(min(self.coeffs), self.denom)

    def items(self):
        return [(Fraction(e, self.denom), c) for e, c in sorted(self.coeffs.items())]

    def __mul__(self, other):
        """On the common stride g of both supports, each term of the sparser
        factor adds a scaled copy of the other's dense list in one slice."""
        a, b = self._align(other)
        # a series that vanishes to its order holds terms only above it
        la = a.leading_exponent() if a.coeffs else a.order
        lb = b.leading_exponent() if b.coeffs else b.order
        order = min(a.order + lb, b.order + la)
        if not (a.coeffs and b.coeffs):
            return FracQSeries._of(a.denom, {}, order)
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        ea, eb = min(a.coeffs), min(b.coeffs)
        g = math.gcd(*map(ea.__rsub__, a.coeffs), *map(eb.__rsub__, b.coeffs)) or 1
        size = (math.floor(order * a.denom) - ea - eb) // g + 1   # slots ea + eb + g*j
        dense = [0] * min(size, (max(b.coeffs) - eb) // g + 1)
        for e, c in b.coeffs.items():
            j = (e - eb) // g
            if j < size:
                dense[j] = c
        out = [0] * size
        for e, c in a.coeffs.items():
            j = (e - ea) // g
            out[j:j + len(dense)] = map(add, out[j:j + len(dense)], map(mul, repeat(c), dense))
        return FracQSeries._of(a.denom, {ea + eb + g * j: c for j, c in enumerate(out) if c},
                               order)

    def inverse(self) -> "FracQSeries":
        """Inverse of a series whose leading coefficient is a unit; a lead
        of +-1 is its own inverse, so an integral series stays integral.
        On the support's stride, inv_j = -sum tail_i inv_(j-i), i nonzero."""
        if not self.coeffs:
            raise ValueError("zero series has no inverse")
        lead_e = min(self.coeffs)
        lead_c = self.coeffs[lead_e]
        unit = lead_c if lead_c in (1, -1) else 1 / Fraction(lead_c)
        tail_order = self.order - Fraction(lead_e, self.denom)  # relative precision
        lim = math.floor(tail_order * self.denom)
        # a lone lead has no stride: any g above lim leaves one slot
        g = math.gcd(*map(lead_e.__rsub__, self.coeffs)) or lim + 1
        slots = sorted((e - lead_e) // g for e in self.coeffs)[1:]
        tail = [self.coeffs[lead_e + g * i] * unit for i in slots]
        inv = [1]
        for j in range(1, lim // g + 1):
            below = slots[:bisect_right(slots, j)]
            inv.append(-sum(map(mul, tail, map(inv.__getitem__, map(j.__sub__, below)))))
        out = {g * j - lead_e: c * unit for j, c in enumerate(inv) if c}
        return FracQSeries._of(self.denom, out, tail_order - Fraction(lead_e, self.denom))

    def substitute_power(self, k: int) -> "FracQSeries":
        """q -> q^k: multiplies every exponent (and the valid order) by k."""
        return FracQSeries._of(self.denom, {e * k: c for e, c in self.coeffs.items()},
                               self.order * k)

    def truncated(self, order) -> "FracQSeries":
        order = Fraction(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        lim = math.floor(order * self.denom)
        return FracQSeries._of(self.denom, {e: c for e, c in self.coeffs.items() if e <= lim},
                               order)

    def __eq__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        a, b = self._align(other)
        lim = math.floor(min(a.order, b.order) * a.denom)
        return ({e: c for e, c in a.coeffs.items() if e <= lim}
                == {e: c for e, c in b.coeffs.items() if e <= lim})

    def __repr__(self):
        bits = [f"{c}*q^({e})" for e, c in self.items()[:8]]
        more = " + ..." if len(self.coeffs) > 8 else ""
        return " + ".join(bits) + more + f"  (order {self.order})"


def _euler_coeffs(e: int, n: int) -> list[int]:
    """Int coefficients c(0..n) of prod_{m>=1} (1 - q^m)^e, none for n < 0,
    from q d/dq log: n c(n) = -e sum_{m=1}^{n} sigma(m) c(n - m), sigma the
    divisor sum (sieved), and the division by n is exact because the c(n)
    are integers."""
    sigma = [0] * n     # sigma(m) at index m - 1
    for d in range(1, n + 1):
        sigma[d - 1::d] = map(add, sigma[d - 1::d], repeat(d))
    c = [1] if n >= 0 else []
    for j in range(1, n + 1):
        c.append(-e * sum(map(mul, sigma, reversed(c))) // j)
    return c


def eta_power(d: int, order, k_scale: int = 1) -> FracQSeries:
    """eta(q^(1/k_scale))^d for any integer d, truncated at `order`,
    exponents in (1/(24 k_scale))Z: q^(d/24k) prod (1 - q^(m/k))^d."""
    order = Fraction(order)
    denom = 24 * k_scale
    n = math.floor((order - Fraction(d, denom)) * k_scale)
    coeffs = {d + 24 * m: c for m, c in enumerate(_euler_coeffs(d, n)) if c}
    return FracQSeries._of(denom, coeffs, order)


def theta_series(L: Lattice, order, shift=None) -> FracQSeries:
    """Theta series of L (optionally shifted by a dual vector), truncated.

    The descent counts <alpha + beta, alpha + beta>/2 <= order by its int
    norms, one key per distinct norm.  With beta's denominators dividing s,
    s^2 <v, v> is an even int, so every key lies on the (1/s^2)Z grid that
    denom 2 base^2 holds (s divides base); unshifted, keys are ints.
    """
    order = Fraction(order)
    denom = 2
    if shift is not None:
        shift = tuple(Fraction(x) for x in shift)
        if len(shift) != L.rank:
            raise ValueError(f"shift has length {len(shift)}, lattice rank {L.rank}")
        if any(sum(g * x for g, x in zip(row, shift)).denominator != 1 for row in L.gram):
            raise ValueError("shift not in the dual lattice")
        base = math.lcm(*(x.denominator for x in shift), 2)
        denom = 2 * base * base
    counts = {}
    for half, c in L.norm_counts(max(order, 0), shift).items():
        e, off = divmod(half.numerator * denom, half.denominator)
        if off:
            raise ValueError(f"theta exponents off the 1/{denom} grid")
        counts[e] = c
    return FracQSeries(denom, counts, order)


def twisted_lead_exponent(K: Lattice, k: int) -> Fraction:
    """Leading exponent of the twisted graded dimension."""
    return Fraction(-K.rank, 24 * k)


def char_voa(K: Lattice, order) -> FracQSeries:
    """Graded dimension of the lattice vertex algebra: Theta_K / eta^d."""
    return char_coset(K, None, order)


def _over_eta(theta: FracQSeries, d: int, k: int, order: Fraction) -> FracQSeries:
    """theta(q^(1/k)) * eta(q^(1/k))^(-d), truncated at `order`; the eta
    factor runs one unit past it, complete even where theta vanishes.  theta
    is read straight onto a grid that holds the eta factor's 1/(24k) too."""
    f = math.lcm(theta.denom, 24) // theta.denom
    theta = FracQSeries._of(theta.denom * f * k, {e * f: c for e, c in theta.coeffs.items()},
                            theta.order / k)
    return (theta * eta_power(-d, order + 1 - Fraction(d, 24 * k), k)).truncated(order)


def char_twisted(K: Lattice, k: int, order) -> FracQSeries:
    """Graded dimension of the twisted module, exponents in (1/24k)Z."""
    order = Fraction(order)
    # sum_alpha q^{<alpha,alpha>/2k}: the theta series read with q -> q^{1/k}
    theta = theta_series(K, (order + Fraction(K.rank, 24 * k)) * k)
    return _over_eta(theta, K.rank, k, order)


def char_coset(K: Lattice, beta, order) -> FracQSeries:
    """Graded dimension of the coset module attached to a dual vector beta;
    beta None is the zero coset, the lattice vertex algebra itself."""
    order = Fraction(order)
    theta = theta_series(K, order + Fraction(K.rank, 24), shift=beta)
    return _over_eta(theta, K.rank, 1, order)


def char_cycle_type(K: Lattice, cycle_lengths, order) -> FracQSeries:
    """Product of twisted characters over the cycles of a permutation."""
    order = Fraction(order)
    if not cycle_lengths:
        raise ValueError("need at least one cycle")
    leads = [twisted_lead_exponent(K, k_i) for k_i in cycle_lengths]
    # each factor to the order that the other factors' leads leave it
    factors = [char_twisted(K, k_i, order - sum(leads) + lead)
               for k_i, lead in zip(cycle_lengths, leads)]
    return functools.reduce(mul, factors).truncated(order)


def compare_thm41(K: Lattice, k: int, order) -> list[Report]:
    """The character identity between the two constructions, plus coset exclusion."""
    order = Fraction(order)
    reports = []
    substituted = char_twisted(K, k, order / k).substitute_power(k).truncated(order)
    base = char_voa(K, order)
    same = substituted == base
    witness = ""
    if not same:
        e = min(e for series in (substituted, base) for e, _ in series.items()
                if substituted.coefficient(e) != base.coefficient(e))
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
