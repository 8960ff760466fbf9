"""Exact scalar arithmetic: arbitrary-precision rationals and cyclotomic fields.

Rationals are `fractions.Fraction`.  Root-of-unity arithmetic happens in
Q(zeta_n): a `Cyc` stores one int numerator per power of zeta below the
degree of the n-th cyclotomic polynomial, over one positive int
denominator, with the gcd of the denominator and every numerator 1.  That
form is canonical, so equality of field elements is tuple comparison.  A
rational weight held as two ints p and q meets a `Cyc` through
`Cyc._scale`, with one gcd and no `Fraction`.  No floating point anywhere.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add

_new = object.__new__


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials known to divide exactly (constant term first)."""
    num = list(num)
    deg_n, deg_d = len(num) - 1, len(den) - 1
    out = [0] * (deg_n - deg_d + 1)
    for i in range(deg_n - deg_d, -1, -1):
        c = num[i + deg_d]
        if c % den[deg_d] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[deg_d]
        out[i] = q
        for j, dj in enumerate(den):
            num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CycField:
    """The cyclotomic field Q(zeta_n), zeta_n a fixed primitive n-th root of unity."""

    _cache: dict[int, "CycField"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        self = object.__new__(cls)
        cls._cache[n] = self
        self.n = n
        mod = cyclotomic_polynomial(n)
        self.degree = deg = len(mod) - 1
        self._zero_num = (0,) * deg
        # Phi_n is monic: x^degree = -(lower part of Phi_n), then x^(degree+t)
        # by shifting, all over Z
        tail = tuple(-c for c in mod[:-1])
        rows = [tail]
        for _ in range(deg - 2):
            prev = rows[-1]
            top = prev[-1]
            rows.append(tuple(s + top * m for s, m in zip((0,) + prev[:-1], tail)))
        self._red_rows = rows  # reduction of x^(degree+t), t = 0 .. degree-2
        pows = []
        cur = (1,) + self._zero_num[1:]
        for _ in range(n):
            pows.append(cur)
            cur = self._reduce((0,) + cur)
        self._zeta_pows = pows
        return self

    def __repr__(self):
        return f"CycField({self.n})"

    def _reduce(self, coeffs) -> tuple[int, ...]:
        """Int coefficients of a polynomial in zeta, of degree < 2 * degree,
        reduced modulo Phi_n."""
        deg = self.degree
        out = list(coeffs[:deg]) + [0] * (deg - len(coeffs))
        for t in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[t]
            if c:
                for j, rj in enumerate(self._red_rows[t - deg]):
                    out[j] += c * rj
        return tuple(out)

    def zero(self) -> "Cyc":
        return _cyc(self, self._zero_num, 1)

    def one(self) -> "Cyc":
        return _cyc(self, (1,) + self._zero_num[1:], 1)

    def from_rat(self, r) -> "Cyc":
        """The rational r, an int or a Fraction; anything else raises."""
        if not isinstance(r, (int, Fraction)):
            raise TypeError(f"from_rat takes an int or a Fraction, not {type(r).__name__}")
        return _cyc(self, (r.numerator,) + self._zero_num[1:], r.denominator)

    def zeta(self, e: int = 1) -> "Cyc":
        """zeta_n^e, reduced."""
        return _cyc(self, self._zeta_pows[e % self.n], 1)


def _cyc(field: CycField, num: tuple[int, ...], den: int) -> "Cyc":
    """The Cyc num/den, from a numerator tuple and denominator already in
    canonical form."""
    x = _new(Cyc)
    x.field = field
    x._num = num
    x._den = den
    return x


def _canonical(field: CycField, num: tuple[int, ...], den: int) -> "Cyc":
    """The Cyc num/den for any int numerators and a positive denominator."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([a // g for a in num])
        den //= g
    return _cyc(field, num, den)


class Cyc:
    """An element of Q(zeta_n) in canonical reduced form: int numerators
    `_num`, one per power of zeta, over one positive int denominator `_den`,
    with gcd(_den, *_num) == 1 (so zero is all zeros over 1).

    `Cyc(field, coeffs)` takes one rational (int or Fraction) per power of
    zeta, reduced modulo Phi_n; `c` gives them back as Fractions.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: CycField, coeffs):
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(Fraction(a).denominator for a in coeffs))
        self.field = field
        self._num = tuple(int(a * den) for a in coeffs)
        self._den = den

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficient of each power of zeta, as Fractions."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self._num[0], self._den)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rat(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._den, o._den
        if d == e:
            num = tuple(map(add, self._num, o._num))
        else:
            num = tuple([a * e + b * d for a, b in zip(self._num, o._num)])
            d *= e
        return _canonical(self.field, num, d)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.field, tuple([-a for a in self._num]), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Cyc):
            if other.field is not field:
                raise ValueError("mixed cyclotomic orders")
            a, b = self._num, other._num
            den = self._den * other._den
            # a rational factor only scales the other's numerators
            if not any(b[1:]):
                s = b[0]
            elif not any(a[1:]):
                a, s = b, a[0]
            else:
                prod = [0] * (2 * field.degree - 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b):
                            prod[i + j] += ai * bj
                return _canonical(field, field._reduce(prod), den)
        elif isinstance(other, (int, Fraction)):
            a, s, den = self._num, other.numerator, self._den * other.denominator
        else:
            return NotImplemented
        if not s:
            return field.zero()
        return _canonical(field, tuple([x * s for x in a]), den)

    __rmul__ = __mul__

    def _scale(self, p: int, q: int) -> "Cyc":
        """self * p / q for ints p and q > 0, reduced with one gcd: the one
        product by a rational weight that the Fock layer and the series
        engine take per output term."""
        if p == q:
            return self
        num = self._num if p == 1 else tuple([a * p for a in self._num])
        return _canonical(self.field, num, self._den * q)

    def inv(self) -> "Cyc":
        """Field inverse: the first column of the inverse of the matrix of
        multiplication by self, whose column j is self * zeta^j."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        num, den = self._num, self._den
        if self.is_rational():
            return self.field.from_rat(Fraction(den, num[0]))
        # column j + 1 is zeta times column j: shifted up one power and
        # reduced; the matrix of num is den times that of self
        cols = [num]
        for _ in range(self.field.degree - 1):
            cols.append(self.field._reduce((0,) + cols[-1]))
        return Cyc(self.field, [row[0] * den for row in _rational_inverse(list(zip(*cols)))])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return (self.field is other.field and self._den == other._den
                    and self._num == other._num)
        if isinstance(other, (int, Fraction)):
            num = self._num
            return (num[0] == other.numerator and self._den == other.denominator
                    and not any(num[1:]))
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            # a rational hashes as the Fraction it equals, by Python's
            # numeric-hash rule on the reduced pair (num, den)
            num, den = self._num[0], self._den
            try:
                h = hash(abs(num) * pow(den, -1, sys.hash_info.modulus))
            except ValueError:
                # den divisible by the modulus has no inverse
                h = sys.hash_info.inf
            # hash() reads a result of -1 as -2, as the rule asks
            return h if num >= 0 else -h
        return hash((self.field.n, self._num, self._den))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, a in enumerate(self.c):
            if not a:
                continue
            if e == 0:
                parts.append(str(a))
            else:
                z = f"z{e}" if e > 1 else "z"
                parts.append(z if a == 1 else f"{a}*{z}")
        return " + ".join(parts)


def _rational_inverse(mat) -> list[list[Fraction]]:
    """Inverse of an invertible integer or rational matrix, as rows of
    Fractions: fraction-free (Bareiss) Gauss-Jordan elimination on ints."""
    n = len(mat)
    den = math.lcm(*(x.denominator for row in mat for x in row))
    a = [[int(x * den) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        p = top[col]
        # every division by the previous pivot is exact
        for r in range(n):
            if r != col:
                g = a[r][col]
                a[r] = [(p * x - g * y) // prev for x, y in zip(a[r], top)]
        prev = p
    # the left block is now prev times the identity
    return [[Fraction(x * den, prev) for x in row[n:]] for row in a]


def lemma_root_sum(m: int) -> Cyc:
    """Sum of zeta^{-j} / (1 - zeta^{-j})^2 over j = 1..m-1, zeta a primitive m-th root.

    Evaluates exactly in Q(zeta_m); the value is the rational -(m^2-1)/12.
    """
    if m < 1:
        raise ValueError("m must be positive")
    field = CycField(m)
    total = field.zero()
    for j in range(1, m):
        z = field.zeta(-j)
        total = total + z * ((field.one() - z) ** (-2))
    return total
