"""The Fraction-tuple cyclotomic field, kept as an oracle for
`permtwist.exact.Cyc`.

Each element of Q(zeta_n) here is one `Fraction` per power of zeta, the
representation `permtwist.exact` used before it stored int numerators over
one common denominator.  Only `cyclotomic_polynomial` and
`_rational_inverse` are imported from the package.
"""

from __future__ import annotations

from fractions import Fraction

from permtwist.exact import _rational_inverse, cyclotomic_polynomial

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
        self.degree = len(mod) - 1
        # x^degree = -(lower part of Phi_n), then x^(degree+t) by shifting.
        self._mod_tail = tuple(Fraction(-c) for c in mod[:-1])
        rows = [self._mod_tail]
        for _ in range(self.degree - 2):
            prev = rows[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            top = prev[-1]
            if top:
                shifted = [s + top * m for s, m in zip(shifted, self._mod_tail)]
            rows.append(tuple(shifted))
        self._red_rows = rows  # reduction of x^(degree+t), t = 0 .. degree-2
        self._zeta_pows = None
        return self

    def __repr__(self):
        return f"CycField({self.n})"

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        deg = self.degree
        out = list(coeffs[:deg]) + [Fraction(0)] * max(0, deg - len(coeffs))
        for t in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[t]
            if c:
                row = self._red_rows[t - deg]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += c * rj
        return tuple(out)

    def zero(self) -> "Cyc":
        return Cyc(self, (Fraction(0),) * self.degree)

    def one(self) -> "Cyc":
        return self.from_rat(1)

    def from_rat(self, r) -> "Cyc":
        c = [Fraction(0)] * self.degree
        c[0] = Fraction(r)
        return Cyc(self, tuple(c))

    def zeta(self, e: int = 1) -> "Cyc":
        """zeta_n^e, reduced."""
        if self._zeta_pows is None:
            pows = []
            cur = [Fraction(0)] * self.degree
            cur[0] = Fraction(1)
            for _ in range(self.n):
                pows.append(tuple(cur))
                nxt = [Fraction(0)] + cur[:-1]
                top = cur[-1]
                if top:
                    nxt = self._reduce(nxt + [top])
                cur = list(nxt)
            self._zeta_pows = pows
        return Cyc(self, self._zeta_pows[e % self.n])


class Cyc:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("field", "c")

    def __init__(self, field: CycField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.c = coeffs

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return self.c[0]

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
        return Cyc(self.field, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.field, tuple(-a for a in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.field, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic orders")
            a, b = self.c, other.c
            # a rational factor only scales the other's coefficients
            if not any(b[1:]):
                s = b[0]
            elif not any(a[1:]):
                a, s = b, a[0]
            else:
                prod = [Fraction(0)] * (2 * self.field.degree - 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b):
                            if bj:
                                prod[i + j] += ai * bj
                return Cyc(self.field, self.field._reduce(prod))
        elif isinstance(other, (int, Fraction)):
            a, s = self.c, other
        else:
            return NotImplemented
        if not s:
            return self.field.zero()
        return Cyc(self.field, tuple(x * s if x else x for x in a))

    __rmul__ = __mul__

    def inv(self) -> "Cyc":
        """Field inverse: the first column of the inverse of the matrix of
        multiplication by self, whose column j is self * zeta^j."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_rational():
            return self.field.from_rat(1 / self.c[0])
        # column j + 1 is zeta times column j: shifted up one power and reduced
        cols = [self.c]
        for _ in range(self.field.degree - 1):
            cols.append(self.field._reduce((Fraction(0),) + cols[-1]))
        return Cyc(self.field, tuple(row[0] for row in _rational_inverse(list(zip(*cols)))))

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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c[0] == other
        if isinstance(other, Cyc):
            return self.field is other.field and self.c == other.c
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.c[0])
        return hash((self.field.n, self.c))

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
