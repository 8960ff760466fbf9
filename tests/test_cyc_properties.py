"""Property tests for Cyc arithmetic over Q(zeta_n), n <= 24.

Products are compared with a schoolbook product reduced by long division
modulo the cyclotomic polynomial, written here independently of
`CycField._reduce`.  Operands are drawn so that every case of `Cyc.__mul__`
is hit on either side: zero, rational elements, general elements, and
plain ints and Fractions.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtwist.exact import Cyc, CycField, cyclotomic_polynomial

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _operand(n):
    field = CycField(n)
    general = st.lists(rationals, min_size=field.degree, max_size=field.degree).map(
        lambda cs: Cyc(field, tuple(cs)))
    return st.one_of(
        st.just(field.zero()),
        rationals.map(field.from_rat),
        general,
        st.integers(-9, 9),
        rationals,
    )


def _field_and(count):
    return st.integers(1, 24).flatmap(
        lambda n: st.tuples(st.just(n), *[_operand(n) for _ in range(count)]))


def _as_cyc(field, x):
    return x if isinstance(x, Cyc) else field.from_rat(x)


def _schoolbook(n, a, b):
    """(sum a_i x^i)(sum b_j x^j) mod Phi_n, as a coefficient tuple."""
    mod = cyclotomic_polynomial(n)
    deg = len(mod) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(len(prod) - 1, deg - 1, -1):
        c = prod[t]
        if c:
            for s, m in enumerate(mod):
                prod[t - deg + s] -= c * m
    return tuple(prod[:deg]) + (Fraction(0),) * (deg - len(prod))


@settings(deadline=None)
@given(_field_and(2))
def test_mul_matches_schoolbook_product(data):
    n, x, y = data
    field = CycField(n)
    x = _as_cyc(field, x)       # at least one operand is a Cyc
    want = _schoolbook(n, x.c, _as_cyc(field, y).c)
    for got in (x * y, y * x):
        assert isinstance(got, Cyc) and got.field is field
        assert got.c == want


@settings(deadline=None)
@given(_field_and(3))
def test_field_axioms(data):
    n, *ops = data
    field = CycField(n)
    a, b, c = (_as_cyc(field, x) for x in ops)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * field.one() == a and a + field.zero() == a
    assert a + (-a) == field.zero()
    if not a.is_zero():
        assert a * a.inv() == 1
        assert (b / a) * a == b


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 25):
        poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(poly.all_coeffs()))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_inv_against_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(n, x)
    field = CycField(n)
    rng = random.Random(n)
    elements = [field.zeta(), field.zeta(1) + 1, field.zeta(-1) * 3 - Fraction(1, 2)]
    for _ in range(20):
        coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(field.degree))
        elements.append(Cyc(field, coeffs))
    for a in elements:
        if a.is_zero():
            continue
        poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(a.c))
        inv = sympy.Poly(sympy.invert(poly, phi, x), x)
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]
        want += [Fraction(0)] * (field.degree - len(want))
        assert a.inv().c == tuple(want), a
