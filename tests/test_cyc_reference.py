"""`Cyc` (int numerators over one denominator) against the Fraction-tuple
field kept in `cyc_reference.py`, over Q(zeta_n) for n <= 24.

Every operand is built twice from the same rational coefficients, once per
representation, and every result must carry the same coefficients.  Every
`Cyc` an operation returns must also be in canonical form: a positive
denominator coprime to the numerators, zero as all zeros over 1.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyc_reference as ref
from permtwist.exact import Cyc, CycField

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _operand(n):
    """(kind, value): a Cyc given by its coefficients, or a plain int or
    Fraction."""
    degree = CycField(n).degree
    return st.one_of(
        st.just(("cyc", (0,) * degree)),
        rationals.map(lambda r: ("cyc", (r,) + (0,) * (degree - 1))),
        st.lists(rationals, min_size=degree, max_size=degree).map(lambda cs: ("cyc", tuple(cs))),
        st.integers(-9, 9).map(lambda i: ("int", i)),
        rationals.map(lambda r: ("fraction", r)),
    )


def _field_and(count):
    return st.integers(1, 24).flatmap(
        lambda n: st.tuples(st.just(n), *[_operand(n) for _ in range(count)]))


def _both(n, operand):
    """The operand in the package's representation and in the reference's."""
    kind, value = operand
    if kind != "cyc":
        return value, value
    return Cyc(CycField(n), value), ref.Cyc(ref.CycField(n), tuple(map(Fraction, value)))


def _pair(n, x, y):
    """Both operands in both representations, the first one always a Cyc."""
    if x[0] != "cyc":
        x, y = y, x
    if x[0] != "cyc":
        x = ("cyc", (x[1],) + (0,) * (CycField(n).degree - 1))
    return _both(n, x), _both(n, y)


def canonical(x):
    """x is a Cyc of its field in canonical form; returns x."""
    assert isinstance(x, Cyc)
    num, den = x._num, x._den
    assert type(den) is int and den > 0
    assert len(num) == x.field.degree and all(type(a) is int for a in num)
    assert gcd(den, *num) == 1
    if not any(num):
        assert (num, den) == ((0,) * x.field.degree, 1)
    return x


def same(got, want):
    """A package result equals the reference result, coefficient by coefficient."""
    canonical(got)
    assert isinstance(want, ref.Cyc)
    assert got.c == want.c
    if got.is_rational():
        assert hash(got) == hash(want) == hash(got.as_rational())


def _outcome(op):
    try:
        return op(), None
    except ZeroDivisionError as exc:
        return None, exc


@settings(deadline=None)
@given(_field_and(2))
def test_ring_operations_match_the_reference(data):
    n, x, y = data
    (a, ra), (b, rb) = _pair(n, x, y)
    canonical(a)
    for got, want in [(a + b, ra + rb), (b + a, rb + ra), (a - b, ra - rb), (b - a, rb - ra),
                      (a * b, ra * rb), (b * a, rb * ra), (-a, -ra)]:
        same(got, want)
    for op, rop in [(lambda: a / b, lambda: ra / rb), (lambda: b / a, lambda: rb / ra),
                    (a.inv, ra.inv)]:
        (got, error), (want, ref_error) = _outcome(op), _outcome(rop)
        assert (error is None) == (ref_error is None)
        if error is None:
            same(got, want)


@settings(deadline=None)
@given(_field_and(1), st.integers(-4, 5))
def test_powers_match_the_reference(data, e):
    n, x = data
    (a, ra), _ = _pair(n, x, x)
    (got, error), (want, ref_error) = _outcome(lambda: a ** e), _outcome(lambda: ra ** e)
    assert (error is None) == (ref_error is None)
    if error is None:
        same(got, want)


@settings(deadline=None)
@given(_field_and(2))
def test_equality_and_hash_match_the_reference(data):
    n, x, y = data
    (a, ra), (b, rb) = _pair(n, x, y)
    assert (a == b) == (ra == rb) == (b == a)
    assert (a != b) == (ra != rb)
    if a == b:
        assert hash(a) == hash(b)
    # one value reached by two routes has one form and one hash
    c, d = canonical((a + b) * a), canonical(a * a + b * a)
    assert c == d and hash(c) == hash(d)


@settings(deadline=None)
@given(st.integers(1, 24), st.one_of(st.integers(-50, 50), rationals))
def test_rationals_enter_and_hash_as_themselves(n, r):
    field = CycField(n)
    x = canonical(field.from_rat(r))
    assert x == r and r == x and hash(x) == hash(r)
    assert x.is_rational() and x.as_rational() == r
    assert canonical(field.from_rat(Fraction(r))) == x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 24])
def test_constants_are_canonical_and_match_the_reference(n):
    field, rfield = CycField(n), ref.CycField(n)
    same(field.zero(), rfield.zero())
    same(field.one(), rfield.one())
    for e in range(-n, 2 * n):
        same(field.zeta(e), rfield.zeta(e))
    assert field.zero() == 0 and hash(field.zero()) == hash(0)
    assert field.one() == 1 and hash(field.one()) == hash(1)


def test_rationals_hash_by_the_numeric_rule():
    # a rational Cyc hashes on its own ints as the Fraction it equals, also
    # where the denominator has no inverse mod 2^61 - 1 and where the rule
    # turns -1 into -2
    modulus = 2 ** 61 - 1
    field = CycField(3)
    cases = [(n, d) for d in range(1, 41) for n in range(-40, 41)]
    cases += [(n, d * modulus) for d in (1, 3) for n in (-7, -1, 1, 2, 5)]
    for num, den in cases + [(-(2 ** 61 + 1), 2)]:
        r = Fraction(num, den)
        assert hash(field.from_rat(r)) == hash(r), r
    assert hash(field.from_rat(Fraction(-(2 ** 61 + 1), 2))) == -2
