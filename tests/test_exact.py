"""Field arithmetic in Q(zeta_n) and the exact root-of-unity sum."""

import random
from fractions import Fraction

import pytest

from permtwist.exact import (Cyc, CycField, _rational_inverse, cyclotomic_polynomial,
                             lemma_root_sum)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def rand_elem(field, rng):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(field.degree)]
    return Cyc(field, tuple(coeffs))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_field_axioms_random(n):
    rng = random.Random(n)
    field = CycField(n)
    one = field.one()
    for _ in range(25):
        a, b, c = (rand_elem(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == one


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rational_inverse_two_sided(n):
    # P * Lower * Upper with zeros scattered in both factors and a row
    # permutation P, so the elimination has to pivot
    rng = random.Random(n)
    for _ in range(20):
        lower = [[Fraction(rng.choice([0, 0, 1, -2]), 3) if c < r else Fraction(int(c == r))
                  for c in range(n)] for r in range(n)]
        upper = [[Fraction(rng.choice([1, -1, 7]), rng.randint(1, 4)) if c == r
                  else Fraction(rng.choice([0, 0, 2, -3])) if c > r else Fraction(0)
                  for c in range(n)] for r in range(n)]
        perm = rng.sample(range(n), n)
        lu = _matmul(lower, upper)
        mat = [lu[perm[r]] for r in range(n)]
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inverse = _rational_inverse(mat)
        assert _matmul(mat, inverse) == identity == _matmul(inverse, mat)
        ints = [[int(x * 36) for x in row] for row in mat]    # 36 clears every denominator
        assert _rational_inverse(ints) == [[x / 36 for x in row] for row in inverse]


def _matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_inverse_of_zero_raises():
    field = CycField(6)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        field.zero().inv()


def test_norm_product_in_sixth_field():
    # oracle: expand (1-x^2)(1-x^4) in Z[x] and reduce mod x^2 - x + 1
    field = CycField(6)
    eta = field.zeta(2)
    poly = [0] * 7
    # (1 - x^2)(1 - x^4) = 1 - x^2 - x^4 + x^6
    poly[0], poly[2], poly[4], poly[6] = 1, -1, -1, 1
    # reduce: x^2 = x - 1
    reduced = list(poly)
    for deg in range(6, 1, -1):
        c = reduced[deg]
        if c:
            reduced[deg] = 0
            reduced[deg - 1] += c
            reduced[deg - 2] -= c
    assert reduced[2:] == [0] * 5
    expected = field.from_rat(reduced[0]) + field.zeta(1) * reduced[1]
    got = (field.one() - eta) * (field.one() - eta * eta)
    assert got == expected == 3


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_eta_primitivity(k):
    field = CycField(2 * k)
    eta = field.zeta(2)
    assert eta ** k == 1
    for j in range(1, k):
        assert eta ** j != 1
    eta0 = field.zeta(k + 2) if k % 2 else eta
    order = 2 * k if k % 2 else k
    assert eta0 ** order == 1
    for j in range(1, order):
        assert eta0 ** j != 1


@pytest.mark.parametrize("m", list(range(1, 25)))
def test_root_sum_closed_form(m):
    value = lemma_root_sum(m)
    assert value.is_rational()
    assert value.as_rational() == Fraction(-(m * m - 1), 12)


def test_root_sum_small_values():
    assert lemma_root_sum(1) == 0
    assert lemma_root_sum(2).as_rational() == Fraction(-1, 4)
    assert lemma_root_sum(6).as_rational() == Fraction(-35, 12)


def test_rational_conversion_and_powers():
    field = CycField(6)
    z = field.zeta(1)
    assert (z ** 6) == 1
    assert (z ** -1) == z ** 5
    with pytest.raises(ValueError):
        z.as_rational()
    assert field.from_rat(Fraction(3, 7)).as_rational() == Fraction(3, 7)


@pytest.mark.parametrize("r", [0.1, 2.0, "1/2", None])
def test_from_rat_takes_only_ints_and_fractions(r):
    # no floating point anywhere: a float is refused, not rounded to the
    # binary fraction it stores
    with pytest.raises(TypeError):
        CycField(6).from_rat(r)
