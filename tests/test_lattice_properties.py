"""Short-vector enumeration against a brute-force box search.

Gram matrices are drawn at random (rank at most 3, even diagonal, small
off-diagonal entries); those `Lattice` refuses are rejected.  Every alpha
with <alpha + c, alpha + c> <= 2 * bound has
|alpha_i + c_i| <= sqrt(2 * bound * (G^-1)_ii) by Cauchy-Schwarz against the
dual basis, so the boxes below hold them all.  Centres c are dual vectors,
G^-1 times a small integer vector, as in a shifted theta series.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permtwist.lattice import Lattice, LatticeError


@st.composite
def _gram(draw):
    rank = draw(st.integers(1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(1, 3))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


@settings(deadline=None, max_examples=150)
@given(_gram(), st.fractions(0, 3, max_denominator=4))
def test_enumerate_up_to_norm_matches_box_search(gram, bound):
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    ginv = lattice.gram_inverse()
    box = [isqrt(floor(2 * bound * ginv[i][i])) for i in range(lattice.rank)]
    brute = [x for x in product(*(range(-b, b + 1) for b in box))
             if lattice.inner(x, x) <= 2 * bound]
    assert lattice.enumerate_up_to_norm(bound) == sorted(brute)


@settings(deadline=None, max_examples=150)
@given(_gram(), st.fractions(0, 3, max_denominator=4),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_centred_enumeration_matches_box_search(gram, bound, ys):
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    n = lattice.rank
    ginv = lattice.gram_inverse()
    center = tuple(sum(ginv[i][j] * ys[j] for j in range(n)) for i in range(n))
    ranges = []
    for i in range(n):
        r = isqrt(floor(2 * bound * ginv[i][i])) + 1
        ranges.append(range(floor(-center[i]) - r, ceil(-center[i]) + r + 1))
    brute = []
    for x in product(*ranges):
        shifted = tuple(a + c for a, c in zip(x, center))
        if lattice.inner(shifted, shifted) <= 2 * bound:
            brute.append(x)
    assert lattice.enumerate_up_to_norm(bound, center) == sorted(brute)
    plain = lattice.enumerate_up_to_norm(bound)
    assert lattice.enumerate_up_to_norm(bound, None) == plain
    assert lattice.enumerate_up_to_norm(bound, (Fraction(0),) * n) == plain
