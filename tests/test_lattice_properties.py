"""Short-vector enumeration against a brute-force box search, and the
definiteness check and det against an independent elimination.

Gram matrices are drawn at random (rank at most 3, even diagonal, small
off-diagonal entries); those `Lattice` refuses are rejected.  Every alpha
with <alpha + c, alpha + c> <= 2 * bound has
|alpha_i + c_i| <= sqrt(2 * bound * (G^-1)_ii) by Cauchy-Schwarz against the
dual basis, so the boxes below hold them all.  Centres c are dual vectors,
G^-1 times a small integer vector, as in a shifted theta series, or any
rational vector with denominators up to 6.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt

import pytest
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
       st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.none() | st.lists(st.fractions(-2, 2, max_denominator=6), min_size=3, max_size=3))
def test_centred_enumeration_matches_box_search(gram, bound, ys, rational):
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    n = lattice.rank
    ginv = lattice.gram_inverse()
    if rational is None:
        center = tuple(sum(ginv[i][j] * ys[j] for j in range(n)) for i in range(n))
    else:
        center = tuple(rational[:n])
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


def _det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


@st.composite
def _symmetric_even(draw):
    rank = draw(st.integers(1, 4))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(-1, 3))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


@settings(deadline=None, max_examples=200)
@given(_symmetric_even())
def test_definiteness_and_det_match_leading_minors(gram):
    # Sylvester's criterion: refused exactly at the first leading minor <= 0
    n = len(gram)
    minors = [_det([row[:m] for row in gram[:m]]) for m in range(1, n + 1)]
    first = next((m for m, d in enumerate(minors, start=1) if d <= 0), None)
    if first is None:
        assert Lattice(gram).det == minors[-1]
    else:
        with pytest.raises(LatticeError, match=f"not positive definite \\(minor {first}\\)$"):
            Lattice(gram)


def test_enumeration_fraction_work_does_not_grow_with_the_bound(monkeypatch):
    # the descent runs on ints: only the set-up touches a Fraction, so the
    # count is the same for a small ball and one of thousands of vectors
    d4 = Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    calls = 0

    def counting(original):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)
        return counted

    for name in ("__add__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    for center in (None, (0, 0, Fraction(-1, 2), Fraction(1, 3))):
        counts = []
        for bound in (2, 20):
            calls = 0
            vectors = d4.enumerate_up_to_norm(bound, center)
            counts.append((len(vectors), calls))
        (few, first), (many, second) = counts
        assert few < many
        assert first == second
