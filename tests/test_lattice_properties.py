"""Short-vector enumeration against a brute-force box search, the
definiteness check and det against an independent elimination, dual cosets
against their defining properties, and span equality against rational
inverses and unimodular row operations.

Gram matrices are drawn at random (rank at most 3, even diagonal, small
off-diagonal entries); those `Lattice` refuses are rejected.  Every alpha
with <alpha + c, alpha + c> <= 2 * bound has
|alpha_i + c_i| <= sqrt(2 * bound * (G^-1)_ii) by Cauchy-Schwarz against the
dual basis, so the boxes below hold them all.  Centres c are dual vectors,
G^-1 times a small integer vector, as in a shifted theta series, or any
rational vector with denominators up to 6.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from permtwist.lattice import Lattice, LatticeError, hermite_rows

# rank 6, det 4, with an unreduced Gram matrix (tests/data/s6.lat)
S6_GRAM = [[8, 5, -5, -5, -4, 0], [5, 10, -3, 2, -1, -6], [-5, -3, 6, 3, 0, 0],
           [-5, 2, 3, 8, 3, -4], [-4, -1, 0, 3, 8, -3], [0, -6, 0, -4, -3, 6]]


@st.composite
def _gram(draw):
    rank = draw(st.integers(1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(1, 3))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


def _box_search(lattice, bound):
    """Every alpha with <alpha, alpha> <= 2 * bound, from the box around 0."""
    ginv = lattice.gram_inverse()
    box = [isqrt(floor(2 * bound * ginv[i][i])) for i in range(lattice.rank)]
    return [x for x in product(*(range(-b, b + 1) for b in box))
            if lattice.inner(x, x) <= 2 * bound]


@settings(deadline=None, max_examples=150)
@given(_gram(), st.fractions(0, 3, max_denominator=4))
def test_enumerate_up_to_norm_matches_box_search(gram, bound):
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    assert lattice.enumerate_up_to_norm(bound) == sorted(_box_search(lattice, bound))


@settings(deadline=None, max_examples=150)
@given(_gram(), st.fractions(0, 3, max_denominator=4))
@example([[2, 1], [1, 2]], Fraction(6))
@example([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], Fraction(5, 2))
def test_uncentred_norm_counts_match_box_search(gram, bound):
    # the path a theta series takes: half the ball walked, each v != 0 twice
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    halves = Counter(Fraction(lattice.inner(x, x), 2) for x in _box_search(lattice, bound))
    assert lattice.norm_counts(bound) == dict(halves)


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
    brute, halves = [], Counter()
    for x in product(*ranges):
        shifted = tuple(a + c for a, c in zip(x, center))
        norm = lattice.inner(shifted, shifted)
        if norm <= 2 * bound:
            brute.append(x)
            halves[Fraction(norm, 2)] += 1
    assert lattice.enumerate_up_to_norm(bound, center) == sorted(brute)
    assert lattice.norm_counts(bound, center) == dict(halves)
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
        for count in (lambda b, c: len(d4.enumerate_up_to_norm(b, c)),
                      lambda b, c: sum(d4.norm_counts(b, c).values())):
            counts = []
            for bound in (2, 20):
                calls = 0
                vectors = count(bound, center)
                counts.append((vectors, calls))
            (few, first), (many, second) = counts
            assert few < many
            assert first == second


@settings(deadline=None, max_examples=150)
@given(_gram())
@example(S6_GRAM)
def test_dual_coset_reps_are_one_per_class(gram):
    try:
        lattice = Lattice(gram)
    except LatticeError:
        assume(False)
    n = lattice.rank
    reps = lattice.dual_coset_reps()
    assert len(reps) == lattice.det
    assert reps[0] == (0,) * n
    for rep in reps:
        assert all(sum(g * x for g, x in zip(row, rep)).denominator == 1 for row in gram)
    # two classes agree iff the representatives differ by an integer vector
    assert len({tuple(x - floor(x) for x in rep) for rep in reps}) == len(reps)


def _inverse(rows):
    """Inverse over Q by Gauss-Jordan elimination with row swaps."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for i in range(n):
        pivot = next(r for r in range(i, n) if a[r][i] != 0)
        a[i], a[pivot] = a[pivot], a[i]
        a[i] = [x / a[i][i] for x in a[i]]
        for r in range(n):
            if r != i:
                a[r] = [x - a[r][i] * y for x, y in zip(a[r], a[i])]
    return [row[n:] for row in a]


def _integral_product(a, b) -> bool:
    return all(sum(x * b[m][j] for m, x in enumerate(row)).denominator == 1
               for row in a for j in range(len(b[0])))


_ENTRY = st.integers(-3, 3)


@st.composite
def _square_pair(draw):
    """Two square integer matrices; B is either random or A under row
    operations that keep its span, with one row then perhaps scaled."""
    n = draw(st.integers(1, 4))
    a = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return a, [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    b = [row[:] for row in a]
    for _ in range(draw(st.integers(0, 6))):
        i, j, f = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(_ENTRY)
        if i != j:
            b[i] = [x + f * y for x, y in zip(b[i], b[j])]
    i = draw(st.integers(0, n - 1))
    b[i] = [draw(st.sampled_from([1, -1, 2, 3])) * x for x in b[i]]
    return a, b


@settings(deadline=None, max_examples=200)
@given(_square_pair())
def test_span_equality_matches_rational_inverses(pair):
    # rows of A lie in the span of B iff A B^-1 is integral
    a, b = pair
    assume(_det(a) != 0 and _det(b) != 0)
    expected = _integral_product(a, _inverse(b)) and _integral_product(b, _inverse(a))
    assert (hermite_rows(a) == hermite_rows(b)) == expected


def _is_hermite(form, width) -> bool:
    """Echelon rows, positive pivots, entries above each pivot in [0, pivot)."""
    last = -1
    for i, row in enumerate(form):
        col = next((c for c, x in enumerate(row) if x), None)
        if len(row) != width or col is None or col <= last or row[col] < 0:
            return False
        if any(not 0 <= above[col] < row[col] for above in form[:i]):
            return False
        last = col
    return True


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(
    lambda w: st.lists(st.lists(st.integers(-4, 4), min_size=w, max_size=w),
                       min_size=1, max_size=6)), st.data())
def test_span_is_kept_under_unimodular_row_operations(rows, data):
    m, width = len(rows), len(rows[0])
    index = st.integers(0, m - 1)
    moved = [row[:] for row in rows]
    for _ in range(data.draw(st.integers(0, 8))):
        i, j = data.draw(index), data.draw(index)
        kind = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            f = data.draw(_ENTRY)
            moved[i] = [x + f * y for x, y in zip(moved[i], moved[j])]
        elif kind == "swap":
            moved[i], moved[j] = moved[j], moved[i]
        elif kind == "negate":
            moved[i] = [-x for x in moved[i]]
    for _ in range(data.draw(st.integers(0, 3))):
        fs = data.draw(st.lists(_ENTRY, min_size=m, max_size=m))
        moved.append([sum(f * row[c] for f, row in zip(fs, rows)) for c in range(width)])
    assert hermite_rows(rows) == hermite_rows(moved)
    assert _is_hermite(hermite_rows(rows), width)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                                 min_size=n, max_size=n), st.integers(0, n - 1))))
def test_doubling_a_basis_row_changes_the_span(basis_and_row):
    basis, i = basis_and_row
    assume(_det(basis) != 0)
    doubled = [[2 * x for x in row] if r == i else row for r, row in enumerate(basis)]
    assert hermite_rows(basis) != hermite_rows(doubled)


def test_span_equality_of_two_generating_sets_of_z5():
    a = [(3, 4, -2, 2, 0), (-4, -2, 4, 1, -4), (-3, 1, -1, 2, 3), (0, -2, -2, -1, -2),
         (0, 0, -1, 3, 2), (0, 3, -3, 2, 0)]
    b = [(-6, 5, 12, 5, 1), (-14, -5, -3, -1, -13), (0, -1, -5, 11, 4), (4, -3, 13, 0, 4),
         (11, -14, -2, -4, 7), (8, -2, 4, 13, -9)]
    assert hermite_rows(a) == hermite_rows(b)
    assert hermite_rows(b) == [tuple(int(i == j) for j in range(5)) for i in range(5)]
