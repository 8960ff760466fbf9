"""Lattices: enumeration, dual cosets and Hermite forms, and the block shift
`TwistSystem.nu` with the eigenprojections of `tests/fock_reference.py`."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import fock_reference as reference
from permtwist.cocycle import TwistSystem
from permtwist.lattice import Lattice, LatticeError, hermite_rows

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")
D4 = Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], "D4")

E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, -1, 0],
    [0, 0, 0, 0, -1, 2, 0, 0],
    [0, 0, 0, 0, -1, 0, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def test_validation_errors():
    with pytest.raises(LatticeError, match="not even"):
        Lattice([[1]])
    with pytest.raises(LatticeError, match="not positive definite \\(minor 2\\)"):
        Lattice([[2, 3], [3, 2]])
    with pytest.raises(LatticeError, match="not symmetric"):
        Lattice([[2, 1], [0, 2]])


@pytest.mark.parametrize("entry, shown", [(2.5, "2.5"), (Fraction(5, 2), "Fraction(5, 2)"),
                                          ("2", "'2'"), (True, "True")])
def test_non_integer_gram_entry_is_refused(entry, shown):
    # int() would read each of these as A1
    with pytest.raises(LatticeError, match=re.escape(f"gram entry {shown} is not an integer")):
        Lattice([[entry]])


def test_inner_examples():
    assert A1.inner((1,), (1,)) == 2
    L = A1.direct_sum_power(2)
    assert L.inner((1, 0), (0, 1)) == 0
    L3 = A1.direct_sum_power(3)
    assert L3.inner((1, 1, 1), (1, 1, 1)) == 6
    with pytest.raises(LatticeError, match="rank mismatch"):
        A1.inner((1, 0), (1,))


def test_direct_sum_power():
    assert A1.direct_sum_power(2).gram == ((2, 0), (0, 2))
    assert A1.direct_sum_power(3).gram == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    L = A2.direct_sum_power(2)
    assert L.rank == 4
    assert L.gram[0][1] == 1 and L.gram[0][2] == 0 and L.gram[2][3] == 1


def test_shift_examples():
    s2 = TwistSystem(A1, 2)
    assert s2.nu((1, 0), 1) == (0, 1)
    s3 = TwistSystem(A1, 3)
    assert s3.nu((1, 2, 3), 2) == (3, 1, 2)
    assert s3.nu((5, 6, 7), 3) == (5, 6, 7)
    with pytest.raises(LatticeError, match="rank mismatch in shift"):
        s3.nu((1, 2))


def test_shift_is_isometry():
    rng = random.Random(0)
    for k, K in [(2, A1), (3, A1), (2, A2)]:
        system = TwistSystem(K, k)
        L = system.L
        for _ in range(20):
            a = tuple(rng.randint(-3, 3) for _ in range(L.rank))
            b = tuple(rng.randint(-3, 3) for _ in range(L.rank))
            for p in range(k):
                assert L.inner(system.nu(a, p), system.nu(b, p)) == L.inner(a, b)


def test_eigenprojection_k2():
    pr = reference.eigenprojection(TwistSystem(A1, 2), (1, 0), 0)
    assert all(x.as_rational() == Fraction(1, 2) for x in pr)


def test_eigenprojection_k3_oracle():
    # oracle for the projected vector: direct formula evaluation, then check
    # the eigenvalue property and the resolution of the identity
    system = TwistSystem(A1, 3)
    field = system.field
    eta = field.zeta(2)
    pr = reference.eigenprojection(system, (1, 0, 0), 1)
    third = Fraction(1, 3)
    assert pr[0] == field.from_rat(third)
    assert pr[1] == eta * third
    assert pr[2] == eta * eta * third
    shifted = system.nu(pr, 1)
    assert all((a - eta * b).is_zero() for a, b in zip(shifted, pr))


@pytest.mark.parametrize("k,K", [(2, A1), (3, A1), (4, A1), (2, A2)])
def test_projection_resolution_and_idempotence(k, K):
    rng = random.Random(k + K.rank)
    system = TwistSystem(K, k)
    field = system.field
    eta = field.zeta(2)
    rank = k * K.rank
    for _ in range(6):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        total = [field.zero()] * rank
        for n in range(k):
            p = reference.eigenprojection(system, v, n)
            # eigenvalue property
            sp = system.nu(p, 1)
            assert all((a - (eta ** n) * b).is_zero() for a, b in zip(sp, p))
            # idempotence and orthogonality
            for m in range(k):
                pp = reference.eigenprojection(system, p, m)
                if m == n:
                    assert all((a - b).is_zero() for a, b in zip(pp, p))
                else:
                    assert all(a.is_zero() for a in pp)
            total = [a + b for a, b in zip(total, p)]
        assert all((a - field.from_rat(x)).is_zero() for a, x in zip(total, v))


@pytest.mark.parametrize("k,K", [(2, A1), (4, A1), (2, A2)])
def test_evenness_invariants(k, K):
    rng = random.Random(17)
    system = TwistSystem(K, k)
    L = system.L
    for _ in range(25):
        a = tuple(rng.randint(-4, 4) for _ in range(L.rank))
        assert L.inner(system.nu(a, k // 2), a) % 2 == 0
        total = [0] * L.rank
        for j in range(k):
            total = [x + y for x, y in zip(total, system.nu(a, j))]
        assert L.inner(tuple(total), a) % 2 == 0


def test_enumeration_examples():
    assert A1.enumerate_up_to_norm(1) == [(-1,), (0,), (1,)]
    assert A1.enumerate_up_to_norm(0) == [(0,)]
    roots = A2.enumerate_up_to_norm(1)
    assert len(roots) == 7
    assert (0, 0) in roots
    for center in [(Fraction(1, 3), 0, 0), (Fraction(1, 3),)]:
        with pytest.raises(LatticeError, match=f"center has length {len(center)}, lattice rank 2"):
            A2.enumerate_up_to_norm(1, center=center)


def test_enumeration_brute_force_oracle():
    # complete search over a coordinate box large enough for the bound
    bound = Fraction(6)
    got = set(A2.enumerate_up_to_norm(bound))
    brute = set()
    for x in range(-6, 7):
        for y in range(-6, 7):
            if A2.inner((x, y), (x, y)) <= 2 * bound:
                brute.add((x, y))
    assert got == brute


def _box_vectors(lat, top_norm):
    """(norm, vector) for every vector of norm <= top_norm, searched in the
    coordinate box x_i^2 <= top_norm * (G^-1)_ii that must contain them."""
    ginv = lat.gram_inverse()
    radii = [math.isqrt(math.floor(top_norm * ginv[i][i])) for i in range(lat.rank)]
    out = []
    for vec in itertools.product(*(range(-r, r + 1) for r in radii)):
        norm = lat.inner(vec, vec)
        if norm <= top_norm:
            out.append((norm, vec))
    return out


@pytest.mark.parametrize("lat", [A2, D4], ids=["A2", "D4"])
def test_enumeration_box_oracle_on_fine_bounds(lat):
    # every bound 0..12 on the 1/24 grid; many leave a coordinate's interval
    # without an integer point on some branch of the search
    box = _box_vectors(lat, 24)
    for t in range(12 * 24 + 1):
        want = sorted(vec for norm, vec in box if 12 * norm <= t)
        assert lat.enumerate_up_to_norm(Fraction(t, 24)) == want, Fraction(t, 24)


def test_enumeration_closed_under_negation():
    for lat, bound in [(A1, 5), (A2, 4)]:
        vecs = set(lat.enumerate_up_to_norm(bound))
        assert (0,) * lat.rank in vecs
        assert vecs == {tuple(-x for x in v) for v in vecs}


def test_dual_coset_reps():
    reps = A1.dual_coset_reps()
    assert reps == [(Fraction(0),), (Fraction(1, 2),)]
    four = Lattice([[2, 0], [0, 2]]).dual_coset_reps()
    assert len(four) == 4
    e8 = Lattice(E8_GRAM).dual_coset_reps()
    assert e8 == [tuple(Fraction(0) for _ in range(8))]
    a2reps = A2.dual_coset_reps()
    assert len(a2reps) == 3 and a2reps[0] == (Fraction(0), Fraction(0))


def test_integer_span_helpers():
    assert hermite_rows([(2, 0), (0, 3)]) == hermite_rows([(2, 3), (2, -3), (0, 3)])
    assert hermite_rows([(1, 1), (0, 2)]) == hermite_rows([(1, -1), (0, 2)])
    assert hermite_rows([(2, 0)]) != hermite_rows([(1, 0)])
