"""Commutator maps, sections, the lifted shift, tau and sigma."""

import random

import pytest

from permtwist.cocycle import (CentralElem, SECTION_PLAIN, SECTION_TWISTED,
                               TwistSystem)
from permtwist.lattice import Lattice, hermite_rows

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")

SYSTEMS = [TwistSystem(A1, 1), TwistSystem(A1, 2), TwistSystem(A1, 3),
           TwistSystem(A1, 4), TwistSystem(A2, 2), TwistSystem(A2, 3)]


def rand_vec(system, rng, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(system.L.rank))


def test_c0_examples():
    s = TwistSystem(A1, 2)
    assert s.commutator_C0((1, 0), (1, 0)) == 1
    s21 = TwistSystem(A2, 1)
    assert s21.commutator_C0((1, 0), (0, 1)) == -1
    assert s21.commutator_C0((3, -2), (0, 0)) == 1


def test_c_twisted_direct_evaluation():
    # oracle: term-by-term product of (-eta^j)^{<nu^j a, b>}, eta = -1 at k=2
    s = TwistSystem(A1, 2)
    alpha, beta = (1, 0), (0, 1)
    value = s.field.one()
    for j in range(2):
        ip = s.L.inner(s.nu(alpha, j), beta)
        value = value * (-(s.eta_pow(j))) ** ip
    assert s.commutator_C(alpha, beta) == value == 1


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_commutator_bilinear_skew_invariant(system):
    rng = random.Random(system.k * 10 + system.d)
    one = system.field.one()
    for _ in range(20):
        a, b, c = (rand_vec(system, rng) for _ in range(3))
        ab = tuple(x + y for x, y in zip(a, b))
        assert system.commutator_C(ab, c) == system.commutator_C(a, c) * system.commutator_C(b, c)
        assert system.commutator_C(a, ab) == system.commutator_C(a, a) * system.commutator_C(a, b)
        assert system.commutator_C0(ab, c) == system.commutator_C0(a, c) * system.commutator_C0(b, c)
        assert system.commutator_C(a, b) * system.commutator_C(b, a) == one
        assert system.commutator_C(system.nu(a), system.nu(b)) == system.commutator_C(a, b)
        assert system.commutator_C0(system.nu(a), system.nu(b)) == system.commutator_C0(a, b)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_c_vanishes_on_diagonal_50_samples(system):
    rng = random.Random(7)
    one = system.field.one()
    for _ in range(50):
        a = rand_vec(system, rng, -5, 5)
        assert system.commutator_C(a, a) == one


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_degree_zero_sublattice(system):
    gens = system.n_generators()
    kernel = system.kernel_basis()
    assert hermite_rows(gens) == hermite_rows(kernel)
    one = system.field.one()
    for a in gens:
        for b in gens:
            assert system.commutator_C(a, b) == one


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_ext_group_axioms(system):
    rng = random.Random(3)
    for section in (SECTION_PLAIN, SECTION_TWISTED):
        ident = system.ext_from_base((0,) * system.L.rank, section)
        for _ in range(15):
            a = system.ext_from_base(rand_vec(system, rng), section,
                                     rng.randrange(system.phase_order))
            b = system.ext_from_base(rand_vec(system, rng), section,
                                     rng.randrange(system.phase_order))
            c = system.ext_from_base(rand_vec(system, rng), section,
                                     rng.randrange(system.phase_order))
            assert system.ext_mul(a, system.ext_inv(a)) == ident
            assert system.ext_mul(system.ext_inv(a), a) == ident
            assert system.ext_mul(system.ext_mul(a, b), c) == system.ext_mul(a, system.ext_mul(b, c))


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_ext_commutators_realize_maps(system):
    rank = system.L.rank
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for bi in basis:
        for bj in basis:
            a0 = system.ext_from_base(bi, SECTION_PLAIN)
            b0 = system.ext_from_base(bj, SECTION_PLAIN)
            assert system.ext_commutator(a0, b0) == system.commutator_C0(bi, bj)
            at = system.ext_from_base(bi, SECTION_TWISTED)
            bt = system.ext_from_base(bj, SECTION_TWISTED)
            assert system.ext_commutator(at, bt) == system.commutator_C(bi, bj)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_two_products_differ_by_identification_scalar(system):
    rng = random.Random(23)
    for _ in range(20):
        a, b = rand_vec(system, rng), rand_vec(system, rng)
        plain = system.ext_mul(system.ext_from_base(a, SECTION_PLAIN),
                               system.ext_from_base(b, SECTION_PLAIN))
        twisted = system.ext_mul(system.ext_from_base(a, SECTION_TWISTED),
                                 system.ext_from_base(b, SECTION_TWISTED))
        assert (system.eta0_pow(plain.phase - twisted.phase)
                == system.eta0_pow(system.ident_scalar_exponent(a, b)))


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_lift_properties(system):
    rng = random.Random(5)
    rank = system.L.rank
    for section in (SECTION_PLAIN, SECTION_TWISTED):
        # order k on every basis element
        for i in range(rank):
            base = tuple(int(i == j) for j in range(rank))
            e = system.ext_from_base(base, section)
            assert system.nu_hat(e, system.k) == e
        for _ in range(15):
            a = system.ext_from_base(rand_vec(system, rng), section,
                                     rng.randrange(system.phase_order))
            na = system.nu_hat(a)
            assert na.base == system.nu(a.base)
            # fixes the center
            central = CentralElem((0,) * rank, a.phase, section)
            assert system.nu_hat(central) == central
            # homomorphism
            b = system.ext_from_base(rand_vec(system, rng), section)
            assert (system.nu_hat(system.ext_mul(a, b))
                    == system.ext_mul(system.nu_hat(a), system.nu_hat(b)))
        # fixes every element over the diagonal
        for _ in range(10):
            kv = tuple(rng.randint(-3, 3) for _ in range(system.d))
            e = system.ext_from_base(system.diag_embed(kv), section, phase=1)
            assert system.nu_hat(e) == e


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.K.name}k{s.k}")
def test_tau_character(system):
    rng = random.Random(29)
    ident = system.ext_from_base((0,) * system.L.rank, SECTION_TWISTED)
    eta0_elem = CentralElem(ident.base, 1, SECTION_TWISTED)
    assert system.tau(eta0_elem) == system.eta0
    assert system.tau(ident) == system.field.one()
    with pytest.raises(ValueError, match="base in N"):
        bad = system.ext_from_base(system.rep_vector((1,) + (0,) * (system.d - 1)),
                                   SECTION_TWISTED)
        system.tau(bad)
    for _ in range(20):
        g = rand_vec(system, rng)
        eg = system.ext_from_base(g, SECTION_TWISTED, rng.randrange(system.phase_order))
        w = system.ext_mul(eg, system.ext_inv(system.nu_hat(eg)))
        t = system.tot(g)
        assert system.tau(w) == system.eta_pow(-(system.K.inner(t, t) // 2))
    # multiplicativity on the degree-zero subgroup
    for _ in range(20):
        g1, g2 = rand_vec(system, rng), rand_vec(system, rng)
        ws = []
        for g in (g1, g2):
            eg = system.ext_from_base(g, SECTION_TWISTED)
            ws.append(system.ext_mul(eg, system.ext_inv(system.nu_hat(eg))))
        w12 = system.ext_mul(ws[0], ws[1])
        assert system.tau(w12) == system.tau(ws[0]) * system.tau(ws[1])


def test_section_mismatch_rejected():
    s = TwistSystem(A1, 2)
    a = s.ext_from_base((1, 0), SECTION_PLAIN)
    b = s.ext_from_base((0, 1), SECTION_TWISTED)
    with pytest.raises(ValueError, match="section mismatch"):
        s.ext_mul(a, b)


def test_sigma_examples():
    assert TwistSystem(A1, 1).sigma((1,)) == 1
    s = TwistSystem(A1, 2)
    assert s.sigma((1, 0)) == 1
    assert s.sigma((1, 1)) == 4
    s3 = TwistSystem(A1, 3)
    rng = random.Random(1)
    for _ in range(10):
        a = rand_vec(s3, rng)
        assert s3.sigma(s3.nu(a)) == s3.sigma(a)
