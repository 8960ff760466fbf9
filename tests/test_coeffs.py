"""The c-series, the flow coefficients, Delta_x and E_f."""

import random
from fractions import Fraction

import pytest

import fock_reference as reference
from permtwist.cocycle import TwistSystem
from permtwist.coeffs import (a_coeffs, c110_closed_form, c_coeffs, ef_apply,
                              ef_inverse_apply, exp_delta_apply, rational_binomial,
                              substitute_flow)
from permtwist.fock import (StateVector, apply_mode, apply_vector_mode, ground_state,
                            omega_state, vacuum, weight_basis)
from permtwist.lattice import Lattice

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_c110_two_routes(k):
    system = TwistSystem(A1, k)
    series = c_coeffs(system, 0, 3)
    expected = Fraction(k * k - 1, 24 * k * k)
    assert series.get((1, 1), system.field.zero()).as_rational() == expected
    assert c110_closed_form(system) == expected
    for r in range(k):
        assert (0, 0) not in c_coeffs(system, r, 3)


def test_c_series_vanishes_for_single_copy():
    system = TwistSystem(A1, 1)
    assert not c_coeffs(system, 0, 8)


@pytest.mark.parametrize("k", range(1, 8))
def test_zero_mode_coefficients_pair_across_residues(k):
    # c_{0nr} = c_{n0,-r} and c_{00r} = 0: Delta_x counts the ground-label
    # terms of one residue twice and reads only the c_{n0r}
    system = TwistSystem(A1, k)
    for r in range(k):
        series, mirror = c_coeffs(system, r, 8), c_coeffs(system, -r, 8)
        assert (0, 0) not in series
        for n in range(1, 9):
            assert ((0, n) in series) == ((n, 0) in mirror)
            assert series.get((0, n)) == mirror.get((n, 0))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_root_power_sum_symmetry(k):
    # sum_s (eta^{rs} + eta^{-rs}) = 0 for r not divisible by k
    system = TwistSystem(A1, k)
    for r in range(1, k):
        total = system.field.zero()
        for s in range(k):
            total = total + system.eta_pow(r * s) + system.eta_pow(-r * s)
        assert total.is_zero()


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_flow_coefficients(k):
    avals = a_coeffs(k, 9)
    assert avals[0] == Fraction(1 - k, 2)
    assert avals[1] == Fraction(k * k - 1, 12)
    got = substitute_flow(avals, 10)
    for t in range(0, 11):
        want = rational_binomial(k, t) / k if t >= 1 else Fraction(0)
        assert got[t] == want, t


def test_flow_coefficients_trivial_twist():
    assert a_coeffs(1, 8) == [Fraction(0)] * 8


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 2), (A2, 3)])
def test_exp_delta_on_conformal_vector(K, k):
    system = TwistSystem(K, k)
    om = omega_state(system, "L")
    out = exp_delta_apply(system, om)
    kd = k * K.rank
    c110 = Fraction(k * k - 1, 24 * k * k)
    assert out.get(0) == om
    assert out.get(-2) == vacuum(system, "L").scaled(c110 * kd)
    assert len(out) == 2


def test_exp_delta_fixes_vacuum_and_currents():
    system = TwistSystem(A1, 2)
    for st in (vacuum(system, "L"),
               apply_mode(system, -1, 0, vacuum(system, "L")),
               ground_state(system, "L", (1, 0))):
        out = exp_delta_apply(system, st)
        assert list(out) == [0]
        assert out.get(0) == st


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 2)])
def test_exp_delta_quadratic_oracle(K, k):
    # independent bracket for alpha(-1)beta(-1)|0>: projections + pairing
    system = TwistSystem(K, k)
    rng = random.Random(K.rank * 10 + k)
    rank = system.L.rank
    field = system.field
    for _ in range(6):
        alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
        beta = tuple(rng.randint(-2, 2) for _ in range(rank))
        st = apply_vector_mode(system, -1, alpha,
                               apply_vector_mode(system, -1, beta, vacuum(system, "L")))
        out = exp_delta_apply(system, st)
        # expected x^{-2} coefficient from the residue sums
        c11 = [c_coeffs(system, r, 2).get((1, 1), field.zero()) for r in range(k)]
        total = c11[0] * (2 * system.L.inner(alpha, beta))
        for r in range(1, k):
            for s_res in range(k):
                pa = reference.eigenprojection(system, alpha, s_res)
                pb = reference.eigenprojection(system, beta, -s_res)
                pairing = system.L.inner(pa, pb)
                total = total + c11[r] * (system.eta_pow(r * s_res)
                                          + system.eta_pow(-r * s_res)) * pairing
        expect = vacuum(system, "L").scaled(total)
        got = out.get(-2, StateVector(system, "L"))
        assert got == expect, (alpha, beta)
        # exponents are nonpositive integers
        for e in out:
            assert e <= 0 and e.denominator == 1


def test_delta_lowers_weight():
    # exp(Delta_x) omega - omega is Delta_x omega plus its powers
    system = TwistSystem(A1, 2)
    om = omega_state(system, "L")
    out = exp_delta_apply(system, om)
    assert out.pop(0) == om
    assert out
    for e, sv in out.items():
        assert e < 0


@pytest.mark.parametrize("k", [2, 3])
def test_ef_examples(k):
    system = TwistSystem(A1, k)
    # identity on the vacuum
    out = ef_apply(system, vacuum(system, "K"))
    assert list(out) == [0]
    assert out.get(0) == vacuum(system, "K")
    # current rescaling; the key t stands for x^{t/k}
    cur = apply_mode(system, -1, 0, vacuum(system, "K"))
    out = ef_apply(system, cur)
    t = 1 - k
    assert list(out) == [t]
    assert out.get(t) == cur.scaled(Fraction(1, k))


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 2), (A2, 3)])
def test_ef_inverse_on_conformal_vector(K, k):
    system = TwistSystem(K, k)
    d = K.rank
    om = omega_state(system, "K")
    out = ef_inverse_apply(system, om)  # the key t stands for x^{t/k}
    assert out.get(2 * k - 2) == om.scaled(k * k)
    assert out.get(-2) == vacuum(system, "K").scaled(Fraction(-(k * k - 1) * d, 24))
    assert len(out) == 2


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3)])
def test_ef_roundtrip_identity(K, k):
    system = TwistSystem(K, k)
    for b in weight_basis(system, "K", 4):
        # E_f^-1 after E_f, then E_f after E_f^-1; int keys compose by adding
        for first, then in ((ef_apply, ef_inverse_apply), (ef_inverse_apply, ef_apply)):
            back = {}
            for e, sv in first(system, b).items():
                for e2, sv2 in then(system, sv).items():
                    back[e + e2] = back[e + e2] + sv2 if e + e2 in back else sv2
            back = {e: sv for e, sv in back.items() if not sv.is_zero()}
            assert list(back) == [0], first
            assert back[0] == b


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 3)])
def test_coefficient_tables_are_keyed_on_ints(K, k):
    # Fraction(-2) == -2, so only the key type tells a Fraction key apart
    system = TwistSystem(K, k)
    tables = []
    for b in weight_basis(system, "K", 2):
        tables += [ef_apply(system, b), ef_inverse_apply(system, b)]
    for u in [omega_state(system, "L")] + weight_basis(system, "L", 2)[:12]:
        tables.append(exp_delta_apply(system, u))
    assert any(len(table) > 1 for table in tables)
    for table in tables:
        assert all(type(e) is int for e in table), table
        assert not any(sv.is_zero() for sv in table.values())
