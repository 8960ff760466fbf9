"""Acceptance suite: every criterion at its stated (zero) tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
All comparisons are exact rational/cyclotomic equalities.
"""

import random
from fractions import Fraction

import pytest

import fock_reference as reference
from permtwist.characters import char_twisted, compare_thm41, twisted_lead_exponent
from permtwist.cocycle import SECTION_PLAIN, SECTION_TWISTED, TwistSystem
from permtwist.coeffs import (a_coeffs, c110_closed_form, c_coeffs,
                              ef_inverse_apply, exp_delta_apply,
                              rational_binomial, substitute_flow)
from permtwist.exact import lemma_root_sum
from permtwist.fock import (StateVector, apply_vector_mode, omega_state, twisted_L0,
                            twisted_state_counts, twisted_vacuum_weight,
                            vacuum, virasoro_L, weight_basis)
from permtwist.isomap import (default_mode_set, generator_family,
                              intertwine_generators)
from permtwist.lattice import Lattice, hermite_rows
from permtwist.vertexops import base_module_mode

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


def _report(num: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_root_sum():
    ok = all(lemma_root_sum(m).as_rational() == Fraction(-(m * m - 1), 12)
             for m in range(1, 25))
    _report(1, "root-of-unity sum equals -(m^2-1)/12 for m = 1..24", ok)


def test_criterion_02_c110_both_routes():
    ok = True
    for k in (2, 3, 4, 6):
        system = TwistSystem(A1, k)
        series_val = c_coeffs(system, 0, 2).get((1, 1), system.field.zero())
        closed = c110_closed_form(system)
        expected = Fraction(k * k - 1, 24 * k * k)
        ok &= series_val.is_rational() and series_val.as_rational() == expected
        ok &= closed == expected
    _report(2, "c110 = (k^2-1)/24k^2 by series extraction and closed form, k in {2,3,4,6}", ok)


def test_criterion_03_flow_coefficients():
    ok = True
    for k in (2, 3, 4, 6):
        avals = a_coeffs(k, 9)
        ok &= avals[0] == Fraction(1 - k, 2)
        ok &= avals[1] == Fraction(k * k - 1, 12)
        flow = substitute_flow(avals, 10)
        target = [Fraction(0)] + [rational_binomial(k, t) / k for t in range(1, 11)]
        ok &= flow[:10] == target[:10]
    _report(3, "a1 = (1-k)/2, a2 = (k^2-1)/12, round-trip through degree 9", ok)


def test_criterion_04_exp_delta_on_omega():
    ok = True
    for K in (A1, A2):
        for k in (2, 3):
            system = TwistSystem(K, k)
            om = omega_state(system, "L")
            out = exp_delta_apply(system, om)
            c110 = Fraction(k * k - 1, 24 * k * k)
            ok &= out.get(0) == om
            ok &= out.get(-2) == vacuum(system, "L").scaled(c110 * k * K.rank)
            ok &= len(out) == 2
    # the quadratic formula on sampled pairs
    rng = random.Random(64)
    for K, k in ((A1, 2), (A2, 3)):
        system = TwistSystem(K, k)
        rank = system.L.rank
        for _ in range(3):
            alpha = tuple(rng.randint(-2, 2) for _ in range(rank))
            beta = tuple(rng.randint(-2, 2) for _ in range(rank))
            st = apply_vector_mode(system, -1, alpha,
                                   apply_vector_mode(system, -1, beta,
                                                     vacuum(system, "L")))
            out = exp_delta_apply(system, st)
            c11 = [c_coeffs(system, r, 2).get((1, 1), system.field.zero()) for r in range(k)]
            total = c11[0] * (2 * system.L.inner(alpha, beta))
            for r in range(1, k):
                for s_res in range(k):
                    pa = reference.eigenprojection(system, alpha, s_res)
                    pb = reference.eigenprojection(system, beta, -s_res)
                    total = total + c11[r] * (system.eta_pow(r * s_res)
                                              + system.eta_pow(-r * s_res)
                                              ) * system.L.inner(pa, pb)
            ok &= out.get(-2, StateVector(system, "L")) == vacuum(system, "L").scaled(total)
    _report(4, "exp(Delta) omega = omega + c110 kd x^-2 and the quadratic formula", ok)


def test_criterion_05_ef_inverse_on_omega():
    ok = True
    for K in (A1, A2):
        for k in (2, 3):
            system = TwistSystem(K, k)
            d = K.rank
            out = ef_inverse_apply(system, omega_state(system, "K"))  # keys t: x^{t/k}
            ok &= out.get(2 * k - 2) == omega_state(system, "K").scaled(k * k)
            ok &= out.get(-2) == vacuum(system, "K").scaled(
                Fraction(-(k * k - 1) * d, 24))
            ok &= len(out) == 2
    _report(5, "inverse change-of-variables on the conformal vector", ok)


def test_criterion_06_vacuum_weight_and_triangle_sum():
    ok = True
    for K in (A1, A2):
        for k in (2, 3, 4):
            system = TwistSystem(K, k)
            expected = Fraction((k * k - 1) * K.rank, 24 * k)
            ok &= twisted_vacuum_weight(system) == expected
            ok &= twisted_L0(system, vacuum(system, "T")) == vacuum(system, "T").scaled(expected)
    for k in range(1, 13):
        ok &= sum(j * (k - j) for j in range(1, k)) == Fraction(k * (k * k - 1), 6)
    _report(6, "twisted vacuum weight (k^2-1)d/24k and the triangle-sum identity", ok)


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_07_l0_comparison(k):
    system = TwistSystem(A1, k)
    shift = Fraction((k * k - 1) * 1, 24)
    ok = True
    for v in weight_basis(system, "T", 2):
        lhs = base_module_mode(system, omega_state(system, "K"), 1, v)
        rhs = twisted_L0(system, v).scaled(k) - v.scaled(shift)
        ok &= lhs == rhs
    _report(7, f"transported degree operator = k L0 - (k^2-1)d/24 on A1, k={k}", ok)


def test_criterion_08_character_identity():
    ok = True
    for K, k in ((A1, 2), (A1, 3), (A2, 2)):
        reports = compare_thm41(K, k, Fraction(10))
        ok &= bool(reports) and all(r.passed for r in reports)
        ok &= sum(1 for r in reports if "coset" in r.check_id) == len(K.dual_coset_reps()) - 1
    _report(8, "twisted character under q -> q^k equals the base character; cosets excluded", ok)


def test_criterion_09_state_count_oracle():
    ok = True
    for K, k in ((A1, 2), (A1, 3), (A2, 2)):
        system = TwistSystem(K, k)
        counts = twisted_state_counts(system, 3)
        series = char_twisted(K, k, Fraction(7, 2))
        lead = twisted_lead_exponent(K, k)
        w = Fraction(0)
        while w <= 3:
            ok &= series.coefficient(lead + w) == counts.get(w, 0)
            w += Fraction(1, 2 * k)
    _report(9, "twisted-state enumeration matches the character coefficients to weight 3", ok)


def test_criterion_10_cocycle_layer():
    rng = random.Random(1010)
    ok = True
    for K, k in ((A1, 2), (A1, 3), (A2, 2)):
        system = TwistSystem(K, k)
        rank = system.L.rank
        one = system.field.one()
        for _ in range(50):
            a = tuple(rng.randint(-5, 5) for _ in range(rank))
            ok &= system.commutator_C(a, a) == one
        gens = system.n_generators()
        for a in gens:
            for b in gens:
                ok &= system.commutator_C(a, b) == one
        ok &= hermite_rows(gens) == hermite_rows(system.kernel_basis())
        basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        for b in basis:
            e = system.ext_from_base(b, SECTION_TWISTED)
            ok &= system.nu_hat(e, k) == e
        for bi in basis:
            for bj in basis:
                a0 = system.ext_from_base(bi, SECTION_PLAIN)
                b0 = system.ext_from_base(bj, SECTION_PLAIN)
                ok &= system.ext_commutator(a0, b0) == system.commutator_C0(bi, bj)
                at = system.ext_from_base(bi, SECTION_TWISTED)
                bt = system.ext_from_base(bj, SECTION_TWISTED)
                ok &= system.ext_commutator(at, bt) == system.commutator_C(bi, bj)
    _report(10, "commutator maps, degree-zero sublattice, lift order, section commutators", ok)


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_11_intertwining(k):
    system = TwistSystem(A1, k)
    basis = weight_basis(system, "T", 2)
    modes = default_mode_set(system, 2)
    reports = intertwine_generators(system, basis, modes)
    failed = [r.witness for r in reports if not r.passed]
    ok = len(reports) == len(generator_family(system)) and not failed
    first = failed[0] if failed else ""
    _report(11, f"intertwining of the two twisted actions through F on A1, k={k} {first}", ok)


def test_criterion_12_virasoro_bracket():
    system = TwistSystem(A1, 2)
    d = 1
    basis = weight_basis(system, "K", 3)
    ok = True
    for m in range(-2, 3):
        for n in range(-2, 3):
            for v in basis:
                lhs = (virasoro_L(system, m, virasoro_L(system, n, v))
                       - virasoro_L(system, n, virasoro_L(system, m, v)))
                rhs = virasoro_L(system, m + n, v).scaled(m - n)
                if m + n == 0:
                    rhs = rhs + v.scaled(Fraction((m ** 3 - m) * d, 12))
                ok &= lhs == rhs
    _report(12, "Virasoro bracket with central charge d on the base space", ok)
