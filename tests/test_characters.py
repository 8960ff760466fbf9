"""Exact q-series: eta, theta, graded dimensions, the character identity."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permtwist.characters import (FracQSeries, char_coset, char_cycle_type,
                                  char_twisted, char_voa, compare_thm41,
                                  eta_power, theta_series,
                                  twisted_lead_exponent)
from permtwist.cli import parse_lattice_file
from permtwist.cocycle import TwistSystem
from permtwist.fock import twisted_state_counts
from permtwist.lattice import Lattice

import characters_reference as ref

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")
D4 = Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], "D4")
E8 = parse_lattice_file(str(Path(__file__).resolve().parent.parent / "lattices" / "e8.lat"))


def test_eta_power_examples():
    e1 = eta_power(1, 3)
    assert e1.leading_exponent() == Fraction(1, 24)
    assert e1.coefficient(Fraction(1, 24)) == 1
    assert e1.coefficient(Fraction(25, 24)) == -1
    assert e1.coefficient(Fraction(49, 24)) == -1
    assert eta_power(0, 2).coefficient(0) == 1
    assert eta_power(24, 2).leading_exponent() == 1


def test_eta_product_euler_oracle():
    # multiply the first few (1 - q^n) factors by hand
    order = Fraction(5)
    poly = {Fraction(0): Fraction(1)}
    for n in range(1, 7):
        nxt = dict(poly)
        for e, c in poly.items():
            key = e + n
            if key <= order:
                nxt[key] = nxt.get(key, Fraction(0)) - c
        poly = nxt
    series = eta_power(1, order + Fraction(1, 24))
    for e, c in poly.items():
        assert series.coefficient(e + Fraction(1, 24)) == c


def test_theta_examples():
    t = theta_series(A1, 4)
    assert t.coefficient(0) == 1
    assert t.coefficient(1) == 2
    assert t.coefficient(4) == 2
    assert t.coefficient(2) == 0
    assert theta_series(A1, 4, shift=(Fraction(0),)) == t
    ts = theta_series(A1, 4, shift=(Fraction(1, 2),))
    assert ts.leading_exponent() == Fraction(1, 4)
    assert all((e - Fraction(1, 4)).denominator == 1 for e, _ in ts.items())
    with pytest.raises(ValueError, match="dual"):
        theta_series(A1, 2, shift=(Fraction(1, 3),))
    with pytest.raises(ValueError, match="shift has length 1, lattice rank 2"):
        theta_series(A2, 2, shift=(1,))


def test_theta_refuses_a_norm_off_its_grid(monkeypatch):
    monkeypatch.setattr(Lattice, "norm_counts", lambda self, bound, center: {Fraction(1, 3): 1})
    with pytest.raises(ValueError, match="off the 1/2 grid"):
        theta_series(A1, 4)


def test_e8_fixture_is_unimodular_with_240_roots():
    assert E8.rank == 8 and E8.det == 1
    roots = [v for v in E8.enumerate_up_to_norm(1) if any(v)]
    assert len(roots) == 240
    assert all(E8.inner(v, v) == 2 for v in roots)


def test_e8_theta_is_the_weight_4_eisenstein_series():
    # theta_E8 = E_4 = 1 + 240 sum_n sigma_3(n) q^n
    def sigma3(n):
        return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
    want = FracQSeries(2, {0: 1, **{2 * n: 240 * sigma3(n) for n in range(1, 7)}}, 6)
    got = theta_series(E8, 6)
    assert got.denom == want.denom and got.order == want.order
    assert got.coeffs == want.coeffs


def test_series_algebra():
    rng = random.Random(9)
    def rand_series():
        denom = rng.choice([2, 24, 48])
        coeffs = {rng.randint(0, 20): Fraction(rng.randint(-3, 3))
                  for _ in range(6)}
        coeffs[0] = Fraction(rng.choice([1, -1]))  # unit leading coefficient
        return FracQSeries(denom, coeffs, Fraction(30))
    one = FracQSeries(1, {0: 1}, Fraction(5))
    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b) * c == a * (b * c)
        inv = a.inverse()
        prod = a * inv
        lim = min(prod.order, Fraction(5))
        assert prod.truncated(lim) == one.truncated(lim)


def test_char_voa_a1():
    cv = char_voa(A1, 5)
    lead = Fraction(-1, 24)
    assert cv.leading_exponent() == lead
    assert cv.coefficient(lead) == 1
    assert cv.coefficient(lead + 1) == 3
    assert cv.coefficient(lead + 2) == 4
    assert all((e - lead).denominator == 1 for e, _ in cv.items())


def test_char_twisted_leading_exponent_and_reduction():
    ct = char_twisted(A1, 2, 3)
    assert ct.leading_exponent() == Fraction(-1, 48) == twisted_lead_exponent(A1, 2)
    assert char_twisted(A1, 1, 5) == char_voa(A1, 5)


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 2)])
def test_twisted_coefficients_count_states(K, k):
    # acceptance oracle: brute-force state enumeration against the series
    system = TwistSystem(K, k)
    counts = twisted_state_counts(system, 3)
    series = char_twisted(K, k, Fraction(7, 2))
    lead = twisted_lead_exponent(K, k)
    step = Fraction(1, 2 * k)
    w = Fraction(0)
    while w <= 3:
        assert series.coefficient(lead + w) == counts.get(w, 0), (w,)
        w += step
    for _, c in series.items():
        assert c == int(c) and c >= 0


@pytest.mark.parametrize("K,k,order", [(A1, 2, 10), (A1, 3, 8), (A2, 2, 6)])
def test_character_identity(K, k, order):
    reports = compare_thm41(K, k, order)
    assert reports and all(r.passed for r in reports)


def test_coset_leading_exponent_matches_min_norm():
    for K in (A1, A2):
        base_lead = Fraction(-K.rank, 24)
        for beta in K.dual_coset_reps():
            if not any(beta):
                continue
            cs = char_coset(K, beta, 3)
            # smallest norm in the shifted coset
            best = None
            for alpha in K.enumerate_up_to_norm(8):
                vec = tuple(a + b for a, b in zip(alpha, beta))
                norm = K.inner(vec, vec)
                best = norm if best is None else min(best, norm)
            assert cs.leading_exponent() == base_lead + Fraction(best, 2)
            assert cs.leading_exponent() != base_lead


def test_coset_character_below_its_leading_exponent_vanishes():
    # the A1 coset starts at q^(5/24): truncated below it the series is empty
    beta = next(b for b in A1.dual_coset_reps() if any(b))
    cs = char_coset(A1, beta, Fraction(1, 5))
    assert not cs.coeffs and cs.order == Fraction(1, 5)
    reports = compare_thm41(A1, 2, Fraction(1, 5))
    assert len(reports) == 2 and all(r.passed for r in reports)


def test_cycle_type_products():
    full = char_cycle_type(A1, (1, 1), 6)
    square = char_voa(A1, 6) * char_voa(A1, 6)
    common = min(full.order, square.order)
    assert full.truncated(common) == square.truncated(common)
    assert char_cycle_type(A1, (2,), 4) == char_twisted(A1, 2, 4)
    mixed = char_cycle_type(A1, (2, 1), 4)
    assert mixed.leading_exponent() == Fraction(-1, 48) + Fraction(-1, 24)


def test_substitution_and_truncation_bookkeeping():
    ct = char_twisted(A1, 2, 5)
    sub = ct.substitute_power(2)
    assert sub.order == 10
    assert sub.leading_exponent() == Fraction(-1, 24)
    with pytest.raises(ValueError, match="beyond truncation"):
        ct.coefficient(6)
    with pytest.raises(ValueError, match="cannot extend"):
        ct.truncated(7)


def _same_series(got, want):
    """Same denominator scale, order and coefficients, exponent by exponent."""
    assert (got.denom, got.order) == (want.denom, want.order)
    assert got.items() == want.items()


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_eta_powers_match_the_product_form(d):
    # through q^30: eta^d by its binomial factors, eta^-d by the Fraction inverse
    order = Fraction(30)
    _same_series(eta_power(d, order), ref.eta_power(d, order))
    _same_series(eta_power(-d, order), ref.eta_power(d, order + Fraction(d, 12)).inverse())
    _same_series(eta_power(d, order + Fraction(d, 12)).inverse(), eta_power(-d, order))


@pytest.mark.parametrize("K,order", [(A1, 6), (A2, 4), (D4, 2)], ids=["A1", "A2", "D4"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_char_twisted_matches_reference(K, order, k):
    _same_series(char_twisted(K, k, order), ref.char_twisted(K, k, order))


@pytest.mark.parametrize("K", [A1, A2, D4], ids=["A1", "A2", "D4"])
def test_char_coset_matches_reference_on_every_dual_coset(K):
    reps = K.dual_coset_reps()
    assert len(reps) == K.det
    for beta in reps:
        _same_series(char_coset(K, beta, 3), ref.char_coset(K, beta, 3))
        _same_series(theta_series(K, 3, shift=beta), ref.theta_series(K, 3, shift=beta))


def test_series_refuse_float_coefficients():
    with pytest.raises(TypeError, match="ints or Fractions"):
        FracQSeries(1, {0: 1.0}, 2)
    with pytest.raises(TypeError):
        FracQSeries(1, {0: 1, 1: 0.0}, 2)


def test_inverse_keeps_unit_lead_series_integral():
    rng = random.Random(3)
    for lead in (1, -1):
        coeffs = {rng.randint(1, 30): rng.randint(-4, 4) for _ in range(8)}
        coeffs[0] = lead
        series = FracQSeries(24, coeffs, Fraction(3))
        inv = series.inverse()
        assert inv.coeffs and all(type(c) is int for c in inv.coeffs.values())
        assert (series * inv).truncated(2) == FracQSeries(1, {0: 1}, 2)
    for series in (eta_power(3, 5), eta_power(1, 4, k_scale=3)):
        assert all(type(c) is int for c in series.inverse().coeffs.values())


def test_inverse_of_a_non_unit_lead_is_exact_fractions():
    series = FracQSeries(1, {0: 2, 1: 1}, 6)   # 2 + q
    inv = series.inverse()
    assert all(type(c) is Fraction for c in inv.coeffs.values())
    assert inv.items() == [(Fraction(n), Fraction((-1) ** n, 2 ** (n + 1)))
                           for n in range(7)]
    assert (series * inv) == FracQSeries(1, {0: 1}, 6)


def test_characters_hold_only_ints():
    beta = next(b for b in A2.dual_coset_reps() if any(b))
    results = [char_twisted(A2, 3, 3), char_voa(A2, 3), char_coset(A2, beta, 3),
               char_cycle_type(A1, (3, 2, 1), 2), theta_series(A2, 3, shift=beta),
               eta_power(-2, 3, k_scale=2), char_twisted(A1, 2, 3).substitute_power(2)]
    for series in results:
        assert series.coeffs
        assert all(type(c) is int for c in series.coeffs.values()), series


def test_inverse_of_a_zero_series_is_refused():
    # empty, and emptied because its one term lies above the order
    for series in (FracQSeries(1, {}, 3), FracQSeries(24, {30: 1}, 1)):
        with pytest.raises(ValueError, match="^zero series has no inverse$"):
            series.inverse()


def test_internal_results_keep_the_constructor_invariant():
    # no zero coefficient and no exponent above the order, at edge orders
    beta = next(b for b in A1.dual_coset_reps() if any(b))
    empty = FracQSeries(24, {}, 2)
    twisted = char_twisted(A1, 2, 3)
    results = [
        eta_power(1, Fraction(1, 48)), eta_power(2, Fraction(1, 24)),
        eta_power(-1, Fraction(-1, 12)), eta_power(0, Fraction(-1, 2)),
        eta_power(1, Fraction(1, 24)), eta_power(0, 3), eta_power(-3, 4, k_scale=2),
        char_coset(A1, beta, Fraction(1, 5)), char_coset(A2, None, Fraction(-1, 12)),
        twisted.truncated(Fraction(-1, 24)), twisted.truncated(Fraction(-1, 48)),
        twisted.substitute_power(3), empty.substitute_power(2), twisted.rescaled(96),
        eta_power(4, 3).inverse(), FracQSeries(1, {0: 2, 1: 1}, 6).inverse(),
        FracQSeries(48, {5: -1}, 2).inverse(), FracQSeries(1, {0: 1, 1: 1, 2: 1}, 6).inverse(),
        twisted * empty, empty * twisted, empty * empty,
        twisted * char_coset(A1, beta, Fraction(1, 5)),
    ]
    for series in results:
        # the same series again, through the public constructor's checks
        rebuilt = FracQSeries(series.denom, series.coeffs, series.order)
        assert (series.denom, series.order, series.coeffs) == \
            (rebuilt.denom, rebuilt.order, rebuilt.coeffs), series
    assert not eta_power(1, Fraction(1, 48)).coeffs
    assert eta_power(1, Fraction(1, 24)).items() == [(Fraction(1, 24), 1)]


_EXPONENT = st.integers(-30, 60)
_COEFF = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)


@st.composite
def _series_parts(draw):
    """(denom, coeffs, order) for a series that may be empty, one term, or
    vanish to its order (every term above it)."""
    denom = draw(st.sampled_from([1, 2, 3, 8, 24, 48]))
    coeffs = draw(st.dictionaries(_EXPONENT, _COEFF, max_size=draw(st.sampled_from([0, 1, 6]))))
    order = draw(st.fractions(-1, 2, max_denominator=48))
    return denom, coeffs, order


@settings(deadline=None, max_examples=300)
@given(_series_parts(), _series_parts())
@example((24, {}, Fraction(1)), (48, {3: 1, 7: -2}, Fraction(1)))
@example((24, {30: 1}, Fraction(1)), (2, {0: 1, 1: 2}, Fraction(3, 2)))
@example((3, {2: 5}, Fraction(2)), (8, {-1: 1}, Fraction(1, 2)))
def test_series_product_matches_reference(left, right):
    got = FracQSeries(*left) * FracQSeries(*right)
    want = ref.RefSeries(*left) * ref.RefSeries(*right)
    _same_series(got, want)
    if got.coeffs:
        _same_series(got.inverse(), want.inverse())
