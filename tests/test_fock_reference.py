"""The accumulating mode actions against the per-piece oracles in fock_reference.

Every weight-basis state of A1 and A2 at k = 1, 2, 3 to a small weight, in
every sector, and one dense combination of them with cyclotomic
coefficients, so that terms of different monomials meet and cancel.  L(j),
the twisted degree operator and exp(Delta_x) are also checked on D4, whose
inverse Gram matrix has no zero entry, and L(j) on level-3 monomials with
repeated modes.  The closed-sum c_{mnr} are checked against the log series they
expand.
"""

from fractions import Fraction

import pytest

import fock_reference as reference
from permtwist.cocycle import TwistSystem
from permtwist.coeffs import c_coeffs, ef_apply, ef_inverse_apply, exp_delta_apply
from permtwist.fock import (Sector, StateVector, apply_mode, apply_vector_mode, ground_state,
                            omega_state, twisted_L0, twisted_vacuum_weight, vacuum,
                            virasoro_L, weight, weight_basis)
from permtwist.isomap import generator_family
from permtwist.lattice import Lattice

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")
D4 = Lattice([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], "D4")

CUTOFF = {"K": 2, "L": 2, "T": 1}


@pytest.fixture(scope="module", params=[(A1, 1), (A1, 2), (A1, 3), (A2, 1), (A2, 2), (A2, 3)],
                ids=lambda p: f"{p[0].name}k{p[1]}")
def system(request):
    lattice, k = request.param
    return TwistSystem(lattice, k)


def _states(system, sector, cutoff=None):
    """The basis to the cutoff, by default the sector's, then a combination
    of all of it."""
    basis = weight_basis(system, sector, CUTOFF[sector] if cutoff is None else cutoff)
    mixed = StateVector(system, sector)
    for t, sv in enumerate(basis):
        mixed = mixed + sv.scaled(system.eta_pow(t) - (t % 3))
    return basis + [mixed]


def _level_three_state(system):
    """A V_L state of level 3 on a nonzero ground state and on the vacuum, so
    that every c_{mnr} with m + n = 3 meets a pair of modes it does not kill."""
    rank = system.L.rank
    ground = ground_state(system, "L", (1,) + (0,) * (rank - 1))
    top = rank - 1
    cube = vacuum(system, "L")
    for i in (top, 0, 0):
        cube = apply_mode(system, -1, i, cube)
    return (apply_mode(system, -1, 0, apply_mode(system, -2, top, ground))
            + apply_mode(system, -3, top, ground).scaled(system.eta_pow(1)) + cube)


def _modes(system, sector):
    """Every mode with |n| <= 2 on the sector's grid."""
    k = system.k if sector == "T" else 1
    return [Fraction(t, k) for t in range(-2 * k, 2 * k + 1)]


def _colours(system, sector):
    return system.L.rank if sector == "L" else system.d


@pytest.mark.parametrize("sector", ["K", "L", "T"])
def test_apply_mode_matches_reference(system, sector):
    for sv in _states(system, sector):
        for n in _modes(system, sector):
            for i in range(_colours(system, sector)):
                assert apply_mode(system, n, i, sv) == reference.apply_mode(system, n, i, sv)


@pytest.mark.parametrize("sector", ["K", "L", "T"])
def test_apply_vector_mode_matches_reference(system, sector):
    rank = _colours(system, sector)
    # a cyclotomic, a rational, a zero and an integer coordinate, cycled
    entries = [system.eta_pow(1), Fraction(-3, 2), 0, 2]
    coords = [entries[t % len(entries)] for t in range(rank)]
    for sv in _states(system, sector):
        for n in _modes(system, sector):
            assert (apply_vector_mode(system, n, coords, sv)
                    == reference.apply_vector_mode(system, n, coords, sv))


@pytest.mark.parametrize("sector", ["K", "L", "T"])
def test_sector_mode_into_matches_reference_at_a_scale(system, sector):
    # the engine's entry point at a scale p/q != 1, on a unit, an int, a
    # Fraction and a Cyc coefficient alone and then together, at creation,
    # lowering and zero modes; in K and L the split comes from
    # Sector.vector, in T it holds the first-block coordinates at every
    # residue as apply_vector_mode reads them
    desc = Sector.of(system, sector)
    rank = _colours(system, sector)
    p, q = -3, 2
    entries = [1, -2, Fraction(1, 2), system.eta_pow(1)]
    vectors = [(c,) + (0,) * (rank - 1) for c in entries]
    vectors.append(tuple(entries[t % len(entries)] for t in range(rank)))
    for coords in vectors:
        if sector == "T":
            vec = (tuple((i, c) for i, c in enumerate(coords) if c != 0),) * desc.den
        else:
            vec = desc.vector(coords)
        for sv in _states(system, sector, 1):
            for n in _modes(system, sector):
                out = {}
                desc.mode_into(desc.grid(n), vec, sv.terms, (p, q), out)
                expect = reference.apply_vector_mode(system, n, coords, sv).scaled(Fraction(p, q))
                assert StateVector(system, sector, out) == expect


def test_virasoro_L_matches_reference(system):
    for sv in _states(system, "K"):
        for j in range(-4, 5):
            assert virasoro_L(system, j, sv) == reference.virasoro_L(system, j, sv)


def test_virasoro_L_matches_reference_on_a_dense_dual_form():
    # every entry of D4's inverse Gram matrix is nonzero, so every pair of
    # colours contracts
    system = TwistSystem(D4, 2)
    assert all(all(row) for row in D4.gram_inverse())
    # weight <= 1 and the level-2 states on the vacuum, then one combination
    # of them all
    level_two = [sv for sv in weight_basis(system, "K", 2) if reference.level(sv) == 2]
    states = weight_basis(system, "K", 1) + level_two
    mixed = StateVector(system, "K")
    for t, sv in enumerate(states):
        mixed = mixed + sv.scaled(system.eta_pow(t) + t)
    for sv in states + [mixed]:
        for j in range(-3, 4):
            assert virasoro_L(system, j, sv) == reference.virasoro_L(system, j, sv)


def test_virasoro_L_matches_reference_on_repeated_modes():
    # level-3 monomials whose modes repeat or pair up under L(j), on the
    # vacuum and on a root
    system = TwistSystem(A2, 3)
    one = Fraction(-1)
    monomials = [((one, 0),) * 3, ((one, 0), (Fraction(-2), 0)), ((one, 0), (Fraction(-2), 1)),
                 ((one, 0), (one, 1), (one, 1)), ((Fraction(-3), 1),)]
    states = [StateVector.monomial(system, "K", modes, ground)
              for modes in monomials for ground in ((0, 0), (1, -1))]
    for sv in states:
        for j in range(-4, 5):
            assert virasoro_L(system, j, sv) == reference.virasoro_L(system, j, sv)


def test_virasoro_L_contracts_each_pair_once():
    # L(2) b(-1)^2 1 = 2 * 1 on A1: the mode b(1) that L(2) makes of the
    # first b(-1) contracts with the second only
    system = TwistSystem(A1, 1)
    square = StateVector.monomial(system, "K", ((-1, 0), (-1, 0)), (0,))
    assert virasoro_L(system, 2, square) == vacuum(system, "K").scaled(2)


@pytest.mark.parametrize("sector", ["K", "L"])
def test_omega_state_matches_reference(system, sector):
    assert omega_state(system, sector) == reference.omega_state(system, sector)


def test_twisted_L0_matches_reference(system):
    for sv in _states(system, "T"):
        assert twisted_L0(system, sv) == reference.twisted_L0(system, sv)


def test_twisted_L0_matches_reference_on_a2_k4():
    # the largest common denominator of the sector's int weights here:
    # det 3 and den^4 = 256
    system = TwistSystem(A2, 4)
    for sv in _states(system, "T"):
        assert twisted_L0(system, sv) == reference.twisted_L0(system, sv)


def test_twisted_L0_matches_reference_on_d4():
    system = TwistSystem(D4, 2)
    for sv in weight_basis(system, "T", twisted_vacuum_weight(system) + 1):
        assert twisted_L0(system, sv) == reference.twisted_L0(system, sv)


@pytest.mark.parametrize("k", range(1, 7))
def test_c_series_matches_log_series_reference(k):
    system = TwistSystem(A1, k)
    for r in range(k):
        for degree in range(7):
            series = c_coeffs(system, r, degree)
            assert series == reference.c_series_reference(k, r, degree)
            assert not any(c.is_zero() for c in series.values())


def test_delta_apply_matches_reference(system):
    # Delta_x is read through its exponential, on every V_L state and not
    # only on the generators
    level_three = _level_three_state(system)
    assert reference.level(level_three) == 3
    for sv in _states(system, "L") + [level_three]:
        assert exp_delta_apply(system, sv) == reference.exp_delta_apply(system, sv)
    # the series degree the state's level sets truncates nothing: the
    # reference with a longer series gives the same exponential
    sv = _states(system, "L")[-1]
    order = 2 * int(reference.level(sv)) + 6
    assert exp_delta_apply(system, sv) == reference.exp_delta_apply(system, sv, order=order)


def test_exp_delta_apply_matches_reference(system):
    for _, u in generator_family(system):
        assert exp_delta_apply(system, u) == reference.exp_delta_apply(system, u)


@pytest.mark.parametrize("k", [2, 3])
def test_exp_delta_apply_matches_reference_on_d4(k):
    # D4's Gram matrix is dense with negative entries; the level-3 state has
    # modes in two slots on a two-slot ground label, so Delta_x pairs modes
    # and ground blocks across every residue r
    system = TwistSystem(D4, k)
    d = system.d
    ground = ground_state(system, "L", (1, 0, 0, 0, 0, -1, 0, 0) + (0,) * (system.L.rank - 2 * d))
    two_slot = (apply_mode(system, -1, 0, apply_mode(system, -2, d + 1, ground))
                + apply_mode(system, -1, d + 3, apply_mode(system, -1, 2, apply_mode(
                    system, -1, d, ground))).scaled(system.eta_pow(1)))
    assert reference.level(two_slot) == 3
    for sv in _states(system, "L", 1) + [two_slot]:
        assert exp_delta_apply(system, sv) == reference.exp_delta_apply(system, sv)


@pytest.mark.parametrize("K,k", [(A1, 2), (A1, 3), (A2, 2), (A2, 3)],
                         ids=lambda p: getattr(p, "name", p))
def test_ef_apply_matches_reference(K, k):
    system = TwistSystem(K, k)
    basis = weight_basis(system, "K", 3)
    # lattice ground states, whose weight exceeds their level, are among them
    assert any(weight(system, sv) > reference.level(sv) for sv in basis)
    for sv in basis:
        assert ef_apply(system, sv) == reference.ef_apply(system, sv)
        assert ef_inverse_apply(system, sv) == reference.ef_inverse_apply(system, sv)
