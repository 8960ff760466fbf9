"""Property tests for the Fock mode actions in all three sectors.

The Heisenberg commutator [b_i(m), b_j(n)] v = m <b_i, b_j>_sector
delta_{m+n,0} v is checked against the pairing that `fock_reference` writes
from the Gram matrices, so a wrong pairing or grid step in the sector
descriptor fails here.  States are drawn from the weight bases of A1 and A2
at k = 2 and 3, modes from each sector's grid, zero included.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import fock_reference as reference
from permtwist.cocycle import TwistSystem
from permtwist.fock import apply_mode, weight_basis
from permtwist.lattice import Lattice

LATTICES = {"A1": Lattice([[2]], "A1"), "A2": Lattice([[2, 1], [1, 2]], "A2")}
CUTOFF = {"K": 2, "L": 1, "T": Fraction(3, 2)}


@lru_cache(maxsize=None)
def _system(name, k):
    return TwistSystem(LATTICES[name], k)


@lru_cache(maxsize=None)
def _basis(name, k, sector):
    return weight_basis(_system(name, k), sector, CUTOFF[sector])


@st.composite
def _setting(draw):
    """A system, a sector, two basis states, two colours and two grid modes,
    the second often the negative of the first."""
    name = draw(st.sampled_from(sorted(LATTICES)))
    k = draw(st.sampled_from([2, 3]))
    sector = draw(st.sampled_from(["K", "L", "T"]))
    system = _system(name, k)
    basis = _basis(name, k, sector)
    v, w = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2))
    rank = system.L.rank if sector == "L" else system.d
    i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2))
    denom = k if sector == "T" else 1
    grid = st.integers(-2 * denom, 2 * denom).map(lambda t: Fraction(t, denom))
    m = draw(grid)
    n = draw(st.one_of(st.just(-m), grid))
    return system, sector, v, w, i, j, m, n


@settings(deadline=None, max_examples=150)
@given(_setting())
def test_mode_commutator(data):
    system, sector, v, _, i, j, m, n = data
    bracket = (apply_mode(system, m, i, apply_mode(system, n, j, v))
               - apply_mode(system, n, j, apply_mode(system, m, i, v)))
    scalar = m * reference.pairing(system, sector, i, j) if m + n == 0 else 0
    assert bracket == v.scaled(scalar)


@settings(deadline=None, max_examples=150)
@given(_setting(), st.integers(0, 5), st.fractions(-3, 3, max_denominator=4))
def test_mode_action_is_linear(data, power, rational):
    system, _, v, w, i, _, m, _ = data
    a, b = system.eta_pow(power), system.field.from_rat(rational)
    lhs = apply_mode(system, m, i, v.scaled(a) + w.scaled(b))
    rhs = apply_mode(system, m, i, v).scaled(a) + apply_mode(system, m, i, w).scaled(b)
    assert lhs == rhs
    assert lhs == reference.apply_mode(system, m, i, v.scaled(a) + w.scaled(b))
