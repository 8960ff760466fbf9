"""The coefficient engines keep nothing on a `TwistSystem`.

The c_{mnr} depend only on (k, r, degree) and the a_j only on (k, J), so
both are memoized on those ints.  After the engines run, a system holds
what its constructor set plus the sector descriptors that `Sector.of`
keeps in `_sectors`.  The vertex-operator families keep their prepared
operators inside those descriptors, so they add nothing else either."""

from permtwist.cocycle import TwistSystem
from permtwist.coeffs import c_coeffs, ef_apply, ef_inverse_apply, exp_delta_apply
from permtwist.fock import Sector, ground_state, omega_state, slot_state, weight_basis
from permtwist.isomap import f_apply
from permtwist.lattice import Lattice
from permtwist.vertexops import base_module_mode, spacetime_twisted_mode, worldsheet_twisted_mode

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


def test_coefficient_engines_set_no_attribute_on_the_system():
    system = TwistSystem(A2, 3)
    built = set(vars(system))
    for r in range(3):
        assert c_coeffs(system, r, 4)
    assert len(exp_delta_apply(system, omega_state(system, "L"))) == 2
    for v in (omega_state(system, "K"), ground_state(system, "K", (1, 0))):
        assert ef_apply(system, v) and ef_inverse_apply(system, v)
    v = slot_state(system, ground_state(system, "K", (1, -1)), 1)
    assert exp_delta_apply(system, v) == {0: v}
    assert set(vars(system)) - built == {"_sectors"}


def test_vertex_operators_keep_their_operators_in_the_sectors():
    system = TwistSystem(A2, 3)
    built = set(vars(system))
    v = weight_basis(system, "T", 1)[-1]
    omega = omega_state(system, "L")
    assert not spacetime_twisted_mode(system, omega, 0, v).is_zero()
    assert not worldsheet_twisted_mode(system, omega, 0, f_apply(system, v)).is_zero()
    assert not base_module_mode(system, omega_state(system, "K"), 1, v).is_zero()
    assert set(vars(system)) - built == {"_sectors"}
    # one operator per family, and the worldsheet side's window plan
    assert len(Sector.of(system, "T").prepared) == 4


def test_c_series_is_shared_by_systems_of_one_k():
    assert c_coeffs(TwistSystem(A1, 3), 1, 4) is c_coeffs(TwistSystem(A2, 3), 4, 4)
    assert c_coeffs(TwistSystem(A1, 2), 1, 4) is not c_coeffs(TwistSystem(A1, 3), 1, 4)
