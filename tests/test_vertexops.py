"""Mode extraction for the untwisted and the two twisted operator families."""

import random
from fractions import Fraction
from math import factorial

import pytest

import extraction_reference as reference
from permtwist import vertexops
from permtwist.cocycle import SECTION_PLAIN, TwistSystem
from permtwist.coeffs import ef_inverse_apply
from permtwist.fock import (Sector, StateVector, apply_mode, apply_twisted_vector_mode,
                            apply_vector_mode, ground_state, nu_hat_state,
                            omega_state, slot_state, twisted_L0, vacuum,
                            virasoro_L, weight_basis)
from permtwist.isomap import default_mode_set, f_apply, generator_family, intertwine_check
from permtwist.lattice import Lattice
from permtwist.vertexops import (base_module_mode, spacetime_series_coefficient,
                                 spacetime_twisted_mode, spacetime_twisted_windows,
                                 untwisted_mode, worldsheet_twisted_mode,
                                 worldsheet_twisted_windows)

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


@pytest.fixture(scope="module")
def sys2():
    return TwistSystem(A1, 2)


@pytest.fixture(scope="module")
def sys3():
    return TwistSystem(A1, 3)


def test_identity_operator(sys2):
    vac = vacuum(sys2, "K")
    for v in weight_basis(sys2, "K", 2):
        for n in range(-3, 3):
            got = untwisted_mode(sys2, vac, n, v)
            assert got == (v if n == -1 else StateVector(sys2, "K"))


def test_creation_axiom(sys2):
    vac = vacuum(sys2, "K")
    for u in weight_basis(sys2, "K", 3):
        assert untwisted_mode(sys2, u, -1, vac) == u
        for n in range(0, 4):
            assert untwisted_mode(sys2, u, n, vac).is_zero()


def test_integrality_requirement(sys2):
    with pytest.raises(ValueError, match="integral"):
        untwisted_mode(sys2, vacuum(sys2, "K"), Fraction(1, 2), vacuum(sys2, "K"))
    with pytest.raises(ValueError, match="sectors"):
        untwisted_mode(sys2, vacuum(sys2, "K"), 0, vacuum(sys2, "L"))


def test_conformal_modes_are_virasoro(sys2):
    om = omega_state(sys2, "K")
    for v in weight_basis(sys2, "K", 2):
        for n in range(-2, 3):
            assert untwisted_mode(sys2, om, n + 1, v) == virasoro_L(sys2, n, v)


def test_lattice_operator_cocycle_phase(sys2):
    # leading mode of the operator over e_alpha applied to e_{-alpha}
    ea = ground_state(sys2, "K", (1,))
    em = ground_state(sys2, "K", (-1,))
    lead = untwisted_mode(sys2, ea, 1, em)  # mode <a,a> - 1 = 1
    phase = sys2.eps_exponent(SECTION_PLAIN, (1,), (-1,))
    assert lead == vacuum(sys2, "K").scaled(sys2.eta0_pow(phase))


def test_lattice_operator_direct_expansion_oracle(sys2):
    # Y(e_a, x) e_b = phase * x^{<a,b>} exp(sum a(-t)/t x^t) e_{a+b}
    def oracle(alpha, betav, n):
        ip = sys2.K.inner(alpha, betav)
        phase = sys2.eta0_pow(sys2.eps_exponent(SECTION_PLAIN, alpha, betav))
        deg = (-n - 1) - ip
        out = StateVector(sys2, "K")
        if deg < 0:
            return out
        def parts(total, mx):
            if total == 0:
                yield ()
                return
            for m in range(min(total, mx), 0, -1):
                for rest in parts(total - m, m):
                    yield (m,) + rest
        ground = ground_state(sys2, "K", tuple(x + y for x, y in zip(alpha, betav)))
        for p in parts(deg, max(deg, 1)):
            coeff = Fraction(1)
            mult = {}
            for m in p:
                mult[m] = mult.get(m, 0) + 1
            for m, c in mult.items():
                coeff /= Fraction(m) ** c * factorial(c)
            piece = ground
            for m in p:
                piece = apply_vector_mode(sys2, -m, alpha, piece)
            out = out + piece.scaled(coeff * phase)
        return out

    for a in [(1,), (-1,)]:
        for b in [(1,), (-1,), (0,)]:
            for n in range(-6, 4):
                got = untwisted_mode(sys2, ground_state(sys2, "K", a), n,
                                     ground_state(sys2, "K", b))
                assert got == oracle(a, b, n), (a, b, n)


def test_translation_derivative_property(sys2):
    # modes of L(-1)u satisfy (L(-1)u)_n = -n u_{n-1}
    targets = weight_basis(sys2, "K", 2)
    for u in weight_basis(sys2, "K", 2):
        lu = virasoro_L(sys2, -1, u)
        for v in targets[:6]:
            for n in range(-3, 4):
                lhs = untwisted_mode(sys2, lu, n, v)
                rhs = untwisted_mode(sys2, u, n - 1, v).scaled(-n)
                assert lhs == rhs


@pytest.mark.parametrize("k", [2, 3])
def test_twisted_current_modes(k):
    system = TwistSystem(A1, k)
    cur = slot_state(system, apply_mode(system, -1, 0, vacuum(system, "K")), 0)
    hvec = system.slot_embed((1,), 0)
    for v in weight_basis(system, "T", 1):
        for num in range(-2 * k, 2 * k + 1):
            n = Fraction(num, k)
            assert (spacetime_twisted_mode(system, cur, n, v)
                    == apply_twisted_vector_mode(system, n, hvec, v))


@pytest.mark.parametrize("k", [2, 3])
def test_twisted_conformal_mode_is_l0(k):
    system = TwistSystem(A1, k)
    om = omega_state(system, "L")
    for v in weight_basis(system, "T", Fraction(3, 2)):
        assert spacetime_twisted_mode(system, om, 1, v) == twisted_L0(system, v)


@pytest.mark.parametrize("k", [2, 3])
def test_twisted_lattice_operator_closed_form(k):
    system = TwistSystem(A1, k)
    alpha = (1,)
    norm = 2
    u = slot_state(system, ground_state(system, "K", alpha), 0)
    hvec = system.slot_embed(alpha, 0)
    vac = vacuum(system, "T")
    base_exp = Fraction((1 - k) * norm, 2 * k)
    pref = Fraction(1, k ** (norm // 2))
    step = Fraction(1, k)
    for num in range(0, 2 * k + 1):
        e = base_exp + Fraction(num, k)
        got = spacetime_series_coefficient(system, u, e, vac)
        want = StateVector(system, "T")
        for parts in reference.creation_partitions(Fraction(num, k), step):
            piece = ground_state(system, "T", alpha).scaled(reference.partition_coeff(parts) * pref)
            for m in parts:
                piece = apply_twisted_vector_mode(system, -m, hvec, piece)
            want = want + piece
        assert got == want, e


@pytest.mark.parametrize("k", [2, 3])
def test_sector_support(k):
    # eigenvectors of the lifted shift only produce modes on their coset
    system = TwistSystem(A1, k)
    cur = slot_state(system, apply_mode(system, -1, 0, vacuum(system, "K")), 0)
    vac_t = vacuum(system, "T")
    targets = weight_basis(system, "T", 1)
    inv_k = Fraction(1, k)
    for j in range(k):
        # u_j = (1/k) sum_t eta^{-jt} nuhat^t u lies in the eta^j eigenspace
        uj = StateVector(system, "L")
        for t in range(k):
            uj = uj + nu_hat_state(system, cur, t).scaled(system.eta_pow(-j * t) * inv_k)
        if uj.is_zero():
            continue
        rotated = nu_hat_state(system, uj, 1)
        assert rotated == uj.scaled(system.eta_pow(j))
        for v in targets:
            for num in range(-2 * k, 2 * k + 1):
                n = Fraction(num, k)
                got = spacetime_twisted_mode(system, uj, n, v)
                if (n - Fraction(j, k)).denominator != 1:
                    assert got.is_zero(), (j, n)


@pytest.mark.parametrize("k", [2, 3])
def test_equivariance_under_the_lift(k):
    # the operator over the shifted state is the formal rotation of the series
    system = TwistSystem(A1, k)
    gens = [slot_state(system, apply_mode(system, -1, 0, vacuum(system, "K")), 0),
            slot_state(system, ground_state(system, "K", (1,)), 0)]
    for u in gens:
        nu_u = nu_hat_state(system, u, 1)
        for v in weight_basis(system, "T", 1):
            for num in range(-k, k + 1):
                n = Fraction(num, k)
                lhs = spacetime_twisted_mode(system, nu_u, n, v)
                rhs = spacetime_twisted_mode(system, u, n, v).scaled(
                    system.eta_pow(num))
                assert lhs == rhs, (n, u)


@pytest.mark.parametrize("k", [2, 3])
def test_worldsheet_current_and_rotation(k):
    system = TwistSystem(A1, k)
    cur = apply_mode(system, -1, 0, vacuum(system, "K"))
    slots = [slot_state(system, cur, p) for p in range(k)]
    targets = weight_basis(system, "K", 2)[:6]
    for num in range(-2 * k, 2 * k + 1):
        n = Fraction(num, k)
        for v in targets:
            base = worldsheet_twisted_mode(system, slots[0], n, v)
            expect0 = apply_vector_mode(system, n * k, (1,), v).scaled(Fraction(1, k))
            assert base == expect0
            for p in range(1, k):
                got = worldsheet_twisted_mode(system, slots[p], n, v)
                assert got == base.scaled(system.eta_pow(-p * num))


def test_worldsheet_identity(sys3):
    vac_l = vacuum(sys3, "L")
    for v in weight_basis(sys3, "K", 2)[:5]:
        for num in range(-3, 4):
            n = Fraction(num, 3)
            got = worldsheet_twisted_mode(sys3, vac_l, n, v)
            assert got == (v if n == -1 else StateVector(sys3, "K"))


@pytest.mark.parametrize("modes", [[0], []], ids=["one-mode", "no-modes"])
def test_windows_check_arguments_on_the_call(sys2, modes):
    # the window functions raise before any window is asked for
    current = slot_state(sys2, apply_mode(sys2, -1, 0, vacuum(sys2, "K")), 0)
    mixed = ground_state(sys2, "L", (1, 1))
    with pytest.raises(ValueError, match="single tensor slot"):
        worldsheet_twisted_windows(sys2, mixed, modes, [vacuum(sys2, "K")])
    with pytest.raises(ValueError, match="acting on V_K"):
        worldsheet_twisted_windows(sys2, current, modes, [vacuum(sys2, "T")])
    with pytest.raises(ValueError, match="twisted sector"):
        spacetime_twisted_windows(sys2, current, modes, [vacuum(sys2, "K")])
    with pytest.raises(ValueError, match="twisted sector"):
        spacetime_twisted_windows(sys2, vacuum(sys2, "K"), modes, [vacuum(sys2, "T")])


def _count_calls(monkeypatch, *names) -> dict:
    """Counts the calls vertexops makes to each coefficient engine in names."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(vertexops, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(vertexops, name, counted(name))
    return calls


def test_empty_windows_compute_no_series(sys2, monkeypatch):
    calls = _count_calls(monkeypatch, "exp_delta_apply", "ef_apply")
    stored = dict(Sector.of(sys2, "T").prepared)
    u = slot_state(sys2, apply_mode(sys2, -1, 0, vacuum(sys2, "K")), 1)
    twisted = weight_basis(sys2, "T", 1)
    base = weight_basis(sys2, "K", 1)
    assert list(spacetime_twisted_windows(sys2, u, [], twisted)) == [{}] * len(twisted)
    assert list(worldsheet_twisted_windows(sys2, u, [], base)) == [{}] * len(base)
    assert calls == {"exp_delta_apply": 0, "ef_apply": 0}
    assert Sector.of(sys2, "T").prepared == stored


def _distinct_slot_states(system, generators) -> set:
    """The distinct V_K slot states of the generators, as frozen terms."""
    return {frozenset(t.items()) for u in generators
            for t in reference.slot_states(system, u).values()}


def test_per_state_calls_prepare_each_operator_once(monkeypatch):
    # a fresh system: the prepared operators live as long as it does
    system = TwistSystem(A1, 3)
    calls = _count_calls(monkeypatch, "exp_delta_apply", "ef_apply", "ef_inverse_apply")
    basis = weight_basis(system, "T", 1)
    modes = default_mode_set(system, 1)
    family = generator_family(system)
    for name, u in family:
        for v in basis:
            assert all(rep.passed for rep in intertwine_check(system, u, v, modes, name))
    # E_f runs once per distinct V_K slot state of the family: b(-1)1, which
    # every slot current holds, omega_K and e^alpha
    assert len(_distinct_slot_states(system, [u for _, u in family])) == 3
    assert calls == {"exp_delta_apply": len(family), "ef_apply": 3, "ef_inverse_apply": 0}
    for v in basis:
        base_module_mode(system, omega_state(system, "K"), 1, v)
    assert calls["ef_inverse_apply"] == 1
    # a state rebuilt with equal terms reuses the prepared operator
    before = dict(calls)
    omega, omega_k, v = omega_state(system, "L"), omega_state(system, "K"), basis[-1]
    assert all(rep.passed for rep in intertwine_check(system, omega, v, modes))
    base_module_mode(system, omega_k, 1, v)
    assert calls == before
    # twice the state is another operator
    fv = f_apply(system, v)
    for n in modes:
        assert (spacetime_twisted_mode(system, omega.scaled(2), n, v)
                == spacetime_twisted_mode(system, omega, n, v).scaled(2))
        assert (worldsheet_twisted_mode(system, omega.scaled(2), n, fv)
                == worldsheet_twisted_mode(system, omega, n, fv).scaled(2))
    assert calls == dict(before, exp_delta_apply=before["exp_delta_apply"] + 1,
                         ef_apply=before["ef_apply"] + 1)
    assert (base_module_mode(system, omega_k.scaled(2), 1, v)
            == base_module_mode(system, omega_k, 1, v).scaled(2))
    assert calls["ef_inverse_apply"] == 2


@pytest.mark.parametrize("K, k", [pytest.param(A1, 2, id="A1-2"),
                                  pytest.param(A2, 3, id="A2-3")])
def test_prepared_operators_stay_with_their_family_and_state(K, k):
    # every family on every generator, in a shuffled order on one shared
    # system, against the same call on a fresh system
    shared = TwistSystem(K, k)
    generators = [u for _, u in generator_family(shared)]
    generators.append(generators[0].scaled(2))
    base_generators = [omega_state(shared, "K"), apply_mode(shared, -1, 0, vacuum(shared, "K")),
                       ground_state(shared, "K", (1,) + (0,) * (K.rank - 1))]
    base_generators.append(base_generators[0].scaled(2))
    states = weight_basis(shared, "T", 1)[:4]
    modes = default_mode_set(shared, Fraction(1, 2))
    calls = [(spacetime_twisted_mode, u, n, v)
             for u in generators for n in modes for v in states]
    calls += [(worldsheet_twisted_mode, u, n, f_apply(shared, v))
              for u in generators for n in modes for v in states]
    calls += [(base_module_mode, u, n, v)
              for u in base_generators for n in range(-1, 2) for v in states]
    random.Random(k).shuffle(calls)
    for mode, u, n, v in calls:
        assert mode(shared, u, n, v) == mode(TwistSystem(K, k), u, n, v), (mode.__name__, u, n)
    # one operator per generator on the space-time and base-module sides; on
    # the worldsheet side one window plan per generator and one E_f operator
    # per distinct V_K slot state: b(-1)1, omega_K, e^alpha and 2 b(-1)1
    worldsheet = _distinct_slot_states(shared, generators)
    assert len(worldsheet) == 4
    assert (len(Sector.of(shared, "T").prepared)
            == 2 * len(generators) + len(worldsheet) + len(base_generators))


def test_warm_worldsheet_calls_reuse_the_window_plan(monkeypatch):
    # the first call on omega splits it into its slot states and runs E_f
    # once for omega_K; the second only hashes omega's terms
    system = TwistSystem(A2, 3)
    omega = omega_state(system, "L")
    modes = default_mode_set(system, Fraction(2, 3))
    states = [f_apply(system, v) for v in weight_basis(system, "T", Fraction(5, 9))]
    calls = _count_calls(monkeypatch, "_split_slot", "ef_apply")
    first = list(worldsheet_twisted_windows(system, omega, modes, states))
    assert calls == {"_split_slot": len(omega.terms), "ef_apply": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert list(worldsheet_twisted_windows(system, omega, modes, states)) == first
    assert calls == {"_split_slot": 0, "ef_apply": 0}


def test_windows_are_labelled_with_the_callers_modes(sys3):
    # a mode named twice gives one window entry, under its first label; the
    # modes and states are read once, so one-shot iterators give the same
    # windows as lists
    u = slot_state(sys3, apply_mode(sys3, -1, 0, vacuum(sys3, "K")), 1)
    twisted = weight_basis(sys3, "T", 1)[-2:]
    modes = [Fraction(-1, 3), 0, Fraction(-1, 3), Fraction(0)]
    for windows, single, states in [(spacetime_twisted_windows, spacetime_twisted_mode, twisted),
                                    (worldsheet_twisted_windows, worldsheet_twisted_mode,
                                     [f_apply(sys3, v) for v in twisted])]:
        listed = list(windows(sys3, u, modes, states))
        assert list(windows(sys3, u, iter(modes), iter(states))) == listed
        for window, w in zip(listed, states):
            assert [(type(n), n) for n in window] == [(Fraction, Fraction(-1, 3)), (int, 0)]
            for n, image in window.items():
                assert image == single(sys3, u, n, w)
        assert any(not image.is_zero() for image in listed[-1].values())
    # the coefficient of x^x is the mode -x - 1, on int and Fraction exponents
    v = twisted[-1]
    coefficients = [(spacetime_series_coefficient(sys3, u, x, v),
                     spacetime_twisted_mode(sys3, u, -x - 1, v))
                    for x in [-1, Fraction(-2, 3), Fraction(-1, 3), 0, Fraction(1, 3)]]
    assert all(coefficient == mode for coefficient, mode in coefficients)
    assert any(not coefficient.is_zero() for coefficient, _ in coefficients)


@pytest.mark.parametrize("K", [A1, A2], ids=["A1", "A2"])
def test_warm_window_calls_construct_no_fraction(K, monkeypatch):
    # everything a window call needs beyond the state is kept per operator
    # or per system, so a warm call builds no Fraction at all
    system = TwistSystem(K, 3)
    cutoff, bound = (1, 1) if K is A1 else (Fraction(5, 9), Fraction(2, 3))
    basis = weight_basis(system, "T", cutoff)
    images = [f_apply(system, v) for v in basis]
    modes = default_mode_set(system, bound)
    generators = [u for _, u in generator_family(system)]

    def run():
        for u in generators:
            assert list(spacetime_twisted_windows(system, u, modes, basis))
            assert list(worldsheet_twisted_windows(system, u, modes, images))

    run()
    built = 0
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counted))
        assert Fraction(1, 2) and built == 1
        built = 0
        run()
    assert built == 0


def test_series_coefficient_rejects_off_grid_exponent(sys2):
    u = slot_state(sys2, apply_mode(sys2, -1, 0, vacuum(sys2, "K")), 0)
    with pytest.raises(ValueError, match="exponent"):
        spacetime_series_coefficient(sys2, u, Fraction(1, 3), vacuum(sys2, "T"))


def test_worldsheet_rejects_mixed_slots(sys2):
    mixed = ground_state(sys2, "L", (1, 1))
    with pytest.raises(ValueError, match="single tensor slot"):
        worldsheet_twisted_mode(sys2, mixed, 0, vacuum(sys2, "K"))


@pytest.mark.parametrize("K, k", [pytest.param(A1, 2, id="2"), pytest.param(A1, 3, id="3"),
                                  pytest.param(A2, 2, id="A2-2")])
def test_transported_l0_relation(K, k):
    # the base-module degree operator against the twisted one, two code paths
    system = TwistSystem(K, k)
    shift = Fraction(K.rank * (k * k - 1), 24)
    for v in weight_basis(system, "T", Fraction(3, 2)):
        lhs = base_module_mode(system, omega_state(system, "K"), 1, v)
        rhs = twisted_L0(system, v).scaled(k) - v.scaled(shift)
        assert lhs == rhs


@pytest.mark.parametrize("K, k, compared_want", [
    pytest.param(A1, 2, 100, id="2"), pytest.param(A1, 3, 315, id="3"),
    pytest.param(A2, 2, 200, id="A2-2")])
def test_series_engine_matches_per_mode_reference(K, k, compared_want):
    # the window entry points against the per-mode extractor, every generator
    system = TwistSystem(K, k)
    basis = weight_basis(system, "T", 1)
    assert any(any(next(iter(v.terms)).ground) for v in basis)
    states = basis + [sum(basis[1:], basis[0])]
    modes = default_mode_set(system, 1)
    images = [f_apply(system, v) for v in states]
    compared, nonzero = 0, 0
    for _, u in generator_family(system):
        # a window may name a mode twice
        windows = zip(states, images,
                      spacetime_twisted_windows(system, u, modes + modes[:1], states),
                      worldsheet_twisted_windows(system, u, modes + modes[:1], images))
        for v, fv, spacetime, worldsheet in windows:
            for n in modes:
                assert spacetime[n] == reference.spacetime_twisted_mode(system, u, n, v), n
                assert worldsheet[n] == reference.worldsheet_twisted_mode(system, u, n, fv), n
                compared += 1
                nonzero += not spacetime[n].is_zero()
    assert compared == compared_want
    assert nonzero > 0


def test_omega_series_matches_per_mode_reference_on_a2():
    # omega holds omega_K in all three slots; the reference extracts each
    # slot on its own and rotates it by its phase
    system = TwistSystem(A2, 3)
    basis = weight_basis(system, "T", Fraction(5, 9))
    states = basis + [sum(basis[1:], basis[0])]
    modes = default_mode_set(system, Fraction(2, 3))
    images = [f_apply(system, v) for v in states]
    omega = omega_state(system, "L")
    compared, nonzero = 0, 0
    windows = zip(states, images,
                  spacetime_twisted_windows(system, omega, modes, states),
                  worldsheet_twisted_windows(system, omega, modes, images))
    for v, fv, spacetime, worldsheet in windows:
        for n in modes:
            assert spacetime[n] == reference.spacetime_twisted_mode(system, omega, n, v), n
            assert worldsheet[n] == reference.worldsheet_twisted_mode(system, omega, n, fv), n
            # a vector fixed by the permutation has integral modes only
            if n.denominator != 1:
                assert spacetime[n].is_zero(), n
                assert worldsheet[n].is_zero(), n
            compared += 2
            nonzero += not spacetime[n].is_zero()
            nonzero += not worldsheet[n].is_zero()
    assert (len(basis), len(modes), compared) == (9, 5, 100)
    assert nonzero > 0


@pytest.mark.parametrize("coeffs, ef_calls, vanishing", [
    pytest.param((1, 0, 1, 0), 1, lambda t: t % 2, id="slots-0-2"),
    pytest.param((1, 2, 0, 0), 2, lambda t: False, id="slots-0-1-unequal"),
    pytest.param((0, 1, 1, 1), 1, lambda t: False, id="slots-1-2-3")])
def test_partial_slot_sums_match_per_mode_reference(coeffs, ef_calls, vanishing, monkeypatch):
    system = TwistSystem(A1, 4)
    w = apply_mode(system, -1, 0, vacuum(system, "K"))
    u = StateVector(system, "L")
    for p, c in enumerate(coeffs):
        if c:
            u = u + slot_state(system, w, p).scaled(c)
    calls = 0
    original = vertexops.ef_apply

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(vertexops, "ef_apply", counted)
    modes = default_mode_set(system, 1)
    compared, nonzero = 0, 0
    # the space-time side merges the slots' residue parts: the same modes vanish
    for side, sector, windows, oracle in [
            ("worldsheet", "K", worldsheet_twisted_windows, reference.worldsheet_twisted_mode),
            ("spacetime", "T", spacetime_twisted_windows, reference.spacetime_twisted_mode)]:
        states = weight_basis(system, sector, 2 if sector == "K" else 1)
        for v, window in zip(states, windows(system, u, modes, states)):
            for n in modes:
                assert window[n] == oracle(system, u, n, v), (side, n)
                if vanishing(int(4 * n)):
                    assert window[n].is_zero(), (side, n)
                compared += 1
                nonzero += not window[n].is_zero()
    assert calls == ef_calls
    # 8 base states of weight at most 2 and 15 twisted ones of weight at most 1
    assert (len(modes), compared) == (9, 9 * (8 + 15))
    assert nonzero > 0


# each monomial is ((mode, ambient colour), ...) over an L ground label
@pytest.mark.parametrize("monos", [
    pytest.param([(((-1, 0), (-2, 1)), (0, 0, 0))], id="b0(-1)b1(-2)"),
    pytest.param([(((-1, 0), (-2, 1)), (0, 0, 0)), (((-1, 1), (-2, 2)), (0, 0, 0))],
                 id="b0(-1)b1(-2)+b1(-1)b2(-2)"),
    pytest.param([(((-1, 1),), (1, 0, 0))], id="e0*b1(-1)"),
    pytest.param([(((-1, 1),), (1, 0, 0)), (((-1, 2),), (1, 0, 0))], id="e0*(b1(-1)+b2(-1))"),
    pytest.param([(((-1, 0), (-1, 1), (-1, 2)), (0, 0, 0)), (((-1, 0),), (0, 0, 0)),
                  (((-1, 1),), (0, 0, 0))], id="b0(-1)b1(-1)b2(-1)+b0(-1)+b1(-1)")])
def test_multi_slot_spacetime_series_matches_per_mode_reference(sys3, monos):
    # states in several tensor slots at once, which the worldsheet side rejects;
    # the sums put two slot placements of the same factors over one ground
    # label, and in the last one exp(Delta_x) brings them at two offsets
    u = sum((StateVector.monomial(sys3, "L", modes, ground) for modes, ground in monos),
            StateVector(sys3, "L"))
    with pytest.raises(ValueError, match="single tensor slot"):
        worldsheet_twisted_windows(sys3, u, [0], [vacuum(sys3, "K")])
    basis = weight_basis(sys3, "T", 1)
    states = basis + [sum(basis[1:], basis[0])]
    modes = default_mode_set(sys3, 1)
    compared, nonzero = 0, 0
    for v, window in zip(states, spacetime_twisted_windows(sys3, u, modes, states)):
        for n in modes:
            assert window[n] == reference.spacetime_twisted_mode(sys3, u, n, v), n
            compared += 1
            nonzero += not window[n].is_zero()
    assert (len(states), len(modes), compared) == (9, 7, 63)
    assert nonzero > 0


# the factors ((mode, colour), ...) of one V_K monomial each, colour -1 the
# last colour; the i-th monomial sits in tensor slot i mod k
ONE_TARGET_FACTORS = [((-1, 0), (-1, 0), (-1, 0)), ((-2, 0), (-1, -1)), ((-3, -1),)]


@pytest.mark.parametrize("K, k, cutoff, labels", [
    pytest.param(A1, 3, 1, 2, id="A1-3"), pytest.param(A2, 2, 1, 2, id="A2-2"),
    # derivative coefficients of order 2 and 3 over quarters; the
    # reference's creation fill takes about 40 s here, so only label 0, on
    # the states to weight 3/4
    pytest.param(A1, 4, Fraction(3, 4), 1, id="A1-4")])
def test_one_target_calls_match_per_mode_reference(K, k, cutoff, labels):
    # one mode per call makes every window a single target, so the last
    # stage of each series lands on that target alone; three factors and
    # factors of order 2 and 3, over the first `labels` of the ground
    # labels 0 and not 0
    system = TwistSystem(K, k)
    d = K.rank
    alpha = tuple(int(j == 0) for j in range(d))
    states = weight_basis(system, "T", cutoff)
    # the reference's creation fill grows fast with the ground label, so
    # e^alpha runs on the two ground states labelled 0 and alpha
    monos = [next(iter(v.terms)) for v in states]
    grounds = [v for v, mono in zip(states, monos)
               if not mono.grid and mono.ground in ((0,) * d, alpha)]
    assert len(grounds) == 2
    modes = default_mode_set(system, 1)
    nonzero = {"spacetime": 0, "worldsheet": 0, "base": 0}
    for slot, factors in enumerate(ONE_TARGET_FACTORS):
        for ground, vs in [((0,) * d, states), (alpha, grounds)][:labels]:
            w = StateVector.monomial(system, "K", [(n, i % d) for n, i in factors], ground)
            u = slot_state(system, w, slot % k)
            for v in vs:
                fv = f_apply(system, v)
                for n in modes:
                    got = spacetime_twisted_mode(system, u, n, v)
                    assert got == reference.spacetime_twisted_mode(system, u, n, v), (u, v, n)
                    nonzero["spacetime"] += not got.is_zero()
                    got = worldsheet_twisted_mode(system, u, n, fv)
                    assert got == reference.worldsheet_twisted_mode(system, u, n, fv), (u, v, n)
                    nonzero["worldsheet"] += not got.is_zero()
                # the base module has integral modes only
                for n in range(-2, 3):
                    got = base_module_mode(system, w, n, v)
                    assert got == reference.base_module_mode(system, w, n, v), (w, v, n)
                    nonzero["base"] += not got.is_zero()
    assert all(nonzero.values()), nonzero


def test_spacetime_factors_split_only_where_a_slot_sum_follows():
    # one-slot operators keep whole factors; omega's factors are eigen factors
    # whose residues cancel in pairs
    system = TwistSystem(A2, 3)
    sector = Sector.of(system, "T")
    whole = {sector.vector(tuple(int(j == idx) for j in range(system.L.rank)))
             for idx in range(system.L.rank)}
    current = apply_mode(system, -1, 0, vacuum(system, "K"))
    one_slot = [[(0, slot_state(system, current, p))] for p in range(system.k)]
    one_slot.append([(t, slot_state(system, w_t, 0)) for t, w_t
                     in ef_inverse_apply(system, omega_state(system, "K")).items()])
    for pieces in one_slot:
        factors = [f for *_, fs, _ in vertexops._spacetime_terms(system, pieces) for f in fs]
        assert factors and all(vec in whole for _, vec in factors)
    pairs = [fs for *_, fs, _ in vertexops._spacetime_terms(
        system, [(0, omega_state(system, "L"))]) if len(fs) == 2]
    assert pairs
    for fs in pairs:
        residues = [[r for r, entry in enumerate(vec) if entry] for _, vec in fs]
        assert all(len(rs) == 1 for rs in residues), residues
        assert sum(rs[0] for rs in residues) % system.k == 0, residues


def test_untwisted_series_matches_per_mode_reference(sys2):
    # lattice states on both sides exercise the K-sector group element
    states = weight_basis(sys2, "K", 2)
    assert any(any(next(iter(v.terms)).ground) for v in states)
    nonzero = 0
    for u in states:
        for v in states[:8]:
            for n in range(-3, 3):
                got = untwisted_mode(sys2, u, n, v)
                assert got == reference.untwisted_mode(sys2, u, n, v), (u, v, n)
                nonzero += not got.is_zero()
    assert nonzero > 0
