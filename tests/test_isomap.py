"""The explicit isomorphism, mode conjugation and the intertwining check."""

import random
from fractions import Fraction

import pytest

import extraction_reference as reference
import fock_reference
from permtwist import coeffs, isomap, vertexops
from permtwist.cli import RunConfig, run_iso
from permtwist.cocycle import TwistSystem
from permtwist.fock import (Sector, StateVector, apply_mode, apply_vector_mode,
                            ground_state, slot_state, vacuum, weight, weight_basis)
from permtwist.isomap import (default_mode_set, f_apply, f_inverse_apply,
                              general_mode_image, generator_family,
                              intertwine_check, intertwine_generators)
from permtwist.lattice import Lattice

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


@pytest.fixture(scope="module", params=[2, 3])
def system(request):
    return TwistSystem(A1, request.param)


def test_f_normalization_and_rules(system):
    k = system.k
    assert f_apply(system, vacuum(system, "T")) == vacuum(system, "K")
    # mode rule: the fractional first-block mode becomes 1/k times the base mode
    st = apply_mode(system, Fraction(-1, k), 0, vacuum(system, "T"))
    img = f_apply(system, st)
    expect = apply_mode(system, -1, 0, vacuum(system, "K")).scaled(Fraction(1, k))
    assert img == expect
    # ground rule: the diagonal coset label maps to the lattice label
    assert (f_apply(system, ground_state(system, "T", (1,)))
            == ground_state(system, "K", (1,)))
    assert (f_inverse_apply(system, ground_state(system, "K", (1,)))
            == ground_state(system, "T", (1,)))


def test_f_inverse_of_current(system):
    k = system.k
    cur = apply_mode(system, -1, 0, vacuum(system, "K"))
    got = f_inverse_apply(system, cur)
    expect = apply_mode(system, Fraction(-1, k), 0, vacuum(system, "T")).scaled(k)
    assert got == expect


def test_f_bijection_and_weight_grading(system):
    k, d = system.k, system.d
    images = []
    for b in weight_basis(system, "T", 2):
        img = f_apply(system, b)
        assert f_inverse_apply(system, img) == b
        assert weight(system, img) == k * weight(system, b) - Fraction((k * k - 1) * d, 24)
        images.append(img)
    # distinct basis states stay distinct
    seen = set()
    for img in images:
        key = frozenset((m, repr(c)) for m, c in img.terms.items())
        assert key not in seen
        seen.add(key)


def test_f_roundtrip_weight_four(system):
    for b in weight_basis(system, "K", 4):
        assert f_apply(system, f_inverse_apply(system, b)) == b


def test_sector_requirements(system):
    with pytest.raises(ValueError, match="twisted"):
        f_apply(system, vacuum(system, "K"))
    with pytest.raises(ValueError, match="base-sector"):
        f_inverse_apply(system, vacuum(system, "T"))


def test_general_mode_image_rules(system):
    k = system.k
    single = [(1,)] + [(0,)] * (k - 1)
    img = general_mode_image(system, single, Fraction(-1, k))
    assert img.mode == -1
    assert len(img.entries) == 1
    coeff, vec = img.entries[0]
    assert coeff == Fraction(1, k) and vec == (1,)
    # slot j+1 picks up the phase rotation
    for j in range(1, k):
        slot = [(0,)] * k
        slot[j] = (1,)
        img_j = general_mode_image(system, slot, Fraction(-1, k))
        coeff_j, _ = img_j.entries[0]
        assert coeff_j == system.eta_pow(j) * Fraction(1, k)
    # the diagonal tuple cancels off the integer grid
    diag = [(1,)] * k
    assert general_mode_image(system, diag, Fraction(-1, k)).is_zero() or k == 1
    on_grid = general_mode_image(system, diag, Fraction(-1))
    assert not on_grid.is_zero()


def _apply_image(system, image, v):
    """sum of coeff * vec(mode) v over the entries of a conjugated mode."""
    out = StateVector(system, "K")
    for coeff, vec in image.entries:
        out = out + apply_vector_mode(system, image.mode, vec, v).scaled(coeff)
    return out


def test_general_mode_image_linearity_and_equivariance(system):
    _check_mode_image_linearity_and_equivariance(system)


def test_general_mode_image_linearity_and_equivariance_a2():
    # d = 2: one entry per colour of K, not per slot
    _check_mode_image_linearity_and_equivariance(TwistSystem(A2, 3))


def _check_mode_image_linearity_and_equivariance(system):
    k, d = system.k, system.d
    rng = random.Random(k)
    vac = vacuum(system, "K")
    target = apply_mode(system, -1, d - 1, vac)
    for _ in range(8):
        tup_a = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        tup_b = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        tup_ab = [tuple(x + y for x, y in zip(a, b)) for a, b in zip(tup_a, tup_b)]
        n = Fraction(rng.randint(-2 * k, 2 * k), k)
        im_a = general_mode_image(system, tup_a, n)
        im_b = general_mode_image(system, tup_b, n)
        im_ab = general_mode_image(system, tup_ab, n)
        for im in (im_a, im_b, im_ab):
            # distinct unit vectors, no zero coefficient
            vecs = [vec for _, vec in im.entries]
            assert len(set(vecs)) == len(vecs)
            assert all(sorted(vec) == [0] * (d - 1) + [1] for vec in vecs)
            assert not any(c.is_zero() for c, _ in im.entries)
        for probe in (vac, target):
            assert (_apply_image(system, im_ab, probe)
                    == _apply_image(system, im_a, probe) + _apply_image(system, im_b, probe))
        # precomposing with the shift rotates the phase by eta^{kn}
        rotated = general_mode_image(system, tup_a[1:] + tup_a[:1], n)
        for probe in (vac, target):
            assert (_apply_image(system, rotated, probe)
                    == _apply_image(system, im_a, probe).scaled(system.eta_pow(int(n * k))))
        # F h^T(n) = image F, h^T(n) through the reference's own projection
        h = tuple(x for alpha in tup_a for x in alpha)
        dialect = reference._Dialect(system, "T")
        for v in weight_basis(system, "T", 1):
            assert (f_apply(system, dialect.vec_mode(n, h, v))
                    == _apply_image(system, im_a, f_apply(system, v)))


def test_intertwining_low_weight(system):
    basis = weight_basis(system, "T", 1)
    modes = default_mode_set(system, 1)
    summary = intertwine_generators(system, basis, modes)
    assert len(summary) == len(generator_family(system))
    for rep, (name, u) in zip(summary, generator_family(system)):
        checked = 0
        for v in basis:
            reports = intertwine_check(system, u, v, modes, label=name)
            bad = [r for r in reports if not r.passed]
            assert not bad, bad[0].witness if bad else ""
            checked += len(reports)
        # the whole-basis report agrees with the per-state checks
        assert rep.check_id == f"intertwine[{name}]"
        assert rep.passed and rep.witness == f"{checked} modes checked"


def test_iso_reads_a_one_shot_basis_like_a_list():
    system = TwistSystem(A1, 2)
    basis = weight_basis(system, "T", 1)
    modes = default_mode_set(system, 1)
    assert (intertwine_generators(system, iter(basis), modes)
            == intertwine_generators(system, basis, modes))


def test_iso_over_an_empty_basis_fails():
    # a comparison of nothing never passes
    system = TwistSystem(A1, 2)
    reports = intertwine_generators(system, [], default_mode_set(system, 1))
    assert len(reports) == len(generator_family(system))
    assert all(r.status == "fail" and r.witness == "0 modes checked" for r in reports)


def test_iso_witness_is_the_first_failure_in_basis_and_mode_order(monkeypatch):
    # one wrong monomial in the space-time image of one mode of one state,
    # neither of them the first: every generator fails on exactly that mode
    system = TwistSystem(A1, 2)
    basis = weight_basis(system, "T", 1)
    modes = default_mode_set(system, 1)
    target, n = basis[1], modes[2]
    extra = StateVector.monomial(system, "T", [(Fraction(-1, 2), 0)], (0,))
    windows = vertexops.spacetime_twisted_windows

    def perturbed(system, u, modes, states):
        states = list(states)
        for v, out in zip(states, windows(system, u, modes, states)):
            if v == target:
                out[n] = out[n] + extra
            yield out

    monkeypatch.setattr(isomap, "spacetime_twisted_windows", perturbed)
    (mono, c), = f_apply(system, extra).terms.items()
    witness = f"mode {n}: first difference at {mono}: {-c}"
    reports = intertwine_generators(system, basis, modes)
    assert len(reports) == len(generator_family(system))
    assert all(r.status == "fail" and r.witness == witness for r in reports)
    for name, u in generator_family(system):
        failed = [r for r in intertwine_check(system, u, target, modes, label=name)
                  if not r.passed]
        assert [(r.check_id, r.witness) for r in failed] == [
            (f"intertwine[{name}][n={n}]", witness)]


def test_iso_computes_each_generator_series_once(monkeypatch):
    calls = {"exp_delta_apply": 0, "ef_apply": 0}

    def counted(name):
        original = getattr(coeffs, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vertexops, name, counted(name))
    for k in (2, 3):
        system = TwistSystem(A1, k)
        generators = generator_family(system)
        # E_f runs once per distinct V_K slot state of the whole family: the
        # k slot currents all hold b(-1)1 and omega holds omega_K in every
        # slot, so b(-1)1, omega_K and e^alpha count once each, whatever k
        slot_states = [reference.slot_states(system, u) for _, u in generators]
        assert [len(by_slot) for by_slot in slot_states] == [1] * k + [k, 1]
        distinct = {frozenset(t.items()) for by_slot in slot_states for t in by_slot.values()}
        assert len(distinct) == 3
        calls.update(dict.fromkeys(calls, 0))
        # run_iso builds a fresh system, so nothing is prepared before it
        reports = run_iso(RunConfig(k=k, weight_cutoff=Fraction(1), mode_bound=Fraction(1),
                                    lattice=A1))
        assert all(r.passed for r in reports)
        assert len(weight_basis(system, "T", 1)) > 1
        assert calls == {"exp_delta_apply": len(generators), "ef_apply": 3}


def test_iso_prepares_each_generator_once(monkeypatch):
    # every Heisenberg vector of a generator's series is split once per
    # generator, so the count does not grow with the basis
    counts = []
    original = Sector.vector
    for cutoff in (1, 2):
        calls = 0

        def counted(self, coords):
            nonlocal calls
            calls += 1
            return original(self, coords)

        monkeypatch.setattr(Sector, "vector", counted)
        system = TwistSystem(A1, 2)
        basis = weight_basis(system, "T", cutoff)
        reports = intertwine_generators(system, basis, default_mode_set(system, 1))
        monkeypatch.setattr(Sector, "vector", original)
        assert all(r.passed for r in reports)
        counts.append((len(basis), calls))
    (small, first), (large, second) = counts
    assert small < large
    assert first == second > 0


def test_intertwining_under_slot_relabeling(system):
    # conjugating the twist by a slot permutation is input relabeling
    k = system.k
    if k == 2:
        perm = [1, 0]
    else:
        perm = [1, 0] + list(range(2, k))
    cur = slot_state(system, apply_mode(system, -1, 0, vacuum(system, "K")), 0)
    relabeled = fock_reference.relabel_slots(system, cur, perm)
    basis = weight_basis(system, "T", 1)[:4]
    modes = default_mode_set(system, 1)
    for v in basis:
        reports = intertwine_check(system, relabeled, v, modes, label="relabel")
        assert all(r.passed for r in reports)


def test_degenerate_single_copy_end_to_end():
    # k = 1: both twisted constructions collapse to the untwisted operators
    s1 = TwistSystem(A1, 1)
    basis = weight_basis(s1, "T", 2)
    modes = default_mode_set(s1, 1)
    for name, u in generator_family(s1):
        for v in basis[:6]:
            reports = intertwine_check(s1, u, v, modes, label=name)
            assert all(r.passed for r in reports)


def test_mode_set_and_report_shape(system):
    modes = default_mode_set(system, 2)
    assert len(modes) == 4 * system.k + 1
    assert all((n * system.k).denominator == 1 for n in modes)
    reports = intertwine_check(system, generator_family(system)[0][1],
                               vacuum(system, "T"), [Fraction(-1)], label="x")
    assert reports[0].check_id.startswith("intertwine[x]")
    assert reports[0].status in ("pass", "fail")
