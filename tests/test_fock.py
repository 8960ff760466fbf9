"""State spaces: mode actions, weights, Virasoro operators, bases."""

import random
import re
from fractions import Fraction

import pytest

import fock_reference as reference
from permtwist.cocycle import TwistSystem
from permtwist.fock import (Sector, StateVector, apply_mode, apply_twisted_vector_mode,
                            apply_vector_mode, ground_state, nu_hat_state, omega_state,
                            slot_state, twisted_L0, twisted_state_counts,
                            twisted_vacuum_weight, vacuum, virasoro_L, weight,
                            weight_basis)
from permtwist.lattice import Lattice
from permtwist.vertexops import base_module_mode

A1 = Lattice([[2]], "A1")
A2 = Lattice([[2, 1], [1, 2]], "A2")


def test_untwisted_brackets():
    s = TwistSystem(A1, 2)
    v = vacuum(s, "K")
    assert apply_mode(s, 1, 0, apply_mode(s, -1, 0, v)) == v.scaled(2)
    gb = ground_state(s, "K", (1,))
    assert apply_mode(s, 0, 0, gb) == gb.scaled(2)
    # cross-slot modes commute to zero pairing in V_L
    vl = vacuum(s, "L")
    up = apply_mode(s, -1, 0, vl)
    assert apply_mode(s, 1, 1, up).is_zero()


@pytest.mark.parametrize("k,K", [(2, A1), (3, A1), (2, A2)])
def test_twisted_bracket_matches_projection_pairing(k, K):
    # oracle: <(b_i)_(m)-projection, (b_j)_(-m)-projection> via eigenprojection+inner
    s = TwistSystem(K, k)
    d = K.rank
    for i in range(d):
        for j in range(d):
            for num in range(1, 2 * k + 1):
                n = Fraction(num, k)
                vi = s.slot_embed(tuple(int(t == i) for t in range(d)), 0)
                vj = s.slot_embed(tuple(int(t == j) for t in range(d)), 0)
                pi = reference.eigenprojection(s, vi, num)
                pj = reference.eigenprojection(s, vj, -num)
                pairing = s.L.inner(pi, pj)
                got = apply_mode(s, n, i, apply_mode(s, -n, j, vacuum(s, "T")))
                assert got == vacuum(s, "T").scaled(pairing * n)
                # the pairing collapses to gram/k
                assert pairing == Fraction(K.gram[i][j], k)


@pytest.mark.parametrize("K, k", [pytest.param(K, k, id=f"{K.name}-{k}")
                                  for K in (A1, A2) for k in (2, 3)])
def test_sector_vector_matches_eigenprojection(K, k):
    # oracle: entry r in T is k times the first block of the eta^r-eigenprojection
    s = TwistSystem(K, k)
    d = K.rank
    rng = random.Random(10 * k + d)
    twisted = Sector.of(s, "T")
    for _ in range(6):
        h = tuple(rng.randint(-2, 2) for _ in range(k * d))
        vec = twisted.vector(h)
        assert len(vec) == k
        for r in range(k):
            proj = reference.eigenprojection(s, h, r)
            want = [(i, proj[i] * k) for i in range(d) if not proj[i].is_zero()]
            # no zero coefficient is listed
            assert list(vec[r]) == want
        # K and L: one residue holding the nonzero coordinates
        for name, coords in (("K", h[:d]), ("L", h)):
            assert Sector.of(s, name).vector(coords) == (
                tuple((i, c) for i, c in enumerate(coords) if c),)


def test_twisted_bracket_spec_example():
    # [(h^1)_(1)(1/k), (h^1)_(-1)(-1/k)] picks up <proj, proj> * (1/k)
    s = TwistSystem(A1, 2)
    v = vacuum(s, "T")
    up = apply_mode(s, Fraction(-1, 2), 0, v)
    down = apply_mode(s, Fraction(1, 2), 0, up)
    assert down == v.scaled(Fraction(1, 2))  # gram 2: (2/k) * (1/k) = 1/2


def test_sector_validation():
    s = TwistSystem(A1, 2)
    with pytest.raises(ValueError, match="fractional mode"):
        apply_mode(s, Fraction(1, 2), 0, vacuum(s, "K"))
    with pytest.raises(ValueError, match="not in"):
        apply_mode(s, Fraction(1, 3), 0, vacuum(s, "T"))
    with pytest.raises(ValueError, match="sector mismatch"):
        vacuum(s, "K") + vacuum(s, "L")


@pytest.mark.parametrize("sector, mode, message", [
    ("K", Fraction(-1, 2), "fractional mode -1/2 in untwisted sector: modes are integral"),
    ("L", Fraction(-1, 2), "fractional mode -1/2 in untwisted sector: modes are integral"),
    ("T", Fraction(-1, 4), "mode -1/4 not in (1/k)Z"),
])
def test_monomial_rejects_off_grid_modes(sector, mode, message):
    # a mode off the sector's grid is an error, never rounded onto it
    s = TwistSystem(A1, 3)
    ground = (0,) * (s.L.rank if sector == "L" else s.d)
    with pytest.raises(ValueError, match=re.escape(message)):
        StateVector.monomial(s, sector, [(Fraction(-1), 0), (mode, 0)], ground)


@pytest.mark.parametrize("sector, mode", [
    ("K", 0), ("K", 1), ("L", 0), ("L", 2), ("T", Fraction(0)), ("T", Fraction(1, 3)),
], ids=["K-0", "K-1", "L-0", "L-2", "T-0", "T-1/3"])
def test_monomial_rejects_modes_that_do_not_create(sector, mode):
    # a Fock basis monomial holds creation modes only: b(0) and b(n > 0)
    # act on states, they never label one
    s = TwistSystem(A1, 3)
    ground = (0,) * (s.L.rank if sector == "L" else s.d)
    with pytest.raises(ValueError, match=re.escape(f"mode {mode} is not a creation mode")):
        StateVector.monomial(s, sector, [(Fraction(-1), 0), (mode, 0)], ground)


@pytest.mark.parametrize("sector, rank", [("K", 2), ("L", 6), ("T", 2)])
def test_ground_label_of_the_wrong_length_is_refused(sector, rank):
    # a ground label is never padded or cut to the rank of the sector's lattice
    s = TwistSystem(A2, 3)
    for ground in ((), (1,) * (rank - 1), (0,) * (rank + 1)):
        with pytest.raises(ValueError, match=re.escape(f"needs {rank} entries")):
            StateVector.monomial(s, sector, (), ground)
        with pytest.raises(ValueError, match="ground label"):
            ground_state(s, sector, ground)
    ground = (1,) + (0,) * (rank - 1)
    assert next(iter(ground_state(s, sector, ground).terms)).ground == ground
    assert next(iter(vacuum(s, sector).terms)).ground == (0,) * rank


@pytest.mark.parametrize("sector, rank", [("K", 2), ("L", 6), ("T", 2)])
def test_colours_and_vectors_outside_the_rank_are_refused(sector, rank):
    # a colour names a mode of the sector's basis and a vector has one
    # coordinate per colour (per colour of L in T): none is wrapped, padded
    # or cut to the rank
    s = TwistSystem(A2, 3)
    vac = vacuum(s, sector)
    ground = (0,) * rank
    for i in (rank, rank + 3, -1):
        message = re.escape(f"colour {i} not in range({rank})")
        with pytest.raises(ValueError, match=message):
            StateVector.monomial(s, sector, [(-1, i)], ground)
        with pytest.raises(ValueError, match=message):
            apply_mode(s, -1, i, vac)
    for coords in ((1,) * (rank - 1), (0,) * rank + (1,)):
        with pytest.raises(ValueError, match=f"needs {rank} coordinates"):
            apply_vector_mode(s, -1, coords, vac)
    ambient = s.L.rank if sector == "T" else rank
    for coords in ((1,) * (ambient - 1), (1,) * (ambient + 1)):
        with pytest.raises(ValueError, match=f"needs {ambient} coordinates"):
            Sector.of(s, sector).vector(coords)
        if sector == "T":
            with pytest.raises(ValueError, match=f"needs {ambient} coordinates"):
                apply_twisted_vector_mode(s, -1, coords, vac)
    # the last colour and a full-length vector are accepted
    top = StateVector.monomial(s, sector, [(-1, rank - 1)], ground)
    assert apply_mode(s, -1, rank - 1, vac) == top
    assert apply_vector_mode(s, -1, (0,) * (rank - 1) + (1,), vac) == top


def _ground_weight(system, sector, ground):
    """<g, g> * step / 2 plus the vacuum weight, from the Gram matrices."""
    gram = system.L.gram if sector == "L" else system.K.gram
    norm = sum(gram[i][j] * a * b for i, a in enumerate(ground) for j, b in enumerate(ground))
    if sector != "T":
        return Fraction(norm, 2)
    k, d = system.k, system.d
    return Fraction(norm, 2 * k) + Fraction((k * k - 1) * d, 24 * k)


@pytest.mark.parametrize("K", [A1, A2])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sector, cutoff", [("K", 2), ("L", 1), ("T", Fraction(3, 2))])
def test_monomials_read_mode_values(K, k, sector, cutoff):
    # whatever the storage, FockMono.modes, the level and repr give mode
    # values: the level plus the ground weight is the weight, as a reader
    # outside the package computes it, and the modes rebuild the monomial
    s = TwistSystem(K, k)
    basis = weight_basis(s, sector, cutoff)
    assert len(basis) > 1
    for v in basis:
        (mono,) = v.terms
        level = -sum(n for n, _ in mono.modes)
        assert level == mono.level()
        assert level + _ground_weight(s, sector, mono.ground) == weight(s, v)
        assert StateVector.monomial(s, sector, mono.modes, mono.ground) == v
    if sector == "T":
        ground = (0,) * K.rank
        st = apply_mode(s, Fraction(-1, k), 0, vacuum(s, "T"))
        (mono,) = st.terms
        assert repr(mono) == f"b0(-1/{k})*e{ground}"
        st = apply_mode(s, -1, 0, st)
        assert repr(st) == f"(1)*b0(-1)*b0(-1/{k})*e{ground}"


def test_weights():
    s3 = TwistSystem(A1, 3)
    assert twisted_vacuum_weight(s3) == Fraction(1, 9)
    assert weight(s3, vacuum(s3, "T")) == Fraction(1, 9)
    s = TwistSystem(A1, 2)
    assert weight(s, ground_state(s, "K", (1,))) == 1
    st = apply_mode(s, Fraction(-1, 2), 0, vacuum(s, "T"))
    assert weight(s, st) == Fraction(9, 16)
    mixed = vacuum(s, "K") + ground_state(s, "K", (1,))
    with pytest.raises(ValueError, match="not homogeneous"):
        weight(s, mixed)


def test_weight_additivity_under_creation():
    s = TwistSystem(A1, 3)
    rng = random.Random(2)
    for st in weight_basis(s, "T", 2)[:10]:
        w = weight(s, st)
        num = rng.randint(1, 5)
        n = Fraction(-num, 3)
        assert weight(s, apply_mode(s, n, 0, st)) == w - n


@pytest.mark.parametrize("k", list(range(1, 13)))
def test_triangle_sum_identity(k):
    assert sum(j * (k - j) for j in range(1, k)) == k * (k * k - 1) // 6


def test_heisenberg_bracket_property():
    # [a(m), b(n)] = <a,b> m delta_{m+n,0} on sampled states, both sectors
    rng = random.Random(4)
    s = TwistSystem(A2, 2)
    states = weight_basis(s, "T", Fraction(3, 2))
    for _ in range(12):
        st = states[rng.randrange(len(states))]
        i, j = rng.randrange(2), rng.randrange(2)
        num_m = rng.randint(-3, 3)
        num_n = rng.randint(-3, 3)
        if num_m == 0 or num_n == 0:
            continue
        m, n = Fraction(num_m, 2), Fraction(num_n, 2)
        ab = apply_mode(s, m, i, apply_mode(s, n, j, st))
        ba = apply_mode(s, n, j, apply_mode(s, m, i, st))
        diff = ab - ba
        if m + n == 0:
            expect = st.scaled(Fraction(A2.gram[i][j], 2) * m)
        else:
            expect = StateVector(s, "T")
        assert diff == expect, (m, n, i, j)


@pytest.mark.parametrize("K", [A1])
def test_virasoro_bracket_acceptance(K):
    # [L(m), L(n)] = (m-n) L(m+n) + (m^3-m)/12 delta c on basis up to weight 3
    s = TwistSystem(K, 2)
    d = K.rank
    basis = weight_basis(s, "K", 3)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for v in basis:
                lhs = (virasoro_L(s, m, virasoro_L(s, n, v))
                       - virasoro_L(s, n, virasoro_L(s, m, v)))
                rhs = virasoro_L(s, m + n, v).scaled(m - n)
                if m + n == 0:
                    rhs = rhs + v.scaled(Fraction((m ** 3 - m) * d, 12))
                assert lhs == rhs, (m, n, v)


def _dense(system, sector, cutoff):
    """The basis of a sector to the cutoff, one term per state, and one
    combination of all of it with cyclotomic coefficients."""
    basis = weight_basis(system, sector, cutoff)
    dense = StateVector(system, sector)
    for t, sv in enumerate(basis):
        dense = dense + sv.scaled(system.eta_pow(t) - (t % 3))
    return basis, dense


def test_scaled_negation_and_difference_act_term_by_term():
    s = TwistSystem(A2, 3)
    basis, v = _dense(s, "K", 2)
    w = basis[0].scaled(Fraction(5, 2)) + basis[-1]
    assert len(v.terms) > 10 and set(w.terms) & set(v.terms)
    field = s.field
    for c in (0, 1, -1, Fraction(-3, 4), s.eta_pow(1) - 2):
        got = v.scaled(c)
        factor = c if not isinstance(c, (int, Fraction)) else field.from_rat(c)
        want = {m: x * factor for m, x in v.terms.items()} if c != 0 else {}
        assert got.terms == want, c
        assert not any(x.is_zero() for x in got.terms.values())
    assert (-v).terms == {m: -x for m, x in v.terms.items()}
    want = {}
    for m in set(v.terms) | set(w.terms):
        x = v.terms.get(m, field.zero()) - w.terms.get(m, field.zero())
        if not x.is_zero():
            want[m] = x
    assert (v - w).terms == want
    # a term of w equal to the one of v cancels, and v - v is zero
    assert (v - v.scaled(1)).is_zero() and (v - v).is_zero()
    assert (v - basis[1].scaled(v.terms[next(iter(basis[1].terms))])).terms == {
        m: x for m, x in v.terms.items() if m not in basis[1].terms}


def test_fraction_work_does_not_grow_with_the_state(monkeypatch):
    # rational weights stay ints until they meet a coefficient: only the
    # set-up of a call touches a Fraction, so the count is the same for a
    # one-term state and for a combination of a whole basis
    s = TwistSystem(A2, 3)
    omega = omega_state(s, "K")
    operations = [lambda v, j=j: virasoro_L(s, j, v) for j in (-2, -1, 0, 1, 2)]
    twisted = [lambda v: twisted_L0(s, v), lambda v: base_module_mode(s, omega, 1, v)]
    inputs = {"K": _dense(s, "K", 2),
              "T": _dense(s, "T", Fraction(3, 2) + twisted_vacuum_weight(s))}
    calls = 0

    def counting(original):
        def counted(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)
        return counted

    for ops, sector in ((operations, "K"), (twisted, "T")):
        basis, dense = inputs[sector]
        one = basis[-1]
        assert len(one.terms) == 1 and len(dense.terms) > 10
        # the first call fills the caches of the system and of the engines
        for op in ops:
            op(dense)
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
                patch.setattr(Fraction, name, counting(getattr(Fraction, name)))
            counts = []
            for v in (one, dense):
                calls = 0
                images = [op(v) for op in ops]
                counts.append(calls)
                assert any(not image.is_zero() for image in images)
        assert counts[0] == counts[1], (sector, counts)


def test_virasoro_values():
    s = TwistSystem(A1, 2)
    om = omega_state(s, "K")
    assert virasoro_L(s, 2, om) == vacuum(s, "K").scaled(Fraction(1, 2))
    ga = ground_state(s, "K", (1,))
    assert virasoro_L(s, 0, ga) == ga.scaled(1)
    for j in range(1, 4):
        assert virasoro_L(s, j, ga).is_zero()
    # L(0) reproduces the weight grading on a basis
    for v in weight_basis(s, "K", 3):
        assert virasoro_L(s, 0, v) == v.scaled(weight(s, v))


def test_virasoro_L_reads_j_on_the_integer_grid():
    # a fractional j would move a mode off the grid of V_K
    s = TwistSystem(A2, 3)
    om = omega_state(s, "K")
    for j in (Fraction(1, 2), 0.5, Fraction(-7, 3)):
        with pytest.raises(ValueError, match="fractional mode"):
            virasoro_L(s, j, om)
    # L(2) omega = (c/2) 1 with c = rank 2, whatever type carries j = 2
    for j in (2, Fraction(2), 2.0):
        assert virasoro_L(s, j, om) == vacuum(s, "K")


@pytest.mark.parametrize("k,K", [(2, A1), (3, A1), (2, A2)])
def test_twisted_l0(k, K):
    s = TwistSystem(K, k)
    d = K.rank
    shift = twisted_vacuum_weight(s)
    assert twisted_L0(s, vacuum(s, "T")) == vacuum(s, "T").scaled(shift)
    lam = (1,) + (0,) * (d - 1)
    u = ground_state(s, "T", lam)
    expect = Fraction(K.inner(lam, lam), 2 * k) + shift
    assert twisted_L0(s, u) == u.scaled(expect)
    # diagonal with eigenvalue weight(v) on a basis
    for v in weight_basis(s, "T", Fraction(3, 2)):
        assert twisted_L0(s, v) == v.scaled(weight(s, v))


def test_twisted_l0_commutator_with_modes():
    # [L(0), a^T(m)] = -m a^T(m) on sampled states
    s = TwistSystem(A1, 3)
    hvec = s.slot_embed((1,), 0)
    for v in weight_basis(s, "T", 1):
        for num in range(-4, 5):
            if num == 0:
                continue
            m = Fraction(num, 3)
            av = apply_twisted_vector_mode(s, m, hvec, v)
            lhs = twisted_L0(s, av) - apply_twisted_vector_mode(s, m, hvec, twisted_L0(s, v))
            assert lhs == av.scaled(-m)


def test_state_counts_match_generating_function():
    s = TwistSystem(A1, 2)
    counts = twisted_state_counts(s, 2)
    assert counts == {Fraction(0): 1, Fraction(1, 2): 3, Fraction(1): 4,
                      Fraction(3, 2): 7, Fraction(2): 13}


def test_slot_and_relabel():
    s = TwistSystem(A1, 3)
    cur = apply_mode(s, -1, 0, vacuum(s, "K"))
    u1 = slot_state(s, cur, 0)
    u2 = slot_state(s, cur, 1)
    assert reference.relabel_slots(s, u1, [1, 2, 0]) == u2
    assert nu_hat_state(s, u2, 1) == u1
    assert nu_hat_state(s, u1, 3) == u1
