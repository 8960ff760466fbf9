"""Series-at-once extraction for the three vertex-operator families.

One engine builds, for a pair (u, v), every coefficient of x^e in the
operator series of u applied to v, for all exponents e up to the largest one
requested, as a finite exponent-keyed table {e: {FockMono: Cyc}} with no
zero coefficient.  The operator comes prepared (`_prepare`): each
u-monomial's derivative factors and ground label are split by
`Sector.vector` and its prefactor is taken once per operator, not once per
state.  `_prepared` keeps each family's `_windows` entries for u, as long as
the system lives, in the `prepared` dict of the twisted-sector descriptor,
keyed on the family and u: one entry (None, prepared terms) on the
space-time and base-module sides, and on the worldsheet side u's window
plan, u split into its slot states, equal slot states grouped, and each
group's phase sums with its E_f operator.  The E_f operator is kept there
too, keyed on its V_K slot state w, so every generator and slot holding w
shares it.  So a warm window call hashes u's terms once and runs one
series per entry and state; nothing else it does depends
on the state.  On the space-time side
(`_spacetime_terms`) the u-monomials that differ only in the tensor slots of
their factors are merged first: each factor b_i^(p) is written in the
eta^r-eigenvectors of nu as sum_r eta^{-rp} E_{r,i}, and equal terms are
summed, so the slot sum of omega keeps only the residue pairs r + s = 0 mod
k before any mode is applied.  A monomial with no such partner, as in every
one-slot state, keeps its factors whole.  An eigen factor is a
`Sector.vector` with one nonempty residue entry and visits only the modes of
that residue.  One window loop (`_windows`) serves the space-time,
worldsheet and base-module families: it takes the operator as entries
(phase sums, prepared terms) and runs one series per entry and state.  On
the worldsheet side the phase sums are those over the slots P holding one
slot state, sum_{p in P} eta^{-pr} for each residue r of t mod k; target t
takes the one of its residue, and a target whose sum is zero is never
asked for, so omega, equal in every slot, gives one series read at t = 0
mod k.  An entry without phase sums (None) adds its series unrotated: the
space-time and base-module operators, and a slot state held in slot 0
alone.  The window functions read their modes once, onto the grid ints t of
the twisted modes t/k (`_labels`), each t under the first mode given on it,
and `_windows` keys the window, and the states it sums into, on those modes.
The twisted single-mode entry points are one-mode windows, and
`untwisted_mode` is one one-target series.  Only `_windows` and
`untwisted_mode` wrap table entries as states.
The computation enumerates the finitely many normal-ordered contributions,
so every result is exact.

Inside `_series`, a (u-monomial, v-monomial) pair with r derivative factors
has 2^r masks, the choices of which factors create.  The factors that
annihilate act first, and the table of each annihilated set is built once,
from the set without its highest factor: 2^r - 1 factor passes, not
r 2^(r-1).  A set whose table is empty is dropped, and with it every set
and mask built on it.  Each factor pass (`_factor_apply`) picks its own
modes.  With no ground label no creation exponential follows, so the last
stage (the last deferred creation factor, or the last annihilation factor
when none is deferred) applies only the modes that land on a target.

Normal ordering: creation modes and group elements act last; annihilation
and zero modes and the formal x-power of the ground label act first.

Table exponents, like modes, are ints on the sector's grid: e stands for
x^{e * step}.  The grid holds every exponent that arises.  Modes and the
orders of derivative factors are on it by construction.  So are the
offsets the coefficient engines of `coeffs` bring, whose tables are keyed
on ints too: an exp(Delta_x) key e (x^e) is k * e on the twisted grid,
and an E_f key t (x^{t/k}) is t both on the twisted grid and in V_K once
the worldsheet side raises x to the k-th power.  The power of x a group
element brings is <beta, g> in V_K and V_L, and
<t,g>/k + <t,t>/2k - <beta,beta>/2 in T for t the block sum of beta,
which lies in (1/k)Z because K and L are even.  The entry points convert
modes and exponents at the boundary and reject any off the grid.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import product
from math import factorial, gcd, prod
from operator import add

from .cocycle import TwistSystem
from .coeffs import _exp_series, ef_apply, ef_inverse_apply, exp_delta_apply
from .fock import FockMono, Sector, StateVector, _accumulate, _merge_into, slot_state


@cache
def _dcoeff(m: int, nt: int, den: int) -> tuple[int, int]:
    """Coefficient of the mode at m / den in the (nt-1)-fold derivative
    factor, (-1)^(nt-1) binom(m / den + nt - 1, nt - 1), as the reduced int
    pair (p, q), q > 0: p = (-1)^(nt-1) prod_{s=1}^{nt-1} (m + s den) and
    q = den^(nt-1) (nt-1)!."""
    p = (-1) ** (nt - 1) * prod(m + s * den for s in range(1, nt))
    q = den ** (nt - 1) * factorial(nt - 1)
    g = gcd(p, q)
    return p // g, q // g


def _positive_levels(terms: dict):
    return sorted({-n for mono in terms for n, _ in mono.grid})


# -- exponent-keyed tables {e: {FockMono: Cyc}} --------------------------------------


def _factor_apply(sector: Sector, table: dict, nt: int, vec, room=None, targets=None) -> dict:
    """A derivative factor of order nt on an exponent-keyed table.

    For every entry (e, terms) and mode m, _dcoeff(m) * h(m) terms lands at
    exponent e - m - nt * den, through Sector.mode_into, for vec the
    `Sector.vector` of h.  The modes are the zero mode and the annihilation
    modes at the levels present in the terms, or with room the creation
    modes -1, -2, ... down to the last that lands at or below room.  Skipped
    are a mode landing off targets when they are given, a mode whose residue
    entry of vec is empty (an eigen factor runs over one residue) and a mode
    whose coefficient is zero.
    """
    den = sector.den
    shift = nt * den
    out: dict = {}
    for e, terms in table.items():
        if room is None:
            modes = [0] + _positive_levels(terms)
        else:
            modes = range(-1, e - shift - room - 1, -1)
        for m in modes:
            if not vec[m % den] or targets is not None and e - m - shift not in targets:
                continue
            c = _dcoeff(m, nt, den)
            if c[0]:
                sector.mode_into(m, vec, terms, c, out.setdefault(e - m - shift, {}))
    return {e: t for e, t in out.items() if t}


def _exp_table(sector: Sector, table: dict, beta, sign: int, top=None) -> dict:
    """exp(sign * sum_{m>0} beta(-sign*m) x^{sign*m} / m) on a table, for
    beta given as its `Sector.vector`.

    sign = -1 is the annihilation exponential, over the levels present in
    the table; sign = +1 the creation exponential, kept up to x^top.  Levels
    m and exponents are in grid steps.  Each level's factor is one
    coeffs._exp_series, whose 1/t meets the level's weight sign * den / m
    as one int pair.
    """
    if sign < 0:
        levels = sorted({m for terms in table.values() for m in _positive_levels(terms)})
    else:
        levels = range(1, top - min(table) + 1)
    for m in levels:
        # sign over the level's value, m / den
        def step_into(terms, scale, e, acc, m=m, p=sign * sector.den):
            if top is None or e + sign * m <= top:
                sector.mode_into(-sign * m, beta, terms, (p * scale[0], m * scale[1]),
                                 acc.setdefault(e + sign * m, {}))
        table = _exp_series(table, step_into)
    return table


def _ground_shift(sector: Sector, table: dict, beta) -> dict:
    """The group element over beta on every entry of a table."""
    out = {}
    for e, terms in table.items():
        acc: dict = {}
        for mono, c in terms.items():
            scalar, newg = sector.ground_action(beta, mono.ground)
            _accumulate(acc, FockMono(mono.grid, tuple(newg), mono.den), c * scalar)
        if acc:
            out[e] = acc
    return out


# -- the series engine --------------------------------------------------------------


def _prepare(sector: Sector, pieces) -> list:
    """The operator sum x^offset u over the (offset, terms of u) in pieces,
    offsets in the sector's grid steps, as `_series` reads it: one
    (offset, beta, `Sector.vector` of beta or None, factors, coefficient
    times the prefactor of beta) per u-monomial over the ground label beta,
    its derivative factors given as (order, `Sector.vector`)."""
    out = []
    for offset, terms in pieces:
        for umono, c in terms.items():
            beta = umono.ground
            factors = tuple((-n, sector.vector(tuple(int(j == idx) for j in range(len(beta)))))
                            for n, idx in umono.grid)
            bvec = sector.vector(beta) if any(beta) else None
            out.append((offset, beta, bvec, factors, c * sector.prefactor(beta)))
    return out


def _prepared(system: TwistSystem, family: str, terms: frozenset, build):
    """What one family keeps for the state of `terms` (frozen items), its
    `_windows` entries or, for E_f, the prepared operator, from build() on
    the first call, kept in the twisted sector's `Sector.prepared` as long
    as the system lives.  Callers check first."""
    memo = Sector.of(system, "T").prepared
    key = (family, terms)
    found = memo.get(key)
    if found is None:
        found = memo[key] = build()
    return found


def _series(sector: Sector, terms, v: StateVector, targets) -> dict:
    """Coefficients of x^e, e in targets, of the prepared operator sum (see
    `_prepare`) applied to v, as a table; a target whose coefficient is zero
    has no entry.  Exponents and offsets are in grid steps.

    Per (u-monomial, v-monomial) pair each choice of which derivative
    factors create (the mask) annihilates with the others.  The table of
    each annihilated factor set is built once, from the table of the set
    without its highest factor, so the factors act in index order; a set
    whose table is empty is dropped with every set and mask built on it.
    The deferred creation factors then fill the table up to the largest
    target.  Tables sharing a ground label of u are summed before its
    creation exponential is applied, once, up to the largest target.  With
    no ground label nothing follows the last stage, the last deferred
    creation factor or, when none is deferred, the last annihilation factor,
    so it is handed the targets and takes only the modes that land on one.
    """
    den = sector.den
    targets = frozenset(targets)
    top = max(targets)

    # ground label of u -> (its vector, table before its creation exponential)
    pending: dict = {}
    for offset, beta, bvec, factors, scalar in terms:
        r = len(factors)
        full = (1 << r) - 1
        acc = pending.setdefault(beta, (bvec, {}))[1]
        for vmono, cv in v.terms.items():
            base_exp = offset
            if bvec:
                base_exp += sector.x_exponent(beta, vmono.ground)
            # bit t of a set is factor t; the empty set holds v's monomial
            annihilated = {0: {base_exp: {vmono: scalar * cv}}}
            for s in range(1, full + 1):
                t = s.bit_length() - 1
                table = annihilated.get(s ^ (1 << t))
                if table is None:
                    continue
                nt, vec = factors[t]
                last = s == full and not bvec
                table = _factor_apply(sector, table, nt, vec, targets=targets if last else None)
                if table:
                    annihilated[s] = table
            for mask in range(1 << r):
                table = annihilated.get(full ^ mask)
                if table is None:
                    continue
                if bvec:
                    table = _ground_shift(sector, _exp_table(sector, table, bvec, -1), beta)
                deferred = [factors[t] for t in range(r) if mask >> t & 1]
                for idx, (nt, vec) in enumerate(deferred):
                    # leave room for the least the later factors must add
                    room = top - sum(1 - nt2 * den for nt2, _ in deferred[idx + 1:])
                    last = idx == len(deferred) - 1 and not bvec
                    table = _factor_apply(sector, table, nt, vec, room, targets if last else None)
                for e, ts in table.items():
                    if e <= top:
                        _merge_into(acc.setdefault(e, {}), ts)
    out: dict = {}
    for bvec, table in pending.values():
        table = {e: ts for e, ts in table.items() if ts}
        if bvec and table:
            table = _exp_table(sector, table, bvec, +1, top)
        for e, ts in table.items():
            if e in targets:
                _merge_into(out.setdefault(e, {}), ts)
    return {e: ts for e, ts in out.items() if ts}


def _labels(system: TwistSystem, modes) -> dict:
    """{t: n} for the twisted modes n = t/k in modes, read once, each grid
    int t under the first mode given on it; an off-grid mode raises."""
    grid = Sector.of(system, "T").grid
    labels: dict = {}
    for n in modes:
        labels.setdefault(grid(n), n)
    return labels


def _windows(system: TwistSystem, name: str, entries, labels: dict, states):
    """Yields {n: state} for every (t, n) in labels and each v in states in
    turn: the twisted mode t/k is read off x^{-t-k} in
    sum sums[t mod k] (prepared terms) v over the (sums, prepared terms) in
    entries, sums None standing for 1, from one `_series` per entry and
    state that asks only for the targets whose phase sum is nonzero.
    Exponents of the terms are in grid steps of the sector `name`, 1/k in T
    and 1 in V_K once the worldsheet side raises x to the k-th power."""
    k = system.k
    sector = Sector.of(system, name)
    runs = []
    for sums, terms in entries:
        phases = None if sums is None else {t: sums[t % k] for t in labels}
        targets = [-t - k for t in labels if phases is None or not phases[t].is_zero()]
        if targets:
            runs.append((terms, phases, targets))
    for v in states:
        # each state sums straight into its own terms; _accumulate keeps no zero
        out = {n: StateVector._of(system, name, {}) for n in labels.values()}
        for terms, phases, targets in runs:
            series = _series(sector, terms, v, targets)
            for t, w in zip(labels, out.values()):
                ts = series.get(-t - k, {})
                if phases is None:
                    _merge_into(w.terms, ts)
                else:
                    for mono, c in ts.items():
                        _accumulate(w.terms, mono, c * phases[t])
        yield out


# -- the three operator families --------------------------------------------------


def untwisted_mode(system: TwistSystem, u: StateVector, n, v: StateVector) -> StateVector:
    """The coefficient u_n of the untwisted vertex operator, applied to v."""
    if u.sector != v.sector or u.sector == "T":
        raise ValueError("untwisted modes need matching untwisted sectors")
    sector = Sector.of(system, v.sector)
    e = -sector.grid(n) - 1
    table = _series(sector, _prepare(sector, [(0, u.terms)]), v, [e])
    return StateVector._of(system, v.sector, table.get(e, {}))


def _spacetime_terms(system: TwistSystem, pieces) -> list:
    """sum x^offset exp(Delta_x) u over the (offset, u) in pieces, prepared
    on the twisted grid, with exp(Delta_x) run once per piece.  Offsets are
    in steps of 1/k.

    The u-monomials are grouped by (offset, beta, the multiset of (order,
    colour)): within a group they differ only in the tensor slot of each
    factor.  A group of one monomial keeps its factors whole.  In a larger
    group each factor b_i^(p) becomes sum_r eta^{-rp} E_{r,i}, for E_{r,i}
    the residue-r entry (i, 1) of `Sector.vector`, and the expanded terms
    are summed on their sorted (order, colour, residue) factors, zero sums
    dropped.  For omega the slot sum leaves k sum_r E_{r,i} E_{-r,j}: every
    factor runs over the modes of one residue."""
    k, d = system.k, system.d
    sector = Sector.of(system, "T")
    groups: dict = {}
    for offset, u in pieces:
        for e, u_e in exp_delta_apply(system, u).items():
            for umono, c in u_e.terms.items():
                key = (offset + k * e, umono.ground,
                       tuple(sorted((-n, idx % d) for n, idx in umono.grid)))
                _accumulate(groups.setdefault(key, {}), umono, c)
    one = system.field.one()
    out = []
    for (offset, beta, _), monos in groups.items():
        if len(monos) < 2:
            # merging a lone monomial cancels nothing: it would split each
            # factor into k eigen factors and run k^(factors) series, not one
            out += _prepare(sector, [(offset, monos)])
            continue
        merged: dict = {}
        for umono, c in monos.items():
            for rs in product(range(k), repeat=len(umono.grid)):
                rp = sum(r * (idx // d) for r, (_, idx) in zip(rs, umono.grid))
                key = tuple(sorted((-n, idx % d, r) for r, (n, idx) in zip(rs, umono.grid)))
                _accumulate(merged, key, c * system.eta_pow(-rp))
        bvec = sector.vector(beta) if any(beta) else None
        for key, c in merged.items():
            factors = tuple((nt, tuple(((i, one),) if s == r else () for s in range(k)))
                            for nt, i, r in key)
            out.append((offset, beta, bvec, factors, c * sector.prefactor(beta)))
    return out


def spacetime_series_coefficient(system: TwistSystem, u: StateVector,
                                 exponent, v: StateVector) -> StateVector:
    """Coefficient of x^exponent in the space-time twisted operator of u on v."""
    # the coefficient of x^{e/k} is the mode -e/k - 1
    k = system.k
    n = Fraction(-Sector.of(system, "T").grid(exponent, "exponent") - k, k)
    return spacetime_twisted_mode(system, u, n, v)


def spacetime_twisted_windows(system: TwistSystem, u: StateVector, modes, states):
    """An iterator of {n: u^{nu-hat}_n v} for every n in modes and each v in
    states in turn, from one series of u on v, with exp(Delta_x) u computed
    once per system for all of them.  The arguments are checked on the call."""
    labels = _labels(system, modes)
    states = list(states)
    if u.sector != "L" or any(v.sector != "T" for v in states):
        raise ValueError("space-time operator maps V_L states into the twisted sector")
    entries = _prepared(system, "spacetime", frozenset(u.terms.items()),
                        lambda: [(None, _spacetime_terms(system, [(0, u)]))]) if labels else []
    return _windows(system, "T", entries, labels, states)


def spacetime_twisted_mode(system: TwistSystem, u: StateVector, n,
                           v: StateVector) -> StateVector:
    """The mode u^{nu-hat}_n of the space-time twisted operator, applied to v."""
    return next(spacetime_twisted_windows(system, u, [n], [v]))[n]


def base_module_mode(system: TwistSystem, u: StateVector, n, v: StateVector) -> StateVector:
    """The V_K-module structure carried by the twisted space: the mode u_n of
    the inverse-functor operator, computed by undoing the change of variables
    in the first slot and raising the variable to the k-th power."""
    if u.sector != "K" or v.sector != "T":
        raise ValueError("base_module_mode maps base states onto the twisted space")
    # u_n is the coefficient of x^{(-n-1)/k}, the twisted mode (n+1)/k - 1
    # on the grid int n + 1 - k, in sum_t x^{t/k} Y^{st}(w_t, x), where
    # E_f(x^{1/k})^{-1} u = sum_t x^{t/k} w_t
    t = Sector.of(system, "K").grid(n) + 1 - system.k
    entries = _prepared(system, "base", frozenset(u.terms.items()), lambda: [
        (None, _spacetime_terms(system, [(s, slot_state(system, w_s, 0))
                                         for s, w_s in ef_inverse_apply(system, u).items()]))])
    return next(_windows(system, "T", entries, {t: n}, [v]))[n]


def _split_slot(system, umono: FockMono):
    """The tensor slot of a one-slot V_L monomial and its V_K image."""
    k, d = system.k, system.d
    slots = {idx // d for _, idx in umono.grid}
    for p in range(k):
        block = umono.ground[p * d:(p + 1) * d]
        if any(block):
            slots.add(p)
    if not slots:
        slots = {0}
    if len(slots) != 1:
        raise ValueError("state is not supported in a single tensor slot")
    p = slots.pop()
    # within one slot the colour map idx -> idx % d is increasing
    grid = tuple((t, idx % d) for t, idx in umono.grid)
    return p, FockMono(grid, umono.ground[p * d:(p + 1) * d], 1)


def _slot_states(system: TwistSystem, u: StateVector) -> dict:
    """The distinct V_K slot states w of u, as {frozen terms of w: (terms of
    w, the slots holding w)}; a monomial in two slots raises."""
    by_slot: dict[int, dict] = {}
    for umono, cu in u.terms.items():
        p, kmono = _split_slot(system, umono)
        by_slot.setdefault(p, {})[kmono] = cu
    by_state: dict = {}
    for p, kterms in by_slot.items():
        by_state.setdefault(frozenset(kterms.items()), (kterms, []))[1].append(p)
    return by_state


def _worldsheet_plan(system: TwistSystem, u: StateVector) -> list:
    """The `_windows` entries of u's worldsheet operator: per distinct slot
    state w, the phase sums sum_{p in P} eta^{-pr}, r = 0..k-1, over the
    slots P holding w (None for slot 0 alone), and w's operator, prepared
    once per system whichever u holds w.  u_n, n = t/k, is the coefficient
    of x^{-t-k} in sum_s x^s Y(w_s, x), E_f(x^{1/k}) w = sum_s x^{s/k} w_s,
    rotated by those phases."""
    k = system.k
    sector = Sector.of(system, "K")
    plan = []
    for key, (kterms, ps) in _slot_states(system, u).items():
        def build(kterms=kterms):
            corrected = ef_apply(system, StateVector(system, "K", kterms))
            return _prepare(sector, [(s, w_s.terms) for s, w_s in corrected.items()])
        sums = None if ps == [0] else [reduce(add, (system.eta_pow(-p * r) for p in ps))
                                       for r in range(k)]
        plan.append((sums, _prepared(system, "E_f", key, build)))
    return plan


def worldsheet_twisted_windows(system: TwistSystem, u: StateVector, modes, states):
    """An iterator of {n: u_n v} for the change-of-variables twisted operator,
    every n in modes and each v in states in turn, from one series per
    distinct slot state w of u, prepared with E_f once per w and system,
    whichever slots hold w.  The arguments are checked on the call.

    u must be a sum of one-slot states (a V_K state in one tensor factor,
    vacua elsewhere); general tensor products are outside this entry point.
    """
    labels = _labels(system, modes)
    states = list(states)
    if u.sector != "L" or any(v.sector != "K" for v in states):
        raise ValueError("worldsheet operator takes V_L states acting on V_K")
    if labels:
        plan = _prepared(system, "worldsheet", frozenset(u.terms.items()),
                         lambda: _worldsheet_plan(system, u))
    else:
        # an empty window prepares nothing, but u is still checked
        _slot_states(system, u)
        plan = []
    return _windows(system, "K", plan, labels, states)


def worldsheet_twisted_mode(system: TwistSystem, u: StateVector, n,
                            v: StateVector) -> StateVector:
    """The mode of the change-of-variables twisted operator, applied to v in V_K;
    u as in worldsheet_twisted_windows."""
    return next(worldsheet_twisted_windows(system, u, [n], [v]))[n]
