"""State spaces and Heisenberg/Virasoro actions.

Three sectors share one representation:

* ``"K"``   -- the base space V_K (integer modes, K ground labels),
* ``"L"``   -- V_L = V_K tensor ... tensor V_K (integer modes, L labels),
* ``"T"``   -- the twisted space S[nu] (x) C[P0 L] (modes in (1/k)Z, ground
  labels stored as their K-image under (1/k)(a,...,a) <-> a).

They differ only in a lattice (K, L, K), a grid step (1, 1, 1/k) and a
vacuum weight (0, 0, d(k^2-1)/24k).  `Sector` holds that difference and what
follows from it (pairing, zero-mode eigenvalues, weights, grid check, the
vertex-operator hooks); it is the only code that branches on the sector.

L(j), half the dual-basis quadratic over the nonzero entries of the inverse
Gram matrix (`Sector.dual_form`), acts through one routine,
`_virasoro_into`, by its commutator [L(j), b(t)] = -t u^2 b(t + j) with
each mode of a monomial and then on the ground state (t and j in grid
steps, u the step in T and 1 in K and L).  It serves
`virasoro_L`, the twisted degree operator, the conformal vector L(-2) 1 and
E_f in `coeffs`.  Delta_x, the other quadratic, has no creation mode:
`coeffs` contracts a monomial's own modes through K's Gram matrix.

A monomial is a multiset of creation modes over a fixed mode basis plus a
ground label; states are finite linear combinations with Cyc coefficients.
In T the colour i at the mode t/k is the first-block generator b_i
projected onto the eta^t-eigenspace of the shift.  A vector h of L acts
there through its projection h_(r), r = t mod k, and `Sector.vector` writes
each h_(r) in those generators once, so no mode action projects.

Modes are stored on their sector's grid: the mode t * step is the int t.
The twisted mode b(t/k) and the base mode b(t) under the isomorphism F
carry the same int.  Mode actions, bases and monomial equality and hashing
run on ints, and `FockMono` is built from ints; only the public readers
(`FockMono.modes`, `level`, `repr`) and the public entry points see mode
values, and only `Sector.grid` reads one onto the grid.  In
the sector the pairing of b_i and b_j is the Gram entry times step, so
[b_i(s step), b_j(-s step)] is s times the Gram entry times step^2: that
product is the pairing on the grid.

Rational weights stay ints until they meet a state coefficient.  Over
den = 1/step, the pairing on the grid is the int Gram entry over den^2,
the zero-mode eigenvalue <b_i, g> over den, and the dual form its int
entries over det, the determinant of the lattice; a scale arrives as an
int pair (p, q) for p/q.  `Sector.mode_into` is the one mode action: it
inserts a creation mode itself, and one routine, `_lowered`, gives the
terms and int weights of every other mode, for it and for each raised
mode in `_virasoro_into`.  Both multiply an output coefficient once, by
`Cyc._scale` with one gcd (`_virasoro_into` after summing the weights of
each output monomial); a unit weight multiplies nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

from .cocycle import SECTION_PLAIN, SECTION_TWISTED, TwistSystem
from .exact import Cyc

SECTORS = ("K", "L", "T")


class FockMono(namedtuple("FockMono", "grid ground den")):
    """Immutable monomial: sorted creation modes and a ground label.

    `grid` holds the modes as sorted (t, colour) int pairs, the mode being
    t / den for den the denominator of the sector's grid step (1, or k in
    the twisted sector); `modes` reads them as mode values.  The constructor
    takes the grid pairs already sorted and the ground label as a tuple;
    `StateVector.monomial` builds a state from mode values.
    """

    __slots__ = ()

    @property
    def modes(self) -> tuple:
        """The (mode, colour) pairs, each mode a Fraction."""
        den = self.den
        return tuple((Fraction(t, den), i) for t, i in self.grid)

    def level(self) -> Fraction:
        return Fraction(-sum(t for t, _ in self.grid), self.den)

    def __repr__(self):
        parts = [f"b{i}({n})" for n, i in self.modes]
        parts.append(f"e{self.ground}")
        return "*".join(parts)


class StateVector:
    """Finite Cyc-linear combination of Fock monomials in one sector."""

    __slots__ = ("system", "sector", "terms")

    def __init__(self, system: TwistSystem, sector: str, terms=None):
        if sector not in SECTORS:
            raise ValueError(f"unknown sector {sector!r}")
        self.system = system
        self.sector = sector
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if not c.is_zero():
                    self.terms[mono] = c

    # -- construction helpers ----------------------------------------------

    @classmethod
    def monomial(cls, system, sector, modes, ground):
        """The monomial of the (mode, colour) pairs `modes` on `ground`; an
        off-grid or non-creation (n >= 0) mode, an unknown colour or a
        wrong-length ground raises."""
        desc = Sector.of(system, sector)
        ground = tuple(ground)
        if len(ground) != desc.lattice.rank:
            raise ValueError(f"ground label {ground} needs {desc.lattice.rank} entries")
        grid = tuple(sorted((desc.grid(n), desc.colour(i)) for n, i in modes))
        if grid and grid[-1][0] >= 0:
            raise ValueError(f"mode {Fraction(grid[-1][0], desc.den)} is not a creation mode")
        return cls._of(system, sector, {FockMono(grid, ground, desc.den): system.field.one()})

    @classmethod
    def _of(cls, system, sector, terms: dict) -> "StateVector":
        """A state owning `terms`, which must hold no zero coefficient."""
        self = object.__new__(cls)
        self.system = system
        self.sector = sector
        self.terms = terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.system is not other.system or self.sector != other.sector:
            raise ValueError("sector mismatch")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _merge_into(out, other.terms)
        return StateVector._of(self.system, self.sector, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, -c)
        return StateVector._of(self.system, self.sector, out)

    def __neg__(self):
        return StateVector._of(self.system, self.sector,
                               {m: -x for m, x in self.terms.items()})

    def scaled(self, c) -> "StateVector":
        """c times the state, for c an int, a Fraction or a Cyc.  Q(zeta) has
        no zero divisors, so a nonzero c leaves every coefficient nonzero."""
        if c == 0:
            return StateVector(self.system, self.sector)
        if isinstance(c, (int, Fraction)):
            p, q = c.numerator, c.denominator
            terms = {m: x._scale(p, q) for m, x in self.terms.items()}
        else:
            terms = {m: x * c for m, x in self.terms.items()}
        return StateVector._of(self.system, self.sector, terms)

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.sector == other.sector and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (m.grid, m.ground)):
            bits.append(f"({self.terms[mono]})*{mono}")
        return " + ".join(bits)


def _max_level(terms) -> int:
    """The largest level of a monomial in terms, in grid steps."""
    return max((-sum(t for t, _ in m.grid) for m in terms), default=0)


def vacuum(system, sector) -> StateVector:
    return StateVector.monomial(system, sector, (), (0,) * Sector.of(system, sector).lattice.rank)


class Sector:
    """The Fock-level data of one sector; `Sector.of` keeps one per system and
    sector name."""

    __slots__ = ("system", "twisted", "lattice", "den", "step", "vacuum_weight", "dual_form",
                 "prepared")

    def __init__(self, system: TwistSystem, name: str):
        if name not in SECTORS:
            raise ValueError(f"unknown sector {name!r}")
        self.system = system
        self.twisted = name == "T"
        self.lattice = system.L if name == "L" else system.K
        self.den = system.k if self.twisted else 1
        self.step = Fraction(1, self.den)
        self.vacuum_weight = twisted_vacuum_weight(system) if self.twisted else Fraction(0)
        # the nonzero entries f = det * ginv[a][b], ints, of the symmetric
        # inverse Gram matrix as (b, ((a, f), ...)): the dual-basis quadratic
        # sum (f / det) b_a b_b
        det = self.lattice.det
        self.dual_form = tuple((b, tuple((a, int(f * det)) for a, f in enumerate(row) if f))
                               for b, row in enumerate(self.lattice.gram_inverse()))
        # in T: (family, frozen terms of u) -> the vertexops._windows entries
        # of u's operator, and ("E_f", frozen terms of a V_K slot state w) ->
        # w's prepared operator; see vertexops._prepared
        self.prepared: dict = {}

    @classmethod
    def of(cls, system: TwistSystem, name: str) -> "Sector":
        """The descriptor of sector `name`, built on first use."""
        table = system.__dict__.setdefault("_sectors", {})
        return table.get(name) or table.setdefault(name, cls(system, name))

    # -- grid and weights ------------------------------------------------------

    def grid(self, x, what: str = "mode") -> int:
        """The int t with x = t * step; an x off the sector's grid raises."""
        if isinstance(x, int):
            return x * self.den
        if not isinstance(x, Fraction):
            x = Fraction(x)
        t, rem = divmod(self.den, x.denominator)
        if rem:
            if self.twisted:
                raise ValueError(f"{what} {x} not in (1/k)Z")
            raise ValueError(f"fractional {what} {x} in untwisted sector: {what}s are integral")
        return x.numerator * t

    def colour(self, i) -> int:
        """i, if it is a colour of the sector's mode basis; otherwise raises."""
        if i not in range(self.lattice.rank):
            raise ValueError(f"colour {i} not in range({self.lattice.rank})")
        return i

    def eigenvalue(self, i, ground) -> int:
        """The eigenvalue of the zero mode b_i(0) on the ground label g times
        den: the int <b_i, g>."""
        return sum(x * g for x, g in zip(self.lattice.gram[i], ground))

    def ground_weight(self, ground) -> Fraction:
        """<g, g> * step / 2 plus the vacuum weight."""
        return self.lattice.inner(ground, ground) * self.step / 2 + self.vacuum_weight

    def mono_weight(self, mono: FockMono) -> Fraction:
        return mono.level() + self.ground_weight(mono.ground)

    # -- hooks of the vertex-operator engine -------------------------------------

    def vector(self, coords) -> tuple:
        """A vector h given by mode-basis coordinates, split by residue: entry
        r lists the (colour, coefficient) pairs with a nonzero coefficient
        of h at the modes n * step with n = r mod den.

        In T the coordinates are ambient L coordinates and entry r holds
        sum_p h_{p,i} eta^{-rp}: k times the first block of the projection
        h_(r) onto the eta^r-eigenspace of the shift.  In K and L the one
        entry holds the nonzero coordinates."""
        rank = self.system.L.rank if self.twisted else self.lattice.rank
        if len(coords) != rank:
            raise ValueError(f"vector {tuple(coords)} needs {rank} coordinates")
        if not self.twisted:
            return (tuple((i, c) for i, c in enumerate(coords) if c != 0),)
        s = self.system
        k, d = s.k, s.d
        split = []
        for r in range(k):
            sums = [sum((s.eta_pow(-r * p) * coords[p * d + i] for p in range(k)
                         if coords[p * d + i] != 0), s.field.zero()) for i in range(d)]
            split.append(tuple((i, c) for i, c in enumerate(sums) if not c.is_zero()))
        return tuple(split)

    def mode_into(self, n: int, vec, terms: dict, scale: tuple, out: dict) -> None:
        """Add p/q * h(n * step) applied to `terms` into the accumulator
        `out`, for scale = (p, q), q > 0, and `vec` h split by residue as
        `Sector.vector` splits it: the one mode action of the Fock layer.

        Each coefficient (1, an int, a Fraction or a Cyc) meets the scale
        once.  A creation mode is inserted here, and every other mode's
        terms come from `_lowered`; each output coefficient then takes one
        `Cyc._scale`, or one product for a Cyc coefficient.  `terms` holds
        no zero coefficient, so a zero arises only by cancellation in `out`,
        which drops it."""
        p, q = scale
        den = self.den
        d2 = den * den
        for i, c in vec[n % den]:
            cyc = None
            # a coefficient 1, as on a unit vector, leaves the scale as it is
            if c == 1:
                a, b = p, q
            elif isinstance(c, int):
                a, b = c * p, q
            elif isinstance(c, Fraction):
                a, b = c.numerator * p, c.denominator * q
            else:
                cyc = c._scale(p, q)
            if n < 0:
                key = (n, i)
                for mono, x in terms.items():
                    modes = mono.grid
                    at = bisect_right(modes, key)
                    new = FockMono(modes[:at] + (key,) + modes[at:], mono.ground, den)
                    _accumulate(out, new, x._scale(a, b) if cyc is None else x * cyc)
                continue
            for mono, x in terms.items():
                g = mono.ground
                for grid, h in _lowered(self, n, i, mono.grid, 0, g):
                    _accumulate(out, FockMono(grid, g, den),
                                x._scale(a * h, b * d2) if cyc is None else x * cyc._scale(h, d2))

    def x_exponent(self, beta, ground) -> int:
        """The power of x the group element over beta brings on a ground label,
        in grid steps."""
        s = self.system
        if self.twisted:
            # <t,g>/k + <t,t>/2k - <beta,beta>/2 lies in (1/k)Z because K and
            # L are even
            t = s.tot(beta)
            twice = 2 * s.K.inner(t, ground) + s.K.inner(t, t) - s.k * s.L.inner(beta, beta)
            if twice % 2:
                raise ValueError(f"exponent {Fraction(twice, 2 * s.k)} not in (1/k)Z")
            return twice // 2
        return self.lattice.inner(beta, ground)

    def ground_action(self, beta, ground):
        """(scalar, new_ground) for the group element over beta."""
        s = self.system
        if self.twisted:
            elem = s.ext_from_base(beta, SECTION_TWISTED)
            return s.ut_action(elem, ground)
        phase = s.eps_exponent(SECTION_PLAIN, beta, ground)
        newg = tuple(x + y for x, y in zip(beta, ground))
        return s.eta0_pow(phase), newg

    def prefactor(self, beta) -> Cyc:
        """The scalar in front of the vertex operator of the ground label beta."""
        s = self.system
        if self.twisted:
            norm = s.L.inner(beta, beta)
            return s.sigma(beta) * Fraction(s.k) ** (-(norm // 2))
        return s.field.one()


def _accumulate(out: dict, mono: FockMono, c) -> None:
    """Add c * mono into an accumulator {FockMono: Cyc}, dropping a sum that
    cancels; c itself is nonzero."""
    s = out.get(mono)
    if s is None:
        out[mono] = c
    else:
        s = s + c
        if s.is_zero():
            del out[mono]
        else:
            out[mono] = s


def _merge_into(out: dict, terms: dict) -> None:
    """Add the terms of one state into an accumulator."""
    for mono, c in terms.items():
        _accumulate(out, mono, c)


def _lowered(sector: Sector, s: int, i, modes: tuple, start: int, ground) -> list:
    """b_i(s * step), s >= 0, on the sorted grid `modes` over `ground`: the
    (grid, h) pairs of its terms, each of weight h / den^2.

    For s > 0 each run of modes at -s from index `start` on contracts, with
    weight s times the Gram entry times the run's length; for s = 0 the grid
    stays, with weight den * <b_i, g>.  A zero weight brings no term."""
    if not s:
        ev = sector.eigenvalue(i, ground)
        return [(modes, sector.den * ev)] if ev else []
    row, m = sector.lattice.gram[i], -s
    end = len(modes)
    at = bisect_left(modes, (m,), start)
    out = []
    # the modes at -s are contiguous, one run per colour
    while at < end and modes[at][0] == m:
        nxt = at + 1
        while nxt < end and modes[nxt] == modes[at]:
            nxt += 1
        pair = row[modes[at][1]]
        if pair:
            out.append((modes[:at] + modes[at + 1:], s * pair * (nxt - at)))
        at = nxt
    return out


def apply_mode(system, n, i, sv: StateVector) -> StateVector:
    """Apply the basis mode b_i(n): creation, annihilation or zero mode."""
    sector = Sector.of(system, sv.sector)
    out = {}
    vec = (((sector.colour(i), 1),),) * sector.den
    sector.mode_into(sector.grid(n), vec, sv.terms, (1, 1), out)
    return StateVector._of(system, sv.sector, out)


def apply_vector_mode(system, n, coords, sv: StateVector) -> StateVector:
    """Apply h(n) for h given by its coordinates (ints, Fractions or Cycs) in
    the sector's mode basis: in T the first-block generators b_i, so h is
    taken as it is, not projected (`apply_twisted_vector_mode` takes ambient
    L coordinates)."""
    sector = Sector.of(system, sv.sector)
    if len(coords) != sector.lattice.rank:
        raise ValueError(f"vector {tuple(coords)} needs {sector.lattice.rank} coordinates")
    out = {}
    vec = (tuple((i, c) for i, c in enumerate(coords) if c != 0),) * sector.den
    sector.mode_into(sector.grid(n), vec, sv.terms, (1, 1), out)
    return StateVector._of(system, sv.sector, out)


def apply_twisted_vector_mode(system, n, h_coords, sv: StateVector) -> StateVector:
    """Apply h(n) on the twisted space for h given by ambient L coordinates:
    the projection of h onto the eigenspace that n selects."""
    if sv.sector != "T":
        raise ValueError("apply_twisted_vector_mode acts on the twisted sector")
    sector = Sector.of(system, "T")
    out = {}
    sector.mode_into(sector.grid(n), sector.vector(h_coords), sv.terms, (1, 1), out)
    return StateVector._of(system, "T", out)


# -- weights ---------------------------------------------------------------


def twisted_vacuum_weight(system) -> Fraction:
    k, d = system.k, system.d
    return Fraction((k * k - 1) * d, 24 * k)


def weight(system, sv: StateVector) -> Fraction:
    """The common L(0)-weight of a homogeneous state (error if mixed)."""
    if sv.is_zero():
        raise ValueError("weight of the zero vector is undefined")
    ws = set(map(Sector.of(system, sv.sector).mono_weight, sv.terms))
    if len(ws) != 1:
        raise ValueError(f"state not homogeneous: weights {sorted(ws)}")
    return ws.pop()


# -- distinguished states ----------------------------------------------------


def omega_state(system, sector) -> StateVector:
    """The conformal vector L(-2) 1: half the dual-basis quadratic in modes (-1)."""
    if sector == "T":
        raise ValueError("conformal vector lives in an untwisted sector")
    one = vacuum(system, sector)
    out = {}
    _virasoro_into(Sector.of(system, sector), -2, one.terms, (1, 1), out)
    return StateVector._of(system, sector, out)


def ground_state(system, sector, vec) -> StateVector:
    return StateVector.monomial(system, sector, (), vec)


def slot_state(system, v: StateVector, slot: int) -> StateVector:
    """Embed a V_K state into V_L with all other tensor factors the vacuum."""
    if v.sector != "K":
        raise ValueError("slot embedding takes a V_K state")
    d = system.d
    out = {}
    for mono, c in v.terms.items():
        # the colour map i -> slot * d + i is increasing: the grid stays sorted
        grid = tuple((t, slot * d + i) for t, i in mono.grid)
        out[FockMono(grid, tuple(system.slot_embed(mono.ground, slot)), 1)] = c
    return StateVector._of(system, "L", out)


def nu_hat_state(system, v: StateVector, power: int = 1) -> StateVector:
    """The lifted shift acting on V_L (modes rotate; grounds move by the lift)."""
    if v.sector != "L":
        raise ValueError("the lifted shift acts on V_L")
    k, d = system.k, system.d
    p = power % k
    out = {}
    for mono, c in v.terms.items():
        grid = tuple(sorted((t, ((i // d - p) % k) * d + i % d) for t, i in mono.grid))
        g2 = system.nu_hat(system.ext_from_base(mono.ground, SECTION_PLAIN), p)
        _accumulate(out, FockMono(grid, tuple(g2.base), 1),
                    c * system.eta0_pow(g2.phase))
    return StateVector._of(system, "L", out)


# -- Virasoro ----------------------------------------------------------------


def virasoro_L(system, j, sv: StateVector) -> StateVector:
    """L(j) on V_K; a fractional j raises."""
    if sv.sector != "K":
        raise ValueError("virasoro_L acts on the base sector")
    sector = Sector.of(system, "K")
    out = {}
    _virasoro_into(sector, sector.grid(j), sv.terms, (1, 1), out)
    return StateVector._of(system, "K", out)


def _virasoro_into(sector: Sector, j: int, terms: dict, scale: tuple, out: dict) -> None:
    """Add p/q * L(j) applied to `terms` into out, for scale = (p, q), q > 0;
    j is in grid steps.

    L(j) is half the dual-basis quadratic over the modes summing to j, in
    normal order.  On a monomial b_1 ... b_n |g> it acts through
    [L(j), b_c(t)] = -t u^2 b_c(t + j), u the step in T and 1 in K and L,
    on each mode in grid order, and then on |g>.  The mode b_c(t + j) is a
    creation mode, or an annihilation mode that contracts with the modes
    after it only (those before it commute past), or the zero mode, both
    through `_lowered`.  On |g>, L(j) vanishes for j > 0, is u^2 <g, g> / 2
    for j = 0, and for j < 0 is sum_a u g_a b_a(j) plus half the dual-basis
    quadratic over the pairs of negative modes (j - n, n).  So L(0) keeps
    each monomial and scales it by one summed weight.  Every weight is an
    int over W = 2 det den^4, u = 1/den; the weights of one monomial are
    summed per output grid before its coefficient meets p w / (q W) once."""
    p, q = scale
    den = sector.den
    det = sector.lattice.det
    d2, d4 = den * den, den ** 4
    # W times u^2 and u: the weights of a creation and a ground current; a
    # lowered mode's h / den^2 times u^2 is h 2 det over W
    w2, w1 = 2 * det * d2, 2 * det * den ** 3
    qW = q * 2 * det * d4
    # L(j)|0> for j < 0, the quadratic part of every L(j)|g>: {grid: weight};
    # f / (2 det) is f den^4 over W
    pairs: dict = {}
    for n in range(j + 1, 0):
        for b, row in sector.dual_form:
            for a, f in row:
                grid = tuple(sorted(((j - n, a), (n, b))))
                pairs[grid] = pairs.get(grid, 0) + f * d4
    quadratic = list(pairs.items())
    for mono, c in terms.items():
        modes, g = mono.grid, mono.ground
        if j == 0:
            # L(0) keeps every mode: -t u^2 each, and u^2 <g, g> / 2, which
            # is <g, g> det den^2 over W, on |g>
            w = -sum(t for t, _ in modes) * w2 + sector.lattice.inner(g, g) * det * d2
            if w:
                _accumulate(out, mono, c._scale(p * w, qW))
            continue
        weights: dict = {}      # output grid -> summed int weight
        for pos, (t, i) in enumerate(modes):
            s = t + j
            rest = modes[:pos] + modes[pos + 1:]
            if s < 0:
                key = (s, i)
                at = bisect_right(rest, key)
                new = rest[:at] + (key,) + rest[at:]
                weights[new] = weights.get(new, 0) - t * w2
                continue
            for new, h in _lowered(sector, s, i, rest, pos, g):
                weights[new] = weights.get(new, 0) - t * h * 2 * det
        if j < 0:
            current = [(((j, a),), x * w1) for a, x in enumerate(g) if x]
            for extra, w in current + quadratic:
                new = tuple(sorted(modes + extra))
                weights[new] = weights.get(new, 0) + w
        for grid, w in weights.items():
            if w:
                _accumulate(out, FockMono(grid, g, den), c._scale(p * w, qW))


def twisted_L0(system, sv: StateVector) -> StateVector:
    """The degree operator on the twisted sector: the vacuum weight plus k
    times the mode sum L(0), whose pairing on the grid is gram / k^2."""
    if sv.sector != "T":
        raise ValueError("twisted_L0 acts on the twisted sector")
    sector = Sector.of(system, "T")
    vac = sector.vacuum_weight
    p, q = vac.numerator, vac.denominator
    out = {mono: c._scale(p, q) for mono, c in sv.terms.items()} if p else {}
    _virasoro_into(sector, 0, sv.terms, (system.k, 1), out)
    return StateVector._of(system, "T", out)


# -- weight-graded bases -------------------------------------------------------


def _mode_multisets(top: int, budget: int, ncolors: int):
    """Sorted grids of creation modes at levels 1..top, ncolors colours each,
    of total level <= budget; levels in grid steps."""
    if top == 0:
        yield ()
        return
    for mult in range(budget // top + 1):
        for colors in combinations_with_replacement(range(ncolors), mult):
            head = tuple((-top, c) for c in colors)
            for tail in _mode_multisets(top - 1, budget - mult * top, ncolors):
                yield head + tail


def weight_basis(system, sector, max_weight) -> list[StateVector]:
    """All monomial basis states of weight <= max_weight, sorted by weight."""
    max_weight = Fraction(max_weight)
    desc = Sector.of(system, sector)
    den, ncolors = desc.den, desc.lattice.rank
    # a ground label g has weight <g, g> * step / 2 + vacuum weight
    ground_bound = (max_weight - desc.vacuum_weight) * den
    if ground_bound < 0:
        return []
    out = []
    for g in desc.lattice.enumerate_up_to_norm(ground_bound):
        # the level left for the modes, in grid steps (at least 0)
        budget = int((max_weight - desc.ground_weight(g)) * den)
        for grid in _mode_multisets(budget, budget, ncolors):
            mono = FockMono(grid, g, den)
            out.append(StateVector._of(system, sector, {mono: system.field.one()}))
    out.sort(key=lambda s: (weight(system, s),
                            next(iter(s.terms)).grid,
                            next(iter(s.terms)).ground))
    return out


def twisted_state_counts(system, max_reduced_weight) -> dict[Fraction, int]:
    """Number of twisted basis states per reduced weight (no vacuum shift)."""
    shift = twisted_vacuum_weight(system)
    counts: dict[Fraction, int] = {}
    for s in weight_basis(system, "T", Fraction(max_reduced_weight) + shift):
        w = weight(system, s) - shift
        if w <= max_reduced_weight:
            counts[w] = counts.get(w, 0) + 1
    return counts
