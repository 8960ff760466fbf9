"""Central extensions of L = K^(+k) by <eta0> and the associated data.

TwistSystem bundles everything the twisted-module constructions consume:
the lattice L with its cyclic block shift, the field Q(zeta_2k), both
central extensions (commutator maps C0 and C) realized through concrete
bimultiplicative sections, the lift of the shift to the extensions, the
character tau on the degree-zero subgroup, and the scalar sigma.

Phases are stored as integer exponents of eta0 (mod its order) and turned
into field elements only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Cyc, CycField
from .lattice import Lattice, LatticeError

SECTION_PLAIN = "plain"      # commutator map C0
SECTION_TWISTED = "twisted"  # commutator map C


@dataclass(frozen=True)
class CentralElem:
    """An element of a central extension: base vector and eta0-phase exponent."""
    base: tuple[int, ...]
    phase: int
    section: str


class TwistSystem:
    """All extension data for (K, k) with the cyclic block shift."""

    def __init__(self, K: Lattice, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.K = K
        self.k = k
        self.d = K.rank
        self.L = K.direct_sum_power(k)
        self.field = CycField(2 * k)
        self.eta = self.field.zeta(2)          # fixed primitive k-th root of unity
        if k % 2:
            self.eta0 = self.field.zeta(k + 2)  # eta0 = -eta, order 2k
            self.phase_order = 2 * k
            inv = pow(k + 2, -1, 2 * k)
            self.exp_minus1 = (k * inv) % (2 * k)     # eta0^this = -1
            self.exp_eta = (2 * inv) % (2 * k)        # eta0^this = eta
        else:
            self.eta0 = self.eta                      # eta0 = eta, order k
            self.phase_order = k
            self.exp_minus1 = k // 2
            self.exp_eta = 1 % k
        rank = self.L.rank
        self._basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        self._eps = {
            SECTION_PLAIN: self._build_plain_section(),
            SECTION_TWISTED: None,  # filled below, needs the plain one
        }
        self._eps[SECTION_TWISTED] = self._build_twisted_section()
        self._lift = {s: self._build_lift(s) for s in (SECTION_PLAIN, SECTION_TWISTED)}
        self._eta0_cache = [self.eta0 ** s for s in range(self.phase_order)]
        self._tau_cache: dict[tuple[int, ...], tuple[int, Fraction]] = {}

    def __repr__(self):
        return f"TwistSystem(K={self.K!r}, k={self.k})"

    # -- scalar helpers ------------------------------------------------------

    def eta0_pow(self, s: int) -> Cyc:
        return self._eta0_cache[s % self.phase_order]

    def eta_pow(self, s: int) -> Cyc:
        return self.field.zeta((2 * s) % (2 * self.k))

    def nu(self, coords, power: int = 1):
        """nu^power: (a_1, ..., a_k) -> (a_2, ..., a_k, a_1) block-wise."""
        k, d = self.k, self.d
        if len(coords) != k * d:
            raise LatticeError("rank mismatch in shift")
        p = power % k
        if p == 0:
            return tuple(coords)
        return tuple(coords[((q + p) % k) * d + i] for q in range(k) for i in range(d))

    def tot(self, coords) -> tuple:
        """Sum of the k blocks, a K-vector."""
        k, d = self.k, self.d
        return tuple(sum(coords[p * d + i] for p in range(k)) for i in range(d))

    def diag_embed(self, kvec) -> tuple[int, ...]:
        """(alpha, alpha, ..., alpha) for alpha in K."""
        return tuple(kvec[i] for _ in range(self.k) for i in range(self.d))

    def slot_embed(self, kvec, slot: int = 0) -> tuple[int, ...]:
        """alpha placed in one block, zeros elsewhere."""
        out = [0] * self.L.rank
        for i, x in enumerate(kvec):
            out[slot * self.d + i] = x
        return tuple(out)

    def rep_vector(self, lam) -> tuple[int, ...]:
        """The chosen representative (lam, 0, ..., 0) of the coset of lam."""
        return self.slot_embed(lam, 0)

    # -- commutator maps -----------------------------------------------------

    def commutator_C0(self, alpha, beta) -> Cyc:
        """C0(alpha, beta) = (-1)^<alpha,beta>."""
        return self.eta0_pow(self.exp_minus1 * self.L.inner(alpha, beta))

    def commutator_C(self, alpha, beta) -> Cyc:
        """C(alpha, beta), the product of (-eta^j)^<nu^j alpha, beta>."""
        return self.eta0_pow(self._c_exponent(alpha, beta))

    def _c_exponent(self, alpha, beta) -> int:
        e = 0
        for j in range(self.k):
            ip = self.L.inner(self.nu(alpha, j), beta)
            e += (self.exp_minus1 + self.exp_eta * j) * ip
        return e % self.phase_order

    def ident_scalar_exponent(self, alpha, beta) -> int:
        """eta0-exponent of the scalar relating the two group laws."""
        e = 0
        j = 1
        while 2 * j < self.k:
            ip = self.L.inner(self.nu(alpha, -j), beta)
            e += (self.exp_minus1 + self.exp_eta * j) * ip
            j += 1
        return e % self.phase_order

    # -- sections ------------------------------------------------------------

    def _build_plain_section(self):
        # eps(b_i, b_j) = 0 for i <= j, commutator exponent for i > j;
        # bimultiplicative extension is matrix evaluation.
        rank = self.L.rank
        mat = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i):
                mat[i][j] = (self.exp_minus1 * self.L.gram[i][j]) % self.phase_order
        return mat

    def _build_twisted_section(self):
        # Chosen so the identity map realizes the set-theoretic identification:
        # eps_twisted = eps_plain - (exponent of the identification scalar).
        rank = self.L.rank
        plain = self._eps[SECTION_PLAIN]
        mat = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            bi = self._basis[i]
            for j in range(rank):
                e = self.ident_scalar_exponent(bi, self._basis[j])
                mat[i][j] = (plain[i][j] - e) % self.phase_order
        return mat

    def eps_exponent(self, section: str, alpha, beta) -> int:
        """The section 2-cocycle as an eta0-exponent, bimultiplicative."""
        mat = self._eps[section]
        e = 0
        for i, ai in enumerate(alpha):
            if ai == 0:
                continue
            row = mat[i]
            for j, bj in enumerate(beta):
                if bj and row[j]:
                    e += ai * bj * row[j]
        return e % self.phase_order

    # -- group operations ------------------------------------------------------

    def ext_from_base(self, base, section: str, phase: int = 0) -> CentralElem:
        return CentralElem(tuple(base), phase % self.phase_order, section)

    def ext_mul(self, a: CentralElem, b: CentralElem) -> CentralElem:
        if a.section != b.section:
            raise ValueError("section mismatch")
        base = tuple(x + y for x, y in zip(a.base, b.base))
        phase = (a.phase + b.phase + self.eps_exponent(a.section, a.base, b.base))
        return CentralElem(base, phase % self.phase_order, a.section)

    def ext_inv(self, a: CentralElem) -> CentralElem:
        base = tuple(-x for x in a.base)
        phase = (-a.phase + self.eps_exponent(a.section, a.base, a.base))
        return CentralElem(base, phase % self.phase_order, a.section)

    def ext_commutator(self, a: CentralElem, b: CentralElem) -> Cyc:
        w = self.ext_mul(self.ext_mul(a, b), self.ext_mul(self.ext_inv(a), self.ext_inv(b)))
        if any(w.base):
            raise AssertionError("commutator not central")
        return self.eta0_pow(w.phase)

    # -- the lift of the shift -------------------------------------------------

    def _build_lift(self, section: str):
        # nu-hat(base, s) = (nu base, s + phi(base) + rho(base)) where the
        # quadratic phi repairs the homomorphism defect of section transport
        # and the homomorphism rho makes the diagonal pointwise fixed.
        rank, order = self.L.rank, self.phase_order
        dmat = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            ni = self.nu(self._basis[i])
            for j in range(rank):
                nj = self.nu(self._basis[j])
                dmat[i][j] = (self.eps_exponent(section, ni, nj)
                              - self.eps_exponent(section, self._basis[i], self._basis[j])) % order

        def phi(coords):
            e = 0
            for i, ai in enumerate(coords):
                if ai == 0:
                    continue
                e += (ai * (ai - 1) // 2) * dmat[i][i]
                for j in range(i + 1, rank):
                    if coords[j]:
                        e += ai * coords[j] * dmat[i][j]
            return e % order

        rho = [0] * rank
        for j in range(self.d):
            delta = self.diag_embed(self._basis[j][:self.d])
            rho[j] = (-phi(delta)) % order  # on b_j of the first block; 0 elsewhere
        return dmat, phi, rho

    def nu_hat(self, a: CentralElem, power: int = 1) -> CentralElem:
        """The lift of the shift; fixes eta0 and every diagonal-based element."""
        _, phi, rho = self._lift[a.section]
        out = a
        for _ in range(power % self.k):
            corr = phi(out.base) + sum(r * x for r, x in zip(rho, out.base))
            out = CentralElem(self.nu(out.base), (out.phase + corr) % self.phase_order,
                              out.section)
        return out

    # -- sigma and tau -----------------------------------------------------------

    def sigma(self, alpha) -> Cyc:
        """The normalization scalar attached to alpha in L."""
        k = self.k
        out = self.field.one()
        j = 1
        while 2 * j < k:
            ip = self.L.inner(self.nu(alpha, j), alpha)
            out = out * (self.field.one() - self.eta_pow(-j)) ** ip
            j += 1
        if k % 2 == 0:
            ip = self.L.inner(self.nu(alpha, k // 2), alpha)
            if ip % 2:
                raise AssertionError("odd pairing against the half turn")
            out = out * self.field.from_rat(Fraction(2) ** (ip // 2))
        return out

    def solve_one_minus_nu(self, beta) -> tuple[int, ...]:
        """Some gamma with (1 - nu) gamma = beta; requires beta in N."""
        k, d = self.k, self.d
        if any(t != 0 for t in self.tot(beta)):
            raise ValueError("vector not in the degree-zero sublattice N")
        gamma = [0] * (k * d)
        for p in range(1, k):
            for i in range(d):
                gamma[p * d + i] = gamma[(p - 1) * d + i] - beta[(p - 1) * d + i]
        return tuple(gamma)

    def tau(self, a: CentralElem) -> Cyc:
        """The character of the degree-zero subgroup, tau(eta0) = eta0."""
        if a.section != SECTION_TWISTED:
            raise ValueError("tau is defined on the twisted extension")
        if any(t != 0 for t in self.tot(a.base)):
            raise ValueError("tau argument must have base in N (or be central)")
        key = a.base
        if key not in self._tau_cache:
            gamma = self.solve_one_minus_nu(a.base)
            e_g = self.ext_from_base(gamma, SECTION_TWISTED)
            w = self.ext_mul(e_g, self.ext_inv(self.nu_hat(e_g)))
            if w.base != a.base:
                raise AssertionError("commutator base mismatch in tau")
            t = self.tot(gamma)
            norm_t = self.K.inner(t, t)
            self._tau_cache[key] = (w.phase, Fraction(norm_t, 2))
        ref_phase, half_norm = self._tau_cache[key]
        value = self.eta_pow(-int(half_norm)) * self.eta0_pow(a.phase - ref_phase)
        return value

    # -- the induced module on the group-algebra part ------------------------------

    def ut_action(self, a: CentralElem, lam) -> tuple[Cyc, tuple[int, ...]]:
        """Action of a twisted-extension element on the basis vector at lam.

        Returns (scalar, lam') with a . u_lam = scalar * u_lam'; lam' is the
        K-image of the shifted coset.
        """
        if a.section != SECTION_TWISTED:
            raise ValueError("group-algebra action uses the twisted extension")
        t = self.tot(a.base)
        lam2 = tuple(x + y for x, y in zip(t, lam))
        rep_old = self.rep_vector(lam)
        rep_new = self.rep_vector(lam2)
        prod = self.ext_mul(a, self.ext_from_base(rep_old, SECTION_TWISTED))
        h = self.ext_mul(self.ext_inv(self.ext_from_base(rep_new, SECTION_TWISTED)), prod)
        return self.tau(h), lam2

    # -- degree-zero sublattice ----------------------------------------------------

    def n_generators(self) -> list[tuple[int, ...]]:
        """Generators of N = (1 - nu) L, one per basis vector of L."""
        out = []
        for b in self._basis:
            nb = self.nu(b)
            out.append(tuple(x - y for x, y in zip(b, nb)))
        return out

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """A basis of {alpha : all block sums vanish}."""
        k, d = self.k, self.d
        out = []
        for p in range(k - 1):
            for i in range(d):
                vec = [0] * (k * d)
                vec[p * d + i] = 1
                vec[(k - 1) * d + i] = -1
                out.append(tuple(vec))
        return out
