"""Even positive-definite lattices and the cyclic block isometry.

Lattice vectors are plain integer tuples (coordinates in the defining
basis); ambient vectors are tuples of Fraction or Cyc scalars.  Each Gram
matrix G is factored once, on ints, by fraction-free (Bareiss) elimination
without pivoting: upper-triangular rows U with U[i][i] = D_{i+1}, the leading
minors (D_0 = 1), and G = U^T diag(1/(D_i D_{i+1})) U.  The pivots give the
definiteness check (Sylvester's criterion) and det; short-vector enumeration
descends on the scaled ints of that factorization, so the vector lists are
provably complete.  Dual cosets come from the Smith normal form of G.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exact import CycField, _rational_inverse


class LatticeError(ValueError):
    pass


def _bareiss_rows(gram) -> list[tuple[int, ...]]:
    """The int rows U of the fraction-free elimination of gram, no pivoting.

    U[i][i] is the leading minor D_{i+1}; the first that is not positive is
    refused (Sylvester's criterion) before anything divides by it.
    """
    a = [list(row) for row in gram]
    n, prev = len(a), 1
    for i in range(n):
        pivot = a[i][i]
        if pivot <= 0:
            raise LatticeError(f"lattice not positive definite (minor {i + 1})")
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * pivot - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = pivot
    return [tuple(row) for row in a]


class Lattice:
    """A positive-definite even lattice given by its Gram matrix."""

    def __init__(self, gram, name: str = ""):
        gram = tuple(tuple(row) for row in gram)
        for row in gram:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise LatticeError(f"gram entry {x!r} is not an integer")
        n = len(gram)
        if n == 0:
            raise LatticeError("lattice must have positive rank")
        if any(len(row) != n for row in gram):
            raise LatticeError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("gram matrix not symmetric")
        for i in range(n):
            if gram[i][i] % 2 != 0:
                raise LatticeError("lattice not even")
        self._rows = _bareiss_rows(gram)
        # s <a, a> = sum_i w_i (U a)_i^2 with w_i = s / (D_i D_{i+1}), all ints
        minors = [1] + [row[i] for i, row in enumerate(self._rows)]
        pairs = [minors[i] * minors[i + 1] for i in range(n)]
        self._scale = math.lcm(*pairs)
        self._weights = [self._scale // p for p in pairs]
        self.gram = gram
        self.rank = n
        self.name = name
        self._gram_inv = None

    def __repr__(self):
        return f"Lattice({self.name or self.gram})"

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    # -- bilinear form -----------------------------------------------------

    def inner(self, a, b):
        """<a, b>; exact over int, Fraction or Cyc coordinates."""
        if len(a) != self.rank or len(b) != self.rank:
            raise LatticeError("rank mismatch in inner product")
        total = 0
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = self.gram[i]
            s = 0
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                s = s + row[j] * bj
            total = total + ai * s
        return total

    def norm(self, a):
        return self.inner(a, a)

    @property
    def det(self) -> int:
        return self._rows[-1][-1]

    def gram_inverse(self):
        """Inverse Gram matrix over Q (rows of the dual basis)."""
        if self._gram_inv is None:
            self._gram_inv = tuple(tuple(row) for row in _rational_inverse(self.gram))
        return self._gram_inv

    # -- constructions -----------------------------------------------------

    def direct_sum_power(self, k: int) -> "Lattice":
        """The orthogonal direct sum of k copies, block-diagonal Gram."""
        if k < 1:
            raise LatticeError("k must be positive")
        d, n = self.rank, self.rank * k
        gram = [[0] * n for _ in range(n)]
        for p in range(k):
            for i in range(d):
                for j in range(d):
                    gram[p * d + i][p * d + j] = self.gram[i][j]
        return Lattice(gram, name=f"{self.name}^{k}" if self.name else "")

    # -- enumeration -------------------------------------------------------

    def enumerate_up_to_norm(self, bound, center=None) -> list[tuple[int, ...]]:
        """All alpha with <alpha + center, alpha + center> <= 2*bound (center
        a rational vector, None for 0), in lexicographic order."""
        bound = Fraction(bound)
        if bound < 0:
            raise LatticeError("bound must be nonnegative")
        rows, weights, n = self._rows, self._weights, self.rank
        # z = q U (alpha + center) is an int vector (q the centre's common
        # denominator) and s q^2 <v, v> = sum_i w_i z_i^2
        if center is None:
            q, offsets = 1, [0] * n
        else:
            center = [Fraction(x) for x in center]
            q = math.lcm(*(x.denominator for x in center))
            lifted = [x.numerator * (q // x.denominator) for x in center]
            offsets = [sum(rows[i][j] * lifted[j] for j in range(i, n)) for i in range(n)]
        steps = [q * rows[i][i] for i in range(n)]
        found = []
        coords = [0] * n

        def descend(i, remaining):
            if i < 0:
                found.append(tuple(coords))
                return
            # z_i = step * x + t, and w_i z_i^2 <= remaining iff |z_i| <= h
            row, step = rows[i], steps[i]
            t = offsets[i] + q * sum(row[j] * coords[j] for j in range(i + 1, n))
            h = math.isqrt(remaining // weights[i])
            for x in range(-((h + t) // step), (h - t) // step + 1):
                coords[i] = x
                z = step * x + t
                descend(i - 1, remaining - weights[i] * z * z)
            coords[i] = 0

        descend(n - 1, math.floor(bound * (2 * self._scale * q * q)))
        found.sort()
        return found

    # -- dual cosets ------------------------------------------------------

    def dual_coset_reps(self) -> list[tuple[Fraction, ...]]:
        """One representative per class of (dual lattice)/(lattice); 0 first.

        With U G V = S the Smith normal form, G^-1 U^-1 y = V S^-1 y for
        0 <= y_i < S_ii; coordinates are rational, in the defining basis.
        """
        s, _, v = smith_normal_form(self.gram)
        n = self.rank
        reps = []
        for ys in itertools.product(*(range(s[i][i]) for i in range(n))):
            scaled = [Fraction(y, s[j][j]) for j, y in enumerate(ys)]
            reps.append(tuple(sum(v[i][j] * scaled[j] for j in range(n)) for i in range(n)))
        reps.sort(key=lambda t: (t != tuple(Fraction(0) for _ in range(n)), t))
        return reps


def smith_normal_form(mat):
    """(S, U, V) with U*mat*V = S diagonal, U and V unimodular, over Z."""
    a = [list(map(int, row)) for row in mat]
    m, n = len(a), len(a[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, f):  # row_i -= f*row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for r in range(m):
            a[r][i] -= f * a[r][j]
        for r in range(n):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the trailing block for the divisibility chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold the offending row into the pivot row
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def integer_span_contains(basis_rows, vec) -> bool:
    """Whether vec lies in the Z-span of basis_rows."""
    basis_rows = [r for r in basis_rows if any(r)]
    if not basis_rows:
        return not any(vec)
    s, u, v = smith_normal_form(basis_rows)
    n = len(vec)
    # g in rowspan(B) iff g*V lands in rowspan(S)
    gv = [sum(vec[r] * v[r][j] for r in range(n)) for j in range(n)]
    m = len(basis_rows)
    for j, x in enumerate(gv):
        if j < min(m, n) and s[j][j]:
            if x % s[j][j] != 0:
                return False
        elif x != 0:
            return False
    return True


def integer_span_equal(rows_a, rows_b) -> bool:
    """Whether two integer generator lists span the same sublattice of Z^n."""
    return (all(integer_span_contains(rows_a, v) for v in rows_b)
            and all(integer_span_contains(rows_b, v) for v in rows_a))


class CyclicShift:
    """The isometry of K^(+k) shifting the K-blocks cyclically."""

    def __init__(self, k: int, block_rank: int):
        self.k = k
        self.block_rank = block_rank
        self.rank = k * block_rank

    def apply(self, coords, power: int = 1):
        """nu^power: (a_1, ..., a_k) -> (a_2, ..., a_k, a_1) block-wise."""
        k, d = self.k, self.block_rank
        if len(coords) != self.rank:
            raise LatticeError("rank mismatch in shift")
        p = power % k
        if p == 0:
            return tuple(coords)
        return tuple(coords[((q + p) % k) * d + i] for q in range(k) for i in range(d))


def eigenprojection(shift: CyclicShift, field: CycField, v, n: int):
    """The component of v in the eta^n-eigenspace of the shift.

    Returns (1/k) * sum_j eta^{-nj} nu^j v as a tuple of Cyc coordinates,
    eta = zeta_{2k}^2 the fixed primitive k-th root of unity.
    """
    k = shift.k
    inv_k = Fraction(1, k)
    acc = [field.zero() for _ in range(shift.rank)]
    for j in range(k):
        phase = field.zeta((-2 * n * j) % field.n)
        shifted = shift.apply(v, j)
        for i, x in enumerate(shifted):
            if x != 0:
                acc[i] = acc[i] + phase * x
    return tuple(a * inv_k for a in acc)
