"""Even positive-definite lattices and the cyclic block isometry.

Lattice vectors are plain integer tuples (coordinates in the defining
basis); ambient vectors are tuples of Fraction or Cyc scalars.  Short-vector
enumeration runs on an exact rational LDL^T decomposition, so the vector
lists are provably complete.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exact import CycField, _rational_inverse


class LatticeError(ValueError):
    pass


def _det_int(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


class Lattice:
    """A positive-definite even lattice given by its Gram matrix."""

    def __init__(self, gram, name: str = ""):
        gram = tuple(tuple(int(x) for x in row) for row in gram)
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
        for m in range(1, n + 1):
            minor = _det_int([row[:m] for row in gram[:m]])
            if minor <= 0:
                raise LatticeError(f"lattice not positive definite (minor {m})")
        self.gram = gram
        self.rank = n
        self.name = name
        self._ldl = None
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
        return _det_int(self.gram)

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

    def _ldl_decomposition(self):
        # gram = C^T diag(D) C with C upper unitriangular, all entries rational
        if self._ldl is None:
            n = self.rank
            a = [[Fraction(x) for x in row] for row in self.gram]
            dvals = [Fraction(0)] * n
            cmat = [[Fraction(i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                dvals[i] = a[i][i]
                for j in range(i + 1, n):
                    cmat[i][j] = a[i][j] / a[i][i]
                for r in range(i + 1, n):
                    for c in range(i + 1, n):
                        a[r][c] -= a[i][r] * a[i][c] / a[i][i]
            self._ldl = (dvals, cmat)
        return self._ldl

    def enumerate_up_to_norm(self, bound, center=None) -> list[tuple[int, ...]]:
        """All alpha with <alpha + center, alpha + center> <= 2*bound (center
        a rational vector, None for 0), in lexicographic order."""
        bound = Fraction(bound)
        if bound < 0:
            raise LatticeError("bound must be nonnegative")
        limit = 2 * bound
        dvals, cmat = self._ldl_decomposition()
        n = self.rank
        # (C center)_i joins the shift c of coordinate i in the descent
        offsets = [0] * n if center is None else [
            sum(cmat[i][j] * center[j] for j in range(i, n)) for i in range(n)]
        found = []
        coords = [0] * n

        def descend(i, remaining):
            if i < 0:
                found.append(tuple(coords))
                return
            # (x_i + c)^2 * D_i <= remaining
            c = sum((cmat[i][j] * coords[j] for j in range(i + 1, n)), offsets[i])
            r = remaining / dvals[i]
            lo = _ceil_neg_sqrt_shift(r, c)
            hi = _floor_sqrt_shift(r, c)
            for x in range(lo, hi + 1):
                coords[i] = x
                used = dvals[i] * (x + c) ** 2
                descend(i - 1, remaining - used)
            coords[i] = 0

        descend(n - 1, limit)
        found.sort()
        return found

    # -- dual cosets ------------------------------------------------------

    def dual_coset_reps(self) -> list[tuple[Fraction, ...]]:
        """One representative per class of (dual lattice)/(lattice); 0 first.

        Computed via the Smith normal form of the Gram matrix; coordinates
        are rational, in the defining basis.
        """
        s, u, v = smith_normal_form(self.gram)
        n = self.rank
        uinv = _int_matrix_inverse(u)
        ginv = self.gram_inverse()
        reps = []
        counters = [range(s[i][i]) for i in range(n)]
        for ys in itertools.product(*counters):
            x = [sum(uinv[i][j] * ys[j] for j in range(n)) for i in range(n)]
            vec = tuple(sum(ginv[i][j] * x[j] for j in range(n)) for i in range(n))
            reps.append(vec)
        reps.sort(key=lambda t: (t != tuple(Fraction(0) for _ in range(n)), t))
        return reps


def _floor_sqrt_shift(r: Fraction, c: Fraction) -> int:
    """Largest integer x with (x + c)^2 <= r (r >= 0).

    When no integer qualifies, the result lies below -c - sqrt(r), so the
    range up to it from _ceil_neg_sqrt_shift is empty.
    """
    if r < 0:
        return -1 if c >= 0 else int(math.floor(-c)) - 1
    # start near floor(sqrt(r) - c) and correct with exact checks, in
    # integers: with y = (x + c) * cd, (x + c)^2 <= r iff y^2 * den <= num * cd^2
    num, den = r.numerator, r.denominator
    cn, cd = c.numerator, c.denominator
    approx = math.isqrt(num * den) // den
    x = approx - math.ceil(c) + 1
    y, top = x * cd + cn, num * cd * cd
    while y * y * den <= top:
        x, y = x + 1, y + cd
    while y * y * den > top:
        if y < 0:
            return x
        x, y = x - 1, y - cd
    return x


def _ceil_neg_sqrt_shift(r: Fraction, c: Fraction) -> int:
    """Smallest integer x with (x + c)^2 <= r (r >= 0)."""
    return -_floor_sqrt_shift(r, -c)


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


def _int_matrix_inverse(mat):
    """Inverse of a unimodular integer matrix, exact, as integer rows."""
    out = _rational_inverse(mat)
    if any(x.denominator != 1 for row in out for x in row):
        raise ArithmeticError("matrix not unimodular")
    return [[int(x) for x in row] for row in out]


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
