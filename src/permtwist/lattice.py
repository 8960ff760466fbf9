"""Even positive-definite lattices.

Lattice vectors are plain integer tuples (coordinates in the defining
basis); ambient vectors are tuples of Fraction or Cyc scalars.  Each Gram
matrix G is factored once, on ints, by fraction-free (Bareiss) elimination
without pivoting: upper-triangular rows U with U[i][i] = D_{i+1}, the leading
minors (D_0 = 1), and G = U^T diag(1/(D_i D_{i+1})) U.  The pivots give the
definiteness check (Sylvester's criterion) and det; short-vector enumeration
descends on the scaled ints of that factorization, so the lists are provably
complete; each leaf takes the last coordinate as one progression of ints,
and with no centre only half of the symmetric ball is walked.  Dual cosets
are G^-1 y for y in the box 0 <= y_i < H_ii, H the Hermite normal form of G.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product, repeat
from operator import mul, neg

from .exact import _rational_inverse


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

    def _descend(self, bound, center, leaf) -> int:
        """Walk every alpha with <v, v> <= 2*bound, v = alpha + center, and
        return m, the int that makes N = m <v, v> an int.

        leaf(coords, xs, zs, spent, mult) stands for the alpha with coords[1:]
        and alpha_0 = x in the range xs, each with N = spent + w_0 z^2 for
        the matching z in the range zs, counted mult times.  With no centre
        only 0 and the alpha whose highest nonzero coordinate is positive are
        walked, each alpha != 0 with mult 2, for alpha and -alpha; a centre,
        0 included, gives mult 1."""
        bound = Fraction(bound)
        if bound < 0:
            raise LatticeError("bound must be nonnegative")
        rows, weights, n = self._rows, self._weights, self.rank
        # z = q U v is an int vector (q the centre's common denominator) and
        # m <v, v> = sum_i w_i z_i^2 with m = s q^2: N is the budget spent
        if center is None:
            q, offsets, mult = 1, [0] * n, 2
        else:
            if len(center) != n:
                raise LatticeError(f"center has length {len(center)}, lattice rank {n}")
            center = [Fraction(x) for x in center]
            q = math.lcm(*(x.denominator for x in center))
            lifted = [x.numerator * (q // x.denominator) for x in center]
            offsets = [sum(rows[i][j] * lifted[j] for j in range(i, n)) for i in range(n)]
            mult = 1
        steps = [q * rows[i][i] for i in range(n)]
        m = self._scale * q * q
        total = math.floor(bound * 2 * m)
        coords = [0] * n

        def descend(i, remaining, t, half):
            # z_i = step * x + t, and w_i z_i^2 <= remaining iff |z_i| <= h;
            # half: no centre and every coordinate above i is 0, so t = 0
            # and x = 0 keeps the walk on the half ball
            step, w = steps[i], weights[i]
            h = math.isqrt(remaining // w)
            lo, hi = 1 if half else -((h + t) // step), (h - t) // step
            if i == 0:
                spent = total - remaining
                if half:
                    leaf(coords, range(1), range(1), spent, 1)
                leaf(coords, range(lo, hi + 1), range(step * lo + t, step * hi + t + 1, step),
                     spent, mult)
                return
            # the next coordinate's t is base + slope * x
            row = rows[i - 1]
            base = offsets[i - 1] + q * sum(map(mul, row[i + 1:], coords[i + 1:]))
            slope = q * row[i]
            if half:
                descend(i - 1, remaining, base, True)
            for x in range(lo, hi + 1):
                coords[i] = x
                z = step * x + t
                descend(i - 1, remaining - w * z * z, base + slope * x, False)
            coords[i] = 0

        descend(n - 1, total, offsets[n - 1], center is None)
        return m

    def enumerate_up_to_norm(self, bound, center=None) -> list[tuple[int, ...]]:
        """All alpha with <alpha + center, alpha + center> <= 2*bound (center
        a rational vector, None for 0), in lexicographic order."""
        found: list[tuple[int, ...]] = []

        def leaf(coords, xs, _zs, _spent, mult):
            rest = coords[1:]
            found.extend(zip(xs, *map(repeat, rest)))
            if mult == 2:
                found.extend(zip(map(neg, xs), *map(repeat, map(neg, rest))))
        self._descend(bound, center, leaf)
        return sorted(found)

    def norm_counts(self, bound, center=None) -> dict[Fraction, int]:
        """{<v, v>/2: count} over v = alpha + center, <v, v> <= 2*bound."""
        tally: dict = {}    # (spent, zs): how many vectors each progression stands for

        def leaf(_coords, _xs, zs, spent, mult):
            key = spent, zs
            tally[key] = tally.get(key, 0) + mult
        m = self._descend(bound, center, leaf)
        w0, counts = self._weights[0], {}
        for (spent, zs), c in tally.items():
            for z in zs:
                norm = spent + w0 * z * z
                counts[norm] = counts.get(norm, 0) + c
        return {Fraction(norm, 2 * m): c for norm, c in counts.items()}

    # -- dual cosets ------------------------------------------------------

    def dual_coset_reps(self) -> list[tuple[Fraction, ...]]:
        """One representative per class of (dual lattice)/(lattice); 0 first.

        G maps the dual onto Z^n and the lattice onto the row span of G, so
        the classes are G^-1 y for y in the box 0 <= y_i < H_ii of the
        Hermite form H of G (square and triangular: G is nonsingular).
        Coordinates are rational, in the defining basis.
        """
        h, ginv = hermite_rows(self.gram), self.gram_inverse()
        reps = [tuple(sum(g * y for g, y in zip(row, ys)) for row in ginv)
                for ys in product(*(range(row[i]) for i, row in enumerate(h)))]
        reps.sort(key=lambda t: (any(t), t))
        return reps


def hermite_rows(rows) -> list[tuple[int, ...]]:
    """The row Hermite normal form of the Z-span of integer rows.

    The nonzero rows in echelon form, each pivot positive and each entry
    above a pivot in [0, pivot).  The form is unique, so two spans are equal
    exactly when their forms are.  Euclid row operations on each column.
    """
    work = [list(row) for row in rows]
    done: list[list[int]] = []
    for c in range(len(work[0]) if work else 0):
        live = [row for row in work if row[c]]
        if not live:
            continue
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[c]))
            for row in live:
                if row is not pivot:
                    f = row[c] // pivot[c]
                    row[:] = [x - f * y for x, y in zip(row, pivot)]
            live = [row for row in live if row[c]]
        pivot = live[0]
        work.remove(pivot)
        if pivot[c] < 0:
            pivot[:] = [-x for x in pivot]
        for row in done:
            f = row[c] // pivot[c]
            row[:] = [x - f * y for x, y in zip(row, pivot)]
        done.append(pivot)
    return [tuple(row) for row in done]

