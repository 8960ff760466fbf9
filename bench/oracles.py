"""Independent oracles for the benchmark's correctness checks.

Nothing here imports permtwist: every expected value is computed from the
Gram matrix with plain integer and Fraction arithmetic, by methods the
program does not use (box enumeration instead of LDL^T descent, partition
recurrences instead of truncated series inversion, divisor-sum formulas for
theta series).  `self_test` checks each oracle against hand-known values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def gram_inverse(gram) -> list[list[Fraction]]:
    """Inverse of a nonsingular integer matrix by Gauss-Jordan over Q."""
    n = len(gram)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def determinant(gram) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in gram]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _box(gram, max_norm: int):
    """All integer vectors in the box |x_i| <= sqrt(max_norm * Ginv_ii).

    x_i = <x, dual_i>, so Cauchy-Schwarz puts every vector of norm at most
    max_norm inside this box.
    """
    ginv = gram_inverse(gram)
    half = [math.isqrt(int(max_norm * ginv[i][i])) for i in range(len(gram))]
    return itertools.product(*(range(-h, h + 1) for h in half))


def _norm(gram, x) -> int:
    return sum(gi * xi * xj for row, xi in zip(gram, x) for gi, xj in zip(row, x))


def norm_counts(gram, max_norm: int) -> dict[int, int]:
    """{norm: number of lattice vectors of that norm} for norms <= max_norm."""
    out: dict[int, int] = {}
    for x in _box(gram, max_norm):
        n = _norm(gram, x)
        if n <= max_norm:
            out[n] = out.get(n, 0) + 1
    return out


def minimal_vectors(gram) -> list[tuple[int, ...]]:
    """The nonzero vectors of smallest norm, sorted."""
    diag = min(gram[i][i] for i in range(len(gram)))
    vecs = [x for x in _box(gram, diag) if any(x)]
    least = min(_norm(gram, x) for x in vecs)
    return sorted(x for x in vecs if _norm(gram, x) == least)


def coloured_partitions(d: int, nmax: int) -> list[int]:
    """p_d(0..nmax): coefficients of prod_{j>=1} (1 - q^j)^(-d)."""
    p = [1] + [0] * nmax
    for j in range(1, nmax + 1):
        for _ in range(d):
            for n in range(j, nmax + 1):
                p[n] += p[n - j]
    return p


def twisted_counts(gram, k: int, w_max) -> dict[Fraction, int]:
    """Twisted basis states per reduced weight w in (1/k)Z, 0 <= w <= w_max.

    A state is a K-vector alpha (weight <alpha,alpha>/2k) times a monomial in
    d colours of modes at levels 1/k, 2/k, ...; k = 1 gives V_K itself.
    """
    w_max = Fraction(w_max)
    if w_max < 0:
        return {}
    top = math.floor(w_max * k)            # largest weight in units of 1/k
    d = len(gram)
    parts = coloured_partitions(d, top)
    norms = norm_counts(gram, 2 * top)
    out = {}
    for t in range(top + 1):
        out[Fraction(t, k)] = sum(c * parts[t - n // 2]
                                  for n, c in norms.items() if n // 2 <= t)
    return out


def twisted_vacuum_weight(d: int, k: int) -> Fraction:
    return Fraction((k * k - 1) * d, 24 * k)


def states_up_to(gram, k: int, max_weight) -> int:
    """Number of twisted basis states of absolute weight <= max_weight."""
    reduced = Fraction(max_weight) - twisted_vacuum_weight(len(gram), k)
    return sum(twisted_counts(gram, k, reduced).values())


def mode_count(k: int, bound) -> int:
    """Number of modes n in (1/k)Z with |n| <= bound."""
    bound = Fraction(bound)
    return 2 * math.floor(bound * k) + 1 if bound >= 0 else 0


def convolve(a: dict, b: dict, w_max) -> dict:
    """Product of two weight-count tables, truncated at w_max."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if wa + wb <= w_max:
                out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def cycle_type_counts(gram, cycles, w_max) -> dict[Fraction, int]:
    """States of the tensor product of twisted modules, one per cycle length."""
    out = {Fraction(0): 1}
    for k in cycles:
        out = convolve(out, twisted_counts(gram, k, w_max), w_max)
    return out


def _sigma(n: int) -> int:
    return sum(dv for dv in range(1, n + 1) if n % dv == 0)


def theta_a1(n: int) -> int:
    """Vectors of norm 2n in A1: n must be a square."""
    if n == 0:
        return 1
    r = math.isqrt(n)
    return 2 if r * r == n else 0


def theta_a2(n: int) -> int:
    """Vectors of norm 2n in A2: 6 (d_{1,3}(n) - d_{2,3}(n))."""
    if n == 0:
        return 1
    divs = [dv for dv in range(1, n + 1) if n % dv == 0]
    return 6 * (sum(dv % 3 == 1 for dv in divs) - sum(dv % 3 == 2 for dv in divs))


def theta_d4(n: int) -> int:
    """Vectors of norm 2n in D4: 24 sigma(odd part of n)."""
    if n == 0:
        return 1
    while n % 2 == 0:
        n //= 2
    return 24 * _sigma(n)


THETA = {"A1": theta_a1, "A2": theta_a2, "D4": theta_d4}


def check_d4(gram) -> None:
    """The hand-typed D4 Gram matrix: det 4, 24 roots, theta = 24 sigma_odd."""
    if determinant(gram) != 4:
        raise ValueError(f"D4 Gram determinant {determinant(gram)}, expected 4")
    roots = minimal_vectors(gram)
    if len(roots) != 24 or _norm(gram, roots[0]) != 2:
        raise ValueError(f"D4 Gram has {len(roots)} minimal vectors, expected 24 roots")
    _check_theta(gram, theta_d4, 8)


def _check_theta(gram, formula, nmax: int) -> None:
    counts = norm_counts(gram, 2 * nmax)
    got = [counts.get(2 * n, 0) for n in range(nmax + 1)]
    want = [formula(n) for n in range(nmax + 1)]
    if got != want:
        raise ValueError(f"theta by enumeration {got} != formula {want}")


def self_test() -> None:
    """Each oracle against values known by hand; raises on any mismatch."""
    def expect(what, got, want):
        if got != want:
            raise AssertionError(f"oracle self-test {what}: got {got}, want {want}")

    a1, a2 = [[2]], [[2, 1], [1, 2]]
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    expect("p(n), n <= 10", coloured_partitions(1, 10),
           [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
    expect("2-coloured partitions", coloured_partitions(2, 6), [1, 2, 5, 10, 20, 36, 65])
    expect("A2 shells q^1..q^4", [theta_a2(n) for n in range(1, 5)], [6, 0, 6, 6])
    expect("D4 shells q^1..q^4", [theta_d4(n) for n in range(1, 5)], [24, 24, 96, 24])
    expect("A1 shells q^0..q^4", [theta_a1(n) for n in range(5)], [1, 2, 0, 0, 2])
    expect("det A2", determinant(a2), 3)
    expect("det D4", determinant(d4), 4)
    expect("A2 Gram inverse", gram_inverse(a2),
           [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]])
    expect("A2 roots", len(minimal_vectors(a2)), 6)
    for gram, formula in ((a1, theta_a1), (a2, theta_a2)):
        _check_theta(gram, formula, 12)
    check_d4(d4)
    # weight-one spaces of V_K are the adjoint representations
    for gram, dim in ((a1, 3), (a2, 8), (d4, 28)):
        expect(f"dim V_K[1], rank {len(gram)}", twisted_counts(gram, 1, 1)[Fraction(1)], dim)
    # A1 at k = 2: the twisted vacuum is alone at reduced weight 0, and the
    # two roots enter at 1/2 next to the single mode b(-1/2)
    expect("A1 k=2 counts", twisted_counts(a1, 2, 1),
           {Fraction(0): 1, Fraction(1, 2): 3, Fraction(1): 4})
    expect("mode count", [mode_count(3, Fraction(2, 3)), mode_count(2, 2),
                          mode_count(3, -1)], [5, 9, 0])
    expect("cycle (1,1) = V_K (x) V_K", cycle_type_counts(a1, (1, 1), 1)[Fraction(1)], 6)
