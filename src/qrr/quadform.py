"""Positive-definiteness checks and exact enumeration bounds.

Everything is exact rational arithmetic: Sylvester's leading minors decide
positive definiteness (all principal minors semidefiniteness); minorant finds
a positive definite form below the exponent on the orthant, and the bounding
box of its ellipsoid 1/2 n.Q.n + b.n <= target comes from the cofactor inverse
of Q and an integer square root, corrected by exact comparisons; the integers
where a quadratic with integer coefficients is <= 0 come from the integer
square root of its discriminant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, isqrt
from typing import Sequence, Tuple

from .errors import NotPositiveDefinite

Matrix = Sequence[Sequence[Fraction]]


def as_matrix(rows) -> tuple:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def leading_minors(a: Matrix) -> list:
    """Leading principal minors, fraction-exact (ranks here are tiny)."""
    a = as_matrix(a)
    return [_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


def _det(a) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        if a[0][j] == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * Fraction(a[0][j]) * _det(sub)
    return total


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester's criterion on the leading principal minors."""
    a = as_matrix(a)
    return is_symmetric(a) and all(m > 0 for m in leading_minors(a))


def is_positive_semidefinite(a: Matrix) -> bool:
    """Every principal minor, not only the leading ones, is >= 0."""
    a = as_matrix(a)
    subsets = [s for k in range(len(a)) for s in combinations(range(len(a)), k + 1)]
    return is_symmetric(a) and all(_det([[a[i][j] for j in s] for i in s]) >= 0 for s in subsets)


def minorant(q: Matrix, b: Sequence, target) -> tuple:
    """The first positive definite (M, beta) with 1/2 n.M.n + beta.n <= E(n) =
    1/2 n.Q.n + b.n at each n >= 0 with E(n) <= target, so the box
    index_bounds(M, beta, target) holds those n.  In order: (Q, b); Q without
    its positive off-diagonal entries, which only add on n >= 0; for Q positive
    semidefinite and b >= 0 the lift (Q + 2bb^T/t, 0) with t = max(target, 1),
    as 0 <= b.n <= target <= t there gives b.n >= (b.n)**2/t.  Whether one
    exists does not depend on the target; NotPositiveDefinite when none does.
    Each candidate is built only when those before it fail.
    """
    q = as_matrix(q)
    b = [Fraction(x) for x in b]
    n = len(q)
    if is_positive_definite(q):
        return q, b
    dropped = [[x if i == j or x <= 0 else Fraction(0) for j, x in enumerate(row)] for i, row in enumerate(q)]
    if is_positive_definite(dropped):
        return dropped, b
    if all(x >= 0 for x in b) and is_positive_semidefinite(q):
        t = max(Fraction(target), 1)
        lift = [[q[i][j] + 2 * b[i] * b[j] / t for j in range(n)] for i in range(n)]
        if is_positive_definite(lift):
            return lift, [Fraction(0)] * n
    raise NotPositiveDefinite("no positive definite form bounds the exponent below on n >= 0")


def _inverse(a) -> list:
    """Exact inverse by cofactors: inv[i][j] = (-1)**(i+j) * minor(j, i) / det."""
    n = len(a)
    det = _det(a)

    def minor(i, j):
        return [row[:j] + row[j + 1 :] for k, row in enumerate(a) if k != i]

    return [[(-1) ** (i + j) * _det(minor(j, i)) / det for j in range(n)] for i in range(n)]


def _floor_plus_sqrt(c: Fraction, s: Fraction) -> int:
    """floor(c + sqrt(s)) for rationals c and s >= 0."""
    # t = floor(sqrt(s)) exactly, so the answer is floor(c) + t or one more
    k = floor(c) + isqrt(s.numerator * s.denominator) // s.denominator + 1
    # k - c > t >= 0, so k <= c + sqrt(s) exactly when (k - c)**2 <= s
    return k if (k - c) ** 2 <= s else k - 1


def index_bounds(q: Matrix, b: Sequence, target) -> tuple:
    """Per-index upper bounds of the ellipsoid 1/2 n.Q.n + b.n <= target.

    With centre c = -Q^-1 b and R = target + 1/2 b.Q^-1.b the ellipsoid is
    1/2 (n-c).Q.(n-c) <= R, and bound_i = floor(c_i + sqrt(2R (Q^-1)_ii)) is
    the largest integer in its bounding box along index i: every point with
    value <= target has n_i <= bound_i.  An empty ellipsoid (R < 0) gives -1
    for every index.  Raises NotPositiveDefinite unless Q is positive definite.
    """
    q = as_matrix(q)
    if not is_positive_definite(q):
        raise NotPositiveDefinite("matrix fails Sylvester's criterion")
    n = len(q)
    b = [Fraction(x) for x in b]
    inv = _inverse(q)
    c = [-sum(inv[i][j] * b[j] for j in range(n)) for i in range(n)]
    r = Fraction(target) - sum(b[i] * c[i] for i in range(n)) / 2
    if r < 0:
        return (-1,) * n
    return tuple(_floor_plus_sqrt(c[i], 2 * r * inv[i][i]) for i in range(n))


def _interval(a: int, b: int, c: int) -> Tuple[int, int]:
    """(lo, hi): the integers t with a*t*t + b*t + c <= 0 are lo..hi, a > 0
    (lo > hi when there are none)."""
    # 4a(a*t*t + b*t + c) = (2at + b)**2 - disc and 2at + b is an integer, so
    # the condition is exactly |2at + b| <= isqrt(disc)
    disc = b * b - 4 * a * c
    if disc < 0:
        return 1, 0
    s = isqrt(disc)
    return -((s + b) // (2 * a)), (s - b) // (2 * a)
