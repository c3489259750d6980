"""Positive-definiteness checks and exact enumeration bounds.

Everything is exact rational arithmetic: Sylvester's leading minors decide
positive definiteness, and the bounding box of an ellipsoid
1/2 n.Q.n + b.n <= target comes from the cofactor inverse of Q and an integer
square root, corrected by exact comparisons; the integers where a quadratic
with integer coefficients is <= 0 come from the integer square root of its
discriminant.
"""

from __future__ import annotations

from fractions import Fraction
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
    return [_det(_block(a, k + 1)) for k in range(len(a))]


def _block(a: Matrix, k: int):
    return [row[:k] for row in a[:k]]


def _det(a) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(a[0][0])
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
    if not is_symmetric(a):
        return False
    return all(m > 0 for m in leading_minors(a))


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
