"""Positive-definiteness checks and the certified enumeration box.

Sylvester's leading minors decide positive definiteness (all principal
minors semidefiniteness), read exactly from the entries given, ints or
Fractions.  certified_box, the one route from an exponent and an order to a
box, runs in integers on the exponent's integer form: _minorant finds a
positive definite form below the exponent on the orthant, and the bounding
box of its ellipsoid 1/2 n.Q.n + b.n <= t is
bound_i = (C_i + isqrt(S_i)) // det Q, with C = -adj(Q).b and
S_i = (2 t det Q - b.C) * adj(Q)_ii; the integers where a quadratic with
integer coefficients is <= 0 come from the integer square root of its
discriminant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt
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


def _det(a):
    """The determinant of a square matrix, by its first row (ranks here are
    tiny): exact on ints and on Fractions."""
    if not a:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0]) if x)


def _definite(m) -> bool:
    """Sylvester's criterion on a symmetric matrix."""
    return all(_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester's criterion on the leading principal minors."""
    return is_symmetric(a) and _definite(a)


def is_positive_semidefinite(a: Matrix) -> bool:
    """Every principal minor, not only the leading ones, is >= 0."""
    subsets = [s for k in range(len(a)) for s in combinations(range(len(a)), k + 1)]
    return is_symmetric(a) and all(_det([[a[i][j] for j in s] for i in s]) >= 0 for s in subsets)


def certified_box(form: tuple, order) -> Tuple[int, ...]:
    """Per-index bounds such that every lattice point n >= 0 outside them
    has exponent E > order, from E's integer form (L, Q, b, c) of
    ExponentPoly.integer_form: the box of the first positive definite
    minorant of E on the orthant (`_minorant`, `_box`).  With d the order's
    denominator, E <= order is 1/2 n.(dQ).n + (db).n <= d(L*order - c), on
    which a target of 1 in q-units is L*d.  NotPositiveDefinite when E has
    no such minorant."""
    scale, q, b, c = form
    order = Fraction(order)
    d = order.denominator
    t = scale * order.numerator - c * d
    m, beta, k = _minorant([[d * x for x in row] for row in q], [d * x for x in b], t, scale * d)
    return _box(m, beta, k * t)


def _minorant(q: list, b: list, t: int, unit: int) -> tuple:
    """(M, beta, k) in integers, M positive definite, with
    1/2 n.M.n + beta.n <= k * E(n) for E(n) = 1/2 n.Q.n + b.n at each n >= 0
    with E(n) <= t, so the box of 1/2 n.M.n + beta.n <= k*t holds those n;
    `unit` is the integer value of a target of 1.  In order: (Q, b); Q
    without its positive off-diagonal entries, which only add on n >= 0; for
    Q positive semidefinite and b >= 0 the lift (w*Q + 2bb^T, 0), k = w, with
    w = max(t, unit), as 0 <= b.n <= t <= w there gives w * b.n >= (b.n)**2.
    Whether one exists does not depend on t; NotPositiveDefinite when none
    does.  Each candidate is built only when those before it fail."""
    if _definite(q):
        return q, b, 1
    dropped = [[x if i == j or x <= 0 else 0 for j, x in enumerate(row)] for i, row in enumerate(q)]
    if _definite(dropped):
        return dropped, b, 1
    if all(x >= 0 for x in b) and is_positive_semidefinite(q):
        w = max(t, unit)
        lift = [[w * x + 2 * y * z for x, z in zip(row, b)] for row, y in zip(q, b)]
        if _definite(lift):
            return lift, [0] * len(b), w
    raise NotPositiveDefinite("no positive definite form bounds the exponent below on n >= 0")


def _box(q: list, b: list, t: int) -> tuple:
    """Per-index upper bounds of the ellipsoid 1/2 n.Q.n + b.n <= t, for a
    positive definite integer Q and integers b, t.

    With D = det Q, centre c = C/D for C = -adj(Q).b, and R = t - b.c/2 the
    ellipsoid is 1/2 (n-c).Q.(n-c) <= R, whose box along index i reaches
    c_i + sqrt(2R (Q^-1)_ii) = (C_i + sqrt(S_i))/D with
    S_i = (2tD - b.C) * adj(Q)_ii; as D > 0 its largest integer is
    (C_i + isqrt(S_i)) // D.  An empty ellipsoid (R < 0) gives -1 for every
    index."""
    n = len(q)
    adj = [
        [(-1) ** (i + j) * _det([row[:i] + row[i + 1 :] for k, row in enumerate(q) if k != j]) for j in range(n)]
        for i in range(n)
    ]
    d = sum(x * row[0] for x, row in zip(q[0], adj))
    c = [-sum(x * y for x, y in zip(row, b)) for row in adj]
    r = 2 * t * d - sum(x * y for x, y in zip(b, c))
    if r < 0:
        return (-1,) * n
    return tuple((c[i] + isqrt(r * adj[i][i])) // d for i in range(n))


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
