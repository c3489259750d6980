import math
from fractions import Fraction as F
from itertools import combinations
from itertools import product as iproduct

import pytest
import qrr.quadform
from hypothesis import given, settings
from hypothesis import strategies as st
from qrr import corpus
from qrr.errors import NotPositiveDefinite, SemanticError
from qrr.gaussian import ONE
from qrr.identity import ExponentPoly, IdentitySpec, auto_bounds, eval_sum
from qrr.quadform import (
    as_matrix,
    certified_box,
    is_positive_definite,
    is_positive_semidefinite,
    is_symmetric,
)
from qrr.series import qmono


def test_as_matrix_validation():
    m = as_matrix([[1, F(1, 2)], [F(1, 2), 1]])
    assert m[0][1] == F(1, 2)
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])


def _leading_minors(m):
    """The determinants of the leading blocks of m."""
    return [qrr.quadform._det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def test_symmetry_and_minors():
    assert is_symmetric([[F(1), F(2)], [F(2), F(3)]])
    assert not is_symmetric([[F(1), F(2)], [F(0), F(3)]])
    assert _leading_minors(as_matrix([[2, 1], [1, 2]])) == [F(2), F(3)]
    minors = _leading_minors(as_matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    assert minors == [F(2), F(3), F(4)]


def test_positive_definite():
    assert is_positive_definite(as_matrix([[2]]))
    assert is_positive_definite(as_matrix([[2, 1], [1, 2]]))
    assert not is_positive_definite(as_matrix([[1, 1], [1, 1]]))  # singular
    assert not is_positive_definite(as_matrix([[-1]]))
    assert not is_positive_definite([[1, 2], [0, 1]])  # leading minors 1, 1
    # the minors are read exactly from the entries given, ints or Fractions
    assert is_positive_definite([[1, F(999, 1000)], [F(999, 1000), 1]])
    assert not is_positive_definite([[1, F(1001, 1000)], [F(1001, 1000), 1]])
    assert is_positive_definite([[10**40, 10**40 - 1], [10**40 - 1, 10**40]])


def _box(q, b, target):
    """certified_box of 1/2 n.q.n + b.n <= target, q symmetric, on the
    integer form that ExponentPoly builds, as the identity language does."""
    names = "abcd"[: len(q)]
    quad = {(x, y): F(q[i][j]) / (2 if i == j else 1) for i, x in enumerate(names) for j, y in enumerate(names) if i <= j}
    return certified_box(ExponentPoly.make(quad, dict(zip(names, b))).integer_form(names), target)


def _minorant(q, b, target):
    """quadform._minorant on q, b and target scaled by the lcm s of their
    denominators, as rationals: (M, beta)/(s*k)."""
    s = math.lcm(*(F(x).denominator for row in q for x in row), *(F(x).denominator for x in b), F(target).denominator)
    qs, bs = [[int(x * s) for x in row] for row in q], [int(x * s) for x in b]
    m, beta, k = qrr.quadform._minorant(qs, bs, int(target * s), s)
    return [[F(x, s * k) for x in row] for row in m], [F(x, s * k) for x in beta]


def _twice_value(q, b, n):
    k = len(n)
    return sum(q[i][j] * n[i] * n[j] for i in range(k) for j in range(k)) + 2 * sum(
        b[i] * n[i] for i in range(k)
    )


def _lattice_maxima(q, b, target, radius):
    """Per-index maxima of the points in [-radius, radius]^k with value <= target."""
    pts = [
        n
        for n in iproduct(range(-radius, radius + 1), repeat=len(q))
        if _twice_value(q, b, n) <= 2 * target
    ]
    return tuple(max(n[i] for n in pts) for i in range(len(q)))


def test_index_bounds_rank1_negative_linear_term():
    # n^2 - 3n <= 4 exactly for -1 <= n <= 4; the centre is 3/2
    assert _box([[2]], [-3], 4) == (4,)
    assert _lattice_maxima([[2]], [-3], 4, 10) == (4,)
    # the minimum -9/4 lies between the lattice points 1 and 2, both at -2
    assert _box([[2]], [-3], -2) == (2,)
    assert _box([[2]], [-3], F(-9, 4)) == (1,)  # the real box is {3/2}
    for target in (4, -2, F(-9, 4)):
        assert _box([[2]], [-3], target) == _rational_index_bounds([[F(2)]], [F(-3)], target)


def test_index_bounds_target_below_minimum_is_empty():
    assert _box([[2]], [-3], -3) == (-1,)
    assert _box([[2, 1], [1, 2]], [0, 0], F(-1, 7)) == (-1, -1)


def test_index_bounds_rational_entry_form():
    # andrews-uncu-mod6: i^2 + 3ij + 9/2 j^2 + i + 5/2 j
    q, b = as_matrix([[2, 3], [3, 9]]), [F(1), F(5, 2)]
    assert _box(q, b, 60) == (10, 4)
    assert _box(q, b, 240) == (21, 10)
    for target in (0, 7, 60):
        got = _box(q, b, target)
        assert got == _rational_index_bounds(q, b, target)
        maxima = _lattice_maxima(q, b, target, 25)
        assert all(m <= g for m, g in zip(maxima, got))
    # double-mod10-2-8: 3/4 m^2 + 1/2 mn + 3/4 n^2; (6, 0) has exponent 27
    assert _box(as_matrix([[F(3, 2), F(1, 2)], [F(1, 2), F(3, 2)]]), [0, 0], 30) == (6, 6)


def test_index_bounds_a3_form_is_tight():
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    # (Q^-1)_ii = 3/4, 1, 3/4: floor(sqrt(90)) = 9 and floor(sqrt(120)) = 10
    assert _box(a3, [0, 0, 0], 60) == (9, 10, 9)
    assert _lattice_maxima(a3, [0, 0, 0], 60, 11) == (9, 10, 9)


def test_index_bounds_rejects_non_positive_definite():
    # a form with no positive definite minorant on the orthant has no box;
    # a singular one with a minorant, (m+n)^2/2, has one (see below)
    for q in ([[0]], [[-1]]):
        with pytest.raises(NotPositiveDefinite):
            _box(q, [0], 10)


def test_positive_semidefinite_reads_every_principal_minor():
    assert is_positive_semidefinite([[1, 1], [1, 1]])
    assert is_positive_semidefinite([[0]])
    assert not is_positive_semidefinite([[0, 0], [0, -1]])  # leading minors 0, 0
    assert not is_positive_semidefinite([[1, 2], [2, 1]])
    assert not is_positive_semidefinite([[1, 1], [0, 1]])


def test_minorant_keeps_a_definite_form_and_drops_positive_off_diagonals():
    q = [[2, 1], [1, 2]]
    assert qrr.quadform._minorant(q, [-1, 3], 10, 1) == (q, [-1, 3], 1)
    assert _box(q, [-1, 3], 10) == _rational_index_bounds(*_rational_minorant(as_matrix(q), [-1, 3], 10), 10)
    # singular; without its positive entries definite, and the -1 stays
    q = [[2, 2, -1], [2, 2, 0], [-1, 0, 2]]
    dropped = [[2, 0, -1], [0, 2, 0], [-1, 0, 2]]
    assert qrr.quadform._minorant(q, [1, -1, 0], 10, 1) == (dropped, [1, -1, 0], 1)
    assert _rational_minorant(as_matrix(q), [1, -1, 0], 10) == (dropped, [1, -1, 0])
    assert _box(q, [1, -1, 0], 10) == _rational_index_bounds(as_matrix(dropped), [1, -1, 0], 10)
    # (m+n)^2/2: its diagonal alone bounds each index
    assert _minorant([[1, 1], [1, 1]], [0, 0], 240) == ([[1, 0], [0, 1]], [0, 0])
    assert _box([[1, 1], [1, 1]], [0, 0], 240) == _orthant_maxima([[1, 1], [1, 1]], [0, 0], 240, 25) == (21, 21)


# Cao-Wang's i^2/2 + (i - 2j + 3k)^2/4 + i/2 + 3k: semidefinite, kernel (0, 3, 2)
CAO_Q = as_matrix([[F(3, 2), -1, F(3, 2)], [-1, 2, -3], [F(3, 2), -3, F(9, 2)]])
CAO_B = [F(1, 2), 0, 3]


def _orthant_maxima(q, b, target, radius):
    """Per-index maxima of the points in [0, radius]^k with value <= target."""
    pts = [n for n in iproduct(range(radius + 1), repeat=len(q)) if _twice_value(q, b, n) <= 2 * target]
    return tuple(max(n[i] for n in pts) for i in range(len(q)))


def test_minorant_lifts_a_semidefinite_form_with_nonnegative_linear_part():
    assert is_positive_semidefinite(CAO_Q) and not is_positive_definite(CAO_Q)
    # t = max(target, 1)
    for target, t in ((60, 60), (F(1, 2), 1), (0, 1), (-3, 1)):
        lift = [[CAO_Q[i][j] + 2 * CAO_B[i] * CAO_B[j] / F(t) for j in range(3)] for i in range(3)]
        assert _minorant(CAO_Q, CAO_B, target) == _rational_minorant(CAO_Q, CAO_B, target) == (lift, [0, 0, 0])
        assert _box(CAO_Q, CAO_B, target) == _rational_index_bounds(lift, [0, 0, 0], target)
    assert _box(CAO_Q, CAO_B, 60) == (10, 31, 20)
    assert _box(CAO_Q, CAO_B, 0) == (0, 0, 0)
    assert _box(CAO_Q, CAO_B, -3) == (-1, -1, -1)
    for target in (F(1, 2), 4, 12):
        got = _box(CAO_Q, CAO_B, target)
        assert all(m <= g for m, g in zip(_orthant_maxima(CAO_Q, CAO_B, target, 12), got)), target


@pytest.mark.parametrize(
    "q, b",
    [
        ([[1, -1], [-1, 1]], [0, 0]),  # zero along (1, 1); the -1 entries stay
        ([[1, -1], [-1, 1]], [2, -1]),  # b has a negative entry
        ([[2, 0], [0, -2]], [0, 2]),  # indefinite, though Q + 2bb^T is definite
        ([[0]], [0]),
    ],
)
def test_minorant_rejects_forms_with_no_candidate(q, b):
    for target in (0, 10):
        assert _rational_minorant(as_matrix(q), [F(x) for x in b], target) is None
        with pytest.raises(NotPositiveDefinite):
            _minorant(q, b, target)
        with pytest.raises(NotPositiveDefinite):
            _box(q, b, target)


def test_minorant_tests_semidefiniteness_only_after_both_forms_fail(monkeypatch):
    # a definite form, or one whose dropped form is definite, never pays the
    # all-principal-minors test; Cao-Wang's semidefinite form reaches it
    def semidefinite(a):
        raise AssertionError("is_positive_semidefinite called")

    monkeypatch.setattr(qrr.quadform, "is_positive_semidefinite", semidefinite)
    for name in ("rogers_mod5_1_4", "double_mod10_2_8"):
        assert eval_sum(corpus.load(name), 30).coeff(0) == ONE
    with pytest.raises(AssertionError, match="semidefinite"):
        corpus.load("cao_wang_1_2_3")


# -- the rational box rule that the integer core replaced, as the reference


def _rational_det(a):
    if not a:
        return F(1)
    return sum((-1) ** j * x * _rational_det([row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0]))


def _rational_definite(a):
    return all(_rational_det([row[:k] for row in a[:k]]) > 0 for k in range(1, len(a) + 1))


def _rational_minorant(q, b, target):
    """(Q, b), Q without its positive off-diagonal entries, or for Q
    semidefinite and b >= 0 the lift (Q + 2bb^T/t, 0), t = max(target, 1):
    the first that is definite, or None."""
    n = len(q)
    if _rational_definite(q):
        return q, b
    dropped = [[x if i == j or x <= 0 else F(0) for j, x in enumerate(row)] for i, row in enumerate(q)]
    if _rational_definite(dropped):
        return dropped, b
    subsets = [s for k in range(n) for s in combinations(range(n), k + 1)]
    if all(x >= 0 for x in b) and all(_rational_det([[q[i][j] for j in s] for i in s]) >= 0 for s in subsets):
        t = max(F(target), 1)
        lift = [[q[i][j] + 2 * b[i] * b[j] / t for j in range(n)] for i in range(n)]
        if _rational_definite(lift):
            return lift, [F(0)] * n
    return None


def _rational_index_bounds(q, b, target):
    """floor(c_i + sqrt(2R (Q^-1)_ii)) for the centre c = -Q^-1 b and
    R = target - b.c/2, by the cofactor inverse; -1 each when R < 0."""
    n = len(q)
    det = _rational_det(q)
    inv = [
        [(-1) ** (i + j) * _rational_det([row[:i] + row[i + 1 :] for k, row in enumerate(q) if k != j]) / det for j in range(n)]
        for i in range(n)
    ]
    c = [-sum(inv[i][j] * b[j] for j in range(n)) for i in range(n)]
    r = F(target) - sum(b[i] * c[i] for i in range(n)) / 2
    if r < 0:
        return (-1,) * n
    out = []
    for i in range(n):
        s = 2 * r * inv[i][i]
        k = math.floor(c[i]) + math.isqrt(s.numerator * s.denominator) // s.denominator + 1
        out.append(k if (k - c[i]) ** 2 <= s else k - 1)
    return tuple(out)


rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def box_cases(draw):
    """A rank 1-4 quadratic part Q and linear part b of one kind: "definite"
    (diagonally dominant), "orthant" (nonnegative entries, often singular),
    "lift" (a singular sum of squares, b >= 0) or "any" (symmetric, mostly
    rejected); a constant, and a target: fractional, in (0, 1) where the
    lift's t = max(target, 1) is 1, or negative, so the ellipsoid may be
    empty."""
    rank = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["definite", "orthant", "lift", "any"]))
    q = [[F(0)] * rank for _ in range(rank)]
    if kind in ("orthant", "lift"):
        lo = 0 if kind == "orthant" else -2
        for _ in range(draw(st.integers(1, max(rank - (kind == "lift"), 1)))):
            w = [draw(st.integers(lo, 2)) for _ in range(rank)]
            c = draw(st.builds(F, st.integers(1, 3), st.sampled_from([1, 2, 4])))
            q = [[x + c * w[i] * w[j] for j, x in enumerate(row)] for i, row in enumerate(q)]
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                q[i][j] = q[j][i] = draw(rationals)
        for i in range(rank):
            q[i][i] = draw(rationals)
            if kind == "definite":
                q[i][i] = abs(q[i][i]) + sum(abs(x) for j, x in enumerate(q[i]) if j != i) + F(1, 2)
    b = [abs(x) if kind == "lift" else x for x in (draw(rationals) for _ in range(rank))]
    target = draw(st.one_of(st.builds(F, st.integers(1, 11), st.just(12)), rationals.map(lambda x: 7 * x)))
    return q, b, draw(rationals), target


@settings(max_examples=200, deadline=None)
@given(box_cases())
def test_integer_box_equals_the_rational_rule(case):
    # validate accepts exactly the forms with a rational minorant, the
    # integer core finds that minorant, and the box in integers is the
    # rational rule's, through certified_box and auto_bounds from the
    # exponent's integer form
    q, b, const, target = case
    names = "abcd"[: len(q)]
    quad = {(x, y): q[i][j] / (2 if i == j else 1) for i, x in enumerate(names) for j, y in enumerate(names) if i <= j}
    exponent = ExponentPoly.make(quad, dict(zip(names, b)), const)
    want = _rational_minorant(q, b, target)
    try:
        spec = IdentitySpec("box", 1, tuple(names), (), exponent, tuple((x, qmono(1)) for x in names), ())
    except SemanticError:
        assert want is None
        with pytest.raises(NotPositiveDefinite):
            _minorant(q, b, target)
        with pytest.raises(NotPositiveDefinite):
            certified_box(exponent.integer_form(names), target + const)
        return
    assert want is not None
    assert _minorant(q, b, target) == want
    box = _rational_index_bounds(*want, target)
    assert certified_box(exponent.integer_form(names), target + const) == box
    assert auto_bounds(spec, target + const) == box
