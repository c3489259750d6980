from fractions import Fraction as F
from itertools import product as iproduct
from math import comb, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qrr import _kernel_py, corpus, series, special, zseries
from qrr.errors import NegativeExponent, NotPositiveDefinite
from qrr.identity import ExponentPoly, IdentitySpec, auto_bounds, eval_product
from qrr.oracle import unpruned_sum
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, UNITS, unit_pow
from qrr.series import Monomial, QSeries, _grid, _poch, poch_finite, poch_infinite, qmono
from qrr.special import (
    JtpReport,
    NahmData,
    gaussian_binomial,
    gaussian_binomial_row,
    jtp_check,
    nahm_series,
    rogers_szego_bw,
    rogers_szego_def,
    rs_at,
)
from qrr.zseries import ZSeries, euler_z_inverse, euler_z_product, theta_z

MINUS_ONE_T = Monomial(MINUS_ONE, F(0))  # t := -1
BASE_RULE = "Pochhammer base must be a positive power of q"


def test_gaussian_binomial_values():
    q = qmono(1)
    assert gaussian_binomial(4, 0, q, 20) == QSeries.one(20)
    assert gaussian_binomial(4, 5, q, 20).is_zero()
    # [4 2]_q = 1 + q + 2q^2 + q^3 + q^4
    g = gaussian_binomial(4, 2, q, 20)
    assert [g.coeff(n).re for n in range(6)] == [1, 1, 2, 1, 1, 0]
    # symmetry [n k] = [n n-k]
    assert gaussian_binomial(7, 3, q, 30) == gaussian_binomial(7, 4, q, 30)


def test_gaussian_binomial_pascal():
    # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
    q = qmono(1)
    for n in range(1, 7):
        for k in range(1, n):
            lhs = gaussian_binomial(n, k, q, 40)
            rhs = gaussian_binomial(n - 1, k - 1, q, 40) + gaussian_binomial(
                n - 1, k, q, 40
            ).shift(k).truncate(40)
            assert lhs == rhs, (n, k)


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize(
    "exp, order_den", [(F(1), 1), (F(2), 4), (F(1, 2), 2), (F(1, 4), 3), (F(3, 4), 1)]
)
def test_gaussian_binomial_rows_match_gaussian_binomial(unit, exp, order_den):
    b = Monomial(unit, exp)
    # order 40 holds every polynomial through n = 8 and cuts the middle of
    # the longer ones (at exponent 2, [12 6] reaches q^72), so the mirrored
    # half is cut too; an order just past 5, off the base's grid for
    # order_den > 1, cuts most of them.  A base of unit -1 or +-i is refused.
    if unit != ONE:
        for build in (lambda: gaussian_binomial_row(4, b, 40), lambda: gaussian_binomial(4, 2, b, 40)):
            with pytest.raises(ValueError, match=BASE_RULE):
                build()
        return
    for order in (F(40), 5 + F(1, order_den)):
        pascal = _q_pascal_rows(b, order)
        for n in range(13):
            row = gaussian_binomial_row(n, b, order)
            assert row == [gaussian_binomial(n, k, b, order) for k in range(n + 1)], (order, n)
            assert row == next(pascal), (order, n)


def _q_pascal_rows(b, order):
    """The rows [[n 0], ..., [n n]] for n = 0, 1, 2, ..., each from the one
    before by the q-Pascal rule [n k] = [n-1 k-1] + b**k * [n-1 k] (the
    reference the walk replaced)."""
    one = QSeries.one(order)
    row = [one]
    while True:
        yield row
        nxt = [one]
        for k in range(1, len(row)):
            if k * b.exp <= one.order_q:
                nxt.append(row[k - 1] + row[k].shift(k * b.exp))
            else:
                nxt.append(row[k - 1])  # b**k * [n-1 k] lies beyond the order
        nxt.append(one)
        row = nxt


@pytest.mark.parametrize("unit", [ONE, MINUS_ONE])
@pytest.mark.parametrize("exp", [0, -1])
def test_gaussian_binomial_rows_need_a_base_of_positive_order(unit, exp):
    # at q^0 a walk would divide by nothing, and q^-1 has negative powers;
    # a single binomial fails alike for every k, the packed nest before it
    # packs anything, and rs_at before its zero factors prune every term
    # (t = -1 prunes all of H_1 and H_3)
    b = Monomial(unit, F(exp))
    builds = [lambda n=n, t=t: rs_at(n, t, b, 10) for n in range(4) for t in (MINUS_ONE_T, qmono(1))]
    for n in (0, 3):
        builds += [
            lambda n=n: gaussian_binomial_row(n, b, 10),
            lambda n=n: rogers_szego_def(n, b, 10),
            lambda n=n: rogers_szego_bw(n, b, 10),
            *(lambda n=n, k=k: gaussian_binomial(n, k, b, 10) for k in {0, 1, n}),
        ]
    for build in builds:
        with pytest.raises(ValueError, match=BASE_RULE):
            build()


def test_every_builder_refuses_a_base_of_unit_other_than_one():
    # every Pochhammer base of the paper is a positive power of q; the
    # check comes before any work, so rs_at refuses i*q even where t = -1
    # would leave no term (H_1(-1) = 0)
    for unit in (MINUS_ONE, I, MINUS_I):
        b = Monomial(unit, F(1))
        builds = [
            lambda: gaussian_binomial(4, 2, b, 10),
            lambda: gaussian_binomial(4, 5, b, 10),
            lambda: gaussian_binomial_row(4, b, 10),
            lambda: rogers_szego_def(4, b, 10),
            lambda: rogers_szego_bw(4, b, 10),
            lambda: rs_at(4, qmono(1), b, 10),
            lambda: rs_at(1, MINUS_ONE_T, b, 10),
            lambda: euler_z_inverse(qmono(1), b, 10),
            lambda: euler_z_product(qmono(1), b, 10),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="^Pochhammer base must be a positive power of q with unit 1$"):
                build()


def test_gaussian_binomial_is_a_polynomial_in_the_base():
    # [2 1]_b = 1 + b and [3 1]_b = 1 + b + b^2, for b = q and b = q^(3/2)
    for e in (F(1), F(3, 2)):
        b = qmono(e)
        one, bq, b2 = QSeries.one(10), QSeries.term(ONE, e, 10), QSeries.term(ONE, 2 * e, 10)
        assert gaussian_binomial(2, 1, b, 10) == one + bq
        assert gaussian_binomial(3, 1, b, 10) == one + bq + b2
        assert gaussian_binomial_row(3, b, 10)[2] == one + bq + b2


def test_rogers_szego_representations_agree():
    # bases q, q^2, q^(1/2) and q^(3/4)
    for e in (F(1), F(2), F(1, 2), F(3, 4)):
        b = qmono(e)
        for n in range(9):
            assert rogers_szego_def(n, b, 60).same_through(rogers_szego_bw(n, b, 60)), (e, n)


def test_rogers_szego_recurrence():
    # H_{n+1}(t) = (1+t) H_n(t) - (1 - q^n) t H_{n-1}(t)
    q = qmono(1)
    order = 60
    one = ZSeries.embed(QSeries.one(order))
    for n in range(1, 7):
        h_prev = rogers_szego_bw(n - 1, q, order)
        h_n = rogers_szego_bw(n, q, order)
        h_next = rogers_szego_bw(n + 1, q, order)
        t = ZSeries({1: QSeries.one(order)})
        factor = QSeries.one(order) - QSeries.term(ONE, n, order)
        rhs = (one + t) * h_n - t.scale_series(factor) * h_prev
        assert h_next.same_through(rhs), n


def test_rs_at_minus_one_closed_forms():
    q = qmono(1)
    for n in range(8):
        even = rs_at(2 * n, MINUS_ONE_T, q, 80)
        assert even.same_through(poch_finite(qmono(1), qmono(2), n, 80)), n
        assert rs_at(2 * n + 1, MINUS_ONE_T, q, 80).is_zero(), n


@pytest.mark.parametrize("order_den", [1, 4])
@pytest.mark.parametrize("b_exp", [1, 2, F(1, 2), F(1, 4), F(3, 4)])
def test_rs_at_is_the_specialized_bw_polynomial(order_den, b_exp):
    # z := t substituted before multiplying equals the factored polynomial
    # specialized afterwards, for every unit of t and zero factors too,
    # through an order on the base's grid or off it
    order = 20 + F(1, order_den)
    b = qmono(b_exp)
    for n in range(13):
        bw = rogers_szego_bw(n, b, order)
        for tu, te in iproduct(UNITS, (F(0), F(1, 2), F(1))):
            t = Monomial(tu, te)
            assert rs_at(n, t, b, order) == bw.specialize(t), (n, b, t)


def _times_z(w):
    """The window w times z: every slice one key up."""
    return ZSeries({k + 1: s for k, s in w.coeff.items()})


def _rogers_szego_bw_per_term(n, b, order):
    """The factored form term by term: every r-term rebuilt from its factors,
    each z-binomial a z-shift plus a scaled copy (the unnested reference)."""
    u = b.unit
    one = QSeries.one(order)
    half, upper = n // 2, (n + 1) // 2
    binomials = gaussian_binomial_row(half, Monomial(unit_pow(u, 2), 2 * b.exp), order)
    acc = ZSeries.zero(order)
    for r in range(half + 1):
        part = ZSeries({r: one})
        for s in range(r):
            c = QSeries.term(unit_pow(u, 1 + 2 * s), (1 + 2 * s) * b.exp, order)
            part = _times_z(part) + part.scale_series(c)
        for s in range(upper - r):
            c = QSeries.term(unit_pow(u, 2 * s), 2 * s * b.exp, order)
            part = part + _times_z(part).scale_series(c)
        acc = acc + part.scale_series(binomials[r])
    return acc


def _times_sum_reference(s, x, y):
    """s * (x + y) for monomials x and y: one `mul` by the two-term series."""
    return s.mul(QSeries.term(x.unit, x.exp, s.order_q) + QSeries.term(y.unit, y.exp, s.order_q))


def _rs_at_per_term(n, t, b, order):
    """rs_at term by term, each r-term's factors applied in turn and a term
    with a zero factor skipped (the unnested reference).  The sum lives on the
    grid that holds t, b and the order; with every term skipped it is the
    zero of the order's grid."""
    u = b.unit
    half, upper = n // 2, (n + 1) // 2
    binomials = gaussian_binomial_row(half, Monomial(unit_pow(u, 2), 2 * b.exp), order)
    acc, kept = QSeries.zero(order).rescale(_grid(order, t.exp, b.exp)), False
    for r in range(half + 1):
        factors = [(t, Monomial(unit_pow(u, 1 + 2 * s), (1 + 2 * s) * b.exp)) for s in range(r)]
        factors += [
            (Monomial(), Monomial(t.unit * unit_pow(u, 2 * s), t.exp + 2 * s * b.exp))
            for s in range(upper - r)
        ]
        if any(x == Monomial(-y.unit, y.exp) for x, y in factors):
            continue
        kept = True
        part = QSeries.one(order).shift(r * t.exp).scale(unit_pow(t.unit, r))
        for x, y in factors:
            part = _times_sum_reference(part, x, y)
        acc = acc + part.mul(binomials[r])
    return acc if kept else QSeries.zero(order)


units = st.sampled_from(UNITS)
# exponents and orders on grids 1 to 4: an order such as 7/2 lies off the
# grid of b = q^(2/3) and on that of b = q^(1/2)
fractions = st.builds(F, st.integers(0, 12), st.integers(1, 4))
bases = st.builds(qmono, fractions.filter(lambda e: e > 0))
orders = st.builds(F, st.integers(0, 90), st.integers(1, 4))


# the edges of the split at m = (U - 1) // 2: at n = 0 the one term runs
# downwards and at n = 1 upwards, at n = 2 and 3 one term runs each way, then
# U = 3 and 4 at odd and at even n; then the digit widths' edges, where
# C(n, n // 2) needs one byte more (at n = 10, 18 and 26), with b = q and
# b = q^(1/2), at orders past the degree floor(n^2/4) of H_n in b
@example(9, qmono(1), F(21))
@example(9, qmono(F(1, 2)), F(21, 2))
@example(10, qmono(1), F(26))
@example(10, qmono(F(1, 2)), F(13))
@example(17, qmono(1), F(73))
@example(17, qmono(F(1, 2)), F(73, 2))
@example(18, qmono(1), F(82))
@example(18, qmono(F(1, 2)), F(41))
@example(25, qmono(1), F(157))
@example(25, qmono(F(1, 2)), F(157, 2))
@example(26, qmono(1), F(170))
@example(26, qmono(F(1, 2)), F(85))
# the benchmark's n and order, and the same polynomials in b = q^(1/2):
# one int per slice at 3, 4 and 5-byte digits
@example(24, qmono(1), F(420))
@example(24, qmono(F(1, 2)), F(210))
@example(32, qmono(1), F(420))
@example(32, qmono(F(1, 2)), F(210))
@example(40, qmono(1), F(420))
@example(40, qmono(F(1, 2)), F(210))
@example(0, qmono(1), F(30))
@example(1, qmono(F(1, 2)), F(61, 2))
@example(2, qmono(1), F(30))
@example(3, qmono(F(2, 3)), F(30))
@example(5, qmono(1), F(40))
@example(6, qmono(F(1, 2)), F(81, 2))
@example(7, qmono(1), F(40))
@example(8, qmono(1), F(40))
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), bases, orders)
def test_nested_bw_equals_the_per_term_sum(n, b, order):
    # the same grid too: for n <= 1 that of b**2, which holds every factor
    bw, reference = rogers_szego_bw(n, b, order), _rogers_szego_bw_per_term(n, b, order)
    assert bw == reference
    assert (bw.den, bw.order) == (reference.den, reference.order)


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("exp", [F(1, 2), F(5, 3)])
def test_packed_bw_equals_the_sum_at_wide_digits(unit, exp):
    # C(n, n // 2) needs 9-byte digits at n = 67 and 68, 10-byte ones at
    # n = 75, past the 8-byte cells of the kernel's byte path; the
    # Hypothesis gate above draws n <= 16, at most 2-byte digits.  A base of
    # unit -1 or +-i is refused.
    b = Monomial(unit, exp)
    if unit != ONE:
        for build in (rogers_szego_bw, rogers_szego_def):
            with pytest.raises(ValueError, match=BASE_RULE):
                build(67, b, F(25, 2))
        return
    for n in (67, 68, 75):
        bw, defining = rogers_szego_bw(n, b, F(25, 2)), rogers_szego_def(n, b, F(25, 2))
        assert bw == defining, n
        assert (bw.den, bw.order) == (defining.den, defining.order), n


def test_packed_bw_forms_no_z_product_and_calls_no_kernel(monkeypatch):
    # rs_at too, at a point with no zero factor and at two that prune terms
    q = qmono(1)
    expected = rogers_szego_def(12, q, 60)
    points = [Monomial(I, F(1, 2)), MINUS_ONE_T, Monomial(MINUS_ONE, F(5))]
    expected_at = [_rs_at_per_term(12, t, q, 60) for t in points]

    def fail(*args):
        raise AssertionError("the packed nest reached a product or the kernel")

    monkeypatch.setattr(zseries, "_product", fail)
    monkeypatch.setattr(_kernel_py, "conv_terms", fail)
    monkeypatch.setattr(QSeries, "mul", fail)
    assert rogers_szego_bw(12, q, 60) == expected
    assert [rs_at(12, t, q, 60) for t in points] == expected_at


class _Counted(int):
    """A packed c_r that counts the int products it takes part in; a shift
    keeps it counted."""

    products = 0

    def __lshift__(self, k):
        return _Counted(int(self) << k)

    def __mul__(self, x):
        _Counted.products += 1
        return int(self) * x

    __rmul__ = __mul__


def test_each_c_r_multiplies_its_shorter_window(monkeypatch):
    # the terms meet in the middle at m = (U - 1) // 2: c_r multiplies
    # min(r, U - r) + 1 slices, where one upward nest took r + 1 (231, 153
    # and 91 slices at n = 40, 32 and 24); alpha_14 = 0 at t = -q^29 keeps
    # r <= 14, past m = 9 (120 slices upwards).  A slice is one int, so one
    # int product each
    q, qh, qi = qmono(1), qmono(F(1, 2)), Monomial(I, F(1, 2))
    cases = [(n, None, q, slices) for n, slices in [(40, 121), (32, 81), (24, 49)]]
    cases += [(40, Monomial(MINUS_ONE, F(29)), q, 100), (40, qi, q, 121)]
    cases += [(40, None, qmono(2), 121), (40, None, qh, 121), (24, Monomial(MINUS_ONE), qh, 1)]
    expected = [rogers_szego_def(n, b, 100) if t is None else _rs_at_per_term(n, t, b, 100) for n, t, b, _ in cases]
    pack = special._pack
    monkeypatch.setattr(special, "_pack", lambda xs, wb: _Counted(pack(xs, wb)))
    for (n, t, b, slices), want in zip(cases, expected):
        _Counted.products = 0
        got = rogers_szego_bw(n, b, 100) if t is None else rs_at(n, t, b, 100)
        assert got == want, (n, t, b)
        assert _Counted.products == slices, (n, t, b)


def test_digit_widths_follow_the_kept_terms(monkeypatch):
    # bw's widest digit is C(n, n // 2): 3, 4 and 5 bytes at n = 24, 32 and
    # 40, where 2**n took 4, 5 and 6; rs_at at t = -1 keeps the one term
    # r = U, at most 2**U = 2**20 in size: 3 bytes, where 2**40 took 6
    q = qmono(1)
    expected = [rogers_szego_def(n, q, 100) for n in (24, 32, 40)]
    expected_at = rogers_szego_def(40, q, 100).specialize(MINUS_ONE_T)
    widths = []
    read = special._read

    def spy(re, im, den, top, wb):
        widths.append(wb)
        return read(re, im, den, top, wb)

    monkeypatch.setattr(special, "_read", spy)
    for n, wb, want in zip((24, 32, 40), (3, 4, 5), expected):
        widths.clear()
        assert rogers_szego_bw(n, q, 100) == want, n
        assert widths == [wb] * (n + 1), n
    widths.clear()
    assert rs_at(40, MINUS_ONE_T, q, 100) == expected_at
    assert widths == [3]


def _peak(s):
    """The largest real or imaginary coefficient of s in size."""
    return max(map(abs, s.re + (s.im or [])), default=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 16), bases, st.builds(Monomial, units, fractions), orders)
# H_1(1) = 2 = 2**1: the rs_at bound reached
@example(1, qmono(1), Monomial(), F(3))
def test_digits_stay_within_the_kept_terms_bound(n, b, t, order):
    # slice k of H_n is at most C(n, k) in size, and slice 0, H_n(0) = 1,
    # reaches it; rs_at's value is at most 2**U times the sum of C(h, r) over
    # its kept terms, which H_1(1) = 2 reaches: so neither bound can lose a
    # bit, and each width rule holds what it reads
    peaks = {k: _peak(s) for k, s in rogers_szego_bw(n, b, order).coeff.items()}
    assert all(peak <= comb(n, k) for k, peak in peaks.items()), peaks
    assert peaks[0] == comb(n, 0)
    r0, r1 = special._kept(n, t, b)
    bound = sum(comb(n // 2, r) for r in range(r0, r1 + 1)) << (n + 1) // 2
    peak = _peak(rs_at(n, t, b, order))
    assert peak <= bound
    if n <= 1 and t == Monomial():
        assert peak == bound


@st.composite
def rs_points(draw):
    """(n, t, b): t any unit times any power of q, negative ones included, or
    t = -1, or t = -b^(1+2s), the last two zeros of a factor."""
    n = draw(st.integers(0, 16))
    b = draw(bases)
    kind = draw(st.sampled_from(["any", "minus_one", "alpha_zero"]))
    if kind == "any":
        t = Monomial(draw(units), draw(st.builds(F, st.integers(-12, 12), st.integers(1, 4))))
    elif kind == "minus_one":
        t = MINUS_ONE_T
    else:
        s = draw(st.integers(0, n // 2))
        t = Monomial(MINUS_ONE, (1 + 2 * s) * b.exp)
    return n, t, b


# U = 6 and m = 2 at n = 12: t = -1 keeps r = 6 > m alone, alpha_1 = 0
# keeps r <= 1 <= m, alpha_4 = 0 at n = 16 keeps r <= 4 with m = 3, and
# t = i*q^(1/2) keeps every term
@example((12, MINUS_ONE_T, qmono(1)), F(60))
@example((12, Monomial(MINUS_ONE, F(3)), qmono(1)), F(60))
@example((12, Monomial(MINUS_ONE, F(3, 2)), qmono(F(1, 2))), F(60))
@example((16, Monomial(MINUS_ONE, F(9)), qmono(1)), F(90))
@example((12, Monomial(I, F(1, 2)), qmono(1)), F(121, 2))
# t = -1 where 2**U needs one byte more, at n = 14 and 30, at orders past
# the degree (n/2)**2 of H_n(-1) in b
@example((12, MINUS_ONE_T, qmono(F(1, 2))), F(37, 2))
@example((14, MINUS_ONE_T, qmono(F(1, 2))), F(25))
@example((28, MINUS_ONE_T, qmono(1)), F(197))
@example((30, MINUS_ONE_T, qmono(1)), F(226))
@settings(max_examples=300, deadline=None)
@given(rs_points(), orders)
def test_nested_rs_at_equals_the_per_term_sum(point, order):
    # the same grid and order too: that of t, b and the order, or the
    # order's own when zero factors remove every term
    n, t, b = point
    if n and t.exp < 0:
        with pytest.raises(NegativeExponent):
            rs_at(n, t, b, order)
        return
    at, reference = rs_at(n, t, b, order), _rs_at_per_term(n, t, b, order)
    assert at == reference
    assert (at.den, at.order) == (reference.den, reference.order)


def test_rs_at_multiplies_only_the_terms_no_zero_factor_removes(monkeypatch):
    # the nest runs over the kept terms r0 <= r <= r1 alone; t = -1 makes
    # beta_0 zero, which keeps only r = U, and none when U > h (odd n)
    q = qmono(1)
    nest = special._nest
    for n, t, kept in [
        (12, Monomial(I, F(1, 2)), [(0, 6)]),  # no zero factor
        (12, MINUS_ONE_T, [(6, 6)]),
        (13, MINUS_ONE_T, []),
        (12, Monomial(MINUS_ONE, F(5)), [(0, 2)]),  # alpha_2 = 0
    ]:
        expected = _rs_at_per_term(n, t, q, 60)
        calls = []

        def spy(n, b, order, den, r0, r1, bound):
            calls.append((r0, r1))
            return nest(n, b, order, den, r0, r1, bound)

        monkeypatch.setattr(special, "_nest", spy)
        assert rs_at(n, t, q, 60) == expected, (n, t)
        monkeypatch.setattr(special, "_nest", nest)
        assert calls == kept, (n, t)


def _kept_by_search(n, t, b):
    """rs_at's (r0, r1) as it was first found: every factor beta_s and
    alpha_s built as a monomial and compared with -1 and with t."""
    half, upper = n // 2, (n + 1) // 2
    minus = Monomial(MINUS_ONE)

    def power(k, x=Monomial()):  # x * b**k
        return Monomial(x.unit * unit_pow(b.unit, k), x.exp + k * b.exp)

    r0 = max((upper - s for s in range(upper) if power(2 * s, t) == minus), default=0)
    r1 = min((s for s in range(half) if power(1 + 2 * s, minus) == t), default=half)
    return r0, r1


def test_kept_terms_equal_the_factor_search():
    # every n <= 11, every unit of t, t on the quarter grid through 6
    # (alpha_s = 0 for s up to 5, 5, 2 and 1 on the first four bases), and
    # b on and off that grid
    ts = [Monomial(u, F(e, 4)) for u in UNITS for e in range(25)]
    bs = [qmono(e) for e in (F(1, 4), F(1, 2), F(1), F(3, 2), F(2, 3))]
    pruned = 0
    for n in range(12):
        for b in bs:
            for t in ts:
                got = special._kept(n, t, b)
                assert got == _kept_by_search(n, t, b), (n, t, b)
                pruned += got != (0, n // 2)
    assert pruned > 150


def test_rs_at_minus_one_walks_no_binomial_row(monkeypatch):
    # at t = -1 the one kept term reads c_0 = 1 alone, so the row of c_r is
    # never walked; a term with r = 2 needs the walk through c_2 only
    q2 = qmono(2)
    calls = []
    divide = special._divide

    def spy(re, im, k, unit):
        calls.append(k)
        return divide(re, im, k, unit)

    wants = [rogers_szego_bw(n, q2, 61).specialize(MINUS_ONE_T) for n in range(12)]
    monkeypatch.setattr(special, "_divide", spy)
    for n in range(12):
        assert rs_at(n, MINUS_ONE_T, q2, 61) == wants[n], n
    assert calls == []
    rs_at(12, Monomial(MINUS_ONE, F(10)), q2, 61)  # alpha_2 = 0 keeps r <= 2
    assert len(calls) == 2


def test_rs_at_shifts_stay_checked():
    # t = q^-1: H_n(t) has negative powers of q for every n >= 1, and H_0 = 1
    for n in (1, 3):
        with pytest.raises(NegativeExponent, match=r"^H_%d\(t\) at t = q\^-1 has negative powers of q$" % n):
            rs_at(n, Monomial(ONE, F(-1)), qmono(1), 5)
    assert rs_at(0, Monomial(ONE, F(-1)), qmono(1), 5) == QSeries.one(5)


@st.composite
def z_windows(draw):
    """A ZSeries of one to four slices and a series of two to five terms, each
    with small Gaussian-integer coefficients on its own grid (1 to 4) and order."""
    nonzero = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)

    def series(size):
        den, order = draw(st.integers(1, 4)), draw(st.integers(1, 40))
        return QSeries(den, order, draw(st.dictionaries(st.integers(0, order), nonzero, min_size=size, max_size=5)))

    window = {k: series(1) for k in draw(st.sets(st.integers(-3, 6), min_size=1, max_size=4))}
    return ZSeries(window), series(2)


@settings(max_examples=200, deadline=None)
@given(z_windows())
def test_embedded_product_equals_scale_series(pair):
    a, s = pair
    assert a * ZSeries.embed(s) == a.scale_series(s)


def test_jtp_check_passes():
    rep = jtp_check(60)
    assert isinstance(rep, JtpReport)
    assert rep.ok and rep.first_divergence is None


def test_jtp_check_makes_no_kernel_call(monkeypatch):
    # the left side E(z)*E(1/z)*(q;q)_inf is one Horner fold per z-power
    # (zseries._triple_product), and no product is formed
    monkeypatch.setattr(_kernel_py, "conv_terms", lambda *args: pytest.fail("conv_terms called"))
    assert jtp_check(120).ok


@pytest.mark.parametrize("order", [F(7, 4), 40, 120])
def test_jtp_check_divides_once_per_chain_entry_and_fold_level(order, monkeypatch):
    # v_m = m^2/2 is the exponent of (-q^(1/2))^m q^binom(m,2): the chain
    # (q;q)_inf/(q;q)_m cuts entry m to the powers of q within order - v_m
    # and takes one division per m >= 1 whose factor q^m lies among them,
    # m + m^2/2 <= order (at 120, m <= 14 of the 15 with v_m <= order), and
    # level n >= 1 of slice k, at v_n + v_(n+k) <= order, one more beside
    # whatever (q;q)_inf itself takes
    unit_div, calls = series._unit_div, []

    def spy(*args):
        calls.append(args)
        return unit_div(*args)

    monkeypatch.setattr(series, "_unit_div", spy)
    poch_infinite(qmono(1), qmono(1), order)
    base = len(calls)
    calls.clear()
    assert jtp_check(order).ok
    chain = sum(1 for m in range(1, 100) if m * m + 2 * m <= 2 * order)
    levels = sum(1 for k in range(100) for n in range(1, 100) if n * n + (n + k) ** 2 <= 2 * order)
    assert len(calls) == base + chain + levels


def test_jtp_negative_control():
    # flipping the theta sign must produce an early divergence
    order = F(20)
    q = qmono(1)
    half = Monomial(MINUS_ONE, F(1, 2))
    lhs = (
        euler_z_product(half, q, order)
        * euler_z_product(half, q, order).reflect()
        * ZSeries.embed(poch_infinite(q, q, order))
    )
    wrong = theta_z(1, F(1, 2), ONE, 1, order)  # sign +1 instead of -1
    d = lhs.first_difference(wrong, order)
    assert d is not None and d[1] <= 2


def _single_sum(quad, lin, box, order):
    """sum_n q^(quad*n^2 + lin*n) / (q;q)_n over n <= box, by the oracle."""
    exponent = ExponentPoly.make({("n", "n"): quad}, {"n": lin})
    spec = IdentitySpec("single", 1, ("n",), (), exponent, (("n", qmono(1)),), ())
    return unpruned_sum(spec, (box,), order)


def test_nahm_rank1_matches_single_sum():
    data = NahmData(a=((F(2),),), b=(F(0),), c=F(0))
    s = nahm_series(data, 40)
    direct = _single_sum(1, 0, 7, 40)
    assert s.same_through(direct, 40)


def test_nahm_half_integer_linear():
    data = NahmData(a=((F(1),),), b=(F(1, 2),), c=F(0))
    s = nahm_series(data, 20)
    # n(n+1)/2 is always integral, so the scaled denominator reduces to 1
    assert s.den in (1, 2)
    direct = _single_sum(F(1, 2), F(1, 2), 6, 20)
    assert s.same_through(direct, 20)


def test_nahm_rank2():
    a = ((F(2), F(1)), (F(1), F(2)))
    data = NahmData(a=a, b=(F(0), F(0)), c=F(0))
    s = nahm_series(data, 15)
    assert s.coeff(0).re == 1
    assert s.coeff(1).re == 2  # lattice points (1,0) and (0,1)
    # cross-check fully against literal expansion
    table = [_poch(15, [(qmono(1), qmono(1), n, -1)]) for n in range(7)]
    acc = QSeries.zero(15)
    for m in range(7):
        for n in range(7):
            e = m * m + m * n + n * n
            if e > 15:
                continue
            acc = acc + table[m].shift(e).mul(table[n])
    assert s.same_through(acc, 15)


def test_nahm_rejects_bad_matrices():
    with pytest.raises(NotPositiveDefinite):
        NahmData(a=((F(-1),),), b=(F(0),), c=F(0))
    with pytest.raises(NotPositiveDefinite):
        NahmData(a=((F(1), F(2)), (F(3), F(1))), b=(F(0), F(0)), c=F(0))


def test_nahm_negative_constant_is_an_error():
    data = NahmData(a=((F(2),),), b=(F(0),), c=F(-1, 60))
    with pytest.raises(NegativeExponent):
        nahm_series(data, 10)


@st.composite
def nahm_data(draw):
    """Diagonally dominant PD A (eigenvalues >= 1), B in halves >= 0, C >= 0."""
    rank = draw(st.integers(1, 3))
    a = [[F(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            a[i][j] = a[j][i] = F(draw(st.integers(-2, 2)), 2)
    for i in range(rank):
        a[i][i] = sum(abs(x) for x in a[i]) + F(draw(st.integers(2, 6)), 2)
    b = tuple(F(draw(st.integers(0, 2)), 2) for _ in range(rank))
    return NahmData(a=tuple(map(tuple, a)), b=b, c=F(draw(st.integers(0, 4)), 4))


@settings(max_examples=25, deadline=None)
@given(nahm_data(), st.integers(0, 12))
def test_nahm_matches_unpruned_oracle_property(data, order):
    # eigenvalues >= 1 and B, C >= 0 put every point with exponent <= order
    # inside the cube of side isqrt(2*order) + 1
    cube = list(iproduct(range(isqrt(2 * order) + 2), repeat=data.rank))
    spec = data.sum_spec()
    for n in cube:
        assert spec.exponent.eval(dict(zip(spec.indices, n))) == data.exponent(n)
    box = [0] * data.rank
    for n in cube:
        if data.exponent(n) <= order:
            box = [max(x, y) for x, y in zip(box, n)]
    assert nahm_series(data, order) == unpruned_sum(spec, box, order)


@settings(max_examples=40, deadline=None)
@given(nahm_data(), st.integers(0, 12))
def test_index_bounds_cover_every_point_property(data, order):
    # A is definite, so the box holds every lattice point, not only n >= 0
    bounds = auto_bounds(data.sum_spec(), order)
    r = isqrt(2 * order) + 1
    for n in iproduct(range(-r, r + 1), repeat=data.rank):
        if data.exponent(n) <= order:
            assert all(x <= g for x, g in zip(n, bounds)), (n, bounds)


@pytest.mark.parametrize("order", [F(1, 3), F(7, 3), F(13, 6), F(5, 2), F(9, 8), F(20)])
def test_no_constructor_or_builder_claims_less_than_its_order(order):
    # each works out a grid that holds the order; flooring it onto a grid
    # of the exponents alone (7/3 onto halves is 2) would claim less
    b = qmono(F(1, 2))
    built = [
        QSeries.zero(order),
        QSeries.one(order),
        QSeries.term(I, F(1, 2), order),
        ZSeries.zero(order),
        poch_finite(qmono(F(1, 4)), b, 3, order),
        poch_infinite(qmono(F(3, 4)), b, order),
        *(_poch(order, [(qmono(F(3, 4)), qmono(F(3, 4)), n, -1)]) for n in range(5)),
        gaussian_binomial(5, 2, b, order),
        *(x for n in range(4) for x in gaussian_binomial_row(n, b, order)),
        *gaussian_binomial_row(4, b, order),
        rogers_szego_def(4, b, order),
        rogers_szego_bw(4, b, order),
        rs_at(4, Monomial(I, F(1, 3)), b, order),
        theta_z(F(1, 2), F(1, 4), I, -1, order),
        euler_z_inverse(Monomial(I, F(3, 2)), qmono(2), order),
        euler_z_product(Monomial(MINUS_ONE, F(3, 4)), qmono(1), order),
        eval_product(corpus.load("double_mod5_1_4"), order),
    ]
    assert [x.order_q for x in built] == [order] * len(built)


@settings(max_examples=25, deadline=None)
@given(
    st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 4])),
    st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3])),
    st.sampled_from(UNITS),
    st.sampled_from([F(1, 2), F(3, 4), F(1), F(3, 2)]),
    st.sampled_from([F(1, 4), F(1, 2), F(1), F(2)]),
    st.integers(0, 6),
    st.sampled_from(corpus.corpus_names()),
)
def test_tables_and_product_sides_are_order_honest(n, step, unit, be, xe, k, name):
    # every table, Pochhammer product, product side, Gaussian binomial row
    # and Rogers-Szego value built at N equals the one built at M = N + step
    # truncated to N, and carries order exactly N
    spec = corpus.load(name)
    b, x = qmono(be), Monomial(unit, xe)

    def build(order):
        return [
            *(_poch(order, [(b, b, j, -1)]) for j in range(k + 1)),
            poch_finite(x, b, k, order),
            poch_infinite(x, b, order),
            eval_product(spec, order),
            *gaussian_binomial_row(k, b, order),
            rs_at(k, x, b, order),
        ]

    for lo, hi in zip(build(n), build(n + step)):
        assert lo == hi.rescale(lcm(hi.den, n.denominator)).truncate(n) and lo.order_q == n
