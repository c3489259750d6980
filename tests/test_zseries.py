import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qrr.errors import DivergentEmbedding, NegativeExponent
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, GaussianInt, binom2, i_pow, unit_pow
from qrr.oracle import dense_mul
from qrr.series import Monomial, QSeries, poch_infinite, qmono
from qrr.zseries import ZSeries, euler_z_inverse, euler_z_product, theta_z


def test_embed_and_ct():
    s = QSeries.one(10) + QSeries.term(I, 3, 10)
    z = ZSeries.embed(s)
    assert z.window == (0, 0)
    assert z.ct() == s
    assert z.zshift(2).ct().is_zero()
    assert z.zshift(2).slice(2) == s


def test_mul_is_z_convolution():
    # compare against a naive double loop over slices
    a = ZSeries({0: QSeries.one(8), 1: QSeries.term(ONE, 1, 8)})
    b = ZSeries({-1: QSeries.term(I, 2, 8), 2: QSeries.one(8)})
    p = a * b
    for k in range(-2, 5):
        naive = QSeries.zero(8)
        for i in (0, 1):
            ai = a.coeff.get(i)
            bj = b.coeff.get(k - i)
            if ai is not None and bj is not None:
                naive = naive + ai.mul(bj)
        assert p.slice(k).same_through(naive, 8), k


def test_reflect_stretch_scale():
    a = ZSeries({1: QSeries.one(6), 3: QSeries.term(ONE, 2, 6)})
    assert a.reflect().window == (-3, -1)
    assert a.zstretch(2).window == (2, 6)
    with pytest.raises(ValueError):
        a.zstretch(0)


def test_specialize_sums_window():
    a = ZSeries({0: QSeries.one(10), 2: QSeries.term(ONE, 1, 10)})
    s = a.specialize(qmono(3, I))  # z := i q^3
    assert s.coeff(0) == ONE
    assert s.coeff(7) == I * I  # z^2 -> i^2 q^6 times q


def test_theta_window_bound():
    # for alpha = 1/2 the included |k| stays within 2*ceil(sqrt(2*order)) + 3
    for order in (10, 20, 50):
        th = theta_z(F(1, 2), 0, MINUS_ONE, -1, order)
        lo, hi = th.window
        bound = 2 * math.isqrt(2 * order) + 5
        assert -bound <= lo <= hi <= bound
        # every included exponent is within order, first omitted k exceeds it
        for k, s in th.coeff.items():
            assert s.valuation() <= order


def test_theta_terms_are_exact():
    th = theta_z(1, F(1, 2), MINUS_ONE, 1, 30)
    for k in range(-5, 6):
        e = binom2(k) + F(k, 2)
        assert th.slice(k).coeff(e) == (MINUS_ONE if k % 2 else ONE)


def test_theta_negative_exponent_raises():
    # k = 1 has exponent binom(1,2)/2 - 1/4 = -1/4: no power series holds it
    with pytest.raises(NegativeExponent, match="k = 1 "):
        theta_z(F(1, 2), F(-1, 4), I, -1, 10)


@pytest.mark.parametrize("order", [0, F(1, 4), F(9, 4), 10, 33])
def test_reindexed_theta_is_a_quarter_shift_of_the_laurent_theta(order):
    # replay 1.8's T = q^(1/4) * sum_k i^k q^(k(k-2)/4) z^(-k), taken as
    # i z^(-1) * theta_z(1/2, 1/4, i, -1), against the sum built term by term
    t = ZSeries({-1: QSeries.term(I, 0, order)}) * theta_z(F(1, 2), F(1, 4), I, -1, order)
    want = {}
    reach = 2 * math.isqrt(int(order) + 1) + 2
    for k in range(1 - reach, 2 + reach):
        e = F(k * (k - 2), 4) + F(1, 4)
        if e <= order:
            want[-k] = QSeries.term(i_pow(k), e, order)
    assert set(t.coeff) == set(want)
    assert t.den == 4 and t.order_q == order
    for k, s in want.items():
        assert t.slice(k) == s, k


def test_euler_z_inverse_is_geometric_inverse():
    # 1/(cz; b)_inf times (cz; b)_inf == 1 on the z^0..z^k window
    c, b = qmono(1), qmono(1)
    inv = euler_z_inverse(c, b, 12)
    prod = euler_z_product(qmono(1, MINUS_ONE), b, 12)  # (cz; b)_inf
    unit = inv * prod
    assert unit.ct().same_through(QSeries.one(12), 12)
    for k in range(1, 5):
        assert unit.slice(k).same_through(QSeries.zero(12), 12), k


@pytest.mark.parametrize("unit", [ONE, MINUS_ONE, I, MINUS_I])
@pytest.mark.parametrize("c", [qmono(1), Monomial(I, F(1, 2)), Monomial(MINUS_ONE, F(3, 4))])
def test_euler_z_product_times_inverse_is_one_for_every_unit_base(unit, c):
    # (-c z; b)_inf / (-c z; b)_inf for b = q, -q, i q, -i q: the Euler
    # coefficients carry b's unit to the power binom(n, 2) and 1/(b;b)_n its
    # powers u**k in each factor
    b = Monomial(unit, F(1))
    one = euler_z_product(c, b, 14) * euler_z_inverse(Monomial(-c.unit, c.exp), b, 14)
    assert one == ZSeries.embed(QSeries.one(14))


def test_euler_z_requires_positive_embedding():
    with pytest.raises(DivergentEmbedding):
        euler_z_inverse(qmono(0), qmono(1), 5)
    # a base of nonpositive order has no q-expansion; the exponents
    # n + binom(n,2)*(-1) would never pass the order
    for build in (euler_z_inverse, euler_z_product):
        for b in (qmono(0), qmono(-1)):
            with pytest.raises(DivergentEmbedding):
                build(qmono(1), b, 5)


def test_jtp_z_slices():
    # triple product: each z-slice of the product matches the theta slice
    from qrr.special import jtp_check

    rep = jtp_check(40)
    assert rep.ok and rep.first_divergence is None


def test_first_difference_localizes():
    a = ZSeries({0: QSeries.one(10), 1: QSeries.term(ONE, 2, 10)})
    b = ZSeries({0: QSeries.one(10), 1: QSeries.term(ONE, 3, 10)})
    k, e = a.first_difference(b)
    assert k == 1 and e == 2
    assert a.same_through(b, F(1))
    # the only difference sits in the lowest z-slice
    low_a = ZSeries({-1: QSeries.term(ONE, 4, 10), 0: QSeries.one(10)})
    low_b = ZSeries({-1: QSeries.term(ONE, 5, 10), 0: QSeries.one(10)})
    assert low_a.first_difference(low_b) == (-1, 4)
    assert low_a.same_through(low_b, F(3))
    # windows of different extent: a slice one side lacks differs from zero
    one = ZSeries.embed(QSeries.one(10))
    wide = ZSeries({-2: QSeries.term(ONE, 7, 10), 0: QSeries.one(10), 3: QSeries.term(ONE, 8, 10)})
    assert wide.first_difference(one) == (-2, 7)
    assert one.first_difference(wide) == (-2, 7)
    top = ZSeries({0: QSeries.one(10), 3: QSeries.term(ONE, 1, 10)})
    assert one.first_difference(top) == (3, 1)


def test_empty_slices_stay_on_the_window_grid():
    # a missing slice and the specialization of an empty window are zeros
    # on the window's grid and order, not on the order's coarser grid
    z = ZSeries({1: QSeries.term(ONE, F(1, 4), 5)})
    for s in (z.slice(0), z.ct(), (z - z).specialize(qmono(1))):
        assert s.is_zero() and (s.den, s.order) == (4, 20)


def test_add_and_mul_keep_the_lower_order():
    low = ZSeries.zero(10)
    high = ZSeries.embed(QSeries.one(100))
    for z in (low + high, high + low, low * high, high * low, high - low, low.scale_series(QSeries.one(100))):
        assert z.order_q == 10
    # a zero slice carries its order like any other slice
    assert ZSeries({0: QSeries.one(100), 1: QSeries.zero(10)}).order_q == 10
    assert (-low).order_q == 10
    # on the lcm grid: the result keeps exactness through 5/2, not 2 or 3
    quarter = ZSeries.zero(F(5, 2))
    z = ZSeries.embed(QSeries.one(100).rescale(3)) * quarter
    assert z.order_q == F(5, 2) and z.den == 6
    # the operand of higher order is truncated, not just relabelled
    assert (ZSeries.embed(QSeries.term(ONE, 50, 100)) + low).is_zero()


def test_triple_product_window_digest():
    # sha256 of str() of jtp_check's product side at order 120, first 16
    # hex digits, recorded while ZSeries still carried a global q-shift
    half = Monomial(MINUS_ONE, F(1, 2))
    q = qmono(1)
    lhs = (
        euler_z_product(half, q, 120)
        * euler_z_product(half, q, 120).reflect()
        * ZSeries.embed(poch_infinite(q, q, 120))
    )
    assert hashlib.sha256(str(lhs).encode()).hexdigest()[:16] == "6626ffc7092ba704"


_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from([2**80, -(2**80)]), st.integers(-(2**80), 2**80))


@st.composite
def windows(draw):
    """A ZSeries whose slices are real, complex or purely imaginary, each on
    its own den (1-4) at its own order, with coefficients up to 2**80, zero
    slices and windows on either side of z**0; or an empty window."""
    if draw(st.integers(0, 5)) == 0:
        den = draw(st.integers(1, 4))
        return ZSeries({0: QSeries.zero(F(draw(st.integers(0, 10 * den)), den)).rescale(den)})
    coeff = {}
    for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True)):
        den = draw(st.integers(1, 4))
        order = draw(st.integers(0, 10 * den))
        kind = draw(st.sampled_from(["real", "complex", "imaginary"]))
        re = st.just(0) if kind == "imaginary" else _COEFFS
        im = st.just(0) if kind == "real" else _COEFFS
        c = st.builds(GaussianInt, re, im)
        coeff[k] = QSeries(den, order, draw(st.dictionaries(st.integers(0, order), c, max_size=8)))
    return ZSeries(coeff)


def _assert_fitted(z, operands):
    """Every slice of z sits on z's grid at z's order, which is the lowest
    of the operands' orders on their lcm grid; an empty z carries it too."""
    assert z.den == math.lcm(*(x.den for x in operands))
    assert z.order_q == min(x.order_q for x in operands)
    for s in z.coeff.values():
        assert s.den == z.den and s.order == z.order and not s.is_zero()


@settings(max_examples=200, deadline=None)
@given(windows(), windows(), st.integers(-3, 3))
def test_every_operation_fits_slices_to_one_grid_and_order(a, b, j):
    _assert_fitted(a, [a])
    for z in (a + b, a - b, a * b, b * a):
        _assert_fitted(z, [a, b])
    s = b.slice(b.window[0])
    _assert_fitted(a.scale_series(s), [a, s])
    _assert_fitted(a.zshift(j), [a])
    _assert_fitted(a.reflect(), [a])
    _assert_fitted(-a, [a])


# -- the packed product against slice-by-slice schoolbook products -----------


def _dense(s: QSeries, den: int, order: int) -> tuple:
    """Real and imaginary parts of the coefficients 0..order of s on grid den,
    as two int lists without trailing zeros."""
    re, im = [0] * (order + 1), [0] * (order + 1)
    for e, c in s.terms():
        if e * den <= order:
            re[int(e * den)], im[int(e * den)] = c
    while re and not re[-1]:
        re.pop()
    while im and not im[-1]:
        im.pop()
    return re, im


def _reference(a: ZSeries, b: ZSeries) -> dict:
    """{k: QSeries}: each z-slice of a * b as a sum of products, each made of
    four real dense_mul products of the operands' real and imaginary parts."""
    den = math.lcm(a.den, b.den)
    order = min(a.order * (den // a.den), b.order * (den // b.den))
    rows = {}
    for i, x in a.coeff.items():
        xr, xi = _dense(x, den, order)
        for j, y in b.coeff.items():
            yr, yi = _dense(y, den, order)
            re, im = rows.setdefault(i + j, ([0] * (order + 1), [0] * (order + 1)))
            for row, sign, u, v in ((re, 1, xr, yr), (re, -1, xi, yi), (im, 1, xr, yi), (im, 1, xi, yr)):
                for k, c in enumerate(dense_mul(u, v)[: order + 1]):
                    row[k] += sign * c
    return {k: QSeries(den, order, dict(enumerate(zip(re, im)))) for k, (re, im) in rows.items()}


@settings(max_examples=200, deadline=None)
@given(windows(), windows())
@example(  # a slice above the other operand's order fits to zero and drops out
    ZSeries({0: QSeries(1, 9, {0: (1, 0), 1: (2, 0)}), 1: QSeries(1, 9, {7: (3, 0), 8: (1, 1)})}),
    ZSeries({0: QSeries(1, 5, {0: (1, 0), 2: (5, 0)}), -1: QSeries(1, 5, {1: (0, 1), 3: (2, 0)})}),
)
def test_packed_product_matches_slice_by_slice_oracle(a, b):
    want = _reference(a, b)
    for got in (a * b, b * a):
        _assert_fitted(got, [a, b])
        assert set(got.coeff) == {k for k, s in want.items() if not s.is_zero()}
        for k, s in want.items():
            assert got.slice(k) == s, k
    zero = want.get(0, QSeries.zero(min(a.order_q, b.order_q)).rescale(math.lcm(a.den, b.den)))
    assert a.ct_mul(b) == zero
    assert b.ct_mul(a) == zero


@pytest.mark.parametrize(
    "x, y, length",
    [
        (ONE, ONE, 16),
        (ONE, GaussianInt(1, 1), 16),
        (GaussianInt(1, 1), GaussianInt(1, -1), 8),
    ],
)
def test_packed_product_at_the_width_bound(x, y, length):
    # eight slices of `length` equal coefficients x*2**80 and y*2**80: in row
    # z**7 eight pairs land length products each on one digit, and that digit
    # reaches the width's bound |a|*|b|*count (doubled for complex x complex),
    # 2**167 here, which needs every byte the width allows
    big = 2**80
    a = ZSeries({k: QSeries(1, 2 * length, {e: x * big for e in range(length)}) for k in range(8)})
    b = ZSeries({k: QSeries(1, 2 * length, {e: y * big for e in range(length)}) for k in range(8)})
    want = _reference(a, b)
    assert max(abs(c) for c in (want[7].coeff(length - 1))) == 2**167
    assert a * b == ZSeries(want)
    assert b * a == ZSeries(want)
    assert a.ct_mul(b) == want[0]


def test_multi_term_windows_make_no_slice_multiply(monkeypatch):
    # one-term slices (a theta window, i/z, a z-binomial) take the same
    # packed path as multi-term windows; none is multiplied slice by slice
    a = euler_z_product(Monomial(I, F(3, 4)), qmono(1), 12)
    b = euler_z_inverse(Monomial(MINUS_ONE, F(1, 2)), qmono(2), 10).reflect()
    theta = theta_z(F(1, 2), F(1, 4), I, -1, 4)
    i_over_z = ZSeries({-1: QSeries.term(I, 0, 5)})
    zbinomial = ZSeries({0: QSeries.one(5).rescale(4), 1: QSeries.term(MINUS_I, F(5, 4), 5)})
    singles = [theta, i_over_z, zbinomial]
    pairs = [(a, b)] + [(x, s) for s in singles for x in [a, b] + singles]
    pairs += [(s, x) for s in singles for x in (a, b)]
    wants = [_reference(x, y) for x, y in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("QSeries.mul called on a z-window")

    monkeypatch.setattr(QSeries, "mul", refuse)
    for (x, y), want in zip(pairs, wants):
        zero = want.get(0, QSeries.zero(min(x.order_q, y.order_q)).rescale(4))
        assert x * y == ZSeries(want)
        assert x.ct_mul(y) == zero
