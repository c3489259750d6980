import math
from fractions import Fraction as F

import pytest
from qrr.errors import DivergentEmbedding
from qrr.gaussian import I, MINUS_ONE, ONE, GaussianInt, binom2, i_pow, unit_pow
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


def test_qshift_alignment_in_add_and_ct():
    a = theta_z(F(1, 2), F(-1, 4), I, -1, 10, den=4)
    assert a.qshift == F(-1, 4)
    b = ZSeries.embed(QSeries.one(10, den=4))
    tot = a + b
    # the z^0 slice gains the embedded 1 on top of theta's k=0 term
    assert tot.ct().coeff(0) == ONE + ONE


def test_theta_window_bound():
    # for alpha = 1/2 the included |k| stays within 2*ceil(sqrt(2*order)) + 3
    for order in (10, 20, 50):
        th = theta_z(F(1, 2), 0, MINUS_ONE, -1, order)
        lo, hi = th.window
        bound = 2 * math.isqrt(2 * order) + 5
        assert -bound <= lo <= hi <= bound
        # every included exponent is within order, first omitted k exceeds it
        for k, s in th.coeff.items():
            assert s.valuation() + th.qshift <= order


def test_theta_terms_are_exact():
    th = theta_z(1, F(1, 2), MINUS_ONE, 1, 30, den=2)
    for k in range(-5, 6):
        e = binom2(k) + F(k, 2)
        assert th.slice(k).coeff(e) == (MINUS_ONE if k % 2 else ONE)


def test_theta_negative_exponent_goes_to_qshift():
    from qrr.errors import NegativeExponent

    th = theta_z(F(1, 2), F(-1, 4), I, -1, 10, den=4)
    # k = 1 term has exponent -1/4 < 0, absorbed by the global shift
    assert th.qshift == F(-1, 4)
    assert th.coeff[-1].valuation() == 0  # stored relative to the shift
    # a bare slice would go Laurent in q, which is a hard error by design;
    # consumers multiply with co-factors of positive valuation before slicing
    with pytest.raises(NegativeExponent):
        th.slice(-1)


def test_euler_z_inverse_is_geometric_inverse():
    # 1/(cz; b)_inf times (cz; b)_inf == 1 on the z^0..z^k window
    c, b = qmono(1), qmono(1)
    inv = euler_z_inverse(c, b, 12)
    prod = euler_z_product(qmono(1, MINUS_ONE), b, 12)  # (cz; b)_inf
    unit = inv * prod
    assert unit.ct().same_through(QSeries.one(12), 12)
    for k in range(1, 5):
        assert unit.slice(k).same_through(QSeries.zero(12), 12), k


def test_euler_z_requires_positive_embedding():
    with pytest.raises(DivergentEmbedding):
        euler_z_inverse(qmono(0), qmono(1), 5)


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


def test_add_and_mul_keep_the_lower_order():
    low = ZSeries.zero(10)
    high = ZSeries.embed(QSeries.one(100))
    for z in (low + high, high + low, low * high, high * low, high - low, low.scale_series(QSeries.one(100))):
        assert z.order_q == 10
    # a zero slice carries its order like any other slice
    assert ZSeries({0: QSeries.one(100), 1: QSeries.zero(10)}).order_q == 10
    assert (-low).order_q == 10
    # on the lcm grid: the result keeps exactness through 5/2, not 2 or 3
    quarter = ZSeries.zero(F(5, 2), den=2)
    z = ZSeries.embed(QSeries.one(100, den=3)) * quarter
    assert z.order_q == F(5, 2) and z.den == 6
    # the operand of higher order is truncated, not just relabelled
    assert (ZSeries.embed(QSeries.term(ONE, 50, 100)) + low).is_zero()
