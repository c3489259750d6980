import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qrr.errors import DivergentEmbedding, NegativeExponent
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
    th = theta_z(1, F(1, 2), MINUS_ONE, 1, 30, den=2)
    for k in range(-5, 6):
        e = binom2(k) + F(k, 2)
        assert th.slice(k).coeff(e) == (MINUS_ONE if k % 2 else ONE)


def test_theta_negative_exponent_raises():
    # k = 1 has exponent binom(1,2)/2 - 1/4 = -1/4: no power series holds it
    with pytest.raises(NegativeExponent, match="k = 1 "):
        theta_z(F(1, 2), F(-1, 4), I, -1, 10, den=4)


@pytest.mark.parametrize("order", [0, F(1, 4), F(9, 4), 10, 33])
def test_reindexed_theta_is_a_quarter_shift_of_the_laurent_theta(order):
    # replay 1.8's T = q^(1/4) * sum_k i^k q^(k(k-2)/4) z^(-k), taken as
    # i z^(-1) * theta_z(1/2, 1/4, i, -1), against the sum built term by term
    t = ZSeries({-1: QSeries.term(I, 0, order, den=4)}) * theta_z(F(1, 2), F(1, 4), I, -1, order, den=4)
    want = {}
    reach = 2 * math.isqrt(int(order) + 1) + 2
    for k in range(1 - reach, 2 + reach):
        e = F(k * (k - 2), 4) + F(1, 4)
        if e <= order:
            want[-k] = QSeries.term(i_pow(k), e, order, den=4)
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


def test_triple_product_window_digest():
    # sha256 of str() of jtp_check's product side at order 120, first 16
    # hex digits, recorded while ZSeries still carried a global q-shift
    half = Monomial(MINUS_ONE, F(1, 2))
    q = qmono(1)
    lhs = (
        euler_z_product(half, q, 120, den=2)
        * euler_z_product(half, q, 120, den=2).reflect()
        * ZSeries.embed(poch_infinite(q, q, 120, den=2))
    )
    assert hashlib.sha256(str(lhs).encode()).hexdigest()[:16] == "6626ffc7092ba704"


@st.composite
def zseries(draw):
    """A small ZSeries: up to three slices, each on its own den (1-4) at its
    own order, real or complex, zero slices allowed; or an empty window."""
    if draw(st.booleans()) and draw(st.booleans()):
        return ZSeries.zero(F(draw(st.integers(0, 40)), 4), draw(st.integers(1, 4)))
    coeff = {}
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.integers(1, 4))
        order = draw(st.integers(0, 12))
        im = st.just(0) if draw(st.booleans()) else st.integers(-3, 3)
        c = st.builds(GaussianInt, st.integers(-3, 3), im)
        coeff[draw(st.integers(-3, 3))] = QSeries(den, order, draw(st.dictionaries(st.integers(0, order), c, max_size=4)))
    return ZSeries(coeff)


def _assert_fitted(z, operands):
    """Every slice of z sits on z's grid at z's order, which is the lowest
    of the operands' orders on their lcm grid; an empty z carries it too."""
    assert z.den == math.lcm(*(x.den for x in operands))
    assert z.order_q == min(x.order_q for x in operands)
    for s in z.coeff.values():
        assert s.den == z.den and s.order == z.order and not s.is_zero()


@settings(max_examples=200, deadline=None)
@given(zseries(), zseries(), st.integers(-3, 3))
def test_every_operation_fits_slices_to_one_grid_and_order(a, b, j):
    _assert_fitted(a, [a])
    for z in (a + b, a - b, a * b, b * a):
        _assert_fitted(z, [a, b])
    s = b.slice(b.window[0])
    _assert_fitted(a.scale_series(s), [a, s])
    _assert_fitted(a.zshift(j), [a])
    _assert_fitted(a.reflect(), [a])
    _assert_fitted(-a, [a])
