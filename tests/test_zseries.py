import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qrr import _kernel_py, series, zseries
from qrr.errors import DivergentEmbedding, NegativeExponent
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, GaussianInt, binom2, i_pow, unit_pow
from qrr.oracle import dense_mul
from qrr.series import Monomial, QSeries, _poch, poch_infinite, qmono
from qrr.replay import replay_1_8
from qrr.zseries import ZSeries, euler_z_inverse, euler_z_product, theta_z


def test_embed_and_ct():
    s = QSeries.one(10) + QSeries.term(I, 3, 10)
    z = ZSeries.embed(s)
    assert z.window == (0, 0)
    assert z.ct() == s
    shifted = ZSeries({k + 2: t for k, t in z.coeff.items()})
    assert shifted.ct().is_zero()
    assert shifted.slice(2) == s


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


def test_theta_z_refuses_bad_arguments():
    for args, message in (
        ((0, 1, ONE, 1), "theta needs a positive quadratic coefficient"),
        ((1, 1, ONE, 0), "theta z-power step must be nonzero"),
        ((1, 1, GaussianInt(1, 1), 1), "theta sign must be a unit of Z\\[i\\]"),
    ):
        with pytest.raises(ValueError, match="^%s$" % message):
            theta_z(*args, 10)


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
    # (-c z; b)_inf / (-c z; b)_inf for b = q; the bases -q, i q and -i q
    # are refused, as by every Pochhammer builder
    b = Monomial(unit, F(1))
    if unit != ONE:
        for build in (euler_z_product, euler_z_inverse):
            with pytest.raises(ValueError, match="^Pochhammer base must be a positive power of q with unit 1$"):
                build(c, b, 14)
        return
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


# -- the builders against the per-slice recipes they replaced ----------------


def _fields(z):
    """Every stored field of a window: its grid and order, and each slice's."""
    return z.den, z.order, {k: (s.den, s.order, s.val, s.re, s.im) for k, s in z.coeff.items()}


def _euler_recipe(c, b, eps, order):
    """sum_n c**n b**(eps*binom(n,2)) z**n / (b;b)_n slice by slice: each
    1/(b;b)_n, one divisor family of the product walk, shifted by its
    exponent as a Fraction and scaled by its unit, and the window fitted
    once more from its slices."""
    order = F(order)
    vals = []
    while (v := len(vals) * c.exp + eps * binom2(len(vals)) * b.exp) <= order:
        vals.append(v)
    table = [_poch(order, [(b, b, n, -1)]) for n in range(len(vals))]
    units = [unit_pow(c.unit, n) * unit_pow(b.unit, eps * binom2(n)) for n in range(len(vals))]
    return ZSeries({n: table[n].shift(v).scale(units[n]) for n, v in enumerate(vals)})


def _theta_recipe(alpha, beta, chi, s, order):
    """The theta window term by term: one QSeries per k whose exponent is
    within the order, on the grid of the order, alpha and beta; the first
    such term below q**0 raises as theta_z does."""
    alpha, beta, order = F(alpha), F(beta), F(order)
    den = math.lcm(order.denominator, alpha.denominator, beta.denominator)
    n = math.floor(order * den)
    reach = 60
    assert min(alpha * binom2(k) + beta * k for k in (-reach - 1, reach + 1)) > order
    coeff = {}
    for k in range(-reach, reach + 1):
        e = alpha * binom2(k) + beta * k
        if e <= order:
            if e < 0:
                raise NegativeExponent("theta term k = %d has q-exponent %s < 0" % (k, e))
            coeff[s * k] = QSeries(den, n, {int(e * den): unit_pow(chi, k)})
    return ZSeries._fitted(coeff, den, n)


_UNITS = st.sampled_from([ONE, MINUS_ONE, I, MINUS_I])
# integer and fractional orders
_ORDERS = st.builds(F, st.integers(0, 120), st.sampled_from([1, 2, 3, 4]))


@settings(max_examples=300, deadline=None)
@given(
    _UNITS,
    st.sampled_from([0, 1]),
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(5)]),
    st.sampled_from([F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(3), F(4)]),  # bases q^(1/2) to q^4
    _ORDERS,
)
@example(I, 0, F(3, 2), F(2), F(481, 4))  # replay 1.8's z_plus at 120
@example(MINUS_ONE, 0, F(3), F(4), F(481, 4))  # and its collapsed window
@example(MINUS_ONE, 1, F(1, 2), F(1), F(301))  # jtp_check's Euler factor at 301
@example(ONE, 1, F(5), F(1, 2), F(7, 2))  # c past the order: the window is 1
@example(ONE, 0, F(5, 3), F(1, 2), F(3, 2))  # on the grid of the order and b alone
@example(ONE, 0, F(3, 2), F(1), F(1))  # c off that grid, within one step of the order
def test_euler_builders_equal_the_per_slice_recipe(cu, eps, ce, be, order):
    # every field equal: the window's grid and order, and each slice's
    # grid, order, valuation and lists
    c, b = Monomial(cu, ce), qmono(be)
    build = euler_z_product if eps else euler_z_inverse
    assert _fields(build(c, b, order)) == _fields(_euler_recipe(c, b, eps, order))


@pytest.mark.parametrize(
    "build, c, b, order, calls, entries",
    [
        (euler_z_inverse, Monomial(I, F(3, 2)), qmono(2), F(481, 4), 34, 1_615),  # replay 1.8's z_plus
        (euler_z_product, Monomial(I, F(3, 4)), qmono(1), F(120), 14, 1_155),  # replay 1.5's
        (euler_z_product, Monomial(MINUS_ONE, F(1, 2)), qmono(1), F(300), 23, 4_755),  # jtp_check's
    ],
)
def test_euler_windows_divide_each_entry_within_its_reach(build, c, b, order, calls, entries, monkeypatch):
    # entry n of 1/(x;x)_n, x = b, is cut to the powers of x within
    # order - v_n before it is divided, and not divided when 1 - x**n lies
    # past them; dividing over the whole window and cutting afterwards took
    # 60 calls over 3,660 entries, 15 over 1,815 and 24 over 7,224
    want = _euler_recipe(c, b, 0 if build is euler_z_inverse else 1, order)
    seen = []

    def spy(x, k, u, start=0):
        seen.append(len(x) - start)
        return unit_div(x, k, u, start)

    unit_div = series._unit_div
    monkeypatch.setattr(series, "_unit_div", spy)
    assert _fields(build(c, b, order)) == _fields(want)
    assert (len(seen), sum(seen)) == (calls, entries)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(4)]),
    st.sampled_from([F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2), F(1), F(5, 3)]),
    _UNITS,
    st.sampled_from([1, -1, 2]),
    _ORDERS,
)
@example(F(1, 2), F(1, 4), I, -1, F(481, 4))  # replay 1.8's theta at 120
@example(F(1), F(1, 2), MINUS_ONE, 1, F(301))  # jtp_check's at 301
def test_theta_equals_the_per_term_recipe(alpha, beta, chi, s, order):
    def run(build):
        try:
            return _fields(build(alpha, beta, chi, s, order))
        except NegativeExponent as ex:
            return str(ex)

    assert run(theta_z) == run(_theta_recipe)


@settings(max_examples=200, deadline=None)
@given(
    _UNITS,
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(5), F(150)]),  # the last past every order
    st.sampled_from([F(1, 2), F(1), F(2), F(3)]),  # bases q^(1/2) to q^3
    _ORDERS,
)
@example(MINUS_ONE, F(1, 2), F(1), F(1, 3))  # c past the order: the window is (b;b)_inf
@example(ONE, F(1, 4), F(1, 2), F(0))  # order 0: the window is 1
@example(I, F(1, 4), F(1, 2), F(1, 3))  # three slices from a chain of two entries
@example(I, F(3, 4), F(1, 2), F(61, 4))
@example(MINUS_I, F(3, 2), F(3), F(40))
@example(MINUS_ONE, F(1, 2), F(1), F(121))  # jtp_check's left side
def test_euler_pair_equals_the_product_of_the_windows(cu, ce, be, order):
    # every field equal to the generic product E(cz)*E(c/z)*(b;b)_inf, and
    # its mirrored slices one object
    c, b = Monomial(cu, ce), qmono(be)
    euler = euler_z_product(c, b, order)
    left = zseries._triple_product(c, b, order)
    assert _fields(left) == _fields(euler * euler.reflect() * ZSeries.embed(poch_infinite(b, b, order)))
    assert all(left.coeff[k] is left.coeff[-k] for k in left.coeff)


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
@given(windows(), windows())
def test_every_operation_fits_slices_to_one_grid_and_order(a, b):
    _assert_fitted(a, [a])
    for z in (a + b, a - b, a * b, b * a):
        _assert_fitted(z, [a, b])
    s = b.slice(b.window[0])
    _assert_fitted(a.scale_series(s), [a, s])
    _assert_fitted(a.reflect(), [a])
    _assert_fitted(-a, [a])


@settings(max_examples=50, deadline=None)
@given(windows(), windows())
def test_products_fit_their_operands_and_not_their_rows(x, y):
    # series._rows hands back each row on the product's grid and order, and
    # the rows enter the window as they are: `_fit` sees each operand slice
    # once per product and no slice of a product
    fit = zseries._fit
    seen = []

    def spy(s, den, order):
        seen.append(s)
        return fit(s, den, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zseries, "_fit", spy)
        got, ct = x * y, x.ct_mul(y)
    operands = [s for z in (x, y) for s in z.coeff.values()]
    assert sorted(map(id, seen)) == sorted(map(id, operands * 2))
    _assert_fitted(got, [x, y])
    assert ct == got.ct() and (ct.den, ct.order) == (got.den, got.order)


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
@example(  # one-term slices (a theta term, i/z) beside slices on strides 2 and 4
    ZSeries({-1: QSeries(1, 12, {0: (0, 1)}), 0: QSeries(1, 12, {0: (1, 0), 2: (2, 0), 6: (-1, 0)}), 1: QSeries(1, 12, {3: (-1, 0)})}),
    ZSeries({0: QSeries(1, 12, {0: (3, 0), 4: (1, 0)}), 1: QSeries(1, 12, {1: (0, -1), 5: (1, 0)}), 2: QSeries(1, 12, {2: (1, 0)})}),
)
def test_packed_product_matches_slice_by_slice_oracle(a, b):
    _assert_product(a, b)


def _assert_product(x, y):
    """x * y and y * x slice by slice, and both constant terms, against
    _reference."""
    want = _reference(x, y)
    for got in (x * y, y * x):
        _assert_fitted(got, [x, y])
        assert set(got.coeff) == {k for k, s in want.items() if not s.is_zero()}
        for k, s in want.items():
            assert got.slice(k) == s, k
    zero = want.get(0, QSeries.zero(min(x.order_q, y.order_q)).rescale(math.lcm(x.den, y.den)))
    assert x.ct_mul(y) == zero
    assert y.ct_mul(x) == zero


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
    # reaches the width's bound, |a|*|b|*count times the summed real or
    # imaginary parts of the weights, 2**167 here, which needs every byte the
    # width allows
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


# -- the one walk of series._rows against the pairing it replaced ------------


def _parent_rows(x, y, row):
    """(rows, g) as the product path built them before series._rows paired
    the slices itself: zseries._product's loops over the fitted slices (every
    pair whose valuations sum to at most the order, or every pair at z**row),
    then the gcd of the pairs' valuation differences within each row and of
    every used slice's offsets of nonzero coefficients."""
    den, order = zseries._min_order(x, y)
    a, b = (zseries._fit_slices(z.coeff, den, order) for z in (x, y))
    rows = {}
    if row is None:
        by_val = sorted(b, key=lambda j: b[j].val)
        for i, s in a.items():
            for j in by_val:
                if s.val + b[j].val > order:
                    break
                rows.setdefault(i + j, []).append((i, j))
    else:
        for i in a:
            if row - i in b:
                rows.setdefault(row, []).append((i, row - i))
    g = 0
    for pairs in rows.values():
        v0 = a[pairs[0][0]].val + b[pairs[0][1]].val
        g = math.gcd(g, *[a[i].val + b[j].val - v0 for i, j in pairs])
    for s in {id(s): s for pairs in rows.values() for i, j in pairs for s in (a[i], b[j])}.values():
        g = math.gcd(g, *s._support())
    return rows, g or 1


def _slice_fields(z):
    return {k: (s.den, s.order, s.val, s.re, s.im) for k, s in z.coeff.items()}


def _unsigned(x):
    """(x times its sign as a tuple, whose first nonzero entry is > 0; that sign)."""
    sign = 1 if next(filter(None, x)) > 0 else -1
    return tuple(sign * c for c in x), sign


def _pair_weights(x, y, rows, g):
    """{k: {(unordered pair of lists up to sign, position): weight}} of the
    pairs {k: [(i, j)]} of the fitted slices of x and y: each pair adds the
    products of the units of its slices' nonzero parts on stride g, the
    signs taken out of the parts included."""
    den, order = zseries._min_order(x, y)
    a, b = (zseries._fit_slices(z.coeff, den, order) for z in (x, y))

    def parts(s):
        out = []
        for part, unit in ((s.re, 1), (s.im or [], 1j)):
            if any(part):
                content, sign = _unsigned(part[::g])
                out.append((content, sign * unit))
        return out

    weights = {}
    for k, pairs in rows.items():
        w = weights[k] = {}
        for i, j in pairs:
            for cx, ux in parts(a[i]):
                for cy, uy in parts(b[j]):
                    t = tuple(sorted((cx, cy))), a[i].val + b[j].val
                    w[t] = w.get(t, 0) + ux * uy
    return weights


def _term_weights(lists, rows):
    """_pair_weights' map of the kernel's own lists and rows of weighted terms."""
    weights = {}
    for k, terms in rows.items():
        w = weights[k] = {}
        for (x, y, v), unit in terms.items():
            (cx, sx), (cy, sy) = _unsigned(lists[x]), _unsigned(lists[y])
            t = tuple(sorted((cx, cy))), v
            w[t] = w.get(t, 0) + sx * sy * unit
    return weights


@settings(max_examples=100, deadline=None)
@given(windows(), windows(), st.one_of(st.none(), st.integers(-9, 9)))
@example(  # a slice past the other operand's order still pairs at z**0
    ZSeries({0: QSeries(1, 9, {0: (1, 0), 2: (2, 0)}), 1: QSeries(1, 9, {8: (3, 0)})}),
    ZSeries({0: QSeries(1, 9, {4: (1, 0)}), -1: QSeries(1, 9, {3: (0, 1), 5: (2, 0)})}),
    0,
)
def test_rows_pair_the_slices_as_the_product_loops_did(x, y, row):
    # a full product (row None), a ct_mul, and one z**row slice inside or
    # outside the window: the kernel gets the same rows, each term's weight
    # the sum over the same pairs of slices, and the same stride as before
    # (and no call when there is no pair), and every output slice is
    # field-identical to the schoolbook reference on the product's grid and
    # order
    conv_terms = _kernel_py.conv_terms
    calls = []

    def spy(lists, rows, top, g):
        calls.append((lists, rows, g))
        return conv_terms(lists, rows, top, g)

    want = {k: s for k, s in _reference(x, y).items() if not s.is_zero()}
    den, order = zseries._min_order(x, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel_py, "conv_terms", spy)
        cases = [(row, zseries._product(x, y, row))]
        if row is None:
            cases.append((0, ZSeries._fitted({0: x.ct_mul(y)}, den, order)))
    for r, got in cases:
        want_rows, want_g = _parent_rows(x, y, r)
        lists, rows, g = calls.pop(0) if want_rows else ([], {}, want_g)  # no pair, no kernel call
        assert set(rows) == set(want_rows)
        assert _term_weights(lists, rows) == _pair_weights(x, y, want_rows, g)
        assert g == want_g
        assert (got.den, got.order) == (den, order)
        held = want if r is None else {k: s for k, s in want.items() if k == r}
        assert _slice_fields(got) == _slice_fields(ZSeries._fitted(held, den, order))
    assert not calls


def test_one_pair_products_with_nothing_to_form_are_zero(monkeypatch):
    # QSeries.mul is the row 0 of two one-key windows: a zero operand, or a
    # pair whose valuations sum past the order, forms no row, and the product
    # is the zero series on the lcm grid at the lower order; a zero operand
    # leaves no pair, so the kernel is not called
    s = QSeries(2, 9, {3: (1, 1), 5: (2, 0)})
    past = QSeries(3, 15, {12: (0, 1)})  # q^4: with s's q^(3/2), past q^(9/2)
    zero = QSeries.zero(F(10, 3))
    conv_terms = _kernel_py.conv_terms
    calls = []

    def spy(*args):
        calls.append(args)
        return conv_terms(*args)

    monkeypatch.setattr(_kernel_py, "conv_terms", spy)
    for x, y, den, order, kernel_calls in (
        (s, zero, 6, 20, 0),
        (zero, s, 6, 20, 0),
        (s, past, 6, 27, 1),
        (past, s, 6, 27, 1),
    ):
        calls.clear()
        p = x * y
        assert (p.den, p.order, p.val, p.re, p.im) == (den, order, 0, [], None)
        assert len(calls) == kernel_calls
    assert s.mul(QSeries.term(ONE, 0, 9)) == s


# -- order honesty: a result at N is the result at M > N truncated to N ------


def _cut(s, n):
    """s truncated to the q-order n, on the lcm of its grid and n's."""
    return s.rescale(math.lcm(s.den, n.denominator)).truncate(n)


def _cut_window(z, n):
    den = math.lcm(z.den, n.denominator)
    return ZSeries._fitted({k: _cut(s, n) for k, s in z.coeff.items()}, den, int(n * den))


@settings(max_examples=25, deadline=None)
@given(
    st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 4])),
    st.builds(F, st.integers(1, 12), st.sampled_from([1, 2, 3])),
    _UNITS,
    st.sampled_from([F(1, 2), F(3, 4), F(1), F(3, 2), F(2)]),
    st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]),
    st.sampled_from([F(1, 2), F(1), F(3, 2)]),
    st.sampled_from([F(0), F(1, 4), F(1, 2)]),
    _UNITS,
)
def test_products_and_their_builders_are_order_honest(n, step, cu, ce, be, alpha, beta, chi):
    # every window, product, constant term and series product built at N
    # equals the one built at M = N + step truncated to N, and carries order
    # exactly N (beta <= alpha keeps every theta exponent >= 0)
    def build(order):
        c, b = Monomial(cu, ce), qmono(be)
        windows = [euler_z_inverse(c, b, order), euler_z_product(c, b, order), theta_z(alpha, beta, chi, -1, order)]
        return windows, [x * y for x in windows for y in windows], [x.ct_mul(y) for x in windows for y in windows]

    m = n + step
    (lo, lo_products, lo_cts), (hi, hi_products, hi_cts) = build(n), build(m)
    for x, y in zip(lo + lo_products, hi + hi_products):
        assert x == _cut_window(y, n) and x.order_q == n
    for x, y in zip(lo_cts, hi_cts):
        assert x == _cut(y, n) and x.order_q == n
    for (x, j), (y, k) in (((0, 1), (2, -1)), ((1, 2), (0, 1)), ((2, 0), (2, -2))):
        p = lo[x].slice(j) * lo[y].slice(k)
        assert p == _cut(hi[x].slice(j) * hi[y].slice(k), n) and p.order_q == n


# -- windows that hold one series at several places --------------------------


@settings(max_examples=200, deadline=None)
@given(windows(), windows(), st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True))
@example(  # a purely imaginary slice and a complex one, each at two z-keys
    ZSeries({0: QSeries(1, 6, {0: (0, 2), 3: (0, -1)}), 2: QSeries(1, 6, {1: (1, 1), 2: (0, 3)})}),
    ZSeries({1: QSeries(1, 6, {0: (0, 1), 4: (2, 0)})}),
    [-1, 1],
)
def test_products_of_shared_slices_match_the_oracle(a, b, keys):
    # a and a.reflect() hold the same slice objects (real, complex or purely
    # imaginary), and c holds one slice of a at every key: mirrored or
    # repeated rows of these products are formed once, and each must still
    # equal its own sum of products
    s = a.slice(a.window[0])
    c = ZSeries({k: s for k in keys})
    for x, y in [(a, a), (a, a.reflect()), (c, c), (c, c.reflect()), (c, a), (c, b)]:
        _assert_product(x, y)


def test_mirrored_rows_are_formed_once(monkeypatch):
    # the rows z**k and z**-k of E(z)*E(1/z) pair the same slices at the
    # same reaches and shifts, so each is unpacked once and is one object
    euler = euler_z_product(Monomial(MINUS_ONE, F(1, 2)), qmono(1), 60)
    mirror = euler.reflect()
    want = _reference(euler, mirror)
    unpack = _kernel_py._unpack
    calls = []

    def spy(c, wb, nout):
        calls.append(nout)
        return unpack(c, wb, nout)

    monkeypatch.setattr(_kernel_py, "_unpack", spy)
    got = euler * mirror
    assert got == ZSeries(want)
    assert all(got.coeff[k] is got.coeff[-k] for k in got.coeff)
    assert len(got.coeff) > 1 and len(calls) == (len(got.coeff) + 1) // 2


def test_conjugate_euler_windows_form_only_their_even_rows(monkeypatch):
    # replay 1.8's z_plus * z_minus: slice n of z_plus is i**n * S_n and of
    # z_minus (-i)**n * S_n, so the pairs (m, n) and (n, m) of an odd row
    # cancel and those of an even row are one product with weight 2.  The
    # odd rows are never formed, and each even row is formed and unpacked
    # once per part: every term of an even row has a real weight (i**n *
    # (-i)**n = 1), so the row is real and unpacks one int
    z_plus = euler_z_inverse(Monomial(I, F(3, 2)), qmono(2), 30)
    z_minus = euler_z_inverse(Monomial(MINUS_I, F(3, 2)), qmono(2), 30)
    want = _reference(z_plus, z_minus)
    conv_terms, unpack = _kernel_py.conv_terms, _kernel_py._unpack
    rows, calls = [], []

    def spy_rows(*args):
        rows.append(conv_terms(*args))
        return rows[-1]

    def spy_unpack(c, wb, nout):
        calls.append(nout)
        return unpack(c, wb, nout)

    monkeypatch.setattr(_kernel_py, "conv_terms", spy_rows)
    monkeypatch.setattr(_kernel_py, "_unpack", spy_unpack)
    assert z_plus * z_minus == ZSeries(want)
    (out,) = rows
    assert all(want[k].is_zero() for k in want if k % 2)
    assert set(out) == {k for k, t in want.items() if not t.is_zero()} and not any(k % 2 for k in out)
    assert len({id(row) for row in out.values()}) == len(out)
    assert len(calls) == sum(1 if im is None else 2 for _, _, im in out.values())
    assert all(im is None for _, _, im in out.values()) and len(calls) == len(out)


@pytest.mark.parametrize("product", ["conjugate", "mirrored"])
def test_each_term_is_offered_once(monkeypatch, product):
    # E(cz)*E(-cz) holds each term twice in one row, as the pairs (m, n) and
    # (n, m), and E(z)*E(1/z) once in each of the mirrored rows z**k and
    # z**-k: series._rows sums the pairs' units first, so the kernel plans
    # each (key pair, position) once, and rows with the same terms are one
    # plan entry that lists every row it serves
    if product == "conjugate":
        x = euler_z_inverse(Monomial(I, F(3, 2)), qmono(2), 30)
        y = euler_z_inverse(Monomial(MINUS_I, F(3, 2)), qmono(2), 30)
    else:
        x = euler_z_product(Monomial(MINUS_ONE, F(1, 2)), qmono(1), 30)
        y = x.reflect()
    want = _reference(x, y)
    plan, conv_terms = _kernel_py._plan, _kernel_py.conv_terms
    plans, outs = [], []

    def spy_plan(lists, rows, top, g):
        out = plan(lists, rows, top, g)
        plans.append((rows, [(entry[0], entry[5]) for entry in out[0]]))  # conv_terms clears each entry once formed
        return out

    def spy_rows(*args):
        outs.append(conv_terms(*args))
        return outs[-1]

    monkeypatch.setattr(_kernel_py, "_plan", spy_plan)
    monkeypatch.setattr(_kernel_py, "conv_terms", spy_rows)
    assert x * y == ZSeries(want)
    ((rows, entries),) = plans
    (out,) = outs
    offers = [(k, t[:3]) for ks, held in entries for k in ks[:1] for t in held]
    assert len(offers) == len(set(offers)) == len({t[:3] for _, held in entries for t in held})
    assert all(t[:3] in rows[ks[0]] for ks, held in entries for t in held)
    assert sorted(k for ks, _ in entries for k in ks) == sorted(out)
    pairs, _ = _parent_rows(x, y, None)
    if product == "conjugate":  # the pairs (m, n) and (n, m) of an even row are one offer
        assert [ks for ks, _ in entries] == [[k] for k in rows if k % 2 == 0]
        assert len(offers) == sum((len(pairs[k]) + 1) // 2 for (k,), _ in entries)
    else:  # the rows z**k and z**-k are one entry, formed once
        assert len(entries) > 1
        assert all(sorted(ks) == sorted({ks[0], -ks[0]}) for ks, _ in entries)
        assert all(out[k] is out[-k] for k in out)


def test_replay_1_8_products_keep_their_strides(monkeypatch):
    # a one-term slice has no stride and imposes none: i/z * theta, all of
    # whose slices are one term, is on stride 1, and z_plus * z_minus, whose
    # slice 0 is the one term 1, stays on stride 8 (q**2 on the grid of
    # q**(1/4)), as do the ct_muls of the pair and the collapsed window with
    # theta on stride 4; letting a one-term slice lower g to 1 gives the same
    # slices 3.4 times slower
    conv_terms = _kernel_py.conv_terms
    strides = []

    def spy(lists, rows, top, g):
        strides.append(g)
        return conv_terms(lists, rows, top, g)

    monkeypatch.setattr(_kernel_py, "conv_terms", spy)
    replay_1_8(F(40))
    assert strides == [1, 8, 4, 4]


def test_a_list_held_by_several_slices_or_on_both_sides_is_keyed_once(monkeypatch):
    # series._rows keys a list the first time a series in use holds it: one
    # slice at three z-keys, a shifted series holding the same list, and
    # the same window on both sides are one key, keyed once per product;
    # (A + iB)*(B + iA) on shared lists keys A and B once each
    key = series._key
    keyed = []

    def spy(keys, lists, part):
        keyed.append(part)
        return key(keys, lists, part)

    monkeypatch.setattr(series, "_key", spy)
    s = QSeries(2, 20, {1: (3, 0), 3: (-1, 0), 7: (2, 0)})
    c = ZSeries({-1: s, 0: s, 2: s, 3: s.shift(1)})
    assert all(t.re is s.re for t in c.coeff.values())
    for x, y in [(c, c), (c, c.reflect())]:
        keyed.clear()
        assert x * y == ZSeries(_reference(x, y))
        assert keyed == [s.re]
    A, B = [3, -1, 0, 2], [1, 4, -5, 6]
    x, y = QSeries._of(1, 10, 0, A, B), QSeries._of(1, 10, 0, B, A)
    assert (x.re, x.im, y.re, y.im) == (A, B, B, A) and x.re is y.im and x.im is y.re
    keyed.clear()
    assert x * y == _reference(ZSeries.embed(x), ZSeries.embed(y))[0]
    assert sorted(map(id, keyed)) == sorted([id(A), id(B)])


_UNIT_LIST = [ONE, MINUS_ONE, I, MINUS_I]


@settings(max_examples=200, deadline=None)
@given(windows(), st.lists(st.tuples(st.integers(-4, 4), st.sampled_from(_UNIT_LIST)), min_size=1, max_size=5))
@example(  # c holds a complex slice times i, -1 and -i; a also has a purely imaginary one
    ZSeries({0: QSeries(1, 6, {0: (2, -1), 3: (0, 1)}), 1: QSeries(1, 6, {1: (0, 3), 2: (0, -2)})}),
    [(-1, I), (0, MINUS_ONE), (2, MINUS_I)],
)
def test_products_of_unit_multiples_match_the_oracle(a, scaled):
    # the kernel keys each slice by its content up to a unit of Z[i] and sums
    # the weights of equal terms; a window times its z -> -z twist, and one
    # slice times +-1, +-i at several keys, must each still equal their own
    # sums of products
    twist = ZSeries({k: -s if k % 2 else s for k, s in a.coeff.items()})
    s = a.slice(a.window[0])
    c = ZSeries({k: s.scale(u) for k, u in scaled})
    for x, y in [(a, twist), (c, c), (c, c.reflect()), (c, a), (c, twist)]:
        _assert_product(x, y)


@pytest.mark.parametrize("unit", _UNIT_LIST)
def test_a_row_whose_terms_cancel_is_left_out(monkeypatch, unit):
    # x = s + s*z and y = u*s/z - u*s: the pairs of row z**0 are s*(-u*s) and
    # s*(u*s), one term whose weights sum to 0, so the kernel forms no row 0;
    # the product has no z**0 slice and its constant term is the zero series
    # on the operands' grid and order
    s = QSeries(2, 9, {1: GaussianInt(3, 1), 4: I, 6: MINUS_ONE})
    x = ZSeries({0: s, 1: s})
    y = ZSeries({-1: s.scale(unit), 0: s.scale(-unit)})
    want = _reference(x, y)
    assert want[0].is_zero()
    conv_terms = _kernel_py.conv_terms
    rows = []

    def spy(*args):
        rows.append(conv_terms(*args))
        return rows[-1]

    monkeypatch.setattr(_kernel_py, "conv_terms", spy)
    got = x * y
    assert got == ZSeries(want) and 0 not in got.coeff and set(got.coeff) == {-1, 1}
    assert 0 not in rows[0] and set(rows[0]) == {-1, 1}
    for ct in (x.ct_mul(y), y.ct_mul(x)):
        assert ct.is_zero() and (ct.den, ct.order) == (2, 9)
    assert all(0 not in out for out in rows[1:])
