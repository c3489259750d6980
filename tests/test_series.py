import ast
from fractions import Fraction as F
from math import isqrt, lcm
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrr import _kernel_py, corpus, special
from qrr.errors import DivergentProduct, NegativeExponent, NonUnitConstantTerm
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, UNITS, ZERO, GaussianInt, binom2, unit_pow
from qrr.identity import eval_product, eval_sum
from qrr.oracle import dense_mul
from qrr.special import gaussian_binomial, gaussian_binomial_row
from qrr.series import (
    Monomial,
    QSeries,
    _chain,
    _divide,
    _poch,
    _spread,
    _tail,
    _unit_div,
    _unit_mul,
    poch_finite,
    poch_infinite,
    qmono,
)

# ---------------------------------------------------------------------------
# strategies


coeffs = st.builds(
    GaussianInt, st.integers(-9, 9), st.integers(-9, 9)
)


def series(order=24, den=1):
    return st.dictionaries(st.integers(0, order), coeffs, max_size=10).map(
        lambda d: QSeries(den, order, d)
    )


# ---------------------------------------------------------------------------
# basics


def test_constructors_and_views():
    s = QSeries.one(10)
    assert s.coeff(0) == ONE and s.coeff(10) == GaussianInt(0, 0)
    with pytest.raises(ValueError):
        s.coeff(11)  # beyond the truncation window
    t = QSeries.term(I, F(3, 2), 5)
    assert t.coeff(F(3, 2)) == I
    assert t.den == 2 and t.order_q == 5
    assert t.valuation() == F(3, 2)
    assert t.fractional_support() == [F(3, 2)]
    assert t.imaginary_support() == [F(3, 2)]
    assert QSeries.zero(4).is_zero()


def test_scale_by_a_pair_equals_scale_by_its_gaussian_int():
    s = QSeries.term(I, 2, 9) + QSeries.term(MINUS_ONE, 5, 9)
    assert s.scale((2, 0)) == s.scale(GaussianInt(2, 0))
    assert s.scale((0, -1)) == s.scale(MINUS_I)
    assert s.scale((1, 0)) is s


def test_rescale_reduce_roundtrip():
    s = QSeries.term(ONE, 2, 9) + QSeries.term(MINUS_ONE, 5, 9)
    r = s.rescale(6)
    assert r.den == 6 and r == s


def test_shift_moves_order():
    s = QSeries.one(10) + QSeries.term(ONE, 1, 10)
    up = s.shift(3)
    assert up.order_q == 13
    assert up.coeff(3) == ONE and up.coeff(4) == ONE
    down = up.shift(-3)
    assert down == s
    with pytest.raises(NegativeExponent):
        s.shift(-1)  # valuation 0 cannot absorb a negative shift


def test_truncate():
    s = QSeries.term(ONE, 0, 10) + QSeries.term(ONE, 7, 10)
    t = s.truncate(5)
    assert t.order_q == 5
    with pytest.raises(ValueError):
        t.coeff(7)
    with pytest.raises(ValueError):
        t.truncate(8)


def test_shift_then_mul_is_exact():
    # the accumulation pattern of replay 1.7's regrouping: the product keeps
    # the lower order, so nothing past it is formed or claimed
    a = poch_infinite(qmono(1), qmono(1), 12).invert_unit()
    full = a.mul(a)
    for e in (8, F(1, 4)):
        windowed = a.shift(e).mul(a)
        assert windowed.order_q == 12
        assert windowed.first_difference(full.shift(e), 12) is None


def test_invert_unit():
    s = QSeries.one(20) - QSeries.term(ONE, 1, 20)
    inv = s.invert_unit()
    assert (s.mul(inv)) == QSeries.one(20)
    # constant term must be a unit
    bad = QSeries.term(GaussianInt(2, 0), 0, 5)
    with pytest.raises(Exception):
        bad.invert_unit()


def test_substitute_power():
    s = QSeries.term(ONE, 1, 6) + QSeries.term(I, 3, 6)
    t = s.substitute_power(2)
    assert t.coeff(2) == ONE and t.coeff(6) == I and t.order_q == 12
    h = s.substitute_power(F(1, 2))
    assert h.coeff(F(1, 2)) == ONE and h.den == 2


# ---------------------------------------------------------------------------
# the pentagonal-number oracle for (q;q)_inf


def test_euler_product_pentagonal_to_200():
    order = 200
    prod = poch_infinite(qmono(1), qmono(1), order)
    expect = {}
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order and e2 > order:
            break
        sign = MINUS_ONE if k % 2 else ONE
        if e1 <= order:
            expect[e1] = sign
        if e2 <= order:
            expect[e2] = sign
        k += 1
    expect[0] = ONE
    for n in range(order + 1):
        assert prod.coeff(n) == expect.get(n, GaussianInt(0, 0)), n


def lift(s, exp):
    """s on the grid g that holds the exponent exp, and exp as exp*g grid
    steps."""
    exp = F(exp)
    g = lcm(s.den, exp.denominator)
    return s.rescale(g), int(exp * g)


def padded(s, unit, k, step):
    """s times or over 1 - unit*q**(k/s.den), for step `_unit_mul` or
    `_divide`: the lists zero-padded to the whole window, then one step on
    every entry, with nothing continued past them.  A k past the window
    reaches no entry and returns s."""
    n = s.order - s.val + 1
    if k >= n or not s.re:
        return s
    pad = [0] * (n - len(s.re))
    im = s.im if s.im is not None or not unit[1] else [0] * len(s.re)
    re, im = s.re + pad, None if im is None else im + pad
    step(re, im, k, unit)
    return QSeries._of(s.den, s.order, s.val, re, im)


def padded_division(s, unit, k):
    return padded(s, unit, k, _divide)


def mul_b(s, unit, exp):
    s, k = lift(s, exp)
    return padded(s, unit, k, _unit_mul)


def div_b(s, unit, exp):
    s, k = lift(s, exp)
    return padded_division(s, unit, k)


def test_binomial_helpers_match_full_mul():
    s = poch_infinite(qmono(2), qmono(3), 30)
    for unit in UNITS:
        lin = QSeries.one(30) - QSeries.term(unit, 4, 30)
        assert mul_b(s, unit, 4) == s.mul(lin)
        assert div_b(s, unit, 4).mul(lin) == s


def test_poch_finite_recurrence():
    # (x;b)_{n+1} = (x;b)_n * (1 - x b^n)
    for unit in UNITS:
        x, b = qmono(1, unit), qmono(2)
        for n in range(6):
            lhs = poch_finite(x, b, n + 1, 40)
            rhs = mul_b(poch_finite(x, b, n, 40), x.unit, x.exp + n * b.exp)
            assert lhs == rhs


def test_poch_infinite_requires_positive_order():
    with pytest.raises(DivergentProduct):
        poch_infinite(qmono(0), qmono(1), 10)


def test_chain_matches_direct_inversion():
    # entry n of the chain from [1] is 1/(q; q)_n
    table = _chain([1], [26] * 5)
    for n in range(6):
        direct = poch_finite(qmono(1), qmono(1), n, 25).invert_unit()
        assert QSeries._of(1, 25, 0, table[n]) == direct


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=60, deadline=None)
@given(series(), series())
def test_mul_commutative(a, b):
    assert a.mul(b) == b.mul(a)


@settings(max_examples=40, deadline=None)
@given(series(), series(), series())
def test_mul_associative(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@settings(max_examples=40, deadline=None)
@given(series(), series(), series())
def test_mul_distributive(a, b, c):
    assert a.mul(b + c) == a.mul(b) + a.mul(c)


@settings(max_examples=60, deadline=None)
@given(series(), series(), st.integers(0, 24))
def test_truncation_coherence(a, b, n):
    # truncating inputs cannot change the product below the cut
    cut = a.truncate(n).mul(b.truncate(n))
    full = a.mul(b)
    assert cut.first_difference(full, F(n)) is None


@settings(max_examples=60, deadline=None)
@given(series())
def test_invert_roundtrip(a):
    u = QSeries.one(a.order_q) + a.shift(1).truncate(a.order_q)
    assert u.mul(u.invert_unit()) == QSeries.one(u.order_q)


@settings(max_examples=60, deadline=None)
@given(series(den=4), st.integers(0, 24))
def test_add_coefficientwise(a, n):
    b = QSeries.term(I, F(n, 4), a.order_q)
    assert (a + b).coeff(F(n, 4)) == a.coeff(F(n, 4)) + I


# ---------------------------------------------------------------------------
# exact equality of the dense storage with the same operation on plain dicts


@st.composite
def plain(draw):
    """(den, order, {scaled exponent: coefficient}), with zero coefficients,
    terms beyond the order and a nonzero valuation all possible."""
    den = draw(st.integers(1, 4))
    order = draw(st.integers(0, 30))
    lo = draw(st.integers(0, order))
    im = st.just(0) if draw(st.booleans()) else st.integers(-9, 9)
    c = st.builds(GaussianInt, st.integers(-9, 9), im)
    size = draw(st.sampled_from([3, 40]))
    return den, order, draw(st.dictionaries(st.integers(lo, order + 3), c, max_size=size))


def clean(den, order, d):
    """The plain dict as QSeries must hold it: no zeros, nothing beyond order."""
    return den, order, {e: c for e, c in d.items() if e <= order and not c.is_zero()}


def as_plain(s):
    """(den, order, dict) of a series, after checking its normal form."""
    if s.re:
        assert s.val >= 0 and s.val + len(s.re) - 1 <= s.order
        assert s.im is None or (len(s.im) == len(s.re) and any(s.im))
        im = s.im or [0] * len(s.re)
        assert (s.re[0] or im[0]) and (s.re[-1] or im[-1])
    else:
        assert s.val == 0 and s.im is None
    return s.den, s.order, {int(e * s.den): c for e, c in s.terms()}


def regrid(p, den):
    d, order, c = p
    f = den // d
    return den, order * f, {e * f: v for e, v in c.items()}


def unify(p, r):
    den = lcm(p[0], r[0])
    p, r = regrid(p, den), regrid(r, den)
    return den, min(p[1], r[1]), p[2], r[2]


def plain_add(p, r):
    den, order, a, b = unify(clean(*p), clean(*r))
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c
    return clean(den, order, out)


@settings(max_examples=150, deadline=None)
@given(plain(), plain())
def test_storage_mul_matches_dense_oracle(p, r):
    want = oracle_product(p, r, None)
    assert as_plain(QSeries(*p).mul(QSeries(*r))) == want
    assert as_plain(QSeries(*r) * QSeries(*p)) == want


@settings(max_examples=150, deadline=None)
@given(plain(), plain(), st.sampled_from(UNITS + (GaussianInt(2, -3), ZERO)))
def test_storage_linear_ops_match_plain_dicts(p, r, c):
    a, b = QSeries(*p), QSeries(*r)
    den, order, d = clean(*p)
    assert as_plain(a + b) == plain_add(p, r)
    assert as_plain(a - b) == plain_add(p, (r[0], r[1], {e: -v for e, v in r[2].items()}))
    assert as_plain(-a) == (den, order, {e: -v for e, v in d.items()})
    assert as_plain(a.scale(c)) == clean(den, order, {e: v * c for e, v in d.items()})


@settings(max_examples=150, deadline=None)
@given(plain(), st.integers(0, 12), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_storage_grid_ops_match_plain_dicts(p, k, kden, f, rden):
    a = QSeries(*p)
    den, order, d = clean(*p)
    # shift by k/kden, and back down to the valuation
    exp = F(k, kden)
    g = lcm(den, exp.denominator)
    _, so, sc = regrid((den, order, d), g)
    j = int(exp * g)
    assert as_plain(a.shift(exp)) == (g, so + j, {e + j: v for e, v in sc.items()})
    if d:
        v = min(d)
        assert as_plain(a.shift(F(-v, den))) == (den, order - v, {e - v: x for e, x in d.items()})
    # truncate to a random point of the grid
    n = k % (order + 1)
    assert as_plain(a.truncate(F(n, den))) == clean(den, n, d)
    assert as_plain(a.rescale(den * f)) == regrid((den, order, d), den * f)
    # q -> q^(f/rden)
    r = F(f, rden)
    want = (den * r.denominator, order * r.numerator, {e * r.numerator: x for e, x in d.items()})
    assert as_plain(a.substitute_power(r)) == want


@settings(max_examples=150, deadline=None)
@given(plain(), st.sampled_from(UNITS), st.integers(1, 8), st.integers(1, 3))
def test_storage_binomials_match_two_term_products(p, u, k, kden):
    a = QSeries(*p)
    exp = F(k, kden)
    g = lcm(a.den, exp.denominator)
    two = QSeries.one(a.order_q).rescale(g) - QSeries.term(u, exp, a.order_q)
    assert as_plain(mul_b(a, u, exp)) == as_plain(a.mul(two))
    quotient = div_b(a, u, exp)
    as_plain(quotient)  # checks its normal form
    assert quotient.mul(two) == a.rescale(quotient.den)


@settings(max_examples=150, deadline=None)
@given(plain(), st.sampled_from(UNITS))
def test_storage_invert_unit_matches_long_division(p, u):
    den, order, d = clean(*p)
    d = {e + 1: c for e, c in d.items() if e < order}
    d[0] = u
    w = GaussianInt(u.re, -u.im)  # 1/u for a unit u
    inv = [w]
    for n in range(1, order + 1):
        acc = ZERO
        for j in range(1, n + 1):
            acc = acc + d.get(j, ZERO) * inv[n - j]
        inv.append(-(w * acc))
    assert as_plain(QSeries(den, order, d).invert_unit()) == clean(den, order, dict(enumerate(inv)))


# ---------------------------------------------------------------------------
# the slice-based binomial updates and the integer walk against the scalar
# recurrence and the Fraction-exponent walk they replaced


def scalar_binomial(s, unit, exp, power):
    """s * (1 - unit*q**exp) for power 1, s / (1 - unit*q**exp) for power
    -1: one coupled complex step per coefficient."""
    exp = F(exp)
    den = lcm(s.den, exp.denominator)
    s = s.rescale(den)
    k = int(exp * den)
    if power == -1 and (k > s.order or not s.re):
        return s
    n = s.order - s.val + 1
    pad = [0] * (n - len(s.re))
    cr, ci = s.re + pad, (s.im or [0] * len(s.re)) + pad
    # a division reads the entries it has already updated, a product its input
    ar, ai = (cr, ci) if power == -1 else (cr[:], ci[:])
    ur, ui = unit
    for e in range(k, n):
        xr, xi = ar[e - k], ai[e - k]
        cr[e] -= power * (ur * xr - ui * xi)
        ci[e] -= power * (ur * xi + ui * xr)
    return QSeries._of(den, s.order, s.val, cr, ci)


def fields(s):
    return s.den, s.order, s.val, s.re, s.im


@st.composite
def binomial_case(draw):
    """A series with up to a few hundred entries on den 1, 2 or 4, any
    valuation, real or complex, and a unit and a step k on its grid: k*k at
    most the window length n = order - val + 1, above it, or k past the
    window."""
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.sampled_from([1, 2, 4]))
    val = draw(st.integers(0, 20))
    n = draw(st.integers(1, 300))
    length = draw(st.integers(1, n))
    re = [rng.randint(-9, 9) for _ in range(length)]
    im = [rng.randint(-9, 9) for _ in range(length)] if draw(st.booleans()) else None
    root = isqrt(n)
    k = draw(
        st.one_of(
            st.integers(1, root),
            st.integers(root + 1, max(root + 1, n - 1)),
            st.integers(n, n + 4),
        )
    )
    return QSeries._of(den, val + n - 1, val, re, im), draw(st.sampled_from(UNITS)), F(k, den)


@settings(max_examples=200, deadline=None)
@given(binomial_case())
# stride 2 on 5 entries with a unit -1: residue classes, odd and even lengths
@example((QSeries._of(1, 4, 0, [1, 2, 3, 4, 5]), MINUS_ONE, F(2)))
# a unit i at a stride whose doubled stride is past the window
@example((QSeries._of(2, 7, 1, [1, 0, 3], [0, 1, 0]), I, F(2, 2)))
def test_binomial_updates_match_the_scalar_recurrence(case):
    s, u, exp = case
    assert fields(div_b(s, u, exp)) == fields(scalar_binomial(s, u, exp, -1))
    assert fields(mul_b(s, u, exp)) == fields(scalar_binomial(s, u, exp, 1))


def chain_entries(b, order, n):
    """_chain's 1/(x; x)_k in x = b for k <= n, each entry as long as the
    powers of x within the order, read on b's stride as series on the grid
    of the order and b."""
    den = lcm(F(order).denominator, b.exp.denominator)
    top, step = int(order * den), int(b.exp * den)
    return [QSeries._of(den, top, 0, _spread(x, step)) for x in _chain([1], [top // step + 1] * n)]


def row_entries(b, order, n):
    """_chain's Gaussian row [n k] in x = b for k <= n/2, as
    special._row_head cuts it, read on b's stride as series on the grid of
    the order and b."""
    den = lcm(F(order).denominator, b.exp.denominator)
    top, step = int(order * den), int(b.exp * den)
    return [QSeries._of(den, top, 0, _spread(x, step)) for x in special._row_head(n, top // step, n // 2)]


def padded_chains(b, order, n):
    """The chain 1/(b; b)_k for k <= n and the Gaussian row [n k] for
    k <= n/2 as chains of the window-padded references: entry k of the
    table is entry k - 1 over 1 - b**k, entry k of the row is entry k - 1
    times 1 - b**(n-k+1) over 1 - b**k."""
    den = lcm(F(order).denominator, b.exp.denominator)
    step = int(b.exp * den)
    one = QSeries.one(order).rescale(den)
    table, row = [one], [one]
    for k in range(1, n + 1):
        table.append(padded_division(table[-1], unit_pow(b.unit, k), k * step))
    for k in range(1, n // 2 + 1):
        top = padded(row[-1], unit_pow(b.unit, n - k + 1), (n - k + 1) * step, _unit_mul)
        row.append(padded_division(top, unit_pow(b.unit, k), k * step))
    return table, row


@settings(max_examples=300, deadline=None)
@given(
    st.builds(qmono, st.fractions(F(1, 4), 6, max_denominator=4)),
    st.fractions(0, 60, max_denominator=4),
    st.integers(0, 16),
)
# 1/(1 - x), the first entry of the chain: one entry, as long as k
@example(qmono(1), F(30), 1)
@example(qmono(F(3, 2)), F(15), 3)
# a stride 2k past the window, and one whose k is not
@example(qmono(F(5, 4)), F(9, 4), 2)
@example(qmono(F(7, 3)), F(40, 3), 5)
# exact divisions: every row entry a polynomial far below the order, and
# rows that the order cuts
@example(qmono(1), F(50), 6)
@example(qmono(1), F(20), 12)
def test_table_and_row_chains_equal_their_padded_divisions(b, order, n):
    table, row = padded_chains(b, order, n)
    assert [fields(s) for s in chain_entries(b, order, n)] == [fields(s) for s in table]
    assert [fields(s) for s in row_entries(b, order, n)] == [fields(s) for s in row]


@pytest.mark.parametrize("b", [qmono(1), qmono(F(1, 2))])
def test_gaussian_row_divisions_walk_only_their_dividends(b, monkeypatch):
    # [32 k] has degree k*(32 - k) <= 256 steps of b, far below the order 417
    # (418 or 835 steps): division k hands `_unit_div` only the
    # k*(32 - k) + 1 <= 257 entries of [32 k], never the window's: 16 calls
    # over 2,872 entries
    want = [gaussian_binomial(32, k, b, 417) for k in range(33)]
    seen = []

    def spy_unit_div(x, k, u, start=0):
        seen.append(len(x) - start)
        return _unit_div(x, k, u, start)

    monkeypatch.setattr("qrr.series._unit_div", spy_unit_div)
    assert gaussian_binomial_row(32, b, 417) == want
    limits = [k * (32 - k) + 1 for k in range(1, 17)]
    assert len(seen) == 16 and all(x <= limit for x, limit in zip(seen, limits)), seen


def test_gaussian_row_of_a_coarse_base_divides_lists_in_x(monkeypatch):
    # b = q^2 is two steps of the row's grid: [20 k] has degree k*(20 - k)
    # <= 100 in x = b, far below the order 401 (200 powers of x), so
    # division k hands `_unit_div` the k*(20 - k) + 1 entries of its list
    # in x, 10 calls over 725 entries, where lists on the grid would hold
    # 2k(20 - k) + 1
    b = qmono(2)
    want = [gaussian_binomial(20, k, b, 401) for k in range(21)]
    seen = []

    def spy_unit_div(x, k, u, start=0):
        seen.append(len(x) - start)
        return _unit_div(x, k, u, start)

    monkeypatch.setattr("qrr.series._unit_div", spy_unit_div)
    assert gaussian_binomial_row(20, b, 401) == want
    assert seen == [k * (20 - k) + 1 for k in range(1, 11)], seen


def test_chain_divides_each_entry_once(monkeypatch):
    # 1/(q; q)_n for n <= 40 at 480: each entry is one division of the
    # window's 481 entries, 19,240 in all
    q = qmono(1)
    table, _ = padded_chains(q, 480, 40)
    seen = []

    def spy_unit_div(x, k, u, start=0):
        seen.append(len(x) - start)
        return _unit_div(x, k, u, start)

    monkeypatch.setattr("qrr.series._unit_div", spy_unit_div)
    assert [fields(s) for s in chain_entries(q, 480, 40)] == [fields(s) for s in table]
    assert len(seen) == 40 and sum(seen) <= 19_240, (len(seen), sum(seen))


def test_product_sides_expand_each_infinite_tail_by_eulers_sum(monkeypatch):
    # 1/((q; q^5)_inf (q^4; q^5)_inf) at 2000: each family's first 20
    # factors are binomial steps, and its factors from q^101 and q^104 on are
    # Euler's sum, 19 divisions; one binomial step per factor takes 800
    # divisions over 798,800 entries
    want = eval_sum(corpus.load("rogers_mod5_1_4"), 2000)
    seen = []

    def spy_unit_div(x, k, u, start=0):
        seen.append(len(x) - start)
        return _unit_div(x, k, u, start)

    monkeypatch.setattr("qrr.series._unit_div", spy_unit_div)
    assert eval_product(corpus.load("rogers_mod5_1_4"), 2000) == want
    assert len(seen) <= 100 and sum(seen) <= 150_000, (len(seen), sum(seen))


def test_the_first_euler_tail_adds_one_entry_per_level(monkeypatch):
    # the tail from q^104 comes first and acts on 1: each of its 20 levels
    # (l*104 < 2001) adds the running lists cut after their last nonzero
    # entry, one entry, where the uncut lists add all 2001; the tail from
    # q^101 then acts on a full series
    from qrr import series

    want = eval_sum(corpus.load("rogers_mod5_1_4"), 2000)
    fold, calls = series._fold, []

    def spy_fold(groups, *args):
        calls.append([len(content) for group in groups for _, content, _ in group])
        return fold(groups, *args)

    monkeypatch.setattr(series, "_fold", spy_fold)
    assert eval_product(corpus.load("rogers_mod5_1_4"), 2000) == want
    assert len(calls) == 2 and len(calls[0]) == 20 and set(calls[0]) == {1}, calls[0]
    assert set(calls[1]) == {2001}


def test_a_long_finite_family_ends_in_euler_tails(monkeypatch):
    # (q; q)_2000 at 2000: its first 44 factors are binomial steps and the
    # rest, (q^45; q)_inf over (q^2001; q)_inf, is one Euler tail, since
    # q^2001 lies past the order; one binomial step per factor takes 2000
    # `_unit_mul` calls over 999,000 entries
    q = qmono(1)
    want = poch_infinite(q, q, 2000)
    divs, muls = [], []

    def spy_unit_div(x, k, u, start=0):
        divs.append(k)
        return _unit_div(x, k, u, start)

    def spy_unit_mul(re, im, k, unit):
        muls.append(k)
        return _unit_mul(re, im, k, unit)

    monkeypatch.setattr("qrr.series._unit_div", spy_unit_div)
    monkeypatch.setattr("qrr.series._unit_mul", spy_unit_mul)
    assert poch_finite(q, q, 2000, 2000) == want
    assert len(divs) <= 32 and len(muls) <= 44, (len(divs), len(muls))


def forward_tail(re, im, e, unit, power, m):
    """The Euler tail (y; q**m)_inf**power, y = unit*q**e, as it was first
    taken, forward term by term: term l's lists are term l-1's cut to the
    entries that reach the order and divided by 1 - q**(l*m), then added at
    d_l times the unit c_l.  The reference for `_tail`, which folds the
    same terms by Horner's rule."""
    n = len(re)
    pr, pi = re[: n - e], None if im is None else im[: n - e]
    c, d, l = ONE, e, 1
    while d < n:
        c = c * unit if power < 0 else -(c * unit)
        del pr[n - d :]
        if pi is not None:
            del pi[n - d :]
        _divide(pr, pi, l * m, ONE)
        cr, ci = c
        if ci:  # (+-i)*(x + i*y) = -+y +- i*x
            re[d:] = map(sub if ci > 0 else add, re[d:], pi)
            im[d:] = map(add if ci > 0 else sub, im[d:], pr)
        else:
            op = add if cr > 0 else sub
            re[d:] = map(op, re[d:], pr)
            if im is not None:
                im[d:] = map(op, im[d:], pi)
        d += e if power < 0 else e + l * m
        l += 1


@st.composite
def tail_case(draw):
    """(re, im, e, unit, power, m): running lists of 1 to 200 entries, im a
    list whenever the unit is +-i (as `_poch` allocates it) and else at
    random, and steps e, m mostly short enough for many terms."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 200))
    unit = draw(st.sampled_from(UNITS))
    re = [rng.randint(-9, 9) for _ in range(n)]
    im = [rng.randint(-9, 9) for _ in range(n)] if unit[1] or draw(st.booleans()) else None
    e, m = (draw(st.integers(1, 12) | st.integers(1, n + 1)) for _ in range(2))
    return re, im, e, unit, draw(st.sampled_from([1, -1])), m


@settings(max_examples=300, deadline=None)
@given(tail_case())
# one entry, and a first term past the lists: the tail is 1
@example(([5], [0], 1, I, 1, 1))
@example(([1, 2, 3], None, 3, MINUS_ONE, -1, 1))
# every step 1: the most terms, real and complex, both powers
@example(([1] + [0] * 59, None, 1, ONE, -1, 1))
@example(([1] + [0] * 59, None, 1, ONE, 1, 1))
@example(([1, -2, 3] * 20, [0, 1, -1] * 20, 1, MINUS_I, -1, 2))
@example(([1, -2, 3] * 20, [4, 0, 1] * 20, 2, I, 1, 1))
def test_tail_by_one_fold_equals_the_forward_sum(case):
    re, im, e, unit, power, m = case
    want = (re[:], None if im is None else im[:])
    forward_tail(*want, e, unit, power, m)
    got = (re[:], None if im is None else im[:])
    _tail(*got, e, unit, power, m)
    assert got == want


@pytest.mark.parametrize(
    "order, factors",
    [
        *(
            (F(2000), [(f.x, f.base, f.finite, f.power) for f in corpus.load(name).product])
            for name in ("rogers_mod5_1_4", "cao_wang_1_2_3")
        ),
        # fractional orders and exponents, units +-1 and +-i on x, both powers
        (
            F(961, 4),
            [
                (qmono(F(1, 2)), qmono(F(3, 4)), None, -1),
                (Monomial(I, F(1, 4)), qmono(F(1, 2)), None, 1),
                (Monomial(MINUS_ONE, F(5, 4)), qmono(1), None, 1),
                (Monomial(MINUS_I, F(3, 2)), qmono(F(1, 4)), None, -1),
            ],
        ),
        (F(1999, 3), [(Monomial(MINUS_ONE, F(2, 3)), qmono(F(1, 3)), None, -1), (qmono(F(1, 3)), qmono(2), None, 1)]),
    ],
)
def test_product_sides_by_the_fold_equal_the_forward_tails(order, factors, monkeypatch):
    got = _poch(order, factors)
    monkeypatch.setattr("qrr.series._tail", forward_tail)
    assert fields(got) == fields(_poch(order, factors))


def test_only_divide_and_the_fold_call_unit_div():
    # `_fold` is the one Horner fold: no other function of the package names
    # `_unit_div`, so none divides by 1 - q**k in a loop of its own; and
    # `_chain` is the one chain builder: beside the product side's walk, no
    # other function names `_divide`, and `_unit_mul` only in the running
    # product of replay 1.7 step 2
    def users(name):
        def names(node):
            return any(name in (getattr(x, "id", None), getattr(x, "attr", None)) for x in ast.walk(node))

        return {
            (path.stem, f.name)
            for path in Path(special.__file__).parent.glob("*.py")
            for f in ast.walk(ast.parse(path.read_text()))
            if isinstance(f, ast.FunctionDef) and names(f)
        }

    assert users("_unit_div") == {("series", "_divide"), ("series", "_fold")}
    assert users("_divide") == {("series", "_poch"), ("series", "_chain")}
    assert users("_unit_mul") == {("series", "_divide"), ("series", "_poch"), ("series", "_chain"), ("replay", "replay_1_7")}


def fraction_walk(order, factors):
    """Every running product of the factors in declared order, stepped with
    Fraction exponents and the scalar recurrence: the last is `_poch`'s
    product, and for the one factor (b, b, n, -1) they are 1/(b; b)_k for
    each k whose factor lies within the order."""
    den = lcm(F(order).denominator, *(m.exp.denominator for x, b, _, _ in factors for m in (x, b)))
    s = QSeries.one(order).rescale(den)
    out = [s]
    for x, b, n, power in factors:
        k = 0
        while (n is None or k < n) and x.exp + k * b.exp <= s.order_q:
            unit = x.unit * unit_pow(b.unit, k)
            s = scalar_binomial(s, unit, x.exp + k * b.exp, power)
            out.append(s)
            k += 1
    return out


monomials = st.builds(
    Monomial, st.sampled_from(UNITS), st.fractions(F(1, 4), 6, max_denominator=4)
)
powers = st.builds(qmono, st.fractions(F(1, 4), 6, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(0, 60, max_denominator=4),
    st.lists(
        st.tuples(monomials, powers, st.none() | st.integers(0, 12), st.sampled_from([1, -1])),
        max_size=3,
    ),
    powers,
    st.integers(0, 20),
)
# tables whose n_max runs past the order, whose b lies past the order, and
# whose b is off the order's grid
@example(F(5), [], qmono(1), 12)
@example(F(3, 2), [], qmono(2), 4)
@example(F(21, 2), [(qmono(1), qmono(F(1, 2)), None, -1)], qmono(F(1, 2)), 20)
@example(F(47, 4), [], qmono(F(3, 4)), 20)
# Euler tails from the (K+1)-th factor, K = isqrt(n // m): at order 20 a
# divisor family's tail starts at E = 20 = n, one level, and a numerator's
# would start at 21 = n + 1, so it has none
@example(F(20), [(qmono(10), qmono(5), None, -1), (qmono(11), qmono(5), None, 1)], qmono(1), 0)
# grid 4: +-i on x, a divisor tail at 10/4 and a numerator tail at 8/4;
# then the same arguments with the bases swapped
@example(
    F(47, 4),
    [
        (Monomial(I, F(1, 4)), qmono(F(3, 4)), None, -1),
        (Monomial(MINUS_I, F(1, 2)), qmono(F(1, 4)), None, 1),
    ],
    qmono(F(1, 4)),
    3,
)
@example(
    F(47, 4),
    [
        (Monomial(I, F(1, 4)), qmono(F(1, 4)), None, -1),
        (Monomial(MINUS_I, F(1, 2)), qmono(F(3, 4)), None, 1),
    ],
    qmono(F(1, 4)),
    3,
)
# finite families past 3K factors, K = isqrt(n // m): K binomial steps, the
# tail from x*b**K and, when x*b**N lies within the order, the tail from
# there at the opposite power.  On grid 2 at 60 (n = 120, m = 2, 3K = 21):
# the numerator (q; q)_30, whose x*b**N = q^31 is inside, and the divisor
# (-q^(1/2); q)_70, whose q^(141/2) is past
@example(
    F(60),
    [(qmono(1), qmono(1), 30, 1), (Monomial(MINUS_ONE, F(1, 2)), qmono(1), 70, -1)],
    qmono(1),
    0,
)
# units +-i: the divisor (i*q; q)_40 at 60, its x*b**N = i*q^41 inside, and
# on grid 2 the numerator (-i*q^2; q^(1/2))_150 (3K = 30), past
@example(
    F(60),
    [(Monomial(I, F(1)), qmono(1), 40, -1), (Monomial(MINUS_I, F(2)), qmono(F(1, 2)), 150, 1)],
    qmono(1),
    0,
)
# base q^3 at 60 (3K = 12): 13 factors of the numerator (q; q^3)_13, and
# the divisor (q^12; q^3)_16, whose x*b**N = q^60 is the order itself
@example(F(60), [(qmono(1), qmono(3), 13, 1), (qmono(12), qmono(3), 16, -1)], qmono(1), 0)
def test_poch_and_tables_match_the_fraction_exponent_walk(order, factors, b, n_max):
    assert fields(_poch(order, factors)) == fields(fraction_walk(order, factors)[-1])
    table = fraction_walk(order, [(b, b, n_max, -1)])
    table += table[-1:] * (n_max + 1 - len(table))
    assert [fields(_poch(order, [(b, b, n, -1)])) for n in range(n_max + 1)] == [fields(s) for s in table]


# a numerator may sit at exponent 0: (u; b)_n starts with the scalar 1 - u,
# 0 for u = 1 and 2 for u = -1; a divisor there raises
numerators = st.builds(
    Monomial, st.sampled_from(UNITS), st.just(F(0)) | st.fractions(F(1, 2), 40, max_denominator=2)
)
divisors = st.builds(Monomial, st.sampled_from(UNITS), st.fractions(F(1, 2), 40, max_denominator=2))
bases = st.builds(qmono, st.fractions(1, 20, max_denominator=2))


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(0, 200, max_denominator=2),
    st.lists(
        st.one_of(
            st.tuples(numerators, bases, st.none() | st.integers(0, 12), st.just(1)),
            st.tuples(divisors, bases, st.none() | st.integers(0, 12), st.just(-1)),
        ),
        max_size=8,
    ),
)
# (-1; q)_3 and (1; q)_2 = 0 before long divisions: both scalars
@example(
    F(120),
    [
        (Monomial(MINUS_ONE, F(0)), qmono(1), 3, 1),
        (qmono(1), qmono(5), None, -1),
        (qmono(4), qmono(5), None, -1),
        (qmono(0), qmono(1), 2, 1),
    ],
)
# a numerator tail from E = 20 = n, one level, beside a divisor family
# whose tail would start at 21 = n + 1, and a tail of base q^6 from i*q^8
# after one head factor i*q^2 (K = 1); then that family from q^2
@example(
    F(20),
    [
        (qmono(10), qmono(5), None, 1),
        (qmono(11), qmono(5), None, -1),
        (Monomial(I, F(2)), qmono(6), None, -1),
    ],
)
@example(
    F(20),
    [
        (qmono(10), qmono(5), None, 1),
        (qmono(11), qmono(5), None, -1),
        (qmono(2), qmono(6), None, -1),
    ],
)
# grid 2: +-i on x, tails at 16/2 and 12/2; then the bases swapped
@example(
    F(81, 2),
    [
        (Monomial(MINUS_I, F(1, 2)), qmono(F(3, 2)), None, 1),
        (Monomial(I, F(3, 2)), qmono(F(1, 2)), None, -1),
    ],
)
@example(
    F(81, 2),
    [
        (Monomial(MINUS_I, F(1, 2)), qmono(F(1, 2)), None, 1),
        (Monomial(I, F(3, 2)), qmono(F(3, 2)), None, -1),
    ],
)
# (-1; q)_inf: a scalar head 2 at exponent 0 and a tail from 5, with a
# finite (q; q)_7 between it and a divisor tail from 11
@example(
    F(30),
    [
        (Monomial(MINUS_ONE, F(0)), qmono(1), None, 1),
        (qmono(1), qmono(1), 7, -1),
        (qmono(2), qmono(3), None, -1),
    ],
)
def test_poch_from_the_largest_exponent_down_matches_the_scalar_walk(order, factors):
    # many factors at orders where each division from the running start s
    # takes both branches of `_unit_div`
    want = fields(fraction_walk(order, factors)[-1])
    assert fields(_poch(order, factors)) == want


@pytest.mark.parametrize(
    "factors, error, message",
    [
        # a negative exponent between factors at larger exponents
        (
            [(qmono(5), qmono(1), None, -1), (qmono(-1), qmono(1), 3, 1), (qmono(9), qmono(2), None, -1)],
            NegativeExponent,
            "-1",
        ),
        # a base of negative exponent steps below 0 after the factors at 3/2, 1/2
        (
            [
                (qmono(2), qmono(1), 4, -1),
                (Monomial(MINUS_ONE, F(3, 2)), qmono(-1), None, -1),
                (qmono(5), qmono(1), None, 1),
            ],
            NegativeExponent,
            "-1/2",
        ),
        # a divisor at exponent 0 before a factor at 7 and after one at 1/2
        (
            [(qmono(F(1, 2)), qmono(F(1, 2)), None, 1), (Monomial(I, 0), qmono(1), 3, -1), (qmono(7), qmono(1), None, -1)],
            NonUnitConstantTerm,
            "constant term (1-1*i) is not a unit of Z[i]",
        ),
        # the first bad factor in declared order is the one reported
        (
            [(Monomial(MINUS_ONE, 0), qmono(1), 2, -1), (qmono(-3), qmono(1), None, 1)],
            NonUnitConstantTerm,
            "constant term 2 is not a unit of Z[i]",
        ),
        # after a family whose factors from q^11 on are one Euler tail
        ([(qmono(1), qmono(5), None, -1), (qmono(-1), qmono(1), 3, 1)], NegativeExponent, "-1"),
    ],
)
def test_poch_raises_at_the_first_bad_factor_in_declared_order(factors, error, message, monkeypatch):
    # the error comes before any factor is applied
    applied = []
    for step in ("_unit_mul", "_divide", "_tail"):
        monkeypatch.setattr("qrr.series." + step, lambda *args: applied.append(args))
    with pytest.raises(error) as raised:
        _poch(20, factors)
    assert str(raised.value) == message
    assert not applied


@st.composite
def division_case(draw):
    """(x, k, u, start): an int list of up to 300 entries, any entries below
    start, and a stride k on either side of the unit's boundary for the
    m = n - start entries from start: residue classes up to it, blocks past
    it.  The boundary is k = 2 sqrt(m) for u = 1 (k*k <= 4m) and sqrt(m)/2
    for u = -1 (4*k*k <= m); k is drawn below it, at it, just past it or
    anywhere past it."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 300))
    start = draw(st.integers(0, n))
    x = [rng.randint(-9, 9) for _ in range(n)]
    u = draw(st.sampled_from([1, -1]))
    edge = isqrt(4 * (n - start)) if u > 0 else isqrt((n - start) // 4)
    k = draw(st.integers(1, max(edge, 1)) | st.sampled_from([max(edge, 1), edge + 1]) | st.integers(edge + 1, n + 2))
    return x, k, u, start


@settings(max_examples=200, deadline=None)
@given(division_case())
# u = -1 at its boundary from start 7: 4*k*k = 36 <= 36 entries, odd/even
# classes; one stride more takes blocks
@example(([1] * 43, 3, -1, 7))
@example(([1] * 43, 4, -1, 7))
# u = 1 at its boundary from start 5: k*k = 100 <= 4*25 entries, running
# sums per class; one stride more takes blocks
@example(([2] * 30, 10, 1, 5))
@example(([2] * 30, 11, 1, 5))
def test_unit_div_from_start_matches_the_scalar_recurrence(case):
    x, k, u, start = case
    # the entries below start are left alone and read as 0
    want = [0] * start + x[start:]
    for e in range(start + k, len(x)):
        want[e] += u * want[e - k]
    got = x[:]
    assert _unit_div(got, k, u, start) is got
    assert got == x[:start] + want[start:]


# ---------------------------------------------------------------------------
# the one-term and common-stride paths of the product against the oracle


@st.composite
def strided(draw, g):
    """(den, order, {scaled exponent: coefficient}) with every term at
    val + g*k: real, complex, purely imaginary, or a single term (a unit or
    any coefficient)."""
    den = draw(st.integers(1, 4))
    order = draw(st.integers(0, 90))
    val = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["real", "complex", "imaginary", "unit", "term"]))
    small = st.integers(-9, 9)
    if kind == "unit":
        return den, order, {val: draw(st.sampled_from(UNITS))}
    if kind == "term":
        return den, order, {val: draw(st.builds(GaussianInt, small, small))}
    re = st.just(0) if kind == "imaginary" else small
    im = st.just(0) if kind == "real" else small
    cs = draw(st.lists(st.builds(GaussianInt, re, im), min_size=2, max_size=9))
    return den, order, {val + g * k: c for k, c in enumerate(cs)}


def oracle_product(p, r, bound):
    """The product of two plain dicts as a plain dict: oracle.dense_mul on
    the real and imaginary parts of the dense lists from each valuation."""
    den, order, a, b = unify(clean(*p), clean(*r))
    if bound is not None:
        order = min(order, int(bound * den))
    if not a or not b:
        return den, order, {}
    lo = min(a) + min(b)
    dense = [[c.get(e, ZERO) for e in range(min(c), max(c) + 1)] for c in (a, b)]
    (ar, ai), (br, bi) = ([[x.re for x in v], [x.im for x in v]] for v in dense)
    rr, ii, ri, ir = dense_mul(ar, br), dense_mul(ai, bi), dense_mul(ar, bi), dense_mul(ai, br)
    out = {lo + k: GaussianInt(rr[k] - ii[k], ri[k] + ir[k]) for k in range(len(rr))}
    return clean(den, order, out)


@st.composite
def strided_pair(draw):
    """Two strided operands, on one stride g or on two, and an optional
    q-unit bound; orders and bounds fall anywhere relative to the stride."""
    g = draw(st.integers(1, 12))
    h = draw(st.sampled_from([g, 2 * g, draw(st.integers(1, 12))]))
    bound = draw(st.none() | st.fractions(0, 40, max_denominator=4))
    return draw(strided(g)), draw(strided(h)), bound


@settings(max_examples=300, deadline=None)
@given(strided_pair())
# stride 4 on den 1, nout - 1 = 38 is not a multiple of 4
@example(((1, 38, {0: ONE, 4: I, 8: MINUS_ONE}), (1, 38, {2: ONE, 6: ONE, 30: MINUS_I}), None))
# a purely imaginary operand times a one-term i
@example(((2, 40, {1: I, 7: MINUS_I}), (2, 40, {3: I}), F(13, 4)))
def test_mul_fast_paths_match_dense_oracle(case):
    p, r, bound = case
    want = oracle_product(p, r, bound)
    for x, y in ((p, r), (r, p)):
        got = QSeries(*x).mul(QSeries(*y))
        if bound is not None:
            got = got.truncate(min(bound, got.order_q))
        assert as_plain(got) == want


def test_one_term_operand_is_a_shift_and_scale():
    s = poch_infinite(qmono(F(1, 2), I), qmono(1), 30)
    real = poch_infinite(qmono(1), qmono(1), 30)
    cs = UNITS + (GaussianInt(2, -3),)
    terms = [QSeries.term(c, F(3, 2), 28) for c in cs]
    want = [x.shift(F(3, 2)).scale(c).truncate(28) for x in (s, real) for c in cs]
    assert [x.mul(t) for x in (s, real) for t in terms] == want
    assert [t * x for x in (s, real) for t in terms] == want


def test_common_stride_convolves_every_gth_entry(monkeypatch):
    # 1/(q^2;q^2)_n on the den-4 grid: a nonzero at every 8th entry only
    a, b = (_poch(60, [(qmono(2), qmono(2), n, -1)]).rescale(4) for n in (12, 7))
    b = b.shift(F(1, 2)).truncate(60)
    assert a.den == b.den == 4 and len(a.re) > 200
    want = oracle_product(as_plain(a), as_plain(b), None)
    calls = []

    def spy(lists, rows, top, g):
        out = real_conv(lists, rows, top, g)
        calls.append((lists, rows, top, g, out))
        return out

    real_conv = _kernel_py.conv_terms
    monkeypatch.setattr(_kernel_py, "conv_terms", spy)
    assert as_plain(a.mul(b)) == want
    ((lists, rows, top, g, out),) = calls
    ((terms,),) = [list(r) for r in rows.values()]
    va, vb = a.val, b.val
    assert (g, rows) == (8, {0: {terms: 1}}) and terms[2] == va + vb
    # each list is cut to every 8th entry
    assert sorted(lists) == sorted([a.re[::8], b.re[::8]])
    assert sorted(map(len, lists)) == sorted([-(-len(a.re) // 8), -(-len(b.re) // 8)])
    # the one row ends at the last digit the pair reaches under the order
    assert len(out[0][1]) == (top - va - vb) // g + 1 == (a.order - a.val - b.val) // 8 + 1


def test_normal_form_cases():
    a = QSeries(2, 9, {1: GaussianInt(3, -1), 4: MINUS_ONE, 8: I})
    diff = a - a
    assert diff == QSeries.zero(F(9, 2)) and diff.is_zero() and diff.valuation() is None
    # (1 + i q)(1 - i q) = 1 + q^2: the imaginary part cancels
    p = QSeries(1, 10, {0: ONE, 1: I}).mul(QSeries(1, 10, {0: ONE, 1: GaussianInt(0, -1)}))
    assert p == QSeries(1, 10, {0: ONE, 2: ONE})
    assert p.is_real() and p.imaginary_support() == []
    # zero coefficients at either end and terms beyond the order are dropped
    t = QSeries(1, 10, {0: ZERO, 3: ONE, 5: ZERO, 6: I, 9: ZERO, 12: ONE})
    assert t == QSeries.term(ONE, 3, 10) + QSeries.term(I, 6, 10)
    assert t.valuation() == 3 and as_plain(t) == (1, 10, {3: ONE, 6: I})


def test_theta_exponent_decomposition():
    # n^2/2 = binom(n,2) + n/2 for all n, the split used by theta builders
    for n in range(-10, 11):
        assert F(n * n, 2) == binom2(n) + F(n, 2)


def test_poch_finite_refuses_a_negative_length():
    with pytest.raises(ValueError, match="^finite Pochhammer length must be nonnegative$"):
        poch_finite(qmono(1), qmono(1), -1, 10)


def test_a_series_is_unequal_to_a_non_series_or_one_of_another_order():
    s = QSeries.one(5)
    for other in (1, ONE, None, [1], QSeries.one(6)):
        assert not s == other
        assert s != other


def test_series_constructors_and_maps_refuse_bad_arguments():
    half = QSeries.term(ONE, F(1, 2), 5)
    refused = [
        (lambda: QSeries(0, 5, {}), ValueError, "denominator must be positive"),
        (lambda: QSeries(1, -1, {}), ValueError, "scaled order must be nonnegative"),
        (lambda: QSeries(1, 5, {-1: ONE}), NegativeExponent, "exponent -1/1"),
        (lambda: QSeries.one(-1), ValueError, "truncation order must be nonnegative"),
        (lambda: QSeries.term(ONE, -1, 5), NegativeExponent, "-1"),
        (lambda: half.rescale(3), ValueError, "new denominator must be a multiple"),
        (lambda: half.shift(-6), NegativeExponent, "shift by -6 empties the series window"),
        (lambda: half.substitute_power(0), ValueError, "substitution power must be positive"),
        (lambda: Monomial(GaussianInt(2, 0)), ValueError, r"monomial unit must be one of \+-1, \+-i"),
    ]
    for build, error, text in refused:
        with pytest.raises(error, match="^%s$" % text):
            build()
