"""The Kronecker-substitution kernel against the schoolbook oracle, exactly.

Every oracle case goes through the kernel's one entry point, `conv_terms`:
windows of (v, re, im) lists and rows of pairs of them are keyed and
weighted as `series._rows` keys and weights a product's series (`_weighted`),
and a single product is one row of one pair.  The digit I/O (`_pack`,
`_unpack`) is checked against the per-digit loops below on both of its
paths."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qrr import _kernel_py, special
from qrr._kernel_py import _pack, _plan, _tops, _unpack, _width, conv_terms
from qrr.gaussian import MINUS_ONE, ZERO, GaussianInt
from qrr.oracle import dense_mul
from qrr.replay import chain_passes, replay_1_5, replay_1_8
from qrr.series import _UNITS, Monomial, _key, qmono
from qrr.special import jtp_check
from qrr.zseries import euler_z_product

BITS = (1, 64, 300)
LENGTHS = (0, 1, 2, 17, 40)


def _truncated(a, b, nout, zero=0):
    full = dense_mul(a, b)
    return (full + [zero] * nout)[:nout]


def _weighted(a, b, rows):
    """(lists, {k: terms}) for conv_terms, from windows {i: (v, re, im)} and
    rows {k: [(i, j)]} of pairs: as series._rows builds them, each nonzero
    part keyed once by its content up to sign (series._key), and each pair's
    product of units summed into the weight of its term (x, y, v_a + v_b),
    x <= y, in its row."""
    keys, lists, seen = {}, [], {}

    def parts(re, im):
        out = []
        for part, u in ((re, 0),) if im is None else ((re, 0), (im, 1)):
            if any(part):
                if id(part) not in seen:
                    seen[id(part)] = _key(keys, lists, part)
                x, e, _ = seen[id(part)]
                out.append((x, _UNITS[u + e]))
        return out

    terms = {}
    for k, pairs in rows.items():
        weights = terms[k] = {}
        for i, j in pairs:
            (va, ar, ai), (vb, br, bi) = a[i], b[j]
            for x, ux in parts(ar, ai):
                for y, uy in parts(br, bi):
                    t = (x, y, va + vb) if x <= y else (y, x, va + vb)
                    weights[t] = weights.get(t, 0) + ux * uy
    return lists, terms


def conv_rows(a, b, rows, top):
    """conv_terms on windows of (v, re, im) lists and rows of their pairs,
    on stride 1."""
    return conv_terms(*_weighted(a, b, rows), top, 1)


def plan_rows(a, b, rows, top):
    """(_plan's entries and reach, the keyed lists) for windows and rows of pairs."""
    lists, terms = _weighted(a, b, rows)
    return _plan(lists, terms, top, 1), lists


def _conv(ar, br, nout, ai=None, bi=None):
    """(re, im) of (ar + i*ai) * (br + i*bi) through nout terms, from the
    one-row, one-pair kernel call with top nout - 1, padded with zeros to
    nout entries; im is None for a real product.  A row of a complex
    product whose live terms all have real weights comes back real, and its
    imaginary part is zeros."""
    row = conv_rows({0: (0, ar, ai)}, {0: (0, br, bi)}, {0: [(0, 0)]}, nout - 1).get(0)
    real = ai is None and bi is None
    if row is None:  # no digit through top, or an operand empty or zero
        return [0] * nout, None if real else [0] * nout
    v, re, im = row
    assert v == 0 and len(re) <= nout and (im is None or not real)
    pad = [0] * (nout - len(re))
    return re + pad, None if real else (im or [0] * len(re)) + pad


def conv_real(a, b, nout):
    re, _ = _conv(a, b, nout)
    return re


def conv_real_pair(a, b, c, nout):
    """a * (b + i*c): the real products a*b and a*c; b and c are padded to
    one length, as the kernel's lists of one complex operand are."""
    n = max(len(b), len(c))
    return _conv(a, b + [0] * (n - len(b)), nout, bi=c + [0] * (n - len(c)))


def conv_complex(ar, ai, br, bi, nout):
    return _conv(ar, br, nout, ai, bi)


def _nouts(la, lb):
    """Below, at and above the full product length la + lb - 1."""
    full = max(la + lb - 1, 0)
    return sorted({0, 1, max(full - 1, 0), full, full + 3})


def _vec(rng, n, bits, kind):
    m = 1 << bits
    if kind == "random":
        return [rng.randint(-m, m) for _ in range(n)]
    if kind == "extreme":  # every coefficient at the bound, so outputs reach it
        return [-m] * n
    if kind == "strided":  # support on every third exponent
        return [rng.randint(-m, m) if i % 3 == 0 else 0 for i in range(n)]
    return [0] * n


@pytest.mark.parametrize("bits_a", BITS)
@pytest.mark.parametrize("bits_b", BITS)
def test_conv_real_matches_oracle(bits_a, bits_b):
    rng = random.Random(bits_a * 1000 + bits_b)
    for la in LENGTHS:
        for lb in LENGTHS:
            for kind in ("random", "extreme", "strided", "zero"):
                a = _vec(rng, la, bits_a, kind)
                b = _vec(rng, lb, bits_b, "random" if kind == "zero" else kind)
                for nout in _nouts(la, lb):
                    assert conv_real(a, b, nout) == _truncated(a, b, nout), (la, lb, kind, nout)
                    assert conv_real(b, a, nout) == _truncated(b, a, nout), (lb, la, kind, nout)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("zero", [None, "a", "b", "c", "b and c"])
def test_conv_real_pair_matches_oracle(bits, zero):
    rng = random.Random(bits)
    for la in LENGTHS:
        for lb in LENGTHS:
            a = _vec(rng, la, bits, "zero" if zero == "a" else "random")
            b = _vec(rng, lb, bits, "zero" if zero in ("b", "b and c") else "random")
            c = _vec(rng, lb, bits, "zero" if zero in ("c", "b and c") else "extreme")
            for nout in _nouts(la, lb):
                want = (_truncated(a, b, nout), _truncated(a, c, nout))
                assert conv_real_pair(a, b, c, nout) == want, (la, lb, nout)


def _gauss(re, im):
    return [GaussianInt(x, y) for x, y in zip(re, im)]


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("zero_part", [None, "a.re", "a.im", "b.re", "b.im"])
def test_conv_complex_matches_oracle(bits, zero_part):
    rng = random.Random(bits)
    for la in LENGTHS:
        for lb in LENGTHS:
            parts = {
                name: _vec(rng, n, bits, "zero" if name == zero_part else "random")
                for name, n in (("a.re", la), ("a.im", la), ("b.re", lb), ("b.im", lb))
            }
            a = _gauss(parts["a.re"], parts["a.im"])
            b = _gauss(parts["b.re"], parts["b.im"])
            for nout in _nouts(la, lb):
                cr, ci = conv_complex(parts["a.re"], parts["a.im"], parts["b.re"], parts["b.im"], nout)
                assert _gauss(cr, ci) == _truncated(a, b, nout, ZERO), (la, lb, nout)


def test_all_zero_inputs():
    assert conv_real([0, 0], [1, 2], 3) == [0, 0, 0]
    assert conv_real([], [], 2) == [0, 0]
    assert conv_complex([0], [0], [5, 1], [2, 0], 3) == ([0, 0, 0], [0, 0, 0])
    # (i + q)(i + q) = -1 + 2iq + q^2
    assert conv_complex([0, 1], [1, 0], [0, 1], [1, 0], 3) == ([-1, 0, 1], [0, 2, 0])


def test_conv_real_matches_oracle_across_eight_byte_digits():
    # products near 2**64 put the row widths on both sides of 8 bytes, the
    # widest digits the byte path takes, at lengths on both sides of its rules
    rng = random.Random(64)
    widths = set()
    for bits_a, bits_b in ((24, 27), (26, 29), (28, 31), (30, 33)):
        for la in (1, 9, 17, 60, 70):
            for lb in (1, 17, 70):
                for kind in ("random", "extreme"):
                    a, b = _vec(rng, la, bits_a, kind), _vec(rng, lb, bits_b, kind)
                    nout = la + lb - 1
                    (plan, _), _ = plan_rows({0: (0, a, None)}, {0: (0, b, None)}, {0: [(0, 0)]}, nout - 1)
                    widths.add(plan[0][3])
                    for n in (nout, nout // 2 + 1):
                        assert conv_real(a, b, n) == _truncated(a, b, n), (bits_a, bits_b, la, lb, kind, n)
    assert min(widths) < 8 < max(widths) and 8 in widths


def _reference_pack(a, wb):
    """_pack one digit at a time."""
    u = int.from_bytes(b"".join([x.to_bytes(wb, "little", signed=True) for x in a]), "little")
    return u - ((u & _tops(wb, len(a))) << 1)


def _reference_unpack(c, wb, nout):
    """_unpack one digit at a time."""
    n = wb * nout
    buf = ((c + _tops(wb, nout)) & ((1 << 8 * n) - 1)).to_bytes(n, "little")
    half = 1 << 8 * wb - 1
    return [int.from_bytes(buf[i : i + wb], "little") - half for i in range(0, n, wb)]


@pytest.mark.parametrize("wb", range(1, 25))
def test_digit_io_matches_the_per_digit_loops(wb):
    # slot is the fewest bytes, a power of two, that hold a digit: the byte
    # path's cell up to 8 bytes; its rules sit at 2*slot digits (unpack) and
    # 8*wb (pack), so each length set straddles both
    rng = random.Random(wb)
    half = 1 << 8 * wb - 1
    slot = 1 << (wb - 1).bit_length()
    for n in sorted({0, 1, slot, slot + 1, 2 * slot - 1, 2 * slot, 8 * wb - 1, 8 * wb, 8 * wb + 1, 300}):
        ends = [-half, half - 1, -1, 0]
        a = [rng.choice(ends) if rng.random() < 0.5 else rng.randrange(-half, half) for _ in range(n)]
        c = _pack(a, wb)
        assert c == _reference_pack(a, wb), n
        assert _unpack(c, wb, n) == _reference_unpack(c, wb, n) == a, n
        # the digits above nout, and a negative int, read as the reference reads them
        for d in (c + (rng.randrange(-half, half) << 8 * wb * n), -c - 1):
            for m in (n, n // 2):
                assert _unpack(d, wb, m) == _reference_unpack(d, wb, m), (n, m)


def _digits(wb):
    """(wb, a list of digits that fit in wb signed bytes)."""
    half = 1 << 8 * wb - 1
    return st.tuples(st.just(wb), st.lists(st.integers(-half, half - 1), max_size=80))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24).flatmap(_digits))
def test_unpack_inverts_pack(case):
    wb, a = case
    assert _unpack(_pack(a, wb), wb, len(a)) == a


@pytest.mark.parametrize("n", [24, 32, 40])
def test_rogers_szego_bw_reads_its_slices_as_the_per_digit_loops_do(n, monkeypatch):
    # the Horner nest packs and reads slices at 4, 5 and 6 bytes a digit
    order = Fraction(420)
    got = special.rogers_szego_bw(n, qmono(1), order)
    assert _width(1 << n) == {24: 4, 32: 5, 40: 6}[n]
    monkeypatch.setattr(special, "_pack", _reference_pack)
    monkeypatch.setattr(special, "_unpack", _reference_unpack)
    want = special.rogers_szego_bw(n, qmono(1), order)
    assert (got.den, got.order, list(got.coeff)) == (want.den, want.order, list(want.coeff))
    for k, x in got.coeff.items():
        y = want.coeff[k]
        assert (x.den, x.order, x.val, x.re, x.im) == (y.den, y.order, y.val, y.re, y.im), k


ints = st.integers(-(1 << 300), 1 << 300) | st.integers(-9, 9)


@settings(max_examples=200, deadline=None)
@given(st.lists(ints, max_size=24), st.lists(ints, max_size=24), st.integers(0, 50))
def test_conv_real_property(a, b, nout):
    assert conv_real(a, b, nout) == _truncated(a, b, nout)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(ints, ints), max_size=16),
    st.lists(st.tuples(ints, ints), max_size=16),
    st.integers(0, 34),
)
def test_conv_complex_property(a, b, nout):
    ar, ai = [x for x, _ in a], [y for _, y in a]
    br, bi = [x for x, _ in b], [y for _, y in b]
    cr, ci = conv_complex(ar, ai, br, bi, nout)
    assert _gauss(cr, ci) == _truncated(_gauss(ar, ai), _gauss(br, bi), nout, ZERO)


@settings(max_examples=100, deadline=None)
@given(st.lists(ints, max_size=24), st.lists(ints, max_size=24), st.lists(ints, max_size=24), st.integers(0, 50))
def test_conv_real_pair_property(a, b, c, nout):
    assert conv_real_pair(a, b, c, nout) == (_truncated(a, b, nout), _truncated(a, c, nout))


@pytest.mark.parametrize("complex_a", [False, True])
def test_width_bounds_only_the_digits_a_pair_reaches(complex_a):
    # a list cut to the pair's reach takes its bound from its running maxima
    # there, not from the huge entry past it; a product its reach cuts takes
    # ha*a0*b + hb*a*b0 + (n - ha - hb)*a*b from the maxima a0, b0 over the
    # first halves of the digits used (a list used whole gives its peak),
    # capped by min(la, lb)*a*b, and a whole product the cap, here from all
    # of a.  A complex a is two keys, its real and imaginary parts, whose
    # terms have weights 1 and i: the row's real digits take the first
    # term's bound, its imaginary digits the second's, and the width holds
    # both
    big = 1 << 200
    a = [3, -5, 2, big]
    ai = [0, 1, 0, -big] if complex_a else None
    b = [7, 1, -1]
    for top, la, lb, bound, bound_im in (
        (1, 2, 2, 3 * 7 + 5 * 7, 1 * 7),  # a0 = 3, b0 = 7: below the cap 2*5*7; im: a0 = 0
        (2, 3, 3, 3 * 5 * 7, 3 * 1 * 7),  # b whole, b0 = 7: 2*5*7 + 2*5*7 is larger
        (5, 4, 3, 3 * big * 7, 3 * big * 7),
    ):
        ((plan, _), _) = plan_rows({0: (0, a, ai)}, {0: (0, b, None)}, {0: [(0, 0)]}, top)
        ((_, _, _, wb, _, terms),) = plan
        bounds = [bound, bound_im] if complex_a else [bound]
        assert [t[4:6] for t in terms] == [(la, lb)] * len(bounds)
        assert [t[7:] for t in terms] == [(1, 0), (0, 1)][: len(bounds)]
        assert [t[6] for t in terms] == bounds
        assert wb == _width(max(bounds))
        got = conv_complex(a, ai, b, None, top + 1) if complex_a else (conv_real(a, b, top + 1), None)
        want = _truncated(a, b, top + 1), ai and _truncated(ai, b, top + 1)
        assert got == want


def _old_width(terms, reps):
    """The width of the rule that paired the largest entries of both lists:
    the largest |x|*|y| over the digits the terms reach, times the larger of
    the sums of |w_re|*min(la, lb) and of |w_im|*min(la, lb).  Over the
    parts of complex lists this is the rule's width on the lists: once for
    a real or a real x complex row, doubled for complex x complex."""
    big = count_re = count_im = 0
    for x, y, _, _, la, lb, _, wr, wi in terms:
        big = max(big, max(map(abs, reps[x][:la])) * max(map(abs, reps[y][:lb])))
        count_re += abs(wr) * min(la, lb)
        count_im += abs(wi) * min(la, lb)
    return _width(big * max(count_re, count_im))


def _fits(digits, wb):
    half = 1 << 8 * wb - 1
    return all(-half <= x < half for x in digits)


@st.composite
def shaped_lists(draw):
    """(re, im) of a list that grows, is flat, starts with zeros, is purely
    imaginary or is complex; im is None for a real list."""
    kind = draw(st.sampled_from(["growing", "flat", "leading zeros", "imaginary", "complex"]))
    n = draw(st.integers(1, 14))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    if kind == "growing":  # |x[t]| rises with t, as 1/(q;q)_j's coefficients do
        step = draw(st.integers(1, 1 << 24))
        re = [s * (1 + step) ** t for s, t in zip(signs, range(n))]
    elif kind == "flat":
        m = draw(st.integers(1, 1 << 64))
        re = [s * m for s in signs]
    else:
        re = draw(st.lists(st.integers(-(1 << 70), 1 << 70), min_size=n, max_size=n))
        if kind == "leading zeros":
            z = draw(st.integers(1, n))
            re[:z] = [0] * z
    if kind == "imaginary":
        return [0] * n, re
    if kind == "complex":
        return re, draw(st.lists(st.integers(-(1 << 70), 1 << 70), min_size=n, max_size=n))
    return re, None


@st.composite
def kernel_windows(draw):
    """(a, b, rows, top): windows of shaped lists at small positions, some of
    them unit multiples of another list of the same window, so that pairs
    cancel, and rows of pairs drawn from every pair."""

    def window():
        w = {}
        for i in range(draw(st.integers(1, 4))):
            re, im = draw(shaped_lists())
            w[i] = (draw(st.integers(0, 4)), re, im)
        for i in range(len(w), len(w) + draw(st.integers(0, 2))):  # -x or i*x of a list x
            v, re, im = w[draw(st.integers(0, len(w) - 1))]
            if draw(st.booleans()):
                w[i] = v, [-x for x in re], None if im is None else [-x for x in im]
            else:
                w[i] = v, [-x for x in im] if im is not None else [0] * len(re), re
        return w

    a, b = window(), window()
    pairs = [(i, j) for i in a for j in b]
    row = st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)
    rows = {k: draw(row) for k in range(draw(st.integers(1, 4)))}
    return a, b, rows, draw(st.integers(0, 30))


# real parts keyed across lists: R and S are the parts of one complex list
# and real lists of the other window
_R, _S, _T, _U = [3, -1, 4, 1 << 70], [2, 7, -1, 8], [-6, 0, 5, 3], [1, -8, 0, 2]
_ZERO = [0, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(kernel_windows(), st.none())
@example(({0: (0, [0, 0, 0, 0, 0, 0, 128], None)}, {0: (0, [0, 1], None)}, {0: [(0, 0)]}, 6), None)
@example(({0: (0, [0, 0, 128, 1], None)}, {0: (0, [0, 0, 1, 1], None)}, {0: [(0, 0)]}, 2), None)
# (R + iS)*S + (R + iS)*R: terms R*S of weight 1 + i, S*S of i and R*R of 1
@example(({0: (0, _R, _S)}, {0: (0, _S, None), 1: (0, _R, None)}, {0: [(0, 0), (0, 1)]}, 5), (3, 2))
# (R - iS)*S + (R - iS)*R: -S is S of unit -1
@example(({0: (0, _R, [-x for x in _S])}, {0: (0, _S, None), 1: (0, _R, None)}, {0: [(0, 0), (0, 1)]}, 5), (3, 2))
# (0 + iS)*(R + 0i) and R*(R + 0i): the zero parts are dropped
@example(({0: (0, _ZERO, _S), 1: (1, _R, None)}, {0: (0, _R, _ZERO)}, {0: [(0, 0)], 1: [(1, 0)]}, 5), (2, 2))
# (R + iS)*(S + iR) = i(R*R + S*S): the two R*S terms cancel
@example(({0: (0, _R, _S)}, {0: (0, _S, _R)}, {0: [(0, 0)]}, 5), (2, 2))
# (R + iR)*T: [100] is one key of weight 1 + i, one byte; a width that
# summed |w_re| + |w_im| over the terms would hold 200 and take two
@example(({0: (0, [100], [100])}, {0: (0, [1], None)}, {0: [(0, 0)]}, 0), (1, 2))
# two complex lists with no part in common: four products
@example(({0: (0, _R, _S)}, {0: (0, _T, _U)}, {0: [(0, 0)]}, 5), (4, 4))
def test_every_row_matches_the_oracle_and_every_packed_digit_fits(case, work):
    # a bound on a row's output digits alone can sit below an operand's
    # peak: [0, 0, 128, 1] times [0, 0, 1, 1] through q**2 has no nonzero
    # digit and a zero bound, yet 128 must be packed; so each width also
    # holds every digit packed for its row, and none is wider than the rule
    # that paired both lists' largest entries.  `work`, when given, is the
    # (bignum products formed, keys planned) of the call
    a, b, rows, top = case
    packed = []
    products = []
    counted = _counting_pack(products)

    def pack(digits, wb):
        packed.append(_fits(digits, wb))
        return counted(digits, wb)

    with mock.patch.object(_kernel_py, "_pack", pack):
        got = conv_rows(a, b, rows, top)
    assert all(packed)
    for k, pairs in rows.items():
        assert _row_terms(got.get(k)) == _schoolbook(a, b, pairs, top), k
    (plan, _), lists = plan_rows(a, b, rows, top)
    for _, _, _, wb, _, terms in plan:
        assert wb <= _old_width(terms, lists)
    if work is not None:
        assert (len(products), len(lists)) == work


def _fresh(window):
    """The window with every list replaced by a copy of its own."""
    return {i: (v, list(re), None if im is None else list(im)) for i, (v, re, im) in window.items()}


def _counting_pack(products):
    """A _pack whose packed ints append to `products` once for each bignum
    product formed with one as its left operand, masked or not."""

    class Packed(int):
        def __and__(self, mask):
            return Packed(int.__and__(self, mask))

        def __mul__(self, other):
            products.append(None)
            return int.__mul__(self, other)

    return lambda digits, wb: Packed(_pack(digits, wb))


def _formed(a, b, rows, top):
    """(the kernel's rows, the bignum products it forms)."""
    products = []
    with mock.patch.object(_kernel_py, "_pack", _counting_pack(products)):
        out = conv_rows(a, b, rows, top)
    return out, len(products)


@settings(max_examples=200, deadline=None)
@given(kernel_windows())
# (R + iS)*(S + iR) of one pair: shared lists or copies, R*S cancels
@example(({0: (0, _R, _S)}, {0: (0, _S, _R)}, {0: [(0, 0)]}, 5))
def test_rows_and_products_depend_on_list_contents_alone(case):
    # every part is keyed by its content, so fresh copies of every list
    # give the same rows from the same bignum products
    a, b, rows, top = case
    assert _formed(_fresh(a), _fresh(b), rows, top) == _formed(a, b, rows, top)


def test_no_row_of_the_triple_products_euler_pair_is_wider_than_8_bytes():
    # jtp_check(300)'s E(z)*E(1/z): its slices grow as 1/(q;q)_j, whose
    # largest coefficient through 300, p(300) < 2**54, fits in 7 bytes; the
    # rule that paired both lists' largest entries planned rows of 10
    order = Fraction(300)
    euler = euler_z_product(Monomial(MINUS_ONE, Fraction(1, 2)), qmono(1), order)
    plans = []

    def plan(*args):
        out = _plan(*args)
        plans.append([wb for _, _, _, wb, _, _ in out[0]])  # conv_terms clears each entry once formed
        return out

    with mock.patch.object(_kernel_py, "_plan", plan):
        product = euler * euler.reflect()
    (widths,) = plans
    assert max(widths) <= 8 and len(widths) == 25
    assert max(max(map(abs, s.re)) for s in product.coeff.values()).bit_length() <= 54


def test_reach_cuts_an_operand_to_its_pairs_digits():
    # conv_terms multiplies each packed list only as far as its term can
    # reach under the order: the low n digits, nonnegative and below
    # 2**(w*n), equal to the packed list mod 2**(w*n)
    rng = random.Random(7)
    for wb in (1, 2, 3, 4, 5, 8, 9, 17):
        for length in (1, 2, 9):
            m = 1 << (8 * wb - 2)
            re = [rng.randint(-m, m) for _ in range(length)]
            for digits in (re, [-x for x in re]):
                x = _pack(digits, wb)
                for n in range(1, length + 3):
                    y = x if n >= length else x & (1 << 8 * wb * n) - 1
                    if n >= length:
                        assert y == x
                        continue
                    assert 0 <= y < 1 << 8 * wb * n
                    assert _unpack(y, wb, n) == digits[:n]
    # in the kernel, a list of 9 one-byte digits is packed once, to the 9
    # digits its term in row 0 reaches, and masked to the 4 that its term
    # at position 5 in row 1 reaches; the shared list [1] is never masked
    masks = []

    class Packed(int):
        def __and__(self, mask):
            masks.append(mask.bit_length())
            return int.__and__(self, mask)

    long = [rng.randint(1, 99) * rng.choice([1, -1]) for _ in range(9)]
    a, b, rows = {0: (0, long, None)}, {0: (0, [1], None), 1: (5, [1], None)}, {0: [(0, 0)], 1: [(0, 1)]}
    with mock.patch.object(_kernel_py, "_pack", lambda digits, wb: Packed(_pack(digits, wb))):
        got = conv_rows(a, b, rows, 8)
    for k, pairs in rows.items():
        assert _row_terms(got.get(k)) == _schoolbook(a, b, pairs, 8), k
    assert masks == [8 * 4]


def _operand(rng, kind, bits):
    """(v, re, im) of a random list at valuation v: real (im None), purely
    imaginary (re all zeros) or complex."""
    n = rng.randint(1, 12)
    m = 1 << bits
    re = [0] * n if kind == "imaginary" else [rng.randint(-m, m) for _ in range(n)]
    im = None if kind == "real" else [rng.randint(-m, m) for _ in range(n)]
    return rng.randint(0, 5), re, im


def _schoolbook(a, b, pairs, top):
    """{position: the nonzero GaussianInt sum of the pairs' products} through top."""
    want = {}
    for i, j in pairs:
        (va, ar, ai), (vb, br, bi) = a[i], b[j]
        for s, x in enumerate(_gauss(ar, ai or [0] * len(ar))):
            for t, y in enumerate(_gauss(br, bi or [0] * len(br))):
                if va + vb + s + t <= top:
                    want[va + vb + s + t] = want.get(va + vb + s + t, ZERO) + x * y
    return {e: c for e, c in want.items() if c != ZERO}


def _row_terms(row):
    """{position: GaussianInt} of one kernel row, without zeros; {} for a missing row."""
    v, re, im = row or (0, [], None)
    return {v + t: c for t, c in enumerate(_gauss(re, im or [0] * len(re))) if c != ZERO}


@pytest.mark.parametrize("bits", BITS)
def test_imaginary_windows_match_oracle(bits):
    # a purely imaginary list is i times a real list; every row must still be
    # the schoolbook sum of its pairs' products
    rng = random.Random(bits + 5)
    kinds = ("imaginary", "imaginary", "complex", "real")
    a = {x: _operand(rng, kind, bits) for x, kind in enumerate(kinds)}
    b = {x: _operand(rng, kind, bits) for x, kind in enumerate(kinds)}
    rows = {
        "imaginary x imaginary": [(0, 0), (1, 1), (0, 1)],
        "imaginary x complex": [(0, 2), (2, 1)],
        "imaginary x real": [(1, 3), (3, 0)],
        "every pair": [(i, j) for i in a for j in b],
    }
    for top in (0, 4, 9, 30):
        got = conv_rows(a, b, rows, top)
        for k, pairs in rows.items():
            assert _row_terms(got.get(k)) == _schoolbook(a, b, pairs, top), (k, top)


@pytest.mark.parametrize("c", [GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(1, 1)])
def test_a_window_times_its_z_to_minus_z_twist_forms_no_odd_row(c):
    # E(cz)*E(-cz): list n is c**n * S_n on one side and (-c)**n * S_n on the
    # other, so the pairs (m, n) and (n, m) of an odd row cancel and those of
    # an even row are one term of weight +-2: no odd row is planned or formed
    rng = random.Random(11)
    lists = [[rng.randint(-99, 99) for _ in range(rng.randint(1, 9))] for _ in range(7)]

    def window(u):
        w, p = {}, GaussianInt(1, 0)
        for n, s in enumerate(lists):
            im = None if p.im == 0 else [p.im * x for x in s]
            w[n] = (n, [p.re * x for x in s], im)
            p = p * u
        return w

    a, b = window(c), window(-c)
    rows = {k: [(m, k - m) for m in a if k - m in b] for k in range(13)}
    top = 40
    (plan, _), _ = plan_rows(a, b, rows, top)
    assert [ks for ks, *_ in plan] == [[k] for k in range(0, 13, 2)]
    for (k,), _, _, _, _, terms in plan:
        assert len(terms) == (len(rows[k]) + 1) // 2
    got = conv_rows(a, b, rows, top)
    assert set(got) == set(range(0, 13, 2))
    for k, pairs in rows.items():
        assert _row_terms(got.get(k)) == _schoolbook(a, b, pairs, top), k


@pytest.mark.parametrize(
    "run, products",
    [
        (lambda: chain_passes(replay_1_5(40)), [21, 5, 5]),
        (lambda: chain_passes(replay_1_8(40)), [19, 105, 6, 6]),
        (lambda: jtp_check(120).ok, []),  # its left side is formed with no product
    ],
    ids=["replay 1.5 @40", "replay 1.8 @40", "jtp_check @120"],
)
def test_z_products_form_one_product_per_term_of_real_lists(monkeypatch, run, products):
    # every list these products pack is real once its unit of Z[i] is taken
    # out, so splitting lists into real parts adds no product: each call
    # forms as many bignum products as when a complex list was one key
    conv = _kernel_py.conv_terms
    made, formed = [], []

    def spy_rows(*args):
        start = len(made)
        out = conv(*args)
        formed.append(len(made) - start)
        return out

    monkeypatch.setattr(_kernel_py, "_pack", _counting_pack(made))
    monkeypatch.setattr(_kernel_py, "conv_terms", spy_rows)
    assert run()
    assert formed == products
