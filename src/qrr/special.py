"""Named special objects: Gaussian binomials, Rogers-Szego polynomials (both
representations) and the Jacobi triple product check.  Nahm sums are sum
sides of identities and live in qrr.identity (NahmData, nahm_series)."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from ._kernel_py import _pack, _unpack, _width
from .errors import NegativeExponent
from .gaussian import MINUS_ONE, unit_pow
from .series import Monomial, QSeries, _as_order, _chain, _check_base, _grid, _poch, _spread, qmono
from .zseries import ZSeries, _triple_product, theta_z


def gaussian_binomial(n: int, k: int, b: Monomial, order) -> QSeries:
    """The Gaussian binomial [n k] in base b, exact through `order`.

    As a polynomial in b it has degree k*(n-k); with order at least
    k*(n-k)*b.exp, the result is the exact polynomial.  Zero for k outside
    0..n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_base(b)
    if k < 0 or k > n:
        return QSeries.zero(order)
    # (b**(n-k+1); b)_k / (b; b)_k
    return _poch(order, [(qmono((n - k + 1) * b.exp), b, k, 1), (b, b, k, -1)])


def gaussian_binomial_row(n: int, b: Monomial, order) -> list:
    """[[n 0], ..., [n n]] in base b, exact through `order`; entry k equals
    gaussian_binomial(n, k, b, order).

    The entries k <= n/2 are one chain of int lists in x = b (`_row_head`),
    each spread onto the grid of b and the order once, and the other half is
    the mirror image [n k] = [n n-k]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_base(b)
    den = _grid(order, b.exp)
    top, step = _as_order(order, den), int(b.exp * den)
    row = [QSeries._of(den, top, 0, _spread(x, step)) for x in _row_head(n, top // step, n // 2)]
    return row + row[: n + 1 - len(row)][::-1]


def _row_head(n: int, last: int, m: int) -> list:
    """[[n 0], ..., [n m]] for m <= n/2 as int lists in x through x**last:
    the Gaussian row of `series._chain`, cut after m entries (none past
    [n 0] for m = 0).  For the row in base b through `order`, x = b and
    last = floor(order / b).

    Entry k is as long as [n k], degree k*(n-k) in x, or as the powers of x
    through x**last, whichever is shorter.  Each entry of a product or a
    quotient depends only on the entries up to it, and [n k] has no entry
    past the lists, so the division is exact on them."""
    return _chain([1], [min(k * (n - k), last) + 1 for k in range(1, m + 1)], n)


def rogers_szego_def(n: int, b: Monomial, order) -> ZSeries:
    """H_n(t; b) by its defining sum over Gaussian binomials (t carried as z)."""
    return ZSeries(dict(enumerate(gaussian_binomial_row(n, b, order))))


def rogers_szego_bw(n: int, b: Monomial, order) -> ZSeries:
    """H_n(t; b) by the factored double-Pochhammer representation, t carried as z.

    With h = n // 2, U = n - h, c_r = [h r] in base b**2, A_r = prod_{s<r}
    (z + b**(1+2s)) and B_m = prod_{s<m} (1 + z*b**(2s)), the sum
    H_n = sum_r c_r * z**r A_r * B_{U-r} is nested by Horner's rule from both
    ends, meeting at m = (U - 1) // 2: G_r = G_{r-1} * (1 + z*b**(2(U-r)))
    + c_r * z**r A_r up to r = m, F_r = c_r * B_{U-r} + z*(z + b**(2r+1))
    * F_{r+1} down from r = h, and H_n = B_{U-m} * G_m + z**(m+1) A_{m+1}
    * F_{m+1}.  So c_r multiplies min(r, U - r) + 1 z-slices.  Each window
    and each partial sum gains one factor z + b**k (with a z-shift) or
    1 + z*b**k per step: at most n + U - 1 z-binomial steps, so no
    z-binomial is ever an operand.  Every window stays inside [0, n].

    The nest (`_nest`, shared with rs_at) never builds a ZSeries: its
    z-slices stay packed from start to end, one int each, and each is
    unpacked once.  Its digits hold C(n, n // 2), which bounds every
    coefficient of H_n: 3, 4 and 5 bytes at n = 24, 32 and 40.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_base(b)
    # with no factor b**(2r-1) (n <= 1) the result lives on the grid of b**2
    den = _grid(order, b.exp if n > 1 else 2 * b.exp)
    xs, wb, top = _nest(n, b, order, den, 0, n // 2, comb(n, n // 2))
    return ZSeries._fitted({k: _read(x, 0, den, top, wb) for k, x in enumerate(xs)}, den, top)


def rs_at(n: int, t: Monomial, b: Monomial, order) -> QSeries:
    """H_n(t; b) with t a monomial: rogers_szego_bw's nest, then z := t.

    A zero beta_s = 1 + t*b**(2s) removes every term with r < U - s, a zero
    alpha_s = t + b**(1+2s) every term with r > s.  So the nest runs over
    r0 <= r <= r1 only (r0 the largest U - s over the zero beta_s, else 0; r1
    the smallest s over the zero alpha_s, else h), and the result is zero
    when r0 > r1.  It runs on the grid of t, b and the order; z := t shifts
    packed slice k, one int, by k times t's grid steps and adds it into the
    real or imaginary sum by t's unit**k, and the masked sums are read once.
    Its digits hold 2**U * sum_{r0 <= r <= r1} C(h, r), which bounds every
    coefficient of the kept terms' sum: 2**n when every term is kept, 2**U
    at t = -1 (3 bytes at n = 40).

    The base must be a positive power of q, for every n and t.  A t of
    negative q-order raises NegativeExponent for n >= 1, since H_n(t) then
    has negative powers of q; H_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_base(b)
    if n and t.exp < 0:
        raise NegativeExponent("H_%d(t) at t = %s has negative powers of q" % (n, t))
    r0, r1 = _kept(n, t, b)
    if r0 > r1:
        return QSeries.zero(order)
    den = _grid(order, t.exp, b.exp)
    bound = sum(comb(n // 2, r) for r in range(r0, r1 + 1)) << (n + 1) // 2
    xs, wb, top = _nest(n, b, order, den, r0, r1, bound)
    w, step = 8 * wb, int(t.exp * den)
    re = im = 0
    for k, x in enumerate(xs):  # z := t
        ur, ui = unit_pow(t.unit, k)
        x <<= w * k * step
        re, im = re + ur * x, im + ui * x
    return _read(re, im, den, top, wb)


def _kept(n: int, t: Monomial, b: Monomial) -> tuple:
    """rs_at's (r0, r1) for H_n(t; b), t of q-order >= 0 and b = q**e, e > 0.

    beta_s = 0 needs t*b**(2s) = -1, so s = 0 and t = -1; alpha_s = 0 needs
    t = -b**(1+2s): t.exp = (1+2s)*b.exp and t.unit = -1."""
    half, upper = n // 2, (n + 1) // 2
    r0 = upper if t == Monomial(MINUS_ONE) else 0
    r1, rest = divmod(t.exp / b.exp - 1, 2)
    if rest or not 0 <= r1 < half or t.unit != MINUS_ONE:
        r1 = half
    return r0, r1


def _nest(n: int, b: Monomial, order, den: int, r0: int, r1: int, bound: int) -> tuple:
    """(xs, wb, top): the terms r0 <= r <= r1 of rogers_szego_bw's sum
    H_n = sum_r c_r * z**r A_r * B_{U-r}, on grid `den`, which must hold b
    and the order (top on that grid), at the digit width wb of `bound`;
    xs[k] is its z**k slice, one packed int.

    The terms meet in the middle, at m = (U - 1) // 2: those with r <= m run
    Horner's rule upwards, G_r = G_{r-1} * (1 + z*b**(2(U-r))) + c_r * z**r
    A_r, times B_{U-m} at the end; those with r > m run it downwards,
    F_r = c_r * B_{U-r} + z*(z + b**(2r+1)) * F_{r+1}, times z**(m+1) A_{m+1}
    at the end.  So each c_r multiplies the shorter of its windows, min(r,
    U - r) + 1 slices (121 at n = 40, against 231 for one upward nest), for
    at most n + U - 1 z-binomial steps.  The two directions are one loop
    (`horner`): the upward one steps its window by the odd factors
    z*(z + b**(2s+1)) and its sum by the even ones 1 + z*b**(2s), the
    downward one the other way round.

    Each slice packs its top + 1 coefficients as the convolution kernel
    does (qrr._kernel_py._pack), at wb bytes per digit for every slice.  b
    is q**e, e > 0 (its callers check it), so every factor and every c_r is
    real and a slice is one int.  A z-binomial step is one pass over the
    window: b**k's shift is taken once, and each new slice is a slice plus
    the shifted neighbour.  Each c_r times a window is one int multiply per
    slice, with c_r packed once, folded into the sum in one pass.  Every
    slice is masked to its top + 1 digits, which changes it by a multiple of
    2**(w*(top + 1)) that no later shift, product or sum brings below that
    digit.

    wb holds `bound` in a signed digit, and the caller passes a bound on
    every coefficient it reads.  The terms have nonnegative coefficients in
    z and b, each at its own power of q (b has positive q-order), so a
    coefficient is at most the sum of those it collects.  At b = 1 and
    z = 1 term r sums to C(h, r) * 2**U; so the value at a monomial z := t
    is at most 2**U * sum_{r0 <= r <= r1} C(h, r), 2**n when every term is
    kept.  Slice k of the whole sum collects sum_r C(h, r) * C(U, k - r) =
    C(n, k) (Vandermonde), at most C(n, n // 2).  Intermediate digits need
    no bound, since only the result's are read.

    The digits move through the kernel's `_pack` and `_unpack` only: each c_r
    is packed once, and `_read` unpacks each result.  For wb <= 8 (n <= 66
    in rogers_szego_bw) both move the digits by byte-strided copies, not one
    call per digit, on every list past their length rules (every list when
    wb is 1, 2, 4 or 8)."""
    half, upper = n // 2, (n + 1) // 2
    # c_r = c_{h-r}, and the walk stops at the last one a kept term needs
    used = {min(r, half - r) for r in range(r0, r1 + 1)}
    top = _as_order(order, den)
    step = int(b.exp * den)
    # c_r = [h r] in x = b**2 (on the grid of b**2 itself for n <= 1, where b
    # is not on it)
    step2 = int(2 * b.exp * den)
    coeffs = _row_head(half, top // step2, max(used))
    wb = _width(bound)
    w = 8 * wb
    mask = (1 << w * (top + 1)) - 1

    def plus(xs: list, ys: list, c: int) -> list:  # xs + c*ys, slice by slice
        return [(a + x * c) & mask for a, x in zip(xs, ys)]

    def times(x: list, k: int) -> list:  # x * (z + b**k) for odd k, x * (1 + z*b**k) for even k
        same, scaled = x + [0], [0] + x
        if k & 1:
            same, scaled = scaled, same
        if k * step > top:
            return same
        s = w * k * step
        return [(a + (c << s)) & mask for a, c in zip(same, scaled)]

    def horner(odd: int, i0: int, i1: int) -> list:
        """Steps i = 0..U of the nest over the terms r = i0..i1 upwards
        (odd = 1) or r = U - i1..U - i0 downwards (odd = 0).  At step i the
        window takes the factor of exponent 2i - 2 + odd and the sum that of
        2(U - i) + 1 - odd, an odd factor z + b**k with its z-shift (an
        offset, for the window).  Past i1 the sum takes the factors left
        smallest first, so that its slices widen late, and their z-shifts at
        the end."""
        if i0 > i1:
            return []
        win, off, acc = [1], 0, []
        for i in range(i1 + 1):
            if i:
                k = 2 * i - 2 + odd
                win, off = times(win, k), off + (k & 1)
            if acc:
                k = 2 * (upper - i) + 1 - odd
                acc = [0] * (k & 1) + times(acc, k)
            if i >= i0:
                c = packed[min(r := i if odd else upper - i, half - r)]
                end = off + len(win)
                acc += [0] * (end - len(acc))
                acc[off:end] = plus(acc[off:end], win, c)
        rest = range(1 - odd, 2 * (upper - i1) - odd, 2)
        for k in rest:
            acc = times(acc, k)
        return [0] * (len(rest) * (1 - odd)) + acc

    # each c_r a kept term needs is packed once, its list spread onto the grid
    packed = {k: _pack(_spread(coeffs[k], step2), wb) for k in used}
    m = (upper - 1) // 2
    low, high = horner(1, r0, min(m, r1)), horner(0, upper - r1, upper - max(m + 1, r0))
    if low and high:  # the lower half ends at z**(U+m), the upper one at z**(U+r1)
        high[: len(low)] = plus(high, low, 1)
    return high or low, wb, top


def _read(re: int, im: int, den: int, top: int, wb: int) -> QSeries:
    """The series re + i*im of two ints packed as by `_nest`, read modulo
    2**(w*(top + 1)) as signed, so that only the digits through the last
    nonzero one, which the ints' size bounds, are unpacked."""
    w, half = 8 * wb, 1 << 8 * wb * (top + 1) - 1
    re, im = (((v + half) & (2 * half - 1)) - half for v in (re, im))
    digits = min(top + 1, max(abs(re), abs(im)).bit_length() // w + 1)
    return QSeries._of(den, top, 0, _unpack(re, wb, digits), _unpack(im, wb, digits) if im else None)


class JtpReport(NamedTuple):
    ok: bool
    order: Fraction
    first_divergence: Optional[tuple]  # (z-power, q-exponent) or None


def jtp_check(order) -> JtpReport:
    """Verify the triple product (q, z*q^(1/2), q^(1/2)/z; q)_inf against the
    bilateral sum sum_n (-1)^n q^(n^2/2) z^n, z-coefficientwise through `order`.

    The left side takes no product (zseries._triple_product): z**k and
    z**-k are one Horner fold over the Euler terms of (z*q^(1/2); q)_inf
    (q^(1/2)/z; q)_inf, level n adding entry n + k of (q;q)_inf/(q;q)_m."""
    order = Fraction(order)
    lhs = _triple_product(Monomial(MINUS_ONE, Fraction(1, 2)), qmono(1), order)
    # n^2/2 = binom(n,2) + n/2
    rhs = theta_z(1, Fraction(1, 2), MINUS_ONE, 1, order)
    d = lhs.first_difference(rhs, order)
    return JtpReport(d is None, order, d)
