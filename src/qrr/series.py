"""Truncated formal power series in q**(1/D) with exact Gaussian-integer
coefficients.

A QSeries stores its coefficients densely: the real parts `re` and the
imaginary parts `im` (None for a real series) are lists of ints, and entry k
is the coefficient of q**((val + k)/den).  An inclusive truncation bound
`order`, in the same scaled units, goes with them: every coefficient at
e <= order is exactly the mathematical value.  Negative q-exponents are a hard
error; nothing in this engine is Laurent in q (the auxiliary variable z is
handled separately).

The lists are kept in one normal form, so equality is equality of the stored
fields: no zero coefficient at either end, empty lists for the zero series
(with val 0), im None exactly when every imaginary part is 0, and nothing
stored beyond `order`.  Lists are never mutated once a series holds them.

Grids are worked out, never passed: no constructor or builder takes a grid.
Each builds its object on the coarsest grid that holds its own exponents and
its order (`_grid`, the one rule), so none floors the order it is asked for,
and a product side lives on its own grid, not on the sum's.  Binary
operations lift both operands to the lcm grid and truncate to the smaller
order.  Every product, here and in qrr.zseries, one-term operands
included, goes through `_rows`; there is no shift-and-scale path.  Two
products stay outside it.  The Horner nest of qrr.special (`_nest`), which
serves both forms of the Rogers-Szego polynomials, rogers_szego_bw and
rs_at, keeps its z-slices packed as the kernel packs them and multiplies the
packed ints itself.  The triple product E(c*z)*E(c/z)*(b;b)_inf of
qrr.zseries (`_triple_product`) makes each z-slice as one `_fold`.
`_rows` pairs the operands' series in one walk: it keys each list in use
once, by its content up to sign at its own stride, and adds each pair's
product of units into the weight of its term (key pair, position) in its
row.  It also holds the one stride rule: the largest g such that the
nonzero coefficients of every list in use sit on a stride g from their
valuations (a one-term list imposes none), and the terms of one row differ
in position by multiples of g.  It hands every key's g-th entries and the
rows of weighted terms to the Kronecker-substitution kernel's one entry
point (qrr._kernel_py.conv_terms), which has no loop over pairs, and
spreads the rows back onto the grid.

A binomial factor never reaches the kernel, and its exponent is a whole
number k of steps on a grid the caller works out once.  It acts in place on
int lists, and every chain of binomial factors is one pair of lists stepped
by it: `_unit_mul` multiplies by 1 - u*q**k in one slice operation, and
`_divide` divides by it (`_unit_div`, for u = +-1, in k or about n/k slice
operations on the n entries from a start below which the entries are read as
0, by the path that costs less, never one step per coefficient).  A list
steps only the entries it holds, so a chain sizes its lists once: a power
series to the whole window, a polynomial to its degree.  Every product side is one Pochhammer walk
(`_poch`) over one pair of lists on one grid, taking its factors from the
largest exponent down.  A family (x; b)_inf, b = q**m, steps only its first
K = max(1, isqrt(n // m)) factors, and so does a finite family (x; b)_N of
more than 3K factors; the rest is the tail (y; b)_inf from y = x*b**K, for a
finite family over the tail (x*b**N; b)_inf when x*b**N lies within the
order.  Each tail is Euler's sum in y, 1/(y; b)_inf = sum y**l/(b; b)_l or
(y; b)_inf = sum (-1)**l b**(l(l-1)/2) y**l/(b; b)_l (`_tail`): about
sqrt(n/m) divisions per family in place of n/m.  Each such
sum_t X_t/(x; x)_t, here, in the sum side's nest and in replay 1.7, is one
Horner fold (`_fold`), and so is each z-slice of the triple product.  Every
chain of binomial factors is one builder (`_chain`) of int lists in x: the
chains 1/(x; x)_m of the sum side's table and of qrr.zseries' Euler
windows, (x; x)_inf/(x; x)_m of its triple product, and the Gaussian
binomial rows [n m] of qrr.special.  Entry m is a copy of entry m - 1, cut
or padded to its own length, for a row multiplied by 1 - x**(n - m + 1)
(`_unit_mul`), then divided by 1 - x**m (`_divide`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import floor, gcd, isqrt, lcm
from operator import add, itemgetter, neg, or_, sub
from typing import Iterator, Optional

from . import _kernel_py
from .errors import DivergentProduct, NegativeExponent, NonUnitConstantTerm
from .gaussian import ONE, UNITS, ZERO, GaussianInt, is_unit


@dataclass(frozen=True)
class Monomial:
    """A unit of Z[i] times a rational power of q, e.g. -q**2 or i*q**(3/4)."""

    unit: GaussianInt = ONE
    exp: Fraction = Fraction(0)

    def __post_init__(self):
        if not is_unit(self.unit):
            raise ValueError("monomial unit must be one of +-1, +-i")
        object.__setattr__(self, "exp", Fraction(self.exp))

    def __str__(self):
        u = {(1, 0): "", (-1, 0): "-", (0, 1): "i*", (0, -1): "-i*"}[self.unit]
        return "%sq^%s" % (u, self.exp)


def qmono(exp, unit: GaussianInt = ONE) -> Monomial:
    return Monomial(unit, Fraction(exp))


def _grid(order, *exps) -> int:
    """The coarsest grid that holds `order` and each exponent in `exps`
    (Fractions or ints): the lcm of their denominators."""
    return lcm(Fraction(order).denominator, *(e.denominator for e in exps))


def _as_order(order, den: int) -> int:
    """Scaled inclusive truncation bound for a q-unit order."""
    o = Fraction(order)
    if o < 0:
        raise ValueError("truncation order must be nonnegative")
    return floor(o * den)


def _normal(order: int, val: int, re: list, im: Optional[list]):
    """(val, re, im) in normal form, without the terms beyond scaled `order`."""
    n = order - val + 1
    if len(re) > n:
        re = re[: max(n, 0)]
        im = None if im is None else im[: max(n, 0)]
    if im is not None and not any(im):
        im = None
    hi = len(re)
    lo = 0
    if im is None:
        while hi and not re[hi - 1]:
            hi -= 1
        while lo < hi and not re[lo]:
            lo += 1
    else:
        while hi and not (re[hi - 1] or im[hi - 1]):
            hi -= 1
        while lo < hi and not (re[lo] or im[lo]):
            lo += 1
    if not hi:
        return 0, [], None
    if lo or hi < len(re):
        re = re[lo:hi]
        im = None if im is None else im[lo:hi]
    return val + lo, re, im


def _spread(x: list, f: int) -> list:
    """x with f - 1 zeros between consecutive entries."""
    if f == 1:
        return x
    out = [0] * (f * (len(x) - 1) + 1)
    out[::f] = x
    return out


def _lay(n: int, parts) -> list:
    """A length-n list summing each list x placed at offset o, for (o, x) in
    parts; x is None for zeros, and entries past n are dropped."""
    out = [0] * n
    for o, x in parts:
        if x is not None and o < n:
            out[o : o + len(x)] = map(add, out[o : o + len(x)], x)
    return out


def _scaled(x: list, c: int) -> list:
    """x times the int c: x itself for c = 1, a fresh list otherwise."""
    if c == 1:
        return x
    return [-v for v in x] if c == -1 else [v * c for v in x]


def _times(re: list, im: Optional[list], cr: int, ci: int):
    """(re + i*im) * (cr + i*ci) as a pair of lists; an im of None is zero,
    and the result's im is None when it is zero.  A unit returns re and im
    themselves, negated or swapped, never multiplied entry by entry."""
    if not ci:
        return _scaled(re, cr), None if im is None else _scaled(im, cr)
    if not cr:  # ci*i*(x + i*y) = -ci*y + ci*i*x
        return [0] * len(re) if im is None else _scaled(im, -ci), _scaled(re, ci)
    if im is None:
        return [x * cr for x in re], [x * ci for x in re]
    return [x * cr - y * ci for x, y in zip(re, im)], [x * ci + y * cr for x, y in zip(re, im)]


class QSeries:
    __slots__ = ("den", "order", "val", "re", "im")

    def __init__(self, den: int, order: int, coeffs: dict):
        """The series sum coeffs[e] * q**(e/den), exact through scaled `order`.

        Terms beyond `order` are dropped; a negative exponent raises."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        if order < 0:
            raise ValueError("scaled order must be nonnegative")
        terms = {}
        for e, c in coeffs.items():
            if not isinstance(c, GaussianInt):
                c = GaussianInt(*c)
            if c.is_zero() or e > order:
                continue
            if e < 0:
                raise NegativeExponent("exponent %s/%s" % (e, den))
            terms[e] = c
        lo = min(terms, default=0)
        re = [0] * (max(terms, default=-1) - lo + 1)
        im = re[:]
        for e, c in terms.items():
            re[e - lo], im[e - lo] = c
        self.den = den
        self.order = order
        self.val, self.re, self.im = _normal(order, lo, re, im)

    @classmethod
    def _of(cls, den: int, order: int, val: int, re: list, im: Optional[list] = None) -> "QSeries":
        """The series sum_k (re[k] + i*im[k]) * q**((val + k)/den), exact through
        scaled `order`; the lists are brought to normal form."""
        s = cls.__new__(cls)
        s.den = den
        s.order = order
        s.val, s.re, s.im = _normal(order, val, re, im)
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order) -> "QSeries":
        """0 through `order`, on the order's grid."""
        den = _grid(order)
        return cls._of(den, _as_order(order, den), 0, [])

    @classmethod
    def one(cls, order) -> "QSeries":
        """1 through `order`, on the order's grid."""
        den = _grid(order)
        return cls._of(den, _as_order(order, den), 0, [1])

    @classmethod
    def term(cls, coeff: GaussianInt, exp, order) -> "QSeries":
        exp = Fraction(exp)
        if exp < 0:
            raise NegativeExponent(str(exp))
        den = _grid(order, exp)
        return cls(den, _as_order(order, den), {int(exp * den): coeff})

    # -- basic views -------------------------------------------------------

    @property
    def order_q(self) -> Fraction:
        return Fraction(self.order, self.den)

    def is_zero(self) -> bool:
        return not self.re

    def is_real(self) -> bool:
        return self.im is None

    def _support(self) -> Iterator[int]:
        """Positions k of the nonzero coefficients."""
        im = self.im
        return (k for k, x in enumerate(self.re) if x or (im is not None and im[k]))

    def terms(self) -> Iterator[tuple]:
        """Sorted (exponent: Fraction, coefficient) pairs."""
        for k in self._support():
            yield Fraction(self.val + k, self.den), self._at(k)

    def _at(self, k: int) -> GaussianInt:
        return GaussianInt(self.re[k], 0 if self.im is None else self.im[k])

    def coeff(self, exp) -> GaussianInt:
        exp = Fraction(exp)
        if exp > self.order_q:
            raise ValueError("exponent %s beyond truncation order %s" % (exp, self.order_q))
        scaled = exp * self.den
        k = int(scaled) - self.val
        if scaled.denominator != 1 or not 0 <= k < len(self.re):
            return ZERO
        return self._at(k)

    def valuation(self) -> Optional[Fraction]:
        if not self.re:
            return None
        return Fraction(self.val, self.den)

    def fractional_support(self) -> list:
        """Exponents with nonzero coefficient that are not integers."""
        return [
            Fraction(self.val + k, self.den)
            for k in self._support()
            if (self.val + k) % self.den
        ]

    def imaginary_support(self) -> list:
        if self.im is None:
            return []
        return [Fraction(self.val + k, self.den) for k, y in enumerate(self.im) if y]

    # -- denominator plumbing ----------------------------------------------

    def rescale(self, den: int) -> "QSeries":
        """Represent with a denominator that is a multiple of the current one."""
        if den == self.den:
            return self
        if den % self.den:
            raise ValueError("new denominator must be a multiple")
        f = den // self.den
        im = None if self.im is None else _spread(self.im, f)
        return QSeries._of(den, self.order * f, self.val * f, _spread(self.re, f), im)

    @staticmethod
    def _unify(a: "QSeries", b: "QSeries"):
        den = lcm(a.den, b.den)
        a = a.rescale(den)
        b = b.rescale(den)
        return den, min(a.order, b.order), a, b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        den, order, a, b = self._unify(self, other)
        if not b.re:
            return QSeries._of(den, order, a.val, a.re, a.im)
        if not a.re:
            return QSeries._of(den, order, b.val, b.re, b.im)
        lo = min(a.val, b.val)
        n = min(max(a.val + len(a.re), b.val + len(b.re)), order + 1) - lo
        re = _lay(n, ((a.val - lo, a.re), (b.val - lo, b.re)))
        im = None
        if a.im is not None or b.im is not None:
            im = _lay(n, ((a.val - lo, a.im), (b.val - lo, b.im)))
        return QSeries._of(den, order, lo, re, im)

    def __neg__(self) -> "QSeries":
        return QSeries._of(self.den, self.order, self.val, *_times(self.re, self.im, -1, 0))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c: GaussianInt) -> "QSeries":
        if c == ONE:
            return self
        return QSeries._of(self.den, self.order, self.val, *_times(self.re, self.im, *c))

    def shift(self, exp) -> "QSeries":
        """Multiply by q**exp; the truncation order moves with the shift.

        A negative exp is allowed only when the valuation covers it (the
        result must stay a power series).
        """
        exp = Fraction(exp)
        den = lcm(self.den, exp.denominator)
        s = self.rescale(den)
        k = int(exp * den)
        order = s.order + k
        if order < 0:
            raise NegativeExponent("shift by %s empties the series window" % exp)
        if s.re and s.val + k < 0:
            raise NegativeExponent("q^%s after shift by %s" % (Fraction(s.val, den), exp))
        return QSeries._of(den, order, s.val + k, s.re, s.im)

    def truncate(self, order) -> "QSeries":
        """Lower the truncation order (q-units)."""
        n = _as_order(order, self.den)
        if n > self.order:
            raise ValueError("cannot raise the truncation order")
        return QSeries._of(self.den, n, self.val, self.re, self.im)

    def mul(self, other: "QSeries") -> "QSeries":
        """Product, exact through the smaller of the two orders.  One pair
        cannot cancel: `_rows` leaves its row out only when it is zero."""
        den, order, a, b = self._unify(self, other)
        row = _rows({0: a}, {0: b}, den, order, 0).get(0)
        return QSeries._of(den, order, 0, []) if row is None else row

    def __mul__(self, other: "QSeries") -> "QSeries":
        return self.mul(other)

    def invert_unit(self) -> "QSeries":
        """Multiplicative inverse through the truncation order.

        The constant term must be a unit of Z[i].
        """
        c0 = self.coeff(0)
        if not is_unit(c0):
            raise NonUnitConstantTerm("constant term %s is not a unit of Z[i]" % (c0,))
        n_max = self.order
        ar = self.re
        ai = self.im or [0] * len(ar)
        support = [k for k in self._support() if k]
        ur, ui = c0.re, -c0.im  # inverse of a unit is its conjugate
        br = [0] * (n_max + 1)
        bi = [0] * (n_max + 1)
        br[0], bi[0] = ur, ui
        for n in range(1, n_max + 1):
            sr = si = 0
            for k in support:
                if k > n:
                    break
                xr, xi = ar[k], ai[k]
                yr, yi = br[n - k], bi[n - k]
                sr += xr * yr - xi * yi
                si += xr * yi + xi * yr
            br[n] = -(ur * sr - ui * si)
            bi[n] = -(ur * si + ui * sr)
        return QSeries._of(self.den, n_max, 0, br, bi)

    def substitute_power(self, r) -> "QSeries":
        """q -> q**r for a positive rational r (exponent dilation)."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("substitution power must be positive")
        p = r.numerator
        im = None if self.im is None else _spread(self.im, p)
        return QSeries._of(
            self.den * r.denominator, self.order * p, self.val * p, _spread(self.re, p), im
        )

    # -- comparison --------------------------------------------------------

    def same_through(self, other: "QSeries", order=None) -> bool:
        return self.first_difference(other, order) is None

    def first_difference(self, other: "QSeries", order=None) -> Optional[Fraction]:
        """Smallest exponent where the two series differ, through min(orders)."""
        den, n, a, b = self._unify(self, other)
        if order is not None:
            n = min(n, _as_order(order, den))
        a = QSeries._of(den, n, a.val, a.re, a.im)
        b = QSeries._of(den, n, b.val, b.re, b.im)
        if a._same(b):
            return None
        return Fraction((a - b).val, den)

    def _same(self, other: "QSeries") -> bool:
        """Equal coefficients (both in normal form on one grid)."""
        return self.val == other.val and self.re == other.re and self.im == other.im

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order_q != other.order_q:
            return False
        _, _, a, b = self._unify(self, other)
        return a._same(b)

    __hash__ = None

    def __str__(self):
        if not self.re:
            return "0 + O(q^%s)" % (self.order_q + Fraction(1, self.den))
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            else:
                cs = "" if c == ONE else ("-" if c == GaussianInt(-1, 0) else str(c) + "*")
                parts.append("%sq^%s" % (cs, e))
        body = " + ".join(parts).replace("+ -", "- ")
        return "%s + O(q^%s)" % (body, self.order_q + Fraction(1, self.den))

    __repr__ = __str__

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "den": self.den,
            "order": self.order,
            "terms": [[self.val + k, *self._at(k)] for k in self._support()],
        }


# i**u for u = 0..3, the unit of a part: the real part has unit i**0 and
# the imaginary part i**1, times the sign `_key` takes out.  A term's weight
# is a sum of products of two units, a complex number with integer parts no
# larger than the number of pairs, so every sum is exact
_UNITS = (1, 1j, -1, -1j)


def _rows(a: dict, b: dict, den: int, top: int, row: Optional[int] = None) -> dict:
    """{k: the sum of a[i] * b[j] over i + j = k}, or only the row k = `row`
    when it is given, for windows {key: series} on grid `den`, each exact
    through scaled exponent `top`; a product of two series is the row 0 of
    two one-key windows.  A row with no exponent <= top, or whose products
    cancel in the kernel, is left out.  It is the one product path for series
    and z-windows, one-term operands included.

    A series is the sum of its parts, re of unit 1 and im of unit i, less a
    part that is all zero.  Each list is keyed once (`_key`), the first time
    a series in use holds it, by its content up to sign at its own stride,
    so a list held by several series, or on both sides, is one key.  One
    walk then pairs the parts: those of b's nonzero series are sorted by
    valuation once, and each part of a nonzero series of a is paired with
    them in that order until the valuations sum past top, or only with the
    parts of b[row - i].  Each pair adds the product of its units into the
    weight, in row i + j, of its term (unordered key pair, v_a + v_b).  The
    stride g is the gcd of each row's position differences and of the
    strides of the lists in use; a one-term list has none and imposes none.
    The kernel (qrr._kernel_py.conv_terms) gets each key's list on every g-th
    entry and the rows of weighted terms; it sums each row into one packed
    accumulation, skips the terms whose weights cancel, and forms rows with
    the same terms and weights once.  Its rows are spread back onto the
    grid, and a row it shares stays one series."""
    a = {i: s for i, s in a.items() if s.re}
    b = {j: t for j, t in b.items() if t.re}
    if not (a and b):
        return {}
    keys = {}  # a list's key -> (key number, the sign of its first list)
    lists = []  # key number -> the first list of that key
    seen = {}  # id of a list -> (key number, e, stride), None for a zero list
    g = 0

    def parts(s):
        """[(key number, unit)] of s's nonzero parts; lowers g to their strides."""
        nonlocal g
        out = []
        for part, u in ((s.re, 0),) if s.im is None else ((s.re, 0), (s.im, 1)):
            kept = seen.get(id(part), 0)
            if kept == 0:
                kept = seen[id(part)] = _key(keys, lists, part) if any(part) else None
            if kept:
                x, e, stride = kept
                out.append((x, _UNITS[u + e]))
                g = gcd(g, stride)
        return out

    if row is None:  # the series of b that pair with a's lowest valuation, and so are in use
        low = top - min(s.val for s in a.values())
        used = [j for j in sorted(b, key=lambda j: b[j].val) if b[j].val <= low]
        walk = [(j, b[j].val, y, u) for j in used for y, u in parts(b[j])]
    rows = {}  # k -> {(x, y, position), x <= y: the sum of its pairs' units}
    for i, s in a.items():
        va = s.val
        if row is None:
            if not walk or va + walk[0][1] > top:
                continue
            pairs = walk
        elif row - i in b:
            t = b[row - i]
            pairs = [(row - i, t.val, y, u) for y, u in parts(t)]
        else:
            continue
        for x, ux in parts(s):
            for j, vb, y, uy in pairs:
                v = va + vb
                if v > top and row is None:
                    break
                weights = rows.get(i + j)
                if weights is None:
                    weights = rows[i + j] = {}
                term = (x, y, v) if x <= y else (y, x, v)
                weights[term] = weights.get(term, 0) + ux * uy
    if not rows:  # no pair at z**row: nothing for the kernel
        return {}
    for weights in rows.values():
        v0 = next(iter(weights))[2]
        g = gcd(g, *[t[2] - v0 for t in weights])
    g = g or 1
    packed = _kernel_py.conv_terms([x if g == 1 else x[::g] for x in lists], rows, top, g)
    made = {}  # id(kernel row) -> its series: rows the kernel shares stay shared
    for r in packed.values():
        if id(r) not in made:
            v, re, im = r
            made[id(r)] = QSeries._of(den, top, v, _spread(re, g), None if im is None else _spread(im, g))
    return {k: made[id(r)] for k, r in packed.items()}


def _key(keys: dict, lists: list, part: list) -> tuple:
    """(key number, e, stride) of a list with a nonzero entry: part is i**e
    times the first list keyed as its key number, e 0 or 2, and its nonzero
    entries sit at multiples of stride, 0 when only its first one is
    nonzero.  The key is the stride, the length and the entries at multiples
    of the stride, up to sign: two lists share a key exactly when they are
    equal up to sign."""
    stride = _stride(part)
    content = part[::stride] if stride else part[:1]
    sign = next(filter(None, content)) > 0
    key = stride, len(part), tuple(content) if sign else tuple(map(neg, content))
    kept = keys.get(key)
    if kept is None:
        kept = keys[key] = len(lists), sign
        lists.append(part)
    return kept[0], 0 if kept[1] == sign else 2, stride


def _stride(x: list) -> int:
    """The gcd of every offset 0 < k < len(x) at which x[k] is nonzero; 0
    when there is none.

    The first such offset k is found by a short walk, so a dense list
    returns at offset 1.  When x holds as many nonzero entries on the
    multiples of k as in all, k is the gcd; otherwise the residues mod k are
    checked one slice at a time, and a nonzero residue j lowers it to
    gcd(k, j)."""
    n = len(x)
    k = 1
    while k < n and not x[k]:
        k += 1
    if k == n:
        return 0
    if k == 1:
        return 1
    on = x[::k]
    if len(on) - on.count(0) == n - x.count(0):
        return k
    j = 1
    while j < k:
        if any(x[j::k]):
            k = gcd(k, j)
            j = 1
        else:
            j += 1
    return k


# -- binomial steps, in place on int lists ---------------------------------


def _unit_mul(re: list, im: Optional[list], k: int, unit) -> None:
    """(re + i*im) * (1 - unit*q**k) in place: each entry e >= k less unit
    times entry e - k, read before any is written, so at k = 0 the scalar
    1 - unit.  An im of None is zero and needs a real unit."""
    n = len(re)
    if k >= n:
        return
    ur, ui = unit
    if not ui:
        op = sub if ur > 0 else add
        re[k:] = map(op, re[k:], re[: n - k])
        if im is not None:
            im[k:] = map(op, im[k:], im[: n - k])
    else:  # -(+-i)*(x + i*y) = +-y -+ i*x
        x, y = re[: n - k], im[: n - k]
        re[k:] = map(add if ui > 0 else sub, re[k:], y)
        im[k:] = map(sub if ui > 0 else add, im[k:], x)


def _divide(re: list, im: Optional[list], k: int, unit) -> None:
    """(re + i*im) / (1 - unit*q**k) in place.  A real unit divides re and
    im apart (`_unit_div`); a unit u = +-i goes through 1/(1 - u*x) =
    (1 + u*x)/(1 + x**2): one `_unit_mul`, then the unit -1 at stride 2k."""
    ur, ui = unit
    if ui:
        _unit_mul(re, im, k, (-ur, -ui))
        ur, k = -1, 2 * k
    _unit_div(re, k, ur)
    if im is not None:
        _unit_div(im, k, ur)


def _unit_div(x: list, k: int, u: int, start: int = 0) -> list:
    """x / (1 - u*q**k) in place, for a real unit u = +-1 and k > 0, as if
    every entry below `start` were 0: x[e] += u*x[e - k] for e = start + k,
    start + k + 1, ... in turn.

    With m = len(x) - start entries from start, it takes k rounds of slice
    operations, one per residue class mod k, or ceil(m/k) - 1, one per block
    of k entries added to (or subtracted from) the block before it; never
    one step per entry.  A class round costs more than a block round, so a
    class pass pays only for a short stride: for u = +1 (one `accumulate`
    per class) while k*k <= 4m, for u = -1 (an odd/even pass per class)
    while 4*k*k <= m.  The crossovers measured in CPython sit near k = 2
    sqrt(m) (1.6 sqrt(m) at m = 300, 3 sqrt(m) at 4000) and k = sqrt(m)/2."""
    n = len(x)
    m = n - start
    if (k * k > 4 * m) if u > 0 else (4 * k * k > m):
        op = add if u > 0 else sub
        for a in range(start + k, n, k):
            x[a : a + k] = map(op, x[a : a + k], x[a - k : a])
    elif u > 0:
        for r in range(start, start + k):
            x[r::k] = list(accumulate(x[r::k]))
    else:
        # on a class c, y[j] = c[j] - y[j - 1]: the odd terms are running
        # sums of c[2m + 1] - c[2m], and each later even term is c[2m] less
        # the odd term before it
        for r in range(start, start + k):
            odd = list(accumulate(map(sub, x[r + k :: 2 * k], x[r :: 2 * k])))
            x[r + k :: 2 * k] = odd
            x[r + 2 * k :: 2 * k] = map(sub, x[r + 2 * k :: 2 * k], odd)
    return x


def _fold(groups: list, step: int, stride: int, n: int):
    """sum over t of X_t / (x; x)_t as terms, x = q**step and X_t the terms
    of groups[t], each (offset, content, u) adding i**u * content into every
    stride-th entry from its offset, up to offset n, with one extended slice.
    From the top, X_0 + (X_1 + (X_2 + ...)/(1 - x^2))/(1 - x), in place on
    lists allocated once from the lowest offset lo: each t below the top
    costs one binomial division, only from the lowest entry written.  The
    terms are [(lo, re, 0)], with (lo, im, 1) if any u is odd; [] when no
    group has a term."""
    while groups and not groups[-1]:  # nothing to divide above the top group
        groups.pop()
    if not groups:
        return []
    lo = min(o for g in groups for o, _, _ in g)
    re, im = [0] * (n + 1 - lo), None
    low = len(re)  # the running sum is 0 below re[low]
    for t in reversed(range(len(groups))):
        for o, content, u in groups[t]:
            o -= lo
            if o < low:
                low = o
            if u % 2:
                if im is None:
                    im = [0] * len(re)
                out = im
            else:
                out = re
            # the slice stops at the list's end, and map at the shorter operand
            at = slice(o, o + stride * len(content), stride)
            out[at] = map(sub if u > 1 else add, out[at], content)
        if t:
            _unit_div(re, t * step, 1, low)
            if im is not None:
                _unit_div(im, t * step, 1, low)
    return [(lo, re, 0)] if im is None else [(lo, re, 0), (lo, im, 1)]


# -- Pochhammer builders ----------------------------------------------------


def _check_base(b: Monomial) -> None:
    """The base rule of every builder that takes a Pochhammer base: every
    base of the paper's objects is a positive power of q, of unit 1."""
    if b.exp <= 0 or b.unit != ONE:
        raise ValueError("Pochhammer base must be a positive power of q with unit 1")


def poch_finite(x: Monomial, b: Monomial, n: int, order) -> QSeries:
    """(x; b)_n = prod_{k=0}^{n-1} (1 - x*b**k), exact through `order`;
    past 3K factors, its first K factors and then Euler tails (`_factors`)."""
    if n < 0:
        raise ValueError("finite Pochhammer length must be nonnegative")
    _check_base(b)
    return _poch(order, [(x, b, n, 1)])


def poch_infinite(x: Monomial, b: Monomial, order) -> QSeries:
    """(x; b)_inf truncated at `order`; requires x of positive q-order.

    With n the scaled order and b = q**(m/den), its first K =
    max(1, isqrt(n // m)) factors are binomial steps and the rest,
    (y; b)_inf for y = x*b**K, is Euler's sum
    sum_l (-1)**l b**(l(l-1)/2) y**l/(b; b)_l (`_poch`, `_tail`)."""
    _check_base(b)
    if x.exp <= 0:
        raise DivergentProduct("(x;b)_inf needs x of positive q-order, got %s" % x.exp)
    return _poch(order, [(x, b, None, 1)])


def _factors(order, factors: list):
    """(den, n, steps) for the factors of `_poch`: the grid that holds the
    order and every x and b, the scaled order, and the steps in declared
    order.  A step (e, unit, power, None) is the binomial factor
    1 - unit*q**(e/den) with e <= n; a step (e, unit, power, m) is the tail
    (y; b)_inf**power, y = unit*q**(e/den) and b = q**(m/den), applied by
    Euler's sums (`_tail`).

    A family (x; b)_inf or (x; b)_N, N > 3K, with b = q**(m/den), m > 0,
    keeps its first K = max(1, isqrt(n // m)) factors as binomial steps,
    and the rest, from y = x*b**K on, is one tail step; a finite one adds
    the tail from x*b**N at the opposite power when x*b**N lies within n.
    A family whose (K+1)-th factor lies past n and a shorter finite family
    are all binomial steps.  Every base has unit 1 (`_check_base`), so each
    step of a family has x's unit.

    A factor at a negative exponent raises NegativeExponent; a divisor at
    exponent 0 raises NonUnitConstantTerm, since 1 - unit is never a unit
    of Z[i].  Either is raised at the first such factor in declared order,
    before any factor is applied."""
    den = _grid(order, *(m.exp for x, b, _, _ in factors for m in (x, b)))
    n = _as_order(order, den)
    steps = []
    for x, b, count, power in factors:
        e, step, unit = int(x.exp * den), int(b.exp * den), x.unit
        head = None
        if step > 0:
            head = max(1, isqrt(n // step))
            if count is not None and count <= 3 * head:
                head = None
        k = 0
        while count is None or k < count:
            if e < 0:
                raise NegativeExponent(str(Fraction(e, den)))
            if e > n:
                break
            if k == head:
                steps.append((e, unit, power, step))
                # a finite family: (x; b)_N = (x; b)_inf / (x*b**N; b)_inf
                end = n + 1 if count is None else e + (count - k) * step
                if end <= n:
                    steps.append((end, unit, -power, step))
                break
            if power != 1 and not e:
                raise NonUnitConstantTerm("constant term %s is not a unit of Z[i]" % (ONE - unit,))
            steps.append((e, unit, power, None))
            k += 1
            e += step
    return den, n, steps


def _tail(re: list, im: Optional[list], e: int, unit, power: int, m: int) -> None:
    """(re + i*im) times (y; b)_inf**power in place, for y = unit*q**e and
    b = q**m with e, m > 0, by Euler's two sums:

        1/(y; b)_inf = sum_{l >= 0} y**l / (b; b)_l
        (y; b)_inf = sum_{l >= 0} (-1)**l b**(l(l-1)/2) y**l / (b; b)_l

    With G = re + i*im and n = len(re), term l of the sum times G is
    c_l*q**d_l * G / (b; b)_l: c_l*q**d_l is y**l, times (-1)**l b**(l(l-1)/2)
    for the numerator.  The terms run while d_l < n: floor((n - 1)/e) of
    them for the inverse, those with l*e + m*l(l-1)/2 < n for the numerator.
    One `_fold` sums them by Horner's rule, level l dividing by
    1 - q**(l*m) from d_l, and its lists replace re and im.  Each level adds
    G cut after its last nonzero entry, so a tail that acts on 1 (as the
    first step of a product side often does) adds one entry per level, not n."""
    n = len(re)
    end = n
    if not (re[-1] or im is not None and im[-1]):
        end = max(compress(range(1, n + 1), re if im is None else map(or_, re, im)), default=0)
    gr, gi = re[:end], None if im is None else im[:end]
    k = UNITS.index(unit)  # unit = i**k
    groups, d, l = [], 0, 0
    while d < n:
        u = (k + 2 * (power > 0)) * l % 4  # c_l = i**u
        groups.append([(d, gr, u)] if gi is None else [(d, gr, u), (d, gi, (u + 1) % 4)])
        d += e + (m * l if power > 0 else 0)
        l += 1
    (_, out, _), *imag = _fold(groups, m, 1, n - 1)
    re[:] = out
    if im is not None:
        im[:] = imag[0][1]


def _poch(order, factors: list) -> QSeries:
    """The product of (x; b)_n**power over each (x, b, n, power) in `factors`
    (power +-1, n None for (x; b)_inf), exact through `order`, on the grid
    that holds the order and every x and b.

    The factors are expanded and checked in declared order (`_factors`),
    then applied in place to one pair of int lists, which start as 1, from
    the largest exponent down: the one in-place walk, one `_unit_mul` or
    `_divide` per binomial factor.  A numerator at exponent 0, the scalar
    1 - unit (`_unit_mul` at k = 0), comes last.  The
    tail (y; b)_inf of a long family, from its (K+1)-th factor y on, and a
    finite family's (x*b**N; b)_inf, are one step each at y's exponent:
    Euler's sum in y folded by Horner's rule (`_tail`), about sqrt(n/m)
    divisions in place of n/m binomial steps.  For rogers_mod5_1_4 at 2000
    that is 78 divisions over 117,128 entries, where one step per factor
    took 800 over 798,800."""
    den, n, steps = _factors(order, factors)
    re = [1] + [0] * n
    im = [0] * (n + 1) if any(unit[1] for _, unit, _, _ in steps) else None
    for e, unit, power, m in sorted(steps, key=itemgetter(0), reverse=True):
        if m is not None:
            _tail(re, im, e, unit, power, m)
        elif power == 1:
            _unit_mul(re, im, e, unit)
        else:
            _divide(re, im, e, unit)
    return QSeries._of(den, n, 0, re, im)


def _chain(first: list, ends: list, n: Optional[int] = None) -> list:
    """The chain of int lists in x whose entry 0 is `first` and whose entry
    m is entry m - 1 cut, or padded with zeros, to ends[m - 1] entries, then,
    for an n, multiplied in place by 1 - x**(n - m + 1) (`_unit_mul`), then
    divided in place by 1 - x**m (`_divide`), unless m is past the entry's
    last index, where the factor changes nothing.  Every entry after the
    first is a new list.  With first [1], entry m is 1/(x; x)_m, or for an n
    the Gaussian binomial [n m] in x; with first the list of (x; x)_inf, it
    is (x; x)_inf/(x; x)_m."""
    chain = [first]
    for m, end in enumerate(ends, 1):
        x = chain[-1][:end]
        x += [0] * (end - len(x))
        if n is not None:
            _unit_mul(x, None, n - m + 1, ONE)
        if m < end:
            _divide(x, None, m, ONE)
        chain.append(x)
    return chain
