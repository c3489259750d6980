"""Finite windows of power series in an auxiliary variable z.

The carrier for the constant-term method and for Rogers-Szego polynomials
(where z plays the role of t).  A ZSeries is

    sum_{k in [zmin, zmax]} coeff[k] * z**k

with every coefficient a power series in q on one exponent denominator and
at one truncation order.  No constructor or builder takes a grid: each works
out the coarsest one that holds its exponents and its order (series._grid),
and products and sums lift their operands to the lcm grid.  Coefficients are
never Laurent in q: every q-exponent is >= 0, and theta_z raises
NegativeExponent for a term below 0 (a factor such as q**(-1/4) * theta is
carried as theta reindexed; see replay 1.8).

The contour integral of the source material is replaced by exact coefficient
extraction: ct() is literally the z**0 slice, and a.ct_mul(b) is ct(a * b)
formed from the pairs of slices that meet at z**0 alone.

Builders.  theta_z and the Euler windows (euler_z_inverse, euler_z_product)
make every slice as int lists on the window's final grid and order, and
build the window with one `ZSeries._fitted`: no Fraction per slice, and no
slice normalized more than once.  A theta slice is one unit at an integer
exponent.  The 1/(b;b)_n of an Euler window are one chain (series._chain)
in x = q**b.exp on the integers, entry n cut to the powers of x that reach
the order from its exponent before it is divided; slice n is entry n times
its unit (a negation of the lists or a swap of re and im), spread at
b.exp's stride and laid at its exponent.

Slices are fitted to a window's grid and order (`_fit`) only where they may
be off it: in the constructor, in a sum, and for the operands of a product.
Every other window is built from slices already on its grid and order, and
`ZSeries._fitted` only drops the zero ones.

Products.  Both operands' slices are fitted to one grid and order.  Every
product, one-term slices included, takes the one packed path: series._rows
drops the zero slices and walks the pairs of the others once, in a full
product only those whose valuations sum to at most the order.  It keys each
slice's lists by content up to a unit of Z[i] as it first meets them, so
slices that are unit multiples of one another (i**n*S_n and (-i)**n*S_n in
E(iz) and E(-iz), or one slice on both sides) are one key, and adds each
pair's product of units into the weight of its term (key pair, shift) in
its output slice.  The kernel (qrr._kernel_py.conv_terms) gets one row of
weighted terms per output slice: each key is packed into one int on the
common stride of all slices, each output slice is the sum of its terms'
bignum products, each operand masked to the digits its term can reach
under the order and shifted by the term's valuation, and it is unpacked
once, on the product's grid and order, and enters the window as it is.  A
term whose units cancel is not formed.  So z_plus * z_minus in replays 1.5,
1.6 and 1.8 plans and forms none of its odd slices, which are zero, and
each product of its even slices once, and each even slice, whose weights
are real, unpacks one int.  Output slices made of the same products with
the same units are planned and formed once and share one series: the rows
z**k and z**-k of E(z)*E(1/z) cost one.  A z-binomial such as (z + c) is
never an operand: it is a z-shift plus a scaled copy.
Two z-window products stay outside this path.  One is the Horner nest of
qrr.special (`_nest`), which serves rogers_szego_bw and rs_at alike: it
builds no ZSeries, and keeps its slices packed (qrr._kernel_py._pack) from
start to end.  The other is jtp_check's left side E(c*z)*E(c/z)*(b;b)_inf
(`_triple_product`): its slice z**k, k >= 0, is one Horner fold
(qrr.series._fold) whose levels add entries of one chain (b;b)_inf/(b;b)_m,
and its slice z**-k is the same object.  Packing a whole window into one
int (two-level Kronecker substitution) was measured and rejected: CPython
multiplies multi-megabit ints by Karatsuba, so it ran several times slower.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Dict, Optional

from .errors import DivergentEmbedding, NegativeExponent
from .gaussian import UNITS, GaussianInt, binom2, is_unit, unit_pow
from .quadform import _interval
from .series import (
    Monomial, QSeries, _as_order, _chain, _check_base, _fold, _grid, _rows, _spread, _times, poch_infinite, qmono
)


def _fit(s: QSeries, den: int, order: int) -> QSeries:
    """s on grid `den` (a multiple of s.den), truncated to scaled `order`,
    which s's own order on that grid may not undercut."""
    s = s.rescale(den)
    return s if s.order == order else QSeries._of(den, order, s.val, s.re, s.im)


def _fit_slices(coeff: Dict[int, QSeries], den: int, order: int) -> Dict[int, QSeries]:
    """The slices on grid `den` at scaled `order`, without those that fit to zero."""
    return {k: t for k, s in coeff.items() if not (t := _fit(s, den, order)).is_zero()}


def _min_order(a, b):
    """(den, order): the lcm grid of a and b and the lower of their orders on it."""
    den = lcm(a.den, b.den)
    return den, min(a.order * (den // a.den), b.order * (den // b.den))


class ZSeries:
    __slots__ = ("den", "order", "coeff")

    def __init__(self, coeff: Dict[int, QSeries]):
        """Put the slices on one grid and truncate them to the lowest order
        among them.  A zero slice's order counts like any other's; zero slices
        are then dropped."""
        self.den = lcm(*(s.den for s in coeff.values()))
        self.order = min((s.order * (self.den // s.den) for s in coeff.values()), default=0)
        self.coeff = _fit_slices(coeff, self.den, self.order)

    @classmethod
    def _fitted(cls, coeff: Dict[int, QSeries], den: int, order: int) -> "ZSeries":
        """The window of slices already on grid `den` at scaled `order`,
        without the zero ones.  An empty window still carries (den, order)."""
        z = cls.__new__(cls)
        z.coeff = {k: s for k, s in coeff.items() if s.re}
        z.den = den
        z.order = order
        return z

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order) -> "ZSeries":
        den = _grid(order)
        return cls._fitted({}, den, _as_order(order, den))

    @classmethod
    def embed(cls, s: QSeries) -> "ZSeries":
        """A z-free object: the series sits at z**0."""
        return cls({0: s})

    # -- views -------------------------------------------------------------

    @property
    def window(self):
        if not self.coeff:
            return (0, 0)
        return (min(self.coeff), max(self.coeff))

    @property
    def order_q(self) -> Fraction:
        return Fraction(self.order, self.den)

    def is_zero(self) -> bool:
        return not self.coeff

    def slice(self, k: int) -> QSeries:
        """Coefficient of z**k."""
        s = self.coeff.get(k)
        return QSeries._of(self.den, self.order, 0, []) if s is None else s

    def ct(self) -> QSeries:
        """The constant term CT_z: the z**0 coefficient."""
        return self.slice(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        out = dict(self.coeff)
        for k, s in other.coeff.items():
            out[k] = out[k] + s if k in out else s
        den, order = _min_order(self, other)
        return ZSeries._fitted(_fit_slices(out, den, order), den, order)

    def __neg__(self) -> "ZSeries":
        return ZSeries._fitted({k: -s for k, s in self.coeff.items()}, self.den, self.order)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        return _product(self, other, None)

    def ct_mul(self, other: "ZSeries") -> QSeries:
        """ct(self * other), forming only the z**0 row of the product."""
        return _product(self, other, 0).ct()

    def scale_series(self, s: QSeries) -> "ZSeries":
        return ZSeries._fitted({k: c.mul(s) for k, c in self.coeff.items()}, *_min_order(self, s))

    def reflect(self) -> "ZSeries":
        """z -> 1/z."""
        return ZSeries._fitted({-k: s for k, s in self.coeff.items()}, self.den, self.order)

    def zstretch(self, j: int) -> "ZSeries":
        """z -> z**j for nonzero j (window dilation)."""
        if j == 0:
            raise ValueError("stretch factor must be nonzero")
        return ZSeries._fitted({k * j: s for k, s in self.coeff.items()}, self.den, self.order)

    def specialize(self, t: Monomial) -> QSeries:
        """Substitute z := t (a monomial in q) and sum the window."""
        acc = QSeries._of(self.den, self.order, 0, [])
        for k, s in self.coeff.items():
            acc = acc + s.scale(unit_pow(t.unit, k)).shift(k * t.exp)
        return acc

    # -- comparison --------------------------------------------------------

    def first_difference(self, other: "ZSeries", order=None):
        """Smallest (z-power, q-exponent) divergence, or None if equal."""
        lo = min(self.window[0], other.window[0])
        hi = max(self.window[1], other.window[1])
        best = None
        for k in range(lo, hi + 1):
            d = self.slice(k).first_difference(other.slice(k), order)
            if d is not None and (best is None or d < best[1]):
                best = (k, d)
        return best

    def same_through(self, other: "ZSeries", order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, ZSeries):
            return NotImplemented
        if self.order_q != other.order_q or set(self.coeff) != set(other.coeff):
            return False
        return all(s == other.coeff[k] for k, s in self.coeff.items())

    __hash__ = None

    def __str__(self):
        if not self.coeff:
            return "0"
        return " + ".join("(%s)*z^%d" % (s, k) for k, s in sorted(self.coeff.items()))

    __repr__ = __str__


def _product(x: ZSeries, y: ZSeries, row: Optional[int]) -> ZSeries:
    """x * y, or only its z**row slice, on the operands' lcm grid at the lower
    of their orders: the slices fitted there and handed to series._rows, the
    one packed path, which QSeries.mul also takes, and its rows, already on
    that grid and order, made the window.  No slice pair is multiplied on
    its own, one-term slices (theta windows, i*z**-1) included."""
    den, order = _min_order(x, y)
    a, b = ({k: _fit(s, den, order) for k, s in z.coeff.items()} for z in (x, y))
    return ZSeries._fitted(_rows(a, b, den, order, row), den, order)


# -- builders ---------------------------------------------------------------


def theta_z(alpha, beta, chi: GaussianInt, s: int, order) -> "ZSeries":
    """Bilateral theta-type factor sum_k chi**k q**(alpha*binom(k,2)+beta*k) z**(s*k).

    Includes exactly those k whose q-exponent stays within `order`; the first
    omitted term on either side exceeds it (exponents are quadratic in k with
    positive leading coefficient alpha/2).  Every included exponent must be
    >= 0; a term below 0 raises NegativeExponent naming its k.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    order = Fraction(order)
    if alpha <= 0:
        raise ValueError("theta needs a positive quadratic coefficient")
    if s == 0:
        raise ValueError("theta z-power step must be nonzero")
    if not is_unit(chi):
        raise ValueError("theta sign must be a unit of Z[i]")
    # the exponent is alpha/2*k**2 + (beta - alpha/2)*k; times l it has
    # integer coefficients
    a, b = alpha / 2, beta - alpha / 2
    l = lcm(a.denominator, b.denominator, order.denominator)
    lo, hi = _interval(int(a * l), int(b * l), int(-order * l))
    d = _grid(order, alpha, beta)
    n = _as_order(order, d)
    ad, bd = int(alpha * d), int(beta * d)
    units = [unit_pow(chi, j) for j in range(4)]  # chi**4 == 1
    coeff: Dict[int, QSeries] = {}
    for k in range(lo, hi + 1):
        e = ad * binom2(k) + bd * k
        if e < 0:
            raise NegativeExponent("theta term k = %d has q-exponent %s < 0" % (k, Fraction(e, d)))
        ur, ui = units[k % 4]
        coeff[s * k] = QSeries._of(d, n, e, [ur], [ui] if ui else None)
    return ZSeries._fitted(coeff, d, n)


def _euler_grid(c: Monomial, b: Monomial, eps: int, order):
    """(den, top, ce, be, vals) of an Euler window: its grid, the one that
    holds the order and the exponents of b and of c (of b alone when c lies
    past the order and the window is 1), and on it the scaled order, the
    exponents of c and b and the v_n within the order (`_euler_z`)."""
    order = Fraction(order)
    if c.exp <= 0:
        raise DivergentEmbedding("embedding monomial needs positive q-order, got %s" % c.exp)
    if b.exp <= 0:
        raise DivergentEmbedding("Euler base needs positive q-order, got %s" % b.exp)
    _check_base(b)
    # c past the order leaves the window 1, on the grid of the order and b alone;
    # off its grid c.exp is rounded up, and so stays past the order
    den = _grid(order, b.exp) if c.exp > order else _grid(order, c.exp, b.exp)
    top, ce, be = int(order * den), ceil(c.exp * den), int(b.exp * den)
    vals = []
    while (v := len(vals) * ce + eps * binom2(len(vals)) * be) <= top:
        vals.append(v)
    return den, top, ce, be, vals


def _euler_z(c: Monomial, b: Monomial, eps: int, order) -> "ZSeries":
    """sum_n c**n b**(eps*binom(n,2)) z**n / (b;b)_n through `order`, eps in {0, 1}.

    Built on its final grid (`_euler_grid`); b must be a positive power of
    q (`series._check_base`).  The 1/(b;b)_n are one chain in x = q**b.exp
    on the integers (series._chain), entry n cut to the powers of x that
    reach the order from v_n, the exponent of c**n b**(eps*binom(n,2)),
    before it is divided: slice n is entry n times the unit c**n, spread at
    b.exp's stride on the grid and laid at v_n."""
    den, top, _, be, vals = _euler_grid(c, b, eps, order)
    chain = _chain([1], [(top - v) // be + 1 for v in vals[1:]])
    pc = UNITS.index(c.unit)
    coeff = {}
    for n, (v, x) in enumerate(zip(vals, chain)):
        re, im = _times(x, None, *UNITS[pc * n % 4])
        coeff[n] = QSeries._of(den, top, v, _spread(re, be), None if im is None else _spread(im, be))
    return ZSeries._fitted(coeff, den, top)


def euler_z_inverse(c: Monomial, b: Monomial, order) -> "ZSeries":
    """sum_n c**n z**n / (b;b)_n, the z-expansion of 1/(c*z; b)_inf."""
    return _euler_z(c, b, 0, order)


def euler_z_product(c: Monomial, b: Monomial, order) -> "ZSeries":
    """sum_n c**n b**binom(n,2) z**n / (b;b)_n, the z-expansion of (-c*z; b)_inf."""
    return _euler_z(c, b, 1, order)


def _triple_product(c: Monomial, b: Monomial, order) -> "ZSeries":
    """(-c*z; b)_inf (-c/z; b)_inf (b; b)_inf for b of unit 1, field for
    field E(c*z) * E(c/z) * (b;b)_inf, E = euler_z_product, with no product.

    With v_m the scaled exponent of c**m b**binom(m,2), slice k >= 0 is
    sum_n c**(2n+k) q**(v_n + v_(n+k)) R_(n+k) / (b;b)_n in x = q**b.exp,
    for the chain R_0 = (x;x)_inf, R_m = R_(m-1) / (1 - x**m) (series._chain),
    each entry cut to the powers of x that reach the order from v_m, the
    lowest exponent it is laid at.  Slice -k is slice k, the same object.
    Each is one `series._fold` over n on the slice's own stride, gcd(b, 2c)
    in steps of the grid of `_euler_grid`, then spread onto that grid: level
    n adds R_(n+k) and divides by 1 - x**n."""
    den, top, ce, be, vals = _euler_grid(c, b, 1, order)
    g = gcd(be, 2 * ce)
    r = poch_infinite(qmono(1), qmono(1), top // be).re
    chain = _chain(r, [(top - v) // be + 1 for v in vals[1:]])
    pc = UNITS.index(c.unit)
    coeff = {}
    for k, v in enumerate(vals):
        groups, n = [], 0
        while n + k < len(vals) and (e := vals[n] + vals[n + k]) <= top:
            groups.append([((e - v) // g, chain[n + k], pc * (2 * n + k) % 4)])
            n += 1
        (_, re, _), *imag = _fold(groups, be // g, be // g, (top - v) // g)
        im = _spread(imag[0][1], g) if imag else None
        coeff[k] = coeff[-k] = QSeries._of(den, top, v, _spread(re, g), im)
    return ZSeries._fitted(coeff, den, top)
