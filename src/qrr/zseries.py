"""Finite-support Laurent objects in an auxiliary variable z over QSeries.

The carrier for the constant-term method and for Rogers-Szego polynomials
(where z plays the role of t).  A ZSeries is

    q**qshift * sum_{k in [zmin, zmax]} coeff[k] * z**k

with every coefficient series sharing one exponent denominator and one
truncation order.  The global qshift absorbs the (bounded) negative minimal
q-exponent of bilateral theta factors so that coefficient series themselves
never go Laurent in q; it is zero everywhere else.

The contour integral of the source material is replaced by exact coefficient
extraction: ct() is literally the z**0 slice.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Optional

from .errors import DivergentEmbedding
from .gaussian import ONE, GaussianInt, binom2, is_unit, unit_pow
from .series import Monomial, QSeries, _as_order, inv_poch_table


def _fit(s: QSeries, den: int, order: int) -> QSeries:
    """s on grid `den` (a multiple of s.den), truncated to scaled `order`."""
    s = s.rescale(den)
    return s if s.order == order else s.truncate(Fraction(order, den))


def _min_order(a, b):
    """(den, order): the lcm grid of a and b and the lower of their orders on it."""
    den = lcm(a.den, b.den)
    return den, min(a.order * (den // a.den), b.order * (den // b.den))


class ZSeries:
    __slots__ = ("den", "order", "qshift", "coeff")

    def __init__(self, coeff: Dict[int, QSeries], qshift=Fraction(0)):
        """Put the slices on one grid and truncate them to the lowest order
        among them.  A zero slice's order counts like any other's; zero slices
        are then dropped."""
        qshift = Fraction(qshift)
        den = lcm(qshift.denominator, *(s.den for s in coeff.values()))
        order = min((s.order * (den // s.den) for s in coeff.values()), default=0)
        self.coeff = {k: t for k, s in coeff.items() if not (t := _fit(s, den, order)).is_zero()}
        self.qshift = qshift
        self.den = den
        self.order = order

    @classmethod
    def _of(cls, coeff: Dict[int, QSeries], qshift, den: int, order: int) -> "ZSeries":
        """Wrap nonzero slices that are already on grid `den` at `order`."""
        z = cls.__new__(cls)
        z.coeff, z.qshift, z.den, z.order = coeff, qshift, den, order
        return z

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, den: int = 1) -> "ZSeries":
        return cls._of({}, Fraction(0), den, _as_order(order, den))

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
        """Coefficient of z**k including the global q-shift."""
        s = self.coeff.get(k)
        if s is None:
            s = self._zero_slice()
        return s.shift(self.qshift) if self.qshift else s

    def _zero_slice(self) -> QSeries:
        return QSeries.zero(Fraction(self.order, self.den), self.den)

    def ct(self) -> QSeries:
        """The constant term CT_z: the z**0 coefficient."""
        return self.slice(0)

    # -- arithmetic --------------------------------------------------------

    def _with_shift(self, target) -> "ZSeries":
        """Rewrite with a smaller qshift by pushing the difference into the
        coefficient series (lossless in content, conservative in order)."""
        delta = self.qshift - Fraction(target)
        if delta == 0:
            return self
        if delta < 0:
            raise ValueError("can only lower the global q-shift")
        den = lcm(self.den, delta.denominator)
        order = self.order * (den // self.den) + int(delta * den)
        return ZSeries({k: s.shift(delta) for k, s in self.coeff.items()}, Fraction(target))._cap(den, order)

    @staticmethod
    def _align(a: "ZSeries", b: "ZSeries"):
        shift = min(a.qshift, b.qshift)
        return a._with_shift(shift), b._with_shift(shift)

    def _cap(self, den: int, order: int) -> "ZSeries":
        """This series exact through at most scaled `order` on grid `den`.

        An empty series has no slice to carry an order, so it takes the cap:
        callers pass the lowest order among the operands it was built from."""
        d = lcm(self.den, den)
        order *= d // den
        if not self.coeff:
            return ZSeries._of({}, self.qshift, d, order)
        if self.order * (d // self.den) <= order:
            return self
        return ZSeries({k: _fit(s, d, order) for k, s in self.coeff.items()}, self.qshift)

    def __add__(self, other: "ZSeries") -> "ZSeries":
        a, b = self._align(self, other)
        out = dict(a.coeff)
        for k, s in b.coeff.items():
            out[k] = out[k] + s if k in out else s
        return ZSeries(out, a.qshift)._cap(*_min_order(a, b))

    def __neg__(self) -> "ZSeries":
        return ZSeries._of({k: -s for k, s in self.coeff.items()}, self.qshift, self.den, self.order)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __mul__(self, other: "ZSeries") -> "ZSeries":
        out: Dict[int, QSeries] = {}
        for i, si in self.coeff.items():
            for j, sj in other.coeff.items():
                p = si.mul(sj)
                k = i + j
                out[k] = out[k] + p if k in out else p
        return ZSeries(out, self.qshift + other.qshift)._cap(*_min_order(self, other))

    def scale_series(self, s: QSeries) -> "ZSeries":
        return ZSeries({k: c.mul(s) for k, c in self.coeff.items()}, self.qshift)._cap(*_min_order(self, s))

    def zshift(self, j: int) -> "ZSeries":
        return ZSeries._of({k + j: s for k, s in self.coeff.items()}, self.qshift, self.den, self.order)

    def reflect(self) -> "ZSeries":
        """z -> 1/z."""
        return ZSeries._of({-k: s for k, s in self.coeff.items()}, self.qshift, self.den, self.order)

    def zstretch(self, j: int) -> "ZSeries":
        """z -> z**j for nonzero j (window dilation)."""
        if j == 0:
            raise ValueError("stretch factor must be nonzero")
        return ZSeries._of({k * j: s for k, s in self.coeff.items()}, self.qshift, self.den, self.order)

    def specialize(self, t: Monomial) -> QSeries:
        """Substitute z := t (a monomial in q) and sum the window."""
        acc = self._zero_slice()
        for k, s in self.coeff.items():
            acc = acc + s.scale(unit_pow(t.unit, k)).shift(k * t.exp)
        return acc.shift(self.qshift) if self.qshift else acc

    # -- comparison --------------------------------------------------------

    def first_difference(self, other: "ZSeries", order=None):
        """Smallest (z-power, q-exponent) divergence, or None if equal."""
        a, b = self._align(self, other)
        lo = min(a.window[0], b.window[0])
        hi = max(a.window[1], b.window[1])
        best = None
        for k in range(lo, hi + 1):
            d = a.slice(k).first_difference(b.slice(k), order)
            if d is not None and (best is None or d < best[1]):
                best = (k, d)
        return best

    def same_through(self, other: "ZSeries", order=None) -> bool:
        return self.first_difference(other, order) is None

    def __eq__(self, other):
        if not isinstance(other, ZSeries):
            return NotImplemented
        a, b = self._align(self, other)
        if a.order_q != b.order_q or set(a.coeff) != set(b.coeff):
            return False
        return all(a.coeff[k] == b.coeff[k] for k in a.coeff)

    __hash__ = None

    def __str__(self):
        if not self.coeff:
            return "0"
        parts = ["(%s)*z^%d" % (s, k) for k, s in sorted(self.coeff.items())]
        pre = "q^%s * " % self.qshift if self.qshift else ""
        return pre + " + ".join(parts)

    __repr__ = __str__


# -- builders ---------------------------------------------------------------


def theta_z(alpha, beta, chi: GaussianInt, s: int, order, den: Optional[int] = None) -> "ZSeries":
    """Bilateral theta-type factor sum_k chi**k q**(alpha*binom(k,2)+beta*k) z**(s*k).

    Includes exactly those k whose q-exponent stays within `order`; the first
    omitted term on either side exceeds it (exponents are quadratic in k with
    positive leading coefficient alpha/2).
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

    def f(k):
        return alpha * binom2(k) + beta * k

    vertex = Fraction(1, 2) - beta / alpha  # argmin of the continuous exponent
    ks = []
    k = 0
    while f(k) <= order or k < vertex:
        if f(k) <= order:
            ks.append(k)
        k += 1
    k = -1
    while f(k) <= order or k > vertex:
        if f(k) <= order:
            ks.append(k)
        k -= 1
    qshift = min(Fraction(0), min((f(k) for k in ks), default=Fraction(0)))
    d = lcm(den or 1, alpha.denominator, beta.denominator, order.denominator)
    rel_order = _as_order(order - qshift, d)
    coeff: Dict[int, QSeries] = {}
    for k in ks:
        e = f(k) - qshift
        coeff[s * k] = QSeries(d, rel_order, {int(e * d): unit_pow(chi, k)})
    z = ZSeries(coeff, qshift)
    if not z.coeff:
        z.den, z.order = d, rel_order
    return z


def euler_z_inverse(c: Monomial, b: Monomial, order, den: Optional[int] = None) -> "ZSeries":
    """sum_n c**n z**n / (b;b)_n, the z-expansion of 1/(c*z; b)_inf."""
    order = Fraction(order)
    if c.exp <= 0:
        raise DivergentEmbedding("embedding monomial needs positive q-order, got %s" % c.exp)
    n_max = int(order / c.exp)
    d = lcm(den or 1, c.exp.denominator, b.exp.denominator, order.denominator)
    table = inv_poch_table(b, n_max, order, d)
    coeff = {
        n: table[n].shift(n * c.exp).scale(unit_pow(c.unit, n))
        for n in range(n_max + 1)
    }
    return ZSeries(coeff)


def euler_z_product(c: Monomial, b: Monomial, order, den: Optional[int] = None) -> "ZSeries":
    """sum_n c**n b**binom(n,2) z**n / (b;b)_n, the z-expansion of (-c*z; b)_inf."""
    order = Fraction(order)
    if c.exp <= 0:
        raise DivergentEmbedding("embedding monomial needs positive q-order, got %s" % c.exp)
    vals = []
    n = 0
    while True:
        v = n * c.exp + binom2(n) * b.exp
        if v > order:
            break
        vals.append(v)
        n += 1
    d = lcm(den or 1, c.exp.denominator, b.exp.denominator, order.denominator)
    table = inv_poch_table(b, len(vals) - 1, order, d)
    coeff = {
        n: table[n].shift(v).scale(unit_pow(c.unit, n)) for n, v in enumerate(vals)
    }
    return ZSeries(coeff)
