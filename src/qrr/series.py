"""Truncated formal power series in q**(1/D) with exact Gaussian-integer
coefficients.

A QSeries stores a sparse map from scaled exponents e (meaning q**(e/den)) to
nonzero coefficients, together with an inclusive truncation bound `order` in
the same scaled units: every coefficient at e <= order is exactly the
mathematical value.  Negative q-exponents are a hard error; nothing in this
engine is Laurent in q (the auxiliary variable z is handled separately).

Binary operations unify denominators through the lcm and truncate to the
smaller order.  Multiplication routes dense operands through the
Kronecker-substitution convolution kernel (qrr._kernel_py) and keeps genuinely
sparse operands on a direct product loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional

from . import _kernel_py
from .errors import DivergentProduct, NegativeExponent, NonUnitConstantTerm
from .gaussian import ONE, UNITS, ZERO, GaussianInt, is_unit, unit_pow

# below this many stored terms on either side, multiplication skips the dense
# kernel and uses the direct sparse product
_SPARSE_CUTOFF = 12


@dataclass(frozen=True)
class Monomial:
    """A unit of Z[i] times a rational power of q, e.g. -q**2 or i*q**(3/4)."""

    unit: GaussianInt = ONE
    exp: Fraction = Fraction(0)

    def __post_init__(self):
        if not is_unit(self.unit):
            raise ValueError("monomial unit must be one of +-1, +-i")
        object.__setattr__(self, "exp", Fraction(self.exp))

    def pow(self, k: int) -> "Monomial":
        return Monomial(unit_pow(self.unit, k), self.exp * k)

    def __str__(self):
        u = {(1, 0): "", (-1, 0): "-", (0, 1): "i*", (0, -1): "-i*"}[self.unit]
        return "%sq^%s" % (u, self.exp)


def qmono(exp, unit: GaussianInt = ONE) -> Monomial:
    return Monomial(unit, Fraction(exp))


Q = qmono(1)


def _as_order(order, den: int) -> int:
    """Scaled inclusive truncation bound for a q-unit order."""
    o = Fraction(order)
    if o < 0:
        raise ValueError("truncation order must be nonnegative")
    scaled = o * den
    return int(scaled) if scaled.denominator == 1 else int(scaled.numerator // scaled.denominator)


class QSeries:
    __slots__ = ("den", "order", "coeffs")

    def __init__(self, den: int, order: int, coeffs: dict, _canonical: bool = False):
        if den <= 0:
            raise ValueError("denominator must be positive")
        if order < 0:
            raise ValueError("scaled order must be nonnegative")
        if not _canonical:
            clean = {}
            for e, c in coeffs.items():
                if not isinstance(c, GaussianInt):
                    c = GaussianInt(*c)
                if c.is_zero() or e > order:
                    continue
                if e < 0:
                    raise NegativeExponent("exponent %s/%s" % (e, den))
                clean[e] = c
            coeffs = clean
        self.den = den
        self.order = order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, den: int = 1) -> "QSeries":
        return cls(den, _as_order(order, den), {}, _canonical=True)

    @classmethod
    def one(cls, order, den: int = 1) -> "QSeries":
        return cls(den, _as_order(order, den), {0: ONE}, _canonical=True)

    @classmethod
    def term(cls, coeff: GaussianInt, exp, order, den: Optional[int] = None) -> "QSeries":
        exp = Fraction(exp)
        if exp < 0:
            raise NegativeExponent(str(exp))
        d = lcm(den or 1, exp.denominator)
        return cls(d, _as_order(order, d), {int(exp * d): coeff})

    # -- basic views -------------------------------------------------------

    @property
    def order_q(self) -> Fraction:
        return Fraction(self.order, self.den)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self.coeffs.values())

    def terms(self) -> Iterator[tuple]:
        """Sorted (exponent: Fraction, coefficient) pairs."""
        for e in sorted(self.coeffs):
            yield Fraction(e, self.den), self.coeffs[e]

    def coeff(self, exp) -> GaussianInt:
        exp = Fraction(exp)
        if exp > self.order_q:
            raise ValueError("exponent %s beyond truncation order %s" % (exp, self.order_q))
        scaled = exp * self.den
        if scaled.denominator != 1:
            return ZERO
        return self.coeffs.get(int(scaled), ZERO)

    def valuation(self) -> Optional[Fraction]:
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.den)

    def fractional_support(self) -> list:
        """Exponents with nonzero coefficient that are not integers."""
        return sorted(
            Fraction(e, self.den) for e in self.coeffs if e % self.den != 0
        )

    def imaginary_support(self) -> list:
        return sorted(
            Fraction(e, self.den) for e, c in self.coeffs.items() if c.im != 0
        )

    # -- denominator plumbing ----------------------------------------------

    def rescale(self, den: int) -> "QSeries":
        """Represent with a denominator that is a multiple of the current one."""
        if den == self.den:
            return self
        if den % self.den:
            raise ValueError("new denominator must be a multiple")
        f = den // self.den
        return QSeries(
            den, self.order * f, {e * f: c for e, c in self.coeffs.items()}, _canonical=True
        )

    def reduce(self) -> "QSeries":
        """Shrink the denominator by the gcd of the support (display helper)."""
        g = self.den
        for e in self.coeffs:
            g = gcd(g, e)
            if g == 1:
                return self
        if g == 1 or g == 0:
            return self
        return QSeries(
            self.den // g,
            self.order // g,
            {e // g: c for e, c in self.coeffs.items()},
            _canonical=True,
        )

    @staticmethod
    def _unify(a: "QSeries", b: "QSeries"):
        den = lcm(a.den, b.den)
        a = a.rescale(den)
        b = b.rescale(den)
        order = min(a.order, b.order)
        return den, order, a.coeffs, b.coeffs

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        den, order, ca, cb = self._unify(self, other)
        out = dict(ca)
        for e, c in cb.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return QSeries(den, order, {e: c for e, c in out.items() if e <= order}, _canonical=True)

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, self.order, {e: -c for e, c in self.coeffs.items()}, _canonical=True)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c: GaussianInt) -> "QSeries":
        if not isinstance(c, GaussianInt):
            c = GaussianInt(*c)
        if c.is_zero():
            return QSeries(self.den, self.order, {}, _canonical=True)
        return QSeries(
            self.den, self.order, {e: v * c for e, v in self.coeffs.items()}, _canonical=True
        )

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
        out = {}
        for e, c in s.coeffs.items():
            t = e + k
            if t < 0:
                raise NegativeExponent("q^%s after shift by %s" % (Fraction(e, den), exp))
            out[t] = c
        return QSeries(den, order, out, _canonical=True)

    def truncate(self, order) -> "QSeries":
        """Lower the truncation order (q-units)."""
        n = _as_order(order, self.den)
        if n > self.order:
            raise ValueError("cannot raise the truncation order")
        return QSeries(self.den, n, {e: c for e, c in self.coeffs.items() if e <= n}, _canonical=True)

    def mul(self, other: "QSeries", bound=None) -> "QSeries":
        """Product, exact through min(orders) or the tighter q-unit `bound`."""
        den, order, ca, cb = self._unify(self, other)
        if bound is not None:
            order = min(order, _as_order(bound, den))
        return QSeries(den, order, _mul_coeffs(ca, cb, order), _canonical=True)

    def __mul__(self, other: "QSeries") -> "QSeries":
        return self.mul(other)

    def invert_unit(self) -> "QSeries":
        """Multiplicative inverse through the truncation order.

        The constant term must be a unit of Z[i].
        """
        c0 = self.coeffs.get(0)
        if c0 is None or not is_unit(c0):
            raise NonUnitConstantTerm(
                "constant term %s is not a unit of Z[i]" % (c0 if c0 else "0",)
            )
        n_max = self.order
        ar = [0] * (n_max + 1)
        ai = [0] * (n_max + 1)
        for e, c in self.coeffs.items():
            ar[e] = c.re
            ai[e] = c.im
        support = sorted(e for e in self.coeffs if e > 0)
        ur, ui = c0.conj()  # inverse of a unit is its conjugate
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
        out = {
            e: GaussianInt(br[e], bi[e])
            for e in range(n_max + 1)
            if br[e] or bi[e]
        }
        return QSeries(self.den, n_max, out, _canonical=True)

    def substitute_power(self, r) -> "QSeries":
        """q -> q**r for a positive rational r (exponent dilation)."""
        r = Fraction(r)
        if r <= 0:
            raise ValueError("substitution power must be positive")
        den = self.den * r.denominator
        return QSeries(
            den,
            self.order * r.numerator,
            {e * r.numerator: c for e, c in self.coeffs.items()},
            _canonical=True,
        )

    # -- comparison --------------------------------------------------------

    def same_through(self, other: "QSeries", order=None) -> bool:
        return self.first_difference(other, order) is None

    def first_difference(self, other: "QSeries", order=None) -> Optional[Fraction]:
        """Smallest exponent where the two series differ, through min(orders)."""
        den, n, ca, cb = self._unify(self, other)
        if order is not None:
            n = min(n, _as_order(order, den))
        diffs = [
            e
            for e in set(ca) | set(cb)
            if e <= n and ca.get(e, ZERO) != cb.get(e, ZERO)
        ]
        return Fraction(min(diffs), den) if diffs else None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.order_q != other.order_q:
            return False
        _, _, ca, cb = self._unify(self, other)
        return ca == cb

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
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
            "terms": [[e, self.coeffs[e].re, self.coeffs[e].im] for e in sorted(self.coeffs)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QSeries":
        return cls(
            obj["den"],
            obj["order"],
            {e: GaussianInt(re, im) for e, re, im in obj["terms"]},
        )


def _mul_coeffs(ca: dict, cb: dict, n_max: int) -> dict:
    """Truncated Cauchy product of two canonical coefficient maps."""
    if not ca or not cb:
        return {}
    if len(ca) > len(cb):
        ca, cb = cb, ca
    if len(ca) <= _SPARSE_CUTOFF:
        out = {}
        for e1, c1 in ca.items():
            if e1 > n_max:
                continue
            for e2, c2 in cb.items():
                e = e1 + e2
                if e > n_max:
                    continue
                p = c1 * c2
                s = out.get(e)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return out

    va = min(ca)
    vb = min(cb)
    if va + vb > n_max:
        return {}
    nout = n_max - va - vb + 1
    # each operand only up to its own top term: the kernel takes inputs shorter than nout
    ar, ai, a_real = _densify(ca, va, min(max(ca), va + nout - 1))
    br, bi, b_real = _densify(cb, vb, min(max(cb), vb + nout - 1))
    if a_real and b_real:
        cr = _kernel_py.conv_real(ar, br, nout)
        ci = None
    elif a_real:
        cr = _kernel_py.conv_real(ar, br, nout)
        ci = _kernel_py.conv_real(ar, bi, nout)
    elif b_real:
        cr = _kernel_py.conv_real(br, ar, nout)
        ci = _kernel_py.conv_real(br, ai, nout)
    else:
        cr, ci = _kernel_py.conv_complex(ar, ai, br, bi, nout)
    base = va + vb
    if ci is None:
        return {base + k: GaussianInt(cr[k], 0) for k in range(nout) if cr[k]}
    return {
        base + k: GaussianInt(cr[k], ci[k])
        for k in range(nout)
        if cr[k] or ci[k]
    }


def _densify(coeffs: dict, lo: int, hi: int):
    re = [0] * (hi - lo + 1)
    im = [0] * (hi - lo + 1)
    real = True
    for e, c in coeffs.items():
        if lo <= e <= hi:
            re[e - lo] = c.re
            im[e - lo] = c.im
            if c.im:
                real = False
    return re, im, real


# -- binomial-factor helpers (O(order) each) --------------------------------


def mul_binomial(s: QSeries, unit: GaussianInt, exp) -> QSeries:
    """s * (1 - unit*q**exp) without a full convolution."""
    exp = Fraction(exp)
    if exp < 0:
        raise NegativeExponent(str(exp))
    den = lcm(s.den, exp.denominator)
    s = s.rescale(den)
    k = int(exp * den)
    out = dict(s.coeffs)
    for e, c in s.coeffs.items():
        t = e + k
        if t > s.order:
            continue
        v = out.get(t, ZERO) - c * unit
        if v.is_zero():
            out.pop(t, None)
        else:
            out[t] = v
    return QSeries(den, s.order, out, _canonical=True)


def div_binomial(s: QSeries, unit: GaussianInt, exp) -> QSeries:
    """s / (1 - unit*q**exp) via the forward recurrence (exp > 0)."""
    exp = Fraction(exp)
    if exp <= 0:
        raise DivergentProduct("binomial divisor needs positive q-order, got %s" % exp)
    den = lcm(s.den, exp.denominator)
    s = s.rescale(den)
    k = int(exp * den)
    if k > s.order:
        return s
    n_max = s.order
    cr = [0] * (n_max + 1)
    ci = [0] * (n_max + 1)
    for e, c in s.coeffs.items():
        cr[e] = c.re
        ci[e] = c.im
    ur, ui = unit
    for e in range(k, n_max + 1):
        xr, xi = cr[e - k], ci[e - k]
        if xr or xi:
            cr[e] += ur * xr - ui * xi
            ci[e] += ur * xi + ui * xr
    out = {e: GaussianInt(cr[e], ci[e]) for e in range(n_max + 1) if cr[e] or ci[e]}
    return QSeries(den, n_max, out, _canonical=True)


# -- Pochhammer builders ----------------------------------------------------


def _poch_den(x: Monomial, b: Monomial, order, den: Optional[int]) -> int:
    return lcm(den or 1, x.exp.denominator, b.exp.denominator, Fraction(order).denominator)


def poch_finite(x: Monomial, b: Monomial, n: int, order, den: Optional[int] = None) -> QSeries:
    """(x; b)_n = prod_{k=0}^{n-1} (1 - x*b**k), exact through `order`."""
    if n < 0:
        raise ValueError("finite Pochhammer length must be nonnegative")
    if b.exp <= 0 or b.unit != ONE:
        raise ValueError("Pochhammer base must be a positive power of q with unit 1")
    d = _poch_den(x, b, order, den)
    out = QSeries.one(order, d)
    for k in range(n):
        e = x.exp + k * b.exp
        if e < 0:
            raise NegativeExponent(str(e))
        if e > out.order_q:
            continue  # factor is 1 + O(beyond truncation)
        out = mul_binomial(out, x.unit, e)
    return out


def poch_infinite(x: Monomial, b: Monomial, order, den: Optional[int] = None) -> QSeries:
    """(x; b)_inf truncated at `order`; requires x of positive q-order."""
    if b.exp <= 0 or b.unit != ONE:
        raise ValueError("Pochhammer base must be a positive power of q with unit 1")
    if x.exp <= 0:
        raise DivergentProduct("(x;b)_inf needs x of positive q-order, got %s" % x.exp)
    d = _poch_den(x, b, order, den)
    out = QSeries.one(order, d)
    k = 0
    while True:
        e = x.exp + k * b.exp
        if e > out.order_q:
            break
        out = mul_binomial(out, x.unit, e)
        k += 1
    return out


def inv_poch_table(b: Monomial, n_max: int, order, den: Optional[int] = None) -> list:
    """[1/(b;b)_n for n = 0..n_max], built incrementally, exact through `order`."""
    if b.exp <= 0 or b.unit != ONE:
        raise ValueError("Pochhammer base must be a positive power of q with unit 1")
    d = _poch_den(b, b, order, den)
    out = [QSeries.one(order, d)]
    for n in range(1, n_max + 1):
        e = n * b.exp
        if e > out[-1].order_q:
            out.append(out[-1])  # the new factor is invisible through order
        else:
            out.append(div_binomial(out[-1], ONE, e))
    return out
