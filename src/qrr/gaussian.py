"""Exact Gaussian-integer arithmetic, the coefficient ring for everything.

Coefficients live in Z[i] because the double-sum rewrites route through powers
of the imaginary unit; final results are asserted real instead of restricting
the ring.
"""

from __future__ import annotations

from typing import NamedTuple


class GaussianInt(NamedTuple):
    re: int
    im: int

    def __add__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re + other, self.im)
        return GaussianInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re - other, self.im)
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        # int - GaussianInt
        return GaussianInt(other - self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other):
        # int * GaussianInt
        return GaussianInt(self.re * other, self.im * other)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%d*i" % self.im
        return "(%d%+d*i)" % (self.re, self.im)


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
MINUS_ONE = GaussianInt(-1, 0)
I = GaussianInt(0, 1)
MINUS_I = GaussianInt(0, -1)

UNITS = (ONE, I, MINUS_ONE, MINUS_I)  # i^0, i^1, i^2, i^3


def is_unit(g: GaussianInt) -> bool:
    return g in UNITS


def i_pow(k: int) -> GaussianInt:
    """i**k for any integer k (i**-1 == -i)."""
    return UNITS[k % 4]


def unit_pow(u: GaussianInt, k: int) -> GaussianInt:
    """u**k for a unit u and any integer k: u = i**j gives i**(j*k)."""
    if not is_unit(u):
        raise ValueError("not a unit of Z[i]: %r" % (u,))
    return UNITS[UNITS.index(u) * k % 4]


def binom2(k: int) -> int:
    """binom(k, 2) = k(k-1)/2, extended to all integers by the polynomial."""
    return k * (k - 1) // 2


def sign_binom2(k: int) -> GaussianInt:
    """(-1)**binom(k,2) as a real Gaussian integer."""
    return MINUS_ONE if binom2(k) % 2 else ONE
