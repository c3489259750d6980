"""Independent brute-force references used only by tests.

Everything here deliberately avoids the main engine's algorithms: partition
counting is dynamic programming over part sizes, multiplication is schoolbook
convolution over dense lists, and unpruned_sum walks an explicit box, on plain
int lists, with no exponent-based pruning.  Agreement with the engine is
therefore evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from typing import List, Sequence, Tuple

from .errors import NegativeExponent, SemanticError
from .gaussian import MINUS_ONE, ONE
from .identity import IdentitySpec, eval_sign
from .series import QSeries


@dataclass(frozen=True)
class PartSpec:
    """Combinatorial reading of a product side.

    unlimited: part sizes usable any number of times (from factors
    1/(q^a; q^c)_inf).  distinct: (part size, sign) generators usable at most
    once (from numerator factors (x*q^a; q^c)_inf with x = -1 giving sign +1
    and x = +1 giving sign -1 per used part).
    """

    unlimited: Tuple[int, ...]
    distinct: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_product(cls, factors, limit: int) -> "PartSpec":
        """Derive the allowed parts up to `limit` from ProductFactor entries."""
        unlimited: List[int] = []
        distinct: List[Tuple[int, int]] = []
        for f in factors:
            if f.finite is not None:
                raise ValueError("finite Pochhammer factors have no partition reading")
            a, c = f.x.exp, f.base.exp
            if a.denominator != 1 or c.denominator != 1 or a <= 0:
                raise ValueError("partition reading needs positive integer exponents")
            a, c = int(a), int(c)
            if f.power == -1 and f.x.unit == ONE:
                unlimited.extend(range(a, limit + 1, c))
            elif f.power == 1 and f.x.unit == MINUS_ONE:
                distinct.extend((p, 1) for p in range(a, limit + 1, c))
            elif f.power == 1 and f.x.unit == ONE:
                distinct.extend((p, -1) for p in range(a, limit + 1, c))
            else:
                raise ValueError("factor has no partition reading")
        return cls(tuple(unlimited), tuple(distinct))

    def counts(self, limit: int) -> List[int]:
        """Coefficients 0..limit of the generating function (signed DP)."""
        dp = [0] * (limit + 1)
        dp[0] = 1
        for p in self.unlimited:
            for n in range(p, limit + 1):
                dp[n] += dp[n - p]
        for p, sign in self.distinct:
            for n in range(limit, p - 1, -1):
                dp[n] += sign * dp[n - p]
        return dp


def partition_count(ps: PartSpec, n: int) -> int:
    """Number (or signed count) of partitions of n into the allowed parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ps.counts(n)[n]


def dense_mul(a: Sequence, b: Sequence) -> list:
    """Schoolbook convolution of dense coefficient lists over any ring."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _dense_inverse(a: List[int], n: int) -> List[int]:
    """First n+1 coefficients of 1/a for a with constant term 1 (long division)."""
    out = [1] + [0] * n
    for k in range(1, n + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def _dense_poch(step: int, count: int, n: int) -> List[int]:
    """(q^step; q^step)_count as a dense list through index n."""
    poly = [1]
    for j in range(1, count + 1):
        e = j * step
        if e > n:
            break
        nxt = poly + [0] * min(e, n + 1 - len(poly))
        for i, c in enumerate(poly[: n + 1 - e]):
            nxt[i + e] -= c
        poly = nxt
    return poly


def unpruned_sum(spec: IdentitySpec, box: Sequence[int], order) -> QSeries:
    """Literal summation of the sum side over the full box, no pruning.

    The bases are real (validate rejects any other unit), so each term is one
    int list, which the point's sign, a unit of Z[i], adds into the real or
    the imaginary accumulator."""
    order = Fraction(order)
    if len(box) != len(spec.indices):
        raise ValueError("one box bound per index required")
    den = lcm(spec.den, order.denominator)
    for _, base in spec.denoms:
        den = lcm(den, base.exp.denominator)
    n_scaled = int(order * den)
    base_of = dict(spec.denoms)
    inverses = []
    for x, bound in zip(spec.indices, box):
        base = base_of[x]
        step = int(base.exp * den)
        inverses.append(
            [
                _dense_inverse(_dense_poch(step, k, n_scaled), n_scaled)
                for k in range(bound + 1)
            ]
        )
    re = [0] * (n_scaled + 1)
    im = [0] * (n_scaled + 1)
    for point_vals in iproduct(*(range(b + 1) for b in box)):
        point = dict(zip(spec.indices, point_vals))
        e = spec.exponent.eval(point)
        if e < 0:
            raise NegativeExponent("exponent %s at %s" % (e, point))
        if (e * den).denominator != 1:
            raise SemanticError("exponent %s at %s off the den-%d grid" % (e, point, den))
        shift = int(e * den)
        # coefficients kept from each factor; none for a point above the order
        reach = max(n_scaled + 1 - shift, 0)
        term = inverses[0][point_vals[0]][:reach]
        for j in range(1, len(inverses)):
            term = dense_mul(term, inverses[j][point_vals[j]][:reach])[:reach]
        sr, si = eval_sign(spec.sign, point)
        for t, c in enumerate(term, shift):
            re[t] += c * sr
            im[t] += c * si
    return QSeries(den, n_scaled, dict(enumerate(zip(re, im))))
