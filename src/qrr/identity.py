"""Identity descriptions (sum side / product side) and their evaluation.

An IdentitySpec is the parsed form of one sum-product identity: summation
indices, a sign rule built from unit-valued atoms, a rational quadratic
exponent polynomial, one Pochhammer denominator per index, and a list of
infinite/finite product factors.  eval_sum and eval_product expand both sides
exactly through a truncation order; verify compares them coefficient by
coefficient.  A Nahm sum f_{A,B,C} (NahmData, nahm_series) is the sum side
of an identity with no product factors: NahmData.sum_spec() evaluated by
eval_sum.

eval_sum evaluates the sum side as nested partial sums over the declared index
order, with the exponent and the sign's power of i as integer polynomials and
no series multiply.  For each prefix the last index runs over the exact
integer interval where the exponent is at most the order, cut at the
enumeration box (taken in integers from the same integer form); the
next-to-last level adds those points' 1/(b;b)_t table entries as strided
slices straight into the int lists it folds, and each outer level folds in
place from the top, one binomial division per index value, by the one Horner
fold of qrr.series (`_fold`), which also sums the product side's Euler tails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, lcm
from typing import Dict, Optional, Tuple

from .errors import (
    NegativeExponent,
    NotPositiveDefinite,
    QrrError,
    SemanticError,
)
from .gaussian import MINUS_ONE, ONE, GaussianInt, i_pow, sign_binom2
from .quadform import _interval, _minorant, as_matrix, certified_box, is_positive_definite, is_symmetric
from .series import Monomial, QSeries, _chain, _fold, _grid, _poch, qmono


@dataclass(frozen=True)
class SignAtom:
    """One unit-valued factor of a sign rule."""

    kind: str  # "neg1" | "neg1_binom" | "i"
    form: ExponentPoly  # integer-linear

    def eval(self, point: Dict[str, int]) -> GaussianInt:
        v = int(self.form.eval(point))
        if self.kind == "neg1":
            return MINUS_ONE if v % 2 else ONE
        if self.kind == "neg1_binom":
            return sign_binom2(v)
        return i_pow(v)  # "i", validate admitting only the kinds of _SIGN_KINDS


def eval_sign(atoms, point: Dict[str, int]) -> GaussianInt:
    u = ONE
    for a in atoms:
        u = u * a.eval(point)
    return u


# the sign atom kinds, each with the U(v) that makes its value i**U(v): v for
# i^v, v + v for (-1)^v and v*v - v for (-1)^binom(v,2), since
# binom(v,2) = (v*v - v)/2
_SIGN_KINDS = {"neg1": lambda v: v + v, "neg1_binom": lambda v: v * v - v, "i": lambda v: v}


def sign_poly(atoms, indices) -> Tuple[list, list, int]:
    """(S, s, s0) in integers with eval_sign(atoms, n) = i**U(n) for
    U(n) = 1/2 n.S.n + s.n + s0 over the indices in order: U is the sum over
    the atoms of _SIGN_KINDS[kind](v)."""
    u = ExponentPoly.make({}, {})
    for a in atoms:
        u += _SIGN_KINDS[a.kind](a.form)
    _, S, s, s0 = u.integer_form(indices)  # L = 1, the forms being integer-linear
    return S, s, s0


@dataclass(frozen=True)
class ExponentPoly:
    """Rational polynomial of total degree <= 2 in the summation indices.

    The one polynomial type of the identity language: the parser builds every
    exponent and linear form with +, - and *, each result in make's canonical
    form, and a product past degree 2 raises SemanticError."""

    quad: Tuple[Tuple[Tuple[str, str], Fraction], ...]  # keys (x, y) with x <= y
    lin: Tuple[Tuple[str, Fraction], ...]
    const: Fraction = Fraction(0)

    @classmethod
    def make(cls, quad: Dict, lin: Dict, const=Fraction(0)) -> "ExponentPoly":
        q = tuple(sorted((tuple(sorted(k)), Fraction(v)) for k, v in quad.items() if v))
        l = tuple(sorted((k, Fraction(v)) for k, v in lin.items() if v))
        return cls(q, l, Fraction(const))

    def _terms(self) -> list:
        """Nonzero (monomial, coefficient) pairs, a monomial the sorted tuple
        of its names."""
        return [*self.quad, *(((x,), c) for x, c in self.lin), *([((), self.const)] if self.const else [])]

    @classmethod
    def _of(cls, terms) -> "ExponentPoly":
        """The sum of (monomial, Fraction) pairs, in make's canonical form."""
        out: Dict[tuple, Fraction] = {}
        for k, c in terms:
            out[k] = out[k] + c if k in out else c
        return cls(
            tuple(sorted((k, c) for k, c in out.items() if len(k) == 2 and c)),
            tuple(sorted((k[0], c) for k, c in out.items() if len(k) == 1 and c)),
            out.get((), Fraction(0)),
        )

    def __add__(self, other: "ExponentPoly") -> "ExponentPoly":
        return self._of(self._terms() + other._terms())

    def __sub__(self, other: "ExponentPoly") -> "ExponentPoly":
        return self + other * -1

    def __mul__(self, other) -> "ExponentPoly":
        """The product with a polynomial or a rational number."""
        if not isinstance(other, ExponentPoly):
            other = ExponentPoly.make({}, {}, other)
        terms = [(tuple(sorted(k1 + k2)), c1 * c2) for k1, c1 in self._terms() for k2, c2 in other._terms()]
        if any(len(k) > 2 for k, _ in terms):
            raise SemanticError("exponent polynomial exceeds degree 2")
        return self._of(terms)

    def eval(self, point: Dict[str, int]) -> Fraction:
        total = self.const
        for (x, y), c in self.quad:
            total += c * point[x] * point[y]
        for x, c in self.lin:
            total += c * point[x]
        return total

    def names(self):
        return {x for k, _ in self._terms() for x in k}

    def quadratic_matrix(self, indices) -> list:
        """Symmetric Q with value = 1/2 n.Q.n + linear + const."""
        qd = dict(self.quad)
        # the coefficient of x*y (x != y) is Q_xy, that of x^2 is Q_xx / 2
        return [
            [qd.get(tuple(sorted((x, y))), Fraction(0)) * (1 + (x == y)) for y in indices] for x in indices
        ]

    def linear_vector(self, indices) -> list:
        ld = dict(self.lin)
        return [ld.get(x, Fraction(0)) for x in indices]

    def integer_form(self, indices) -> tuple:
        """(L, Q, b, c) in integers with L * value = 1/2 n.Q.n + b.n + c over
        the indices in order, L the lcm of the coefficient denominators."""
        L = lcm(*(c.denominator for _, c in self._terms()))
        Q = [[int(x * L) for x in row] for row in self.quadratic_matrix(indices)]
        return L, Q, [int(x * L) for x in self.linear_vector(indices)], int(self.const * L)

    def is_integer_linear(self) -> bool:
        """No quadratic term and integer coefficients: the form of a sign atom."""
        return not self.quad and all(c.denominator == 1 for _, c in self._terms())


@dataclass(frozen=True)
class ProductFactor:
    """(x; base)_inf or (x; base)_n, to the power +1 or -1."""

    x: Monomial
    base: Monomial
    power: int = 1
    finite: Optional[int] = None


@dataclass(frozen=True)
class IdentitySpec:
    name: str
    den: int
    indices: Tuple[str, ...]
    sign: Tuple[SignAtom, ...]
    exponent: ExponentPoly
    denoms: Tuple[Tuple[str, Monomial], ...]  # (index, Pochhammer base)
    product: Tuple[ProductFactor, ...]
    bounds: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise SemanticError unless the spec is well formed and its sum side
        finite: explicit nonnegative bounds, one per index, or else a positive
        definite minorant of the exponent's integer form on the orthant
        (quadform._minorant, as certified_box uses; whether one exists does
        not depend on the order, and no box is computed here)."""
        if self.den <= 0:
            raise SemanticError("%s: exponent denominator must be positive" % self.name)
        if len(set(self.indices)) != len(self.indices):
            raise SemanticError("%s: duplicate summation index" % self.name)
        denom_idx = [x for x, _ in self.denoms]
        for x in denom_idx:
            if denom_idx.count(x) > 1:
                raise SemanticError(
                    "%s: index %s appears in more than one denominator" % (self.name, x)
                )
        if set(denom_idx) != set(self.indices):
            missing = set(self.indices) - set(denom_idx)
            extra = set(denom_idx) - set(self.indices)
            raise SemanticError(
                "%s: denominators must cover each index exactly once"
                " (missing %s, unknown %s)" % (self.name, sorted(missing), sorted(extra))
            )
        used = self.exponent.names()
        for a in self.sign:
            if a.kind not in _SIGN_KINDS:
                raise SemanticError("%s: unknown sign atom kind %r" % (self.name, a.kind))
            if not a.form.is_integer_linear():
                raise SemanticError("%s: sign atom exponent must be an integer linear form" % self.name)
            used |= a.form.names()
        unbound = used - set(self.indices)
        if unbound:
            raise SemanticError("%s: unbound names %s" % (self.name, sorted(unbound)))
        for x, base in self.denoms:
            if base.exp <= 0 or base.unit != ONE:
                raise SemanticError(
                    "%s: denominator base for %s must be a positive power of q" % (self.name, x)
                )
        for f in self.product:
            if f.base.exp <= 0 or f.base.unit != ONE:
                raise SemanticError("%s: product factor base must be a positive power of q" % self.name)
            if f.finite is None and f.x.exp <= 0:
                raise SemanticError(
                    "%s: infinite product factor needs positive q-order argument" % self.name
                )
            if f.power not in (1, -1):
                raise SemanticError("%s: factor power must be +1 or -1" % self.name)
        if self.bounds is not None:
            if len(self.bounds) != len(self.indices):
                raise SemanticError("%s: one bound per index required" % self.name)
            if any(b < 0 for b in self.bounds):
                raise SemanticError("%s: bounds must be nonnegative" % self.name)
        else:
            scale, q, b, _ = self.exponent.integer_form(self.indices)
            try:
                _minorant(q, b, 0, scale)
            except NotPositiveDefinite:
                raise SemanticError(
                    "%s: exponent quadratic form admits no finite enumeration;"
                    " explicit bounds are required" % self.name
                ) from None


@dataclass
class VerifyReport:
    name: str
    status: str  # "match" | "mismatch" | "error"
    order: Fraction
    first_mismatch: Optional[tuple] = None  # (exp, lhs, rhs)
    fractional_residue: list = field(default_factory=list)
    imaginary_residue: list = field(default_factory=list)
    elapsed_ms: float = 0.0
    error: Optional[str] = None

    def to_json(self) -> dict:
        fm = None
        if self.first_mismatch is not None:
            e, lhs, rhs = self.first_mismatch
            fm = {"exp": _frac_str(e), "lhs": [lhs.re, lhs.im], "rhs": [rhs.re, rhs.im]}
        out = {
            "identity": self.name,
            "status": self.status,
            "order": _frac_str(self.order),
            "first_mismatch": fm,
            "fractional_residue": [_frac_str(e) for e in self.fractional_residue],
            "imaginary_residue": [_frac_str(e) for e in self.imaginary_residue],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.error:
            out["error"] = self.error
        return out


def _frac_str(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


# -- enumeration ------------------------------------------------------------


def auto_bounds(spec: IdentitySpec, order) -> Tuple[int, ...]:
    """Per-index bounds so every excluded lattice point n >= 0 has exponent >
    order: qrr.quadform.certified_box of the exponent's integer form, the
    box that eval_sum enumerates, and at which it cuts explicit bounds."""
    return certified_box(spec.exponent.integer_form(spec.indices), order)


def eval_sum(spec: IdentitySpec, order) -> QSeries:
    """Exact truncated expansion of the sum side, as nested partial sums.

    With b_d the Pochhammer base of the d-th index in declared order, level d
    of the nest is X_0 + (X_1 + (X_2 + ...)/(1 - q^(2b_d)))/(1 - q^b_d), X_t
    the level below at prefix + t, since 1/(b;b)_t = 1/(b;b)_(t-1) / (1 - q^(bt)):
    one `series._fold` per level and prefix.  Each outer index value thus
    costs one O(order) binomial division, in place on int lists (stride
    (t+1) * b_d * D on the sum grid q^(1/D)); only the top level's lists
    become a QSeries.  The exponent E is the integer
    polynomial L*E of ExponentPoly.integer_form, taken once, which also gives
    the box, and the sign i**U, U the integer polynomial of sign_poly taken
    mod 4; both are carried down the nest, so no point is built.  For each
    prefix the last index visits only the exact integer interval where
    E <= order (from the integer square root of the discriminant), cut at the
    box.  The last two levels are one pass: the next-to-last index scans its
    values' kept points first, then adds each point's 1/(b;b)_t table entry,
    a series in q^b and so on every (b * D)-th entry of the sum grid, with one
    extended slice straight into the int lists it folds, allocated once from
    its lowest kept exponent; a prefix with no kept point allocates nothing.
    The outer indices run over the whole box: auto_bounds, or explicit
    `bounds` cut at it, since every point outside it has E > order; a form
    with no minorant runs over its explicit bounds, and its last index's
    table stops at t = order/b, past which each entry equals the one before.
    """
    nest = _Nest(spec, Fraction(order))
    (start, re, _), *imag = nest.level(0, nest.const, nest.lin, nest.sconst, nest.slin, ()) or [(0, [], 0)]
    return QSeries._of(nest.den, nest.n, start, re, imag[0][1] if imag else None)


class _Nest:
    """The nested partial sums of one eval_sum call.

    L*E = 1/2 n.Q.n + lin.n + const in integers, and the sign is i**U with
    U = 1/2 n.S.n + slin.n + sconst in integers (sign_poly), taken mod 4.  A
    prefix carries the values of L*E and U on its indices (c, sc) and the
    linear coefficients of the indices still to come (lin, slin).  Only the
    last index has a 1/(b;b)_t table: one int list per t up to order/b
    (`cap`), the coefficients of 1/(x;x)_t in x = q^b, which sit on every
    step-th entry of the sum grid.  The indices run over the certified box
    (auto_bounds), explicit bounds being cut at it.  Every level returns int
    lists, never a QSeries: its sum as the terms of `series._fold`,
    (start, re, 0) and, if any sign is imaginary, (start, im, 1), the
    coefficients at scaled exponents start..n, or [] if no point below it is
    kept."""

    def __init__(self, spec: IdentitySpec, order: Fraction):
        form = spec.exponent.integer_form(spec.indices)
        self.scale, self.quad, self.lin, self.const = form
        self.squad, self.slin, self.sconst = sign_poly(spec.sign, spec.indices)
        self.top = floor(order * self.scale)  # L*E <= top exactly when E <= order
        self.spec = spec
        try:  # explicit bounds stop at the box: every point past it has E > order
            box = certified_box(form, order)
            self.bounds = box if spec.bounds is None else tuple(map(min, spec.bounds, box))
        except NotPositiveDefinite:  # validate admitted this form for its explicit bounds
            self.bounds = spec.bounds
        base_of = dict(spec.denoms)
        self.bases = [base_of[x].exp for x in spec.indices]
        # the sum grid: the declared grid spec.den, which holds the sum's
        # exponents, refined to hold the order and every base
        self.den = lcm(spec.den, _grid(order, *self.bases))
        self.n = int(order * self.den)
        # q^b_d is steps[d] entries of the sum grid; for the last base b,
        # 1/(q^b;q^b)_t is 1/(x;x)_t in x = q^b, a list on the integers
        self.steps = [int(b * self.den) for b in self.bases]
        # entries past order/b equal the one before, so the table stops there
        last = floor(order / self.bases[-1])
        self.cap = min(self.bounds[-1], last)
        self.table = _chain([1], [last + 1] * self.cap)
        # the last index's t*t coefficients in L*E and U
        self.a, self.sa = self.quad[-1][-1] // 2, self.squad[-1][-1] // 2

    def level(self, d: int, c: int, lin: list, sc: int, slin: list, prefix: tuple):
        """sum over t of level_{d+1}(prefix + t) / (b_d; b_d)_t, by one
        `_fold`.  The next-to-last level folds the last index's kept points
        (`kept`) at each t straight in; a rank-1 sum is `last`."""
        r = len(self.bounds)
        if d == r - 1:
            return self.last(c, lin[d], sc, slin[d], prefix)
        groups = []
        quad, squad = self.quad[d], self.squad[d]
        # ascending t, each scanned before any fold, so the first bad point
        # raised is the lexicographically first
        for t in range(self.bounds[d] + 1):
            if d == r - 2:  # the last index reads the constants and its own linear coefficients alone
                c2, sc2 = _fixed(quad, c, lin, d, t), _fixed(squad, sc, slin, d, t)
                groups.append(self.kept(c2, lin[-1] + quad[-1] * t, sc2, slin[-1] + squad[-1] * t, prefix + (t,)))
            else:
                # entries of lin and slin before d + 1 are never read again
                c2, lin2 = _fix(quad, c, lin, d, t)
                sc2, slin2 = _fix(squad, sc, slin, d, t)
                groups.append(self.level(d + 1, c2, lin2, sc2, slin2, prefix + (t,)))
        return _fold(groups, self.steps[d], self.steps[-1] if d == r - 2 else 1, self.n)

    def last(self, c: int, b: int, sc: int, sb: int, prefix: tuple):
        """The terms of a rank-1 sum: its one index's kept points, folded."""
        return _fold([self.kept(c, b, sc, sb, prefix)], 0, self.steps[-1], self.n)

    def kept(self, c: int, b: int, sc: int, sb: int, prefix: tuple) -> list:
        """The terms (offset, table entry, u) of the points prefix + t with
        E <= order, in ascending t, with L*E = a*t*t + b*t + c and
        U = sa*t*t + sb*t + sc: offset the point's scaled exponent, u its
        sign's power of i mod 4.  Raises at the first point with a negative
        or off-grid exponent; allocates no window."""
        spec, scale, top, den, a, sa = self.spec, self.scale, self.top, self.den, self.a, self.sa
        table, cap = self.table, self.cap
        if a > 0:
            lo, hi = _interval(a, b, c - top)
            ts = range(max(lo, 0), min(hi, self.bounds[-1]) + 1)
        else:
            ts = range(self.bounds[-1] + 1)
        kept = []
        for t in ts:
            v = (a * t + b) * t + c
            if v > top:
                continue
            if v < 0 or v * spec.den % scale:
                point = dict(zip(spec.indices, prefix + (t,)))
                if v < 0:
                    raise NegativeExponent("%s: exponent %s at %s" % (spec.name, Fraction(v, scale), point))
                raise SemanticError(
                    "%s: exponent %s at %s not representable with den %d"
                    % (spec.name, Fraction(v, scale), point, spec.den)
                )
            kept.append((v * den // scale, table[min(t, cap)], ((sa * t + sb) * t + sc) % 4))
        return kept


def _fix(row: list, c: int, lin: list, d: int, t: int):
    """Fix index d at t in the integer quadratic 1/2 n.M.n + lin.n + c, with
    row the d-th row of M: the new constant and linear coefficients."""
    return _fixed(row, c, lin, d, t), [x + q * t for x, q in zip(lin, row)]


def _fixed(row: list, c: int, lin: list, d: int, t: int) -> int:
    """The constant of `_fix` alone."""
    return c + (row[d] // 2 * t + lin[d]) * t


def eval_product(spec: IdentitySpec, order) -> QSeries:
    """Exact truncated expansion of the product side (qrr.series._poch): one
    in-place binomial step per head factor 1 - x*b**k of a family, its first
    K = max(1, isqrt(n/m)) for b = q**m and n the scaled order, taken from
    the largest exponent down, and per factor of a finite family of at most
    3K factors.  The rest of a family, (y; b)_inf for y = x*b**K, over
    (x*b**N; b)_inf for a finite (x; b)_N whose x*b**N lies within the
    order, is Euler's sum 1/(y; b)_inf = sum y**l/(b; b)_l or (y; b)_inf =
    sum (-1)**l b**(l(l-1)/2) y**l/(b; b)_l, folded by Horner's rule as the
    sum side folds (series._fold), one division per term; there is no
    series multiply or inverse.  It lives on the grid of the order and
    the factor exponents, not on spec.den, and is lifted to the sum's grid
    only when the two sides are compared or tabulated."""
    return _poch(order, [(f.x, f.base, f.finite, f.power) for f in spec.product])


def verify(spec: IdentitySpec, order) -> VerifyReport:
    """Compare both sides exponent by exponent through `order`."""
    order = Fraction(order)
    t0 = time.perf_counter()
    try:
        lhs = eval_sum(spec, order)
        rhs = eval_product(spec, order)
    except QrrError as ex:  # rejected input is a report status; engine faults propagate
        return VerifyReport(
            name=spec.name,
            status="error",
            order=order,
            elapsed_ms=(time.perf_counter() - t0) * 1000,
            error="%s: %s" % (type(ex).__name__, ex),
        )
    report = compare(spec, order, lhs, rhs)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000
    return report


def compare(spec: IdentitySpec, order, lhs: QSeries, rhs: QSeries) -> VerifyReport:
    """The verify report of the evaluated sum side `lhs` and product side
    `rhs` of `spec` through `order` (elapsed_ms is left 0).  The residues are
    the fractional and the imaginary exponents of lhs - rhs, where the sides
    differ; the difference is built only when they do."""
    order = Fraction(order)
    d = lhs.first_difference(rhs, order)
    report = VerifyReport(name=spec.name, status="match" if d is None else "mismatch", order=order)
    if d is not None:
        diff = lhs - rhs
        report.first_mismatch = (d, lhs.coeff(d), rhs.coeff(d))
        report.fractional_residue = [e for e in diff.fractional_support() if e <= order]
        report.imaginary_residue = [e for e in diff.imaginary_support() if e <= order]
    return report


# -- Nahm sums ---------------------------------------------------------------


@dataclass(frozen=True)
class NahmData:
    """Rank, quadratic matrix, linear vector, and constant of a Nahm sum."""

    a: tuple
    b: tuple
    c: Fraction = Fraction(0)
    rank: int = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a)
        b = tuple(Fraction(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "rank", len(a))
        if len(b) != len(a):
            raise ValueError("linear vector length must match the matrix rank")
        if not is_symmetric(a):
            raise NotPositiveDefinite("matrix must be symmetric")
        if not is_positive_definite(a):
            raise NotPositiveDefinite("matrix must be positive definite")

    def exponent(self, n: tuple) -> Fraction:
        r = self.rank
        quad = sum(
            self.a[i][j] * n[i] * n[j] for i in range(r) for j in range(r)
        )
        return quad / 2 + sum(self.b[i] * n[i] for i in range(r)) + self.c

    def sum_spec(self) -> IdentitySpec:
        """The Nahm sum as the sum side of an identity with no product factors.

        A_ii/2 n^2 + B_i n = A_ii binom(n, 2) + (A_ii/2 + B_i) n, so every
        exponent lies on the grid lcm(den A_ij, den(A_ii/2 + B_i), den C).
        """
        r = self.rank
        names = tuple("n%d" % i for i in range(r))
        quad = {
            (names[i], names[j]): self.a[i][j] / (2 if i == j else 1)
            for i in range(r)
            for j in range(i, r)
        }
        den = lcm(
            self.c.denominator,
            *(x.denominator for row in self.a for x in row),
            *((self.a[i][i] / 2 + self.b[i]).denominator for i in range(r)),
        )
        exponent = ExponentPoly.make(quad, dict(zip(names, self.b)), self.c)
        denoms = tuple((x, qmono(1)) for x in names)
        return IdentitySpec("nahm", den, names, (), exponent, denoms, ())


def nahm_series(data: NahmData, order) -> QSeries:
    """The Nahm sum q^(n.A.n/2 + n.B + C) / prod (q;q)_{n_i}, exact through
    `order`, including the global q^C prefactor."""
    return eval_sum(data.sum_spec(), order)
