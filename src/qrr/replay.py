"""Machine-checked derivation chains for the four double-sum identities.

Each chain re-derives one double-sum identity from one of the four classical
single-sum identities in the corpus.  A chain is an ordered list of steps;
every step is a standalone exact equality -- of truncated series, of z-Laurent
objects, or of rational polynomials -- checked through a truncation order.
The chain consults the product side of the identity under derivation only in
its final closure step, which reduces to a classical identity verified
independently at the same order.

The four chains carry the derivation ids "1.5" through "1.8":

    1.5  double-mod10-2-8   closed via rogers-mod5-1-4 under q -> q^2
    1.6  double-mod10-4-6   closed via rogers-mod5-2-3 under q -> q^2
    1.7  double-mod5-1-4    closed via rogers-mod4-1-4
    1.8  double-mod5-2-3    closed via rogers-mod4-2-3
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Dict, List, Optional

from . import corpus
from .gaussian import I, MINUS_I, MINUS_ONE, ONE
from .identity import ExponentPoly, IdentitySpec, SignAtom, _frac_str, compare, eval_product, eval_sum
from .parser import parse_poly
from .series import Monomial, QSeries, _as_order, _fold, _grid, _lay, _spread, _unit_mul, qmono
from .special import gaussian_binomial_row, rs_at
from .zseries import ZSeries, euler_z_inverse, euler_z_product, theta_z


@dataclass
class StepReport:
    theorem: str
    step: int
    description: str
    status: str  # "pass" | "fail"
    order: Fraction
    first_divergence: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @property
    def divergence(self) -> Optional[str]:
        """first_divergence as the text and the JSON report give it: each
        exponent or z-power as `_frac_str` renders it, a tuple as (4, 6)."""
        d = self.first_divergence
        if isinstance(d, tuple):
            return "(%s)" % ", ".join(x if isinstance(x, str) else str(_frac_str(x)) for x in d)
        return d if d is None or isinstance(d, str) else str(_frac_str(d))

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "step": self.step,
            "description": self.description,
            "status": self.status,
            "order": _frac_str(self.order),
            "first_divergence": self.divergence,
        }


class _Chain:
    """Collects StepReports for one derivation."""

    def __init__(self, theorem: str, order: Fraction):
        self.theorem = theorem
        self.order = order
        self.steps: List[StepReport] = []

    def series(self, description: str, lhs, rhs):
        """Compare two QSeries, or two ZSeries, through the chain's order."""
        self._add(description, lhs.first_difference(rhs, self.order))

    def claim(self, description: str, ok: bool, divergence=None):
        if ok:
            divergence = None
        elif divergence is None:
            divergence = "claim failed"
        self._add(description, divergence)

    def _add(self, description: str, divergence):
        self.steps.append(
            StepReport(
                theorem=self.theorem,
                step=len(self.steps) + 1,
                description=description,
                status="pass" if divergence is None else "fail",
                order=self.order,
                first_divergence=divergence,
            )
        )


# each shipped identity a chain reads is parsed once per process; corpus.load
# itself stays uncached
_load = functools.cache(corpus.load)


def chain_passes(steps: List[StepReport]) -> bool:
    return all(s.ok for s in steps)


# -- shared pieces ----------------------------------------------------------


def _single_sum(quad, lin, base: Monomial, order) -> QSeries:
    """sum_n q^(quad*n^2 + lin*n) / (base; base)_n through `order`, evaluated
    as a rank-1 sum side; the exponent must be an integer at every n."""
    spec = IdentitySpec(
        "single", 1, ("n",), (), ExponentPoly.make({("n", "n"): quad}, {"n": lin}), (("n", base),), ()
    )
    return eval_sum(spec, order)


def _closure(chain: _Chain, classical_name: str, power: int, single: QSeries, product: QSeries):
    """Close a chain through a classical identity: verify it at order/power,
    substitute q -> q^power into both of its sides, and match them against
    the reduced single sum and the target product.  Power 2 closes the
    quarter-exponent chains, power 1 the integer-exponent ones."""
    order = chain.order / power
    base = _load(classical_name)
    lhs = eval_sum(base, order)
    rhs = eval_product(base, order)
    status = compare(base, order, lhs, rhs).status
    div = None
    if status != "match":
        div = "classical base %s: %s" % (classical_name, status)
    else:
        for side, got, want in (("sum", lhs, single), ("product", rhs, product)):
            d = got.substitute_power(power).first_difference(want, chain.order)
            if d is not None:
                div = (side, d)
                break
    if power == 1:
        description = "closure: reduced sum and product side are the verified identity %s" % classical_name
    else:
        description = (
            "closure: %s verified, then q -> q^%d matches the reduced sum and the product side"
            % (classical_name, power)
        )
    chain.claim(description, div is None, div)


def _quarter_chain(
    theorem: str,
    spec_name: str,
    classical_name: str,
    lin_coeff: Fraction,
    order: Fraction,
) -> List[StepReport]:
    """The shared six-step pipeline for derivations 1.5 and 1.6.

    lin_coeff is the linear exponent coefficient carried into the Euler
    factors: 3/4 for 1.5, 7/4 for 1.6.
    """
    spec = _load(spec_name)
    chain = _Chain(theorem, order)
    q = qmono(1)

    # step 1: sign rewrite (-1)^binom(n-m,2) -> i^(n-m), valid at sum level
    rewritten = dataclasses.replace(spec, sign=(SignAtom("i", ExponentPoly.make({}, {"n": 1, "m": -1})),))
    lhs = eval_sum(spec, order)
    signed = eval_sum(rewritten, order)
    chain.series("sign rewrite: (-1)^binom(n-m,2) summand sign becomes i^(n-m)", lhs, signed)

    # step 2: symbolic exponent decomposition (order-independent)
    decomposition = parse_poly(
        "1/2*binom(m+n,2) + binom(m,2) + %s*m + binom(n,2) + %s*n"
        % (lin_coeff, lin_coeff)
    )
    chain.claim(
        "exponent splits as 1/2*binom(m+n,2) + binom(m,2) + binom(n,2) + %s*(m+n)"
        % lin_coeff,
        decomposition == spec.exponent,
        None if decomposition == spec.exponent else "polynomial coefficients differ",
    )

    # step 3: constant-term form over z
    z_plus = euler_z_product(Monomial(I, lin_coeff), q, order)
    z_minus = euler_z_product(Monomial(MINUS_I, lin_coeff), q, order)
    theta = theta_z(Fraction(1, 2), 0, MINUS_ONE, -1, order)
    pair = z_plus * z_minus
    extracted = pair.ct_mul(theta)
    chain.series(
        "constant-term form: double sum equals ct of the two Euler factors times theta",
        signed,
        extracted,
    )

    # step 4: the Euler factors pair into a single product in z^2
    paired = euler_z_product(qmono(2 * lin_coeff), qmono(2), order).zstretch(2)
    chain.series(
        "Euler pairing: the two factors multiply to the z^2 Euler product with base q^2",
        pair,
        paired,
    )

    # step 5: extract the constant term of the paired form
    lin = 2 * lin_coeff - Fraction(3, 2)  # 0 for 1.5, 2 for 1.6
    single = _single_sum(2, lin, qmono(2), order)
    chain.series(
        "constant-term extraction reduces to a single sum over (q^2;q^2)_n",
        paired.ct_mul(theta),
        single,
    )

    # step 6: closure through the classical identity under q -> q^2
    _closure(chain, classical_name, 2, single, eval_product(spec, order))
    return chain.steps


def replay_1_5(order) -> List[StepReport]:
    """Derive double-mod10-2-8 from rogers-mod5-1-4 (six steps)."""
    return _quarter_chain("1.5", "double_mod10_2_8", "rogers_mod5_1_4", Fraction(3, 4), Fraction(order))


def replay_1_6(order) -> List[StepReport]:
    """Derive double-mod10-4-6 from rogers-mod5-2-3 (six steps)."""
    return _quarter_chain("1.6", "double_mod10_4_6", "rogers_mod5_2_3", Fraction(7, 4), Fraction(order))


def _regroup(order: Fraction) -> tuple:
    """Step 1 of 1.7 as (inners, regrouped): inners[n] the alternating row
    sum sum_m (-1)^m [n m] in base q^2, and regrouped the double sum
    regrouped along N = m + n, sum_n q^(n^2/4) inners[n] / (q^2;q^2)_n, for
    n up to the largest n with n^2/4 <= order; both exact through `order`.

    Each row is built in x = q^2 through x^floor(order/2), which is exact
    through `order`: no even exponent lies between the two.  Each inner sum
    is one signed pass over its whole row: the even entries laid into one
    list, the odd into another, and the second taken from the first.  Every
    entry is summed, not half of the row and its mirror image, so that step
    2's "vanishes for odd n" is checked, not built in.  The regrouped sum is
    one Horner fold (`series._fold`) of the row sums in x, each at offset
    n^2/4, X_0 + (X_1 + (X_2 + ...)/(1 - q^4))/(1 - q^2), one division by
    1 - q^(2(n+1)) per level on the grid that holds the order and every
    n^2/4: linear work, no series product."""
    n_max = math.isqrt(math.floor(4 * order))  # the largest n with n^2/4 <= order
    sums = []  # each inner sum's coefficients in x = q^2
    for n in range(n_max + 1):
        row = gaussian_binomial_row(n, qmono(1), math.floor(order / 2))
        size = max(x.val + len(x.re) for x in row)
        even, odd = (_lay(size, ((x.val, x.re) for x in row[r::2])) for r in (0, 1))
        sums.append(list(map(sub, even, odd)))
    grid = _grid(order)
    inners = [QSeries._of(grid, _as_order(order, grid), 0, _spread(x, 2 * grid)) for x in sums]
    den = _grid(order, *(Fraction(n * n, 4) for n in range(n_max + 1)))
    top = _as_order(order, den)
    ((lo, re, _),) = _fold([[(n * n * den // 4, x, 0)] for n, x in enumerate(sums)], 2 * den, 2 * den, top)
    return inners, QSeries._of(den, top, lo, re)


def replay_1_7(order) -> List[StepReport]:
    """Derive double-mod5-1-4 from rogers-mod4-1-4 (three steps)."""
    order = Fraction(order)
    spec = _load("double_mod5_1_4")
    chain = _Chain("1.7", order)

    # step 1: regroup along N = m + n via Gaussian binomials: one signed
    # pass per row, then one Horner fold (`_regroup`)
    inners, regrouped = _regroup(order)
    chain.series(
        "regrouping along m+n: double sum equals sum over n of the alternating"
        " Gaussian-binomial inner sum over (q^2;q^2)_n",
        eval_sum(spec, order),
        regrouped,
    )

    # step 2: the inner sums are H_n(-1; q^2): zero for odd n, (q^2;q^4)_{n/2}
    # for even n, and the telescoped total is the single sum over (q^4;q^4)_n.
    # The closed forms are one running product, one window-long list stepped
    # in place: (q^2;q^4)_{n/2} is the one at n - 2 times 1 - q^(2n-2), and
    # each comparison wraps a copy of the list
    minus_one = Monomial(MINUS_ONE, Fraction(0))
    q2 = qmono(2)
    den = _grid(order)
    top = _as_order(order, den)
    closed = [1] + [0] * top  # (q^2;q^4)_{n/2} at the last even n
    div = None
    for n, inner in enumerate(inners):
        if n and not n % 2:
            _unit_mul(closed, None, (2 * n - 2) * den, ONE)
        d = inner.first_difference(rs_at(n, minus_one, q2, order), order)
        if d is None:
            want = QSeries.zero(order) if n % 2 else QSeries._of(den, top, 0, closed[:])
            d = inner.first_difference(want, order)
        if d is not None:
            div = (n, d)
            break
    single = _single_sum(1, 0, qmono(4), order)
    if div is None:
        d = regrouped.first_difference(single, order)
        if d is not None:
            div = ("total", d)
    chain.claim(
        "inner sums collapse: H_n(-1;q^2) vanishes for odd n and telescopes the"
        " even terms to the single sum over (q^4;q^4)_n",
        div is None,
        div,
    )

    # step 3: closure through the classical identity
    _closure(chain, "rogers_mod4_1_4", 1, single, eval_product(spec, order))
    return chain.steps


def replay_1_8(order) -> List[StepReport]:
    """Derive double-mod5-2-3 from rogers-mod4-2-3 (five steps)."""
    order = Fraction(order)
    spec = _load("double_mod5_2_3")
    chain = _Chain("1.8", order)
    q2, q4 = qmono(2), qmono(4)
    quarter = Fraction(1, 4)
    head = order + quarter  # steps 2 and 4 compare q^(1/4) * X through here

    def shifted(description: str, x: QSeries, ct: QSeries):
        """Check q^(1/4) * x == ct through head; a divergence is reported at
        x's own exponent."""
        d = x.shift(quarter).first_difference(ct, head)
        chain.claim(description, d is None, None if d is None else d - quarter)

    # step 1: termwise sign/exponent rewrite as a full-series equality
    # (-i)^(n-m) = i^(m-n)
    sign = (
        SignAtom("i", ExponentPoly.make({}, {"m": 1, "n": -1})),
        SignAtom("i", ExponentPoly.make({}, {"n": 1, "m": 1})),
    )
    exponent = parse_poly("1/4*(m+n)*(m+n-2) + 3/2*(m+n)")
    rewritten = eval_sum(dataclasses.replace(spec, sign=sign, exponent=exponent), order)
    chain.series(
        "rewrite: summand equals (-i)^(n-m) i^(n+m) q^((m+n)(m+n-2)/4 + 3(m+n)/2)"
        " over the same denominators",
        eval_sum(spec, order),
        rewritten,
    )

    # step 2: constant-term form.  The chain's theta
    # sum_k i^k q^(k(k-2)/4) z^(-k) has its k = 1 term at q^(-1/4), which is
    # no power series.  It enters as T = q^(1/4) * theta; with j = k - 1,
    # T = sum_j i^(j+1) q^(j^2/4) z^(-j-1) = i z^(-1) * theta_z(1/2, 1/4, i, -1),
    # and the rewritten sum X enters as q^(1/4) * X to match.
    z_plus = euler_z_inverse(Monomial(I, Fraction(3, 2)), q2, head)
    z_minus = euler_z_inverse(Monomial(MINUS_I, Fraction(3, 2)), q2, head)
    i_over_z = ZSeries({-1: QSeries.term(I, 0, head)})
    theta = i_over_z * theta_z(Fraction(1, 2), quarter, I, -1, head)  # T
    pair = z_plus * z_minus
    shifted(
        "constant-term form: rewritten sum equals ct of the two inverse Euler"
        " factors times the i-signed theta",
        rewritten,
        pair.ct_mul(theta),
    )

    # step 3: the inverse Euler factors collapse in z^2
    collapsed = euler_z_inverse(Monomial(MINUS_ONE, 3), q4, head).zstretch(2)
    chain.series(
        "Euler collapse: the paired factors equal the z^2 inverse Euler product"
        " with base q^4",
        pair,
        collapsed,
    )

    # step 4: extract the constant term of the collapsed form (times q^(1/4),
    # the shift theta carries)
    single = _single_sum(1, 2, q4, order)
    shifted(
        "constant-term extraction reduces to a single sum over (q^4;q^4)_n",
        single,
        collapsed.ct_mul(theta),
    )

    # step 5: closure through the classical identity
    _closure(chain, "rogers_mod4_2_3", 1, single, eval_product(spec, order))
    return chain.steps


REPLAYS: Dict[str, Callable[[object], List[StepReport]]] = {
    "1.5": replay_1_5,
    "1.6": replay_1_6,
    "1.7": replay_1_7,
    "1.8": replay_1_8,
}


def replay(theorem: str, order) -> List[StepReport]:
    """Run one derivation chain by id ("1.5" through "1.8")."""
    fn = REPLAYS.get(theorem)
    if fn is None:
        raise KeyError("unknown derivation id %r (have %s)" % (theorem, sorted(REPLAYS)))
    return fn(order)
