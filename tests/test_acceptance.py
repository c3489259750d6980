"""Acceptance suite: eleven binary criteria, each printing one PASS/FAIL line.

All arithmetic is exact; every comparison is exact equality of Gaussian-integer
coefficients through the stated truncation order.
"""

import random
import time
from fractions import Fraction as F

from qrr import corpus
from qrr.gaussian import GaussianInt, MINUS_ONE, i_pow, sign_binom2
from qrr.identity import eval_product, eval_sum, verify
from qrr.oracle import PartSpec, dense_mul, unpruned_sum
from qrr.parser import parse
from qrr.replay import replay_1_5, replay_1_6, replay_1_7, replay_1_8, chain_passes
from qrr.series import Monomial, QSeries, poch_finite, qmono
from qrr.special import (
    NahmData,
    jtp_check,
    nahm_series,
    rogers_szego_bw,
    rogers_szego_def,
    rs_at,
)

SINGLES = ("rogers_mod5_1_4", "rogers_mod5_2_3", "rogers_mod4_1_4", "rogers_mod4_2_3")
DOUBLES = ("double_mod10_2_8", "double_mod10_4_6", "double_mod5_1_4", "double_mod5_2_3")


def _report(num, ok, detail):
    line = "ACCEPTANCE %2d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_classical_singles_order_200():
    worst = 0.0
    ok = True
    for name in SINGLES:
        t0 = time.perf_counter()
        rep = verify(corpus.load(name), 200)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and rep.status == "match" and dt < 10.0
    _report(1, ok, "four classical single sums match at order 200 (max %.2fs < 10s)" % worst)


def test_criterion_2_double_sums_order_120():
    ok = True
    for name in DOUBLES:
        rep = verify(corpus.load(name), 120)
        ok = (
            ok
            and rep.status == "match"
            and rep.fractional_residue == []
            and rep.imaginary_residue == []
        )
    _report(2, ok, "four double sums match at order 120 on the den-4 grid, no residues")


def test_criterion_3_andrews_uncu_order_100():
    rep = verify(corpus.load("andrews_uncu_mod6"), 100)
    _report(3, rep.status == "match", "Andrews-Uncu identity matches at order 100")


def test_criterion_4_cao_wang_order_60():
    rep = verify(corpus.load("cao_wang_1_2_3"), 60)
    _report(4, rep.status == "match", "Cao-Wang triple sum (certified box) matches at order 60")


def test_criterion_5_rogers_szego_exact():
    q = qmono(1)
    order = 420  # beyond every polynomial degree involved (max 400)
    ok = all(
        rogers_szego_def(n, q, order).same_through(rogers_szego_bw(n, q, order))
        for n in range(41)
    )
    t = Monomial(MINUS_ONE, F(0))
    for n in range(21):
        ok = ok and rs_at(2 * n, t, q, order).same_through(
            poch_finite(qmono(1), qmono(2), n, order)
        )
        ok = ok and rs_at(2 * n + 1, t, q, order).is_zero()
    _report(5, ok, "both Rogers-Szego representations agree for n <= 40; t=-1 closed forms for n <= 20")


def test_criterion_6_triple_product_order_300():
    rep = jtp_check(300)
    _report(6, rep.ok, "triple product equals the bilateral theta z-coefficientwise through order 300")


def test_criterion_7_replays_order_80():
    chains = {
        "1.5": replay_1_5(80),
        "1.6": replay_1_6(80),
        "1.7": replay_1_7(80),
        "1.8": replay_1_8(80),
    }
    ok = all(chain_passes(steps) for steps in chains.values())
    ok = ok and len(chains["1.5"]) == 6
    # the documented termwise failure: signs differ at the lattice point (1,0)
    ok = ok and sign_binom2(0 - 1) != i_pow(0 - 1)
    _report(7, ok, "all four derivation chains pass at order 80; 1.5 has 6 steps; termwise sign failure detected")


def test_criterion_8_partition_oracle_to_80():
    ok = True
    for name in ("rogers_mod5_1_4", "rogers_mod5_2_3", "double_mod10_2_8", "double_mod10_4_6"):
        spec = corpus.load(name)
        counts = PartSpec.from_product(spec.product, 80).counts(80)
        prod = eval_product(spec, 80)
        for n in range(81):
            c = prod.coeff(n)
            ok = ok and c.im == 0 and c.re == counts[n]
    _report(8, ok, "product coefficients equal partition counts (mod 5 and mod 10 classes) to n = 80")


def test_criterion_9_negative_controls_with_oracle_crosscheck():
    text = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text()
    cases = [
        ("exponent", text.replace("exponent n^2;", "exponent n^2 + n;")),
        ("sign", text.replace("indices n;", "indices n;\n    sign (-1)^n;")),
        ("product", text.replace("poch(q^4, q^5)", "poch(q^3, q^5)")),
    ]
    ok = True
    for label, mutated_text in cases:
        spec = parse(mutated_text)
        rep = verify(spec, 30)
        good = rep.status == "mismatch"
        # cross-check the divergence exponent with the brute-force oracles
        oracle_sum = unpruned_sum(spec, [8], 30)
        counts = PartSpec.from_product(spec.product, 30).counts(30)
        oracle_prod = QSeries(
            1, 30, {n: GaussianInt(counts[n], 0) for n in range(31)}
        )
        d = oracle_sum.first_difference(oracle_prod, F(30))
        good = good and rep.first_mismatch is not None and d == rep.first_mismatch[0]
        ok = ok and good
    _report(9, ok, "mutated exponent/sign/product each mismatch at the oracle-confirmed exponent")


def test_criterion_10_nahm_evaluator():
    rr = nahm_series(NahmData(a=((F(2),),), b=(F(0),), c=F(0)), 100)
    ok = rr.same_through(eval_sum(corpus.load("rogers_mod5_1_4"), 100), F(100))
    quarter = nahm_series(NahmData(a=((F(1, 2),),), b=(F(0),), c=F(0)), 25)
    stretched = quarter.substitute_power(4)
    ok = ok and stretched.same_through(
        eval_sum(corpus.load("rogers_mod4_1_4"), 100), F(100)
    )
    _report(10, ok, "Nahm evaluator reproduces both single-sum left sides through order 100")


def test_criterion_11_kernel_properties():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        order = rng.randint(5, 25)
        a = QSeries(
            1,
            order,
            {
                rng.randint(0, order): GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(0, 8))
            },
        )
        b = QSeries(
            1,
            order,
            {
                rng.randint(0, order): GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(0, 8))
            },
        )
        ok = ok and a.mul(b) == b.mul(a)
        n = rng.randint(0, order)
        ok = ok and a.truncate(n).mul(b.truncate(n)).first_difference(a.mul(b), F(n)) is None
        u = QSeries.one(order) + a.shift(1).truncate(order)
        ok = ok and u.mul(u.invert_unit()) == QSeries.one(order)
    # dense oracle agreement at order 200
    for _ in range(3):
        da = {k: GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)) for k in range(201)}
        db = {k: GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9)) for k in range(201)}
        fast = QSeries(1, 200, da).mul(QSeries(1, 200, db))
        slow = dense_mul([da[k] for k in range(201)], [db[k] for k in range(201)])
        ok = ok and all(fast.coeff(k) == slow[k] for k in range(201))
    _report(11, ok, "100 randomized mul/inv/truncation properties hold; kernel mul equals dense oracle at order 200")
