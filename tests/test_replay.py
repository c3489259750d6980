import dataclasses
import hashlib
import io
import json
import math
from fractions import Fraction as F
from importlib import import_module

import pytest
from qrr import _kernel_py, corpus, series
from qrr.cli import EXIT_OK, main
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, i_pow, sign_binom2, unit_pow
from qrr.identity import ExponentPoly, SignAtom, eval_product, eval_sum
from qrr.replay import (
    REPLAYS,
    _Chain,
    _closure,
    _single_sum,
    chain_passes,
    replay,
    replay_1_5,
    replay_1_6,
    replay_1_7,
    replay_1_8,
)
from qrr.series import QSeries, _poch, qmono
from qrr.special import gaussian_binomial_row, jtp_check
from qrr.zseries import ZSeries, euler_z_product, theta_z

# the package exports the function replay() under the module's name
replay_module = import_module("qrr.replay")


@pytest.mark.parametrize("theorem", sorted(REPLAYS))
def test_chains_pass_at_order_40(theorem):
    steps = replay(theorem, 40)
    assert chain_passes(steps), [
        (s.step, s.description, s.first_divergence) for s in steps if not s.ok
    ]
    assert [s.step for s in steps] == list(range(1, len(steps) + 1))
    assert all(s.theorem == theorem for s in steps)


@pytest.mark.parametrize("order", ["1/3", "2/3", "7/6", "13/3", "1/8", "3/8"])
def test_chains_pass_at_orders_off_the_quarter_grid(monkeypatch, order):
    # No comparison may cover less than the order it is asked for, on the
    # pair's common grid: a series built on grid 4 at order 1/3 would hold
    # only q^(1/4) and below, so every builder works out a grid that holds
    # its order
    compare = QSeries.first_difference
    short = []

    def spy(self, other, order=None):
        if order is not None:
            den = math.lcm(self.den, other.den)
            asked = F(math.floor(F(order) * den), den)
            if min(self.order_q, other.order_q) < asked:
                short.append((str(self.order_q), str(other.order_q), str(order)))
        return compare(self, other, order)

    monkeypatch.setattr(QSeries, "first_difference", spy)
    steps = replay_1_7(F(order))
    assert chain_passes(steps), [(s.step, s.first_divergence) for s in steps if not s.ok]
    for theorem in sorted(REPLAYS):
        assert main(["replay", theorem, "--order", order], out=io.StringIO()) == EXIT_OK, theorem
    assert short == []


def test_step_counts():
    assert len(replay_1_5(10)) == 6
    assert len(replay_1_6(10)) == 6
    assert len(replay_1_7(10)) == 3
    assert len(replay_1_8(10)) == 5


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        replay("9.9", 10)


def test_sign_rewrite_fails_termwise():
    # (-1)^binom(n-m,2) == i^(n-m) holds only for the full sums; at the
    # single lattice point (m,n) = (1,0) the two signs differ
    m, n = 1, 0
    assert sign_binom2(n - m) == MINUS_ONE
    assert i_pow(n - m) == MINUS_I
    assert sign_binom2(n - m) != i_pow(n - m)


def test_sign_rewrite_termwise_for_the_shifted_variant():
    # the shifted chain's rewrite is genuinely termwise:
    # (-i)^(n-m) * i^(n+m) == (-1)^m for all residues
    for m in range(4):
        for n in range(4):
            assert unit_pow(MINUS_I, n - m) * unit_pow(I, n + m) == unit_pow(
                MINUS_ONE, m
            )


def test_misconfigured_theta_is_detected():
    # negative control: a mis-set beta must break the constant-term form
    order = F(20)
    spec = corpus.load("double_mod10_2_8")
    signed = eval_sum(
        dataclasses.replace(spec, sign=(SignAtom("i", ExponentPoly.make({}, {"n": 1, "m": -1})),)), order
    )
    q = qmono(1)
    z_plus = euler_z_product(qmono(F(3, 4), I), q, order)
    z_minus = euler_z_product(qmono(F(3, 4), MINUS_I), q, order)
    # beta mis-set to 1/2: exponents k(k+1)/4 stay >= 0, so theta_z builds it
    wrong = theta_z(F(1, 2), F(1, 2), MINUS_ONE, -1, order)
    d = signed.first_difference((z_plus * z_minus * wrong).ct(), order)
    assert d is not None and d <= 4


def test_replay_reports_serialize():
    steps = replay_1_7(15)
    for s in steps:
        doc = s.to_json()
        assert doc["status"] in ("pass", "fail")
        assert isinstance(doc["step"], int)
        assert doc["first_divergence"] is None or isinstance(
            doc["first_divergence"], str
        )


def test_monotone_in_order():
    # passing at order N implies passing at any smaller order
    assert chain_passes(replay_1_8(30))
    assert chain_passes(replay_1_8(12))


@pytest.mark.parametrize("name, power", [("rogers_mod4_1_4", 1), ("rogers_mod5_1_4", 2)])
def test_closure_evaluates_each_classical_side_once(monkeypatch, name, power):
    order = F(24)
    base = corpus.load(name)
    single = eval_sum(base, order / power).substitute_power(power)
    product = eval_product(base, order / power).substitute_power(power)
    bump = QSeries.term(ONE, 5, order)
    calls = []

    def counted(fn, extra=None):
        def run(spec, o):
            calls.append(fn.__name__)
            out = fn(spec, o)
            return out if extra is None else out + extra

        return run

    monkeypatch.setattr(replay_module, "eval_sum", counted(eval_sum))
    monkeypatch.setattr(replay_module, "eval_product", counted(eval_product))
    chain = _Chain("t", order)
    _closure(chain, name, power, single, product)
    _closure(chain, name, power, single + bump, product)
    _closure(chain, name, power, single, product + bump)
    # a classical identity that does not verify fails the closure
    monkeypatch.setattr(replay_module, "eval_product", counted(eval_product, QSeries.term(ONE, 3, order)))
    _closure(chain, name, power, single, product)
    assert calls == ["eval_sum", "eval_product"] * 4
    assert [s.first_divergence for s in chain.steps] == [
        None,
        ("sum", 5),
        ("product", 5),
        "classical base %s: mismatch" % name,
    ]


def test_single_sum_stops_correctly():
    s = _single_sum(1, 2, qmono(4), 30)  # sum q^(n^2 + 2n) / (q^4;q^4)_n
    assert s.coeff(0).re == 1 and s.coeff(3).re == 1  # n=1 term q^3/(q^4;q^4)_1
    assert s.coeff(8).re == 1  # n=2 gives q^8


# sha256 of json.dumps([s.to_json() for s in replay(t, 80)], sort_keys=True)
# and of repr(jtp_check(120)), first 16 hex digits, recorded while ZSeries
# still carried a global q-shift
REPLAY_DIGESTS = {
    "1.5": "0a0dd6345587aab7",
    "1.6": "69e4af85ad3289d4",
    "1.7": "25e9b5af2015c0b0",
    "1.8": "9409c21ad17da6b3",
}
JTP_DIGEST = "a92a9c50662b5a08"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("theorem", sorted(REPLAY_DIGESTS))
def test_replay_reports_match_recorded_digests(theorem):
    doc = [s.to_json() for s in replay(theorem, 80)]
    assert _digest(json.dumps(doc, sort_keys=True)) == REPLAY_DIGESTS[theorem]


def test_each_shipped_identity_is_parsed_once_per_process(monkeypatch):
    # a chain reads its identity and its classical base through a cache:
    # the second call parses nothing and reports the same chain, while
    # corpus.load itself still parses on every call
    parse = corpus.parse_file
    parsed = []

    def spy(*args):
        parsed.append(args)
        return parse(*args)

    replay_module._load.cache_clear()
    monkeypatch.setattr(corpus, "parse_file", spy)
    first, second = (json.dumps([s.to_json() for s in replay("1.5", 20)], sort_keys=True) for _ in range(2))
    assert first == second
    assert len(parsed) == len(set(parsed)) == 2  # double_mod10_2_8 and rogers_mod5_1_4
    corpus.load("rogers_mod5_1_4")
    assert len(parsed) == 3


def _regroup_by_products(order):
    """Step 1 of 1.7 as the chain first took it: each inner sum one QSeries
    add or negation per row entry, and each term q^(n^2/4) inner_n times
    1/(q^2;q^2)_n, one series product."""
    n_max = math.isqrt(math.floor(4 * order))
    regrouped = QSeries.zero(order)
    inners = []
    for n in range(n_max + 1):
        inner = QSeries.zero(order)
        for m, gb in enumerate(gaussian_binomial_row(n, qmono(2), order)):
            inner = inner + (gb if m % 2 == 0 else -gb)
        inners.append(inner)
        regrouped = regrouped + inner.shift(F(n * n, 4)).mul(_poch(order, [(qmono(2), qmono(2), n, -1)]))
    return inners, regrouped


def _fields(s):
    return s.den, s.order, s.val, s.re, s.im


@pytest.mark.parametrize("order", [F(1, 3), F(61, 4), F(80), F(160)])
def test_regroup_equals_the_product_path_field_by_field(order):
    inners, regrouped = replay_module._regroup(order)
    want_inners, want = _regroup_by_products(order)
    assert [_fields(s) for s in inners] == [_fields(s) for s in want_inners]
    assert _fields(regrouped) == _fields(want)


@pytest.mark.parametrize("order", [F(61, 4), F(80)])
def test_regroup_makes_no_product_and_one_division_per_level(monkeypatch, order):
    # the rows' own divisions are made in qrr.special; the fold's are the
    # ones made inside the one `_fold` that qrr.replay calls, one by
    # 1 - q^(2(n+1)) for each n < n_max
    conv, folds, running, divisions = [], [], [], []
    conv_terms, fold, unit_div = _kernel_py.conv_terms, replay_module._fold, series._unit_div

    def conv_spy(*args):
        conv.append(args)
        return conv_terms(*args)

    def fold_spy(groups, step, stride, n):
        folds.append(step)
        running.append(step)
        out = fold(groups, step, stride, n)
        running.pop()
        return out

    def div_spy(x, k, u, start=0):
        if running:  # inside the fold, whose step is q^2
            divisions.append((F(2 * k, running[-1]), u))
        return unit_div(x, k, u, start)

    monkeypatch.setattr(_kernel_py, "conv_terms", conv_spy)
    monkeypatch.setattr(replay_module, "_fold", fold_spy)
    monkeypatch.setattr(series, "_unit_div", div_spy)
    inners, _ = replay_module._regroup(order)
    n_max = math.isqrt(math.floor(4 * order))
    assert len(inners) == n_max + 1
    assert conv == []
    assert len(folds) == 1
    assert divisions == [(2 * (n + 1), 1) for n in reversed(range(n_max))]


def test_jtp_report_matches_recorded_digest():
    assert _digest(repr(jtp_check(120))) == JTP_DIGEST


def test_claim_failing_at_exponent_zero_reports_it():
    # and a closure's side with its exponent, and an exponent, rendered
    # alike as text and in JSON
    chain = _Chain("t", F(10))
    chain.claim("fails at q^0", False, F(0))
    chain.claim("fails without a place", False)
    chain.claim("holds", True, F(3))
    chain.claim("fails in the sum", False, ("sum", F(7, 2)))
    chain.claim("fails at q^(-1/4)", False, F(-1, 4))
    want = ["0", "claim failed", None, "(sum, 7/2)", "-1/4"]
    assert [s.to_json()["first_divergence"] for s in chain.steps] == [s.divergence for s in chain.steps] == want
    assert [s.status for s in chain.steps] == ["fail", "fail", "pass", "fail", "fail"]


def test_a_wrong_inner_sum_fails_chain_1_7_step_2(monkeypatch):
    # H_4(-1; q^2) with q^6 added: step 2 names the inner sum and the
    # exponent, and `qrr replay 1.7` prints where it diverges and exits 1
    rs_at = replay_module.rs_at

    def wrong(n, t, b, order):
        h = rs_at(n, t, b, order)
        return h + QSeries.term(ONE, 6, order) if n == 4 else h

    monkeypatch.setattr(replay_module, "rs_at", wrong)
    steps = replay_1_7(20)
    assert [s.status for s in steps] == ["pass", "fail", "pass"]
    assert steps[1].first_divergence == (4, F(6))
    out = io.StringIO()
    assert main(["replay", "1.7", "--order", "20"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[1] == (
        "1.7 step 2/3 fail inner sums collapse: H_n(-1;q^2) vanishes for odd n and telescopes the"
        " even terms to the single sum over (q^4;q^4)_n  [diverges: (4, 6)]"
    )
    out = io.StringIO()
    assert main(["replay", "1.7", "--order", "20", "--format", "json"], out=out) == 1
    assert json.loads(out.getvalue())[1]["first_divergence"] == "(4, 6)"


def test_a_wrong_single_sum_fails_chain_1_7_step_2_in_total(monkeypatch):
    # every inner sum holds, but the sum over (q^4;q^4)_n has q^5 added: the
    # regrouped total differs there, and so does step 3, which closes on it
    single = replay_module._single_sum

    def wrong(quad, lin, base, order):
        s = single(quad, lin, base, order)
        return s + QSeries.term(ONE, 5, order) if base == qmono(4) else s

    monkeypatch.setattr(replay_module, "_single_sum", wrong)
    steps = replay_1_7(20)
    assert [s.status for s in steps] == ["pass", "fail", "fail"]
    assert steps[1].first_divergence == ("total", F(5))
    assert steps[1].to_json()["first_divergence"] == "(total, 5)"


def test_a_wrong_z_window_fails_chain_1_5_step_4(monkeypatch):
    # the paired Euler window with q^(5/4) z added: step 4 compares two
    # z-windows and names the z-power and the exponent, q^(5/4) z^2 after
    # z -> z^2, as text and in JSON alike
    build = replay_module.euler_z_product

    def wrong(c, b, order):
        w = build(c, b, order)
        return w + ZSeries({1: QSeries.term(ONE, F(5, 4), order)}) if b == qmono(2) else w

    monkeypatch.setattr(replay_module, "euler_z_product", wrong)
    steps = replay_1_5(20)
    assert steps[3].first_divergence == (2, F(5, 4))
    out = io.StringIO()
    assert main(["replay", "1.5", "--order", "20"], out=out) == 1
    assert out.getvalue().splitlines()[3] == (
        "1.5 step 4/6 fail Euler pairing: the two factors multiply to the z^2 Euler product"
        " with base q^2  [diverges: (2, 5/4)]"
    )
    out = io.StringIO()
    assert main(["replay", "1.5", "--order", "20", "--format", "json"], out=out) == 1
    assert json.loads(out.getvalue())[3]["first_divergence"] == "(2, 5/4)"


def test_wrong_theta_fails_chain_1_8_without_raising(monkeypatch):
    # beta + 1/4 instead of the reindexed 1/4: exponents j(j+1)/4 stay >= 0,
    # so the wrong theta builds, and both constant-term steps must fail
    def wrong(alpha, beta, chi, s, order):
        return theta_z(alpha, beta + F(1, 4), chi, s, order)

    monkeypatch.setattr(replay_module, "theta_z", wrong)
    steps = replay_1_8(20)
    assert [s.status for s in steps] == ["pass", "fail", "pass", "fail", "pass"]
    # ct gains a term at q^0, where q^(1/4) * X has none: X's own exponent -1/4
    assert steps[1].first_divergence == steps[3].first_divergence == F(-1, 4)
