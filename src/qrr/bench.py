"""Time the engine layer by layer and end to end, and check every result.

Run as `python -m qrr.bench`.  `_rows()` lists the rows in order, in seven
sections: the convolution kernel (`kernel`), the sum side (`sum`), one
end-to-end `verify`, the single-factor updates (`updates`), the z-product
layer (`zseries`), corpus loading (`setup`) and the sizes that cost (`large`).
Each row is timed as the best of its repeats and printed as its label and
time, under one header per section.  `--json PATH` also writes the rows to
PATH as {section: {row: seconds}}.

Each row checks its result outside the timed calls: a `verify` row that its
status is "match", an `eval_product` row at PRODUCT_ORDER that it equals
`eval_sum` (the sum side shares only `_unit_div` with the product walk), a
replay row
`chain_passes`, a `jtp_check` row `.ok`, and every other row the sha256 of its
repr against DIGESTS.  Each digest was recorded on the code before the change
its row gates.  A failing row, or one with no digest, is still timed and
written; the bench then names each failing row on stderr by its section and
label, as in `wrong result in row 'verify: double-mod10-2-8 @120'`, since
two sections may hold one label, and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial
from operator import attrgetter, mul

from . import _kernel_py, corpus
from .identity import auto_bounds, eval_product, eval_sum, verify
from .replay import REPLAYS, chain_passes
from .gaussian import I, MINUS_I, MINUS_ONE
from .series import Monomial, poch_finite, poch_infinite, qmono
from .special import jtp_check, rogers_szego_bw, rogers_szego_def, rs_at
from .zseries import _triple_product, euler_z_inverse, euler_z_product

SIZES = (64, 256, 1024, 4096)
WIDE_SIZE = 1024
REPEATS = 5
VERIFY_ORDER = Fraction(120)
# kept at 60 so sum-side rows stay comparable with earlier BENCH_*.json files
SUM_ORDER = Fraction(60)
# the rank-3 order the sum side is aimed at
CAO_WANG_ORDER = Fraction(480)
# perfbench verify_corpus's order for the corpus sums
CORPUS_ORDER = Fraction(240)
RS_N = 40
# perfbench's poly_updates also runs rogers_szego_bw at these n, whose digit
# widths (3 and 4 bytes) differ from RS_N's (5)
RS_SMALL_NS = (24, 32)
RS_ORDER = Fraction(420)
PRODUCT_ORDER = Fraction(2000)
# cao_wang_1_2_3's product side alone: its sum side's bounds stop at 60
CAO_WANG_PRODUCT_ORDER = Fraction(1000)
REPLAY_ORDER = Fraction(80)
# perfbench's replay_zseries runs replay 1.8, and so its z_plus * z_minus, here
PAIR_ORDER = Fraction(120)
JTP_ORDER = Fraction(300)
# the costs that the rows above, kept at their first orders, do not reach
LARGE_REPLAY_ORDER = Fraction(640)
LARGE_JTP_ORDER = Fraction(1200)
LARGE_VERIFY_ORDER = Fraction(1000)
# the first 16 hex digits of sha256(repr(result)) of each row with no status
# check, at the sizes and orders above
DIGESTS = {
    "conv_real 64": "4f6a8c0705660a1d",
    "conv_complex 64": "8a9a3c7c5e43135e",
    "conv_real 256": "665b3c1ace027717",
    "conv_complex 256": "5ed18b7d6b8ac712",
    "conv_real 1024": "b0c9a11a6d8634c1",
    "conv_complex 1024": "b9848b61ce0c414b",
    "conv_real 4096": "6881c8e6e172d8fb",
    "conv_complex 4096": "9c67632ef7b8f7b4",
    "conv_real 1024 wide": "c6b3ea05032bf160",
    "conv_complex 1024 generic": "8a4ad9a47db63599",
    "cao-wang-1-2-3 @60": "a4986ecca98eb252",
    "cao-wang-1-2-3 @480": "1e60ffa19da8c9d2",
    "double-mod10-2-8 @120": "597efede089258dc",
    "double-mod5-1-4 @240": "7b2a4001c053b09e",
    "box corpus @240": "09de428ea987537e",
    "rogers_szego_bw 24 @420": "6a93e789c4612fef",
    "rogers_szego_bw 32 @420": "ca4bb746aaa26251",
    "rogers_szego_bw 40 @420": "9e7d79b59a7a4f40",
    "rs_at 40 t=-1 @420": "ff8398b6444a3e2e",
    "rs_at 40 t=i*q^(1/2) @420": "519bce8ad9dcff73",
    "rogers_szego_def 40 @420": "9e7d79b59a7a4f40",
    "poch_infinite (q;q) @2000": "3a3dc81213beba6f",
    "poch_finite (q;q)_1000 @2000": "a495ac8f8119a27f",
    "eval_product cao-wang-1-2-3 @1000": "11cbe7d5227ec5f6",
    "z builders @80": "96ac7263ee0bcec0",
    "z product 1.8 @80": "22bbc3113371c691",
    "z product 1.8 @120": "ece4db3a74d0aa8b",
    "z product jtp @300": "aa5abab6d14c7872",
    "z pair jtp @300": "d44dfec8bb9832ec",
    "corpus.load_all": "b02a91116d3cb8cc",
}


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def _pair(lists, terms, n):
    """The whole product of length-n lists: one row of the weighted terms
    {(x, y, 0): w} of the lists' products."""
    return _kernel_py.conv_terms(lists, {0: terms}, 2 * n - 2, 1)


def _matches(report) -> bool:
    return report.status == "match"


def _sum_side(spec):
    """The check of an eval_product row: eval_sum of spec at PRODUCT_ORDER equals it."""
    return lambda product: product == eval_sum(spec, PRODUCT_ORDER)


def _rows():
    """Yield every row, in order, as (section, label, call, repeats, check):
    call() makes the result that is timed, and check(result) says whether it
    is right, or check is None and its digest must be DIGESTS[label].  Inputs
    are made between the rows, outside the timed calls."""
    rng = random.Random(12345)
    for n in SIZES:
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        yield "kernel", "conv_real %d" % n, partial(_pair, [a, b], {(0, 1, 0): 1}, n), REPEATS, None
        # (a + ib)*(b + ia) = i*a*a + i*b*b: its cross terms a*b and i*i*b*a cancel
        yield "kernel", "conv_complex %d" % n, partial(_pair, [a, b], {(0, 0, 0): 1j, (1, 1, 0): 1j}, n), REPEATS, None
    n, m = WIDE_SIZE, 1 << 40
    a = [rng.randint(-m, m) for _ in range(n)]
    b = [rng.randint(-m, m) for _ in range(n)]
    yield "kernel", "conv_real %d wide" % n, partial(_pair, [a, b], {(0, 1, 0): 1}, n), REPEATS, None
    # a generic complex product (ar + i*ai)*(br + i*bi) has four independent
    # parts, drawn apart from the rows above, and four products
    rng = random.Random(4)
    parts = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(4)]
    generic = {(0, 2, 0): 1, (0, 3, 0): 1j, (1, 2, 0): 1j, (1, 3, 0): -1}
    yield "kernel", "conv_complex %d generic" % n, partial(_pair, parts, generic, n), REPEATS, None

    sums = ("cao_wang_1_2_3", SUM_ORDER), ("cao_wang_1_2_3", CAO_WANG_ORDER)
    for name, order in sums + (("double_mod10_2_8", VERIFY_ORDER), ("double_mod5_1_4", CORPUS_ORDER)):
        spec = corpus.load(name)
        yield "sum", "%s @%s" % (spec.name, order), partial(eval_sum, spec, order), 3, None
    specs = corpus.load_all()
    yield "sum", "box corpus @%s" % CORPUS_ORDER, lambda: [auto_bounds(s, CORPUS_ORDER) for s in specs], 3, None

    spec = corpus.load("double_mod10_2_8")
    yield "verify", "%s @%s" % (spec.name, VERIFY_ORDER), partial(verify, spec, VERIFY_ORDER), 3, _matches

    q = qmono(1)
    for n in (*RS_SMALL_NS, RS_N):
        label = "rogers_szego_bw %d @%s" % (n, RS_ORDER)
        yield "updates", label, partial(rogers_szego_bw, n, q, RS_ORDER), 3, None
    # t = -1 as replay 1.7 uses it keeps one term of the nest; at t = i*q^(1/2)
    # no factor is zero and every term is kept
    for name, t in (("-1", Monomial(MINUS_ONE)), ("i*q^(1/2)", Monomial(I, Fraction(1, 2)))):
        yield "updates", "rs_at %d t=%s @%s" % (RS_N, name, RS_ORDER), partial(rs_at, RS_N, t, q, RS_ORDER), 3, None
    # double_mod5_1_4's unit -1 factors take the other sign of the binomial division
    for name in ("rogers_mod5_1_4", "double_mod5_1_4"):
        spec = corpus.load(name)
        label = "eval_product %s @%s" % (spec.name, PRODUCT_ORDER)
        yield "updates", label, partial(eval_product, spec, PRODUCT_ORDER), 3, _sum_side(spec)
    # one family of step 1, all but isqrt(n) factors in its Euler tail
    label = "poch_infinite (q;q) @%s" % PRODUCT_ORDER
    yield "updates", label, partial(poch_infinite, q, q, PRODUCT_ORDER), 3, None
    # a finite family of N = order/2 factors: two Euler tails at 2000, the
    # second, (q^(N+1); q)_inf, inside the order
    n = PRODUCT_ORDER // 2
    label = "poch_finite (q;q)_%d @%s" % (n, PRODUCT_ORDER)
    yield "updates", label, partial(poch_finite, q, q, n, PRODUCT_ORDER), 3, None
    # numerator tails of unit -1 beside the divisor (-q^6; q^6)_inf
    spec = corpus.load("cao_wang_1_2_3")
    label = "eval_product %s @%s" % (spec.name, CAO_WANG_PRODUCT_ORDER)
    yield "updates", label, partial(eval_product, spec, CAO_WANG_PRODUCT_ORDER), 3, None
    label = "rogers_szego_def %d @%s" % (RS_N, RS_ORDER)
    yield "updates", label, partial(rogers_szego_def, RS_N, q, RS_ORDER), 3, None

    # the Euler windows of replay 1.8 and of the triple product
    yield "zseries", "z builders @%s" % REPLAY_ORDER, lambda: (
        euler_z_inverse(Monomial(I, Fraction(3, 2)), qmono(2), REPLAY_ORDER),
        euler_z_product(Monomial(MINUS_ONE, Fraction(1, 2)), q, REPLAY_ORDER),
    ), 3, None
    for order in (REPLAY_ORDER, PAIR_ORDER):
        head = order + Fraction(1, 4)  # replay 1.8 builds its windows through here
        z_plus, z_minus = (euler_z_inverse(Monomial(u, Fraction(3, 2)), qmono(2), head) for u in (I, MINUS_I))
        yield "zseries", "z product 1.8 @%s" % order, partial(mul, z_plus, z_minus), 3, None
    # E(z)*E(1/z) of the triple product as the generic kernel workload, and
    # jtp_check's left side E(z)*E(1/z)*(q;q)_inf, one Horner fold per z-power
    half = Monomial(MINUS_ONE, Fraction(1, 2))
    euler = euler_z_product(half, q, JTP_ORDER)
    yield "zseries", "z product jtp @%s" % JTP_ORDER, partial(mul, euler, euler.reflect()), 3, None
    yield "zseries", "z pair jtp @%s" % JTP_ORDER, partial(_triple_product, half, q, JTP_ORDER), 3, None
    for theorem, chain in sorted(REPLAYS.items()):
        yield "zseries", "replay %s @%s" % (theorem, REPLAY_ORDER), partial(chain, REPLAY_ORDER), 3, chain_passes
    yield "zseries", "jtp_check @%s" % JTP_ORDER, partial(jtp_check, JTP_ORDER), 3, attrgetter("ok")

    yield "setup", "corpus.load_all", corpus.load_all, REPEATS, None

    for theorem in ("1.5", "1.7", "1.8"):
        label = "replay %s @%s" % (theorem, LARGE_REPLAY_ORDER)
        yield "large", label, partial(REPLAYS[theorem], LARGE_REPLAY_ORDER), 1, chain_passes
    yield "large", "jtp_check @%s" % LARGE_JTP_ORDER, partial(jtp_check, LARGE_JTP_ORDER), 1, attrgetter("ok")
    spec = corpus.load("cao_wang_1_2_3")
    label = "verify %s @%s" % (spec.name, LARGE_VERIFY_ORDER)
    yield "large", label, partial(verify, spec, LARGE_VERIFY_ORDER), 1, _matches


def main(argv=(), out=print) -> int:
    """Run every row; 1 when a row's result fails its check (the rows are
    written all the same), else 0."""
    parser = argparse.ArgumentParser(
        prog="python -m qrr.bench",
        description="Time the kernel, sum side, verify, updates, z-products, corpus loading and the sizes that cost.",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the rows as {section: {row: seconds}}")
    args = parser.parse_args(argv)
    rows = {}
    failed = []
    for section, label, call, repeats, check in _rows():
        if section not in rows:
            if rows:
                out("")
            out("%s (best of %d, seconds)" % (section, repeats))
            rows[section] = {}
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = call()
            best = min(best, time.perf_counter() - t0)
        rows[section][label] = best
        out("%-34s  %10.6f" % (label, best))
        if not (check(result) if check else _digest(result) == DIGESTS.get(label)):
            failed.append("%s: %s" % (section, label))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    for label in failed:
        print("python -m qrr.bench: wrong result in row %r" % label, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
