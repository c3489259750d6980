"""Time the convolution kernel, the sum side, one end-to-end verification and
the z-product layer.

Run as `python -m qrr.bench`.  Times the kernel's one entry point,
`conv_rows`, on a one-row, one-pair call of random small-coefficient lists at
several lengths, real times real (rows `conv_real n`) and complex times
complex (rows `conv_complex n`), and real times real at WIDE_SIZE with
coefficients near 2**40 (row `conv_real n wide`), whose digits are wider
than 8 bytes and so take the kernel's per-digit packing, then `eval_sum` of
cao_wang_1_2_3 at SUM_ORDER and CAO_WANG_ORDER, of double_mod10_2_8 at
VERIFY_ORDER and of double_mod5_1_4, a rank-2 sum on (q^2;q^2) bases, at
CORPUS_ORDER, and `auto_bounds` of every corpus identity at CORPUS_ORDER
(row `box corpus`),
`verify` of double_mod10_2_8 at VERIFY_ORDER, the single-factor updates
(`rogers_szego_bw` with n = RS_N at RS_ORDER, `rs_at` with the same n and
order at t = -1 as replay 1.7 uses it, which keeps one term of the nest, and
at t = i*q^(1/2), where no factor is zero and every term is kept,
`rogers_szego_bw` with each n of
RS_SMALL_NS at RS_ORDER, `eval_product` of rogers_mod5_1_4 at
PRODUCT_ORDER and of double_mod5_1_4, whose unit -1 factors take the other
sign of the binomial division, at the same order, and `rogers_szego_def`
with n = RS_N at RS_ORDER, the defining sum over one row of Gaussian
binomials), the z-window builders (`euler_z_inverse(i*q^(3/2), q^2)` and
`euler_z_product(-q^(1/2), q)`, the Euler windows of replay 1.8 and of
`jtp_check`) at REPLAY_ORDER, replay 1.8's product z_plus * z_minus alone
(row `z product 1.8`), `jtp_check`'s product E(z)*E(1/z) alone at
JTP_ORDER (row `z product jtp`), the replay chains 1.5-1.8 at REPLAY_ORDER,
`jtp_check` at JTP_ORDER, `corpus.load_all()`, the parse and validation of
the shipped identities that every process loading the corpus pays once, and
last, best of 1, the sizes that cost: replay 1.5 and 1.8 at
LARGE_REPLAY_ORDER, `jtp_check` at LARGE_JTP_ORDER and `verify` of
cao_wang_1_2_3 at LARGE_VERIFY_ORDER.

`python -m qrr.bench --json PATH` also writes the same rows to PATH as
{section: {row: seconds}}.

Every row also checks its result, outside the timed calls: each `verify`
row that the report's status is "match", each `eval_product` row that it
equals `eval_sum` of the same identity at the same order (the sum side
shares only `_unit_div` with the product walk), each replay row that its
chain passes (`chain_passes`) and each `jtp_check` row that the check is ok.
Every other row, which has no such status, checks the sha256 of the repr of
its result against DIGESTS, recorded before the kernel keyed its lists by
content (the wide kernel row and the rogers_szego_bw rows at RS_SMALL_NS
before it moved digits by byte-strided copies, the double_mod5_1_4 and
`box corpus` rows before the sum side fused its last two levels and took
its box in integers, the z-builder row before the builders made their
slices as int lists on their final grid, the `z product 1.8` row before
`series._rows` paired the slices itself, the `z product jtp` row before
the kernel sized its digits by the halves of each list, the `rs_at` row at
t = i*q^(1/2) before the nest met in the middle); the kernel rows
draw their lists from a seeded generator.  A row without a recorded digest
fails.  A failing row is still timed and written; the bench then names the
failing rows on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from operator import attrgetter

from . import _kernel_py, corpus
from .identity import auto_bounds, eval_product, eval_sum, verify
from .replay import REPLAYS, chain_passes
from .gaussian import I, MINUS_I, MINUS_ONE
from .series import Monomial, qmono
from .special import jtp_check, rogers_szego_bw, rogers_szego_def, rs_at
from .zseries import euler_z_inverse, euler_z_product

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
# widths (4 and 5 bytes) differ from RS_N's (6)
RS_SMALL_NS = (24, 32)
RS_ORDER = Fraction(420)
PRODUCT_ORDER = Fraction(2000)
REPLAY_ORDER = Fraction(80)
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
    "z builders @80": "96ac7263ee0bcec0",
    "z product 1.8 @80": "22bbc3113371c691",
    "z product jtp @300": "aa5abab6d14c7872",
    "corpus.load_all": "b02a91116d3cb8cc",
}


def _timed(fn, repeats: int) -> tuple:
    """(the best time of `repeats` calls of fn, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _checked(section: dict, label: str, fn, repeats: int, passes, failed: list) -> float:
    """Time fn as row `label` of section; the label joins `failed` unless
    passes(the last call's result), or, for passes None, unless the result's
    digest is DIGESTS[label].  Either is checked outside the timed calls."""
    t, result = _timed(fn, repeats)
    section[label] = t
    if not (passes(result) if passes else _digest(result) == DIGESTS.get(label)):
        failed.append(label)
    return t


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def _pair(x, y, n):
    """The whole product of two length-n lists: one row of one pair."""
    return _kernel_py.conv_rows({0: x}, {0: y}, {0: [(0, 0)]}, 2 * n - 2, 1)


def bench_kernels(out, rows, failed):
    rng = random.Random(12345)
    out("convolution kernel (best of %d, seconds)" % REPEATS)
    out("%8s  %12s  %12s" % ("n", "real", "complex"))
    section = rows["kernel"] = {}
    for n in SIZES:
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        for label, x, y in (("conv_real %d", (0, a, None), (0, b, None)), ("conv_complex %d", (0, a, b), (0, b, a))):
            _checked(section, label % n, lambda: _pair(x, y, n), REPEATS, None, failed)
        out("%8d  %12.6f  %12.6f" % (n, section["conv_real %d" % n], section["conv_complex %d" % n]))
    n, m = WIDE_SIZE, 1 << 40
    a = [rng.randint(-m, m) for _ in range(n)]
    b = [rng.randint(-m, m) for _ in range(n)]
    t = _checked(section, "conv_real %d wide" % n, lambda: _pair((0, a, None), (0, b, None), n), REPEATS, None, failed)
    out("%8d  %12.6f  %12s" % (n, t, "wide digits"))


def bench_sum(out, rows, failed):
    out("")
    out("sum side eval_sum and auto_bounds (best of 3, seconds)")
    section = rows["sum"] = {}
    for name, order in (
        ("cao_wang_1_2_3", SUM_ORDER),
        ("cao_wang_1_2_3", CAO_WANG_ORDER),
        ("double_mod10_2_8", VERIFY_ORDER),
        ("double_mod5_1_4", CORPUS_ORDER),
    ):
        spec = corpus.load(name)
        t = _checked(section, "%s @%s" % (spec.name, order), lambda: eval_sum(spec, order), 3, None, failed)
        out("%-18s  %6s  %10.3f" % (spec.name, order, t))
    specs = corpus.load_all()
    t = _checked(
        section, "box corpus @%s" % CORPUS_ORDER, lambda: [auto_bounds(s, CORPUS_ORDER) for s in specs], 3, None, failed
    )
    out("%-18s  %6s  %10.3f" % ("box corpus", CORPUS_ORDER, t))


def _matches(report) -> bool:
    return report.status == "match"


def bench_verify(out, rows, failed):
    spec = corpus.load("double_mod10_2_8")
    out("")
    out("end-to-end verify of %s at order %s (best of 3, seconds)" % (spec.name, VERIFY_ORDER))
    section = rows["verify"] = {}
    t = _checked(section, "%s @%s" % (spec.name, VERIFY_ORDER), lambda: verify(spec, VERIFY_ORDER), 3, _matches, failed)
    out("%10.3f" % t)


def bench_updates(out, rows, failed):
    spec = corpus.load("rogers_mod5_1_4")
    minus = corpus.load("double_mod5_1_4")
    out("")
    out("single-factor updates (best of 3, seconds)")
    section = rows["updates"] = {}

    def sum_side(spec):
        return lambda product: product == eval_sum(spec, PRODUCT_ORDER)

    def rs_bw(n):
        return lambda: rogers_szego_bw(n, qmono(1), RS_ORDER)

    def rs_at_n(t):
        return lambda: rs_at(RS_N, t, qmono(1), RS_ORDER)

    smaller = [("rogers_szego_bw %d" % n, RS_ORDER, rs_bw(n), None) for n in RS_SMALL_NS]
    for label, order, fn, passes in smaller + [
        ("rogers_szego_bw %d" % RS_N, RS_ORDER, lambda: rogers_szego_bw(RS_N, qmono(1), RS_ORDER), None),
        ("rs_at %d t=-1" % RS_N, RS_ORDER, rs_at_n(Monomial(MINUS_ONE)), None),
        ("rs_at %d t=i*q^(1/2)" % RS_N, RS_ORDER, rs_at_n(Monomial(I, Fraction(1, 2))), None),
        ("eval_product " + spec.name, PRODUCT_ORDER, lambda: eval_product(spec, PRODUCT_ORDER), sum_side(spec)),
        ("eval_product " + minus.name, PRODUCT_ORDER, lambda: eval_product(minus, PRODUCT_ORDER), sum_side(minus)),
        ("rogers_szego_def %d" % RS_N, RS_ORDER, lambda: rogers_szego_def(RS_N, qmono(1), RS_ORDER), None),
    ]:
        t = _checked(section, "%s @%s" % (label, order), fn, 3, passes, failed)
        out("%-28s  %6s  %10.3f" % (label, order, t))


def _z_builders(order):
    """The Euler windows of replay 1.8 and of jtp_check, built at `order`."""
    return (
        euler_z_inverse(Monomial(I, Fraction(3, 2)), qmono(2), order),
        euler_z_product(Monomial(MINUS_ONE, Fraction(1, 2)), qmono(1), order),
    )


def bench_zseries(out, rows, failed):
    out("")
    out(
        "z-layer: builders and replay chains at order %s, jtp_check at order %s (best of 3, seconds)"
        % (REPLAY_ORDER, JTP_ORDER)
    )
    section = rows["zseries"] = {}
    t = _checked(section, "z builders @%s" % REPLAY_ORDER, lambda: _z_builders(REPLAY_ORDER), 3, None, failed)
    out("z builders %7s  %10.3f" % (REPLAY_ORDER, t))
    head = REPLAY_ORDER + Fraction(1, 4)  # replay 1.8 builds its windows through here
    z_plus, z_minus = (euler_z_inverse(Monomial(u, Fraction(3, 2)), qmono(2), head) for u in (I, MINUS_I))
    t = _checked(section, "z product 1.8 @%s" % REPLAY_ORDER, lambda: z_plus * z_minus, 3, None, failed)
    out("z product 1.8 %4s  %10.3f" % (REPLAY_ORDER, t))
    euler = euler_z_product(Monomial(MINUS_ONE, Fraction(1, 2)), qmono(1), JTP_ORDER)  # as jtp_check builds it
    reflected = euler.reflect()
    t = _checked(section, "z product jtp @%s" % JTP_ORDER, lambda: euler * reflected, 3, None, failed)
    out("z product jtp %4s  %10.3f" % (JTP_ORDER, t))
    for theorem, chain in sorted(REPLAYS.items()):
        label = "replay %s @%s" % (theorem, REPLAY_ORDER)
        t = _checked(section, label, lambda: chain(REPLAY_ORDER), 3, chain_passes, failed)
        out("replay %-11s  %10.3f" % (theorem, t))
    t = _checked(section, "jtp_check @%s" % JTP_ORDER, lambda: jtp_check(JTP_ORDER), 3, attrgetter("ok"), failed)
    out("jtp_check %8s  %10.3f" % (JTP_ORDER, t))


def bench_setup(out, rows, failed):
    out("")
    out("corpus.load_all: parse and validate (best of %d, seconds)" % REPEATS)
    t = _checked(rows.setdefault("setup", {}), "corpus.load_all", corpus.load_all, REPEATS, None, failed)
    out("%10.3f" % t)


def bench_large(out, rows, failed):
    spec = corpus.load("cao_wang_1_2_3")
    out("")
    out("the sizes that cost (best of 1, seconds)")
    section = rows["large"] = {}
    for label, fn, passes in (
        ("replay 1.5 @%s" % LARGE_REPLAY_ORDER, lambda: REPLAYS["1.5"](LARGE_REPLAY_ORDER), chain_passes),
        ("replay 1.8 @%s" % LARGE_REPLAY_ORDER, lambda: REPLAYS["1.8"](LARGE_REPLAY_ORDER), chain_passes),
        ("jtp_check @%s" % LARGE_JTP_ORDER, lambda: jtp_check(LARGE_JTP_ORDER), attrgetter("ok")),
    ):
        t = _checked(section, label, fn, 1, passes, failed)
        out("%-28s  %10.3f" % (label, t))
    label = "verify %s @%s" % (spec.name, LARGE_VERIFY_ORDER)
    t = _checked(section, label, lambda: verify(spec, LARGE_VERIFY_ORDER), 1, _matches, failed)
    out("%-28s  %10.3f" % (label, t))


def main(argv=(), out=print) -> int:
    """Run every section; 1 when a checked row's result fails its check
    (the rows are written all the same), else 0."""
    parser = argparse.ArgumentParser(
        prog="python -m qrr.bench",
        description="Time the kernel, sum side, verify, updates, z-products, corpus loading and the sizes that cost.",
    )
    parser.add_argument("--json", metavar="PATH", help="also write the rows as {section: {row: seconds}}")
    args = parser.parse_args(argv)
    rows = {}
    failed = []
    bench_kernels(out, rows, failed)
    bench_sum(out, rows, failed)
    bench_verify(out, rows, failed)
    bench_updates(out, rows, failed)
    bench_zseries(out, rows, failed)
    bench_setup(out, rows, failed)
    bench_large(out, rows, failed)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    for label in failed:
        print("python -m qrr.bench: wrong result in row %r" % label, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
