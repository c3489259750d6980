"""Time the convolution kernel and one end-to-end verification.

Run as `python -m qrr.bench`.  Times `conv_real` and `conv_complex` on random
small-coefficient inputs at several lengths, then `verify` of
double_mod10_2_8 at VERIFY_ORDER.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import _kernel_py, corpus
from .identity import verify

SIZES = (64, 256, 1024, 4096)
REPEATS = 5
VERIFY_ORDER = Fraction(120)


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(out=print):
    rng = random.Random(12345)
    out("convolution kernel (best of %d, seconds)" % REPEATS)
    out("%8s  %12s  %12s" % ("n", "real", "complex"))
    for n in SIZES:
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        tr = _time(lambda: _kernel_py.conv_real(a, b, 2 * n - 1), REPEATS)
        tc = _time(lambda: _kernel_py.conv_complex(a, b, b, a, 2 * n - 1), REPEATS)
        out("%8d  %12.6f  %12.6f" % (n, tr, tc))


def bench_verify(out=print):
    spec = corpus.load("double_mod10_2_8")
    out("")
    out("end-to-end verify of %s at order %s (best of 3, seconds)" % (spec.name, VERIFY_ORDER))
    out("%10.3f" % _time(lambda: verify(spec, VERIFY_ORDER), 3))


def main(out=print):
    bench_kernels(out)
    bench_verify(out)


if __name__ == "__main__":
    main()
