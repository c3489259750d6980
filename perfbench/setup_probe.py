"""Time set-up in a fresh process: `import qrr`, corpus parse and input
generation for one workload and seed.  Prints the seconds taken, then the
median of five calibration rounds run right after (see speed.py).

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

start = time.perf_counter()
import qrr  # noqa: E402,F401

from perfbench import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
setup_s = time.perf_counter() - start

from perfbench.speed import calibrate  # noqa: E402

print(repr(setup_s), repr(sorted(calibrate() for _ in range(5))[2]))
