"""Machine-speed calibration.

The host these numbers come from shares its cores with other tenants, and
its speed drifts by up to 2x within seconds (verify(double_mod10_2_8, 240)
took 0.50 s to 0.81 s in processes seconds apart, with CPU time equal to wall
time).  So while tasks
run, a SIGALRM handler times a short fixed round of reference work every
INTERVAL_S.  A task's time, less the time spent in those rounds, is
multiplied by (CALIB_REF_S / median round time around it) ** SPEED_EXPONENT,
where CALIB_REF_S is the round time on the reference machine: the result is
in seconds at reference speed.

The exponent is below 1 because the round speeds up and slows down more than
the engine does.  Regressing log task time on log round time for four engine
tasks over 50 samples each gave slopes 0.80-0.94.  Over 9-18 runs of each
workload, the spread of the run medians of pass time (interquartile range
over median) was least at exponents 0.8 (verify_corpus), 0.9
(replay_zseries) and 1.0 (poly_updates); 0.9 keeps the worst of the three
lowest (5.2%, against 19-37% for raw times).

The round does the kind of work the engine does (pure-Python big-integer
multiply-adds over lists, dictionary updates) and nothing of `qrr`, so a
change to `qrr` moves the normalized time as it moves the raw time at a fixed
machine speed.
"""

import signal
import statistics
import time

# calibrate() on the reference machine (BASELINE.json), in seconds
CALIB_REF_S = 0.0015
SPEED_EXPONENT = 0.9
INTERVAL_S = 0.05
# rounds within this many seconds of a task count towards its speed
WINDOW_S = 0.25

_A = [(-1) ** i * (i * 2654435761 % 2**40) for i in range(90)]
_B = [(i * 40503 % 2**40) - 2**39 for i in range(90)]


def calibrate() -> float:
    """Seconds taken by one fixed round of reference work."""
    start = time.perf_counter()
    c = [0] * 180
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            c[i + j] += x * y
    d = {}
    for k in range(1000):
        d[k * 7 % 211] = d.get(k * 3 % 211, 0) + c[k % 180]
    return time.perf_counter() - start


class SpeedMeter:
    """Times a calibration round every INTERVAL_S while active, and a few
    rounds on entry and exit, so that every task has rounds around it."""

    EDGE_ROUNDS = 5

    def __init__(self):
        self.rounds = []  # (start, seconds)

    def _round(self, *_):
        self.rounds.append((time.perf_counter(), calibrate()))

    def __enter__(self):
        for _ in range(self.EDGE_ROUNDS):
            self._round()
        self._old = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(self.EDGE_ROUNDS):
            self._round()

    def work_seconds(self, t0: float, t1: float) -> float:
        """Raw seconds between t0 and t1 less the calibration rounds in them."""
        return t1 - t0 - sum(sec for start, sec in self.rounds if t0 <= start < t1)

    def at_reference_speed(self, t0: float, t1: float) -> float:
        """Seconds of work between t0 and t1, at reference speed."""
        near = [sec for start, sec in self.rounds if t0 - WINDOW_S <= start < t1 + WINDOW_S]
        return self.work_seconds(t0, t1) * (CALIB_REF_S / statistics.median(near)) ** SPEED_EXPONENT
