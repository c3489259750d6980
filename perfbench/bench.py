"""One benchmark run: set up, warm up, time passes, check outputs, report.

Load is a closed loop: one process, one thread, one task at a time.  A pass
runs every task of the workload once, in a seeded order.  The first pass is a
warm-up: it is not timed, and its outputs are the ones checked, once per run,
after the timed passes.

The number of timed passes is fixed per workload,
max(2, round(seconds / NOMINAL_PASS_S)), where NOMINAL_PASS_S is about the
raw pass time at the seed commit on the reference machine.  So a run measures
for about `seconds` there, and every commit does the same work,
which keeps the sample count, and with it the tail percentile, the same.  A
run that would pass DEADLINE_S stops after its current pass.

Every task time is scaled to reference machine speed by calibration rounds
timed around and during it (see speed.py); the raw times are logged.  In a
traced pass the rounds run inside whatever span is open, which adds a round's
time per INTERVAL_S (a few percent) to the layers' self times.

With trace off the run reports the end-to-end metrics.  With trace on it
alternates untraced and traced passes and reports the per-layer metrics per
traced pass, with the tracing overhead as the ratio of their median pass times.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.speed import CALIB_REF_S, SPEED_EXPONENT, SpeedMeter

ROOT = Path(__file__).resolve().parent.parent

NOMINAL_PASS_S = {"verify_corpus": 10.0, "replay_zseries": 6.0, "poly_updates": 6.0}
# fresh processes timed for setup_s before the warm-up and after each timed
# pass, so that they sample the machine's speed across the run; the median is
# reported
PROBES_PER_STEP = 2
# a run starts no new pass that would end after this many seconds
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def setup_probe(name: str, seed: int) -> Tuple[float, float]:
    """Seconds for `import qrr`, corpus parse and input generation in a fresh
    process: (raw, at reference speed)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    setup_s, calib_s = (float(x) for x in out.stdout.split())
    return setup_s, setup_s * (CALIB_REF_S / calib_s) ** SPEED_EXPONENT


def timed_pass(wl, errors: Dict[str, str]) -> Tuple[float, Dict[str, float]]:
    """Run every task once; (raw pass seconds, {task key: seconds at
    reference speed}).  Raw times exclude the calibration rounds."""
    spans = []
    with SpeedMeter() as meter:
        for task in wl.pass_order():
            t0 = time.perf_counter()
            try:
                task.run()
            except Exception as ex:  # a failing task is counted, not fatal
                errors.setdefault(task.key, "%s: %s" % (type(ex).__name__, ex))
            spans.append((task.key, t0, time.perf_counter()))
    raw = sum(meter.work_seconds(t0, t1) for _, t0, t1 in spans)
    return raw, {key: meter.at_reference_speed(t0, t1) for key, t0, t1 in spans}


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    idx = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run(name: str, seed: int, seconds: int, trace: bool, log=print) -> dict:
    started = time.perf_counter()
    import qrr

    import_s = time.perf_counter() - started
    if not Path(qrr.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise RuntimeError("qrr was imported from %s, not from this checkout" % qrr.__file__)
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    if name not in workloads.WORKLOADS:
        raise ValueError("unknown workload %r (have %s)" % (name, ", ".join(workloads.WORKLOADS)))
    setup = []

    def probe():
        if not trace:
            setup.extend(setup_probe(name, seed) for _ in range(PROBES_PER_STEP))

    probe()

    tracer = Tracer()
    counters = layers.Counters(tracer)
    if trace:
        tracer.install(layers.TARGETS, counters.hooks())
    wl = workloads.build(name, seed)
    corpus_load_s = tracer.summary().get("corpus.load", {}).get("s", 0.0)
    tracer.uninstall()
    tracer.clear()
    counters.clear()

    outputs, errors = {}, {}
    for task in wl.pass_order():
        try:
            outputs[task.key] = task.run()
        except Exception as ex:
            errors[task.key] = "%s: %s" % (type(ex).__name__, ex)

    passes = max(2, round(seconds / NOMINAL_PASS_S[name]))
    # pass times at reference speed; raw ones are logged
    walls, traced_walls, raw_walls = [], [], []
    samples = {t.key: [] for t in wl.tasks}
    for i in range(passes):
        if raw_walls and time.perf_counter() - started + max(raw_walls) > DEADLINE_S:
            log("stopping after %d of %d passes: deadline" % (i, passes))
            break
        if trace and i % 2:
            tracer.install(layers.TARGETS, counters.hooks())
            raw, latency = timed_pass(wl, errors)
            tracer.uninstall()
            traced_walls.append(sum(latency.values()))
        else:
            raw, latency = timed_pass(wl, errors)
            walls.append(sum(latency.values()))
            for key, sec in latency.items():
                samples[key].append(sec)
        raw_walls.append(raw)
        probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = workloads.check_outputs(wl.tasks, outputs)
    for key, why in errors.items():
        failed.setdefault(key, why)
    for key, why in sorted(failed.items()):
        log("FAILED %s: %s" % (key, why))
    for key, secs in samples.items():
        log("task %-48s median %9.1f ms at reference speed, %d passes" % (key, 1000 * statistics.median(secs), len(secs)))
    log("untraced passes: %s s at reference speed" % " ".join("%.3f" % w for w in walls))
    log("all passes: %s s raw" % " ".join("%.3f" % w for w in raw_walls))

    if trace:
        if not traced_walls:
            raise RuntimeError("no traced pass completed")
        for dotted in sorted(set(tracer.absent)):
            log("absent: %s" % dotted)
        extra = {
            "corpus.load.s": corpus_load_s,
            "setup.import_s": import_s,
            "trace.overhead": statistics.median(traced_walls) / statistics.median(walls),
        }
        values = layers.layer_metrics(tracer, counters, len(traced_walls), extra)
        units = {m: u for m, u, _ in layers.PER_LAYER}
    else:
        all_ms = [1000 * s for secs in samples.values() for s in secs]
        tail_ms, pct = tail(all_ms)
        log("task_ms_tail is p%.1f of %d task samples" % (pct, len(all_ms)))
        log("setup probes: %s s raw" % " ".join("%.3f" % raw for raw, _ in setup))
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_s": statistics.median(walls),
            "task_ms_p50": statistics.median(all_ms),
            "task_ms_tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1 - len(failed) / len(wl.tasks),
        }
        units = END_TO_END
    return {
        "correct": not failed,
        "attempted": len(wl.tasks),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
