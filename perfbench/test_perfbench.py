"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import bench, layers, speed, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from qrr import corpus  # noqa: E402
from qrr.gaussian import GaussianInt  # noqa: E402


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tr = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    inner = tr.wrap("inner", inner)

    def outer():
        return inner() + inner()

    outer = tr.wrap("outer", outer)
    assert outer() == 2
    s = tr.summary()
    # outer spans 0..6; inner spans 1..3 and 4..4.5
    assert s["inner"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert s["outer"] == {"calls": 1, "s": 6.0, "self_s": 3.5}


def test_recursive_span_counts_outermost_time_once():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tr = Tracer(clock=lambda: next(ticks))

    def f(n):
        return f(n - 1) if n else 0

    f = tr.wrap("f", f)
    f(1)
    assert tr.summary()["f"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


def test_install_rebinds_aliases_and_reports_absent_names():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def helper(x):
        return x + 1

    pkg.helper = helper
    sub.helper = helper  # as after `from . import helper`
    sys.modules.update({"fakepkg": pkg, "fakepkg.sub": sub})
    try:
        tr = Tracer()
        tr.install({"h": ["fakepkg.helper", "fakepkg.sub.helper", "fakepkg.gone"]}, prefix="fakepkg")
        assert sub.helper(1) == 2 and pkg.helper(2) == 3
        assert tr.summary()["h"]["calls"] == 2
        assert tr.absent == ["fakepkg.gone"]
        tr.uninstall()
        assert pkg.helper is helper and sub.helper is helper
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


@pytest.mark.parametrize("la,lb,nout", [(0, 3, 4), (3, 0, 4), (1, 1, 1), (5, 3, 7), (5, 3, 4), (3, 5, 20), (6, 6, 2)])
def test_schoolbook_cells(la, lb, nout):
    brute = sum(max(0, min(lb, nout - i)) for i in range(min(la, nout)))
    assert layers.schoolbook_cells(la, lb, nout) == brute


def test_speed_meter_removes_rounds_and_scales_by_their_median():
    meter = speed.SpeedMeter()
    meter.rounds = [(0.0, 0.002), (1.0, 0.001), (1.5, 0.003), (3.0, 0.002)]
    assert meter.work_seconds(0.9, 2.0) == pytest.approx(1.1 - 0.004)
    # rounds within WINDOW_S of [0.9, 2.0): 0.001 and 0.003
    want = 1.096 * (speed.CALIB_REF_S / 0.002) ** speed.SPEED_EXPONENT
    assert meter.at_reference_speed(0.9, 2.0) == pytest.approx(want)


def test_speed_meter_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(meter.rounds) >= 2 * meter.EDGE_ROUNDS


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(32))
    value, pct = bench.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100 * 22 / 32)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a.tasks == b.tasks
        assert [t.key for t in a.pass_order()] == [t.key for t in b.pass_order()]
    keys = [t.key for t in workloads.build("verify_corpus", 8).tasks]
    assert keys != [t.key for t in workloads.build("verify_corpus", 7).tasks]


def _run(task):
    return {task.key: task.run()}


def test_correct_outputs_pass_their_checks():
    spec = corpus.load("rogers_mod5_1_4")
    tasks = [
        workloads.product_task(spec, 40),
        workloads.verify_task(spec, 30),
        workloads.nahm_task(workloads.A3, (Fraction(0),) * 3, 12),
    ]
    outputs = {}
    for t in tasks:
        outputs.update(_run(t))
    assert workloads.check_outputs(tasks, outputs) == {}


def _perturb(series, exp):
    c = series.coeffs.get(exp, GaussianInt(0, 0))
    series.coeffs[exp] = GaussianInt(c.re + 1, c.im)


def test_one_perturbed_coefficient_fails_the_check():
    spec = corpus.load("double_mod5_1_4")
    product = workloads.product_task(spec, 40)
    nahm = workloads.nahm_task(*workloads.random_form(random.Random(3), 2), 15)
    outputs = {**_run(product), **_run(nahm)}
    _perturb(outputs[product.key], 4 * 17)  # den 4: q^17
    _perturb(outputs[nahm.key], min(outputs[nahm.key].coeffs))
    failed = workloads.check_outputs([product, nahm], outputs)
    assert sorted(failed) == sorted([product.key, nahm.key])
    assert len(failed) / 2 > 0


def test_a_raising_check_counts_as_a_failure():
    task = workloads.verify_task(corpus.load("rogers_mod5_1_4"), 20)
    failed = workloads.check_outputs([task], {task.key: None})
    assert list(failed) == [task.key] and "AttributeError" in failed[task.key]
    assert workloads.check_outputs([task], {}) == {task.key: "no output"}


def test_rogers_szego_pair_disagreement_fails():
    from qrr.series import qmono

    q = qmono(1)
    a = workloads.Task("rs_def n=4 @20", "rogers_szego_def", (4, q, 20))
    b = workloads.Task("rs_bw n=4 @20", "rogers_szego_bw", (4, q, 20))
    outputs = {**_run(a), **_run(b)}
    assert workloads.check_outputs([a, b], outputs) == {}
    _perturb(outputs[b.key].coeff[1], 1)
    assert sorted(workloads.check_outputs([a, b], outputs)) == sorted([a.key, b.key])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
