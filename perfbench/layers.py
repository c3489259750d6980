"""The `qrr` layers the tracer wraps, the counters taken at their boundaries,
and the per-layer metrics derived from a traced run.

Every target is a dotted name; the tracer reports one that no longer resolves
as absent.  Counters are taken from call arguments and results only, so the
engine itself is unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Tuple

from perfbench.tracer import Tracer

# span name -> dotted targets
TARGETS: Dict[str, List[str]] = {
    "kernel.conv_real": ["qrr._backend.conv_real", "qrr._kernel_py.conv_real"],
    "kernel.conv_complex": ["qrr._backend.conv_complex", "qrr._kernel_py.conv_complex"],
    "series.mul": ["qrr.series.QSeries.mul"],
    "series.add": ["qrr.series.QSeries.__add__"],
    "series.binomial": ["qrr.series.mul_binomial", "qrr.series.div_binomial"],
    "series.invert": ["qrr.series.QSeries.invert_unit"],
    "series.shift_scale": [
        "qrr.series.QSeries.shift",
        "qrr.series.QSeries.scale",
        "qrr.series.QSeries.truncate",
        "qrr.series.QSeries.substitute_power",
    ],
    "series.poch": ["qrr.series.poch_finite", "qrr.series.poch_infinite", "qrr.series.inv_poch_table"],
    "series.compare": ["qrr.series.QSeries.first_difference"],
    "identity.verify": ["qrr.identity.verify"],
    "identity.eval_sum": ["qrr.identity.eval_sum"],
    "identity.eval_product": ["qrr.identity.eval_product"],
    # sum-side exponent evaluation per lattice point, in eval_sum and nahm_series
    "identity.exponent_eval": ["qrr.identity.ExponentPoly.eval", "qrr.special.NahmData.exponent"],
    "quadform.bounds": ["qrr.quadform.certified_min_eigenvalue", "qrr.quadform.enumeration_radius"],
    "zseries.mul": ["qrr.zseries.ZSeries.__mul__"],
    "zseries.add": ["qrr.zseries.ZSeries.__add__"],
    "zseries.ct": ["qrr.zseries.ZSeries.ct"],
    "zseries.build": ["qrr.zseries.theta_z", "qrr.zseries.euler_z_inverse", "qrr.zseries.euler_z_product"],
    "zseries.compare": ["qrr.zseries.ZSeries.first_difference"],
    "special.gaussian_binomial": ["qrr.special.gaussian_binomial"],
    "special.rogers_szego": ["qrr.special.rogers_szego_def", "qrr.special.rogers_szego_bw"],
    "special.nahm": ["qrr.special.nahm_series"],
    "special.hypergeometric_sum": ["qrr.special.hypergeometric_sum"],
    "special.jtp": ["qrr.special.jtp_check"],
    "replay.run": ["qrr.replay.replay"],
    "replay.step_done": ["qrr.replay._Chain._add"],
    "corpus.load": ["qrr.corpus.load"],
}

# stored terms at or below which QSeries.mul takes the direct sparse loop
SPARSE_TERMS = 12

REPLAY_STEPS = {"1.5": 6, "1.6": 6, "1.7": 3, "1.8": 5}

# (metric, unit, better) in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("kernel.conv_real.calls", "count", "lower"),
    ("kernel.conv_real.self_s", "s", "lower"),
    ("kernel.conv_complex.calls", "count", "lower"),
    ("kernel.conv_complex.self_s", "s", "lower"),
    ("kernel.cells", "count", "lower"),
    ("kernel.input_density", "ratio", "higher"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.sparse_share", "ratio", "higher"),
    ("series.add.self_s", "s", "lower"),
    ("series.binomial.calls", "count", "lower"),
    ("series.binomial.self_s", "s", "lower"),
    ("series.invert.self_s", "s", "lower"),
    ("series.shift_scale.self_s", "s", "lower"),
    ("series.poch.self_s", "s", "lower"),
    ("series.compare.self_s", "s", "lower"),
    ("identity.eval_sum.calls", "count", "lower"),
    ("identity.eval_sum.self_s", "s", "lower"),
    ("identity.exponent_eval.self_s", "s", "lower"),
    ("identity.points_visited", "count", "lower"),
    ("identity.points_kept", "count", "lower"),
    ("identity.keep_ratio", "ratio", "higher"),
    ("identity.eval_product.self_s", "s", "lower"),
    ("identity.verify.calls", "count", "lower"),
    ("quadform.bounds.calls", "count", "lower"),
    ("quadform.bounds.s", "s", "lower"),
    ("zseries.mul.calls", "count", "lower"),
    ("zseries.mul.self_s", "s", "lower"),
    ("zseries.slice_muls", "count", "lower"),
    ("zseries.ct.self_s", "s", "lower"),
    ("zseries.build.self_s", "s", "lower"),
    ("zseries.add.self_s", "s", "lower"),
    ("zseries.compare.self_s", "s", "lower"),
    ("special.gaussian_binomial.calls", "count", "lower"),
    ("special.gaussian_binomial.self_s", "s", "lower"),
    ("special.rogers_szego.self_s", "s", "lower"),
    ("special.nahm.self_s", "s", "lower"),
    ("special.hypergeometric_sum.self_s", "s", "lower"),
    ("special.jtp.s", "s", "lower"),
]
PER_LAYER += [
    ("replay.%s.step%d.s" % (theorem, k), "s", "lower")
    for theorem, steps in REPLAY_STEPS.items()
    for k in range(1, steps + 1)
]
PER_LAYER += [
    ("replay.eval_sum.calls", "count", "lower"),
    ("corpus.load.s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def schoolbook_cells(la: int, lb: int, nout: int) -> int:
    """Multiply-adds of a schoolbook product of lengths la, lb truncated to nout:
    sum over i < min(la, nout) of min(lb, nout - i)."""
    m = min(la, nout)
    if m <= 0 or lb <= 0:
        return 0
    full = max(0, min(m, nout - lb + 1))  # rows that use all of b
    rest = m - full
    return full * lb + rest * nout - (full + m - 1) * rest // 2


class Counters:
    """Work counted at layer boundaries while the tracer is installed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.n = defaultdict(int)
        self.step_s: Dict[str, float] = defaultdict(float)
        self.sparse_unknown = False
        self._order = Fraction(0)
        self._mark = 0.0

    def hooks(self) -> dict:
        return {
            "kernel.conv_real": (self._conv_real, None),
            "kernel.conv_complex": (self._conv_complex, None),
            "series.mul": (self._series_mul, None),
            "identity.eval_sum": (self._eval_sum_start, None),
            "special.nahm": (self._nahm_start, None),
            "identity.exponent_eval": (None, self._point),
            "replay.run": (self._chain_start, None),
            "replay.step_done": (self._step_done, None),
        }

    def _kernel_args(self, la, lb, nout, nonzero):
        self.n["cells"] += schoolbook_cells(la, lb, nout)
        self.n["entries"] += la + lb
        self.n["nonzero"] += nonzero

    def _conv_real(self, args):
        a, b, nout = args
        self._kernel_args(len(a), len(b), nout, len(a) - a.count(0) + len(b) - b.count(0))

    def _conv_complex(self, args):
        ar, ai, br, bi, nout = args
        nonzero = sum(1 for x, y in zip(ar, ai) if x or y) + sum(1 for x, y in zip(br, bi) if x or y)
        self._kernel_args(len(ar), len(br), nout, nonzero)

    def _series_mul(self, args):
        try:
            small = min(len(args[0].coeffs), len(args[1].coeffs)) <= SPARSE_TERMS
        except (AttributeError, TypeError, IndexError):
            self.sparse_unknown = True
            return
        self.n["mul_sparse"] += small

    def _eval_sum_start(self, args):
        self._order = Fraction(args[1])
        if self.tracer.depth["replay.run"]:
            self.n["replay_eval_sum"] += 1

    def _nahm_start(self, args):
        self._order = Fraction(args[1])

    def _point(self, args, exponent):
        depth = self.tracer.depth
        if depth["identity.eval_sum"] or depth["special.nahm"]:
            self.n["visited"] += 1
            self.n["kept"] += exponent <= self._order

    def _chain_start(self, args):
        self._mark = self.tracer.clock()

    def _step_done(self, args):
        chain = args[0]
        now = self.tracer.clock()
        self.step_s["replay.%s.step%d.s" % (chain.theorem, len(chain.steps) + 1)] += now - self._mark
        self._mark = now

    def clear(self):
        self.n.clear()
        self.step_s.clear()


def layer_metrics(tracer: Tracer, counters: Counters, passes: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics per traced pass, plus `extra` values taken as given."""
    s = tracer.summary()
    n = counters.n

    def get(span, field):
        return s.get(span, {}).get(field, 0)

    out: Dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        span, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "s") and span in TARGETS:
            out[metric] = get(span, field) / passes
    out["kernel.cells"] = n["cells"] / passes
    out["kernel.input_density"] = n["nonzero"] / n["entries"] if n["entries"] else 0.0
    calls = get("series.mul", "calls")
    out["series.mul.sparse_share"] = n["mul_sparse"] / calls if calls and not counters.sparse_unknown else 0.0
    out["identity.points_visited"] = n["visited"] / passes
    out["identity.points_kept"] = n["kept"] / passes
    out["identity.keep_ratio"] = n["kept"] / n["visited"] if n["visited"] else 0.0
    out["zseries.slice_muls"] = tracer.count_children("series.mul", "zseries.mul") / passes
    out["replay.eval_sum.calls"] = n["replay_eval_sum"] / passes
    for theorem, steps in REPLAY_STEPS.items():
        for k in range(1, steps + 1):
            name = "replay.%s.step%d.s" % (theorem, k)
            out[name] = counters.step_s.get(name, 0.0) / passes
    missing = [m for m, _, _ in PER_LAYER if m not in out]
    if missing:
        raise KeyError("per-layer metrics without a source: %s" % missing)
    return out
