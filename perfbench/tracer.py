"""Span tracing of `qrr` from outside: wrap public functions and methods by
dotted name, record one span per call, and derive per-layer metrics.

A module-level function is rebound in every loaded `qrr.*` module that holds
the same function object, because `identity`, `special`, `replay` and
`zseries` import their helpers with `from .series import ...`; patching
`qrr.series` alone would miss their calls.  A method is rebound on its class.
A name that no longer resolves (for example after a refactor deletes a module)
is reported as absent, not as an error.

Spans stay in memory until `summary()`; a span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def resolve(dotted: str):
    """(owner, attribute name, object) for a dotted name, or None.

    The longest prefix that is a loaded module is taken as the module, so
    `qrr.replay.replay` resolves even though the package attribute
    `qrr.replay` is the function, not the submodule.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is None:
            continue
        owner = mod
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans of wrapped callables.

    `hooks` maps a span name to `(pre, post)` callables: `pre(args)` runs
    before the call and `post(args, result)` after it, both outside the
    span's timed interval.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # each span: [name, parent index or -1, start, end, nested], where
        # nested means an enclosing span has the same name
        self.spans: List[list] = []
        self._stack: List[int] = []
        # open spans per name
        self.depth: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []
        self._wrappers = set()
        self.absent: List[str] = []

    def wrap(self, name: str, fn, pre=None, post=None):
        spans, stack, depth, clock = self.spans, self._stack, self.depth, self.clock

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            d = depth[name]
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, d > 0]
            depth[name] = d + 1
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                depth[name] = d
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self._wrappers.add(traced)
        return traced

    def install(self, targets: Dict[str, List[str]], hooks: Optional[dict] = None, prefix: str = "qrr"):
        """Wrap every dotted name in `targets` ({span name: [dotted names]})."""
        hooks = hooks or {}
        for name, dotted_names in targets.items():
            pre, post = hooks.get(name, (None, None))
            for dotted in dotted_names:
                found = resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                    continue
                owner, attr, fn = found
                if fn in self._wrappers:
                    continue  # an alias of a target already wrapped
                wrapped = self.wrap(name, fn, pre, post)
                if isinstance(owner, type):
                    self._patch(owner, attr, fn, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != prefix and not mod_name.startswith(prefix + "."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    def clear(self):
        self.spans.clear()

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds of outermost spans, self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, parent, start, end, nested) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += end - start - child[idx]
            if not nested:
                agg["s"] += end - start
        return dict(out)

    def count_children(self, name: str, parent: str) -> int:
        """Spans called `name` whose direct parent span is called `parent`."""
        spans = self.spans
        return sum(1 for n, p, *_ in spans if n == name and p >= 0 and spans[p][0] == parent)
