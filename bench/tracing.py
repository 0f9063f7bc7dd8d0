"""Spans and counters installed from outside around torusskein's layers.

A traced child process calls ``Tracer.install()`` after importing the
package and before the first call into it.  Each wrapped function is
replaced in every torusskein module (or class) that holds a reference to
it, so calls through imported names are recorded too; for example
``assembly`` holds its own ``rotation_matrix``.  Spans are kept in memory as
(name, start, end, parent) and summarised when the child ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric stem -> (module, class or None, attribute); each call records a span
SPANNED = {
    "algebra.tracepoly_evaluate": ("algebra", "TracePoly", "evaluate"),
    "skein.resolve_states": ("skein", None, "resolve_states"),
    "sprime.quotient_coordinates": ("sprime", None, "quotient_coordinates"),
    "sprime.rotation_matrix": ("sprime", None, "rotation_matrix"),
    "sprime.basis_coordinates": ("sprime", None, "basis_coordinates"),
    "sprime.reduction_relation": ("sprime", None, "reduction_relation"),
    "sprime.rotation_exponents": ("sprime", None, "rotation_exponents"),
    "traces.series_table": ("traces", None, "series_table"),
    "traces.numeric_rep": ("traces", None, "numeric_rep"),
    "charvariety.admissible_pairs": ("charvariety", None, "admissible_pairs"),
    "assembly.verify_theorem": ("assembly", None, "verify_theorem"),
    "assembly.verify_dst": ("assembly", None, "verify_dst"),
    "cli.main": ("cli", None, "main"),
}

# metric stem -> (module, class, attribute); each call bumps a counter only
COUNTED = {
    "algebra.laurent_mul": ("algebra", "Laurent", "__mul__"),
    "algebra.laurent_add": ("algebra", "Laurent", "__add__"),
}

# metric stem -> (module, attribute) of an lru_cache whose cache_info is read
CACHED = {
    "sprime.rotation_matrix": ("sprime", "rotation_matrix"),
    "sprime.basis_coordinates": ("sprime", "basis_coordinates"),
    "sprime.reduction_relation": ("sprime", "reduction_relation"),
    "sprime.rotation_exponents": ("sprime", "rotation_exponents"),
    "traces.trace_word": ("traces", "trace_word"),
}

PACKAGE = "torusskein"


def _package_modules():
    return [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]


def _replace(orig, new, holders) -> None:
    """Point every name bound to ``orig`` in ``holders`` at ``new``."""
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, new)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.counts: dict = {stem: [0] for stem in COUNTED}
        self.states = {"crossings": 0, "slices": 0, "result_states": 0}
        self.caches: dict = {}

    def install(self) -> None:
        pkg = sys.modules[PACKAGE]
        for stem, (module, attr) in CACHED.items():
            self.caches[stem] = getattr(getattr(pkg, module), attr)
        for stem, (module, cls, attr) in SPANNED.items():
            self._wrap(module, cls, attr, lambda fn, stem=stem: self._span(stem, fn))
        for stem, (module, cls, attr) in COUNTED.items():
            self._wrap(module, cls, attr,
                       lambda fn, stem=stem: self._counter(self.counts[stem], fn))

    def _wrap(self, module, cls, attr, make) -> None:
        owner = getattr(sys.modules[f"{PACKAGE}.{module}"], cls) if cls else \
            sys.modules[f"{PACKAGE}.{module}"]
        orig = vars(owner)[attr]
        # a class attribute lives in one place (aliases such as
        # __rmul__ = __mul__ included); a function may be imported anywhere
        _replace(orig, make(orig), [owner] if cls else _package_modules())

    def _span(self, stem, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = self._count_states if stem == "skein.resolve_states" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (stem, start, end, parent)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    @staticmethod
    def _counter(cell, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _count_states(self, args, kwargs, result) -> None:
        tangle = kwargs["tangle"] if "tangle" in kwargs else args[0]
        self.states["crossings"] += tangle.crossings
        self.states["slices"] += len(tangle.slices)
        self.states["result_states"] += len(result)

    def summary(self) -> dict:
        """Per-layer figures of this process, keyed by metric name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for stem, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for idx, (stem, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{stem}.calls"] = out.get(f"{stem}.calls", 0) + 1
            out[f"{stem.split('.')[0]}.self_s"] += dur - covered[idx]
            # inclusive time: a span nested in one of the same name is already counted
            anc = parent
            while anc >= 0 and spans[anc][0] != stem:
                anc = spans[anc][3]
            if anc < 0:
                out[f"{stem}.busy_s"] += dur
        for stem, cell in self.counts.items():
            out[f"{stem}.calls"] = cell[0]
        for what, n in self.states.items():
            out[f"skein.resolve_states.{what}"] = n
        for stem, fn in self.caches.items():
            info = fn.cache_info()
            out[f"{stem}.hits"] = info.hits
            out[f"{stem}.misses"] = info.misses
        return dict(out)
