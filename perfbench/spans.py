"""User-space span tracing of zonalpoly's public functions.

``Tracer.install`` wraps every public function of the ``partitions``,
``symfunc``, ``zonal``, ``moments`` and ``haar`` modules at every name it
is bound under (its own module, the modules that import it, and the
package namespace), the ``table``/``verify``/``estimate`` CLI callbacks,
and ``SymPoly.evaluate``, whose spans are split by basis.  Each call
records one span (name, start, end, parent).  Spans stay in memory and
``summary`` reduces them to per-name call counts and self times when the
op ends.

Self time is a span's duration minus the union of its child spans.  The
Monte Carlo drivers shard work over ``concurrent.futures`` threads, so
the tracer also replaces ``moments.ThreadPoolExecutor``: a task submitted
from inside a span runs with that span as its parent, and spans on the
worker threads count as children of the span that submitted them.

Timing is wall clock from ``time.perf_counter`` inside the process; no
machine-level profiler (hardware counters, eBPF, perf) is used.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Modules whose public functions get spans; ``reference`` is static data.
TRACED_MODULES = ("partitions", "symfunc", "zonal", "moments", "haar")
CLI_COMMANDS = ("table", "verify", "estimate")
#: Memoized functions whose ``cache_info()`` is reported.
CACHED = ("symfunc.p_to_m", "zonal.zonal_row")
MC_PREFIX = "moments.mc_"


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans around zonalpoly calls in one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list = []
        self._originals: dict = {}
        self.counters: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            idx = len(self._spans)
            self._spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, after=None):
        """A stand-in for ``fn`` that records a span, then runs ``after``."""
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_draws(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            n, count = int(bound.arguments["n"]), int(bound.arguments["count"])
            with self._lock:  # the MC shards sample on several threads at once
                self.counters["haar.sample_orthogonal_batch.draws"] += count
                self.counters["haar.sample_orthogonal_batch.bytes_computed"] += count * n * n * 8

        return after

    def _count_resampled(self, args, kwargs, result) -> None:
        with self._lock:
            self.counters["moments.mc.resampled"] += int(getattr(result, "resampled", 0))

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    own = tracer._stack()
                    saved = own[:]
                    own[:] = [] if parent is None else [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        own[:] = saved

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        package = importlib.import_module("zonalpoly")
        modules = {
            short: importlib.import_module(f"zonalpoly.{short}")
            for short in (*TRACED_MODULES, "cli")
        }
        wrappers = {}
        for short in TRACED_MODULES:
            module = modules[short]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                after = None
                if name == "haar.sample_orthogonal_batch":
                    after = self._count_draws(obj)
                elif name.startswith(MC_PREFIX):
                    after = self._count_resampled
                self._originals[name] = obj
                wrappers[id(obj)] = (obj, self.wrap(name, obj, after))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

        for command in CLI_COMMANDS:
            cmd = modules["cli"].main.commands[command]
            cmd.callback = self.wrap(f"cli.{command}", cmd.callback)

        sym_poly = modules["symfunc"].SymPoly
        evaluate = sym_poly.evaluate
        call = self.call

        def traced_evaluate(poly, xs):
            return call(f"symfunc.evaluate.{poly.basis}", evaluate, (poly, xs), {})

        sym_poly.evaluate = traced_evaluate
        modules["moments"].ThreadPoolExecutor = self._pool_class()

    def summary(self) -> dict:
        """Per-name calls and self time, counters and cache statistics."""
        spans = self._spans
        children = defaultdict(list)
        for span in spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        layers: dict = {}
        for idx, (name, start, end, _parent) in enumerate(spans):
            self_s = (end - start) - _covered(children.get(idx, ()), start, end)
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        caches = {}
        for name in CACHED:
            info = self._originals[name].cache_info()
            caches[name] = [info.hits, info.misses]
        return {"layers": layers, "counters": dict(self.counters), "caches": caches}
