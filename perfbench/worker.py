"""Run one benchmark op in a fresh interpreter, so every cache starts cold.

Usage: python3 perfbench/worker.py '<op as JSON>' <trace: 0 or 1>

An op is either ``{"argv": [...]}``, one ``zonalpoly`` CLI invocation, or
``{"fn": name, "calls": [[arg, ...], ...]}``, calls of one public library
function whose results are printed as one JSON list (rationals as strings
such as ``3/8``).  The op's output goes to stdout unchanged.  The last line
on stderr is ``PERFBENCH_RECORD <json>`` with the clock readings the
parent needs; exit code 3 means ``zonalpoly`` could not be imported.
"""

import gc
import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_FAILED = 3


def _encode(value):
    if hasattr(value, "terms"):  # moments.SeriesResult
        return {
            "value": repr(value.value),
            "terms": [str(t) for t in value.terms],
            "tail_bound": None if value.tail_bound is None else repr(value.tail_bound),
        }
    return str(value)


def _peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM).

    ``getrusage``'s ``ru_maxrss`` survives exec on Linux, so it would
    report the parent's size whenever the parent is the larger process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def probe_s() -> float:
    """Seconds taken by a fixed computation: a probe of the machine's speed.

    Rational and integer arithmetic in the interpreter, like the exact
    paths, plus small in-cache NumPy work, like the samplers.  It
    allocates almost nothing, so it leaves the op's peak RSS alone, and
    the garbage collector is paused so the op's heap does not slow it.
    """
    import numpy as np

    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 12_000):
            acc += Fraction(i % 97 + 1, i % 13 + 1)
        x = 0
        for i in range(220_000):
            x += i * i % 7
        a = np.linspace(0.0, 1.0, 10_000)
        for _ in range(300):
            a = np.cos(a) * 0.5
        return time.perf_counter() - start
    finally:
        gc.enable()


def _run(cli, op) -> int:
    if "argv" in op:
        try:
            cli.main.main(args=op["argv"], prog_name="zonalpoly")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return 0
    import zonalpoly

    fn = getattr(zonalpoly, op["fn"])
    print(json.dumps([_encode(fn(*args)) for args in op["calls"]]))
    return 0


def main() -> int:
    op = json.loads(sys.argv[1])
    traced = sys.argv[2] == "1"
    try:
        import zonalpoly.cli as cli
    except ImportError as exc:
        print(f"PERFBENCH_SETUP_FAILED {exc}", file=sys.stderr)
        return SETUP_FAILED
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    probe_before = probe_s()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = _run(cli, op)
    sys.stdout.flush()
    op_s = time.perf_counter() - start
    peak_rss_kb = _peak_rss_kb()

    record = {
        "ready": ready,
        "op_s": op_s,
        "code": code,
        "peak_rss_kb": peak_rss_kb,
        "probe_s": [probe_before, probe_s()],
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    print("PERFBENCH_RECORD " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
