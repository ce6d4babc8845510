"""zonalpoly benchmark: cold-start CLI and library ops, checked from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op of a workload runs in a fresh interpreter (``worker.py``), so it
pays the cold ``lru_cache`` cost that every ``zonalpoly`` invocation pays.
The workload's op list is repeated in passes for about ``--seconds``
seconds, and every time is a median over the repetitions, scaled to a
reference machine speed measured by a probe in every worker.  Every op's
output is checked by ``checks.py`` and its stdout digest must not change
between repetitions; an op that fails either way counts in ``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` passes alternate between
untraced and traced (``spans.py``), and it carries the per-layer metrics.
The lines before it, starting with ``#``, show every metric by name and
unit, including the ones that apply to one workload only, plus the seed
and the environment.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_FAILED = 3
OP_TIMEOUT_S = 150
#: Passes that run even when --seconds is short (in a traced run, one untraced
#: and one traced), so the determinism guard always has a repetition to compare.
MIN_PASSES = 2
#: Reference speed: the machine is taken to run ``worker.probe_s``'s
#: computation in this many seconds.
REF_S = 0.1


@dataclass(frozen=True)
class Op:
    """One user-facing call: a CLI command or one library function's calls."""

    id: str
    group: str  # table, verify, estimate or exact
    spec: dict
    check: Callable[[int, str], str | None]
    samples: int = 0


def cli_op(op_id: str, group: str, argv: list[str], check, samples: int = 0) -> Op:
    return Op(op_id, group, {"argv": argv}, check, samples)


def lib_op(op_id: str, fn: str, calls: list, check) -> Op:
    return Op(op_id, "exact", {"fn": fn, "calls": calls}, lambda code, out: check(code, out, calls))


#: Eigenvalue pools: p/q with 1 <= p <= 9 and 1 <= q <= 4 (25 distinct
#: values), and p/4 <= 1 for exp-series, whose series is truncated at
#: degree 12 and needs a small sum a_i b_i.
POOL = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 5)})
UNIT_POOL = [Fraction(p, 4) for p in range(1, 5)]


def spectrum(rng: random.Random, n: int, pool: list[Fraction] = POOL) -> list[str]:
    """n eigenvalues from ``pool``, distinct while the pool allows.

    A scalar spectrum would make the Monte Carlo integrand constant: its
    sample variance is then rounding noise and its z-score meaningless.
    """
    k = min(n, len(pool))
    return [str(v) for v in rng.sample(pool, k) + rng.choices(pool, k=n - k)]


def joined(values: list[str]) -> str:
    return ",".join(values)


# ---------------------------------------------------------------------------
# Workloads.  The seed only makes inputs: rational spectra and MC seeds.
# Structural sizes (degrees, dimensions, sample counts) are fixed, so the
# work done is the same for every seed.
# ---------------------------------------------------------------------------


def tables(rng: random.Random) -> list[Op]:
    """Row recursion (zonal) and basis change (symfunc.m_to_p) only.

    The degree-12 power-sum table spends most of its time in the
    Gauss-Jordan basis change; the monomial table and verify run the
    recursion without it.  No evaluation, no sampling.  The tables take
    no seeded input.
    """
    ops = [
        cli_op(
            f"table-f{f}-powersum",
            "table",
            ["table", "--f", str(f), "--basis", "powersum", "--format", "json"],
            lambda code, out, f=f: checks.check_powersum_table(code, out, f),
        )
        for f in (10, 11, 12)
    ]
    ops.append(
        cli_op(
            "table-f12-monomial",
            "table",
            ["table", "--f", "12", "--basis", "monomial", "--format", "json"],
            lambda code, out: checks.check_monomial_table(code, out, 12),
        )
    )
    ops.append(
        cli_op(
            "verify-f1-12",
            "verify",
            ["verify", "--f", "1..12"],
            lambda code, out: checks.check_verify(code, out, range(1, 13)),
        )
    )
    return ops


def exact_moments(rng: random.Random) -> list[Op]:
    """Monomial-orbit evaluation and Z_kappa(I_n): the exact integrals.

    Rows are of degree <= 10, so recursion and basis change stay small;
    the cost grows with n through the orbit enumeration, and the
    bilinear sweep repeats Z_kappa(I_n) for every pair.  No sampling.
    """
    spectra = {n: (spectrum(rng, n), spectrum(rng, n)) for n in (4, 8, 10)}
    ops = [
        lib_op(
            f"integral-n{n}",
            "exact_trace_power_integral",
            [[a, b, 1], [a, b, 6]],
            checks.check_trace_integrals,
        )
        for n, (a, b) in spectra.items()
    ]
    a4, b4 = spectra[4]
    ops.append(lib_op("hyper0f0-n4", "hyper0f0", [[a4, b4, 10]], checks.check_hyper0f0))
    ops.append(
        lib_op(
            "zonal-at-identity-f6-n10",
            "zonal_at_identity",
            [[list(k), 10] for k in checks.partitions(6)],
            checks.check_zonal_at_identity,
        )
    )
    parts = checks.partitions(6)
    ops.append(
        lib_op(
            "bilinear-f6-n5",
            "bilinear_coefficient",
            [[6, 5, list(g), list(h)] for g in parts for h in parts],
            checks.check_bilinear,
        )
    )
    return ops


def estimate_op(kind: str, args: list[str], samples: int, seed: int, threads: int) -> Op:
    argv = ["estimate", kind, *args, "--samples", str(samples), "--seed", str(seed), "--threads", str(threads)]
    return cli_op(
        f"estimate-{kind}",
        "estimate",
        argv,
        lambda code, out: checks.check_estimate(code, out, samples),
        samples,
    )


def mc_small_n(rng: random.Random) -> list[Op]:
    """Cheap draws at n = 3, so reduction and array traffic dominate.

    Large sample counts make any per-chunk overhead of a chunked driver
    show.  exp-series uses spectra in (0, 1], so the degree-12 truncation
    error stays far below the sampling error.
    """
    samples, threads = 1_000_000, 1
    a, b = spectrum(rng, 3), spectrum(rng, 3)
    ea, eb = spectrum(rng, 3, UNIT_POOL), spectrum(rng, 3, UNIT_POOL)
    return [
        estimate_op("trace-power", ["--f", "3", "--A", joined(a), "--B", joined(b)], samples, rng.randrange(2**31), threads),
        estimate_op("zonal-split", ["--kappa", "2,1", "--A", joined(a), "--B", joined(b)], samples, rng.randrange(2**31), threads),
        estimate_op("trace-AH", ["--f", "4", "--A", joined(a)], samples, rng.randrange(2**31), threads),
        estimate_op("exp-series", ["--A", joined(ea), "--B", joined(eb)], samples, rng.randrange(2**31), threads),
    ]


def mc_large_n(rng: random.Random) -> list[Op]:
    """The 435 plane rotations per draw at n = 30 dominate.

    It has the largest (count, n, n) stacks, where a streaming driver's
    memory saving and a vectorized sweep would show, and it runs the
    two-shard thread path.
    """
    samples, threads = 8_000, 2
    a, b = spectrum(rng, 30), spectrum(rng, 30)
    return [
        estimate_op("trace-power", ["--f", "2", "--A", joined(a), "--B", joined(b)], samples, rng.randrange(2**31), threads),
        estimate_op("trace-AH", ["--f", "2", "--A", joined(a)], samples, rng.randrange(2**31), threads),
        estimate_op("zonal-split", ["--kappa", "2,1", "--A", joined(a), "--B", joined(b)], samples, rng.randrange(2**31), threads),
    ]


WORKLOADS = {
    "tables": tables,
    "exact-moments": exact_moments,
    "mc-small-n": mc_small_n,
    "mc-large-n": mc_large_n,
}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class MeasurementError(RuntimeError):
    """Nothing can be measured: zonalpoly is missing, or an op never ran."""


@dataclass
class Result:
    """One run of one op, with raw times in seconds."""

    op: Op
    traced: bool
    recorded: bool = False
    setup_s: float = 0.0
    op_s: float = 0.0
    probe_s: tuple[float, ...] = ()
    peak_rss_mb: float = 0.0
    digest: str = ""
    trace: dict | None = None
    failure: str | None = None


def run_op(op: Op, traced: bool) -> Result:
    result = Result(op, traced)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(op.spec), "1" if traced else "0"],
            capture_output=True,
            timeout=OP_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        result.failure = f"no result within {OP_TIMEOUT_S} s"
        return result
    if proc.returncode == SETUP_FAILED:
        raise MeasurementError(proc.stderr.decode(errors="replace").strip())
    lines = proc.stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith("PERFBENCH_RECORD "):
        result.failure = f"exit code {proc.returncode} without a record: {lines[-1:]}"
        return result
    record = json.loads(lines[-1].split(" ", 1)[1])
    result.recorded = True
    result.setup_s = record["ready"] - spawned
    result.op_s = record["op_s"]
    result.probe_s = tuple(record["probe_s"])
    result.peak_rss_mb = record["peak_rss_kb"] / 1024
    result.trace = record.get("trace")
    result.digest = hashlib.sha256(proc.stdout).hexdigest()
    try:
        result.failure = op.check(record["code"], proc.stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result.failure = f"unreadable output: {exc!r}"
    return result


def measure(ops: list[Op], seconds: float, trace: bool) -> list[list[Result]]:
    """Run passes over ``ops`` while the next op is expected to fit in ``seconds``.

    An untraced run may stop inside a pass.  A traced run stops only
    between passes, because its layer metrics are sums over whole passes.
    """
    start = time.monotonic()
    longest: dict[str, float] = {}
    passes: list[list[Result]] = []

    def fits(cost: float) -> bool:
        return time.monotonic() - start + cost <= seconds

    while len(passes) < MIN_PASSES or fits(sum(longest.values()) if trace else min(longest.values())):
        traced = trace and len(passes) % 2 == 1
        results: list[Result] = []
        passes.append(results)
        for op in ops:
            if len(passes) > MIN_PASSES and not trace and not fits(longest[op.id]):
                return passes
            began = time.monotonic()
            results.append(run_op(op, traced))
            longest[op.id] = max(longest.get(op.id, 0.0), time.monotonic() - began)
    return passes


def guard_determinism(passes: list[list[Result]]) -> None:
    """An op whose stdout digest differs from its first run has failed."""
    first: dict[str, str] = {}
    for results in passes:
        for r in results:
            if r.failure is None and first.setdefault(r.op.id, r.digest) != r.digest:
                r.failure = "stdout differs from the first repetition with the same inputs"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def speed_scale(passes: list[list[Result]]) -> float:
    """Factor from raw seconds to seconds at reference speed for this run.

    The mean over every probe in the run estimates how much of the run the
    machine spent in its slow and fast states; see README.md.
    """
    return REF_S / statistics.mean(t for rs in passes for r in rs for t in r.probe_s)


def _per_op(results: list[Result], value: Callable[[Result], float], reduce=statistics.median) -> dict[str, float]:
    """Per op id, ``reduce`` over the values of its runs."""
    values: dict[str, list[float]] = {}
    for r in results:
        values.setdefault(r.op.id, []).append(value(r))
    return {op_id: reduce(v) for op_id, v in values.items()}


def end_to_end(ops: list[Op], passes: list[list[Result]], scale: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric that applies to this workload, with its unit."""
    results = [r for results in passes for r in results]
    timed = [r for r in results if r.recorded]
    plain = [r for r in timed if not r.traced]
    raw_op_s = _per_op(plain, lambda r: r.op_s)
    op_s = {op_id: t * scale for op_id, t in raw_op_s.items()}
    missing = [op.id for op in ops if op.id not in op_s]
    if missing:
        raise MeasurementError(f"no untraced run of {missing} produced a record")
    group_s: dict[str, float] = {}
    for op in ops:
        group_s[op.group] = group_s.get(op.group, 0.0) + op_s.get(op.id, 0.0)
    raw_setup_s = statistics.median(r.setup_s for r in timed)
    metrics = {
        "setup_s": (raw_setup_s * scale, "s"),
        "wall_s": (sum(op_s.values()), "s"),
        # Mean, not median: with two threads the peak takes a few discrete
        # levels, depending on how the shards' arrays overlap.
        "peak_rss_mb": (max(_per_op(plain, lambda r: r.peak_rss_mb, statistics.mean).values()), "MB"),
        "error_rate": (sum(r.failure is not None for r in results) / len(results), "ratio"),
    }
    for group in ("table", "verify"):
        if group in group_s:
            metrics[f"{group}_s"] = (group_s[group], "s")
    if "estimate" in group_s:
        samples = sum(op.samples for op in ops)
        metrics["samples_per_s"] = (samples / group_s["estimate"], "1/s")
    metrics["raw_wall_s"] = (sum(raw_op_s.values()), "s")
    metrics["raw_setup_s"] = (raw_setup_s, "s")
    metrics["probe_s"] = (REF_S / scale, "s")
    return metrics


def _pass_layers(results: list[Result], scale: float) -> dict:
    layers: dict = {}
    counters: dict = {}
    caches: dict = {}
    for r in results:
        if not r.recorded:
            continue
        for name, entry in r.trace["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"] * scale
        for name, value in r.trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, (hits, misses) in r.trace["caches"].items():
            old = caches.get(name, (0, 0))
            caches[name] = (old[0] + hits, old[1] + misses)
    return {"layers": layers, "counters": counters, "caches": caches}


def layer_metric(name: str, agg: dict) -> float:
    """One per-layer metric from one traced pass, by its BENCHMARK.json name."""
    if name in ("moments.mc.resampled", "haar.sample_orthogonal_batch.draws", "haar.sample_orthogonal_batch.bytes_computed"):
        return agg["counters"].get(name, 0)
    base, stat = name.rsplit(".", 1)
    layers = agg["layers"]
    if base == "moments.mc" and stat == "self_s":
        return sum(e["self_s"] for n, e in layers.items() if n.startswith("moments.mc_"))
    if stat == "draws_per_s":
        busy = layers.get(base, {}).get("self_s", 0.0)
        return agg["counters"].get(f"{base}.draws", 0) / busy if busy else 0.0
    if stat == "cache_hit_ratio":
        hits, misses = agg["caches"][base]
        return hits / (hits + misses) if hits + misses else 0.0
    if stat in ("calls", "self_s"):
        return layers.get(base, {}).get(stat, 0)
    raise KeyError(f"no rule computes the per-layer metric {name!r}")


def per_layer(names: list[str], passes: list[list[Result]], scale: float) -> dict[str, float]:
    traced = [results for results in passes if results[0].traced]
    plain = [results for results in passes if not results[0].traced]
    aggs = [_pass_layers(results, scale) for results in traced]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            traced_wall = statistics.median(sum(r.op_s for r in rs) for rs in traced)
            plain_wall = statistics.median(sum(r.op_s for r in rs) for rs in plain)
            out[name] = traced_wall / plain_wall - 1.0
        else:
            out[name] = statistics.median(layer_metric(name, agg) for agg in aggs)
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "profiling": "user space only: wall-clock spans around wrapped functions; "
        "no machine-level profiler (hardware counters, perf, eBPF) is available",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zonalpoly" / "cli.py").is_file():
        print(f"zonalpoly sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(ROOT / "src", quiet=1)

    ops = WORKLOADS[args.workload](random.Random(args.seed))
    try:
        passes = measure(ops, args.seconds, bool(args.trace))
        guard_determinism(passes)
        scale = speed_scale(passes)
        summary = end_to_end(ops, passes, scale)
    except MeasurementError as exc:
        print(f"nothing measured: {exc}", file=sys.stderr)
        return 2
    results = [r for rs in passes for r in rs]
    failures = [(r.op.id, r.failure) for r in results if r.failure is not None]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, passes, scale)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {name: unit for name, (_v, unit) in summary.items()}
        values = {name: summary[name][0] for name in names}

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  ops/pass {len(ops)}")
    for name, (value, unit) in summary.items():
        print(f"# {name} {value} {unit}")
    if args.trace:
        for name in names:
            print(f"# {name} {values[name]} {units[name]}")
    for op in ops:
        runs = [r for r in results if r.op is op and r.recorded and not r.traced]
        times = " ".join(f"{r.op_s:.4f}" for r in runs)
        probes = " ".join(f"{t:.4f}" for r in runs for t in r.probe_s)
        rss = " ".join(f"{r.peak_rss_mb:.1f}" for r in runs)
        print(f"# op {op.id} op_s {times} probe_s {probes} peak_rss_mb {rss}")
    for op_id, reason in failures:
        print(f"# FAILED {op_id}: {reason}")
    print(
        "# "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "inputs": [op.spec for op in ops],
                "environment": environment(),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
