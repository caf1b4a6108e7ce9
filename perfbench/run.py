"""fockgauge benchmark: one workload per invocation, measured in its own process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_pure --seed 1 --seconds 20 --trace 0

The command starts fresh interpreters with BLAS/OpenMP pinned to one thread:
a few `probe.py` processes that only time `import fockgauge` plus one
warm-up call (`setup_s`), then the workload process, which warms up, repeats whole passes over the
workload's input for `--seconds` seconds and checks every output against
`references.json`.  It prints one detail
line (environment, raw times, sample counts, failed fraction) and then, as
its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference host speed, measured in the same process by
timing a fixed kernel every 50 ms (see `hostspeed.py`); raw times are on the
detail line.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics per pass, with
times scaled the same way; the spans are written to `.bench_out/`.  Without
`src/fockgauge` next to this directory the command exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11  # fresh interpreters timed for setup_s
CHILD_TIMEOUT_S = 150
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _spawn(script: str, *arguments: str) -> dict:
    """Run a script of this directory in a fresh interpreter; return its last output line."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *arguments],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(arguments)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# inside the workload process
# ---------------------------------------------------------------------------


# Per-layer metrics read from spans: "<span name>.<calls|busy_s|self_s>".
SPAN_METRICS = (
    "states.random_state.calls",
    "states.approx_strong_field.calls",
    "states.state_from_spec.calls",
    "fock.normally_ordered_moment.calls",
    "moments.summarize.calls",
    "moments.ellipse.calls",
    "gauges.full_report.calls",
    "gauges.scan_bound.calls",
    "states.random_state.busy_s",
    "states.approx_strong_field.busy_s",
    "states.state_from_spec.busy_s",
    "fock.normally_ordered_moment.busy_s",
    "moments.ellipse.busy_s",
    "gauges.scan_bound.busy_s",
    "cli.format_csv.busy_s",
    "cli.dumps.busy_s",
    "moments.summarize.self_s",
    "gauges.full_report.self_s",
    "verify.sweep.self_s",
    "verify.figure_rows.self_s",
    "cli.run.self_s",
)


def _per_layer(untraced: list, traced: list) -> dict:
    """Per-pass means over the traced passes, times scaled to reference host speed."""
    from tracer import LAYERS, SPAN_NAMES, layer_of

    k = len(traced)
    spans = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for _, aggregate, f in traced:
        for name, values in aggregate.items():
            spans[name]["calls"] += values["calls"] / k
            spans[name]["busy_s"] += values["busy_s"] * f / k
            spans[name]["self_s"] += values["self_s"] * f / k
    metrics = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        metrics[metric] = spans[name][field]
    metrics["verify.skipped_fraction"] = (
        sum(p.skipped for p, _, _ in traced) / sum(p.attempted for p, _, _ in traced)
    )
    metrics["cli.bytes_out"] = sum(p.bytes_out for p, _, _ in traced) / k
    wall = sum(p.wall_s * f for p, _, f in traced) / k
    for layer in LAYERS:
        layer_self = sum(v["self_s"] for name, v in spans.items() if layer_of(name) == layer)
        metrics[f"{layer}.share"] = layer_self / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.unaccounted_s"] = wall - sum(v["self_s"] for v in spans.values())
    metrics["trace.overhead_s"] = statistics.median(p.wall_s * f for p, _, f in traced) - (
        statistics.median(p.wall_s * f for p, _, f in untraced)
    )
    for key, value in metrics.items():
        if key.endswith(".calls") or key == "cli.bytes_out":
            metrics[key] = round(value) if abs(value - round(value)) < 1e-9 else value
    return {"metrics": metrics, "traced_passes": k, "untraced_passes": len(untraced)}


def _measure(args: argparse.Namespace) -> None:
    import hostspeed
    import probe
    import workloads
    from tracer import Tracer

    workload = workloads.build(args.workload, args.seed, workloads.load_references())
    workload.load()
    probe.check_package()
    probe.warm_up(args.workload)

    untraced, traced = [], []  # (pass, spans or None, (begin, end))
    start = perf_counter()
    with hostspeed.HostSampler() as sampler:
        tracer = Tracer(sampler.clock)
        while not (untraced and perf_counter() - start >= args.seconds and (traced or not args.trace)):
            # With --trace 1, alternate so that both kinds of pass see the same host drift.
            trace = args.trace and len(untraced) > len(traced)
            lo, begin = len(tracer), sampler.clock()
            if trace:
                with tracer:
                    result = workload.run_pass(sampler.clock)
            else:
                result = workload.run_pass(sampler.clock)
            spans = tracer.aggregate(lo) if trace else None
            (traced if trace else untraced).append((result, spans, (begin, sampler.clock())))
    if args.trace:
        result = _per_layer(
            [(p, spans, sampler.scale(*interval)) for p, spans, interval in untraced],
            [(p, spans, sampler.scale(*interval)) for p, spans, interval in traced],
        )
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        result = _end_to_end(workload, [p for p, _, _ in untraced], sampler)
    passes = [p for p, _, _ in untraced + traced]
    result.update(
        pass_busy_s=[p.busy_s for p in passes],
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _end_to_end(workload, passes: list, sampler) -> dict:
    """End-to-end metrics; every request is scaled by the host speed around it."""
    scaled = [
        [lat * sampler.scale(t, t + lat) for t, lat in zip(p.starts_s, p.latencies_s)]
        for p in passes
    ]
    latencies = sorted(lat for lats in scaled for lat in lats)
    n = len(latencies)
    # p99 needs ten samples beyond it; with fewer, the slowest request stands in.
    tail_q = 0.99 if n >= 1000 else 1.0
    return {
        "metrics": {
            "items_per_s": statistics.median(p.attempted / sum(s) for p, s in zip(passes, scaled)),
            "request_p50_ms": 1e3 * statistics.median(latencies),
            "request_p99_ms": 1e3 * _percentile(latencies, tail_q),
        },
        "request": workload.request,
        "request_samples": n,
        "request_tail": "p99" if tail_q < 1.0 else f"max of {n}",
        "host_scale_per_pass": [sum(s) / p.busy_s for p, s in zip(passes, scaled)],
        "raw_items_per_s": statistics.median(p.attempted / p.busy_s for p in passes),
    }


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pinned_threads": PINNED_THREADS,
    }


def _unit(name: str) -> str:
    if name == "items_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "fraction")):
        return "ratio"
    return "B" if name.endswith("bytes_out") else "count"


def _run(args: argparse.Namespace) -> int:
    if not (SRC / "fockgauge" / "__init__.py").is_file():
        print(f"error: no fockgauge package under {SRC}", file=sys.stderr)
        return 2
    try:
        _spawn("probe.py", args.workload)  # discarded: writes bytecode, warms the file cache
        setups = [_spawn("probe.py", args.workload) for _ in range(SETUP_PROBES)]
        child = _spawn(
            "run.py", "--role", "measure", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = child.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setups)
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "failed_fraction": {"value": child["failed"] / child["attempted"], "unit": "ratio"},
        "raw_setup_s": [s["raw_s"] for s in setups],
        **child,
    }))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "measure"), default="run", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role == "measure":
        _measure(args)
        return 0
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
