"""Self-checks of the benchmark harness: span counts, inputs, host sampler, refusal."""

from __future__ import annotations

import cmath
import math
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import hostspeed
import workloads
from tracer import SPAN_NAMES, Tracer

import fockgauge
from fockgauge import verify

HERE = Path(__file__).resolve().parent


def _traced_pass(workload):
    tracer = Tracer()
    with tracer:
        result = workload.run_pass()
    return tracer, result


def _small_sweep():
    workload = workloads.SweepWorkload(n_pure=20, n_mixed=6, cutoff=10, rank=3, seed=5)
    workload.load()
    return workload


def test_traced_counts_repeat_and_match_analytic():
    runs = [_traced_pass(_small_sweep()) for _ in range(2)]
    counts = [{name: v["calls"] for name, v in t.aggregate().items()} for t, _ in runs]
    assert counts[0] == counts[1]
    calls, result = counts[0], runs[0][1]
    assert result.failed == 0
    states = 26
    unskipped = states - result.skipped
    assert calls["verify.sweep"] == calls["cli.dumps"] == 1
    assert calls["states.random_state"] == calls["moments.summarize"] == states
    assert calls["moments.ellipse"] == calls["gauges.full_report"] == unskipped
    assert calls["fock.normally_ordered_moment"] == 4 * calls["moments.summarize"]
    # Haar and Ginibre states have nonzero amplitude, so every report scans.
    assert calls["gauges.scan_bound"] == unskipped


def test_self_times_add_up_to_root_spans():
    tracer, _ = _traced_pass(_small_sweep())
    spans = tracer.aggregate()
    roots = sum(
        end - start
        for parent, start, end in zip(tracer.parents, tracer.starts, tracer.ends)
        if parent < 0
    )
    assert sum(v["self_s"] for v in spans.values()) == pytest.approx(roots, rel=1e-9)
    assert all(v["self_s"] >= 0.0 for v in spans.values())
    assert set(spans) == set(SPAN_NAMES)


def test_tracer_restores_package_functions():
    originals = (verify.summarize, fockgauge.cli.run, fockgauge.moments.normally_ordered_moment)
    with Tracer():
        assert verify.summarize is not originals[0]
    assert (verify.summarize, fockgauge.cli.run, fockgauge.moments.normally_ordered_moment) == originals


def test_gauge_requests_are_seeded_and_exit_as_expected():
    requests = workloads.make_requests(3, 6)
    assert requests == workloads.make_requests(3, 6)
    assert requests != workloads.make_requests(4, 6)
    assert len(requests) == 6 * len(workloads.KINDS) + 1
    specs = " ".join(argv[-1] for argv, _ in requests)
    for kind in ("coherent", "cat", "squeezed_coherent", "photon_added",
                 "approx_strong_field", "random_pure", '"operator"', '"laguerre"', "mean_a2da2"):
        assert kind in specs
    assert {code for _, code in requests} == {0, 2}
    workload = workloads.GaugeRequestsWorkload(3, 6)
    workload.load()
    tracer, result = _traced_pass(workload)
    assert result.failed == 0 and result.attempted == len(requests)
    calls = {name: v["calls"] for name, v in tracer.aggregate().items()}
    assert calls["cli.run"] == len(requests)
    assert calls["gauges.scan_bound"] > 0 and calls["verify.sweep"] == 0


@pytest.mark.parametrize("alpha, r, phi", [(0.3 + 0.4j, 0.0, 0.0), (2.0 - 1.0j, 0.7, 1.1)])
def test_gaussian_moment_tables_match_the_package(alpha, r, phi):
    table = workloads.gaussian_moments(alpha, r, phi)
    summary = fockgauge.summarize(fockgauge.squeezed_coherent(alpha, r, phi)).to_dict()
    for key, value in table.items():
        if isinstance(value, dict):
            assert cmath.isclose(complex(value["re"], value["im"]),
                                 complex(summary[key]["re"], summary[key]["im"]), abs_tol=1e-9)
        elif isinstance(value, float):
            assert math.isclose(value, summary[key], rel_tol=1e-9, abs_tol=1e-9), key


def test_host_sampler_leaves_its_kernel_out_of_the_clock():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSampler() as sampler:
        wall_start, clock_start = perf_counter(), sampler.clock()
        while perf_counter() - wall_start < 0.3:
            pass
        wall, clock = perf_counter() - wall_start, sampler.clock() - clock_start
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.seconds) >= 3
    assert clock == pytest.approx(wall - sum(sampler.seconds), abs=1e-3)
    assert sampler.scale(clock_start, clock_start + clock) == pytest.approx(
        hostspeed.REFERENCE_S / statistics.fmean(sampler.seconds)
    )


def test_host_kernel_imports_nothing():
    # The kernel runs in a signal handler, where an import could re-enter one in progress.
    code = ("import sys, hostspeed; before = set(sys.modules); hostspeed.host_kernel(); "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    benchmark_json = HERE.parent / "BENCHMARK.json"
    if benchmark_json.is_file():
        shutil.copy(benchmark_json, tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "figures", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
