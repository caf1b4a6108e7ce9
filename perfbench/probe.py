"""Cold start of one workload: import fockgauge and finish one warm-up call.

    PYTHONPATH=src python3 perfbench/probe.py <workload>

Only `sys` and `time` are imported before the clock starts, so the time
covers every module fockgauge pulls in (numpy, argparse, json, dataclasses,
...), as a cold `fockgauge gauge` call pays it.  After the clock stops, the
probe checks that fockgauge came from `src/` next to this directory, times
the host-speed kernel and prints one JSON line: raw and scaled seconds.

`warm_up` is also the warm-up call of the measured process (`run.py`).
"""

import sys
import time

SETUP_KERNELS = 25  # host-speed kernels timed right after the set-up
FIGURES = (("fig4", 2048), ("fig3", 512))
# The warm-up request of gauge_requests: random_pure also loads numpy.random,
# which numpy imports lazily, so that this set-up stays out of the timed passes.
WARM_UP_ARGV = ["gauge", "--spec", '{"kind": "random_pure", "cutoff": 32, "seed": 0}']


def warm_up(workload: str) -> None:
    """One small call through the layers that `workload` measures."""
    from fockgauge import cli, verify

    if workload == "sweep_pure":
        cli.dumps(verify.sweep(verify.SweepConfig(n_pure=8, n_mixed=0, cutoff=32, seed=0)).to_dict())
    elif workload == "sweep_mixed":
        config = verify.SweepConfig(n_pure=0, n_mixed=8, cutoff=64, rank=8, seed=0)
        cli.dumps(verify.sweep(config).to_dict())
    elif workload == "figures":
        for which, _ in FIGURES:
            cli.format_csv(*verify.figure_rows(which, 16))
    elif workload == "gauge_requests":
        import io  # already loaded by the interpreter at start-up

        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            cli.run(WARM_UP_ARGV)
        finally:
            sys.stdout = stdout
    else:
        raise ValueError(f"unknown workload {workload!r}")


def check_package() -> None:
    """Refuse a fockgauge that is not the one under `src/` next to this directory."""
    from pathlib import Path

    import fockgauge

    src = Path(__file__).resolve().parent.parent / "src" / "fockgauge"
    if Path(fockgauge.__file__).resolve().parent != src:
        raise RuntimeError(f"fockgauge was imported from {fockgauge.__file__}, not from {src}")


def main() -> None:
    start = time.perf_counter()
    warm_up(sys.argv[1])
    setup_s = time.perf_counter() - start
    import json

    import hostspeed

    check_package()
    kernels = hostspeed.kernel_seconds(SETUP_KERNELS)
    print(json.dumps({"raw_s": setup_s, "scaled_s": setup_s * hostspeed.scale(kernels)}))


if __name__ == "__main__":
    main()
