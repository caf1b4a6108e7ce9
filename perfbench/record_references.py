"""Record the output digests that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/record_references.py

Run it only at a commit whose serialized outputs are the reference: a later
change that alters a sweep, gauge or figure output must show up as failed
operations, not as new references.  It refuses to record an input on which
an operation fails (a sweep violation or an unexpected exit code).
"""

from __future__ import annotations

import json

import workloads


def _digests(workload) -> object:
    workload.load()
    result = workload.run_pass()
    if result.failed:
        raise SystemExit(f"{type(workload).__name__}: {result.failed} operations failed")
    return result.digests


def main() -> None:
    refs: dict = {"input_seeds": workloads.INPUT_SEEDS}
    refs["figures"] = _digests(workloads.build("figures", 0))
    for name in ("sweep_pure", "sweep_mixed", "gauge_requests"):
        refs[name] = {}
        for seed in range(workloads.INPUT_SEEDS):
            digests = _digests(workloads.build(name, seed))
            refs[name][str(seed)] = digests["chunks"] if name == "gauge_requests" else digests["sweep"]
            print(name, seed, flush=True)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
