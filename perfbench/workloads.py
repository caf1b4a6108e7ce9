"""The four benchmark workloads: inputs, one timed pass, and the output check.

Inputs come from the standard library's `random`, never from numpy; the
package only receives the generated inputs.  The warm-up call and the cold
start it is timed in live in `probe.py`.

Every pass checks its outputs against digests recorded at the commit that
defined the benchmark (`references.json`): the sweep JSON from `cli.dumps`,
the figure CSVs from `cli.format_csv`, and the stdout and exit code of each
gauge request.  An operation fails when it raises, exits with an unexpected
code, or belongs to an output whose digest differs from the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from probe import FIGURES

REFERENCES = Path(__file__).resolve().parent / "references.json"

# References exist for input seeds 0..INPUT_SEEDS-1; benchmark seed n uses n % INPUT_SEEDS.
INPUT_SEEDS = 32
# Gauge-request outputs are digested in chunks of this many consecutive requests.
CHUNK = 100

WORKLOADS = ("sweep_pure", "sweep_mixed", "figures", "gauge_requests")


@dataclass
class PassResult:
    """One timed pass over a workload's whole input.

    Times are read from the `clock` given to `run_pass`, which may leave out
    time the harness spends elsewhere (see `hostspeed.HostSampler.clock`).
    """

    busy_s: float  # time inside the package calls being measured
    wall_s: float  # the whole pass, output checks included
    starts_s: list  # clock() at the start of each request
    latencies_s: list  # one entry per request
    attempted: int
    failed: int
    bytes_out: int
    skipped: int = 0  # sweep states skipped for truncation
    digests: dict = field(default_factory=dict)


def _hex(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _report_error(what: str) -> None:
    print(f"{what} raised:\n{traceback.format_exc()}", file=sys.__stderr__)


# ---------------------------------------------------------------------------
# sweep_pure, sweep_mixed
# ---------------------------------------------------------------------------


class SweepWorkload:
    """One `verify.sweep` over a seeded ensemble, serialized with `cli.dumps`."""

    request = "one sweep call"

    def __init__(self, n_pure: int, n_mixed: int, cutoff: int, rank: int, seed: int, reference=None):
        self.config_args = dict(n_pure=n_pure, n_mixed=n_mixed, cutoff=cutoff, rank=rank, seed=seed)
        self.items = n_pure + n_mixed
        self.reference = reference

    def load(self) -> None:
        from fockgauge import cli, verify

        self.cli, self.verify = cli, verify
        self.config = verify.SweepConfig(**self.config_args)

    def run_pass(self, clock=perf_counter) -> PassResult:
        start = clock()
        try:
            report = self.verify.sweep(self.config)
            text = self.cli.dumps(report.to_dict())
        except Exception:
            _report_error("sweep")
            elapsed = clock() - start
            return PassResult(elapsed, elapsed, [start], [elapsed], self.items, self.items, 0)
        busy = clock() - start
        digest = _hex(text)
        ok = report.total_violations == 0 and (
            self.reference is None or digest == self.reference
        )
        return PassResult(
            busy_s=busy,
            wall_s=clock() - start,
            starts_s=[start],
            latencies_s=[busy],
            attempted=self.items,
            failed=0 if ok else self.items,
            bytes_out=len(text.encode("utf-8")),
            skipped=report.skipped,
            digests={"sweep": digest},
        )


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

class FiguresWorkload:
    """`verify.figure_rows` rendered with `cli.format_csv`; seed-independent."""

    request = "both figure datasets"

    def __init__(self, reference=None):
        self.reference = reference

    def load(self) -> None:
        from fockgauge import cli, verify

        self.cli, self.verify = cli, verify

    def run_pass(self, clock=perf_counter) -> PassResult:
        start = clock()
        busy = 0.0
        attempted = failed = bytes_out = 0
        digests = {}
        for which, resolution in FIGURES:
            t0 = clock()
            try:
                header, rows = self.verify.figure_rows(which, resolution)
                text = self.cli.format_csv(header, rows)
            except Exception:
                _report_error(f"figure {which}")
                busy += clock() - t0
                failed += 1
                attempted += 1
                continue
            busy += clock() - t0
            digests[which] = _hex(text)
            attempted += len(rows)
            bytes_out += len(text.encode("utf-8"))
            if self.reference is not None and digests[which] != self.reference[which]:
                failed += len(rows)
        return PassResult(
            busy, clock() - start, [start], [busy], attempted, failed, bytes_out, 0, digests
        )


# ---------------------------------------------------------------------------
# gauge_requests
# ---------------------------------------------------------------------------

ALPHA_MIN, ALPHA_MAX = 0.05, 5.0  # |alpha| range of the paper's criteria and figures
R_MAX = 1.5
ADDED = (1, 2, 3)  # photons added in acceptance criteria 02 and 08
RANDOM_CUTOFF = 32  # cutoff of the acceptance sweep
FIG4_PHASES = (0.0, math.pi / 4.0, math.pi / 2.0)  # arg(gamma) in fig4; |gamma| spans [0, 1] there

# Every kind gets the same number of requests per pass; the seed draws the
# parameters (stratified) and the order.
KINDS = (
    "coherent",
    "cat",
    "crescent_operator",
    "crescent_laguerre",
    "squeezed_coherent",
    "photon_added",
    "approx_strong_field",
    "random_pure",
    "moments",
)
PER_KIND = 326
MALFORMED_SHARE = 0.02  # of all requests; each must exit 2


def _complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _alpha(u: float, rng: random.Random) -> complex:
    magnitude = ALPHA_MIN * (ALPHA_MAX / ALPHA_MIN) ** u
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(magnitude * math.cos(phase), magnitude * math.sin(phase))


def gaussian_moments(alpha: complex, r: float, phi: float) -> dict:
    """Exact moment table of a displaced squeezed vacuum (Isserlis)."""
    s = 0.5
    big_n = s * math.cosh(2.0 * r) - 0.5  # <b^dag b> of the centred mode b = a - alpha
    big_m = s * complex(math.cos(phi), math.sin(phi)) * math.sinh(2.0 * r)  # <b b>, phi_s convention
    amp_sq = abs(alpha) ** 2
    mean_a2 = big_m + alpha * alpha
    mean_n = big_n + amp_sq
    mean_a2da2 = (
        abs(big_m) ** 2
        + 2.0 * big_n * big_n
        + 2.0 * (alpha.conjugate() ** 2 * big_m).real
        + 4.0 * amp_sq * big_n
        + amp_sq * amp_sq
    )
    mean_n2 = mean_a2da2 + mean_n
    return {
        "mean_a": _complex(alpha),
        "mean_a2": _complex(mean_a2),
        "mean_n": mean_n,
        "mean_n2": mean_n2,
        "mean_a2da2": mean_a2da2,
        "var_n": mean_n2 - mean_n * mean_n,
        "var_a": _complex(mean_a2 - alpha * alpha),
        "cov_ada": mean_n + 0.5 - amp_sq,
        "cov_a2": mean_a2da2 + 2.0 * mean_n + 1.0 - abs(mean_a2) ** 2,
        "truncation_warning": False,
    }


def _malformed(k: int, alpha: complex) -> list:
    """The k-th malformed request (cycled); every one is a usage or schema error."""
    a = _complex(alpha)
    specs = (
        {"kind": "thermal", "alpha": a},
        {"kind": "coherent"},
        {"kind": "fock", "n": 3, "alpha": a},
        {"kind": "photon_added", "alpha": a, "M": "two"},
        {"kind": "coherent", "alpha": a, "eps_tail": 0.5},
        {"kind": "cat", "alpha": 1.5, "beta": 0.0},
        {"kind": "crescent", "alpha": a, "M": 2, "method": "series"},
    )
    extra = (
        ["gauge", "--spec", '{"kind": "coherent", "alpha": {"re": 1.0,'],
        ["gauge"],
        ["gauge", "--moments", json.dumps({"mean_a": a, "mean_n": 1.0})],
    )
    k %= len(specs) + len(extra)
    if k < len(specs):
        return ["gauge", "--spec", json.dumps(specs[k])]
    return extra[k - len(specs)]


def make_requests(seed: int, per_kind: int = PER_KIND) -> list:
    """A seeded, shuffled stream of (argv, expected exit code) gauge requests."""
    rng = random.Random(seed)
    kinds = len(KINDS) * per_kind
    malformed = max(1, round(MALFORMED_SHARE * kinds / (1.0 - MALFORMED_SHARE)))
    requests = []
    for kind in KINDS + ("malformed",):
        count = malformed if kind == "malformed" else per_kind
        strata = [(i + rng.random()) / count for i in range(count)]
        r_strata = [(i + rng.random()) / count * R_MAX for i in range(count)]
        rng.shuffle(r_strata)
        for k, (u, r) in enumerate(zip(strata, r_strata)):
            alpha = _alpha(u, rng)
            a = _complex(alpha)
            if kind == "moments":
                table = gaussian_moments(alpha, r, rng.uniform(0.0, 2.0 * math.pi))
                requests.append((["gauge", "--moments", json.dumps(table)], 0))
                continue
            if kind == "malformed":
                requests.append((_malformed(k, alpha), 2))
                continue
            if kind == "coherent":
                spec = {"kind": "coherent", "alpha": a}
            elif kind == "cat":
                spec = {"kind": "cat", "alpha": a, "beta": rng.uniform(0.0, 2.0 * math.pi)}
            elif kind.startswith("crescent"):
                method = kind.split("_")[1]
                spec = {"kind": "crescent", "alpha": a, "M": rng.choice(ADDED), "method": method}
            elif kind == "squeezed_coherent":
                spec = {"kind": kind, "alpha": a, "r": r, "phi_s": rng.uniform(0.0, 2.0 * math.pi)}
            elif kind == "photon_added":
                spec = {"kind": kind, "alpha": a, "M": rng.choice(ADDED)}
            elif kind == "approx_strong_field":
                phase = rng.choice(FIG4_PHASES)
                gamma = rng.random() * complex(math.cos(phase), math.sin(phase))
                spec = {"kind": kind, "alpha": a, "gamma": _complex(gamma)}
            else:
                spec = {"kind": kind, "cutoff": RANDOM_CUTOFF, "seed": rng.randrange(2**31)}
            requests.append((["gauge", "--spec", json.dumps(spec)], 0))
    rng.shuffle(requests)
    return requests


class GaugeRequestsWorkload:
    """Closed loop, one client: in-process `cli.run(["gauge", ...])` calls."""

    request = "one cli.run gauge call"

    def __init__(self, seed: int, per_kind: int = PER_KIND, reference=None):
        self.requests = make_requests(seed, per_kind)
        self.items = len(self.requests)
        self.reference = reference

    def load(self) -> None:
        from fockgauge import cli

        self.cli = cli

    def run_pass(self, clock=perf_counter) -> PassResult:
        start = clock()
        out, err = io.StringIO(), io.StringIO()
        starts, latencies = [], []
        failed = set()
        chunks = []
        bytes_out = 0
        digest = hashlib.blake2b(digest_size=8)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for i, (argv, expected) in enumerate(self.requests):
                out.seek(0)
                out.truncate(0)
                t0 = clock()
                try:
                    code = self.cli.run(argv)
                except Exception:
                    code = None
                    _report_error(f"request {i} {argv!r}")
                starts.append(t0)
                latencies.append(clock() - t0)
                text = out.getvalue()
                bytes_out += len(text.encode("utf-8"))
                if code != expected:
                    failed.add(i)
                    print(f"request {i} {argv!r} exited {code}, expected {expected}", file=sys.__stderr__)
                digest.update(f"{code}\n{text}\0".encode("utf-8"))
                if (i + 1) % CHUNK == 0 or i + 1 == self.items:
                    chunks.append(digest.hexdigest())
                    digest = hashlib.blake2b(digest_size=8)
        if self.reference is not None:
            for c, (got, want) in enumerate(zip(chunks, self.reference)):
                if got != want:
                    failed.update(range(c * CHUNK, min((c + 1) * CHUNK, self.items)))
                    print(f"requests {c * CHUNK}..{(c + 1) * CHUNK - 1}: output digest differs from the reference",
                          file=sys.__stderr__)
        return PassResult(
            busy_s=sum(latencies),
            wall_s=clock() - start,
            starts_s=starts,
            latencies_s=latencies,
            attempted=self.items,
            failed=len(failed),
            bytes_out=bytes_out,
            digests={"chunks": chunks},
        )


# ---------------------------------------------------------------------------


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def build(name: str, seed: int, references: dict | None = None):
    """The named workload at its benchmark size, for benchmark seed `seed`."""
    s = input_seed(seed)

    def ref(key):
        return None if references is None else references[name][key]

    if name == "sweep_pure":
        return SweepWorkload(10_000, 0, 32, 1, s, ref(str(s)))
    if name == "sweep_mixed":
        return SweepWorkload(0, 2_000, 64, 8, s, ref(str(s)))
    if name == "figures":
        return FiguresWorkload(reference=None if references is None else references["figures"])
    if name == "gauge_requests":
        return GaugeRequestsWorkload(s, reference=ref(str(s)))
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)
