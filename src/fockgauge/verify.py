"""Brute-force oracles: random-ensemble sweeps, calibration audit, figure data.

The sweep is the package's own adversary: seeded random pure and mixed states
are pushed through the full moment/ellipse/gauge pipeline and every inequality
is tallied for violations.  A passing sweep means zero violations at the
tolerances of the registry `gauges.INEQUALITIES`.  Runs are deterministic:
per-state seeds derive from (seed, index), and serialized reports are
byte-stable.  State i draws the stream of `default_rng([seed, i])`, so
`{"seed": [seed, i]}` replays it alone.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import SchemaError
from .gauges import (
    C_TIGHT, C_TRACE, INEQUALITIES, full_report, lambda_plus_floor, tight_bound, trace_floor
)
from .moments import ellipse, modulus, square, summarize
from .schema import check_fields, integer
from .states import approx_strong_field, check_random_shape, coherent, random_state

CALIBRATION_ANCHORS = (0.5 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 2.0j)

FIGURE_NAMES = ("fig2", "fig3", "fig4")
MIN_RESOLUTION, MAX_RESOLUTION = 16, 2048
# states per sweep: every index fits the one 32-bit entropy word that `seeds` assumes
MAX_SWEEP_STATES = 2**32


@dataclass(frozen=True)
class SweepConfig:
    n_pure: int
    n_mixed: int
    cutoff: int
    rank: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pure < 0 or self.n_mixed < 0:
            raise ValueError("state counts must be non-negative")
        if self.n_pure + self.n_mixed > MAX_SWEEP_STATES:
            raise ValueError(f'fields "n_pure" + "n_mixed" must sum to at most 2**32 = {MAX_SWEEP_STATES} states')
        if self.seed < 0:
            raise ValueError(f'field "seed" must be non-negative, got {self.seed}')
        check_random_shape(self.cutoff, self.rank)


def sweep_config_from_dict(data: dict) -> SweepConfig:
    """Parse a sweep configuration JSON object."""
    check_fields(data, "sweep config", ("n_pure", "n_mixed", "cutoff"), ("rank", "seed"))
    try:
        return SweepConfig(**{name: integer(data, name) for name in data})
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


class _Tally:
    __slots__ = ("checked", "violations", "worst_slack", "worst_seed_index")

    def __init__(self) -> None:
        self.checked = 0
        self.violations = 0
        self.worst_slack = math.inf
        self.worst_seed_index: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "worst_slack": None if self.checked == 0 else self.worst_slack,
            "worst_seed_index": self.worst_seed_index,
        }


@dataclass
class SweepReport:
    """Per-inequality violation tallies for one sweep.

    `wall_time` is measured but excluded from `to_dict` so that serialized
    reports stay byte-identical across runs of the same configuration.
    """

    tallies: dict
    skipped: int
    min_trace_ratio: Optional[float]
    wall_time: float

    @property
    def total_violations(self) -> int:
        return sum(t.violations for t in self.tallies.values())

    def violated_names(self) -> list[str]:
        return [name for name, t in self.tallies.items() if t.violations > 0]

    def to_dict(self) -> dict:
        return {
            "tallies": {name: tally.to_dict() for name, tally in self.tallies.items()},
            "skipped": self.skipped,
            "min_trace_ratio": self.min_trace_ratio,
            "total_violations": self.total_violations,
        }


def _sweep_states(config: SweepConfig):
    from .seeds import sweep_seeds  # loads numpy.random, which importing the package does not

    # zip reads the range first, so a finished range leaves the next seed unread
    seeds = sweep_seeds(config.seed, config.n_pure + config.n_mixed)
    for i, seed in zip(range(config.n_pure), seeds):
        yield i, random_state(config.cutoff, "pure", seed=seed)
    for j, seed in zip(range(config.n_mixed), seeds):
        rank = 1 + (j % config.rank)
        yield config.n_pure + j, random_state(config.cutoff, "mixed", rank=rank, seed=seed)


def sweep(config: SweepConfig) -> SweepReport:
    """Run the seeded ensemble through every inequality and tally violations."""
    start = time.perf_counter()
    tallies = {row.name: _Tally() for row in INEQUALITIES}
    skipped = 0
    min_trace_ratio = math.inf
    for index, state in _sweep_states(config):
        summary = summarize(state)
        if summary.truncation_warning:
            skipped += 1
            continue
        report = full_report(summary, ellipse(summary))
        for name, (_, _, slack, _, violated) in report.records.items():
            tally = tallies[name]
            tally.checked += 1
            if violated:
                tally.violations += 1
            # ties broken by lowest index: strict < keeps the earliest
            if slack < tally.worst_slack:
                tally.worst_slack = slack
                tally.worst_seed_index = index
        if report.tight.applicable and summary.var_n > 0.0:
            trace = report.records["relaxed_trace"]
            min_trace_ratio = min(min_trace_ratio, trace.lhs / trace.rhs)
    return SweepReport(
        tallies=tallies,
        skipped=skipped,
        min_trace_ratio=None if math.isinf(min_trace_ratio) else min_trace_ratio,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class CalibrationReport:
    """Derived bound constants and the printed-versus-derived audit table."""

    c_tight: float
    c1: float
    c2: float
    anchors: list
    printed_vs_derived: list

    def to_dict(self) -> dict:
        return asdict(self)


def calibrate() -> CalibrationReport:
    """Fix the bound constants from coherent anchors and audit printed variants.

    The tight constant is the mean over the fixed coherent anchors of the
    constant that gives each zero closed-form slack; the anchors agree to
    within rounding, which the tests check.  The trace constant follows
    analytically from summing the theta = 0 canonical pair, using
    |<x>|^2 + |<p>|^2 = 2 |<a>|^2 and Var x + Var p = 2 Cov(a^dag, a):
    the pair sum bounds Var n * Cov by |<a>|^2 / 4.  The lambda-plus constant
    inherits the tight constant through inf over angles of the interpolated
    semiaxis.
    """
    estimates = []
    anchors = []
    geometry = []
    for alpha in CALIBRATION_ANCHORS:
        summary = summarize(coherent(alpha))
        ell = ellipse(summary)
        tight = tight_bound(summary, ell)
        # |<a>|^2 Lambda^2 / (lp^2 lm^2), exactly: C_TIGHT = 1/2 is a power of two
        shape = tight.bound_closed / C_TIGHT
        estimate = summary.var_n / shape
        estimates.append(estimate)
        geometry.append((summary.var_n, shape))
        anchors.append(
            {
                "alpha": {"re": alpha.real, "im": alpha.imag},
                "c_estimate": estimate,
                "scan_slack": tight.slack,
            }
        )
    c_tight = sum(estimates) / len(estimates)
    c1 = c_tight
    c2 = C_TRACE  # (|<x>|^2 + |<p>|^2) / 4 = |<a>|^2 / 2, spread over 2 Cov
    for anchor, (var_n, shape) in zip(anchors, geometry):
        anchor["closed_slack"] = var_n - c_tight * shape
    table = [
        {"tag": "tight_closed_form", "printed": 1.0, "derived": c_tight, "ratio": 1.0 / c_tight},
        {"tag": "relaxed_lambda_plus", "printed": 1.0, "derived": c1, "ratio": 1.0 / c1},
        {"tag": "relaxed_trace", "printed": 1.0, "derived": c2, "ratio": 1.0 / c2},
    ]
    return CalibrationReport(
        c_tight=c_tight, c1=c1, c2=c2, anchors=anchors, printed_vs_derived=table
    )


def check_resolution(resolution: int) -> None:
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(
            f"resolution must lie in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution}"
        )


def figure_rows(which: str, resolution: int) -> tuple[list[str], np.ndarray]:
    """Deterministic figure datasets as (header, table).

    The table is a float64 array of shape (rows, len(header)), one row per
    CSV line, stored column-major (the transpose of a C-ordered stack of its
    columns), so that each column the CSV writer reads is contiguous.
    fig2: grid over (|Var a|, Cov) with both relaxed Var-n floors at unit
    amplitude.  fig3: the physicality hyperboloid and the squeezing
    cone over the complex Var a plane.  fig4: moment trajectories of the
    strong-field superposition at alpha = 3 over an admixture grid, against
    the trace floor; the relative gap is reported, never asserted against.
    Its three phases are one block, and every fig4 column is computed on whole
    columns of that block's summary, with the bits of a per-row computation
    in Python floats.
    """
    check_resolution(resolution)
    if which == "fig2":
        header = ["var_a_abs", "cov_ada", "bound_lambda_plus", "bound_trace"]
        v = np.linspace(0.0, 2.0, resolution)
        floor = np.sqrt(0.25 + v * v)
        # one row of Cov values per v, each the 1-d linspace from its own floor
        c = np.linspace(floor, floor + 2.0, resolution, axis=1).ravel()
        v = np.repeat(v, resolution)
        return header, np.stack((v, c, lambda_plus_floor(1.0, c + v), trace_floor(1.0, c))).T
    if which == "fig3":
        header = ["re_var_a", "im_var_a", "hyperboloid", "cone"]
        axis = np.linspace(-2.0, 2.0, resolution)
        re, im = np.repeat(axis, resolution), np.tile(axis, resolution)
        # math.hypot, not np.hypot, which differs in the last bit at some points; the
        # axis times itself gives the (re, im) pairs in row order, in one pass
        pairs = itertools.product(axis.tolist(), repeat=2)
        spread = np.fromiter(itertools.starmap(math.hypot, pairs), float, len(re))
        return header, np.stack((re, im, np.sqrt(0.25 + spread * spread), spread + 0.5)).T
    if which == "fig4":
        header = ["gamma_re", "gamma_im", "cov_ada", "var_n", "bound", "rel_gap"]
        alpha = 3.0
        phases = np.array([complex(math.cos(t), math.sin(t)) for t in (0.0, math.pi / 4.0, math.pi / 2.0)])
        gamma = (phases[:, None] * np.linspace(0.0, 1.0, resolution)).ravel()
        # the block's summary is columns; |<a>|^2 takes the bits of Python's abs(<a>) ** 2,
        # and the floor and the gap are real arithmetic, which numpy rounds alike
        summary = summarize(approx_strong_field(alpha, gamma))
        cov_ada, var_n = summary.cov_ada, summary.var_n
        bound = trace_floor(square(modulus(summary.mean_a)), cov_ada)
        return header, np.stack((gamma.real, gamma.imag, cov_ada, var_n, bound, (var_n - bound) / bound)).T
    raise ValueError(f"unknown figure {which!r}; expected one of {FIGURE_NAMES}")
