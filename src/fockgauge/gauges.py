"""Number-quadrature uncertainty bounds and the nonclassicality gauges.

The canonical tight bound is a scan: for each local-oscillator angle theta the
exact inequality Var n * Var x_theta >= |<p_theta>|^2 / 4 holds, so

    B = max_theta |<p_theta>|^2 / (4 Var x_theta)

is the sharpest angle-independent floor on Var n.  A closed form for B follows
from maximizing a rank-1 generalized Rayleigh quotient over the noise ellipse:

    B = C_TIGHT * |<a>|^2 * Lambda^2 / (lp^2 * lm^2),
    Lambda^2 = lp^2 cos^2 chi + lm^2 sin^2 chi,  chi = stick - major axis,

with lp/lm the ellipse semiaxes.  C_TIGHT is a calibration constant fixed by
requiring coherent states to saturate the scan; under the pinned quadrature
normalization it equals 1/2.  The relaxed bounds inherit their constants from
the same calibration (see verify.calibrate, which also audits them against
their commonly printed variants).

G1 = Var n / B, the lhs/rhs ratio of the `tight_scan` row, reads exactly 1 on
the extremal (intelligent) states; for zero-amplitude states the scan is
trivial and G2, the ratio of the `second_order_floor` row, takes over with
value 1 exactly on eigenstates of a^2.

Every inequality is defined once, with its tolerance, in `INEQUALITIES`; the
gauge report, the sweep tallies and the CLI exit code all read that table,
and the figures read the relaxed floors through `lambda_plus_floor` and
`trace_floor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .moments import MomentSummary, NoiseEllipse

# Pinned by coherent saturation under the x_theta normalization of `moments`;
# re-derived and audited by verify.calibrate.
C_TIGHT = 0.5
C_LAMBDA_PLUS = 0.5  # from inf over angles of the interpolated semiaxis
C_TRACE = 0.25  # from summing the theta = 0 canonical pair

SATURATION_TOL = 1e-8
AMPLITUDE_FLAG_TOL = 1e-8
# classification margin: coherent states sit exactly on the boundary and must
# not flip to "squeezed" through round-off
SQUEEZING_TOL = 1e-10

_GRID_SIZE = 1024
_THETA_GRID = np.linspace(0.0, math.pi, _GRID_SIZE, endpoint=False)
_SIN = np.sin(_THETA_GRID)
_COS = np.cos(_THETA_GRID)
_SIN2 = np.sin(2.0 * _THETA_GRID)
_COS2 = np.cos(2.0 * _THETA_GRID)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class InequalityRecord:
    """One inequality lhs >= rhs with its slack and saturation and violation flags."""

    lhs: float
    rhs: float
    slack: float
    saturated: bool
    violated: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "saturated": self.saturated,
        }


def _record(lhs: float, rhs: float, tolerance: float) -> InequalityRecord:
    slack = lhs - rhs
    return InequalityRecord(lhs, rhs, slack, abs(slack) <= SATURATION_TOL, slack < -tolerance)


@dataclass(frozen=True)
class TightBoundReport:
    """Scanned and closed-form tight floor on Var n for one state."""

    bound_scan: float
    theta_star: float
    bound_closed: float
    slack: float
    applicable: bool

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in declaration order


def lambda_plus_floor(amp_sq: float, lambda_plus_sq: float) -> float:
    """Relaxed floor on Var n from the major semiaxis: C_LAMBDA_PLUS |<a>|^2 / lp^2."""
    return C_LAMBDA_PLUS * amp_sq / lambda_plus_sq


def trace_floor(amp_sq: float, cov_ada: float) -> float:
    """Relaxed floor on Var n from the covariance: C_TRACE |<a>|^2 / Cov(a^dag, a)."""
    return C_TRACE * amp_sq / cov_ada


class Inequality(NamedTuple):
    """One registry row: lhs >= rhs, violated when lhs - rhs < -tolerance.

    `sides` maps (summary s, ellipse e, tight report t) to (lhs, rhs).  Rows
    that need a nonzero amplitude apply only where the tight scan does.
    """

    name: str
    sides: Callable[[MomentSummary, NoiseEllipse, TightBoundReport], tuple[float, float]]
    tolerance: float
    needs_amplitude: bool


INEQUALITIES = (
    Inequality("tight_scan", lambda s, e, t: (s.var_n, t.bound_scan), 1e-9, True),
    # relative deviation; lhs -0.0 keeps the slack exactly -deviation, signed zero included
    Inequality(
        "closed_form_agreement",
        lambda s, e, t: (-0.0, abs(t.bound_closed - t.bound_scan) / (1.0 + t.bound_scan)),
        1e-9,
        True,
    ),
    # theta = 0 canonical pair: Var n Var x >= <p>^2 / 4 and Var n Var p >= <x>^2 / 4
    Inequality(
        "canonical_pair_x",
        lambda s, e, t: (
            s.var_n * (s.cov_ada + s.var_a.real), (math.sqrt(2.0) * s.mean_a.imag) ** 2 / 4.0
        ),
        1e-9,
        False,
    ),
    Inequality(
        "canonical_pair_p",
        lambda s, e, t: (
            s.var_n * (s.cov_ada - s.var_a.real), (math.sqrt(2.0) * s.mean_a.real) ** 2 / 4.0
        ),
        1e-9,
        False,
    ),
    Inequality("covariance_floor", lambda s, e, t: (s.cov_ada, 0.5), 1e-9, False),
    Inequality(
        "uncertainty_area", lambda s, e, t: (s.cov_ada**2 - 0.25, abs(s.var_a) ** 2), 1e-9, False
    ),
    Inequality(
        "second_order_floor", lambda s, e, t: (s.cov_a2, 2.0 * s.mean_n + 1.0), 1e-9, False
    ),
    Inequality(
        "relaxed_lambda_plus",
        lambda s, e, t: (s.var_n * e.lambda_plus_sq, C_LAMBDA_PLUS * abs(s.mean_a) ** 2),
        1e-9,
        False,
    ),
    Inequality(
        "relaxed_trace",
        lambda s, e, t: (s.var_n * s.cov_ada, C_TRACE * abs(s.mean_a) ** 2),
        1e-9,
        False,
    ),
    # the scanned bound dominates both relaxed floors on Var n
    Inequality(
        "hierarchy",
        lambda s, e, t: (
            t.bound_scan,
            max(
                lambda_plus_floor(abs(s.mean_a) ** 2, e.lambda_plus_sq),
                trace_floor(abs(s.mean_a) ** 2, s.cov_ada),
            ),
        ),
        1e-10,
        True,
    ),
    # physicality: Cov(a^dag, a) lies on or above the hyperboloid sqrt(1/4 + |Var a|^2)
    Inequality(
        "hyperboloid_surface",
        lambda s, e, t: (s.cov_ada, math.sqrt(0.25 + abs(s.var_a) ** 2)),
        1e-10,
        False,
    ),
)


@dataclass(frozen=True)
class GaugeReport:
    """Every bound, slack and gauge value for one state.

    `records` holds the registry rows that apply to the state, in table
    order; `squeezing` is a classification record outside the registry, and
    `squeezed` is its `violated` flag.
    """

    tight: TightBoundReport
    g1: Optional[float]
    g2: float
    g2_alt: Optional[float]
    g2_amplitude_warning: bool
    records: dict[str, InequalityRecord]
    squeezing: InequalityRecord
    squeezed: bool

    def violated_names(self) -> list[str]:
        return [name for name, record in self.records.items() if record.violated]

    def to_dict(self) -> dict:
        records = self.records
        hierarchy = records.get("hierarchy")
        return {
            "tight": self.tight.to_dict(),
            "g1": self.g1,
            "g2": self.g2,
            "g2_alt": self.g2_alt,
            "g2_amplitude_warning": self.g2_amplitude_warning,
            "relaxed_lambda_plus": records["relaxed_lambda_plus"].to_dict(),
            "relaxed_trace": records["relaxed_trace"].to_dict(),
            "canonical_pair": [
                records["canonical_pair_x"].to_dict(),
                records["canonical_pair_p"].to_dict(),
            ],
            "constraints": {
                "covariance_floor": records["covariance_floor"].to_dict(),
                "uncertainty_area": records["uncertainty_area"].to_dict(),
                "squeezing": self.squeezing.to_dict(),
                "second_order_floor": records["second_order_floor"].to_dict(),
            },
            "squeezed": self.squeezed,
            # false only when the hierarchy row applies and is violated
            "hierarchy_ok": hierarchy is None or not hierarchy.violated,
        }


def _objective(summary: MomentSummary, theta: float) -> float:
    # |<p_theta>|^2 / (4 Var x_theta), written out for scalar speed
    s, c = math.sin(theta), math.cos(theta)
    p = summary.mean_a.real * s + summary.mean_a.imag * c
    var_x = (
        summary.cov_ada
        + summary.var_a.real * (c * c - s * s)
        - summary.var_a.imag * 2.0 * s * c
    )
    return p * p / (2.0 * var_x)


def scan_bound(summary: MomentSummary) -> tuple[float, float]:
    """Maximize the angle-dependent floor over a half period.

    A 1024-point grid brackets the maximum (the objective is a ratio of two
    second-degree trigonometric polynomials, so the grid cannot miss it);
    golden-section refinement then narrows the angle below _REFINE_TOL.
    """
    ar, ai = summary.mean_a.real, summary.mean_a.imag
    p = ar * _SIN + ai * _COS
    var_x = summary.cov_ada + summary.var_a.real * _COS2 - summary.var_a.imag * _SIN2
    values = p * p / (2.0 * var_x)
    best = int(np.argmax(values))
    step = math.pi / _GRID_SIZE
    lo, hi = _THETA_GRID[best] - step, _THETA_GRID[best] + step
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = _objective(summary, c), _objective(summary, d)
    while hi - lo > _REFINE_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = _objective(summary, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = _objective(summary, d)
    theta = ((lo + hi) / 2.0) % math.pi
    return _objective(summary, theta), theta


def stick_variance(ell: NoiseEllipse) -> float:
    """Lambda^2: the quadrature variance along the stick (the <a> direction)."""
    chi = ell.stick_angle - ell.major_axis_angle
    return ell.lambda_plus_sq * math.cos(chi) ** 2 + ell.lambda_minus_sq * math.sin(chi) ** 2


def closed_bound(summary: MomentSummary, ell: NoiseEllipse) -> float:
    """Closed form of the scanned bound (rank-1 Rayleigh maximization)."""
    return (
        C_TIGHT
        * abs(summary.mean_a) ** 2
        * stick_variance(ell)
        / (ell.lambda_plus_sq * ell.lambda_minus_sq)
    )


def tight_bound(summary: MomentSummary, ell: NoiseEllipse) -> TightBoundReport:
    """Scan-based tight floor on Var n, with the calibrated closed form alongside.

    Inapplicable (zero-amplitude) states get bound 0 and applicable=False.
    """
    if ell.zero_stick_flag:
        return TightBoundReport(0.0, 0.0, 0.0, summary.var_n, False)
    bound, theta = scan_bound(summary)
    return TightBoundReport(
        bound_scan=bound,
        theta_star=theta,
        bound_closed=closed_bound(summary, ell),
        slack=summary.var_n - bound,
        applicable=True,
    )


def full_report(summary: MomentSummary, ell: NoiseEllipse) -> GaugeReport:
    """Evaluate every registry inequality and both gauges for one moment summary.

    G2 is the second-order pair covariance over its floor 2<n> + 1; exactly 1
    on eigenstates of a^2.  g2_alt is an alternative printed expression kept
    for comparison only: it disagrees with G2 on simple states (|1> gives 1
    versus 8), is undefined for <n> = 0, and is never asserted against.
    `g2_amplitude_warning` marks summaries whose amplitude is not actually
    zero, where G1 rather than G2 is the gauge to read.
    """
    tight = tight_bound(summary, ell)
    records = {
        row.name: _record(*row.sides(summary, ell, tight), row.tolerance)
        for row in INEQUALITIES
        if tight.applicable or not row.needs_amplitude
    }
    if summary.mean_n == 0.0:
        g2_alt: Optional[float] = None
    else:
        g2_alt = (
            summary.var_n + 4.0 * (ell.lambda_plus_sq - 0.5) * (ell.lambda_minus_sq + 0.5)
        ) / summary.mean_n
    scan, floor = records.get("tight_scan"), records["second_order_floor"]
    squeezing = _record(ell.lambda_minus_sq, 0.5, SQUEEZING_TOL)
    return GaugeReport(
        tight=tight,
        g1=None if scan is None else scan.lhs / scan.rhs,
        g2=floor.lhs / floor.rhs,
        g2_alt=g2_alt,
        g2_amplitude_warning=abs(summary.mean_a) > AMPLITUDE_FLAG_TOL,
        records=records,
        squeezing=squeezing,
        squeezed=squeezing.violated,
    )
