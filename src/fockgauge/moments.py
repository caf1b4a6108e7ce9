"""Moment summaries and noise-ellipse geometry.

The quadrature normalization is pinned once and for all here:
x_theta = (a e^{i theta} + a^dag e^{-i theta}) / sqrt(2), its conjugate
partner p_theta a quarter period ahead, so [x, p] = i and a coherent state
has Var x = 1/2 at every angle.  Every constant downstream depends on this
choice, which unit tests on the vacuum and on squeezed states enforce.

`MomentSummary` is the only interchange format between state construction and
gauge evaluation, so gauges also run on hand-entered moment tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

from .errors import NonphysicalMomentError
from .fock import QuantumState, boundary_mass, normally_ordered_moment
from .schema import boolean, check_fields, complex_number, real

BOUNDARY_MASS_WARN = 1e-10
FLAG_TOL = 1e-12
# the rounding margin of most inequality rows; a smaller deficit is left to them
MEAN_N_TOL = 1e-9


@dataclass(frozen=True)
class MomentSummary:
    """All first- and second-order field moments of one state."""

    mean_a: complex
    mean_a2: complex
    mean_n: float
    mean_n2: float
    mean_a2da2: float
    var_n: float
    var_a: complex
    cov_ada: float
    cov_a2: float
    truncation_warning: bool

    def to_dict(self) -> dict:
        return {
            "mean_a": {"re": self.mean_a.real, "im": self.mean_a.imag},
            "mean_a2": {"re": self.mean_a2.real, "im": self.mean_a2.imag},
            "mean_n": self.mean_n,
            "mean_n2": self.mean_n2,
            "mean_a2da2": self.mean_a2da2,
            "var_n": self.var_n,
            "var_a": {"re": self.var_a.real, "im": self.var_a.imag},
            "cov_ada": self.cov_ada,
            "cov_a2": self.cov_a2,
            "truncation_warning": self.truncation_warning,
        }


_READERS = {"complex": complex_number, "float": real, "bool": boolean}


def summary_from_dict(data: dict) -> MomentSummary:
    """Parse a MomentSummary JSON object (all fields required, none extra)."""
    columns = fields(MomentSummary)
    check_fields(data, "moment summary", [c.name for c in columns])
    return MomentSummary(**{c.name: _READERS[c.type](data, c.name) for c in columns})


def summarize(state: QuantumState) -> MomentSummary:
    """Reduce a state to its full first/second-order moment summary."""
    mean_a = normally_ordered_moment(state, 0, 1)
    mean_a2 = normally_ordered_moment(state, 0, 2)
    mean_n = normally_ordered_moment(state, 1, 1).real
    mean_a2da2 = normally_ordered_moment(state, 2, 2).real
    mean_n2 = mean_a2da2 + mean_n
    return MomentSummary(
        mean_a=mean_a,
        mean_a2=mean_a2,
        mean_n=mean_n,
        mean_n2=mean_n2,
        mean_a2da2=mean_a2da2,
        var_n=mean_n2 - mean_n**2,
        var_a=mean_a2 - mean_a**2,
        cov_ada=mean_n + 0.5 - abs(mean_a) ** 2,
        cov_a2=mean_a2da2 + 2.0 * mean_n + 1.0 - abs(mean_a2) ** 2,
        truncation_warning=boundary_mass(state) > BOUNDARY_MASS_WARN,
    )


@dataclass(frozen=True)
class NoiseEllipse:
    """Extremal quadrature variances and phase-space angles of one state.

    Angles are phase-space angles; flagged degenerate angles are 0 by
    convention and consumers must branch on the flags, never on magnitudes.
    """

    lambda_plus_sq: float
    lambda_minus_sq: float
    major_axis_angle: float
    stick_angle: float
    circle_flag: bool
    zero_stick_flag: bool

    def to_dict(self) -> dict:
        return {
            "lambda_plus_sq": self.lambda_plus_sq,
            "lambda_minus_sq": self.lambda_minus_sq,
            "major_axis_angle": self.major_axis_angle,
            "stick_angle": self.stick_angle,
            "circle_flag": self.circle_flag,
            "zero_stick_flag": self.zero_stick_flag,
        }


def ellipse(summary: MomentSummary) -> NoiseEllipse:
    """Noise-ellipse geometry from a moment summary.

    Raises NonphysicalMomentError when <n> is below -MEAN_N_TOL or the minor
    variance is not positive, which can only happen for invalid (e.g. hand-entered)
    moment data.
    """
    if summary.mean_n < -MEAN_N_TOL:
        raise NonphysicalMomentError(f"mean_n {summary.mean_n!r} is negative")
    spread = abs(summary.var_a)
    lam_plus = summary.cov_ada + spread
    lam_minus = summary.cov_ada - spread
    if lam_minus <= FLAG_TOL * max(1.0, abs(lam_plus)):
        raise NonphysicalMomentError(
            f"minor quadrature variance {lam_minus!r} is not positive; moments are nonphysical"
        )
    circle = spread < FLAG_TOL
    zero_stick = abs(summary.mean_a) < FLAG_TOL
    return NoiseEllipse(
        lambda_plus_sq=lam_plus,
        lambda_minus_sq=lam_minus,
        major_axis_angle=0.0 if circle else cmath.phase(summary.var_a) / 2.0,
        stick_angle=0.0 if zero_stick else cmath.phase(summary.mean_a),
        circle_flag=circle,
        zero_stick_flag=zero_stick,
    )


@dataclass(frozen=True)
class QuadratureStats:
    mean_x: float
    mean_p: float
    var_x: float


def quadrature_means_from_summary(summary: MomentSummary, theta: float) -> tuple[float, float]:
    rotated = summary.mean_a * cmath.exp(1j * theta)
    return math.sqrt(2.0) * rotated.real, math.sqrt(2.0) * rotated.imag


def quadrature_variance_from_summary(summary: MomentSummary, theta: float) -> float:
    return summary.cov_ada + (summary.var_a * cmath.exp(2j * theta)).real


def quadrature_stats(state: QuantumState, theta: float) -> QuadratureStats:
    """Mean of x_theta and p_theta and variance of x_theta."""
    summary = summarize(state)
    mean_x, mean_p = quadrature_means_from_summary(summary, theta)
    return QuadratureStats(
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=quadrature_variance_from_summary(summary, theta),
    )


def lambda_sq(ell: NoiseEllipse, angle: float) -> float:
    """Interpolated squared semiaxis lambda^2 = l+^2 sin^2 + l-^2 cos^2."""
    s, c = math.sin(angle), math.cos(angle)
    return ell.lambda_plus_sq * s * s + ell.lambda_minus_sq * c * c

