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

The scan's objective is a quadratic-form ratio.  With u = (sin theta,
cos theta), b = (Re<a>, Im<a>), C = Cov(a^dag, a) and V = Var a,

    |<p_theta>|^2 / (4 Var x_theta) = (b.u)^2 / (2 u^T M u),
    M = [[C - Re V, -Im V], [-Im V, C + Re V]],

and M is positive definite, with eigenvalues lambda_-^2 and lambda_+^2, on
every summary that `ellipse` accepts.  On a half period the ratio therefore
has one peak, at u ~ M^-1 b, and one zero, at u perpendicular to b, and
falls monotonically from the peak to the zero on either side.  `scan_bound`
reads the scan grid's maximum from a window of the grid around that peak
direction, evaluated in Python floats and certified by this shape and a
bound on the grid's rounding to hold the whole grid's first maximum (its
docstring gives the bound), or else from the whole grid, evaluated once as
float64 columns.  Both evaluate one expression of real + - * / only, so the
scan returns the bits an evaluation of the whole grid gives.

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
# numpy's grid angles and the float64 columns sin t, cos t, sin 2t, cos 2t;
# _THETA and _TRIG read them as Python floats, one angle at a time
_THETA_GRID = np.linspace(0.0, math.pi, _GRID_SIZE, endpoint=False)
_THETA = _THETA_GRID.tolist()
_COLUMNS = (np.sin(_THETA_GRID), np.cos(_THETA_GRID), np.sin(2.0 * _THETA_GRID), np.cos(2.0 * _THETA_GRID))
_TRIG = tuple(zip(*(column.tolist() for column in _COLUMNS)))
_STEP = math.pi / _GRID_SIZE
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_TOL = 1e-10
# 2E / (|<a>|^2 Cov / lambda_-^2), with E the bound on a grid value's rounding (see scan_bound)
_TWICE_ROUNDING = 2.0**-42


class InequalityRecord(NamedTuple):
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
    # violated below -tolerance times the larger side or 1; the absolute test
    # first, as the relative one implies it and it rarely holds
    violated = slack < -tolerance and slack < -tolerance * max(1.0, abs(lhs), abs(rhs))
    # tuple.__new__ skips the NamedTuple's Python-level __new__; the fields in declaration order
    return tuple.__new__(InequalityRecord, (lhs, rhs, slack, abs(slack) <= SATURATION_TOL, violated))


class TightBoundReport(NamedTuple):
    """Scanned and closed-form tight floor on Var n for one state."""

    bound_scan: float
    theta_star: float
    bound_closed: float
    slack: float
    applicable: bool

    def to_dict(self) -> dict:
        return self._asdict()


def lambda_plus_floor(amp_sq: float, lambda_plus_sq: float) -> float:
    """Relaxed floor on Var n from the major semiaxis: C_LAMBDA_PLUS |<a>|^2 / lp^2."""
    return C_LAMBDA_PLUS * amp_sq / lambda_plus_sq


def trace_floor(amp_sq: float, cov_ada: float) -> float:
    """Relaxed floor on Var n from the covariance: C_TRACE |<a>|^2 / Cov(a^dag, a)."""
    return C_TRACE * amp_sq / cov_ada


class Inequality(NamedTuple):
    """One registry row: lhs >= rhs, violated when lhs - rhs < -tolerance max(1, |lhs|, |rhs|).

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


class GaugeReport(NamedTuple):
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


def _objective(ar: float, ai: float, cov: float, vr: float, vi: float, theta: float) -> float:
    # |<p_theta>|^2 / (4 Var x_theta) from <a> = ar + i ai, Cov(a^dag, a) and Var a = vr + i vi
    s, c = math.sin(theta), math.cos(theta)
    p = ar * s + ai * c
    return p * p / (2.0 * (cov + vr * (c * c - s * s) - vi * 2.0 * s * c))


def _grid_values(ar: float, ai: float, cov: float, vr: float, vi: float, s, c, s2, c2):
    # p^2 / (2 var_x) at the grid angles with sines and cosines s, c, s2, c2:
    # p = ar s + ai c, then p p / (((vr c2 + cov) - vi s2) 2).  Only real + - * /,
    # so Python floats and float64 columns give the same bits
    p = ar * s + ai * c
    return p * p / ((vr * c2 + cov - vi * s2) * 2.0)


def scan_bound(summary: MomentSummary) -> tuple[float, float]:
    """Maximize the angle-dependent floor over a half period.

    Precondition: `ellipse` accepted the summary, so that l- = lambda_-^2 =
    Cov - |Var a| > 1e-12 max(1, l+) with l+ = lambda_+^2, and <a> != 0.

    The maximum of the 1024-point grid over [0, pi) brackets the peak (the
    objective is a ratio of two second-degree trigonometric polynomials, so
    the grid cannot miss it); golden-section refinement then narrows the
    angle below _REFINE_TOL.  The grid maximum comes from a window of the
    grid, and is the first maximum of the whole grid, bit for bit:

    - The window is the 3 indices nearest the peak direction u ~ M^-1 b
      (module docstring).  `_grid_values` gives its values in Python
      floats and the whole grid's as float64 columns, with the same real
      operations in the same order, so they are the same bits.
    - The objective falls monotonically from its one peak to its one zero
      on both sides.  So where both window edges lie below a point inside,
      the peak is inside, and every angle outside lies below an edge.
    - Each computed grid value is within E of the objective at its angle.
      So a window whose two edge values lie more than 2E below its largest
      value holds the whole grid's largest value.  Otherwise the whole grid
      is evaluated, and argmax picks its first maximum.

    The bound E = 2^-44 |<a>|^2 / l- (1 + l+ / l-) = 2^-43 |<a>|^2 Cov / l-^2.
    With u = 2^-53 and the tabulated sines and cosines within one ulp:
    p = Re<a> S + Im<a> C errs by at most 4u (|Re<a>| + |Im<a>|), that is
    5.7u |<a>|, so p^2 errs by at most 12.5u |<a>|^2.  The denominator
    Cov + Re V cos 2t - Im V sin 2t is at least l- and errs by at most
    6u (|Re V| + |Im V|) + 2u Cov < 8.5u l+, a relative error below
    8.5u kappa, kappa = l+ / l- < 1e12.  The quotient, at most
    |<a>|^2 / (2 l-), thus errs by at most 7u |<a>|^2 / l- (1 + kappa),
    to first order in u kappa < 1.2e-4.  E is 70 times that, which leaves
    room for tables a few ulp off and absorbs the rounding of E itself and
    of the comparisons.  A bound near the float range makes E inf, so the
    whole grid is evaluated, where the quotients overflow to inf under
    np.errstate(over="ignore"), without a warning.
    """
    ar, ai = summary.mean_a.real, summary.mean_a.imag
    cov, vr, vi = summary.cov_ada, summary.var_a.real, summary.var_a.imag
    lam_minus = cov - abs(summary.var_a)
    # 2E, twice the bound on a grid value's rounding error
    twice_e = _TWICE_ROUNDING * (ar * ar + ai * ai) / lam_minus * (cov / lam_minus)
    # the grid index nearest the peak direction u ~ M^-1 b: it only places the window
    k0 = round(math.atan2((cov + vr) * ar + vi * ai, vi * ar + (cov - vr) * ai) / _STEP)
    best = k0 % _GRID_SIZE
    # the window best - 1 (index -1 wraps to the grid's end), best, best + 1;
    # certified when both edges lie more than 2E below the middle, the
    # window's largest value (an edge that is largest fails the test anyway)
    left = _grid_values(ar, ai, cov, vr, vi, *_TRIG[best - 1])
    middle = _grid_values(ar, ai, cov, vr, vi, *_TRIG[best])
    right = _grid_values(ar, ai, cov, vr, vi, *_TRIG[(best + 1) % _GRID_SIZE])
    if not max(left, right) + twice_e < middle:
        # the first maximum of the whole grid, as argmax picks; a bound near
        # the float range overflows to inf
        with np.errstate(over="ignore"):
            best = int(np.argmax(_grid_values(ar, ai, cov, vr, vi, *_COLUMNS)))
    lo, hi = _THETA[best] - _STEP, _THETA[best] + _STEP
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = _objective(ar, ai, cov, vr, vi, c), _objective(ar, ai, cov, vr, vi, d)
    # _objective's arithmetic, inlined: its call took about a fifth of the refinement
    sin, cos = math.sin, math.cos
    while hi - lo > _REFINE_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            s, co = sin(c), cos(c)
            p = ar * s + ai * co
            fc = p * p / (2.0 * (cov + vr * (co * co - s * s) - vi * 2.0 * s * co))
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            s, co = sin(d), cos(d)
            p = ar * s + ai * co
            fd = p * p / (2.0 * (cov + vr * (co * co - s * s) - vi * 2.0 * s * co))
    theta = ((lo + hi) / 2.0) % math.pi
    return _objective(ar, ai, cov, vr, vi, theta), theta


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
    # tuple.__new__, as in _record: the fields bound_scan, theta_star,
    # bound_closed, slack and applicable, in that order
    if ell.zero_stick_flag:
        return tuple.__new__(TightBoundReport, (0.0, 0.0, 0.0, summary.var_n, False))
    bound, theta = scan_bound(summary)
    return tuple.__new__(
        TightBoundReport, (bound, theta, closed_bound(summary, ell), summary.var_n - bound, True)
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
    applicable = tight.applicable
    records = {}
    for name, sides, tolerance, needs_amplitude in INEQUALITIES:
        if applicable or not needs_amplitude:
            lhs, rhs = sides(summary, ell, tight)
            records[name] = _record(lhs, rhs, tolerance)
    if summary.mean_n == 0.0:
        g2_alt: Optional[float] = None
    else:
        g2_alt = (
            summary.var_n + 4.0 * (ell.lambda_plus_sq - 0.5) * (ell.lambda_minus_sq + 0.5)
        ) / summary.mean_n
    scan, floor = records.get("tight_scan"), records["second_order_floor"]
    squeezing = _record(ell.lambda_minus_sq, 0.5, SQUEEZING_TOL)
    # tuple.__new__, as in _record: the fields in declaration order
    return tuple.__new__(
        GaugeReport,
        (
            tight,
            None if scan is None else scan.lhs / scan.rhs,  # g1
            floor.lhs / floor.rhs,  # g2
            g2_alt,
            abs(summary.mean_a) > AMPLITUDE_FLAG_TOL,  # g2_amplitude_warning
            records,
            squeezing,
            squeezing.violated,  # squeezed
        ),
    )
