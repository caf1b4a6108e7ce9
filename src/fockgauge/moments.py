"""Moment summaries and noise-ellipse geometry.

The quadrature normalization is pinned once and for all here:
x_theta = (a e^{i theta} + a^dag e^{-i theta}) / sqrt(2), its conjugate
partner p_theta a quarter period ahead, so [x, p] = i and a coherent state
has Var x = 1/2 at every angle.  Every constant downstream depends on this
choice, which unit tests on the vacuum and on squeezed states enforce.

`MomentSummary` is the only interchange format between state construction and
gauge evaluation, so gauges also run on hand-entered moment tables.  A block
of pure states gives one `MomentSummary` of numpy columns, one entry per row,
each with the bits of that row's own summary: `modulus`, `square` and
`complex_square` give a column the rounding of Python's `abs(z)`, `x**2` and
`z**2`, which numpy's `abs`, `x*x` and complex product do not always have.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import NonphysicalMomentError
from .fock import QuantumState, boundary_mass, normally_ordered_moment
from .schema import SQUARE_LIMIT, boolean, check_fields, complex_number, real

BOUNDARY_MASS_WARN = 1e-10
FLAG_TOL = 1e-12
# the rounding margin of most inequality rows; a smaller deficit is left to them
MEAN_N_TOL = 1e-9


class MomentSummary(NamedTuple):
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
            name: {"re": value.real, "im": value.imag} if _SUMMARY_TYPES[name] is complex else value
            for name, value in zip(self._fields, self)
        }


# field name -> declared type, resolved from the annotations, which
# `from __future__ import annotations` leaves as strings
_SUMMARY_TYPES = get_type_hints(MomentSummary)
# the gauges square moments as Python floats
_READERS = {
    complex: functools.partial(complex_number, limit=SQUARE_LIMIT),
    float: functools.partial(real, limit=SQUARE_LIMIT),
    bool: boolean,
}


def summary_from_dict(data: dict) -> MomentSummary:
    """Parse a MomentSummary JSON object (all fields required, none extra,
    every number of magnitude at most SQUARE_LIMIT)."""
    check_fields(data, "moment summary", MomentSummary._fields)
    return MomentSummary._make(_READERS[kind](data, name) for name, kind in _SUMMARY_TYPES.items())


def summarize(state: QuantumState) -> MomentSummary:
    """Reduce a state to its full first/second-order moment summary.

    A FockVector block gives one MomentSummary whose fields are columns, one
    entry per row.  Its four moments are each reduced once over the whole
    block, and each derived field is one expression on whole columns, rounded
    as the single-state path rounds it in Python floats, so that each row is
    bit for bit the summary of that row built alone.
    """
    mean_a = normally_ordered_moment(state, 0, 1)
    mean_a2 = normally_ordered_moment(state, 0, 2)
    mean_n = normally_ordered_moment(state, 1, 1).real
    mean_a2da2 = normally_ordered_moment(state, 2, 2).real
    truncated = boundary_mass(state) > BOUNDARY_MASS_WARN
    if isinstance(mean_a, complex):
        return _summary(mean_a, mean_a2, mean_n, mean_a2da2, truncated)
    return _columns(mean_a, mean_a2, mean_n, mean_a2da2, truncated)


def _summary(
    mean_a: complex, mean_a2: complex, mean_n: float, mean_a2da2: float, truncated: bool
) -> MomentSummary:
    mean_n2 = mean_a2da2 + mean_n
    # tuple.__new__ skips the NamedTuple's Python-level __new__; the fields in declaration order
    return tuple.__new__(
        MomentSummary,
        (
            mean_a,
            mean_a2,
            mean_n,
            mean_n2,
            mean_a2da2,
            mean_n2 - mean_n**2,  # var_n
            mean_a2 - mean_a**2,  # var_a
            mean_n + 0.5 - abs(mean_a) ** 2,  # cov_ada
            mean_a2da2 + 2.0 * mean_n + 1.0 - abs(mean_a2) ** 2,  # cov_a2
            truncated,
        ),
    )


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| per entry, with the bits of Python's abs(z): both call C's hypot
    (np.abs rounds differently on some inputs)."""
    return np.hypot(z.real, z.imag)


def square(x: np.ndarray) -> np.ndarray:
    """x**2 per entry, with the bits of a Python float's x**2: both call C's
    pow (x * x rounds differently on some inputs)."""
    return np.float_power(x, 2.0)


def complex_square(z: np.ndarray) -> np.ndarray:
    """z**2 per entry, with the bits of Python's complex z**2.

    CPython's z**2 is 1 * (z * z), each complex product written in real
    +, - and * without fused multiply-adds; numpy's complex product rounds
    differently on some inputs.
    """
    re, im = z.real, z.imag
    zz_re = re * re - im * im
    zz_im = re * im + im * re
    out = np.empty_like(z)
    # the product with 1 + 0j, which can change the sign of a zero part
    out.real = zz_re - 0.0 * zz_im
    out.imag = zz_im + 0.0 * zz_re
    return out


def _columns(
    mean_a: np.ndarray, mean_a2: np.ndarray, mean_n: np.ndarray, mean_a2da2: np.ndarray, truncated: np.ndarray
) -> MomentSummary:
    # `_summary` on whole columns, each Python `abs` and `**` replaced by its column primitive
    mean_n2 = mean_a2da2 + mean_n
    return tuple.__new__(
        MomentSummary,
        (
            mean_a,
            mean_a2,
            mean_n,
            mean_n2,
            mean_a2da2,
            mean_n2 - square(mean_n),  # var_n
            mean_a2 - complex_square(mean_a),  # var_a
            mean_n + 0.5 - square(modulus(mean_a)),  # cov_ada
            mean_a2da2 + 2.0 * mean_n + 1.0 - square(modulus(mean_a2)),  # cov_a2
            truncated,
        ),
    )


class NoiseEllipse(NamedTuple):
    """Extremal quadrature variances and phase-space angles of one state.

    Angles are phase-space angles.  A degenerate angle (a circle's major
    axis, a zero stick's direction) is 0 by convention; consumers branch on
    `zero_stick_flag`, never on magnitudes.
    """

    lambda_plus_sq: float
    lambda_minus_sq: float
    major_axis_angle: float
    stick_angle: float
    zero_stick_flag: bool


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
    zero_stick = abs(summary.mean_a) < FLAG_TOL
    major = 0.0 if spread < FLAG_TOL else math.atan2(summary.var_a.imag, summary.var_a.real) / 2.0
    stick = 0.0 if zero_stick else math.atan2(summary.mean_a.imag, summary.mean_a.real)
    return tuple.__new__(NoiseEllipse, (lam_plus, lam_minus, major, stick, zero_stick))

