"""Exception types shared across the package."""


class FockgaugeError(Exception):
    """Base class for all package-specific errors."""


class MomentOrderError(FockgaugeError):
    """Requested a normally ordered moment beyond the supported order."""


class CutoffExplosionError(FockgaugeError):
    """A state constructor needed a Fock cutoff above the configured ceiling."""


class ZeroNormError(FockgaugeError):
    """A superposition cancelled to (numerically) zero norm where a state was required."""


class NonphysicalMomentError(FockgaugeError):
    """Moment data violates basic positivity, e.g. a non-positive minor quadrature variance."""


class CalibrationError(FockgaugeError):
    """Coherent-state calibration anchors disagree, signalling a convention bug."""


class SchemaError(FockgaugeError):
    """Input JSON or a setting such as FOCKGAUGE_MAX_CUTOFF does not match its documented form."""
