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


class NonFiniteOutputError(FockgaugeError):
    """A value bound for JSON output is NaN or infinite, which strict JSON cannot carry."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.value = value
        self.path: list = []  # keys and list indices from the root, filled in by the writer

    def __str__(self) -> str:
        where = ".".join(map(str, self.path)) or "<root>"
        return f"output field {where} is {self.value!r}, which JSON cannot carry"
