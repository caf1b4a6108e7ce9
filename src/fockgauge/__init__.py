"""Truncated Fock-space toolkit for number-quadrature uncertainty bounds,
extremal state families, and second-order nonclassicality gauges."""

from .errors import (
    CalibrationError,
    CutoffExplosionError,
    FockgaugeError,
    MomentOrderError,
    NonFiniteOutputError,
    NonphysicalMomentError,
    SchemaError,
    ZeroNormError,
)
from .fock import (
    DensityMatrix,
    FockVector,
    QuantumState,
    normally_ordered_moment,
)
from .gauges import (
    GaugeReport,
    InequalityRecord,
    TightBoundReport,
    full_report,
    tight_bound,
)
from .moments import (
    MomentSummary,
    NoiseEllipse,
    ellipse,
    summarize,
    summary_from_dict,
)
from .states import (
    approx_strong_field,
    cat,
    coherent,
    crescent,
    fock,
    photon_added,
    random_state,
    squeezed_coherent,
    state_from_spec,
)
from .verify import (
    CalibrationReport,
    SweepConfig,
    SweepReport,
    calibrate,
    figure_rows,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationReport",
    "CutoffExplosionError",
    "DensityMatrix",
    "FockVector",
    "FockgaugeError",
    "GaugeReport",
    "InequalityRecord",
    "MomentOrderError",
    "MomentSummary",
    "NoiseEllipse",
    "NonFiniteOutputError",
    "NonphysicalMomentError",
    "QuantumState",
    "SchemaError",
    "SweepConfig",
    "SweepReport",
    "TightBoundReport",
    "ZeroNormError",
    "approx_strong_field",
    "calibrate",
    "cat",
    "coherent",
    "crescent",
    "ellipse",
    "figure_rows",
    "fock",
    "full_report",
    "normally_ordered_moment",
    "photon_added",
    "random_state",
    "squeezed_coherent",
    "state_from_spec",
    "summarize",
    "summary_from_dict",
    "sweep",
    "tight_bound",
]
