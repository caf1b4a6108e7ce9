"""Truncated Fock-space toolkit for number-quadrature uncertainty bounds,
extremal state families, and second-order nonclassicality gauges."""

from .errors import (
    CutoffExplosionError,
    FockgaugeError,
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
    number_state,
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
    "CalibrationReport",
    "CutoffExplosionError",
    "DensityMatrix",
    "FockVector",
    "FockgaugeError",
    "GaugeReport",
    "InequalityRecord",
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
    "full_report",
    "normally_ordered_moment",
    "number_state",
    "photon_added",
    "random_state",
    "squeezed_coherent",
    "state_from_spec",
    "summarize",
    "summary_from_dict",
    "sweep",
    "tight_bound",
]
