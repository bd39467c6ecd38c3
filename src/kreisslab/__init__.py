"""kreisslab: transient-assessment norms, Kreiss-norm controller synthesis,
and global-stability certification for benchmark nonlinear closed loops."""

from .errors import (
    ConsistencyError,
    DimensionError,
    EnumerationError,
    IndeterminateError,
    KreisslabError,
    NumericalError,
    PreconditionError,
    SchemaError,
    StabilityError,
    SynthesisError,
)
from .loop import (
    ClosedLoop,
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
)
from .norms import (
    NormReport,
    cb_lower_bound,
    hinf_norm,
    kreiss_matrix,
    kreiss_norm,
    peak_gain,
    transient_peak_m0,
)
from .statespace import StateSpace, series, tf_to_ss

__all__ = [
    "ClosedLoop",
    "ControllerRealization",
    "ControllerStructure",
    "NormReport",
    "assemble_closed_loop",
    "cb_lower_bound",
    "hinf_norm",
    "kreiss_matrix",
    "kreiss_norm",
    "peak_gain",
    "transient_peak_m0",
    "ConsistencyError",
    "DimensionError",
    "EnumerationError",
    "IndeterminateError",
    "KreisslabError",
    "NumericalError",
    "PreconditionError",
    "SchemaError",
    "StabilityError",
    "SynthesisError",
    "StateSpace",
    "series",
    "tf_to_ss",
]
