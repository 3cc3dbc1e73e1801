"""Which-way double-slit bench: simulation, reconstruction, duality metrics."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DataError,
    NumericalError,
    WhichwayError,
)
from .optics import (
    Geometry,
    IntensityProfile,
    fraunhofer_intensity,
    fresnel_number,
    fringe_scale,
)
from .instrument import (
    DetectorConfig,
    ScanConfig,
    ScanSeries,
    assignment_probability,
    auto_exposure,
    flux_vector,
    load_scan_csv,
    pooled_assignment,
    run_scan,
    split_signals,
)
from .reconstruct import (
    ReconstructionResult,
    build_aperture_matrix,
    full_rank_dims,
    gaussian_smooth,
    rank_of,
    solve_stacked,
)
from .metrics import (
    DualityReport,
    distinguishability,
    duality_check,
    match_profiles,
    visibility,
)

__all__ = [name for name in dir() if not name.startswith("_")]
