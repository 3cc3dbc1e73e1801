"""End-to-end glue: source -> pupil -> scans -> reconstruction -> report."""
from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, DataError
from .instrument import (
    ScanSeries,
    _bin_intensity,
    flux_vector,
    run_scan,
    scan_step,
    width_in_steps,
)
from .optics import (
    Geometry,
    IntensityProfile,
    SampledField,
    double_slit_field,
    propagate_fresnel,
)
from .reconstruct import (
    ReconstructionResult,
    build_aperture_matrix,
    gaussian_smooth,
    solve_stacked,
)


def make_source(cfg: RunConfig) -> SampledField:
    return double_slit_field(cfg.geometry, cfg.grid, cfg.illumination_tilt)


def pupil_field(cfg: RunConfig, source: SampledField | None = None) -> SampledField:
    if source is None:
        source = make_source(cfg)
    return propagate_fresnel(
        source, cfg.geometry.dist_slits_lens, cfg.geometry.wavelength
    )


def pupil_truth(
    geom: Geometry,
    source: SampledField,
    positions: np.ndarray,
    step: float,
) -> np.ndarray:
    """Directly computed pupil intensity, integrated per scan-step bin.

    This is the ground truth the reconstruction should recover: the pupil
    illumination pattern binned at the scan resolution.
    """
    pupil = propagate_fresnel(source, geom.dist_slits_lens, geom.wavelength)
    edges = np.concatenate((positions - step / 2, [positions[-1] + step / 2]))
    return _bin_intensity(
        np.abs(pupil.amplitudes) ** 2, pupil.origin, pupil.pitch, edges
    )


def run_all_scans(cfg: RunConfig, source: SampledField | None = None) -> list[ScanSeries]:
    if source is None:
        source = make_source(cfg)
    return [run_scan(source, cfg.geometry, scan, cfg.detector) for scan in cfg.scans]


def stack_layout(scans) -> tuple[str, int]:
    """The (opening, anchor_elems) that all stacked scan configs must share."""
    layouts = {(scan.opening, scan.anchor_elems) for scan in scans}
    if len(layouts) != 1:
        raise ConfigurationError("stacked scans must share opening and anchor")
    return layouts.pop()


def reconstruct_series(
    series_list: list[ScanSeries],
    signal: str = "F",
    cutoff: float = 1e-10,
    smoothing_rms: float = 0.0,
) -> ReconstructionResult:
    """Stacked least-squares reconstruction from in-memory scan series."""
    configs = [series.config for series in series_list]
    opening, anchor = stack_layout(configs)
    return reconstruct_tables(
        [series.table() for series in series_list],
        [scan.aperture_width for scan in configs],
        [scan.exposure for scan in configs],
        signal,
        opening,
        anchor,
        cutoff,
        smoothing_rms,
    )


def reconstruct_tables(
    tables: list[dict],
    widths: list[float],
    exposures: list[float],
    signal: str = "F",
    opening: str = "rightward",
    anchor: int = 20,
    cutoff: float = 1e-10,
    smoothing_rms: float = 0.0,
) -> ReconstructionResult:
    """Stacked least-squares reconstruction from scan tables.

    tables are column dicts as load_scan_csv and ScanSeries.table return
    them; all must share one uniform set of slit positions.  widths are
    the aperture widths in meters, converted to elements of that step.
    """
    s = tables[0]["s"]
    step = scan_step(tables[0])
    for t in tables[1:]:
        if t["s"].shape != s.shape or np.abs(t["s"] - s).max() > 1e-6 * step:
            raise DataError("stacked scans must be sampled at the same slit positions")
    elems = [width_in_steps(w, step) for w in widths]
    if len(set(elems)) < len(elems):
        raise ConfigurationError("stacked scans must use distinct aperture widths")
    mats = [build_aperture_matrix(s.size, w, opening, anchor) for w in elems]
    vectors = [flux_vector(t, signal) for t in tables]
    result = solve_stacked(
        mats, [f for _, f in vectors], exposures, grid=vectors[0][0], cutoff=cutoff
    )
    if smoothing_rms > 0:
        result = gaussian_smooth(result, smoothing_rms)
    return result


def result_profile(result: ReconstructionResult) -> IntensityProfile:
    """Reconstruction as an intensity profile (negatives clipped to zero)."""
    return IntensityProfile(
        float(result.grid[0]), result.pitch, np.clip(result.p_hat, 0.0, None)
    )


def direct_fringe_profile(cfg: RunConfig, source: SampledField | None = None) -> IntensityProfile:
    """Fringe profile imaged directly at the near plane D (no lens)."""
    if source is None:
        source = make_source(cfg)
    at_screen = propagate_fresnel(
        source, cfg.geometry.dist_slits_direct, cfg.geometry.wavelength
    )
    return at_screen.intensity()


def curve_width_at_half_max(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum with linear interpolation at the crossings."""
    y = np.asarray(y, dtype=float)
    half = y.max() / 2
    above = y >= half
    if not above.any():
        return 0.0
    first = int(np.argmax(above))
    last = len(y) - 1 - int(np.argmax(above[::-1]))
    left = x[first]
    if first > 0:
        left = np.interp(half, [y[first - 1], y[first]], [x[first - 1], x[first]])
    right = x[last]
    if last < len(y) - 1:
        right = np.interp(half, [y[last + 1], y[last]], [x[last + 1], x[last]])
    return float(right - left)
