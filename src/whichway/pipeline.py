"""End-to-end glue: source -> pupil -> scans -> reconstruction -> report."""
from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, DataError
from .instrument import (
    ScanSeries,
    flux_vector,
    run_scan,
    uniform_step,
    width_in_steps,
)
from .optics import (
    Geometry,
    IntensityProfile,
    SampledField,
    double_slit_field,
    fresnel_field,
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
    illumination pattern integrated over [p - step/2, p + step/2] for each
    position p.  The field is the source's exact Fresnel-integral pupil
    (optics.fresnel_field), integrated by 8-point Gauss-Legendre quadrature
    per bin.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    u = np.asarray(positions, dtype=float)[:, np.newaxis] + 0.5 * step * nodes
    field = fresnel_field(source, geom.dist_slits_lens, geom.wavelength, u)
    return (field.real**2 + field.imag**2) @ (0.5 * step * weights)


def run_all_scans(cfg: RunConfig, source: SampledField | None = None) -> list[ScanSeries]:
    if source is None:
        source = make_source(cfg)
    return [run_scan(source, cfg.geometry, scan, cfg.detector) for scan in cfg.scans]


def reconstruct_series(
    cfg: RunConfig, series_list: list[ScanSeries], signal: str = "F"
) -> ReconstructionResult:
    """Stacked least-squares reconstruction from in-memory scan series."""
    scans = [series.config for series in series_list]
    widths, exposures = [s.aperture_width for s in scans], [s.exposure for s in scans]
    tables = [series.table() for series in series_list]
    return reconstruct_tables(cfg, tables, widths, exposures, signal)


def reconstruct_tables(
    cfg: RunConfig,
    tables: list[dict],
    widths: list[float],
    exposures: list[float],
    signal: str = "F",
) -> ReconstructionResult:
    """Stacked least-squares reconstruction from scan tables.

    tables are column dicts as load_scan_csv and ScanSeries.table return
    them; all must share one uniform set of slit positions.  widths are
    the aperture widths in meters, converted to elements of that step.
    The cutoff, the smoothing width and the opening and anchor, which all
    of cfg's scans must share, come from cfg.
    """
    layouts = {(scan.opening, scan.anchor_elems) for scan in cfg.scans}
    if len(layouts) != 1:
        raise ConfigurationError("stacked scans must share opening and anchor")
    ((opening, anchor),) = layouts
    s = tables[0]["s"]
    step = uniform_step(s, "scan slit positions")
    for t in tables[1:]:
        if t["s"].shape != s.shape or np.abs(t["s"] - s).max() > 1e-6 * step:
            raise DataError("stacked scans must be sampled at the same slit positions")
    elems = [width_in_steps(w, step) for w in widths]
    if len(set(elems)) < len(elems):
        raise ConfigurationError("stacked scans must use distinct aperture widths")
    mats = [build_aperture_matrix(s.size, w, opening, anchor) for w in elems]
    vectors = [flux_vector(t, signal) for t in tables]
    result = solve_stacked(
        mats, [f for _, f in vectors], exposures, grid=vectors[0][0], cutoff=cfg.recon_cutoff
    )
    if cfg.smoothing_rms > 0:
        result = gaussian_smooth(result, cfg.smoothing_rms)
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
