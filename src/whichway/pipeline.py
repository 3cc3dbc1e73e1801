"""End-to-end glue: source -> pupil -> scans -> reconstruction -> report."""
from __future__ import annotations

import os
import threading

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, DataError
from .instrument import (
    ScanSeries,
    _pixel_profile,
    _ScanOptics,
    _ScanPupil,
    flux_vector,
    run_scan,
    uniform_step,
    width_in_steps,
)
from .optics import (
    Geometry,
    IntensityProfile,
    SampledField,
    amplitude_steps,
    double_slit_field,
    fresnel_field,
)
from .reconstruct import (
    SMOOTHING_RMS,
    ReconstructionResult,
    build_aperture_matrix,
    gaussian_smooth,
    solve_stacked,
)


def make_source(cfg: RunConfig) -> SampledField:
    return double_slit_field(cfg.geometry, cfg.grid, cfg.illumination_tilt)


def _binned_power(
    source: SampledField, distance: float, wavelength: float, centres, width: float
) -> np.ndarray:
    """|fresnel_field|^2 at distance integrated over [c - width/2, c + width/2]
    for each centre c, by 8-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    u = np.asarray(centres, dtype=float)[:, np.newaxis] + 0.5 * width * nodes
    field = fresnel_field(amplitude_steps(source), distance, wavelength, u)
    return (field.real**2 + field.imag**2) @ (0.5 * width * weights)


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
    (optics.fresnel_field).
    """
    return _binned_power(source, geom.dist_slits_lens, geom.wavelength, positions, step)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run_all_scans(cfg: RunConfig) -> list[ScanSeries]:
    """Every configured scan (run_scan), in config order.

    The scans share their step, start and step count (RunConfig), so those
    of one _ScanPupil.key read the same pupil values: the calling thread
    tabulates each such group's pupil once, as its widest scan's table,
    before any scan starts.  Where that table fails, each scan of the group
    tabulates its own and fails in its turn.  The scans share only the
    source and these read-only tables, and each draws its own noise stream,
    so they run on up to one thread per CPU the process may use, the calling
    thread included; numpy's FFTs and array loops release the GIL.  Each thread
    stops at its first failure, and once every thread has ended the first
    scan in config order that failed raises its error here.
    """
    source = make_source(cfg)
    scans = cfg.scans
    pupils = [_ScanPupil(source, cfg.geometry, scan, cfg.detector) for scan in scans]
    tables: dict = {}
    for i in sorted(range(len(scans)), key=lambda i: -scans[i].width_elems()):
        if pupils[i].key not in tables:
            try:
                tables[pupils[i].key] = pupils[i].tabulate()
            except Exception:  # so that the first failing scan in config order decides
                tables[pupils[i].key] = None
    workers = min(len(scans), _usable_cpus())
    outcomes: list = [None] * len(scans)

    def work(first: int) -> None:
        for i in range(first, len(scans), workers):
            try:
                table = tables[pupils[i].key]
                outcomes[i] = run_scan(source, cfg.geometry, scans[i], cfg.detector, table)
            except Exception as exc:
                outcomes[i] = exc
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def scan_profiles(cfg: RunConfig, series: ScanSeries) -> np.ndarray:
    """The expected pixels of each step of cfg's scan series, one row each."""
    optics = _ScanOptics(make_source(cfg), cfg.geometry, series.config, cfg.detector)
    return optics.images(series.records.slit_position) * series.config.exposure


def reconstruct_series(series_list: list[ScanSeries], signal: str = "F") -> ReconstructionResult:
    """Stacked least-squares reconstruction from in-memory scan series."""
    scans = [series.config for series in series_list]
    widths, exposures = [s.aperture_width for s in scans], [s.exposure for s in scans]
    tables = [series.table() for series in series_list]
    return reconstruct_tables(tables, widths, exposures, signal)


def reconstruct_tables(
    tables: list[dict], widths: list[float], exposures: list[float], signal: str = "F"
) -> ReconstructionResult:
    """Stacked least-squares reconstruction from scan tables.

    tables are column dicts as load_scan_csv and ScanSeries.table return
    them; all must share one uniform set of slit positions.  widths are
    the aperture widths in meters, converted to elements of that step.
    The solve truncates at DEFAULT_RANK_CUTOFF and smooths by SMOOTHING_RMS,
    both constants of reconstruct.
    """
    s = tables[0]["s"]
    step = uniform_step(s, "scan slit positions")
    for t in tables[1:]:
        if t["s"].shape != s.shape or np.abs(t["s"] - s).max() > 1e-6 * step:
            raise DataError("stacked scans must be sampled at the same slit positions")
    elems = [width_in_steps(w, step) for w in widths]
    if len(set(elems)) < len(elems):
        raise ConfigurationError("stacked scans must use distinct aperture widths")
    mats = [build_aperture_matrix(s.size, w) for w in elems]
    vectors = [flux_vector(t, signal) for t in tables]
    result = solve_stacked(mats, [f for _, f in vectors], exposures, grid=vectors[0][0])
    return gaussian_smooth(result, SMOOTHING_RMS)


def result_profile(result: ReconstructionResult) -> IntensityProfile:
    """Reconstruction as an intensity profile (negatives clipped to zero)."""
    return IntensityProfile(
        float(result.grid[0]), result.pitch, np.clip(result.p_hat, 0.0, None)
    )


def direct_fringe_profile(cfg: RunConfig) -> IntensityProfile:
    """Camera pixels at the near plane D (no lens), in detector-local coordinates.

    Each pixel integrates the source's exact Fresnel-integral field at D
    (optics.fresnel_field) over its footprint.
    """
    source = make_source(cfg)
    det = cfg.detector
    centres = (np.arange(det.n_pixels) - det.center_index) * det.pixel_pitch
    geom = cfg.geometry
    values = _binned_power(source, geom.dist_slits_direct, geom.wavelength, centres, det.pixel_pitch)
    return _pixel_profile(det, values)
