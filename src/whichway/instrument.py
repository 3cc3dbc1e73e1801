"""Imaging arm of the bench: aperture stop, thin lens, pixelated camera,
and the counter-moving stages that execute a scan.

The scan is simulated in the lab frame: at step k the slit mask sits at
s_k, the aperture stop is fixed, and the camera rides its stage at
-stage_ratio * s_k.  Equivalently the fixed aperture samples the pupil
pattern at offset -s_k, which is what the reconstruction module assumes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import ifft

from .artifacts import read_csv, write_csv
from .errors import ConfigurationError, DataError, NumericalError
from .metrics import distinguishability
from .optics import (
    Geometry,
    IntensityProfile,
    SampledField,
    fresnel_spectrum,
    propagate_fresnel,
)
from .reconstruct import OPENINGS, band_left_elems

# camera full-well stand-in used by auto exposure (intensity units = electrons
# at unit gain); exposures default to putting the peak pixel at 70% of it
FULL_WELL = 1e5
AUTO_EXPOSURE_FRACTION = 0.7


def width_in_steps(width: float, step: float) -> int:
    """Aperture width in scan-step elements; must divide evenly."""
    w = width / step
    if abs(w - round(w)) > 1e-6:
        raise ConfigurationError(
            f"aperture width {width} is not an integer multiple of the scan step {step}"
        )
    return int(round(w))


@dataclass(frozen=True)
class ScanConfig:
    """One scan of the slit stage against a fixed aperture width."""

    aperture_width: float
    step: float = 0.1e-3
    n_steps: int = 301
    s_start: float = -15e-3
    stage_ratio: float = 1.07
    exposure: float | None = None  # seconds; None = auto (70% full well)
    frames_per_step: int = 4
    opening: str = "rightward"
    anchor_elems: int = 20  # fixed-edge reference half-width, in scan steps
    midline: str = "center"  # or "centroid"

    def __post_init__(self):
        if not self.aperture_width > 0:
            raise ConfigurationError("aperture_width must be > 0")
        if not self.step > 0:
            raise ConfigurationError("scan step must be > 0")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if not self.stage_ratio > 0:
            raise ConfigurationError("stage_ratio must be > 0")
        if self.exposure is not None and not self.exposure > 0:
            raise ConfigurationError("exposure must be > 0")
        if self.frames_per_step < 1:
            raise ConfigurationError("frames_per_step must be >= 1")
        if self.opening not in OPENINGS:
            raise ConfigurationError(f"opening must be one of {OPENINGS}")
        if self.midline not in ("center", "centroid"):
            raise ConfigurationError("midline must be 'center' or 'centroid'")

    def width_elems(self) -> int:
        return width_in_steps(self.aperture_width, self.step)

    def aperture_left_edge(self) -> float:
        """Fixed lab-frame left edge of the aperture interval.

        Chosen so the interval covers exactly the pattern elements of the
        matching aperture matrix: edges land on the boundaries of the
        step-sized pattern bins.
        """
        left = band_left_elems(self.width_elems(), self.opening, self.anchor_elems)
        return -(left - 0.5) * self.step


@dataclass(frozen=True)
class DetectorConfig:
    """Pixelated 1-D camera (column-equivalent of the CCD)."""

    pixel_pitch: float = 13e-6
    n_pixels: int = 1024
    readout_noise: float = 6.0  # electrons rms per pixel per frame
    gain: float = 1.0  # electrons per intensity unit
    noise_enabled: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        if not self.pixel_pitch > 0:
            raise ConfigurationError("pixel_pitch must be > 0")
        if self.n_pixels < 64:
            raise ConfigurationError("n_pixels must be >= 64")
        if self.readout_noise < 0:
            raise ConfigurationError("readout_noise must be >= 0")
        if not self.gain > 0:
            raise ConfigurationError("gain must be > 0")
        if self.rng_seed < 0:
            raise ConfigurationError("seed must be >= 0")

    @property
    def center_index(self) -> float:
        return (self.n_pixels - 1) / 2


@dataclass(frozen=True)
class ScanStepRecord:
    step_index: int
    slit_position: float
    detector_profile: IntensityProfile
    total_flux: float
    left_signal: float
    right_signal: float


_CSV_HEADER = ["step", "s_mm", "F", "left", "right"]
_CSV_FORMATS = ["d", ".9e", ".9e", ".9e", ".9e"]

# scan-table column -> ScanStepRecord attribute
_TABLE_COLUMNS = {
    "step": "step_index",
    "s": "slit_position",
    "F": "total_flux",
    "left": "left_signal",
    "right": "right_signal",
}


@dataclass(frozen=True)
class ScanSeries:
    config: ScanConfig
    records: tuple

    def __post_init__(self):
        if len(self.records) != self.config.n_steps:
            raise ConfigurationError("record count must equal n_steps")

    def table(self) -> dict:
        """The scan as the column dict that load_scan_csv returns."""
        return {
            key: np.array([getattr(r, attr) for r in self.records])
            for key, attr in _TABLE_COLUMNS.items()
        }

    def to_csv(self, path) -> None:
        t = self.table()
        columns = [t["step"], t["s"] * 1e3, t["F"], t["left"], t["right"]]
        write_csv(path, _CSV_HEADER, _CSV_FORMATS, columns)


def load_scan_csv(path) -> dict:
    """Read a scan CSV back into arrays; malformed rows name their line."""
    table = read_csv(path, _CSV_HEADER)
    step = table.pop("step")
    if not np.array_equal(step, np.round(step)):
        raise DataError(f"{path}: step numbers must be whole")
    return {"step": step.astype(int), "s": table.pop("s_mm") * 1e-3, **table}


def uniform_step(positions: np.ndarray, what: str) -> float:
    """The step of positions; DataError, naming what they are, unless uniform."""
    step = float(positions[-1] - positions[0]) / max(positions.size - 1, 1)
    # CSV artifacts keep at least 10 significant digits of each position
    tol = 1e-6 * step + 1e-9 * float(np.abs(positions).max())
    if not step > 0 or not np.allclose(np.diff(positions), step, rtol=0, atol=tol):
        raise DataError(f"{what} must increase in uniform steps")
    return step


def flux_vector(table: dict, signal: str = "F") -> tuple[np.ndarray, np.ndarray]:
    """Fluxes of a scan table ordered by ascending pupil offset u = -s.

    signal is "F", "left" or "right".  Returns (offsets, fluxes).  The
    aperture samples the pupil pattern at offset -s, so ascending-offset
    order is the reversed step order; the aperture matrices assume it.
    """
    if signal not in ("F", "left", "right"):
        raise ConfigurationError(f"unknown signal {signal!r}")
    offsets = -table["s"]
    order = np.argsort(offsets, kind="stable")
    return offsets[order], table[signal][order]


def apply_aperture(
    field_in: SampledField, left_edge: float, width: float
) -> SampledField:
    """Multiply the field by the indicator of [left_edge, left_edge + width).

    Edge cells get sqrt(coverage) weighting so transmitted power equals
    the integral of |field|^2 over the interval.
    """
    lo, hi = left_edge, left_edge + width
    x = field_in.positions
    p = field_in.pitch
    frac = np.clip(
        (np.minimum(x + p / 2, hi) - np.maximum(x - p / 2, lo)) / p, 0.0, 1.0
    )
    if not frac.any():
        warnings.warn(
            "aperture interval lies entirely outside the field grid; "
            "returning an all-zero field",
            stacklevel=2,
        )
    return replace(field_in, amplitudes=field_in.amplitudes * np.sqrt(frac))


def _bin_intensity(
    intensity: np.ndarray,
    origin: float,
    pitch: float,
    edges: np.ndarray,
) -> np.ndarray:
    """Integrate a fine-grid intensity over arbitrary contiguous bins."""
    cell_edges = origin - pitch / 2 + pitch * np.arange(intensity.size + 1)
    if edges[0] < cell_edges[0] or edges[-1] > cell_edges[-1]:
        raise ConfigurationError(
            "requested bins not covered by the simulation grid "
            f"(bins span [{edges[0]:.4g}, {edges[-1]:.4g}] m, grid spans "
            f"[{cell_edges[0]:.4g}, {cell_edges[-1]:.4g}] m)"
        )
    cum = np.concatenate(([0.0], np.cumsum(intensity) * pitch))
    return np.clip(np.diff(np.interp(edges, cell_edges, cum)), 0.0, None)


def image_slits(
    masked_pupil: SampledField,
    geom: Geometry,
    detector: DetectorConfig,
    detector_center_offset: float = 0.0,
) -> IntensityProfile:
    """Image the masked pupil through the thin lens onto the camera.

    Thin-lens phase exp(-i pi u^2 / (lambda f)) followed by unguarded
    Fresnel propagation over L_C; per-pixel values integrate |field|^2
    over each pixel footprint, for unit exposure and without noise:
    run_scan applies the exposure and the detector noise.  The profile is
    in detector-local coordinates (see bin_to_pixels).
    """
    if geom.lens_defect > 0.05:
        warnings.warn(
            f"lens-equation defect {geom.lens_defect:.3f} exceeds 5%; "
            "slit images will be noticeably defocused",
            stacklevel=2,
        )
    u = masked_pupil.positions
    lens = np.exp(-1j * np.pi * u**2 / (geom.wavelength * geom.focal_length))
    after_lens = replace(masked_pupil, amplitudes=masked_pupil.amplitudes * lens)
    at_detector = propagate_fresnel(
        after_lens, geom.dist_lens_detector, geom.wavelength, guard=False
    )
    return bin_to_pixels(at_detector.intensity(), detector, detector_center_offset)


def bin_to_pixels(
    fine: IntensityProfile, detector: DetectorConfig, center_offset: float = 0.0
) -> IntensityProfile:
    """Integrate a fine-grid intensity over the camera pixels.

    The detector center sits at center_offset on the fine grid; the
    returned profile uses detector-local coordinates (pixel centers
    relative to the detector center).
    """
    edges = (
        center_offset
        + (np.arange(detector.n_pixels + 1) - detector.n_pixels / 2)
        * detector.pixel_pitch
    )
    counts = _bin_intensity(fine.values, fine.origin, fine.pitch, edges)
    local_origin = -detector.center_index * detector.pixel_pitch
    return IntensityProfile(local_origin, detector.pixel_pitch, counts)


def split_signals(
    profile: IntensityProfile, midline: float
) -> tuple[float, float]:
    """Split a detector profile at a midline given in pixel-index units.

    left = sum of pixels with index strictly below the midline, right the
    remainder; the two always add up to the profile total exactly.
    """
    if midline < 0 or midline > profile.n - 1:
        raise ConfigurationError(
            f"midline {midline} outside profile range [0, {profile.n - 1}]"
        )
    idx = np.arange(profile.n)
    left = float(profile.values[idx < midline].sum())
    total = float(profile.values.sum())
    return left, total - left


def _profile_midline(profile: IntensityProfile, mode: str, center: float) -> float:
    if mode == "center":
        return center
    total = profile.values.sum()
    if total <= 0:
        return center
    return float(np.sum(np.arange(profile.n) * profile.values) / total)


def _step_rng(seed: int, step_index: int) -> np.random.Generator:
    # per-step stream keyed by (seed, step) so parallel and serial runs agree
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(step_index))))


def _noisy_average(
    noiseless: np.ndarray,
    detector: DetectorConfig,
    frames: int,
    rng: np.random.Generator,
) -> np.ndarray:
    electrons = np.clip(noiseless * detector.gain, 0.0, None)
    acc = np.zeros_like(electrons)
    for _ in range(frames):
        frame = rng.poisson(electrons).astype(float)
        frame += rng.normal(0.0, detector.readout_noise, electrons.size)
        acc += frame
    return acc / frames / detector.gain


def auto_exposure(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
    full_well: float = FULL_WELL,
    fraction: float = AUTO_EXPOSURE_FRACTION,
) -> float:
    """Exposure placing the peak pixel of the central step at 70% full well."""
    profile = _noiseless_step(source_field, geom, scan, detector, 0.0)
    peak = profile.values.max() * detector.gain
    if peak <= 0:
        raise NumericalError("no flux reaches the detector; cannot set exposure")
    return fraction * full_well / peak


def _noiseless_step(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
    s: float,
    pupil_spec=None,
    freqs=None,
) -> IntensityProfile:
    if pupil_spec is None:
        pupil_spec, freqs = fresnel_spectrum(
            source_field, geom.dist_slits_lens, geom.wavelength
        )
    shifted = ifft(pupil_spec * np.exp(-2j * np.pi * freqs * s))
    pupil = replace(source_field, amplitudes=shifted)
    masked = apply_aperture(pupil, scan.aperture_left_edge(), scan.aperture_width)
    return image_slits(
        masked, geom, detector, detector_center_offset=-scan.stage_ratio * s
    )


def run_scan(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
) -> ScanSeries:
    """Execute a full scan and record per-step profiles and signals.

    The slit-plane source field is translated to each slit position via an
    exact Fourier shift, propagated to the pupil, masked by the fixed
    aperture stop, imaged, and binned into camera pixels riding the
    counter-moving stage.
    """
    pupil_spec, freqs = fresnel_spectrum(
        source_field, geom.dist_slits_lens, geom.wavelength
    )
    exposure = scan.exposure
    if exposure is None:
        exposure = auto_exposure(source_field, geom, scan, detector)
    records = []
    for k in range(scan.n_steps):
        s = scan.s_start + k * scan.step
        try:
            profile = _noiseless_step(
                source_field, geom, scan, detector, s, pupil_spec, freqs
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"scan step {k} (s = {s:.4g} m): {exc}") from exc
        values = profile.values * exposure
        if detector.noise_enabled:
            values = _noisy_average(
                values, detector, scan.frames_per_step, _step_rng(detector.rng_seed, k)
            )
        profile = replace(profile, values=values)
        midline = _profile_midline(profile, scan.midline, detector.center_index)
        left, right = split_signals(profile, midline)
        records.append(
            ScanStepRecord(
                step_index=k,
                slit_position=s,
                detector_profile=profile,
                total_flux=left + right,
                left_signal=left,
                right_signal=right,
            )
        )
    return ScanSeries(config=replace(scan, exposure=exposure), records=tuple(records))


def assignment_probability(
    series: ScanSeries, guard_px: int
) -> tuple[float, float, float]:
    """Which-way statistics from the guard-band contamination bound.

    Flux landing more than guard_px pixels from the midline sits on the
    wrong side of the opposite slit image and bounds the mis-assignment:
    contamination = (guard-exceeding flux summed over steps) / (total
    flux), p = 1 - contamination, and D from metrics.distinguishability.

    The midline follows the scan's configured placement: the fixed
    detector center, or the per-step flux centroid, which tracks the
    small residual image drift left by the stage ratio.
    """
    if guard_px < 0:
        raise ConfigurationError("guard_px must be >= 0")
    wrong = total = 0.0
    for r in series.records:
        profile = r.detector_profile
        center = (profile.n - 1) / 2
        midline = _profile_midline(profile, series.config.midline, center)
        idx = np.arange(profile.n)
        wrong += float(profile.values[np.abs(idx - midline) > guard_px].sum())
        total += float(profile.values.sum())
    return _assignment(wrong, total)


def pooled_assignment(pairs) -> tuple[float, float, float]:
    """Contamination pooled over several scans (all flux in one budget).

    pairs holds one (contamination, total_flux) per scan, as
    assignment_probability and the scan sidecars report them.
    """
    wrong = total = 0.0
    for contamination, flux in pairs:
        wrong += contamination * flux
        total += flux
    return _assignment(wrong, total)


def _assignment(wrong: float, total: float) -> tuple[float, float, float]:
    if total <= 0:
        raise NumericalError("zero total flux; assignment statistics undefined")
    contamination = wrong / total
    p = 1.0 - contamination
    return contamination, p, distinguishability(p)
