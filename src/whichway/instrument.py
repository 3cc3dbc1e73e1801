"""Imaging arm of the bench: aperture stop, thin lens, pixelated camera,
and the counter-moving stages that execute a scan.

The scan is simulated in the lab frame: at step k the slit mask sits at
s_k, the aperture stop is fixed, and the camera rides its stage at
-stage_ratio * s_k.  Equivalently the fixed aperture samples the pupil
pattern at offset -s_k, which is what the reconstruction module assumes.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.fft import fft, ifft

from .artifacts import read_csv, write_csv
from .errors import ConfigurationError, DataError, NumericalError
from .metrics import distinguishability
from .optics import (
    FRESNEL_BLOCK,
    Geometry,
    IntensityProfile,
    SampledField,
    amplitude_steps,
    fresnel_field,
    transfer_kernel,
)
from .reconstruct import band_left_elems

# camera full-well stand-in used by auto exposure (intensity units = electrons
# at unit gain); exposures default to putting the peak pixel at 70% of it
FULL_WELL = 1e5
AUTO_EXPOSURE_FRACTION = 0.7
# flux more than GUARD_PX pixels from a step's midline counts as which-way
# contamination (see assignment_probability)
GUARD_PX = 20


def scan_tag(width_m: float) -> str:
    """The tag in a scan's file names, scan_<tag>.csv and .json."""
    return f"a{width_m * 1e3:g}mm"


def width_in_steps(width: float, step: float) -> int:
    """Aperture width in scan-step elements; must divide evenly."""
    w = width / step
    if not (math.isfinite(w) and abs(w - round(w)) <= 1e-6):
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
    # the one rule; the field and its scans[].midline key stay only while
    # perfbench/run.py and smoke.py name them (ROADMAP items 21 and 22)
    midline: str = "centroid"

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
        if self.midline != "centroid":
            raise ConfigurationError("midline must be 'centroid'")
        if self.width_elems() < 1:  # which also needs a whole number of steps
            raise ConfigurationError(f"aperture width {self.aperture_width} is below one scan step")

    def width_elems(self) -> int:
        return width_in_steps(self.aperture_width, self.step)

    def aperture_left_edge(self) -> float:
        """Fixed lab-frame left edge of the aperture interval.

        It sits -(band_left_elems(width_elems) - 0.5) * step, so the
        interval covers exactly the pattern elements of the matching
        aperture matrix: edges land on the boundaries of the step-sized
        pattern bins.
        """
        return -(band_left_elems(self.width_elems()) - 0.5) * self.step


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


_CSV_HEADER = ["step", "s_mm", "F", "left", "right"]
_CSV_FORMATS = ["d", ".9e", ".9e", ".9e", ".9e"]


@dataclass(frozen=True)
class ScanSeries:
    """One scan as a table.

    records is a numpy record array with one row per step and the fields
    step_index, slit_position, total_flux, left_signal and right_signal;
    profiles is the (n_steps, n_pixels) matrix whose row k holds the pixel
    values of step k in detector-local coordinates; midlines holds each
    step's midline in pixel-index units, where its left and right signals
    were split.
    """

    config: ScanConfig
    records: np.recarray
    profiles: np.ndarray
    midlines: np.ndarray

    def __post_init__(self):
        if not len(self.records) == len(self.profiles) == len(self.midlines) == self.config.n_steps:
            raise ConfigurationError("record, profile and midline counts must equal n_steps")

    @property
    def total_flux_sum(self) -> float:
        """The row totals added in step order: a whole-matrix sum rounds differently."""
        return ordered_sum(self.profiles.sum(axis=1))

    def table(self) -> dict:
        """The scan as the column dict that load_scan_csv returns (views of records)."""
        r = self.records
        return {
            "step": r.step_index,
            "s": r.slit_position,
            "F": r.total_flux,
            "left": r.left_signal,
            "right": r.right_signal,
        }

    def to_csv(self, path) -> None:
        t = self.table()
        columns = [t["step"], t["s"] * 1e3, t["F"], t["left"], t["right"]]
        write_csv(path, _CSV_HEADER, _CSV_FORMATS, columns)


def _flux_mismatch(step, s_mm, flux, left, right):
    # each cell keeps 10 significant digits, so is off by at most 5e-10 of itself
    if abs(flux - (left + right)) > 1e-9 * (abs(flux) + abs(left) + abs(right)):
        return "F differs from left + right"


def load_scan_csv(path) -> dict:
    """Read a scan CSV back into arrays; malformed rows name their line."""
    table = read_csv(path, _CSV_HEADER, row_check=_flux_mismatch)
    step = table.pop("step")
    if not np.array_equal(step, np.round(step)):
        raise DataError(f"{path}: step numbers must be whole")
    if not np.all(np.abs(step) < 2.0**63):
        raise DataError(f"{path}: step numbers must lie within the 64-bit integer range")
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
    x, pitch, hi = field_in.positions, field_in.pitch, left_edge + width
    frac = np.clip(
        (np.minimum(x + pitch / 2, hi) - np.maximum(x - pitch / 2, left_edge)) / pitch, 0.0, 1.0
    )
    if not frac.any():
        warnings.warn(
            "aperture interval lies entirely outside the field grid; "
            "returning an all-zero field",
            stacklevel=2,
        )
    return SampledField(field_in.origin, field_in.pitch, field_in.amplitudes * np.sqrt(frac))


def _bin_intensity(
    intensity: np.ndarray,
    origin: float,
    pitch: float,
    edges: np.ndarray,
) -> np.ndarray:
    """Integrate a fine-grid intensity over arbitrary contiguous bins."""
    start = origin - pitch / 2  # left edge of cell 0
    n = intensity.size
    if edges[0] < start or edges[-1] > start + pitch * n:
        raise ConfigurationError(
            "requested bins not covered by the simulation grid "
            f"(bins span [{edges[0]:.4g}, {edges[-1]:.4g}] m, grid spans "
            f"[{start:.4g}, {start + pitch * n:.4g}] m)"
        )
    cum = np.concatenate(([0.0], np.cumsum(intensity))) * pitch
    cell_edges = start + pitch * np.arange(n + 1)
    return np.clip(np.diff(np.interp(edges, cell_edges, cum)), 0.0, None)


def image_slits(
    masked_pupil: SampledField,
    geom: Geometry,
    detector: DetectorConfig,
    detector_center_offset: float = 0.0,
) -> IntensityProfile:
    """Image the masked pupil through the thin lens onto the camera.

    Thin-lens phase exp(-i pi u^2 / (lambda f)) followed by Fresnel
    propagation over L_C; per-pixel values integrate |field|^2 over each
    pixel footprint, for unit exposure and without noise: run_scan applies
    the exposure and the detector noise.  The detector center sits at
    detector_center_offset on the grid; the profile is in detector-local
    coordinates (pixel centers relative to the detector center).

    This leg is not held to the wrap-around bound: residual high-frequency
    leakage from the upstream propagation is physically negligible here
    but would trip the relative spectral test; the pixels must lie on the
    grid instead.
    """
    lens = _lens_phase(masked_pupil.positions, geom)
    spectrum = fft(masked_pupil.amplitudes * lens)
    # in place, spectrum times kernel: the operand order of the complex
    # multiply decides the last output bits
    spectrum *= transfer_kernel(
        masked_pupil.n, masked_pupil.pitch, geom.wavelength, geom.dist_lens_detector
    )
    intensity = np.abs(ifft(spectrum)) ** 2
    n = detector.n_pixels
    edges = detector_center_offset + (np.arange(n + 1) - n / 2) * detector.pixel_pitch
    counts = _bin_intensity(intensity, masked_pupil.origin, masked_pupil.pitch, edges)
    return _pixel_profile(detector, counts)


def _lens_phase(u: np.ndarray, geom: Geometry) -> np.ndarray:
    """Thin-lens phase exp(-i pi u^2 / (lambda f)); warns when defocused."""
    if geom.lens_defect > 0.05:
        warnings.warn(
            f"lens-equation defect {geom.lens_defect:.3f} exceeds 5%; "
            "slit images will be noticeably defocused",
            stacklevel=3,
        )
    return np.exp(-1j * np.pi * u**2 / (geom.wavelength * geom.focal_length))


def _pixel_profile(detector: DetectorConfig, values: np.ndarray) -> IntensityProfile:
    """Pixel values as a profile in detector-local coordinates."""
    return IntensityProfile(
        -detector.center_index * detector.pixel_pitch, detector.pixel_pitch, values
    )


def split_signals(values: np.ndarray, midline: float) -> tuple[float, float]:
    """Split one step's pixel values at a midline given in pixel-index units.

    left = sum of pixels with index strictly below the midline, right the
    remainder; the two always add up to the row total exactly.
    """
    if midline < 0 or midline > values.size - 1:
        raise ConfigurationError(
            f"midline {midline} outside profile range [0, {values.size - 1}]"
        )
    left = float(values[: math.ceil(midline)].sum())
    total = float(values.sum())
    return left, total - left


def _midlines(profiles: np.ndarray) -> np.ndarray:
    """Midline of each row of profiles, in pixel-index units: the row's flux
    centroid, or the detector center where the row holds no flux or (a dim
    noisy row can) a centroid off the detector."""
    n_steps, n = profiles.shape
    midlines = np.full(n_steps, (n - 1) / 2)
    totals = profiles.sum(axis=1)
    # einsum, not @: neither wakes OpenBLAS's thread pool here, but @
    # raises the peak RSS of short scans by 0.1-0.5 MB
    moments = np.einsum("ij,j->i", profiles, np.arange(n, dtype=float))
    centroids = np.divide(moments, totals, out=np.full(n_steps, -1.0), where=totals > 0)
    on = (centroids >= 0) & (centroids <= n - 1)
    midlines[on] = centroids[on]
    return midlines


def auto_exposure(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
) -> float:
    """Exposure placing the peak pixel of the step at s = 0 at 70% full well."""
    return _ScanOptics(source_field, geom, scan, detector).exposure()


# Scan imaging: the aperture is cut into cells of at most SUPPORT_PITCH that
# divide the scan step, and each pixel gets SUBSAMPLES image points.  The
# sampling guard allows the integrand MAX_CYCLES_PER_CELL cycles per cell.
# Steps are imaged SCAN_BLOCK at a time, in buffers that every block reuses
# (under 1 MB for the zero-padded complex field), and their noise is drawn
# SCAN_BLOCK rows at a time: small enough for concurrent scans to fit.
SUPPORT_PITCH = 2.5e-6
SUBSAMPLES = 4
MAX_CYCLES_PER_CELL = 0.25
SCAN_BLOCK = 8


def _next_fast_len(n: int) -> int:
    """The least length >= n whose only prime factors are 2, 3, 5, 7 and 11,
    as scipy.fft.next_fast_len(n) for complex transforms."""
    for m in itertools.count(max(n, 1)):
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m


class _ScanPupil:
    """The pupil of one scan on its aperture cells: cells of width h centred
    at u_j tile the aperture, and pupil(v) is the Fresnel-integral field
    (optics.fresnel_field) of the source's amplitude steps at offsets v
    times the folded tilt factor exp(-i c v^2 / 2) of _ScanOptics.  At slit
    position s = s_start + q h, q = 0 .. last, the cells read entries
    last - q onwards of tabulate()'s table."""

    def __init__(self, source_field: SampledField, geom: Geometry, scan: ScanConfig):
        lam = geom.wavelength
        per_step = math.ceil(scan.step / SUPPORT_PITCH * (1 - 1e-12))
        self.h = h = scan.step / per_step
        self.u = scan.aperture_left_edge() + h * (np.arange(scan.width_elems() * per_step) + 0.5)
        self.steps = amplitude_steps(source_field)
        self.chirp = np.pi * scan.stage_ratio / (lam * geom.dist_lens_detector)  # c / 2
        self.fresnel = partial(fresnel_field, self.steps, geom.dist_slits_lens, lam)
        self.s_start, self.last = scan.s_start, (scan.n_steps - 1) * per_step

    def pupil(self, v: np.ndarray, out=None) -> np.ndarray:
        """The pupil at offsets v times the folded tilt factor exp(-i c v^2 / 2)."""
        return np.multiply(self.fresnel(v), np.exp(-1j * self.chirp * v**2), out=out)

    def tabulate(self) -> np.ndarray:
        """The pupil at every scan position's cells, read-only, tabulated
        FRESNEL_BLOCK entries at a time, so that no scratch array grows with
        the scan's length."""
        table = np.empty(self.last + self.u.size, complex)
        for start in range(0, table.size, FRESNEL_BLOCK):
            q = np.arange(start, min(start + FRESNEL_BLOCK, table.size)) - self.last
            self.pupil(self.u[0] - self.s_start + self.h * q, out=table[start : start + q.size])
        table.flags.writeable = False
        return table


def pupil_table(source_field: SampledField, geom: Geometry, scan: ScanConfig) -> np.ndarray:
    """The scan's read-only pupil table, without the rest of its optics.

    A scan with the same source, geometry, step, start, step count,
    aperture left edge and stage ratio reads the same values from the
    table's first entries, however wide its aperture; run_scan takes the
    table of the widest such scan.
    """
    return _ScanPupil(source_field, geom, scan).tabulate()


class _ScanOptics(_ScanPupil):
    """The step-invariant optics of one scan; images(positions) images the
    slits at each position, one batched transform per block of steps.

    No simulation grid is involved.  Cells of width h centred at u_j tile
    the aperture, so every aperture weight is 1.  The pupil U(u_j - s) is
    the Fresnel-integral field (optics.fresnel_field) of the source's
    amplitude steps, read once, tabulated for the scan's positions (the
    first entries of a given table, or a table of its own); other s
    are evaluated directly.  Up to a unimodular factor the camera field is
    V(x) = h / sqrt(lambda L_C) sum_j U(u_j - s) lens(u_j) exp(i pi u_j^2 /
    (lambda L_C) - 2 pi i x u_j / (lambda L_C)), evaluated at SUBSAMPLES
    points per pixel plus one beyond each end of the detector by Bluestein's
    chirp-z transform: a chirp premultiply, one FFT convolution and a chirp
    postmultiply.  The detector's offset -stage_ratio s is the linear phase
    exp(i c s u), c = 2 pi stage_ratio / (lambda L_C), on the cells, which
    is exp(i c u^2 / 2) exp(-i c (u - s)^2 / 2) exp(i c s^2 / 2): the first
    factor and the chirp premultiply are step-invariant and sit in weights,
    the second rides with the pupil, and the third is one phase per step
    that |V|^2 drops.  So a step is a row of pupil values times weights,
    and SCAN_BLOCK rows share one FFT call; each row's bits do not depend
    on the block.  A pixel sums |V|^2 over its points with the
    Euler-Maclaurin end correction from its neighbours.
    """

    def __init__(self, source_field: SampledField, geom: Geometry, scan: ScanConfig,
                 detector: DetectorConfig, table: np.ndarray | None = None):
        super().__init__(source_field, geom, scan)
        lam, l_s, l_c = geom.wavelength, geom.dist_slits_lens, geom.dist_lens_detector
        h, left = self.h, scan.aperture_left_edge()
        self.table = (self.tabulate() if table is None else table)[: self.last + self.u.size]
        sub = detector.pixel_pitch / SUBSAMPLES
        first = -detector.n_pixels * detector.pixel_pitch / 2 - sub / 2
        k = 2 * np.pi * h / (lam * l_c)
        n, self.m = self.u.size, detector.n_pixels * SUBSAMPLES + 2
        w, a = np.exp(-1j * k * sub), np.exp(1j * k * first)
        j = np.arange(max(self.m, n))
        # the chirps w^(j^2/2) and a^-j from one complex log of each base:
        # w ** b takes the log of w again for every element
        wk2 = np.exp(j**2 / 2.0 * np.log(w))
        self.wk2 = wk2[: self.m]
        self.nfft = _next_fast_len(n + self.m - 1)
        self.fwk2 = fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[: self.m])), self.nfft)
        self.weights = _lens_phase(self.u, geom)
        self.weights *= np.exp(1j * (np.pi / (lam * l_c) + self.chirp) * self.u**2)
        self.weights *= h * np.sqrt(sub / (lam * l_c)) * np.exp(-j[:n] * np.log(a)) * wk2[:n]
        # ray optics: the integrand's local frequency is affine in the lit
        # source point (between the outermost amplitude steps), the cell and
        # the detector point -stage_ratio s + xi
        edges = self.steps[0]
        defocus = 1 / l_s + 1 / l_c - 1 / geom.focal_length
        terms = [np.array([left, left + scan.aperture_width]) * defocus,
                 -np.array([edges.min(initial=0.0), edges.max(initial=0.0)]) / l_s,
                 np.array([first, -first]) / l_c]
        with np.errstate(over="ignore"):  # an infinite frequency fails the sampling guard
            self.freq = np.array([sum(t.min() for t in terms), sum(t.max() for t in terms)]) / lam
        self.freq_slope = (scan.stage_ratio / l_c - 1 / l_s) / lam
        self.gain = detector.gain

    def images(self, positions) -> np.ndarray:
        """Noiseless pixel values at each slit position, one row each, for
        unit exposure.  Every position is held to the sampling bound before
        any is imaged; the first that fails raises, named as scan step k."""
        positions = np.asarray(positions, dtype=float)
        cycles = self.h * np.abs(self.freq + self.freq_slope * positions[:, np.newaxis]).max(axis=1)
        if (cycles > MAX_CYCLES_PER_CELL).any():
            k = int(np.argmax(cycles > MAX_CYCLES_PER_CELL))
            raise ConfigurationError(
                f"scan step {k} (s = {positions[k]:.4g} m): imaging sampling bound violated: "
                f"{cycles[k]:.3g} cycles per aperture cell (at most {MAX_CYCLES_PER_CELL}); "
                "the detector lies too far from the slit image"
            )
        q = (positions - self.s_start) / self.h
        i = self.last - np.round(q)
        tabulated = (np.abs(q - np.round(q)) < 1e-6) & (0 <= i) & (i <= self.last)
        n, m = self.u.size, self.m
        pixels = np.empty((positions.size, (m - 2) // SUBSAMPLES))
        padded = np.empty((min(SCAN_BLOCK, positions.size), self.nfft), complex)
        squares = np.empty((len(padded), m))
        for start in range(0, positions.size, SCAN_BLOCK):
            out = pixels[start : start + SCAN_BLOCK]
            field = padded[: len(out)]
            for row, k in zip(field, range(start, start + len(out))):
                if tabulated[k]:
                    pupil = self.table[int(i[k]) : int(i[k]) + n]
                else:
                    pupil = self.pupil(self.u - positions[k])
                np.multiply(pupil, self.weights, out=row[:n])
            field[:, n:] = 0
            fft(field, out=field)
            field *= self.fwk2
            points = ifft(field, out=field)[:, n - 1 : n + m - 1]
            points *= self.wk2
            power = np.square(points.real, out=squares[: len(out)])
            power += points.imag**2
            out[...] = power[:, 1:-1:SUBSAMPLES]
            for r in range(2, SUBSAMPLES + 1):  # left to right, as numpy sums a short row
                out += power[:, r:-1:SUBSAMPLES]
            # a pixel's midpoint sum misses d^2 (f'(b) - f'(a)) / 24; d f' at
            # an edge is the difference of the two points around it
            slope = power[:, 1::SUBSAMPLES] - power[:, 0:-1:SUBSAMPLES]
            out += (slope[:, 1:] - slope[:, :-1]) / 24
            np.maximum(out, 0.0, out=out)
        return pixels

    def step(self, s: float) -> np.ndarray:
        """Noiseless pixel values at slit position s, for unit exposure."""
        return self.images([s])[0]

    def exposure(self) -> float:
        peak = float(self.step(0.0).max()) * self.gain
        exposure = AUTO_EXPOSURE_FRACTION * FULL_WELL / peak if peak > 0 else math.inf
        if not math.isfinite(exposure):  # no flux, or too little for a finite exposure
            raise NumericalError("no flux reaches the detector; cannot set exposure")
        return exposure


def run_scan(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
    table: np.ndarray | None = None,
) -> ScanSeries:
    """Execute a full scan and record per-step pixel values and signals.

    At each slit position the source field's Fresnel-integral pupil is
    masked by the fixed aperture stop and imaged onto the camera pixels
    riding the counter-moving stage (see _ScanOptics).  The pupil comes
    from table when one is given: the pupil_table of this scan or of a
    wider one that reads the same values (see pupil_table).  Without one
    the scan tabulates its own, to the same bits.  A forward pass
    images every step without noise; a detector pass then applies the
    exposure and, with noise on, the mean of frames_per_step frames, drawn
    from one stream seeded by (seed, width_elems): first the shot noise of
    every pixel in step order, then their readout noise, SCAN_BLOCK rows at
    a time.  The scan writes no state that other scans read, and the table
    is read-only, so pipeline.run_all_scans runs several at once.
    """
    optics = _ScanOptics(source_field, geom, scan, detector, table)
    exposure = scan.exposure
    if exposure is None:
        exposure = optics.exposure()
    positions = scan.s_start + np.arange(scan.n_steps) * scan.step
    profiles = optics.images(positions)
    profiles *= exposure
    if detector.noise_enabled:
        # K frames of Poisson(e) shot noise sum to Poisson(K e), and K readouts
        # of rms sigma to N(0, K sigma^2): one draw of each gives the K-frame sum.
        # Drawn in row chunks, each pass takes the same values from the stream
        # as one whole-matrix draw, without its int64 and float temporaries
        frames = scan.frames_per_step
        rng = np.random.default_rng((detector.rng_seed, scan.width_elems()))
        chunks = [profiles[k : k + SCAN_BLOCK] for k in range(0, scan.n_steps, SCAN_BLOCK)]
        try:
            sigma = detector.readout_noise * math.sqrt(frames)
            if not math.isfinite(sigma):
                raise ConfigurationError(
                    f"scan {scan_tag(scan.aperture_width)}: readout_noise_e"
                    f" {detector.readout_noise:g} and frames_per_step {frames} give a"
                    " readout sigma beyond the float range"
                )
            profiles *= frames * detector.gain
            for chunk in chunks:
                chunk[...] = rng.poisson(chunk)
        except (OverflowError, ValueError) as exc:  # K past the float range; "lam value too large"
            raise ConfigurationError(
                f"scan {scan_tag(scan.aperture_width)}: exposure_s {exposure:g}, gain_e_per_unit"
                f" {detector.gain:g} and frames_per_step {frames} give too many electrons ({exc})"
            ) from exc
        for chunk in chunks:
            chunk += rng.normal(0.0, sigma, chunk.shape)
        profiles /= frames * detector.gain
    midlines = _midlines(profiles)
    left, right = np.array([split_signals(row, m) for row, m in zip(profiles, midlines)]).T
    records = np.rec.fromarrays(
        [np.arange(scan.n_steps), positions, left + right, left, right],
        names="step_index,slit_position,total_flux,left_signal,right_signal",
    )
    return ScanSeries(replace(scan, exposure=exposure), records, profiles, midlines)


def assignment_probability(
    series: ScanSeries, guard_px: int = GUARD_PX
) -> tuple[float, float, float]:
    """Which-way statistics from the guard-band contamination bound.

    Flux landing more than guard_px pixels from the midline sits on the
    wrong side of the opposite slit image and bounds the mis-assignment:
    contamination = (guard-exceeding flux summed over steps) / (total
    flux), p = 1 - contamination, and D from metrics.distinguishability.

    The midline is the one each step was split at (ScanSeries.midlines),
    the step's flux centroid, which tracks the residual image drift left
    by the stage ratio.
    """
    if guard_px < 0:
        raise ConfigurationError("guard_px must be >= 0")
    profiles = series.profiles
    pixels = np.arange(profiles.shape[1])
    wrong = np.empty(len(profiles))
    for start in range(0, len(profiles), SCAN_BLOCK):
        rows = slice(start, start + SCAN_BLOCK)
        beyond = np.abs(pixels - series.midlines[rows, np.newaxis]) > guard_px
        np.sum(profiles[rows], axis=1, where=beyond, out=wrong[rows])
    return _assignment(ordered_sum(wrong), series.total_flux_sum)


def ordered_sum(values) -> float:
    """The float sum of values, added left to right.  Python 3.12 made the
    built-in sum() of floats compensated, so it rounds differently from
    3.10 and 3.11, whose bits this keeps."""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def pooled_assignment(pairs) -> tuple[float, float, float]:
    """Contamination pooled over several scans (all flux in one budget).

    pairs holds one (contamination, total_flux) per scan, as the scan
    sidecars report them.
    """
    wrong = total = 0.0
    for contamination, flux in pairs:
        wrong += contamination * flux
        total += flux
    return _assignment(wrong, total)


def _assignment(wrong: float, total: float) -> tuple[float, float, float]:
    if total <= 0:
        raise NumericalError(f"total flux {total:g} is not positive; assignment statistics undefined")
    contamination = wrong / total
    p = 1.0 - contamination
    return contamination, p, distinguishability(p)
