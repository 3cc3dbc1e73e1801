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
    step_index, slit_position, total_flux, left_signal, right_signal and
    beyond_guard, the step's flux more than GUARD_PX pixels from its
    midline; midlines holds each step's midline in pixel-index units, where
    its left and right signals were split (pipeline.scan_profiles gives the
    steps' pixels).
    """

    config: ScanConfig
    records: np.recarray
    midlines: np.ndarray

    def __post_init__(self):
        if not len(self.records) == len(self.midlines) == self.config.n_steps:
            raise ConfigurationError("record and midline counts must equal n_steps")

    @property
    def total_flux_sum(self) -> float:
        """The steps' total fluxes added in step order: a whole-column sum rounds differently."""
        return ordered_sum(self.records.total_flux)

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
    remainder; the two always add up to the row total exactly.  A noiseless
    scan's left and right signals are these within 1e-12 of its peak step
    flux (run_scan).
    """
    if midline < 0 or midline > values.size - 1:
        raise ConfigurationError(
            f"midline {midline} outside profile range [0, {values.size - 1}]"
        )
    left = float(values[: math.ceil(midline)].sum())
    total = float(values.sum())
    return left, total - left


def auto_exposure(
    source_field: SampledField,
    geom: Geometry,
    scan: ScanConfig,
    detector: DetectorConfig,
) -> float:
    """Exposure placing the peak pixel of the step at s = 0 at 70% full well."""
    return _ScanOptics(source_field, geom, scan, detector).exposure()


# Scan imaging: aperture cells of at most SUPPORT_PITCH, else FALLBACK_PITCH,
# a sampling guard of MAX_CYCLES_PER_CELL cycles per cell, TABLE_BLOCK pupil
# entries tabulated at a time (0.4 MB of scratch), and SCAN_BLOCK steps summed
# or imaged at a time in one reused buffer, small enough for concurrent scans
# (3.3 MB for a 4 mm scan on 2.5 um cells).  Warm run_all_scans of the default
# run took 16.3 ms at 64 rows, 18.0 at 48 and 19.0 at 32 on a 2-vCPU host (at
# 8, two scan threads trade the GIL around each short FFT and draw).
SUPPORT_PITCH = 10e-6
FALLBACK_PITCH = 2.5e-6
MAX_CYCLES_PER_CELL = 0.25
TABLE_BLOCK = 1024
SCAN_BLOCK = 64


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
    """The pupil of one scan at the n + 1 edges u_e of its n aperture cells of
    width h: pupil(v) is the Fresnel-integral field (optics.fresnel_field) of
    the source's amplitude steps at offsets v times the folded tilt factor
    exp(-i c v^2 / 2) of _ScanOptics; at slit position s = s_start + q h the
    edges read entries last - q onwards of tabulate()'s table.  A step has the
    fewest cells of at most SUPPORT_PITCH, or else FALLBACK_PITCH, whose width
    guard_h passes the sampling guard (cycles) at s = 0 and every scan
    position, rounded up to an even count."""

    def __init__(self, source_field: SampledField, geom: Geometry, scan: ScanConfig,
                 detector: DetectorConfig):
        lam, l_s, l_c = geom.wavelength, geom.dist_slits_lens, geom.dist_lens_detector
        left = scan.aperture_left_edge()
        self.steps = amplitude_steps(source_field)
        # ray optics: the integrand's local frequency is affine in the lit source
        # point (between the outermost amplitude steps), the cell and the camera
        # point -stage_ratio s + xi, to an eighth of a pixel beyond the detector
        edges, half = self.steps[0], (detector.n_pixels / 2 + 1 / 8) * detector.pixel_pitch
        defocus = 1 / l_s + 1 / l_c - 1 / geom.focal_length
        terms = [np.array([left, left + scan.aperture_width]) * defocus,
                 -np.array([edges.min(initial=0.0), edges.max(initial=0.0)]) / l_s,
                 np.array([-half, half]) / l_c]
        with np.errstate(over="ignore"):  # an infinite frequency fails the sampling guard
            self.freq = np.array([sum(t.min() for t in terms), sum(t.max() for t in terms)]) / lam
        self.freq_slope = (scan.stage_ratio / l_c - 1 / l_s) / lam
        ends = np.array([0.0, scan.s_start, scan.s_start + (scan.n_steps - 1) * scan.step])
        for pitch in (SUPPORT_PITCH, FALLBACK_PITCH):  # the guard is convex in s
            per_step = math.ceil(scan.step / pitch * (1 - 1e-12))
            self.guard_h = scan.step / per_step
            if not (self.cycles(ends) > MAX_CYCLES_PER_CELL).any():
                break
        per_step += per_step % 2  # Simpson's rule takes an even count
        self.h = h = scan.step / per_step
        self.u = left + h * np.arange(scan.width_elems() * per_step + 1)
        self.chirp = np.pi * scan.stage_ratio / (lam * l_c)  # c / 2
        self.fresnel = partial(fresnel_field, self.steps, l_s, lam)
        self.s_start, self.last = scan.s_start, (scan.n_steps - 1) * per_step
        # a scan of equal key, step, start and count reads the first entries of a wider one's table
        self.key = (left, scan.stage_ratio, h)
        self.tag = scan_tag(scan.aperture_width)

    def cycles(self, s: np.ndarray) -> np.ndarray:
        """The integrand's most cycles per guard cell at each slit position s."""
        return self.guard_h * np.abs(self.freq + self.freq_slope * s[:, np.newaxis]).max(axis=1)

    def pupil(self, v: np.ndarray, out=None) -> np.ndarray:
        """The pupil at offsets v times the folded tilt factor exp(-i c v^2 / 2)."""
        return np.multiply(self.fresnel(v), np.exp(-1j * self.chirp * v**2), out=out)

    def tabulate(self) -> np.ndarray:
        """The pupil at every scan position's edges, read-only, tabulated
        TABLE_BLOCK entries at a time, so that no scratch array grows with
        the scan's length."""
        table = np.empty(self.last + self.u.size, complex)
        for start in range(0, table.size, TABLE_BLOCK):
            q = np.arange(start, min(start + TABLE_BLOCK, table.size)) - self.last
            self.pupil(self.u[0] - self.s_start + self.h * q, out=table[start : start + q.size])
        table.flags.writeable = False
        return table


class _ScanOptics(_ScanPupil):
    """The step-invariant optics of one scan; images(positions) images the
    slits at each position.  No simulation grid is involved: a step reads its
    pupil U(u_e - s) from the table, or evaluates it off the table's
    positions.  By Simpson's rule, and up to a unimodular factor, the camera
    field at detector point xi is V(xi) = sum_e a_e exp(-i kappa u_e xi),
    kappa = 2 pi / (lambda L_C), a_e = Simpson weight x U(u_e - s) lens(u_e)
    exp(i pi u_e^2 / (lambda L_C) + i c s u_e) / sqrt(lambda L_C).  The
    camera's offset -stage_ratio s gives that exp(i c s u), c = 2 pi
    stage_ratio / (lambda L_C), which is exp(i c u^2 / 2) exp(-i c (u - s)^2
    / 2) exp(i c s^2 / 2): the first factor sits in weights, the second rides
    with the pupil, |V|^2 drops the third.  So |V(xi)|^2 = sum_{D=-n..n} R(D)
    exp(-i kappa h D xi), R the autocorrelation of a row of pupil values
    times weights, and a pixel of width w at xi_p is its closed-form integral
    Re sum_{D=0..n} (2 - [D = 0]) R(D) w sinc(kappa h D w / 2) exp(-i kappa
    h D xi_p): one Bluestein chirp-z transform for all pixels (a chirp
    premultiply in lag_weights, an FFT convolution, a chirp postmultiply).
    sums(positions) sums those pixels without them: over the j pixels left of
    edge j (at xi = (j - m/2) w), with theta = kappa h w and z_D = exp(-i
    theta D), they sum to S_j = R(0) j w + Re sum_{D>0} R(D) c_D (z_D^(j -
    m/2) - z_D^(-m/2)), c_D = 2 i w / (theta D); the first moment (m - 1) S_m
    - sum_{p=1..m-1} S_p sums z_D^(p - m/2) in closed form (the Dirichlet
    kernel).  SCAN_BLOCK rows share each FFT call; a row's bits do not depend
    on the block.
    """

    def __init__(self, source_field: SampledField, geom: Geometry, scan: ScanConfig,
                 detector: DetectorConfig, table: np.ndarray | None = None):
        super().__init__(source_field, geom, scan, detector)
        lam, l_c = geom.wavelength, geom.dist_lens_detector
        n, m, w = self.u.size - 1, detector.n_pixels, detector.pixel_pitch
        self.table = (self.tabulate() if table is None else table)[: self.last + n + 1]
        simpson = np.concatenate(([1.0], np.tile([4.0, 2.0], n // 2)[:-1], [1.0])) * self.h / 3
        self.weights = _lens_phase(self.u, geom) * simpson / math.sqrt(lam * l_c)
        self.weights *= np.exp(1j * (np.pi / (lam * l_c) + self.chirp) * self.u**2)
        theta = 2 * np.pi * self.h * w / (lam * l_c)  # kappa h w, a lag's phase across a pixel
        lag, k = np.arange(n + 1.0), np.arange(-n, m, dtype=float)
        pixel = np.where(lag > 0, 2 * w, w) * np.sinc(theta * lag / (2 * np.pi))
        self.lag_weights = pixel * np.exp(-1j * theta * lag * (lag / 2 - detector.center_index))
        self.n_acf, self.nfft = _next_fast_len(2 * n + 1), _next_fast_len(n + m)
        self.kernel = fft(np.exp(0.5j * theta * k**2), self.nfft)
        self.post = np.exp(-0.5j * theta * k[n:] ** 2)
        self.gain = detector.gain
        # sums' functionals of R: the total S_m, the first moment and S_0's lag
        # part, conjugated so that Re(R f) is a real dot product of interleaved floats
        phase, self.pitch = theta * lag[1:], w
        c, half = 2j * w / phase, np.exp(-0.5j * m * phase)  # c_D and z_D^(m/2)
        dirichlet = np.sin((m - 1) * phase / 2) / np.sin(phase / 2)
        f = np.array([[m * w], [m * (m - 1) * w / 2], [0]], complex).repeat(n + 1, axis=1)
        f[:, 1:] = c * np.array([half - half.conj(), (m - 1) * half - dirichlet, half.conj()])
        self.functionals = f.conj().view(float)
        self.step_power = np.exp(1j * phase)  # conj(z_D)
        self.edge_row = c.conj() * np.exp(1j * phase * (m // 2 - m / 2))  # at edge m // 2

    def _lag_sums(self, positions: np.ndarray, width: int):
        """(rows, block) for each SCAN_BLOCK of positions: the block's slice of
        them and a (rows, width) buffer whose first n + 1 columns hold its
        steps' lag sums R(D), D = 0..n; the rest is free.  Every position is
        held to the sampling bound before any is imaged; the first that fails
        raises, named as scan step k."""
        cycles = self.cycles(positions)
        if (cycles > MAX_CYCLES_PER_CELL).any():
            k = int(np.argmax(cycles > MAX_CYCLES_PER_CELL))
            raise ConfigurationError(
                f"scan {self.tag}: scan step {k} (s = {positions[k]:.4g} m): imaging sampling"
                " bound violated: "
                f"{cycles[k]:.3g} cycles per aperture cell (at most {MAX_CYCLES_PER_CELL}); "
                "the detector lies too far from the slit image"
            )
        q = (positions - self.s_start) / self.h
        i = self.last - np.round(q)
        tabulated = (np.abs(q - np.round(q)) < 1e-6) & (0 <= i) & (i <= self.last)
        edges = self.u.size
        both = np.empty(min(SCAN_BLOCK, positions.size) * width, complex)
        for start in range(0, positions.size, SCAN_BLOCK):
            rows = slice(start, min(start + SCAN_BLOCK, positions.size))
            block = both[: (rows.stop - start) * width].reshape(-1, width)
            a = block[:, : self.n_acf]  # the steps' edge coefficients, transformed in place
            for row, k in zip(a, range(start, rows.stop)):
                if tabulated[k]:
                    pupil = self.table[int(i[k]) : int(i[k]) + edges]
                else:
                    pupil = self.pupil(self.u - positions[k])
                np.multiply(pupil, self.weights, out=row[:edges])
            a[:, edges:] = 0
            fft(a, out=a)
            re, im = a.real, a.imag
            np.add(np.square(re, out=re), np.square(im, out=im), out=re)
            im[...] = 0
            ifft(a, out=a)  # the autocorrelation R, lags 0 .. n first
            yield rows, block

    def images(self, positions) -> np.ndarray:
        """Noiseless pixel values at each slit position, one row each, for unit
        exposure; both transforms run in place in one buffer."""
        positions = np.asarray(positions, dtype=float)
        edges, m = self.u.size, self.post.size
        pixels = np.empty((positions.size, m))
        for rows, block in self._lag_sums(positions, max(self.n_acf, self.nfft)):
            z = block[:, : self.nfft]
            z[:, :edges] *= self.lag_weights
            z[:, edges:] = 0
            fft(z, out=z)
            z *= self.kernel
            values = ifft(z, out=z)[:, edges - 1 : edges - 1 + m]  # pixel p at lag p + n
            values *= self.post
            np.maximum(values.real, 0.0, out=pixels[rows])
        return pixels

    def sums(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each step's midline in pixel-index units (its flux centroid, or the
        detector center where it holds no flux), its pixel edges 0, a, j, b, m
        (left of the midline beyond the guard band, left within it, right
        within it, right beyond it) and the flux left of each for unit
        exposure.  Edge a's row conj(c_D z_D^(a - m/2)) passes from step to
        step by integer powers of conj(z_D), and on to j and b row by row (a
        strided block product takes ufunc buffers): no step depends on the block."""
        m, n, u = self.post.size, self.u.size - 1, self.step_power
        powers = {gap: u**gap for gap in (GUARD_PX, GUARD_PX + 1)}  # between a, j and b
        midlines = np.full(positions.size, (m - 1) / 2)
        cuts, flux = np.tile([0, 0, 0, 0, m], (positions.size, 1)), np.zeros((positions.size, 5))
        at, state = m // 2, self.edge_row.copy()
        for rows, block in self._lag_sums(positions, self.n_acf):
            lags, row = block[:, : n + 1].view(float), block[:, n + 1 : 2 * n + 1]
            total, moment, offset = np.einsum("ij,kj->ki", lags, self.functionals)
            mid = np.divide(moment, total, out=midlines[rows], where=total > 0)
            j = np.ceil(mid).astype(int)
            # at an integral midline, pixel j + GUARD_PX is not beyond the guard band
            cut = j[:, np.newaxis] + [-GUARD_PX, 0, GUARD_PX] + np.outer(mid == j, [0, 0, 1])
            for k, edge in enumerate(cut[:, 0].tolist()):
                if edge != at:
                    state *= u ** (edge - at)
                row[k], at = state, edge
            left = np.empty((len(row), 3))
            for c in range(3):
                for edge_row, gap in zip(row, (cut[:, c] - cut[:, c - 1]).tolist() if c else ()):
                    edge_row *= powers[gap]
                np.einsum("ij,ij->i", lags[:, 2:], row.view(float), out=left[:, c])
            left += lags[:, :1] * self.pitch * cut - offset[:, np.newaxis]
            cuts[rows, 1:4], flux[rows, 4] = np.clip(cut, 0, m), total
            flux[rows, 1:4] = np.where(cut <= 0, 0, np.where(cut >= m, total[:, np.newaxis], left))
        return midlines, cuts, flux

    def exposure(self) -> float:
        peak = float(self.images([0.0])[0].max()) * self.gain
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
    """Execute a full scan and record per-step signals.

    At each slit position the source field's Fresnel-integral pupil is
    masked by the fixed aperture stop and imaged onto the camera pixels
    riding the counter-moving stage (see _ScanOptics).  The pupil comes
    from table when one is given: the _ScanPupil table of this scan or of
    a wider one of equal _ScanPupil.key.  Without one the scan tabulates
    its own, to the same bits.  No pixel is imaged: _ScanOptics.sums takes
    each step's midline (the centroid of its expected image) and the four
    contiguous pixel sets it and the guard band cut straight from the
    step's lag sum, within 1e-12 of the peak step flux of images()' sums.
    With noise on, the detector pass draws the mean of frames_per_step
    frames of each set's summed pixels, from one stream seeded by (seed,
    width_elems): first the shot noise of every set in step order, then
    their readout noise.  The scan writes no state that other scans read,
    and the table is read-only, so pipeline.run_all_scans runs several at once.
    """
    optics = _ScanOptics(source_field, geom, scan, detector, table)
    exposure = scan.exposure
    if exposure is None:
        exposure = optics.exposure()
    positions = scan.s_start + np.arange(scan.n_steps) * scan.step
    midlines, edges, flux = optics.sums(positions)
    sets = np.diff(flux * exposure)
    if detector.noise_enabled:
        # K frames of Poisson(e) shot noise sum to Poisson(K e), and K readouts
        # of rms sigma to N(0, K sigma^2); sums of independent Poisson and
        # normal values keep their laws, so one draw of each gives a pixel
        # set's K-frame sum.  Rounding can take a set's mean below 0: clip it
        frames = scan.frames_per_step
        rng = np.random.default_rng((detector.rng_seed, scan.width_elems()))
        try:
            sigma = detector.readout_noise * math.sqrt(frames)
            if not math.isfinite(sigma * math.sqrt(detector.n_pixels)):  # the largest set's
                raise ConfigurationError(
                    f"scan {scan_tag(scan.aperture_width)}: readout_noise_e"
                    f" {detector.readout_noise:g} and frames_per_step {frames} give a"
                    " readout sigma beyond the float range"
                )
            scale = frames * detector.gain
            counts = rng.poisson(np.maximum(sets, 0.0) * scale)
        except (OverflowError, ValueError) as exc:  # K past the float range; "lam value too large"
            raise ConfigurationError(
                f"scan {scan_tag(scan.aperture_width)}: exposure_s {exposure:g}, gain_e_per_unit"
                f" {detector.gain:g} and frames_per_step {frames} give too many electrons ({exc})"
            ) from exc
        sets = (counts + rng.normal(0.0, sigma * np.sqrt(np.diff(edges)))) / scale
    far_left, near_left, near_right, far_right = sets.T
    left, right, beyond = far_left + near_left, near_right + far_right, far_left + far_right
    records = np.rec.fromarrays(
        [np.arange(scan.n_steps), positions, left + right, left, right, beyond],
        names="step_index,slit_position,total_flux,left_signal,right_signal,beyond_guard",
    )
    return ScanSeries(replace(scan, exposure=exposure), records, midlines)


def assignment_probability(series: ScanSeries) -> tuple[float, float, float]:
    """Which-way statistics from the guard-band contamination bound.

    Flux landing more than GUARD_PX pixels from its step's midline (the
    records' beyond_guard) sits on the wrong side of the opposite slit
    image and bounds the mis-assignment: contamination = (that flux summed
    over steps) / (total flux), p = 1 - contamination, and D from
    metrics.distinguishability.

    The midline is the one each step was split at (ScanSeries.midlines),
    the centroid of the step's expected image, which tracks the residual
    image drift left by the stage ratio.
    """
    return _assignment(ordered_sum(series.records.beyond_guard), series.total_flux_sum)


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
