"""1-D coherent fields for the double-slit bench and their free-space transport.

Fields are sampled on uniform spatial grids along the scan direction.  Two
propagators share one Fresnel convention: the transfer-function method on
the grid (propagate_fresnel), and Fresnel integrals of the field read as
piecewise constant, evaluated at any positions (fresnel_field).  Analytic
far-field formulas are provided as independent cross-checks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft, fftfreq, ifft
from scipy.special import fresnel

from .errors import ConfigurationError

# sinc convention used throughout: sinc(u) = sin(u)/u, sinc(0) = 1.
# numpy's np.sinc(t) = sin(pi t)/(pi t), so we always pass u/pi to it.


def _sinc(u):
    return np.sinc(np.asarray(u) / np.pi)


@dataclass(frozen=True)
class Geometry:
    """Physical layout of the bench, all lengths in meters.

    Defaults reproduce the lab setup: 650 nm light, 89 um slits separated
    by 248 um center to center, lens of nominal focal length 300 mm at
    58 cm from the slits, camera 63 cm behind the lens, and a direct-image
    plane 25 cm from the slits.
    """

    wavelength: float = 650e-9
    slit_width: float = 89e-6
    slit_sep: float = 248e-6
    dist_slits_lens: float = 0.58
    dist_lens_detector: float = 0.63
    dist_slits_direct: float = 0.25
    focal_length: float = 0.30

    def __post_init__(self):
        for name in (
            "wavelength",
            "slit_width",
            "slit_sep",
            "dist_slits_lens",
            "dist_lens_detector",
            "dist_slits_direct",
            "focal_length",
        ):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"Geometry.{name} must be > 0")
        if not self.slit_sep > self.slit_width:
            raise ConfigurationError(
                "slit_sep must exceed slit_width (slits must not overlap)"
            )

    @property
    def lens_defect(self) -> float:
        """Dimensionless lens-equation defect |1/L_S + 1/L_C - 1/f| * f."""
        return (
            abs(
                1.0 / self.dist_slits_lens
                + 1.0 / self.dist_lens_detector
                - 1.0 / self.focal_length
            )
            * self.focal_length
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform, cell-centered sampling grid symmetric about x = 0.

    The default spans +-40 mm at 0.61 um pitch: wide enough that periodic
    wrap-around leakage stays below the far-field oracle tolerance for the
    58 cm slits-to-lens propagation by propagate_fresnel.  Scans take only
    the slit edges from the grid (fresnel_field), not its span.
    """

    n: int = 2**17
    half_span: float = 40e-3

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("grid needs at least 2 samples")
        if not self.half_span > 0:
            raise ConfigurationError("grid half_span must be > 0")

    @property
    def pitch(self) -> float:
        return 2.0 * self.half_span / self.n

    @property
    def origin(self) -> float:
        # cell-centered: samples sit symmetrically around zero
        return -self.half_span + 0.5 * self.pitch

    def positions(self) -> np.ndarray:
        return self.origin + self.pitch * np.arange(self.n)


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class SampledField:
    """Complex scalar amplitude sampled on a uniform grid (meters)."""

    origin: float
    pitch: float
    amplitudes: np.ndarray

    def __post_init__(self):
        if not self.pitch > 0:
            raise ConfigurationError("field pitch must be > 0")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ConfigurationError("field needs a 1-D array of >= 2 samples")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @property
    def positions(self) -> np.ndarray:
        return self.origin + self.pitch * np.arange(self.n)

    @property
    def power(self) -> float:
        """Total power, sum |a|^2 * pitch."""
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.pitch)

    def intensity(self) -> "IntensityProfile":
        return IntensityProfile(
            self.origin, self.pitch, np.abs(self.amplitudes) ** 2
        )


@dataclass(frozen=True)
class IntensityProfile:
    """Non-negative power per sample on a uniform grid."""

    origin: float
    pitch: float
    values: np.ndarray

    def __post_init__(self):
        if not self.pitch > 0:
            raise ConfigurationError("profile pitch must be > 0")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ConfigurationError("profile needs a 1-D array of samples")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def positions(self) -> np.ndarray:
        return self.origin + self.pitch * np.arange(self.n)


def double_slit_field(
    geom: Geometry,
    grid: GridSpec = DEFAULT_GRID,
    illumination_tilt: float = 0.0,
    center_offset: float = 0.0,
) -> SampledField:
    """Real-valued field right behind the double-slit mask.

    Unit amplitude inside each slit, scaled by (1 + tilt/2) for the right
    slit and (1 - tilt/2) for the left, zero elsewhere.  center_offset
    translates both slits (used to model the mask riding on its stage).
    """
    if grid.pitch > geom.slit_width / 16:
        raise ConfigurationError(
            "grid too coarse: need >= 16 samples per slit width "
            f"(pitch {grid.pitch:.3e} m > {geom.slit_width / 16:.3e} m)"
        )
    outer = abs(center_offset) + geom.slit_sep / 2 + geom.slit_width / 2
    if outer > grid.half_span:
        raise ConfigurationError(
            f"grid half_span {grid.half_span:.3e} m does not cover both slits "
            f"(need >= {outer:.3e} m)"
        )
    x = grid.positions()
    amp = np.zeros(grid.n)
    half = geom.slit_width / 2
    right_center = center_offset + geom.slit_sep / 2
    left_center = center_offset - geom.slit_sep / 2
    amp[np.abs(x - right_center) <= half] = 1.0 + illumination_tilt / 2
    amp[np.abs(x - left_center) <= half] = 1.0 - illumination_tilt / 2
    return SampledField(grid.origin, grid.pitch, amp)


# Wrap-around guard for FFT propagation: spectral content at frequency f
# lands a lateral distance lambda*z*f away, so anything beyond the grid
# span over lambda*z re-enters from the opposite edge.  The input spectrum
# must be negligible out there; this is the enforced anti-aliasing bound.
WRAP_SPECTRUM_TOLERANCE = 0.02


def check_wraparound(
    spectrum: np.ndarray, pitch: float, distance: float, wavelength: float
) -> None:
    """Enforce the wrap-around (anti-aliasing) bound for FFT propagation.

    Raises a configuration error, naming the minimum grid size at this
    pitch, when the field's relative spectral amplitude at the wrap
    frequency span / (lambda |z|) exceeds WRAP_SPECTRUM_TOLERANCE.
    """
    n = spectrum.size
    span = n * pitch
    f = np.abs(fftfreq(n, pitch))
    mags = np.abs(spectrum)
    peak = mags.max()
    if peak == 0:
        return
    f_wrap = span / (wavelength * abs(distance))
    beyond = f >= f_wrap
    if not beyond.any() or mags[beyond].max() <= WRAP_SPECTRUM_TOLERANCE * peak:
        return
    f_hi = f[mags > WRAP_SPECTRUM_TOLERANCE * peak].max()
    # pushing the wrap frequency past f_hi needs span >= lambda |z| f_hi
    n_min = int(np.ceil(wavelength * abs(distance) * f_hi / pitch))
    raise ConfigurationError(
        f"aliasing bound violated for z = {distance:.4g} m: spectral content "
        f"beyond the wrap frequency {f_wrap:.3e} /m; the grid needs at least "
        f"{n_min} samples at this pitch"
    )


def transfer_kernel(n: int, pitch: float, wavelength: float, distance: float) -> np.ndarray:
    """Fresnel transfer function H(f) = exp(-i pi lambda z f^2) on the FFT frequencies."""
    f = fftfreq(n, pitch)
    phase = -1j * np.pi * wavelength * distance * f**2
    return np.exp(phase, out=phase)


def propagate_fresnel(
    field_in: SampledField, distance: float, wavelength: float
) -> SampledField:
    """Fresnel propagation by `distance` via the transfer-function method.

    H(f) is unimodular, so total power is conserved exactly.  Grids too
    small for the distance fail the wrap-around bound with a configuration
    error naming the minimum grid size.
    """
    if distance == 0:
        return replace(field_in, amplitudes=field_in.amplitudes.copy())
    spectrum = fft(field_in.amplitudes)
    check_wraparound(spectrum, field_in.pitch, distance, wavelength)
    # in place, spectrum times kernel: the operand order of the complex
    # multiply decides the last output bits
    spectrum *= transfer_kernel(field_in.n, field_in.pitch, wavelength, distance)
    return replace(field_in, amplitudes=ifft(spectrum))


# fresnel_field costs one Fresnel integral per amplitude step and position;
# a double slit has four steps
MAX_AMPLITUDE_STEPS = 64


def fresnel_field(field_in: SampledField, distance: float, wavelength: float, x) -> np.ndarray:
    """Field at positions x after Fresnel propagation by distance > 0.

    Exact for field_in read as constant over each cell (and zero outside its
    grid): a step of a (left minus right value) at cell edge e contributes
    a (C + iS)(sqrt(2 / (lambda z)) (e - x)) e^{-i pi/4} / sqrt(2), with the
    Fresnel integrals C and S.  The convention is propagate_fresnel's.
    """
    padded = np.concatenate(([0], field_in.amplitudes, [0]))
    at = np.flatnonzero(np.diff(padded))  # between cells at - 1 and at
    if at.size > MAX_AMPLITUDE_STEPS:
        raise ConfigurationError(
            f"source field has {at.size} amplitude steps; Fresnel-integral "
            f"propagation takes piecewise-constant fields of at most {MAX_AMPLITUDE_STEPS}"
        )
    t = np.sqrt(2.0 / (wavelength * distance)) * (
        field_in.origin + (at - 0.5) * field_in.pitch - np.asarray(x, dtype=float)[..., np.newaxis]
    )
    s, c = fresnel(t)
    return (c + 1j * s) @ (padded[at] - padded[at + 1]) * (np.exp(-0.25j * np.pi) / np.sqrt(2.0))


def fresnel_number(geom: Geometry, screen_distance: float) -> float:
    """Fresnel number of the slit pair (half-extent of the mask opening)."""
    half_extent = (geom.slit_sep + geom.slit_width) / 2
    return half_extent**2 / (geom.wavelength * screen_distance)


def fraunhofer_intensity(geom: Geometry, screen_distance: float, x):
    """Analytic far-field double-slit intensity, normalized to 1 on axis.

    cos^2(pi d x / (lambda L)) * sinc^2(pi delta x / (lambda L)) with
    sinc(u) = sin(u)/u.  Valid as an oracle only in the far field; a
    warning is issued when the Fresnel number is not small.
    """
    if fresnel_number(geom, screen_distance) > 0.25:
        warnings.warn(
            "fraunhofer_intensity used outside the far-field regime "
            f"(Fresnel number {fresnel_number(geom, screen_distance):.3g})",
            stacklevel=2,
        )
    x = np.asarray(x, dtype=float)
    lam_l = geom.wavelength * screen_distance
    u_fringe = np.pi * geom.slit_sep * x / lam_l
    u_env = np.pi * geom.slit_width * x / lam_l
    return np.cos(u_fringe) ** 2 * _sinc(u_env) ** 2


def fringe_scale(geom: Geometry) -> float:
    """Characteristic fringe period at the lens: W = lambda * L_S / d."""
    return geom.wavelength * geom.dist_slits_lens / geom.slit_sep
