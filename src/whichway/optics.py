"""1-D coherent fields for the double-slit bench and their free-space transport.

Source fields are sampled on uniform grids along the scan direction.  A
field may keep only a window of its samples, the rest being zero; the
double slit keeps the span of its two slits.  Its amplitude steps
(amplitude_steps, which read only the window) propagate exactly to any
positions by Fresnel integrals (fresnel_field), evaluated by this module's numpy
fresnel: the power series at small arguments and the auxiliary functions f
and g of Abramowitz & Stegun 7.3 above them.  The transfer-function method
on the grid (propagate_fresnel, same convention) is kept for the
benchmark's probe.  Analytic far-field formulas are provided as independent
cross-checks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .errors import ConfigurationError


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
    the slit edges from the grid (amplitude_steps), not its span, and the
    source field keeps only the slits' window of it (double_slit_field), so
    n sets the edges' resolution, not the memory of a run.
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


@dataclass(frozen=True)
class SampledField:
    """Complex scalar amplitude sampled on a uniform grid of n samples (meters).

    values holds the samples start .. start + len(values) - 1; every other
    sample is zero.  n defaults to start + len(values), so a field built
    from one array is that array.  The source keeps only its slit window,
    so nothing sized by the grid is held; amplitudes builds the dense grid
    for the grid layers that read it.
    """

    origin: float
    pitch: float
    values: np.ndarray
    start: int = 0
    n: int | None = None

    def __post_init__(self):
        if not self.pitch > 0:
            raise ConfigurationError("field pitch must be > 0")
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size < 1:
            raise ConfigurationError("field needs a 1-D array of samples")
        n = self.start + values.size if self.n is None else self.n
        if n < 2:
            raise ConfigurationError("field needs a grid of >= 2 samples")
        if self.start < 0 or self.start + values.size > n:
            raise ConfigurationError(
                f"field window [{self.start}, {self.start + values.size}) "
                f"does not lie on its grid of {n} samples"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", n)

    @property
    def amplitudes(self) -> np.ndarray:
        """All n samples: the stored array when the window is the whole
        grid, a new dense array otherwise."""
        if self.values.size == self.n:
            return self.values
        dense = np.zeros(self.n, complex)
        dense[self.start : self.start + self.values.size] = self.values
        return dense

    @property
    def positions(self) -> np.ndarray:
        return self.origin + self.pitch * np.arange(self.n)


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
    geom: Geometry, grid: GridSpec, illumination_tilt: float = 0.0
) -> SampledField:
    """Field right behind the double-slit mask, real-valued in a complex array.

    Unit amplitude inside each slit, scaled by (1 + tilt/2) for the right
    slit and (1 - tilt/2) for the left, zero elsewhere.  A sample x is in
    the slit centred at c when |x - c| <= slit_width / 2.  Positions and
    distances are computed only over each slit's index range and a few
    samples either side, and the field keeps only the window from the left
    slit's range to the right slit's: nothing allocated grows with the
    grid's size, only with its samples per slit.
    """
    if grid.pitch > geom.slit_width / 16:
        raise ConfigurationError(
            "grid too coarse: need >= 16 samples per slit width "
            f"(pitch {grid.pitch:.3e} m > {geom.slit_width / 16:.3e} m)"
        )
    outer = geom.slit_sep / 2 + geom.slit_width / 2
    if outer > grid.half_span:
        raise ConfigurationError(
            f"grid half_span {grid.half_span:.3e} m does not cover both slits "
            f"(need >= {outer:.3e} m)"
        )
    half = geom.slit_width / 2
    slits = []
    for centre, value in (
        (geom.slit_sep / 2, 1.0 + illumination_tilt / 2),
        (-geom.slit_sep / 2, 1.0 - illumination_tilt / 2),
    ):
        # the samples x = origin + pitch i of GridSpec.positions, for the i
        # around the slit; the margin covers the rounding of the bounds
        lo = max(math.floor((centre - half - grid.origin) / grid.pitch) - 2, 0)
        hi = min(math.ceil((centre + half - grid.origin) / grid.pitch) + 3, grid.n)
        slits.append((centre, value, lo, hi))
    start = min(lo for *_, lo, _ in slits)
    values = np.zeros(max(hi for *_, hi in slits) - start, complex)
    for centre, value, lo, hi in slits:
        x = grid.origin + grid.pitch * np.arange(lo, hi)
        values[lo - start : hi - start][np.abs(x - centre) <= half] = value
    return SampledField(grid.origin, grid.pitch, values, start, grid.n)


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
        return SampledField(field_in.origin, field_in.pitch, field_in.amplitudes.copy())
    spectrum = fft(field_in.amplitudes)
    check_wraparound(spectrum, field_in.pitch, distance, wavelength)
    # in place, spectrum times kernel: the operand order of the complex
    # multiply decides the last output bits
    spectrum *= transfer_kernel(field_in.n, field_in.pitch, wavelength, distance)
    return SampledField(field_in.origin, field_in.pitch, ifft(spectrum))


# Fresnel integrals S(t) and C(t), the integrals of sin and cos(pi u^2 / 2)
# over [0, t].  Below |t| = 1.6 they are power series in t^4.  Above it
# (Abramowitz & Stegun 7.3.9-10) C = 1/2 + f sin(pi t^2 / 2) - g cos(pi t^2 / 2)
# and S = 1/2 - f cos(pi t^2 / 2) - g sin(pi t^2 / 2), with the auxiliary
# functions held as p = pi t f and q = pi t g: a Chebyshev fit in 1/t up to
# |t| = 6, their asymptotic series (A&S 7.3.27-28) from there on.  Every piece
# is a polynomial evaluated in place, the sine and cosine too: on arrays of
# a few thousand points numpy's sin and cos, fresh temporaries and
# broadcasting cost more than the arithmetic.
_FRESNEL_SERIES_BELOW = 1.6
_FRESNEL_ASYMPTOTIC_FROM = 6.0
# 1/t on the fitted interval is centre + half-width * y, -1 <= y <= 1
_FRESNEL_INVERSE_T = (
    0.5 / _FRESNEL_SERIES_BELOW + 0.5 / _FRESNEL_ASYMPTOTIC_FROM,
    0.5 / _FRESNEL_SERIES_BELOW - 0.5 / _FRESNEL_ASYMPTOTIC_FROM,
)


def _polynomial(z: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Horner's rule at z, the constant term first in coefs."""
    acc = z * coefs[-1]
    acc += coefs[-2]
    for c in coefs[-3::-1]:
        acc *= z
        acc += c
    return acc


def _auxiliary_fit() -> np.ndarray:
    """Power-series coefficients in y of p and q, one row each: their
    Chebyshev interpolant at 20 first-kind nodes, whose monomial
    coefficients stay below 1 on this interval.  At the nodes q + ip comes
    from the continued fraction of Numerical Recipes' frenel, summed from its
    100th term back, to a few ulp; a fit of t^3 g instead of q would scale
    that by t^2."""
    terms = 20
    theta = np.pi * (np.arange(terms) + 0.5) / terms
    t = 1 / (_FRESNEL_INVERSE_T[0] + _FRESNEL_INVERSE_T[1] * np.cos(theta))
    b = -1j * np.pi * t * t
    tail = np.zeros(terms, complex)
    for k in range(100, 1, -1):
        tail = -(2 * k - 3) * (2 * k - 2) / (4 * k - 3 + b + tail)
    q_ip = np.pi * t * t / (1 + b + tail)
    coefs = np.stack([q_ip.imag, q_ip.real]) @ np.cos(np.outer(theta, np.arange(terms)))
    coefs *= 2 / terms
    coefs[:, 0] /= 2
    return np.stack([np.polynomial.chebyshev.cheb2poly(row) for row in coefs])


def _alternating(magnitudes: np.ndarray) -> np.ndarray:
    """The even- and odd-indexed magnitudes as two rows, each with signs
    alternating from +."""
    pairs = magnitudes.reshape(-1, 2) * (-1.0) ** np.arange(magnitudes.size // 2)[:, np.newaxis]
    return pairs.T


# C + iS = sum_k (i pi / 2)^k t^(2k+1) / (k! (2k + 1)): rows C / t and S / t^3
# in t^4; 16 terms leave less than 3e-18 at |t| = 1.6
_FRESNEL_SERIES = _alternating(
    np.cumprod(np.concatenate(([1.0], np.pi / 2 / np.arange(1, 32)))) / np.arange(1, 65, 2)
)
# p ~ sum_m (-1)^m (4m - 1)!! v^2m and q / v ~ sum_m (-1)^m (4m + 1)!! v^2m,
# v = 1 / (pi t^2); 9 terms leave less than 3e-17 of p and q at |t| = 6
_FRESNEL_ASYMPTOTIC = _alternating(np.cumprod(np.concatenate(([1.0], np.arange(1.0, 35, 2)))))
_FRESNEL_AUXILIARY = _auxiliary_fit()
# cos(a) and sin(a) / a in a^2 for |a| <= pi / 2; 11 terms leave less than 2e-17
_COS_SIN = _alternating(1 / np.cumprod(np.concatenate(([1.0], np.arange(1.0, 22)))))


def fresnel(t) -> tuple[np.ndarray, np.ndarray]:
    """The Fresnel integrals (S(t), C(t)) of an array, in the order and to
    within about 1e-15 of scipy.special.fresnel; S and C are odd."""
    t = np.asarray(t, dtype=float)
    x = np.abs(t).ravel()
    # the clip keeps f and g away from t = 0 and t^2 finite; a, v and z are
    # reused as work buffers below
    r = np.clip(x, _FRESNEL_SERIES_BELOW, 1e150)
    a = r * r
    v = np.multiply(a, np.pi)
    np.reciprocal(v, out=v)
    z = v * v
    p = _polynomial(z, _FRESNEL_ASYMPTOTIC[0])
    q = _polynomial(z, _FRESNEL_ASYMPTOTIC[1])
    q *= v
    fitted = np.flatnonzero((x >= _FRESNEL_SERIES_BELOW) & (x < _FRESNEL_ASYMPTOTIC_FROM))
    if fitted.size:
        y = np.reciprocal(r[fitted])
        y -= _FRESNEL_INVERSE_T[0]
        y /= _FRESNEL_INVERSE_T[1]
        p[fitted] = _polynomial(y, _FRESNEL_AUXILIARY[0])
        q[fitted] = _polynomial(y, _FRESNEL_AUXILIARY[1])
    # t^2 / 2 = 2j + k + d exactly, with k in {-1, 0, 1} and |d| <= 1/2, so
    # the sine and cosine of pi t^2 / 2 are (-1)^k those of pi d; (-1)^k
    # joins 1 / (pi t), which turns p and q into f and g
    a *= 0.5
    np.multiply(a, 0.5, out=z)
    np.rint(z, out=z)
    z *= 2
    a -= z
    np.rint(a, out=z)
    a -= z
    np.abs(z, out=z)
    z *= -2
    z += 1
    z /= r
    z /= np.pi
    p *= z
    q *= z
    a *= np.pi
    np.multiply(a, a, out=v)
    cos = _polynomial(v, _COS_SIN[0])
    sin = _polynomial(v, _COS_SIN[1])
    sin *= a
    s = np.multiply(p, cos, out=a)
    s += np.multiply(q, sin, out=v)
    np.subtract(0.5, s, out=s)
    p *= sin
    q *= cos
    c = np.subtract(p, q, out=p)
    c += 0.5
    near = np.flatnonzero(x < _FRESNEL_SERIES_BELOW)
    if near.size:
        xn = x[near]
        z = xn * xn
        z4 = z * z
        c[near] = _polynomial(z4, _FRESNEL_SERIES[0]) * xn
        s[near] = _polynomial(z4, _FRESNEL_SERIES[1]) * z * xn
    sign = t.ravel()
    return np.copysign(s, sign, out=s).reshape(t.shape), np.copysign(c, sign, out=c).reshape(t.shape)


# fresnel_field costs one Fresnel integral per amplitude step and position;
# a double slit has four steps
MAX_AMPLITUDE_STEPS = 64
# positions per block of fresnel_field: its scratch arrays hold a block's
# Fresnel arguments, however many positions it is asked for
FRESNEL_BLOCK = 2048


def amplitude_steps(field: SampledField) -> tuple[np.ndarray, np.ndarray]:
    """The field read as piecewise constant (and zero outside its grid), as
    (edges, jumps): the cell edges where it changes, ascending, and the left
    minus the right value at each.  Only the field's window is read: the
    samples on either side of it are zero, as are those off the grid."""
    padded = np.concatenate(([0], field.values, [0]))
    at = np.flatnonzero(padded[1:] != padded[:-1])  # between window cells at - 1 and at
    if at.size > MAX_AMPLITUDE_STEPS:
        raise ConfigurationError(
            f"source field has {at.size} amplitude steps; Fresnel-integral "
            f"propagation takes piecewise-constant fields of at most {MAX_AMPLITUDE_STEPS}"
        )
    return field.origin + (at + field.start - 0.5) * field.pitch, padded[at] - padded[at + 1]


def fresnel_field(steps: tuple, distance: float, wavelength: float, x) -> np.ndarray:
    """Field at positions x after Fresnel propagation by distance > 0.

    steps are the source's (edges, jumps) as amplitude_steps returns them.
    Exact for the piecewise-constant source: a jump a at edge e contributes
    a (C + iS)(sqrt(2 / (lambda z)) (e - x)) e^{-i pi/4} / sqrt(2), with the
    Fresnel integrals C and S.  The convention is propagate_fresnel's.
    """
    edges, jumps = steps
    x = np.asarray(x, dtype=float)
    field = np.empty(x.shape, complex)
    flat, out = x.reshape(-1), field.reshape(-1)
    for start in range(0, flat.size, FRESNEL_BLOCK):
        block = slice(start, start + FRESNEL_BLOCK)
        t = np.sqrt(2.0 / (wavelength * distance)) * (edges - flat[block, np.newaxis])
        s, c = fresnel(t)
        # einsum, not @: a product this size wakes OpenBLAS's thread pool, whose
        # idle worker then spins on a core that another scan could use
        np.einsum("ij,j->i", c + 1j * s, jumps, out=out[block])
    field *= np.exp(-0.25j * np.pi) / np.sqrt(2.0)
    return field


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
    return np.cos(u_fringe) ** 2 * np.sinc(u_env / np.pi) ** 2  # np.sinc(t) = sin(pi t)/(pi t)


def fringe_scale(geom: Geometry) -> float:
    """Characteristic fringe period at the lens: W = lambda * L_S / d."""
    return geom.wavelength * geom.dist_slits_lens / geom.slit_sep
