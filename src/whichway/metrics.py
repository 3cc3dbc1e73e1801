"""Visibility, distinguishability, the duality quantity, and profile matching."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from .errors import ConfigurationError, DataError, NumericalError
from .optics import IntensityProfile

PEAK_PROMINENCE_FRACTION = 0.02
DEFAULT_MATCH_HALF_WINDOW = 5e-3


class VisibilityResult(NamedTuple):
    value: float
    method: str
    i_max: float
    i_min: float


def _extrema(values: np.ndarray):
    prominence = PEAK_PROMINENCE_FRACTION * values.max()
    peaks, _ = find_peaks(values, prominence=prominence)
    troughs, _ = find_peaks(-values, prominence=prominence)
    return peaks, troughs


def visibility(
    profile: IntensityProfile, peak_selector: str = "central"
) -> VisibilityResult:
    """Fringe contrast (I_max - I_min) / (I_max + I_min).

    "central" uses the highest peak and the mean of its two neighboring
    troughs.  "second_third" is the conservative variant: the second and
    third peaks outward from the central one (on whichever side offers
    them) and the troughs between them.  Peaks need a prominence of at
    least 2% of the global maximum.
    """
    values = profile.values
    peaks, troughs = _extrema(values)
    if peaks.size < 2 or troughs.size < 1:
        raise NumericalError(
            f"too few extrema for visibility: {peaks.size} peaks, "
            f"{troughs.size} troughs"
        )
    central = peaks[np.argmax(values[peaks])]
    if peak_selector == "central":
        lower = troughs[troughs < central]
        upper = troughs[troughs > central]
        nearest = []
        if lower.size:
            nearest.append(values[lower[-1]])
        if upper.size:
            nearest.append(values[upper[0]])
        i_max = float(values[central])
        i_min = float(np.mean(nearest))
    elif peak_selector == "second_third":
        right = peaks[peaks > central]
        left = peaks[peaks < central][::-1]
        side = right if right.size >= 2 else left
        if side.size < 2:
            raise NumericalError(
                "need at least two secondary peaks on one side of the "
                f"central peak; found {right.size} right, {left.size} left"
            )
        p2, p3 = side[0], side[1]
        lo, hi = min(p2, p3), max(p2, p3)
        between = troughs[(troughs > lo) & (troughs < hi)]
        i_max = float(np.mean(values[[p2, p3]]))
        if between.size:
            i_min = float(np.mean(values[between]))
        else:
            i_min = float(values[lo + 1 : hi].min())
    else:
        raise ConfigurationError(f"unknown peak_selector {peak_selector!r}")
    i_min = max(i_min, 0.0)  # noise can push troughs slightly negative
    v = (i_max - i_min) / (i_max + i_min)
    return VisibilityResult(float(v), peak_selector, i_max, i_min)


def distinguishability(p: float) -> float:
    """D = 2 (p - 1/2) for a correct-assignment probability p in [1/2, 1]."""
    if not 0.5 - 1e-12 <= p <= 1.0 + 1e-12:
        raise DataError(f"assignment probability {p} outside [1/2, 1]")
    return 2.0 * (min(max(p, 0.5), 1.0) - 0.5)


@dataclass(frozen=True)
class DualityReport:
    """V, D, and the V^2 + D^2 verdict with estimator provenance."""

    v: float
    d: float
    duality: float
    violated: bool
    v_method: str = ""
    d_method: str = ""

    def to_json_dict(self) -> dict:
        return {
            "V": self.v,
            "D": self.d,
            "duality": self.duality,
            "violated": self.violated,
            "V_method": self.v_method,
            "D_method": self.d_method,
        }


def duality_check(
    v: float, d: float, v_method: str = "", d_method: str = ""
) -> DualityReport:
    """Evaluate the complementarity bound V^2 + D^2 <= 1."""
    if not 0.0 <= v <= 1.0:
        raise DataError(f"visibility {v} outside [0, 1]")
    if not 0.0 <= d <= 1.0:
        raise DataError(f"distinguishability {d} outside [0, 1]")
    duality = v * v + d * d
    return DualityReport(v, d, duality, duality > 1.0, v_method, d_method)


class MatchResult(NamedTuple):
    shift: float
    v_scale: float
    rms_residual: float


def match_profiles(
    reconstructed: IntensityProfile,
    reference: IntensityProfile,
    h_scale: float = 1.0,
    half_window: float = DEFAULT_MATCH_HALF_WINDOW,
) -> MatchResult:
    """Overlay a reference profile on a reconstruction.

    The reference abscissa is multiplied by h_scale (its units to pupil
    meters), the vertical scale is fixed by matching the central-peak
    heights, and the only free parameter is a horizontal shift chosen to
    minimize the RMS residual over the central window.  The returned
    residual is normalized by the reconstructed peak in the window.

    The model is reconstructed(x) ~ v_scale * reference(x - shift).
    """
    if not h_scale > 0:
        raise ConfigurationError("h_scale must be > 0")
    if reconstructed.n < 2 or reference.n < 2:
        raise ConfigurationError("profiles must each have at least 2 samples")
    ref_x = reference.positions * h_scale
    ref_v = reference.values
    x = reconstructed.positions
    window = np.abs(x) <= half_window
    if not window.any():
        window = np.ones_like(x, dtype=bool)
    xw = x[window]
    target = reconstructed.values[window]
    peak_rec = float(target.max())
    in_win = (ref_x >= xw[0] - half_window) & (ref_x <= xw[-1] + half_window)
    if not in_win.any():
        raise ConfigurationError(
            "reference profile does not overlap the matching window after scaling"
        )
    v_scale = peak_rec / float(ref_v[in_win].max())
    if peak_rec <= 0:
        raise NumericalError("reconstructed profile has no positive peak")

    def residual(shift: float) -> float:
        model = v_scale * np.interp(xw - shift, ref_x, ref_v, left=0.0, right=0.0)
        return float(np.sqrt(np.mean((target - model) ** 2)))

    # fringed profiles make the objective oscillatory: coarse grid first,
    # then a bounded local refinement
    span = half_window
    coarse = np.linspace(-span, span, 201)
    best = coarse[int(np.argmin([residual(s) for s in coarse]))]
    bracket = (best - 2 * span / 200, best + 2 * span / 200)
    opt = minimize_scalar(residual, bounds=bracket, method="bounded")
    shift = float(opt.x) if opt.fun <= residual(best) else float(best)
    return MatchResult(shift, float(v_scale), residual(shift) / peak_rec)
