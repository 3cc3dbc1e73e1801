"""Visibility, distinguishability, the duality quantity, and profile matching.

match_profiles keeps the model rows of its last match (see match_profiles).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError
from .optics import IntensityProfile

PEAK_PROMINENCE_FRACTION = 0.02
DEFAULT_MATCH_HALF_WINDOW = 5e-3
# the name of visibility's one rule
PEAK_SELECTOR = "second_third"


class VisibilityResult(NamedTuple):
    value: float
    method: str
    i_max: float
    i_min: float


def _bases(heights: list, valleys: list) -> list:
    """For each peak, the lowest of valleys[j] for j from just past the
    nearest strictly higher peak on its left (or from 0) up to its own
    index; valleys[i] lies just left of peak i."""
    stack = []  # (height, lowest valley since the stacked peak below it)
    bases = []
    for height, valley in zip(heights, valleys):
        low = valley
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        stack.append((height, low))
        bases.append(low)
    return bases


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x whose prominence is at least the
    given one, as scipy.signal.find_peaks(x, prominence=prominence)[0].

    A maximum is a run of equal samples higher than both neighbouring
    samples; it is reported at its middle index (rounded down), and neither
    end of x is one.  A peak's prominence is its height above the higher of
    its two bases, the lowest samples between it and the nearest strictly
    higher sample (or the end of x) on each side.  Such a higher sample
    rises to a higher peak or to the end of x, so a base is the lowest of
    the valleys between neighbouring peaks up to the nearest higher peak.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.concatenate((starts[1:], [x.size])) - 1
    runs = x[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    heights = x[peaks]
    # the lowest sample between neighbouring peaks, and before the first and after the last
    valleys = np.minimum.reduceat(x, np.concatenate(([0], peaks))).tolist()
    left = _bases(heights.tolist(), valleys[:-1])
    right = _bases(heights[::-1].tolist(), valleys[:0:-1])[::-1]
    return peaks[heights - np.maximum(left, right) >= prominence]


def visibility(
    profile: IntensityProfile, peak_selector: str = PEAK_SELECTOR
) -> VisibilityResult:
    """Fringe contrast (I_max - I_min) / (I_max + I_min), conservatively.

    I_max is the mean of the second and third peaks outward from the
    highest one (on whichever side offers them), I_min the mean of the
    troughs between them.  Peaks need a prominence of at least 2% of the
    global maximum.  peak_selector names this rule, "second_third"; any
    other value is a ConfigurationError.
    """
    if peak_selector != PEAK_SELECTOR:
        raise ConfigurationError(f"unknown peak_selector {peak_selector!r}")
    values = profile.values
    prominence = PEAK_PROMINENCE_FRACTION * values.max()
    peaks, troughs = _find_peaks(values, prominence), _find_peaks(-values, prominence)
    if peaks.size < 2 or troughs.size < 1:
        raise NumericalError(
            f"too few extrema for visibility: {peaks.size} peaks, "
            f"{troughs.size} troughs"
        )
    central = peaks[np.argmax(values[peaks])]
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


# The last match's (key, reference values, reference peak, coarse shifts, their
# rows, best coarse shift, fine rows); read once and rebound once per call, so
# threads need no lock around it.
_ROWS: tuple | None = None


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

    The model rows depend on the window positions, the scaled reference and
    the shifts, not on the reconstruction's values.  Positions are origin +
    pitch * arange(n), so the key (both profiles' origin, pitch and n,
    h_scale, half_window) fixes the window, the scaled abscissa and the
    coarse grid, and the best coarse shift fixes the fine grid.  A call with
    the last call's key and reference values (compared entry by entry with a
    kept copy) reuses its read-only coarse rows and reference peak, and its
    fine rows when its best coarse shift is the kept one; a reference edited
    in place misses.  The rows take 2 x 201 x (window samples) x 8 bytes.
    """
    global _ROWS
    if not h_scale > 0:
        raise ConfigurationError("h_scale must be > 0")
    if reconstructed.n < 2 or reference.n < 2:
        raise ConfigurationError("profiles must each have at least 2 samples")
    ref_x = reference.positions * h_scale
    x = reconstructed.positions
    window = np.abs(x) <= half_window
    if not window.any():
        window = np.ones_like(x, dtype=bool)
    xw = x[window]
    target = reconstructed.values[window]
    peak_rec = float(target.max())
    if peak_rec <= 0:
        raise NumericalError("reconstructed profile has no positive peak")
    key = (reconstructed.origin, reconstructed.pitch, reconstructed.n,
           reference.origin, reference.pitch, reference.n, h_scale, half_window)
    slot = _ROWS
    hit = slot is not None and slot[0] == key and np.array_equal(slot[1], reference.values)
    # the slot keeps a copy, never the caller's values, which it may edit later
    ref_v = slot[1] if hit else reference.values.copy()

    def model_rows(shifts: np.ndarray) -> np.ndarray:
        """The reference at xw - shift, one read-only row per shift."""
        rows = np.interp(xw - shifts[:, None], ref_x, ref_v, left=0.0, right=0.0)
        rows.flags.writeable = False
        return rows

    # fringed profiles make the objective oscillatory: a coarse grid over the
    # window, then one 100 times finer over a coarse step either side of its
    # best, which it holds, so it can only improve on it; a model row per shift
    half = 100
    if hit:
        peak_ref, coarse, coarse_rows = slot[2:5]
    else:
        in_win = (ref_x >= xw[0] - half_window) & (ref_x <= xw[-1] + half_window)
        if not in_win.any():
            raise ConfigurationError(
                "reference profile does not overlap the matching window after scaling"
            )
        peak_ref = float(ref_v[in_win].max())
        if peak_ref <= 0:
            raise NumericalError("reference profile has no positive value in the matching window")
        coarse = np.linspace(-half_window, half_window, 2 * half + 1)
        coarse_rows = model_rows(coarse)
    v_scale = peak_rec / peak_ref

    def residuals(rows: np.ndarray) -> np.ndarray:
        # v_scale * model, target - it and its square, in one new buffer
        model = np.multiply(rows, v_scale)
        np.subtract(target, model, out=model)
        return np.sqrt(np.mean(np.square(model, out=model), axis=1))

    best = coarse[np.argmin(residuals(coarse_rows))]
    fine = best + half_window / half**2 * np.arange(-half, half + 1)
    fine_rows = slot[6] if hit and slot[5] == best else model_rows(fine)
    _ROWS = (key, ref_v, peak_ref, coarse, coarse_rows, best, fine_rows)
    rms = residuals(fine_rows)
    k = int(np.argmin(rms))
    return MatchResult(float(fine[k]), float(v_scale), float(rms[k]) / peak_rec)
