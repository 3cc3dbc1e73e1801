"""Banded aperture matrices and least-squares recovery of the pupil pattern.

Each scan step sums the unknown pattern over the aperture window, so the
forward model is a 0/1 banded matrix per aperture width.  A single width
is rank deficient at most sizes; stacking two widths lifts the degeneracy
and the minimum-norm least-squares solution recovers the pattern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lstsq, svdvals

from .errors import ConfigurationError, NumericalError

DEFAULT_RANK_CUTOFF = 1e-10
OPENINGS = ("rightward", "leftward", "centered")


def band_left_elems(width_elems: int, opening: str = "rightward", anchor: int = 20) -> int:
    """Elements of an aperture band left of its reference point.

    "rightward" puts the left edge `anchor` elements out (clipped for very
    narrow apertures), so all widths share it; "leftward" mirrors it;
    "centered" splits the band evenly.
    """
    if opening == "rightward":
        return min(anchor, width_elems)
    if opening == "leftward":
        return width_elems - min(anchor, width_elems)
    if opening == "centered":
        return width_elems // 2
    raise ConfigurationError(f"opening must be one of {OPENINGS}; got {opening!r}")


def build_aperture_matrix(
    n: int, width_elems: int, opening: str = "rightward", anchor: int = 20
) -> np.ndarray:
    """Dense n x n 0/1 summation matrix for an aperture of `width_elems` elements.

    With left = band_left_elems(width_elems, opening, anchor), 1-based row
    i holds ones at i - left < j <= i - left + width_elems, clipped to
    [1, n]; with the "rightward" opening every width shares "i - anchor < j".
    """
    if width_elems < 1 or width_elems > n:
        raise ConfigurationError(
            f"width_elems must be in [1, n]; got {width_elems} with n = {n}"
        )
    if anchor < 0:
        raise ConfigurationError(f"anchor must be >= 0; got {anchor}")
    left = band_left_elems(width_elems, opening, anchor)
    idx = np.arange(n)
    lag = idx[:, None] - idx  # row index minus column index
    return ((lag < left) & (lag >= left - width_elems)).astype(float)


def rank_of(matrix: np.ndarray, cutoff: float = DEFAULT_RANK_CUTOFF) -> int:
    """Numerical rank via singular values with a relative threshold."""
    s = svdvals(matrix)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > cutoff * s[0]))


def full_rank_dims(
    width_elems: int,
    n_max: int,
    opening: str = "rightward",
    anchor: int = 20,
) -> list[int]:
    """All dimensions n in [width_elems, n_max] where the matrix is full rank."""
    if width_elems < 1:
        raise ConfigurationError(f"width_elems must be >= 1; got {width_elems}")
    if n_max < width_elems:
        raise ConfigurationError("n_max must be >= width_elems")
    dims = []
    for n in range(width_elems, n_max + 1):
        if rank_of(build_aperture_matrix(n, width_elems, opening, anchor)) == n:
            dims.append(n)
    return dims


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered pupil pattern with solver provenance."""

    grid: np.ndarray  # element positions (m, or element index when unitless)
    p_hat: np.ndarray
    residual_norm: float
    effective_rank: int
    cutoff: float
    smoothing_rms: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        p = np.asarray(self.p_hat, dtype=float)
        if grid.size != p.size:
            raise ConfigurationError("grid and p_hat must have the same length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "p_hat", p)

    @property
    def pitch(self) -> float:
        return float(self.grid[1] - self.grid[0]) if self.grid.size > 1 else 1.0


def solve_stacked(
    matrices,
    fluxes,
    exposures=None,
    grid: np.ndarray | None = None,
    cutoff: float = DEFAULT_RANK_CUTOFF,
) -> ReconstructionResult:
    """Minimum-norm least-squares solve of the stacked flux equations.

    Each flux vector is divided by its exposure, the banded systems are
    stacked, and the SVD-based solver discards singular values below
    cutoff * sigma_max.  Effective rank and residual norm are reported.
    """
    matrices = list(matrices)
    fluxes = [np.asarray(f, dtype=float) for f in fluxes]
    if not matrices or len(matrices) != len(fluxes):
        raise ConfigurationError("need one flux vector per aperture matrix")
    n = matrices[0].shape[1]
    if any(m.shape[1] != n for m in matrices):
        raise ConfigurationError("all aperture matrices must share the dimension n")
    for m, f in zip(matrices, fluxes):
        if f.size != len(m):
            raise ConfigurationError(
                f"flux vector length {f.size} does not match matrix rows {len(m)}"
            )
    if exposures is None:
        exposures = [1.0] * len(matrices)
    exposures = [float(e) for e in exposures]
    if len(exposures) != len(matrices):
        raise ConfigurationError("need one exposure per flux vector")
    if any(not e > 0 for e in exposures):
        raise ConfigurationError("exposures must be > 0")
    # an overflow is raised below as a NumericalError, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.concatenate([f / e for f, e in zip(fluxes, exposures)])
        if not np.all(np.isfinite(b)):
            raise NumericalError("fluxes divided by their exposures overflow")
        if not np.any(b):
            raise NumericalError("all fluxes are zero; reconstruction is degenerate")
        a = np.vstack(matrices)
        x, _, rank, _ = lstsq(a, b, cond=cutoff, lapack_driver="gelsd")
        residual = float(np.linalg.norm(a @ x - b))
    if not (np.all(np.isfinite(x)) and math.isfinite(residual)):
        raise NumericalError(
            "stacked least-squares solve overflows: non-finite solution or residual"
        )
    if grid is None:
        grid = np.arange(n, dtype=float)
    return ReconstructionResult(
        grid=grid,
        p_hat=x,
        residual_norm=residual,
        effective_rank=int(rank),
        cutoff=cutoff,
    )


def gaussian_smooth(result: ReconstructionResult, rms: float) -> ReconstructionResult:
    """Convolve the recovered pattern with a unit-sum Gaussian of rms width.

    rms is in the grid's physical units; the kernel is truncated at 5 sigma
    and renormalized.  rms = 0 returns the result unchanged.
    """
    if rms < 0:
        raise ConfigurationError("smoothing rms must be >= 0")
    if rms == 0:
        return result
    sigma = rms / result.pitch
    radius = math.ceil(5 * sigma)
    # np.convolve's "same" mode returns the longer of pattern and kernel
    if 2 * radius + 1 > result.p_hat.size:
        raise ConfigurationError(
            f"smoothing rms {rms:g} needs a {2 * radius + 1}-element kernel, wider than "
            f"the {result.p_hat.size}-element grid"
        )
    k = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (k / sigma) ** 2)
    kernel /= kernel.sum()
    smoothed = np.convolve(result.p_hat, kernel, mode="same")
    return replace(
        result,
        p_hat=smoothed,
        smoothing_rms=math.hypot(result.smoothing_rms, rms),
    )
