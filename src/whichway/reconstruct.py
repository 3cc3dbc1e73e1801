"""Banded aperture matrices and least-squares recovery of the pupil pattern.

Each scan step sums the unknown pattern over the aperture window, so the
forward model is a 0/1 banded matrix per aperture width.  A single width
is rank deficient at most sizes; stacking two widths lifts the degeneracy
and the minimum-norm least-squares solution recovers the pattern.

Every row is the indicator of a clipped interval of columns, (lo, hi] in
1-based columns.  In the prefix basis f_k = x_1 + ... + x_k (f_0 = 0) the
row reads f_hi - f_lo, an edge between vertices lo and hi of a graph on
0..n.  The rows span the n prefix coordinates exactly when every vertex is
joined to the grounded vertex 0, so full rank is a connectivity question,
and for these bands it has a closed-form answer (full_rank_dims).

build_aperture_matrix returns one read-only matrix object per band, and
solve_stacked reuses the rank-truncated pseudo-inverse it last factored while
it is handed those same objects, at the cost of one matrix-vector product.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError

DEFAULT_RANK_CUTOFF = 1e-10
# rms width (m) of the Gaussian that smooths the reconstructed pupil pattern
SMOOTHING_RMS = 0.15e-3
# steps the aperture's fixed left edge sits left of the pupil axis
ANCHOR_ELEMS = 20


def band_left_elems(width_elems: int) -> int:
    """Elements of an aperture band left of the pupil axis.

    The aperture's fixed left edge sits ANCHOR_ELEMS elements left of the
    axis, clipped to the width, so every width of at least ANCHOR_ELEMS
    elements shares it.
    """
    return min(ANCHOR_ELEMS, width_elems)


def build_aperture_matrix(n: int, width_elems: int) -> np.ndarray:
    """Dense n x n 0/1 summation matrix for an aperture of `width_elems` elements.

    With left = band_left_elems(width_elems), 1-based row i holds ones at
    i - left < j <= i - left + width_elems, clipped to [1, n], so every
    width of at least ANCHOR_ELEMS elements shares "i - ANCHOR_ELEMS < j".
    It is a read-only view of an immutable bytes buffer, one object per
    (n, width_elems), so solve_stacked can reuse its factor; edit a .copy().
    """
    if width_elems < 1 or width_elems > n:
        raise ConfigurationError(
            f"width_elems must be in [1, n]; got {width_elems} with n = {n}"
        )
    return _band(n, width_elems)


@functools.lru_cache(maxsize=8)
def _band(n: int, width_elems: int) -> np.ndarray:
    idx = np.arange(n)
    first = (idx - (band_left_elems(width_elems) - 1))[:, None]  # each row's first column, 0-based
    band = np.frombuffer(((idx >= first) & (idx < first + width_elems)).astype(float).tobytes())
    assert band.flags.aligned  # numpy takes unaligned operands off BLAS, moving bits
    return band.reshape(n, n)


def _check_cutoff(cutoff: float) -> None:
    if not 0 < cutoff < 1:
        raise ConfigurationError(f"cutoff must lie in (0, 1); got {cutoff!r}")


def rank_of(matrix: np.ndarray, cutoff: float = DEFAULT_RANK_CUTOFF) -> int:
    """Numerical rank via singular values with a relative threshold."""
    _check_cutoff(cutoff)
    s = np.linalg.svdvals(matrix)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > cutoff * s[0]))


def full_rank_dims(width_elems: int, n_max: int) -> list[int]:
    """The dimensions iter_full_rank_dims yields, as a list."""
    return list(iter_full_rank_dims(width_elems, n_max))


def iter_full_rank_dims(width_elems: int, n_max: int) -> Iterable[int]:
    """All dimensions n in [width_elems, n_max] where the matrix is full rank,
    lazily and in increasing order; the arguments are checked at the call.

    The rank is exact, not numerical.  1-based row i of
    build_aperture_matrix(n, ...) sums the columns in (lo, hi] with
    lo = clip(i - left, 0, n) and hi = clip(i - left + width_elems, 0, n),
    which is f_hi - f_lo in the prefix basis f_k = x_1 + ... + x_k, f_0 = 0.
    The change of basis is invertible, and the edges (lo, hi) of a graph on
    the vertices 0..n span (n + 1) - (number of components) dimensions of
    the prefix coordinates once f_0 is pinned.  So the matrix has rank n
    exactly when the graph is connected.

    With w = width_elems and L = min(ANCHOR_ELEMS, w), that graph is
    connected for every n when w <= ANCHOR_ELEMS, and otherwise exactly
    when n mod w is 0 or 1.  The unclipped rows join v to v + w, so each
    residue class mod w is one chain.  The rows clipped at the left form a
    star at vertex 0 over the L residues -(L - 1)..0; those clipped at the
    right form a star at vertex n over the w - L + 1 residues from n mod w
    on.  The graph is connected exactly when the two arcs cover Z_w.  For
    L = w the first arc is all of Z_w.  For 1 < L < w the arcs' lengths sum
    to w + 1, so they cover Z_w exactly when the second starts at 0 or 1.
    """
    if width_elems < 1:
        raise ConfigurationError(f"width_elems must be >= 1; got {width_elems}")
    if n_max < width_elems:
        raise ConfigurationError("n_max must be >= width_elems")
    if width_elems <= ANCHOR_ELEMS:
        return range(width_elems, n_max + 1)
    return (n for n in range(width_elems, n_max + 1) if n % width_elems <= 1)


# (cutoff, the stacked matrices, their pseudo-inverse, effective rank) of the
# last system of immutable matrices factored.  It is read once and rebound
# once per call, so threads need no lock around it.
_FACTORED: tuple | None = None


def _pseudo_inverse(matrices: list, cutoff: float) -> tuple[np.ndarray, int]:
    """Rank-truncated pseudo-inverse of the stacked matrices and its rank.

    A hit needs an equal cutoff and each matrix to be the very object cached.
    Only matrices backed by an immutable bytes buffer, as every matrix
    build_aperture_matrix returns, are cached, so no cached matrix can
    change under its factor; a writeable matrix is factored on every call.
    A miss rejects non-finite entries before the SVD.
    """
    global _FACTORED
    hit = _FACTORED
    # the cached matrices are alive, so equal ids are the same objects
    if hit is not None and hit[0] == cutoff and list(map(id, hit[1])) == list(map(id, matrices)):
        return hit[2], hit[3]
    if not all(np.isfinite(m).all() for m in matrices):
        raise NumericalError("aperture matrices hold non-finite entries")
    # every process pays one miss per system: numpy's svd is LAPACK gesdd, which
    # takes about twice a single gelsd solve (gesvd four to six times), with
    # the same agreement with gelsd
    u, s, vt = np.linalg.svd(np.vstack(matrices, dtype=float), full_matrices=False)
    rank = int(np.count_nonzero(s > cutoff * s[0])) if s.size else 0
    u = u[:, :rank]
    u /= s[:rank]
    pinv = vt[:rank].T @ u.T
    if all(isinstance(getattr(m.base, "base", None), bytes) for m in matrices):
        _FACTORED = (cutoff, tuple(matrices), pinv, rank)
    return pinv, rank


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
    stacked, and the SVD-based solver discards singular values at or below
    cutoff * sigma_max, the rule of LAPACK's gelsd; cutoff must lie in
    (0, 1).  Effective rank and residual norm are reported.  The
    pseudo-inverse is kept for build_aperture_matrix's own matrix objects
    and reused by identity; others are factored every call (_pseudo_inverse).
    """
    _check_cutoff(cutoff)
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
        pinv, rank = _pseudo_inverse(matrices, cutoff)
        x = pinv @ b
        residual = float(np.linalg.norm(np.concatenate([m @ x for m in matrices]) - b))
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


def smoothing_kernel_elems(rms: float, pitch: float) -> int:
    """Elements of gaussian_smooth's kernel of rms width, 5 sigma each side, at this pitch."""
    # whole within 1e-9: a pitch read back from scan positions is off in its last bits
    return 2 * math.ceil(5 * (rms / pitch) - 1e-9) + 1


def gaussian_smooth(result: ReconstructionResult, rms: float) -> ReconstructionResult:
    """Convolve the recovered pattern with a unit-sum Gaussian of rms width.

    rms is in the grid's physical units; the kernel is truncated at 5 sigma
    and renormalized.  rms = 0 returns the result unchanged.
    """
    if not math.isfinite(rms):
        raise ConfigurationError(f"smoothing rms must be finite; got {rms!r}")
    if rms < 0:
        raise ConfigurationError("smoothing rms must be >= 0")
    if rms == 0:
        return result
    sigma = rms / result.pitch
    size = smoothing_kernel_elems(rms, result.pitch)
    # np.convolve's "same" mode returns the longer of pattern and kernel
    if size > result.p_hat.size:
        raise ConfigurationError(
            f"smoothing rms {rms:g} needs a {size}-element kernel, wider than "
            f"the {result.p_hat.size}-element grid"
        )
    k = np.arange(-(size // 2), size // 2 + 1)
    kernel = np.exp(-0.5 * (k / sigma) ** 2)
    kernel /= kernel.sum()
    smoothed = np.convolve(result.p_hat, kernel, mode="same")
    return replace(
        result,
        p_hat=smoothed,
        smoothing_rms=math.hypot(result.smoothing_rms, rms),
    )
