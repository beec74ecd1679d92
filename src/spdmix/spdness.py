"""Covariance/correlation construction from time series and SPD diagnostics.

A mean-centered covariance of ``n`` variables over ``t`` steps has rank at
most ``min(n, t - 1)``, so strict positive definiteness needs ``t >= n + 1``
observations. :func:`spdness_report` quantifies how close a matrix comes (the
percentage of eigenvalues above 1e-6 of its mean diagonal); :func:`clamp_to_spd`
repairs the few non-positive modes without touching the rest of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NonPositiveEigenvalueError, SpdMatrix, eig_sym, eigvals_sym, symmetrize

__all__ = [
    "CLAMP_FLOOR_DEFAULT",
    "SPDNESS_THRESHOLD",
    "SpdnessReport",
    "clamp_to_spd",
    "correlation",
    "covariance",
    "downsample_by_averaging",
    "spdness_report",
    "truncate",
]

# Replacement value for non-positive eigenvalues when repairing a matrix.
CLAMP_FLOOR_DEFAULT = 1e-6
# An eigenvalue counts as "positive" for SPD-ness above this threshold times
# the mean diagonal (1 for a correlation matrix), independent of the clamp floor.
SPDNESS_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SpdnessReport:
    """Eigenvalue positivity summary for a matrix built from an (n, t) series."""

    n: int
    t: int
    eigenvalues: np.ndarray
    positive_count: int
    spdness_pct: float
    rank_bound: int
    is_spd: bool


def _as_series(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"series must be a 2-d (n_vars, n_steps) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("series contains non-finite values")
    return arr


def _check_series_length(t: int) -> None:
    # a centered covariance of one time step is zero
    if t < 2:
        raise ValueError(f"series length must be at least 2, got t={t}")


def covariance(x: np.ndarray) -> np.ndarray:
    """Covariance matrix ``(1/t) sum_k (x_k - mean)(x_k - mean)^T``.

    The normalizer is ``1/t`` (not ``1/(t-1)``). Output is positive
    semidefinite with rank at most ``min(n, t - 1)``. A constant row has zero
    variance and is rejected by name.
    """
    arr = _as_series(x)
    n, t = arr.shape
    _check_series_length(t)
    centered = arr - arr.mean(axis=1, keepdims=True)
    variances = np.einsum("ik,ik->i", centered, centered) / t
    dead = np.flatnonzero(variances <= 0.0)
    if dead.size:
        raise ValueError(
            f"variable row {dead[0]} is constant across time (zero variance)"
        )
    cov = centered @ centered.T / t
    return (cov + cov.T) / 2.0


def correlation(x: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix: covariance scaled to unit diagonal."""
    cov = covariance(x)
    scale = 1.0 / np.sqrt(np.diag(cov))
    cor = cov * scale[:, None] * scale[None, :]
    cor = (cor + cor.T) / 2.0
    np.fill_diagonal(cor, 1.0)
    return cor


def clamp_to_spd(s: np.ndarray, floor: float = CLAMP_FLOOR_DEFAULT) -> SpdMatrix:
    """Replace non-positive eigenvalues with ``floor`` and recompose.

    Only eigenvalues ``<= 0`` are touched: tiny-but-positive modes below the
    floor pass through unchanged, and an already-SPD input is returned as-is
    (an exact identity map). Consequently
    ``||clamped - S||_F <= floor * sqrt(#clamped)`` up to recomposition error.
    """
    if floor <= 0.0:
        raise ValueError(f"clamp floor must be positive, got {floor}")
    try:
        return SpdMatrix.from_array(s)
    except NonPositiveEigenvalueError:
        dec = eig_sym(s)
    clamped = dec.eigenvalues.copy()
    clamped[clamped <= 0.0] = floor
    out = dec.recompose(clamped)
    return SpdMatrix._trusted(out, float(np.min(clamped)), float(np.max(clamped)))


def spdness_report(s: np.ndarray, n: int, t: int) -> SpdnessReport:
    """Count eigenvalues above the SPD-ness threshold for an (n, t)-series matrix.

    The threshold is ``SPDNESS_THRESHOLD`` times the mean diagonal, so the
    count does not depend on scale; a matrix with non-positive trace is
    rejected. ``spdness_pct`` is ``100 * positive_count / n``; ``is_spd``
    requires every eigenvalue to clear the threshold. The count is checked
    against the centering rank bound ``min(n, t - 1)``.
    """
    arr = symmetrize(s)
    if arr.shape[0] != n:
        raise ValueError(f"matrix dimension {arr.shape[0]} does not match n={n}")
    _check_series_length(t)
    scale = np.trace(arr) / n
    if scale <= 0.0:
        raise ValueError(f"matrix has non-positive trace {scale * n:.6e}")
    threshold = SPDNESS_THRESHOLD * scale
    w = eigvals_sym(arr)
    positive = int(np.sum(w > threshold))
    bound = min(n, t - 1)
    if positive > bound:
        raise ValueError(
            f"invariant violation: {positive} eigenvalues above "
            f"{threshold:g} exceeds the rank bound min(n, t-1) = {bound} "
            f"for n={n}, t={t}"
        )
    return SpdnessReport(
        n=n,
        t=t,
        eigenvalues=w,
        positive_count=positive,
        spdness_pct=100.0 * positive / n,
        rank_bound=bound,
        is_spd=positive == n,
    )


def downsample_by_averaging(x: np.ndarray, target_t: int) -> np.ndarray:
    """Reduce a series to ``target_t`` steps by averaging consecutive blocks."""
    arr = _as_series(x)
    n, t = arr.shape
    if target_t < 1 or t % target_t != 0:
        raise ValueError(
            f"target length {target_t} must evenly divide the series length {t}"
        )
    block = t // target_t
    return arr.reshape(n, target_t, block).mean(axis=2)


def truncate(x: np.ndarray, target_t: int) -> np.ndarray:
    """Keep only the first ``target_t`` steps of a series."""
    arr = _as_series(x)
    if target_t < 1 or target_t > arr.shape[1]:
        raise ValueError(
            f"target length {target_t} must lie in [1, {arr.shape[1]}]"
        )
    return arr[:, :target_t].copy()
