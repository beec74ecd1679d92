"""Geodesic interpolation between SPD matrices under five metrics.

The five supported metrics and their closed-form geodesics:

==================  =========================================================
euclidean           ``(1-t) A + t B``
cholesky            ``((1-t) L_A + t L_B)((1-t) L_A + t L_B)^T``
bures_wasserstein   ``(1-t)^2 A + t^2 B + t(1-t)((AB)^{1/2} + (BA)^{1/2})``
affine_invariant    ``A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}``
log_euclidean       ``exp((1-t) log A + t log B)``
==================  =========================================================

Only the log-Euclidean and affine-invariant geodesics keep the interpolated
determinant between the endpoint determinants; :func:`swelling_check` reports
whether a given metric inflated it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    SpdMatrix,
    cholesky,
    eig_sym,
    fro_norm,
    log_det,
    matrix_exp,
    matrix_log,
    matrix_power,
)

__all__ = [
    "MetricKind",
    "StabilityWarning",
    "SwellingReport",
    "bures_cross_sqrt",
    "geodesic",
    "log_euclidean_distance",
    "swelling_check",
]

# Below this, an intermediate eigenvalue makes mu^{-1/2} numerically dicey.
STABILITY_EIGENVALUE_FLOOR = 1e-10
# Log-space slack equivalent to 1e-9 relative tolerance on determinants.
SWELLING_LOG_TOL = 1e-9


class MetricKind(str, Enum):
    """The closed set of supported Riemannian metrics on SPD matrices."""

    EUCLIDEAN = "euclidean"
    CHOLESKY = "cholesky"
    BURES_WASSERSTEIN = "bures_wasserstein"
    AFFINE_INVARIANT = "affine_invariant"
    LOG_EUCLIDEAN = "log_euclidean"


class StabilityWarning(UserWarning):
    """An intermediate eigenvalue fell below the numerical stability floor."""


@dataclass(frozen=True)
class SwellingReport:
    """Determinant bookkeeping for one interpolation, in log-space.

    ``det_i``, ``det_j`` and ``det_mix`` are log-determinants. ``exceeds_max``
    flags determinant inflation past both endpoints (beyond 1e-9 relative);
    ``within_bounds`` flags containment in ``[min, max]`` with the same slack.
    The two are mutually exclusive; both are False when the mixed determinant
    deflates below the smaller endpoint.
    """

    det_i: float
    det_j: float
    det_mix: float
    exceeds_max: bool
    within_bounds: bool


def _check_pair(s_i, s_j) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoints as float arrays: square matrices of one shape."""
    a = np.asarray(s_i, dtype=np.float64)
    b = np.asarray(s_j, dtype=np.float64)
    if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in (a, b)):
        raise ValueError(f"endpoints must be square matrices, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: endpoints have shapes {a.shape} and {b.shape}")
    return a, b


def _check_ratio(lam: float) -> float:
    """``lam`` as a float in [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mix ratio must lie in [0, 1], got {lam}")
    return lam


def _warn_unstable(metric: MetricKind, smallest: float) -> None:
    if smallest < STABILITY_EIGENVALUE_FLOOR:
        warnings.warn(
            f"{metric.value} geodesic saw an intermediate eigenvalue "
            f"{smallest:.3e} below {STABILITY_EIGENVALUE_FLOOR:g}; the "
            f"inverse square root may be inaccurate",
            StabilityWarning,
            stacklevel=3,
        )


def geodesic(s_i, s_j, lam: float, metric: MetricKind = MetricKind.LOG_EUCLIDEAN) -> SpdMatrix:
    """Point at parameter ``lam`` on the geodesic from ``s_i`` to ``s_j``.

    ``lam = 0`` returns ``s_i`` and ``lam = 1`` returns ``s_j`` (to 1e-8
    relative) for every metric; the result is SPD for SPD inputs.
    Extrapolation (``lam`` outside [0, 1]) is rejected.
    """
    a, b = _check_pair(s_i, s_j)
    lam = _check_ratio(lam)
    metric = MetricKind(metric)
    try:
        if metric is MetricKind.LOG_EUCLIDEAN:
            return matrix_exp((1.0 - lam) * matrix_log(a) + lam * matrix_log(b))
        if metric is MetricKind.EUCLIDEAN:
            return SpdMatrix.from_array((1.0 - lam) * a + lam * b)
        if metric is MetricKind.CHOLESKY:
            blend = (1.0 - lam) * cholesky(a) + lam * cholesky(b)
            return SpdMatrix.from_array(blend @ blend.T)
        if metric is MetricKind.AFFINE_INVARIANT:
            return _geodesic_affine_invariant(a, b, lam)
        return _geodesic_bures_wasserstein(a, b, lam)
    except ValueError as exc:
        # prefix the message in place: the error keeps its type and attributes
        exc.args = (f"{metric.value} geodesic: {exc}", *exc.args[1:])
        raise


def _geodesic_affine_invariant(a: np.ndarray, b: np.ndarray, lam: float) -> SpdMatrix:
    dec = eig_sym(a)
    half = matrix_power(dec, 0.5)
    inv_half = matrix_power(dec, -0.5)
    _warn_unstable(MetricKind.AFFINE_INVARIANT, 1.0 / inv_half.max_eigenvalue**2)
    core = eig_sym(inv_half.array @ b @ inv_half.array)
    powered = matrix_power(core, lam)
    _warn_unstable(MetricKind.AFFINE_INVARIANT, float(core.eigenvalues[0]))
    return SpdMatrix.from_array(half.array @ powered.array @ half.array)


def bures_cross_sqrt(s_i, s_j) -> np.ndarray:
    """Square root of the (non-symmetric) product ``S_i S_j``.

    Computed as ``A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}``, which needs
    one inverse square root of ``S_i`` and is therefore sensitive to its
    small eigenvalues; a :class:`StabilityWarning` is emitted below the floor.
    The result squared reproduces ``S_i @ S_j`` to 1e-7 relative.
    """
    a, b = _check_pair(s_i, s_j)
    dec = eig_sym(a)
    half = matrix_power(dec, 0.5)
    inv_half = matrix_power(dec, -0.5)
    _warn_unstable(MetricKind.BURES_WASSERSTEIN, 1.0 / inv_half.max_eigenvalue**2)
    core = eig_sym(half.array @ b @ half.array)
    root = matrix_power(core, 0.5)
    _warn_unstable(MetricKind.BURES_WASSERSTEIN, float(core.eigenvalues[0]))
    return half.array @ root.array @ inv_half.array


def _geodesic_bures_wasserstein(a: np.ndarray, b: np.ndarray, lam: float) -> SpdMatrix:
    # (S_j S_i)^{1/2} = ((S_i S_j)^{1/2})^T for symmetric factors, so the
    # unstable cross square root is computed once and transposed.
    cross = bures_cross_sqrt(a, b)
    out = (
        (1.0 - lam) ** 2 * a
        + lam**2 * b
        + lam * (1.0 - lam) * (cross + cross.T)
    )
    return SpdMatrix.from_array(out)


def log_euclidean_distance(s_i, s_j) -> float:
    """Log-Euclidean distance ``||log S_i - log S_j||_F``."""
    a, b = _check_pair(s_i, s_j)
    return fro_norm(matrix_log(a) - matrix_log(b))


def swelling_check(s_i, s_j, lam: float, metric: MetricKind) -> SwellingReport:
    """Compare the interpolated determinant against the endpoint range.

    Log-Euclidean and affine-invariant interpolation satisfy the exact
    identity ``log det mix = (1-lam) log det S_i + lam log det S_j`` and so
    always stay within bounds; Euclidean, Cholesky and Bures-Wasserstein
    interpolation can inflate the determinant past both endpoints, which this
    report records faithfully rather than asserting.
    """
    a, b = _check_pair(s_i, s_j)
    ld_i = log_det(a)
    ld_j = log_det(b)
    mixed = geodesic(a, b, lam, metric)
    ld_mix = log_det(mixed)
    lo, hi = min(ld_i, ld_j), max(ld_i, ld_j)
    exceeds = ld_mix > hi + SWELLING_LOG_TOL
    within = (lo - SWELLING_LOG_TOL) <= ld_mix <= (hi + SWELLING_LOG_TOL)
    return SwellingReport(
        det_i=ld_i,
        det_j=ld_j,
        det_mix=ld_mix,
        exceeds_max=bool(exceeds),
        within_bounds=bool(within),
    )
