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
from contextlib import contextmanager
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
    symmetrize,
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


def _blend(a, b, lam, out=None):
    """``(1 - lam) * a + lam * b``, every linear and log-Euclidean mix (Python floats
    stay Python floats). With ``out``, which may be ``a``, the blend is written there
    and a writeable ``b`` is overwritten by ``lam * b``: pass it read-only to keep it."""
    if out is None:
        return (1.0 - lam) * a + lam * b
    scaled = np.multiply(b, lam, out=b if b.flags.writeable else None)
    return np.add(np.multiply(a, 1.0 - lam, out=out), scaled, out=out)


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
            stacklevel=4,
        )


def geodesic(s_i, s_j, lam: float, metric: MetricKind = MetricKind.LOG_EUCLIDEAN) -> SpdMatrix:
    """Point at parameter ``lam`` on the geodesic from ``s_i`` to ``s_j``.

    ``lam = 0`` returns ``s_i`` and ``lam = 1`` returns ``s_j`` (to 1e-8
    relative) for every metric; the result is SPD for SPD inputs.
    Extrapolation (``lam`` outside [0, 1]) is rejected.
    """
    return _geodesic(s_i, s_j, lam, metric)[0]


def _geodesic(
    s_i, s_j, lam, metric
) -> tuple[SpdMatrix, np.ndarray, np.ndarray, float | None, float | None]:
    """:func:`geodesic`'s point, the endpoints symmetrized once for every later
    step, and their log-determinants that its own decompositions give
    (``None`` where it made none)."""
    a, b = _check_pair(s_i, s_j)
    lam = _check_ratio(lam)
    metric = MetricKind(metric)
    with _named(metric):
        a, b = symmetrize(a), symmetrize(b)
        if metric is MetricKind.LOG_EUCLIDEAN:
            log_a, log_b = matrix_log(a), matrix_log(b)
            mixed = matrix_exp(_blend(log_a, log_b, lam))
            return mixed, a, b, float(np.trace(log_a)), float(np.trace(log_b))
        if metric is MetricKind.EUCLIDEAN:
            return SpdMatrix.from_array(_blend(a, b, lam)), a, b, None, None
        if metric is MetricKind.CHOLESKY:
            blend = _blend(cholesky(a), cholesky(b), lam)
            return SpdMatrix.from_array(blend @ blend.T), a, b, None, None
        if metric is MetricKind.AFFINE_INVARIANT:
            whitened, ld_a = _congruence(metric, a, b, 0.5, lam)
            return SpdMatrix.from_array(whitened), a, b, ld_a, None
        # (S_j S_i)^{1/2} = ((S_i S_j)^{1/2})^T for symmetric factors, so the
        # unstable cross square root is computed once and transposed.
        cross, ld_a = _congruence(metric, a, b, -0.5, 0.5)
        out = (1.0 - lam) ** 2 * a + lam**2 * b + lam * (1.0 - lam) * (cross + cross.T)
        return SpdMatrix.from_array(out), a, b, ld_a, None


@contextmanager
def _named(metric: MetricKind):
    """Prefix a ``ValueError`` raised inside with ``"<metric> geodesic: "``,
    in place: the error keeps its type and attributes."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{metric.value} geodesic: {exc}", *exc.args[1:])
        raise


def _congruence(metric: MetricKind, a, b, side: float, p: float) -> tuple[np.ndarray, float]:
    """``A^{1/2} (X B X)^p A^side`` with ``X = A^-side``, ``side`` +-1/2, and ``log det A``;
    warns for ``metric`` when ``A`` or ``X B X`` has an eigenvalue below the floor."""
    dec = eig_sym(a)
    half = matrix_power(dec, 0.5).array
    inv_half = matrix_power(dec, -0.5)
    _warn_unstable(metric, 1.0 / inv_half.max_eigenvalue**2)
    inner, outer = (inv_half.array, half) if side > 0 else (half, inv_half.array)
    core = eig_sym(inner @ b @ inner)
    powered = matrix_power(core, p)
    _warn_unstable(metric, float(core.eigenvalues[0]))
    return half @ powered.array @ outer, float(np.sum(np.log(dec.eigenvalues)))


def bures_cross_sqrt(s_i, s_j) -> np.ndarray:
    """Square root of the (non-symmetric) product ``S_i S_j``.

    Computed as ``A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}``, which needs
    one inverse square root of ``S_i`` and is therefore sensitive to its
    small eigenvalues; a :class:`StabilityWarning` is emitted below the floor.
    The result squared reproduces ``S_i @ S_j`` to 1e-7 relative.
    """
    a, b = _check_pair(s_i, s_j)
    return _congruence(MetricKind.BURES_WASSERSTEIN, a, b, -0.5, 0.5)[0]


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

    Solves per call (values-only), reusing the geodesic's spectra: log-Euclidean
    4 (1), Euclidean and Cholesky 3 (3), affine-invariant and Bures-Wasserstein 4 (2).
    """
    mixed, a, b, ld_i, ld_j = _geodesic(s_i, s_j, lam, metric)
    with _named(MetricKind(metric)):
        ld_i = log_det(a) if ld_i is None else ld_i
        ld_j = log_det(b) if ld_j is None else ld_j
    ld_mix = log_det(mixed)
    lo, hi = min(ld_i, ld_j), max(ld_i, ld_j)
    return SwellingReport(
        det_i=ld_i,
        det_j=ld_j,
        det_mix=ld_mix,
        exceeds_max=ld_mix > hi + SWELLING_LOG_TOL,
        within_bounds=lo - SWELLING_LOG_TOL <= ld_mix <= hi + SWELLING_LOG_TOL,
    )
