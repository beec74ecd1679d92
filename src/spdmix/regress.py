"""Kernel and geodesic regression over SPD matrices.

The Gaussian kernel comes in two flavours: :func:`heat_kernel` uses the
log-Euclidean manifold distance, :func:`euclidean_kernel` the ambient
Frobenius distance. Kernel ridge regression works against either.

:func:`theorem1_harness` compares the two-sample closed-form prediction at a
geodesic mix point against the straight-line mix point. Kernel values inside
the harness use an exponent *linear* in distance (``exp(-d / 2 sigma^2)``),
the convention under which the closed-form family ``K^lam`` describes the
geodesic exactly; see the harness docstring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from . import metrics
from .data_io import TASK_REGRESSION, LabeledDataset
from .linalg import fro_norm, matrix_log

__all__ = [
    "GeodesicRegressionModel",
    "HarnessRow",
    "KernelConfig",
    "KernelRidgePredictor",
    "euclidean_kernel",
    "fit_kernel_ridge",
    "geodesic_regression_fit",
    "gram_matrix",
    "heat_kernel",
    "predict_two_sample",
    "theorem1_harness",
    "vec_log_upper",
]

SPACE_RIEMANNIAN = "riemannian"
SPACE_EUCLIDEAN = "euclidean"

# Jitter escalation when a ridge-free Gram matrix is numerically singular.
_JITTER_LADDER = (0.0, 1e-10, 1e-8)


@dataclass(frozen=True)
class KernelConfig:
    """Kernel bandwidth, ridge strength, and the geometry of the distance."""

    sigma: float
    ridge: float = 0.0
    space: str = SPACE_RIEMANNIAN

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.ridge < 0.0:
            raise ValueError(f"ridge must be non-negative, got {self.ridge}")
        if self.space not in (SPACE_RIEMANNIAN, SPACE_EUCLIDEAN):
            raise ValueError(f"unknown space {self.space!r}")


def _check_dims(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a.shape[0]


def _gaussian(d2, n: int, sigma: float, space: str):
    """Normalizer and values of the Gaussian kernel at squared distances ``d2``."""
    power = n * (n - 1) / 4.0 if space == SPACE_RIEMANNIAN else n / 2.0
    norm = (2.0 * np.pi * sigma**2) ** -power
    return norm, norm * np.exp(-d2 / (2.0 * sigma**2))


def heat_kernel(s_i, s_hat, sigma: float) -> float:
    """Gaussian kernel in the manifold distance with heat-kernel normalizer.

    ``(2 pi sigma^2)^(-n(n-1)/4) * exp(-d(S_i, S_hat)^2 / (2 sigma^2))`` with
    ``d`` the log-Euclidean distance. Symmetric, strictly positive, and
    maximal at ``S_i == S_hat``.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a = np.asarray(s_i, dtype=np.float64)
    b = np.asarray(s_hat, dtype=np.float64)
    n = _check_dims(a, b)
    d = metrics.log_euclidean_distance(a, b)
    return float(_gaussian(d**2, n, sigma, SPACE_RIEMANNIAN)[1])


def euclidean_kernel(s_i, s_hat, sigma: float) -> float:
    """Gaussian kernel in Frobenius distance: ``(2 pi sigma^2)^(-n/2) exp(-d^2/2sigma^2)``."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a = np.asarray(s_i, dtype=np.float64)
    b = np.asarray(s_hat, dtype=np.float64)
    n = _check_dims(a, b)
    d = fro_norm(a - b)
    return float(_gaussian(d**2, n, sigma, SPACE_EUCLIDEAN)[1])


def _gram(matrices: np.ndarray, config: KernelConfig):
    """Embeddings, squared pairwise distances, normalizer and kernel matrix.

    Pairwise distances reduce to Euclidean distances between embeddings:
    log-matrices for the manifold metric, the matrices themselves otherwise.
    """
    if config.space == SPACE_RIEMANNIAN:
        emb = np.stack([matrix_log(m) for m in matrices])
    else:
        emb = np.asarray(matrices, dtype=np.float64)
    flat = emb.reshape(len(emb), -1)
    sq = np.sum(flat**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * flat @ flat.T
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    norm, gram = _gaussian(d2, matrices.shape[1], config.sigma, config.space)
    return emb, d2, norm, gram


def gram_matrix(matrices, config: KernelConfig) -> np.ndarray:
    """Normalized kernel matrix over a set of samples."""
    return _gram(np.asarray(matrices, dtype=np.float64), config)[3]


class KernelRidgePredictor:
    """Kernel ridge regressor ``m(S) = y^T (G + ridge I)^{-1} K_S``.

    With ``ridge = 0`` and distinct training samples, the predictor
    interpolates the training labels exactly (to 1e-8).
    """

    def __init__(
        self,
        train_embeddings: np.ndarray,
        weights: np.ndarray,
        normalizer: float,
        config: KernelConfig,
    ):
        self._train = train_embeddings
        self._weights = weights
        self._norm = normalizer
        self.config = config

    def predict(self, s) -> float:
        mat = np.asarray(s, dtype=np.float64)
        emb = matrix_log(mat) if self.config.space == SPACE_RIEMANNIAN else mat
        diffs = self._train - emb
        d2 = np.sum(diffs.reshape(len(self._train), -1) ** 2, axis=1)
        k = self._norm * np.exp(-d2 / (2.0 * self.config.sigma**2))
        return float(self._weights @ k)


def fit_kernel_ridge(train: LabeledDataset, config: KernelConfig) -> KernelRidgePredictor:
    """Fit the kernel ridge predictor on a regression dataset.

    The Gram matrix is factored by Cholesky, escalating through tiny jitters
    (0, 1e-10, 1e-8) on top of the configured ridge before giving up;
    numerically coincident samples need an explicit ridge.
    """
    if train.task != TASK_REGRESSION:
        raise ValueError("kernel ridge regression requires a regression dataset")
    if len(train) == 0:
        raise ValueError("cannot fit on an empty dataset")
    emb, d2, norm, gram = _gram(train.matrices, config)
    if config.ridge == 0.0 and len(train) > 1:
        off = d2[np.triu_indices(len(train), k=1)]
        if np.min(off) <= 1e-20:  # squared distance; pairs within 1e-10
            raise ValueError(
                "training matrices are numerically coincident (pairwise "
                "distance <= 1e-10), so the ridge-free Gram matrix is "
                "singular - refit with ridge > 0"
            )
    y = train.labels.astype(np.float64)
    for jitter in _JITTER_LADDER:
        shifted = gram + (config.ridge + jitter * norm) * np.eye(len(gram))
        try:
            factor = cho_factor(shifted, check_finite=False)
        except LinAlgError:
            continue
        weights = cho_solve(factor, y, check_finite=False)
        return KernelRidgePredictor(emb, weights, norm, config)
    raise ValueError(
        "Gram matrix is singular even after jitter; training samples are "
        "numerically coincident - refit with ridge > 0"
    )


def predict_two_sample(y_i: float, y_j: float, k_ij: float, k_is: float, k_js: float) -> float:
    """Closed-form two-sample kernel regression prediction.

    ``((y_i - K y_j) K_iS + (y_j - K y_i) K_jS) / (1 - K^2)`` for kernel
    values scaled so self-similarity is 1. At ``S = S_i`` (``K_iS = 1``,
    ``K_jS = K``) this returns ``y_i`` exactly.
    """
    if not 0.0 < k_ij < 1.0:
        raise ValueError(
            f"k_ij must lie strictly in (0, 1); got {k_ij} (coincident or "
            f"infinitely distant samples)"
        )
    if k_is <= 0.0 or k_js <= 0.0:
        raise ValueError("kernel values must be positive")
    return float(
        ((y_i - k_ij * y_j) * k_is + (y_j - k_ij * y_i) * k_js) / (1.0 - k_ij**2)
    )


def vec_log_upper(s) -> np.ndarray:
    """Isometric vectorization of ``log S``: upper triangle, off-diag * sqrt(2).

    The scaling makes the Euclidean inner product of two vectorizations equal
    the Frobenius inner product of the log-matrices, so linear regression in
    these coordinates is exactly geodesic regression.
    """
    h = matrix_log(s)
    n = h.shape[0]
    iu = np.triu_indices(n)
    vec = h[iu].copy()
    vec[iu[0] != iu[1]] *= np.sqrt(2.0)
    return vec


@dataclass(frozen=True)
class GeodesicRegressionModel:
    """Minimum-norm linear model ``y = w . vec_log_upper(S) + b``."""

    weights: np.ndarray
    intercept: float

    def predict(self, s) -> float:
        return float(self.weights @ vec_log_upper(s) + self.intercept)


def geodesic_regression_fit(train: LabeledDataset) -> GeodesicRegressionModel:
    """Least-squares hyperplane over log-coordinates (minimum-norm solution).

    With fewer samples than the ``n(n+1)/2`` feature dimension the training
    residuals vanish: the hyperplane passes through every sample, and through
    every geodesic mix of samples with linearly mixed labels.
    """
    if train.task != TASK_REGRESSION:
        raise ValueError("geodesic regression requires regression labels")
    if len(train) == 0:
        raise ValueError("cannot fit on an empty dataset")
    feats = np.stack([vec_log_upper(m) for m in train.matrices])
    y = train.labels.astype(np.float64)
    x_mean = feats.mean(axis=0)
    y_mean = float(y.mean())
    weights, *_ = np.linalg.lstsq(feats - x_mean, y - y_mean, rcond=None)
    return GeodesicRegressionModel(
        weights=weights, intercept=y_mean - float(weights @ x_mean)
    )


@dataclass(frozen=True)
class HarnessRow:
    """One comparison row: predictions and errors at a single mix ratio."""

    lam: float
    y_mix: float
    pred_geodesic: float
    pred_line: float
    err_geodesic_sq: float
    err_line_sq: float
    loss_violation: bool
    ordering_violation: bool


LOSS_SLACK = 1e-12
ORDERING_SLACK = 1e-9


def theorem1_harness(
    s_i,
    s_j,
    y_i: float,
    y_j: float,
    lambdas,
    config: KernelConfig,
    *,
    strict: bool = False,
) -> list[HarnessRow]:
    """Compare two-sample predictions at geodesic versus straight-line mixes.

    For each ratio in ``lambdas`` the geodesic point
    ``exp((1-lam) log S_i + lam log S_j)`` and the line point
    ``(1-lam) S_i + lam S_j`` are scored against the mixed label through
    :func:`predict_two_sample`. Kernel values are ``exp(-d / (2 sigma^2))``
    with actual log-Euclidean distances; the exponent is linear in distance,
    the convention under which the geodesic's kernel values are exactly
    ``K^lam`` and ``K^(1-lam)``, and under which the comparison's derivation
    chain is well defined. Labels must be non-negative (the ordering claim
    uses the label range); negative labels are rejected rather than
    extrapolated.

    Each row records both the squared-loss comparison
    ``err_geodesic <= err_line + 1e-12`` and the ordering claim
    ``0 <= pred_line <= pred_geodesic <= y_mix``. With ``strict=True`` a
    loss violation raises ``ValueError`` carrying the offending row; by
    default the full table is returned for the caller to inspect, never a
    silent pass.
    """
    if y_i < 0.0 or y_j < 0.0:
        raise ValueError(
            f"labels must be non-negative for the comparison, got ({y_i}, {y_j})"
        )
    a = np.asarray(s_i, dtype=np.float64)
    b = np.asarray(s_j, dtype=np.float64)
    _check_dims(a, b)
    log_a = matrix_log(a)
    log_b = matrix_log(b)
    d_ij = fro_norm(log_a - log_b)
    if d_ij <= 1e-12:
        raise ValueError("endpoints coincide; the two-sample system is singular")
    two_sig_sq = 2.0 * config.sigma**2
    k_ij = float(np.exp(-d_ij / two_sig_sq))
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"mix ratio must lie in [0, 1], got {lam}")
        log_geo = (1.0 - lam) * log_a + lam * log_b
        line = (1.0 - lam) * a + lam * b
        log_line = matrix_log(line)
        k_i_geo = float(np.exp(-fro_norm(log_geo - log_a) / two_sig_sq))
        k_j_geo = float(np.exp(-fro_norm(log_geo - log_b) / two_sig_sq))
        k_i_line = float(np.exp(-fro_norm(log_line - log_a) / two_sig_sq))
        k_j_line = float(np.exp(-fro_norm(log_line - log_b) / two_sig_sq))
        pred_geo = predict_two_sample(y_i, y_j, k_ij, k_i_geo, k_j_geo)
        pred_line = predict_two_sample(y_i, y_j, k_ij, k_i_line, k_j_line)
        y_mix = (1.0 - lam) * y_i + lam * y_j
        err_geo = (pred_geo - y_mix) ** 2
        err_line = (pred_line - y_mix) ** 2
        loss_violation = err_geo > err_line + LOSS_SLACK
        ordering_violation = (
            pred_line < -ORDERING_SLACK
            or pred_line > pred_geo + ORDERING_SLACK
            or pred_geo > y_mix + ORDERING_SLACK
        )
        row = HarnessRow(
            lam=lam,
            y_mix=y_mix,
            pred_geodesic=pred_geo,
            pred_line=pred_line,
            err_geodesic_sq=err_geo,
            err_line_sq=err_line,
            loss_violation=bool(loss_violation),
            ordering_violation=bool(ordering_violation),
        )
        if strict and loss_violation:
            raise ValueError(
                f"geodesic mix lost the loss comparison at lam={lam}: "
                f"pred_geodesic={pred_geo!r}, pred_line={pred_line!r}, "
                f"y_mix={y_mix!r}, labels=({y_i}, {y_j}), k_ij={k_ij!r}"
            )
        rows.append(row)
    return rows


def default_harness_sigma(s_i, s_j, multiplier: float = 8.0) -> float:
    """Wide-kernel bandwidth for one pair: ``multiplier`` times their distance.

    Narrow kernels push the two-sample comparison out of the smooth regime
    where the geodesic mix provably wins; a bandwidth several times the pair
    distance keeps it there.
    """
    d = metrics.log_euclidean_distance(s_i, s_j)
    if d <= 0.0:
        raise ValueError("endpoints coincide; no usable bandwidth")
    return multiplier * d
