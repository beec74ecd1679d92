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

from . import metrics
from .augment import _check_width, _name_samples
from .data_io import TASK_REGRESSION, LabeledDataset
from .linalg import NonPositiveEigenvalueError, _chunked, _chunks, fro_norm, matrix_log, symmetrize

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
    "theorem1_trials",
    "vec_log_upper",
]

SPACE_RIEMANNIAN = "riemannian"
SPACE_EUCLIDEAN = "euclidean"

# Jitter escalation when a ridge-free Gram matrix is numerically singular.
_JITTER_LADDER = (0.0, 1e-10, 1e-8)

# Default harness bandwidth, in multiples of the pair's distance.
_SIGMA_MULTIPLIER = 8.0


@dataclass(frozen=True)
class KernelConfig:
    """Kernel bandwidth, ridge strength, and the geometry of the distance."""

    sigma: float
    ridge: float = 0.0
    space: str = SPACE_RIEMANNIAN

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        _check_width("sigma", self.sigma)
        if self.ridge < 0.0:
            raise ValueError(f"ridge must be non-negative, got {self.ridge}")
        if self.space not in (SPACE_RIEMANNIAN, SPACE_EUCLIDEAN):
            raise ValueError(f"unknown space {self.space!r}")


def _gaussian(d2, n: int, sigma: float, space: str):
    """Normalizer and values of the Gaussian kernel at squared distances ``d2``;
    a normalizer outside the normal float64 range is rejected."""
    power = n * (n - 1) / 4.0 if space == SPACE_RIEMANNIAN else n / 2.0
    with np.errstate(over="ignore", under="ignore"):
        norm = np.float64(2.0 * np.pi * sigma**2) ** -power
    if not np.finfo(np.float64).tiny <= norm < np.inf:
        log10 = -power * (np.log10(2.0 * np.pi) + 2.0 * np.log10(sigma))
        raise ValueError(
            f"sigma {sigma} gives the n={n} kernel normalizer (2 pi sigma^2)^-{power:g} "
            f"= 10^{log10:.6g}, too {'large' if log10 > 0 else 'small'} for a normal "
            f"float64; use a sigma nearer 1/sqrt(2 pi) or a smaller n"
        )
    return norm, norm * np.exp(-d2 / (2.0 * sigma**2))


def heat_kernel(s_i, s_hat, sigma: float) -> float:
    """Gaussian kernel in the manifold distance with heat-kernel normalizer.

    ``(2 pi sigma^2)^(-n(n-1)/4) * exp(-d(S_i, S_hat)^2 / (2 sigma^2))`` with
    ``d`` the log-Euclidean distance. Symmetric, strictly positive, and
    maximal at ``S_i == S_hat``.
    """
    return _kernel(s_i, s_hat, KernelConfig(sigma=sigma))


def euclidean_kernel(s_i, s_hat, sigma: float) -> float:
    """Gaussian kernel in Frobenius distance: ``(2 pi sigma^2)^(-n/2) exp(-d^2/2sigma^2)``."""
    return _kernel(s_i, s_hat, KernelConfig(sigma=sigma, space=SPACE_EUCLIDEAN))


def _kernel(s_i, s_hat, config: KernelConfig) -> float:
    """The normalized kernel value of one pair, in ``config``'s geometry."""
    if config.space == SPACE_RIEMANNIAN:
        d = metrics.log_euclidean_distance(s_i, s_hat)
    else:
        d = fro_norm(np.subtract(*metrics._check_pair(s_i, s_hat)))
    return float(_gaussian(d**2, np.shape(s_i)[-1], config.sigma, config.space)[1])


def _gram(matrices: np.ndarray, config: KernelConfig):
    """Embeddings, squared pairwise distances, normalizer and kernel matrix.

    Pairwise distances reduce to Euclidean distances between embeddings:
    log-matrices for the manifold metric, the matrices themselves otherwise.
    """
    if config.space == SPACE_RIEMANNIAN:
        emb = matrix_log(matrices)
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

    def __init__(self, train_embeddings: np.ndarray, weights: np.ndarray, config: KernelConfig):
        self._train = train_embeddings
        self._weights = weights
        self.config = config

    def predict(self, s) -> float:
        mat = np.asarray(s, dtype=np.float64)
        emb = matrix_log(mat) if self.config.space == SPACE_RIEMANNIAN else mat
        diffs = self._train - emb
        d2 = np.sum(diffs.reshape(len(self._train), -1) ** 2, axis=1)
        k = _gaussian(d2, emb.shape[-1], self.config.sigma, self.config.space)[1]
        return float(self._weights @ k)


def fit_kernel_ridge(train: LabeledDataset, config: KernelConfig) -> KernelRidgePredictor:
    """Fit the kernel ridge predictor on a regression dataset.

    The Gram matrix is factored by ``np.linalg.cholesky``, escalating through
    tiny jitters (0, 1e-10, 1e-8) on top of the configured ridge; the weights
    solve ``L z = y`` and ``L^T w = z`` with the first factor ``L`` found.
    Numerically coincident samples need an explicit ridge. A training sample
    whose logarithm is rejected is named by its id.
    """
    if train.task != TASK_REGRESSION:
        raise ValueError("kernel ridge regression requires a regression dataset")
    if len(train) == 0:
        raise ValueError("cannot fit on an empty dataset")
    with _name_samples(train.ids):
        emb, d2, norm, gram = _gram(train.matrices, config)
    if config.ridge == 0.0 and len(train) > 1:
        off = d2[np.triu_indices(len(train), k=1)]
        if np.min(off) <= 1e-20 * config.sigma**2:  # squared distance; pairs within 1e-10 sigma
            raise ValueError(
                "training matrices are numerically coincident (pairwise "
                "distance <= 1e-10 * sigma), so the ridge-free Gram matrix "
                "is singular - refit with ridge > 0"
            )
    y = train.labels.astype(np.float64)
    for jitter in _JITTER_LADDER:
        shifted = gram + (config.ridge + jitter * norm) * np.eye(len(gram))
        try:
            low = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        weights = np.linalg.solve(low.T, np.linalg.solve(low, y))
        return KernelRidgePredictor(emb, weights, config)
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
    return _vec_upper(matrix_log(s))


def _vec_upper(h: np.ndarray) -> np.ndarray:
    """Scaled upper triangle of a symmetric matrix, or of each of a stack."""
    iu = np.triu_indices(h.shape[-1])
    vec = h[..., iu[0], iu[1]]
    vec[..., iu[0] != iu[1]] *= np.sqrt(2.0)
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
    every geodesic mix of samples with linearly mixed labels. A training
    sample whose logarithm is rejected is named by its id.
    """
    if train.task != TASK_REGRESSION:
        raise ValueError("geodesic regression requires regression labels")
    if len(train) == 0:
        raise ValueError("cannot fit on an empty dataset")
    with _name_samples(train.ids):
        feats = _vec_upper(matrix_log(train.matrices))
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

    def __post_init__(self) -> None:
        # plain floats, whatever scalar type the labels came in
        for name in ("y_mix", "err_geodesic_sq", "err_line_sq"):
            object.__setattr__(self, name, float(getattr(self, name)))


LOSS_SLACK = 1e-12
ORDERING_SLACK = 1e-9


def theorem1_harness(
    s_i, s_j, y_i: float, y_j: float, lambdas, config: KernelConfig
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
    ``err_geodesic <= err_line + 1e-12`` (``loss_violation``) and the
    ordering claim ``0 <= pred_line <= pred_geodesic <= y_mix``
    (``ordering_violation``); the full table is returned for the caller to
    inspect, never a silent pass.

    This is :func:`theorem1_trials` on the two-sample dataset of ids
    ``s000000`` and ``s000001``, whose names a rejected endpoint carries. One
    pair on the default 11-value grid costs 2 + 9 = 11 eigensolves.
    Only ``config.sigma`` enters the comparison: a non-Riemannian ``space``
    or a non-zero ``ridge`` is rejected rather than ignored.
    """
    if config.space != SPACE_RIEMANNIAN:
        raise ValueError(
            f"theorem1_harness compares in the riemannian space, got space={config.space!r}"
        )
    if config.ridge != 0.0:
        raise ValueError(f"theorem1_harness fits no ridge, got ridge={config.ridge}")
    _check_labels([y_i, y_j])
    pair = LabeledDataset(np.stack(metrics._check_pair(s_i, s_j)), [y_i, y_j], TASK_REGRESSION)
    return theorem1_trials(pair, [0], [1], lambdas, config.sigma)[0]


def theorem1_trials(
    dataset: LabeledDataset, first, second, lambdas, sigma: float | None = None
) -> list[list[HarnessRow]]:
    """:func:`theorem1_harness` tables of the pairs ``(first[t], second[t])``.

    ``first`` and ``second`` are 1-D lists of equal length that index
    samples of ``dataset``. ``sigma=None`` gives each pair
    :func:`default_harness_sigma`'s bandwidth, from the same logarithms.
    The distinct drawn samples are symmetrized once, in one stack, and that
    checked stack is logged in one stacked call, so each drawn sample pays
    the asymmetry check and the decomposition once. Geodesic mixes are
    linear in log coordinates; each interior line point is decomposed once
    more, in pool tasks, the line points in stacked chunks of at most 4 MiB,
    and a line point whose bytes equal an endpoint's (``lam`` 0 and 1) reuses
    that endpoint's logarithm. Line points mix the symmetrized samples, so
    each is exactly symmetric and the check its endpoints passed cannot
    reject it. The tables equal the per-pair calls bit for bit, under any
    worker count.
    Errors come in this order: a negative label in ``dataset``, a bad ratio,
    bandwidth or pair list (all before any solve), a drawn sample that is
    rejected, by id, the first coincident pair, or pair whose kernel value
    underflows to 0, in draw order, then, a chunk of rows at a time, the
    first line point that is not SPD and then the first row whose kernel
    value underflows.
    """
    labels = dataset.labels.astype(np.float64).tolist()
    _check_labels(labels)
    lams = [metrics._check_ratio(lam) for lam in lambdas]
    if sigma is not None:
        KernelConfig(sigma=sigma)  # rejects a non-positive bandwidth
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    if first.ndim != 1 or first.shape != second.shape:
        raise ValueError(
            f"first and second must be 1-D index lists of equal length, got shapes "
            f"{first.shape} and {second.shape}"
        )
    drawn = np.concatenate([first, second])
    outside = drawn[(drawn < 0) | (drawn >= len(dataset))]
    if len(outside):
        raise ValueError(f"pair index {outside[0]} is outside the {len(dataset)}-sample dataset")
    distinct = np.unique(drawn)
    # rows never drawn are never read
    mats, logs = np.empty_like(dataset.matrices), np.empty_like(dataset.matrices)
    with _name_samples(dataset.ids, distinct):
        mats[distinct] = symmetrize(dataset.matrices[distinct])
        matrix_log(mats, rows=distinct, out=logs)
    return _tables(mats, logs, first, second, labels, lams, sigma)


def _check_labels(labels) -> None:
    """Harness labels are non-negative, NaN rejected: the ordering claim uses
    their range."""
    for y in labels:
        if not y >= 0.0:
            raise ValueError(f"labels must be non-negative for the comparison, got {y}")


def _default_sigma(d: float) -> float:
    """The harness's default bandwidth for a pair at log-Euclidean distance ``d``."""
    if d <= 0.0:
        raise ValueError("endpoints coincide; no usable bandwidth")
    return _SIGMA_MULTIPLIER * d


def _tables(mats, logs, first, second, labels, lams, sigma):
    """Harness tables of the pairs ``(first[t], second[t])`` of ``mats``.

    ``logs`` holds the logarithm of every matrix a pair uses and ``labels``
    every label, as Python floats. Pair checks come first, in pair order.
    Then, a chunk of (pair, ratio) rows at a time, pool tasks of a few rows
    each run :func:`_row_distances` (gathers, geodesic blend, the line
    points' logarithms and the four distances), and the caller rejects a
    kernel value that underflows to 0 while the next chunk solves; the
    predictions stay scalar arithmetic per row.
    """
    n = mats.shape[-1]
    d_ij = np.empty(len(first))
    for part in _chunks(len(first), n):
        d_ij[part] = fro_norm(logs[first[part]] - logs[second[part]])
    widths, two_sig_sq = np.empty(len(first)), np.empty(len(first))
    k_ij = []
    for t, d in enumerate(d_ij):
        s = widths[t] = _default_sigma(d) if sigma is None else sigma
        if d <= 1e-12:
            raise ValueError("endpoints coincide; the two-sample system is singular")
        two_sig_sq[t] = 2.0 * s**2
        with np.errstate(over="ignore"):
            k_ij.append(float(np.exp(-d / two_sig_sq[t])))
        if k_ij[-1] == 0.0:
            raise _vanished(s, first[t], second[t], d)

    pair = np.repeat(np.arange(len(first)), len(lams))
    i, j, ratio = first[pair], second[pair], np.tile(lams, len(first))
    dist, kernel = np.empty((2, len(pair), 4))

    def distances(rows):
        dist[rows] = _row_distances(mats, logs, i[rows], j[rows], ratio[rows])

    for part in _chunked(distances, len(pair), n):
        with np.errstate(over="ignore"):
            kernel[part] = np.exp(-dist[part] / two_sig_sq[pair[part], None])
        if not kernel[part].all():
            r, col = np.argwhere(kernel[part] == 0.0)[0] + (part.start, 0)
            point = f"the {('geodesic', 'line')[col // 2]} point at lam={float(ratio[r])} of "
            raise _vanished(widths[pair[r]], i[r], j[r], dist[r, col], point)

    tables = []
    rows = iter(kernel.tolist())
    for t in range(len(first)):
        y_i, y_j = labels[first[t]], labels[second[t]]
        tables.append([_row(y_i, y_j, lam, k_ij[t], *next(rows)) for lam in lams])
    return tables


def _vanished(sigma, i, j, d, point="") -> ValueError:
    """The error for a kernel value ``exp(-d / (2 sigma^2))`` that underflowed to 0."""
    return ValueError(
        f"sigma {float(sigma)} gives {point}the pair of matrices {i} and {j} a kernel "
        f"value exp(-d / (2 sigma^2)) of 0 at distance d = {float(d):.6e}; widen sigma"
    )


def _row_distances(mats, logs, i, j, lam) -> np.ndarray:
    """Log-Euclidean distances of each row's geodesic and line points from
    its endpoints ``i`` and ``j``, as ``(rows, 4)``: geodesic-i, geodesic-j,
    line-i, line-j. Works in place on two row-sized buffers."""

    def gather(stack, rows, out):
        # mode="clip" writes straight into ``out``; "raise" would buffer
        return np.take(stack, rows, axis=0, out=out, mode="clip")

    w = lam[:, None, None]
    dist = np.empty((len(lam), 4))
    point, other = logs[i], logs[j]
    metrics._blend(point, other, w, out=point)
    for col, ends in ((0, i), (1, j)):
        dist[:, col] = fro_norm(np.subtract(point, gather(logs, ends, other), out=other))

    metrics._blend(gather(mats, i, point), gather(mats, j, other), w, out=point)
    # a line point whose bytes equal an endpoint's has that endpoint's log
    bits = point.view(np.int64)
    at_i = (bits == gather(mats, i, other).view(np.int64)).all(axis=(1, 2))
    at_j = ~at_i & (bits == gather(mats, j, other).view(np.int64)).all(axis=(1, 2))
    del other
    solve = np.flatnonzero(~(at_i | at_j))
    if len(solve):
        try:
            point[solve] = matrix_log(point[solve])
        except NonPositiveEigenvalueError as exc:
            k = solve[exc.index]
            raise NonPositiveEigenvalueError(
                f"the line point at lam={float(lam[k])} between matrices {i[k]} and "
                f"{j[k]} is not SPD ({exc.detail})"
            ) from exc
    point[at_i] = logs[i[at_i]]
    point[at_j] = logs[j[at_j]]
    other = np.empty_like(point)
    for col, ends in ((2, i), (3, j)):
        dist[:, col] = fro_norm(np.subtract(point, gather(logs, ends, other), out=other))
    return dist


def _row(y_i, y_j, lam, k_ij, k_i_geo, k_j_geo, k_i_line, k_j_line) -> HarnessRow:
    pred_geo = predict_two_sample(y_i, y_j, k_ij, k_i_geo, k_j_geo)
    pred_line = predict_two_sample(y_i, y_j, k_ij, k_i_line, k_j_line)
    y_mix = metrics._blend(y_i, y_j, lam)
    err_geo = (pred_geo - y_mix) ** 2
    err_line = (pred_line - y_mix) ** 2
    return HarnessRow(
        lam=lam,
        y_mix=y_mix,
        pred_geodesic=pred_geo,
        pred_line=pred_line,
        err_geodesic_sq=err_geo,
        err_line_sq=err_line,
        loss_violation=bool(err_geo > err_line + LOSS_SLACK),
        ordering_violation=bool(
            pred_line < -ORDERING_SLACK
            or pred_line > pred_geo + ORDERING_SLACK
            or pred_geo > y_mix + ORDERING_SLACK
        ),
    )


def default_harness_sigma(s_i, s_j) -> float:
    """Wide-kernel bandwidth for one pair: ``_SIGMA_MULTIPLIER`` times their
    distance.

    Narrow kernels push the two-sample comparison out of the smooth regime
    where the geodesic mix provably wins; a bandwidth several times the pair
    distance keeps it there.
    """
    return _default_sigma(metrics.log_euclidean_distance(s_i, s_j))
