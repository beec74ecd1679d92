"""Augmentation strategies over labeled SPD datasets.

Seven strategies are provided. The geodesic strategy interpolates along
log-Euclidean geodesics (three eigendecompositions per mix, or one against
the log-matrices held by an :class:`EigenCache`); the remaining six are
baselines: linear interpolation, per-edge discrete swapping, node/edge
dropping, per-edge generator sampling, and label-distance pairing.

Every strategy takes an explicit ``numpy.random.Generator``;
:func:`mix_dataset` draws output ``k`` from the stream that
``default_rng([seed, k])`` starts, all outputs' pairs and ratios in one bulk
pass with numpy's bits, so no output depends on the batch size or on the
order of the outputs, and writes every output into one stack. Each baseline has one implementation, a private row kernel that
writes one output in place into a row of that stack; the public per-sample
functions (:func:`v_mixup`, :func:`d_mixup`, ...) are its one-row calls.
What the kernels read that is the same for every output (the mirror index
of the triangle a mask or edge draw lives on, gmixup's per-edge means and
spreads, cmixup's float labels and index) is built once per mix.
Batched geodesic mixes (rmixup batches and the label probe) first draw every
pair and ratio, then take the logs of the drawn sources in one stacked call
and the exponentials a chunk of mixes at a time, one chunk ahead of their
consumer.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import metrics
from .data_io import TASK_CLASSIFICATION, TASK_REGRESSION, LabeledDataset
from .linalg import (
    EigenvalueOverflowError,
    NonPositiveEigenvalueError,
    _StackError,
    _chunked,
    _chunks,
    matrix_exp,
    matrix_log,
)

__all__ = [
    "EigenCache",
    "EdgeGenerator",
    "MixConfig",
    "MixProvenance",
    "MixStream",
    "MixedSample",
    "ProbeResult",
    "Provenance",
    "STRATEGIES",
    "c_mixup_pair",
    "d_mixup",
    "drop_edge",
    "drop_node",
    "g_mixup_fit",
    "g_mixup_sample",
    "incorrect_label_probe",
    "mix_dataset",
    "r_mixup",
    "r_mixup_cached",
    "sample_beta",
    "v_mixup",
]

STRATEGIES = (
    "rmixup",
    "vmixup",
    "dmixup",
    "dropnode",
    "dropedge",
    "gmixup",
    "cmixup",
)

_PAIRWISE = {"rmixup", "vmixup", "dmixup", "gmixup", "cmixup"}

# Strategies that summarise a random mask in their provenance.
_MASKED = {"dmixup", "dropnode", "dropedge"}

# Strategies whose output is SPD whenever their inputs are.
_SPD_GUARANTEED = {"rmixup", "vmixup"}


def _check_alpha(alpha: float) -> None:
    # Beta(inf, inf) draws NaN, which would fail later under another name
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _check_keep_prob(keep_prob: float) -> None:
    if not 0.0 < keep_prob < 1.0:
        raise ValueError(f"keep_prob must lie in (0, 1), got {keep_prob}")


# The widest and the narrowest Gaussian kernels whose 2 * width**2 is a
# finite, normal float64.
_WIDEST_KERNEL = float(np.sqrt(np.finfo(np.float64).max / 2.0))
_NARROWEST_KERNEL = float(np.sqrt(np.finfo(np.float64).tiny / 2.0))


def _check_width(name: str, width: float) -> None:
    """Reject a Gaussian kernel ``width`` whose ``2 * width**2`` overflows,
    or underflows below the smallest normal float64."""
    if width > _WIDEST_KERNEL:
        raise ValueError(
            f"{name} {width} is too wide: 2 * width**2 overflows float64 "
            f"above {_WIDEST_KERNEL:.4g}"
        )
    if width < _NARROWEST_KERNEL:
        raise ValueError(
            f"{name} {width} is too narrow: 2 * width**2 underflows float64 "
            f"below {_NARROWEST_KERNEL:.4g}"
        )


def _check_bandwidth(bandwidth: float) -> None:
    if not bandwidth > 0.0:
        raise ValueError(f"cmixup bandwidth must be positive, got {bandwidth}")
    _check_width("cmixup bandwidth", bandwidth)


def _check_seed(seed: int) -> None:
    if int(seed) != seed or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


@dataclass(frozen=True)
class MixConfig:
    """Configuration for a batch of augmented samples.

    ``alpha`` is the Beta shape for the mix ratio, ``keep_prob`` the keep
    probability for the drop strategies, ``cmix_bandwidth`` the label-kernel
    width for label-distance pairing (``None`` defaults to the label standard
    deviation).
    """

    strategy: str
    alpha: float = 1.0
    keep_prob: float = 0.9
    cmix_bandwidth: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        _check_alpha(self.alpha)
        _check_keep_prob(self.keep_prob)
        if self.cmix_bandwidth is not None:
            _check_bandwidth(self.cmix_bandwidth)
        _check_seed(self.seed)


@dataclass(frozen=True)
class Provenance:
    """Where a mixed sample came from: sources, ratio or mask, strategy."""

    strategy: str
    source_i: str
    source_j: str | None = None
    lam: float | None = None
    mask_summary: str | None = None


@dataclass(frozen=True)
class MixedSample:
    """One augmented sample: symmetric matrix, mixed label, provenance.

    ``spd_guaranteed`` records whether the strategy guarantees an SPD output
    for SPD inputs; drop and discrete strategies can and do produce
    geometrically defective matrices, which are emitted unvalidated.
    """

    matrix: np.ndarray
    label: float | np.ndarray
    provenance: Provenance
    spd_guaranteed: bool


def _sample(strategy, matrix, label, source_i, source_j=None, lam=None, mask_summary=None):
    """The one-sample result of ``strategy``."""
    return MixedSample(
        matrix=matrix,
        label=label,
        provenance=Provenance(strategy, source_i, source_j, lam, mask_summary),
        spd_guaranteed=strategy in _SPD_GUARANTEED,
    )


def sample_beta(alpha: float, rng: np.random.Generator) -> float:
    """Draw a mix ratio from Beta(alpha, alpha); deterministic given the stream."""
    _check_alpha(alpha)
    return float(rng.beta(alpha, alpha))


def _mix_labels(y_i, y_j, lam: float):
    mixed = metrics._blend(np.asarray(y_i, np.float64), np.asarray(y_j, np.float64), lam)
    return float(mixed) if mixed.ndim == 0 else mixed


def _one_hot(classes, n_classes: int) -> np.ndarray:
    """The ``(len(classes), n_classes)`` one-hot rows of the class ids ``classes``."""
    rows = np.zeros((len(classes), n_classes))
    rows[np.arange(len(classes)), classes] = 1.0
    return rows


def r_mixup(s_i, s_j, y_i, y_j, lam: float, sources=("i", "j")) -> MixedSample:
    """Geodesic mix ``exp((1-lam) log S_i + lam log S_j)`` with linear labels.

    The output is SPD by construction; no clamping happens downstream of
    mixing. Costs three eigendecompositions on this direct path.
    """
    mixed = metrics.geodesic(s_i, s_j, lam, metrics.MetricKind.LOG_EUCLIDEAN)
    return _sample("rmixup", mixed.array, _mix_labels(y_i, y_j, lam), *sources, lam)


@contextmanager
def _name_samples(ids, rows=None):
    """Rename a :class:`_StackError` about matrix ``index`` of a stack of the
    samples ``rows`` (every sample by default) after that sample's id; the
    error keeps its type and its ``index`` becomes the sample's row."""
    try:
        yield
    except _StackError as exc:
        k = int(exc.index if rows is None else rows[exc.index])
        spd = isinstance(exc, NonPositiveEigenvalueError)
        what = "is not SPD; clamp it first (" if spd else "is rejected ("
        err = type(exc)(f"sample {ids[k]} {what}{exc.detail})")
        err.index = k
        raise err from exc


class EigenCache:
    """Each sample's matrix logarithm, computed on its first use.

    Geodesic mixing is linear in log coordinates, so mixing two cached
    samples costs one eigendecomposition instead of three. The logarithms
    fill rows of one stack allocated up front, by one stacked
    :func:`matrix_log` per fill whose pool parts write straight into the
    rows; pages of a large stack become resident only once written. The
    stack is read-only outside a fill, so no view of it handed out can be
    made writeable. Not thread-safe.
    """

    def __init__(self, dataset: LabeledDataset):
        self._dataset = dataset
        self._logs = np.empty_like(dataset.matrices)
        self._logs.flags.writeable = False
        self._filled = np.zeros(len(dataset), dtype=bool)

    @classmethod
    def build(cls, dataset: LabeledDataset) -> "EigenCache":
        """A cache with every sample's logarithm already computed."""
        cache = cls(dataset)
        cache._fill(np.arange(len(dataset)))
        return cache

    def entry(self, sample_id: str) -> np.ndarray:
        """Read-only log-matrix of the first sample carrying ``sample_id``."""
        k = self._dataset.ids.index(sample_id)
        self._fill([k])
        return self._logs[k]

    def _fill(self, rows) -> None:
        """Log the samples in ``rows`` not yet held, in one pinned call whose
        parts write into the stack; a rejected sample is named by its id."""
        rows = np.unique(np.asarray(rows, dtype=np.intp))
        todo = rows[~self._filled[rows]]
        self._logs.flags.writeable = True
        try:
            with _name_samples(self._dataset.ids, todo):
                matrix_log(self._dataset.matrices, rows=todo, out=self._logs)
        finally:
            self._logs.flags.writeable = False
        self._filled[todo] = True

    def _mixes(
        self, first: np.ndarray, second: np.ndarray, lams: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """``exp((1-lam) log S_first + lam log S_second)`` row by row.

        Yields ``(rows, stack)`` a chunk at a time, each matrix with the bits
        :func:`r_mixup_cached` gives the same pair and ratio. Pool tasks blend
        a part of a chunk and exponentiate it in place, in its rows of one of
        two stacks that take turns; chunk k+1 is solving while chunk k is
        yielded, so a yielded stack is valid until the next item.
        """
        self._fill(np.concatenate([first, second]))
        n = self._dataset.dim
        chunks = list(_chunks(len(lams), n))
        stacks = [np.empty((chunks[0].stop, n, n)) for _ in chunks[:2]]

        def mix(rows):
            c, at = divmod(rows.start, len(stacks[0]))
            blend = metrics._blend(self._logs[first[rows]], self._logs[second[rows]],
                                   lams[rows, None, None],
                                   out=stacks[c % 2][at : at + rows.stop - rows.start])
            try:
                matrix_exp(blend, out=blend)
            except EigenvalueOverflowError as exc:
                k = rows.start + exc.index
                ids = self._dataset.ids
                err = EigenvalueOverflowError(
                    f"mix {k} of samples {ids[first[k]]} and {ids[second[k]]}: {exc.detail}"
                )
                err.index = k
                raise err from exc

        for c, chunk in enumerate(_chunked(mix, len(lams), n)):
            yield chunk, stacks[c % 2][: chunk.stop - chunk.start]


def r_mixup_cached(log_i, log_j, y_i, y_j, lam: float, sources=("i", "j")) -> MixedSample:
    """Geodesic mix from cached log-matrices (:meth:`EigenCache.entry`): one
    eigendecomposition total."""
    if log_i.shape != log_j.shape:
        raise ValueError(f"stale cache: entry dimensions {log_i.shape} vs {log_j.shape}")
    lam = metrics._check_ratio(lam)
    mixed = matrix_exp(metrics._blend(log_i, log_j, lam))
    return _sample("rmixup", mixed.array, _mix_labels(y_i, y_j, lam), *sources, lam)


def _upper_mirror(n: int, k: int) -> tuple[int, np.ndarray]:
    """The entry count of ``np.triu_indices(n, k)`` and an ``(n, n)`` index
    that maps every entry to the position of its upper-triangle twin in that
    order, so ``draws[index]`` mirrors draws made on the triangle; with
    ``k=1`` the diagonal maps one past the end."""
    rows, cols = np.triu_indices(n, k)
    index = np.full((n, n), len(rows), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return len(rows), index


def _d_mixup_row(out, a, b, lam: float, rng: np.random.Generator, upper) -> str:
    """``upper`` is ``_upper_mirror(n, 0)``; returns the mask summary."""
    size, mirror = upper
    take_j = rng.random(size) < lam
    np.copyto(out, a)
    np.copyto(out, b, where=take_j[mirror])
    return f"swapped={int(take_j.sum())}/{size}"


def _drop_node_row(out, a, keep_prob: float, rng: np.random.Generator) -> str:
    keep = rng.random(len(a)) < keep_prob
    scale = keep.astype(np.float64)
    np.multiply(a, np.outer(scale, scale), out=out)
    return f"kept={int(keep.sum())}/{len(a)}"


def _drop_edge_row(out, a, keep_prob: float, rng: np.random.Generator, upper) -> str:
    """``upper`` is ``_upper_mirror(n, 1)``; the diagonal is always kept."""
    size, mirror = upper
    keep = rng.random(size) < keep_prob
    np.multiply(a, np.append(keep, True)[mirror], out=out)
    return f"kept={int(keep.sum())}/{size}"


def v_mixup(s_i, s_j, y_i, y_j, lam: float, sources=("i", "j")) -> MixedSample:
    """Linear mix ``(1-lam) S_i + lam S_j``; SPD inputs give an SPD output
    (convex cone), but the determinant can inflate past both endpoints."""
    a, b = metrics._check_pair(s_i, s_j)
    lam = metrics._check_ratio(lam)
    return _sample("vmixup", metrics._blend(a, b, lam), _mix_labels(y_i, y_j, lam), *sources, lam)


def d_mixup(
    s_i, s_j, y_i, y_j, lam: float, rng: np.random.Generator, sources=("i", "j")
) -> MixedSample:
    """Discrete per-edge mix: each edge comes from S_j with probability lam.

    The swap mask is drawn on the upper triangle (diagonal included) and
    mirrored so the output stays symmetric. SPD is NOT guaranteed.
    """
    a, b = metrics._check_pair(s_i, s_j)
    lam = metrics._check_ratio(lam)
    out = np.empty_like(a)
    summary = _d_mixup_row(out, a, b, lam, rng, _upper_mirror(len(a), 0))
    return _sample("dmixup", out, _mix_labels(y_i, y_j, lam), *sources, lam, summary)


def drop_node(
    s, y, keep_prob: float, rng: np.random.Generator, source: str = "i"
) -> MixedSample:
    """Zero all edges (rows and columns, diagonal included) of dropped nodes.

    Each node survives independently with probability ``keep_prob``; the
    label is unchanged. The output is positive semidefinite for SPD input
    (a principal submatrix padded with zeros) but never strictly SPD once a
    node drops.
    """
    _check_keep_prob(keep_prob)
    a = np.asarray(s, dtype=np.float64)
    out = np.empty_like(a)
    summary = _drop_node_row(out, a, keep_prob, rng)
    return _sample("dropnode", out, y, source, mask_summary=summary)


def drop_edge(
    s, y, keep_prob: float, rng: np.random.Generator, source: str = "i"
) -> MixedSample:
    """Zero each off-diagonal edge independently with probability ``1 - keep_prob``.

    The mask is drawn on the strict upper triangle and mirrored; the diagonal
    is always kept. The label is unchanged and SPD is not guaranteed.
    """
    _check_keep_prob(keep_prob)
    a = np.asarray(s, dtype=np.float64)
    out = np.empty_like(a)
    summary = _drop_edge_row(out, a, keep_prob, rng, _upper_mirror(len(a), 1))
    return _sample("dropedge", out, y, source, mask_summary=summary)


@dataclass(frozen=True)
class EdgeGenerator:
    """Per-edge conditional-normal generators fitted on a dataset.

    Classification: per-class, per-edge mean and standard deviation.
    Regression: per-edge mean/std plus the edge-label correlation, so each
    edge can be conditioned on an arbitrary label value.
    """

    task: str
    is_correlation: bool
    dim: int
    class_means: dict[int, np.ndarray] | None = None
    class_stds: dict[int, np.ndarray] | None = None
    edge_mean: np.ndarray | None = None
    edge_std: np.ndarray | None = None
    label_mean: float | None = None
    label_std: float | None = None
    edge_label_corr: np.ndarray | None = None


def _edge_moments(mats: np.ndarray, rows, y=None):
    """Per-edge mean and standard deviation of the samples ``rows`` of
    ``mats`` and, given their centred labels ``y``, the edge-label
    covariance.

    Sums run one sample at a time in sample order, which is the order numpy's
    axis-0 ``mean`` and ``std`` add in, so the bits are theirs; no
    ``(count, n, n)`` temporary is made.
    """
    total = np.zeros(mats.shape[1:])
    for k in rows:
        total += mats[k]
    mean = total / len(rows)
    squares, products = np.zeros_like(mean), np.zeros_like(mean)
    for t, k in enumerate(rows):
        centered = mats[k] - mean
        if y is not None:
            products += centered * y[t]
        squares += np.multiply(centered, centered, out=centered)
    cov = None if y is None else products / len(rows)
    return mean, np.sqrt(squares / len(rows)), cov


def g_mixup_fit(dataset: LabeledDataset) -> EdgeGenerator:
    """Estimate per-edge generators from a labeled dataset.

    A classification class with a single sample gets zero variance and a
    warning; a regression dataset with zero label variance is rejected.
    Every moment is summed one sample at a time, so the fit holds a few
    ``(n, n)`` matrices beyond the dataset.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit edge generators on an empty dataset")
    mats = dataset.matrices
    if dataset.task == TASK_CLASSIFICATION:
        if dataset.has_soft_labels:
            raise ValueError("edge generators need hard class ids, not soft labels")
        means: dict[int, np.ndarray] = {}
        stds: dict[int, np.ndarray] = {}
        for c in np.unique(dataset.labels):
            members = np.flatnonzero(dataset.labels == c).tolist()
            means[int(c)], stds[int(c)], _ = _edge_moments(mats, members)
            if len(members) < 2:
                warnings.warn(
                    f"class {int(c)} has a single sample; its edge variance "
                    f"is set to zero",
                    UserWarning,
                    stacklevel=2,
                )
        return EdgeGenerator(
            task=dataset.task,
            is_correlation=dataset.is_correlation,
            dim=dataset.dim,
            class_means=means,
            class_stds=stds,
        )
    y = dataset.labels
    label_std = float(y.std())
    if label_std == 0.0:
        raise ValueError("regression labels have zero variance; cannot condition on y")
    mean, std, cov_edge_label = _edge_moments(mats, range(len(y)), (y - y.mean()).tolist())
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(std > 0.0, cov_edge_label / (std * label_std), 0.0)
    corr = np.clip(corr, -1.0, 1.0)
    return EdgeGenerator(
        task=dataset.task,
        is_correlation=dataset.is_correlation,
        dim=dataset.dim,
        edge_mean=mean,
        edge_std=std,
        label_mean=float(y.mean()),
        label_std=label_std,
        edge_label_corr=corr,
    )


class _EdgeDraws:
    """A fitted :class:`EdgeGenerator`'s per-edge constants on the upper
    triangle, built once for every sample drawn from it."""

    def __init__(self, gen: EdgeGenerator):
        self.is_correlation = gen.is_correlation
        self.upper = _upper_mirror(gen.dim, 0)
        rows, cols = np.triu_indices(gen.dim)
        if gen.task == TASK_CLASSIFICATION:
            self.class_means = {c: m[rows, cols] for c, m in gen.class_means.items()}
            self.class_vars = {c: s[rows, cols] ** 2 for c, s in gen.class_stds.items()}
        else:
            corr = gen.edge_label_corr
            self.slope = ((gen.edge_std / gen.label_std) * corr)[rows, cols]
            self.label_mean = gen.label_mean
            self.edge_mean = gen.edge_mean[rows, cols]
            var = (1.0 - corr**2) * gen.edge_std**2
            self.spread = np.sqrt(np.maximum(var[rows, cols], 0.0))

    def fill(self, out, lam: float, rng: np.random.Generator, classes=None, y_mix=None) -> None:
        """Draw one sample into ``out``: from the ``lam``-blend of two class
        generators ``classes=(c_i, c_j)``, or conditioned on ``y_mix``."""
        if classes is not None:
            c_i, c_j = classes
            mean = metrics._blend(self.class_means[c_i], self.class_means[c_j], lam)
            var = (1.0 - lam) ** 2 * self.class_vars[c_i] + lam**2 * self.class_vars[c_j]
            spread = np.sqrt(np.maximum(var, 0.0))
        else:
            mean = self.edge_mean + self.slope * (y_mix - self.label_mean)
            spread = self.spread
        size, mirror = self.upper
        draws = mean + spread * rng.standard_normal(size)
        draws += 0.0  # -0.0 becomes 0.0, as in the sum that mirrors a triangle
        np.take(draws, mirror, out=out)
        if self.is_correlation:
            np.fill_diagonal(out, 1.0)


def g_mixup_sample(
    gen: EdgeGenerator,
    y_i,
    y_j,
    lam: float,
    rng: np.random.Generator,
    n_classes: int | None = None,
    sources=("i", "j"),
) -> MixedSample:
    """Draw one synthetic sample from the lam-blend of two edge generators.

    Classification blends the two class conditionals
    ``N((1-lam) mu_i + lam mu_j, (1-lam)^2 sd_i^2 + lam^2 sd_j^2)`` (so a
    zero-variance generator yields exactly the mixed means); regression
    conditions every edge on the mixed label. The diagonal is forced to 1 for
    correlation-matrix datasets. Edges are drawn on the upper triangle and
    mirrored.
    """
    lam = metrics._check_ratio(lam)
    out = np.empty((gen.dim, gen.dim))
    if gen.task == TASK_CLASSIFICATION:
        c_i, c_j = int(y_i), int(y_j)
        if gen.class_means is None or c_i not in gen.class_means or c_j not in gen.class_means:
            raise ValueError(f"generator has no fitted class for ({y_i}, {y_j})")
        classes = n_classes if n_classes is not None else max(gen.class_means) + 1
        label = _mix_labels(*_one_hot([c_i, c_j], classes), lam)
        _EdgeDraws(gen).fill(out, lam, rng, classes=(c_i, c_j))
    else:
        if gen.edge_mean is None:
            raise ValueError("generator was not fitted for regression")
        label = _mix_labels(float(y_i), float(y_j), lam)
        _EdgeDraws(gen).fill(out, lam, rng, y_mix=label)
    return _sample("gmixup", out, label, *sources, lam)


class _Partners:
    """Label-distance partner draws over one dataset. Each distinct anchor's
    candidates (and regression weights) are built with a few array
    operations over the dataset, so a mix holds one anchor's worth at a time."""

    def __init__(self, dataset: LabeledDataset, bandwidth: float):
        if len(dataset) < 2:
            raise ValueError("need at least 2 samples to pick a partner")
        _check_bandwidth(bandwidth)
        self._classes = dataset.task == TASK_CLASSIFICATION
        if self._classes and dataset.has_soft_labels:
            raise ValueError("label-distance pairing needs hard class ids")
        self._labels = dataset.labels if self._classes else dataset.labels.astype(np.float64)
        self._index = np.arange(len(dataset))
        self._bandwidth = bandwidth
        if self._classes:
            _, cls, sizes = np.unique(self._labels, return_inverse=True, return_counts=True)
            # an anchor's candidate count is its bound; a singleton's 1 draws nothing
            self._bounds = np.maximum(sizes[cls] - 1, 1)

    def _pick(self, anchor: int, picks: np.ndarray) -> np.ndarray:
        """The partners of ``anchor`` that ``picks`` name: candidate positions
        in its class, or doubles in [0, 1) in its regression weights."""
        y = self._labels
        if self._classes:
            candidates = np.flatnonzero(y == y[anchor])
            candidates = candidates[candidates != anchor]
            if len(candidates):
                return candidates[picks]
            warnings.warn(f"anchor {anchor} is the only sample of its class; pairing it "
                          "with itself", UserWarning, stacklevel=4)
            return np.full(len(picks), anchor)
        candidates = self._index[self._index != anchor]
        logits = -((y[anchor] - y[candidates]) ** 2) / (2.0 * self._bandwidth**2)
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        return _weighted_picks(candidates, weights, picks)

    def draw(self, anchor: int, rng: np.random.Generator) -> int:
        pick = rng.integers(self._bounds[anchor]) if self._classes else rng.random()
        return int(self._pick(anchor, np.array([pick]))[0])

    def draw_all(self, anchors: np.ndarray, streams: _Streams) -> np.ndarray:
        """Every output's partner, drawn on its stream as :meth:`draw` draws
        it, each distinct anchor's candidates built once."""
        picks = streams.integers(self._bounds[anchors]) if self._classes else streams.random()
        partners = np.empty_like(anchors)
        order = np.argsort(anchors, kind="stable")
        for outputs in np.split(order, np.flatnonzero(np.diff(anchors[order])) + 1):
            partners[outputs] = self._pick(anchors[outputs[0]], picks[outputs])
        return partners


def _weighted_picks(candidates, weights, doubles):
    """The candidates that ``doubles`` in [0, 1) pick, searched in the
    normalised cumulative ``weights`` as ``Generator.choice(p=)`` searches."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return candidates[cdf.searchsorted(doubles, side="right")]


def c_mixup_pair(
    dataset: LabeledDataset,
    anchor_index: int,
    bandwidth: float,
    rng: np.random.Generator,
) -> int:
    """Pick a partner for the anchor, weighted by label closeness.

    Regression partners are drawn with probability proportional to
    ``exp(-(y_a - y_j)^2 / (2 bandwidth^2))``; classification degenerates to
    uniform sampling within the anchor's class. A singleton class falls back
    to the anchor itself with a warning.
    """
    return _Partners(dataset, bandwidth).draw(anchor_index, rng)


_MASK32 = 0xFFFFFFFF


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix on uint32 columns; its constant advances by
    ``mult`` on every call, whatever the values."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _seed_words(seed: int, ks) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for each ``k``
    in ``ks``, one row per ``k``.

    SeedSequence (NEP 19) hashes the words of ``seed`` and then of ``k``
    into a pool of four 32-bit words, here one uint32 column per pool word.
    Both are below 2**64, so the words fit the pool, and writing ``k`` as
    ``[k mod 2**32, k >> 32]`` is exact because the pool pads with zeros.
    """
    ks = np.asarray(ks, dtype=np.uint64)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    words += [ks & _MASK32, ks >> 32, 0][: 4 - len(words)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(np.broadcast_to(word, ks.shape).astype(np.uint32)) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    halves = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)], axis=-1)


class _Streams:
    """For each ``k`` in ``ks``, the stream ``np.random.default_rng([seed, k])``
    starts, drawn in bulk with numpy's algorithms and bits. The PCG64 states
    are uint64 ``(hi, lo)`` arrays, kept with numpy's half-word buffer; a draw
    steps every stream once and redraws only the streams it rejects. What
    numpy computes through libm or its tables is drawn on :meth:`generator`."""

    _MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)  # PCG64's multiplier, hi and lo

    def __init__(self, seed: int, ks):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed, ks).T
        # PCG64 seeding: inc = 2 * word + 1, then one step from inc + seed
        self._inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
        self._lo = s_lo + self._inc[1]
        self._hi = s_hi + self._inc[0] + (self._lo < s_lo)
        self._next64(slice(None))
        self._has, self._half = np.zeros(len(s_lo), dtype=bool), np.zeros_like(s_lo)
        self._rng = np.random.Generator(np.random.PCG64())

    def _next64(self, rows) -> np.ndarray:
        """Step the streams ``rows``; their XSL-RR outputs (O'Neill 2014)."""
        hi, lo = self._hi[rows], self._lo[rows]
        m0, m1 = self._MULT[1] & _MASK32, self._MULT[1] >> 32
        l0, l1 = lo & _MASK32, lo >> 32  # the high word of lo * MULT's lo, by quarters
        mid = (l0 * m0 >> 32) + (l0 * m1 & _MASK32) + (l1 * m0 & _MASK32)
        hi = hi * self._MULT[1] + lo * self._MULT[0] + self._inc[0][rows] + (mid >> 32)
        hi += l1 * m1 + (l0 * m1 >> 32) + (l1 * m0 >> 32)
        low = lo * self._MULT[1]
        self._lo[rows] = lo = low + self._inc[1][rows]
        self._hi[rows] = hi = hi + (lo < low)
        xored, turn = hi ^ lo, hi >> 58
        return xored >> turn | xored << (64 - turn & 63)

    def _next32(self, rows) -> np.ndarray:
        """The next 32-bit words: a cached high half, else a new output's low."""
        has, words = self._has[rows], self._half[rows]
        drawn = self._next64(rows[~has])
        words[~has], self._half[rows[~has]] = drawn & _MASK32, drawn >> 32
        self._has[rows] = ~has
        return words

    def integers(self, bounds) -> np.ndarray:
        """``Generator.integers(bound)`` on every stream by 32-bit Lemire, one
        bound in ``[1, 2**32]`` or one per stream; a bound of 1 draws nothing."""
        bounds = np.broadcast_to(np.asarray(bounds, dtype=np.uint64), self._lo.shape)
        out, todo = np.zeros(len(bounds), dtype=np.uint64), np.flatnonzero(bounds > 1)
        while len(todo):
            scaled = self._next32(todo) * bounds[todo]
            out[todo] = scaled >> 32
            todo = todo[(scaled & _MASK32) < 2**32 % bounds[todo]]
        return out.astype(np.intp)

    def random(self, rows=slice(None)) -> np.ndarray:
        """``Generator.random()`` on every stream, or on the streams ``rows``."""
        return (self._next64(rows) >> 11) * 2.0**-53

    def beta_one(self) -> np.ndarray:
        """``Generator.beta(1, 1)`` on every stream: Johnk's doubles ``u, v``,
        kept when ``0 < u + v <= 1``, give ``u / (u + v)``."""
        out, todo = np.empty(len(self._lo)), np.arange(len(self._lo))
        while len(todo):
            u, v = self.random(todo), self.random(todo)
            kept = (u + v <= 1.0) & (u + v > 0.0)
            out[todo[kept]] = u[kept] / (u + v)[kept]
            todo = todo[~kept]
        return out

    def generator(self, k: int) -> np.random.Generator:
        """Stream ``k`` in its current state as numpy's ``Generator``; one is
        reused, so the one returned is valid until the next call."""
        hi, lo, inc_hi, inc_lo = (int(a[k]) for a in (self._hi, self._lo, *self._inc))
        self._rng.bit_generator.state = {"bit_generator": "PCG64", "state": {
            "state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": int(self._has[k]), "uinteger": int(self._half[k])}
        return self._rng


def _partner_uniform(anchors, picks):
    """The partners that ``picks`` below ``size - 1`` name among the others."""
    return picks + (picks >= anchors)


def _mix_constants(dataset: LabeledDataset, config: MixConfig):
    """What a strategy's row kernel reads for every output of one mix: the
    mirror index of the triangle it draws on (dmixup, dropedge), the edge
    generator's constants (gmixup) or the partner sampler (cmixup), after
    checking the labels suit the strategy."""
    strategy = config.strategy
    if strategy in ("dmixup", "dropedge"):
        return _upper_mirror(dataset.dim, 0 if strategy == "dmixup" else 1)
    if strategy not in ("gmixup", "cmixup"):
        return None
    if dataset.task == TASK_CLASSIFICATION and dataset.has_soft_labels:
        raise ValueError(f"{strategy} needs hard class labels, got soft labels")
    if strategy == "gmixup":
        return _EdgeDraws(g_mixup_fit(dataset))
    if config.cmix_bandwidth is not None or dataset.task == TASK_CLASSIFICATION:
        return _Partners(dataset, config.cmix_bandwidth or 1.0)
    spread = float(dataset.labels.std())
    if spread == 0.0:
        raise ValueError(
            "cmixup bandwidth default is the label standard deviation, "
            "which is zero for this dataset; pass cmix_bandwidth"
        )
    return _Partners(dataset, spread)


@dataclass(frozen=True)
class MixProvenance:
    """The :class:`Provenance` of every output of one mix, a column per
    field: entry ``k`` of a column describes output ``k``, and a column the
    strategy does not record is ``None``."""

    strategy: str
    source_i: list[str]
    source_j: list[str] | None = None
    lam: np.ndarray | None = None
    mask_summary: list[str] | None = None

    CSV_HEADER = ("id", "strategy", "source_i", "source_j", "lam", "mask_summary")

    def __len__(self) -> int:
        return len(self.source_i)

    def csv_rows(self, ids) -> Iterator[tuple]:
        """The provenance CSV rows that follow :attr:`CSV_HEADER`, one per
        output: an absent column is blank and a ratio is written by ``repr``."""
        blank = [""] * len(self)
        lams = blank if self.lam is None else map(repr, self.lam.tolist())
        return zip(ids, [self.strategy] * len(self), self.source_i,
                   self.source_j or blank, lams, self.mask_summary or blank)


class MixStream:
    """The outputs of one mix, a chunk at a time.

    Building a stream checks the dataset and configuration and builds what
    every output reads, so it raises before anything is drawn. Iterating
    yields ``(rows, matrices)``: a slice of output indices and their
    matrices, one ``_chunks`` part at a time, in order. Output ``k`` is drawn
    from exactly the stream that ``np.random.default_rng([config.seed, k])``
    starts, so it is a pure function of (dataset, config, k). Every output's
    anchor, partner and Beta(1, 1) ratio come from one :class:`_Streams`
    block in bulk; the rest (other ratios, masks, normals) is drawn part by
    part on numpy's generator, loaded from the block once per output. A
    yielded stack is valid until the next item: a baseline's row kernel
    writes each output of a part into one reused buffer. rmixup fills an
    :class:`EigenCache` with the logs of the drawn sources (naming a rejected
    one before the first part); each part is then the exponentials of a
    chunk of mixes, the next of which the pool computes while the consumer
    holds this one. Until the iterator ends or is dropped it keeps the
    linear-algebra pin, so other threads' matrix functions wait for it, and
    dropping it early drops the pool work still out. After the last part,
    ``ids`` holds the output ids ``m000000, ...``, ``labels`` every output's
    label (hard class ids mixed as one-hot rows) and ``provenance`` every
    output's :class:`MixProvenance`.

    ``count``, ``dim``, ``task`` and ``is_correlation`` describe the output
    dataset before any part is drawn; it holds correlation matrices only when
    gmixup draws from correlation input.
    """

    def __init__(self, dataset: LabeledDataset, config: MixConfig, count: int):
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        strategy = config.strategy
        size = len(dataset)
        if size == 0 or (strategy in _PAIRWISE and size < 2):
            if count:
                raise ValueError(f"dataset too small for strategy {strategy!r}")
            self._table = None
        else:
            self._table = _mix_constants(dataset, config)
        self._dataset, self._config = dataset, config
        self._hard = dataset.task == TASK_CLASSIFICATION and not dataset.has_soft_labels
        self._y = dataset.labels.tolist() if strategy == "gmixup" else None
        self.count, self.dim, self.task = count, dataset.dim, dataset.task
        self.is_correlation = dataset.is_correlation and strategy == "gmixup"
        self.ids: list[str] | None = None
        self.labels: np.ndarray | None = None
        self.provenance: MixProvenance | None = None

    def __iter__(self) -> Iterator[tuple[slice, np.ndarray]]:
        count, config, strategy = self.count, self._config, self._config.strategy
        size, pairwise = len(self._dataset), strategy in _PAIRWISE
        streams = _Streams(int(config.seed), np.arange(count))
        self._anchors = self._partners = streams.integers(size)
        if count and strategy == "cmixup":
            self._partners = self._table.draw_all(self._anchors, streams)
        elif count and pairwise:
            self._partners = _partner_uniform(self._anchors, streams.integers(size - 1))
        self._lams = streams.beta_one() if pairwise and config.alpha == 1.0 else np.zeros(count)
        if strategy in ("rmixup", "vmixup", "cmixup") and config.alpha == 1.0:
            streams = None  # each output is drawn whole
        self._summaries: list[str] = []
        if strategy == "rmixup":
            if streams is not None:
                self._draw(slice(0, count), streams, None)
            yield from EigenCache(self._dataset)._mixes(self._anchors, self._partners, self._lams)
        else:
            parts = list(_chunks(count, self.dim))
            buffer = np.empty((parts[0].stop if parts else 0, self.dim, self.dim))
            for part in parts:
                out = buffer[: part.stop - part.start]
                self._draw(part, streams, out)
                yield part, out
        self._finish()

    def _draw(self, rows: slice, streams, out) -> None:
        """Draw the rest of outputs ``rows`` on their ``streams``; a baseline
        writes output ``k`` into ``out[k - rows.start]``, rmixup only draws."""
        strategy, table, config = self._config.strategy, self._table, self._config
        sources = self._dataset.matrices.view()
        sources.flags.writeable = False  # a partner row is never the blend's scratch
        hard, y, summaries = self._hard, self._y, self._summaries
        fresh_lam = strategy in _PAIRWISE and config.alpha != 1.0
        drawn = (a[rows].tolist() for a in (self._anchors, self._partners, self._lams))
        for k, anchor, partner, lam in zip(range(rows.start, rows.stop), *drawn):
            rng = None if streams is None else streams.generator(k)
            row, mat_a = None if out is None else out[k - rows.start], sources[anchor]
            if strategy == "dropnode":
                summaries.append(_drop_node_row(row, mat_a, config.keep_prob, rng))
                continue
            if strategy == "dropedge":
                summaries.append(_drop_edge_row(row, mat_a, config.keep_prob, rng, table))
                continue
            if fresh_lam:
                lam = self._lams[k] = sample_beta(config.alpha, rng)
            if strategy == "dmixup":
                summaries.append(_d_mixup_row(row, mat_a, sources[partner], lam, rng, table))
            elif strategy == "gmixup" and hard:
                table.fill(row, lam, rng, classes=(y[anchor], y[partner]))
            elif strategy == "gmixup":
                table.fill(row, lam, rng, y_mix=metrics._blend(y[anchor], y[partner], lam))
            elif strategy != "rmixup":
                metrics._blend(mat_a, sources[partner], lam, out=row)

    def _finish(self) -> None:
        """Name every output, mix its label and record its provenance."""
        dataset, strategy = self._dataset, self._config.strategy
        self.ids = [f"m{k:06d}" for k in range(self.count)]
        pairwise = strategy in _PAIRWISE
        anchors, partners, lams = self._anchors, self._partners, self._lams
        def source_labels(picks):
            if self._hard:
                return _one_hot(dataset.labels[picks], dataset.n_classes)
            return np.asarray(dataset.labels, np.float64)[picks]
        self.labels = source_labels(anchors)
        if pairwise:
            w = lams.reshape(-1, *([1] * (self.labels.ndim - 1)))
            metrics._blend(self.labels, source_labels(partners), w, out=self.labels)
        self.provenance = MixProvenance(
            strategy,
            source_i=[dataset.ids[a] for a in anchors.tolist()],
            source_j=[dataset.ids[b] for b in partners.tolist()] if pairwise else None,
            lam=lams if pairwise else None,
            mask_summary=self._summaries if strategy in _MASKED else None,
        )


def mix_dataset(
    dataset: LabeledDataset, config: MixConfig, count: int
) -> tuple[LabeledDataset, MixProvenance]:
    """Mix ``count`` samples under one configuration into a new dataset.

    The parts of one :class:`MixStream` are copied into one ``(count, n,
    n)`` stack, so the outputs are the stream's, bit for bit. Output ``k``
    is a pure function of (dataset, config, k): a longer batch extends a
    shorter one. Pair selection is anchor-then-partner, uniform without
    replacement, except the label-distance strategy. rmixup decomposes each
    drawn source once and each mix once more, in stacked chunks. Output ids
    are ``m000000, ...``.
    """
    stream = MixStream(dataset, config, count)
    matrices = np.empty((count, dataset.dim, dataset.dim))
    for rows, part in stream:
        matrices[rows] = part
    mixed_set = LabeledDataset(
        matrices=matrices,
        labels=stream.labels,
        task=stream.task,
        is_correlation=stream.is_correlation,
        ids=stream.ids,
    )
    return mixed_set, stream.provenance


@dataclass(frozen=True)
class ProbeResult:
    """Mean and spread of interpolation error for the two mixing rules."""

    mean_dv: float
    mean_dr: float
    std_dv: float
    std_dr: float

    @property
    def relative_gap(self) -> float:
        return (self.mean_dv - self.mean_dr) / self.mean_dv if self.mean_dv else 0.0


def incorrect_label_probe(
    dataset: LabeledDataset, trials: int, rng: np.random.Generator
) -> ProbeResult:
    """Measure how far each mixing rule lands from a real middle sample.

    Per trial, three samples with strictly increasing labels are drawn
    (resampling ties); the outer two are mixed with the exact ratio that
    reproduces the middle label, and the entrywise L1 distance from each mix
    to the real middle sample is accumulated. Linear mixing systematically
    overshoots on datasets whose matrices vary geodesically with the label.
    All trials are drawn first; their geodesic mixes then go through an
    :class:`EigenCache` in stacked chunks.
    """
    if dataset.task != TASK_REGRESSION:
        raise ValueError("the label probe requires a regression dataset")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    labels = dataset.labels
    if len(np.unique(labels)) < 3:
        raise ValueError("need at least 3 distinct labels for the probe")
    mats = dataset.matrices
    picked = np.empty((trials, 3), dtype=np.intp)
    lams = np.empty(trials)
    d_v = np.empty(trials)
    d_r = np.empty(trials)
    for t in range(trials):
        while True:
            picks = rng.choice(len(dataset), size=3, replace=False)
            y = labels[picks]
            if len(np.unique(y)) == 3:
                break
        i1, i2, i3 = picked[t] = picks[np.argsort(y)]
        w = (labels[i2] - labels[i3]) / (labels[i1] - labels[i3])
        lams[t] = 1.0 - w
        d_v[t] = np.abs(metrics._blend(mats[i3], mats[i1], w) - mats[i2]).sum()
    mixes = EigenCache(dataset)._mixes(picked[:, 0], picked[:, 2], lams)
    for part, x_r in mixes:
        for t, x in enumerate(x_r, start=part.start):
            d_r[t] = np.abs(x - mats[picked[t, 1]]).sum()
    return ProbeResult(
        mean_dv=float(d_v.mean()),
        mean_dr=float(d_r.mean()),
        std_dv=float(d_v.std()),
        std_dr=float(d_r.std()),
    )
