"""The per-sample baselines against reference copies of their formulas.

The public per-sample functions and ``mix_dataset`` share one row kernel per
strategy, so a test that compares the two cannot see a change in the
kernels' arithmetic. The functions below restate each strategy's formula as
plain per-sample numpy, independent of the kernels, and the public functions
must match them bit for bit (``-0.0`` included) and consume the same random
draws.
"""

import warnings

import numpy as np
import pytest

from spdmix import augment
from spdmix.data_io import LabeledDataset

SEEDS = range(24)


def mix_labels(y_i, y_j, lam):
    y_i = np.asarray(y_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    mixed = (1.0 - lam) * y_i + lam * y_j
    return float(mixed) if mixed.ndim == 0 else mixed


def ref_v_mixup(a, b, y_i, y_j, lam, sources):
    return (1.0 - lam) * a + lam * b, mix_labels(y_i, y_j, lam), (
        "vmixup", sources[0], sources[1], lam, None)


def ref_d_mixup(a, b, y_i, y_j, lam, rng, sources):
    n = a.shape[0]
    upper = np.triu_indices(n)
    take_j = rng.random(len(upper[0])) < lam
    mask = np.zeros((n, n), dtype=bool)
    mask[upper] = take_j
    mask |= mask.T
    summary = f"swapped={int(take_j.sum())}/{len(take_j)}"
    return np.where(mask, b, a), mix_labels(y_i, y_j, lam), (
        "dmixup", sources[0], sources[1], lam, summary)


def ref_drop_node(a, y, keep_prob, rng, source):
    keep = rng.random(a.shape[0]) < keep_prob
    scale = keep.astype(np.float64)
    summary = f"kept={int(keep.sum())}/{a.shape[0]}"
    return a * np.outer(scale, scale), y, ("dropnode", source, None, None, summary)


def ref_drop_edge(a, y, keep_prob, rng, source):
    n = a.shape[0]
    upper = np.triu_indices(n, k=1)
    keep = rng.random(len(upper[0])) < keep_prob
    mask = np.zeros((n, n), dtype=bool)
    mask[upper] = keep
    mask |= mask.T
    np.fill_diagonal(mask, True)
    summary = f"kept={int(keep.sum())}/{len(keep)}"
    return a * mask, y, ("dropedge", source, None, None, summary)


def ref_g_mixup_sample(gen, y_i, y_j, lam, rng, n_classes, sources):
    n = gen.dim
    if gen.task == "classification":
        c_i, c_j = int(y_i), int(y_j)
        mean = (1.0 - lam) * gen.class_means[c_i] + lam * gen.class_means[c_j]
        var = (1.0 - lam) ** 2 * gen.class_stds[c_i] ** 2 + lam**2 * gen.class_stds[c_j] ** 2
        classes = n_classes if n_classes is not None else max(gen.class_means) + 1
        label = mix_labels(np.eye(classes)[c_i], np.eye(classes)[c_j], lam)
    else:
        y_mix = mix_labels(float(y_i), float(y_j), lam)
        shift = (gen.edge_std / gen.label_std) * gen.edge_label_corr * (y_mix - gen.label_mean)
        mean = gen.edge_mean + shift
        var = (1.0 - gen.edge_label_corr**2) * gen.edge_std**2
        label = y_mix
    upper = np.triu_indices(n)
    spread = np.sqrt(np.maximum(var[upper], 0.0))
    draws = mean[upper] + spread * rng.standard_normal(len(upper[0]))
    mat = np.zeros((n, n))
    mat[upper] = draws
    mat = mat + np.triu(mat, k=1).T
    if gen.is_correlation:
        np.fill_diagonal(mat, 1.0)
    return mat, label, ("gmixup", sources[0], sources[1], lam, None)


def ref_c_mixup_pair(dataset, anchor, bandwidth, rng):
    candidates = np.array([k for k in range(len(dataset)) if k != anchor])
    if dataset.task == "classification":
        same = candidates[dataset.labels[candidates] == dataset.labels[anchor]]
        if len(same) == 0:
            warnings.warn(f"anchor {anchor} is the only sample of its class", UserWarning)
            return anchor
        return int(rng.choice(same))
    y = dataset.labels.astype(np.float64)
    logits = -((y[anchor] - y[candidates]) ** 2) / (2.0 * bandwidth**2)
    logits -= logits.max()
    weights = np.exp(logits)
    weights /= weights.sum()
    return int(rng.choice(candidates, p=weights))


def symmetric_stack(rng, count, n):
    """Symmetric matrices of both signs, each with a signed-zero edge."""
    g = rng.standard_normal((count, n, n))
    mats = g + np.swapaxes(g, 1, 2)
    if n > 1:
        mats[:, 0, 1] = mats[:, 1, 0] = -0.0
    return mats


def draw_case(seed):
    rng = np.random.default_rng([404, seed])
    n = int(rng.integers(1, 10))
    lam = float(rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.1, 0.8]))
    a, b = symmetric_stack(rng, 2, n)
    return rng, n, lam, a, b


def assert_same(sample, reference, rng=None, ref_rng=None):
    matrix, label, provenance = reference
    assert sample.matrix.shape == matrix.shape
    assert sample.matrix.tobytes() == matrix.tobytes()
    np.testing.assert_array_equal(sample.label, label)
    assert type(sample.label) is type(label)
    p = sample.provenance
    assert (p.strategy, p.source_i, p.source_j, p.lam, p.mask_summary) == provenance
    if rng is not None:  # the same draws were consumed
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_v_mixup(seed):
    rng, n, lam, a, b = draw_case(seed)
    y_i, y_j = rng.random(3), rng.random(3)
    sample = augment.v_mixup(a, b, y_i, y_j, lam, ("p", "q"))
    assert_same(sample, ref_v_mixup(a, b, y_i, y_j, lam, ("p", "q")))


@pytest.mark.parametrize("seed", SEEDS)
def test_d_mixup(seed):
    rng, n, lam, a, b = draw_case(seed)
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    sample = augment.d_mixup(a, b, 0.25, 1.5, lam, mine, ("p", "q"))
    assert_same(sample, ref_d_mixup(a, b, 0.25, 1.5, lam, ref, ("p", "q")), mine, ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["dropnode", "dropedge"])
def test_drops(seed, strategy):
    rng, n, _, a, _ = draw_case(seed)
    keep_prob = float(rng.uniform(0.05, 0.95))
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    public, formula = {
        "dropnode": (augment.drop_node, ref_drop_node),
        "dropedge": (augment.drop_edge, ref_drop_edge),
    }[strategy]
    sample = public(a, 0.5, keep_prob, mine, "p")
    assert_same(sample, formula(a, 0.5, keep_prob, ref, "p"), mine, ref)


def gmixup_dataset(rng, task, is_correlation):
    n = int(rng.integers(1, 9))
    count = int(rng.integers(4, 12))
    mats = symmetric_stack(rng, count, n)
    if n > 2:
        # one -5e-324 on an otherwise zero edge: the edge's fitted mean
        # underflows to -0.0 and its spread is 0, so a draw there can be -0.0
        mats[:, 1, 2] = mats[:, 2, 1] = 0.0
        mats[0, 1, 2] = mats[0, 2, 1] = -5e-324
    if task == "classification":
        labels = rng.integers(0, 3, size=count)
        labels[:3] = [0, 1, 2]
        labels[3:] = np.where(labels[3:] == 2, 0, labels[3:])  # class 2: one sample
    else:
        labels = rng.normal(size=count)
    return LabeledDataset(mats, labels, task, is_correlation=is_correlation)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("is_correlation", [False, True])
def test_g_mixup_sample(seed, task, is_correlation):
    rng, _, lam, _, _ = draw_case(seed)
    ds = gmixup_dataset(rng, task, is_correlation)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the singleton class
        gen = augment.g_mixup_fit(ds)
    i, j = rng.choice(len(ds), size=2, replace=False)
    n_classes = 4 if task == "classification" and seed % 2 else None
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    args = (gen, ds.labels[i], ds.labels[j], lam)
    sample = augment.g_mixup_sample(*args, mine, n_classes, ("p", "q"))
    assert_same(sample, ref_g_mixup_sample(*args, ref, n_classes, ("p", "q")), mine, ref)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_g_mixup_sample_signed_zero_draws(task):
    # zero means and spreads of negative sign: every draw below a zero
    # normal deviate is -0.0 before the mirrored matrix is built
    n = 6
    zeros = np.full((n, n), -0.0)
    if task == "classification":
        gen = augment.EdgeGenerator(task, False, n, class_means={0: zeros, 1: zeros},
                                    class_stds={0: zeros, 1: zeros})
    else:
        gen = augment.EdgeGenerator(task, False, n, edge_mean=zeros, edge_std=np.zeros((n, n)),
                                    label_mean=1.0, label_std=1.0, edge_label_corr=zeros)
    mine, ref = np.random.default_rng(3), np.random.default_rng(3)
    sample = augment.g_mixup_sample(gen, 0, 0, 0.5, mine, None, ("p", "q"))
    expected = ref_g_mixup_sample(gen, 0, 0, 0.5, ref, None, ("p", "q"))
    assert_same(sample, expected, mine, ref)
    assert not np.signbit(sample.matrix).any()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_c_mixup_pair(seed, task):
    rng = np.random.default_rng([405, seed])
    count = int(rng.integers(2, 30))
    if task == "classification":
        labels = rng.integers(0, 3, size=count)
    else:
        labels = rng.normal(size=count).round(int(rng.integers(0, 3)))
    ds = LabeledDataset(np.stack([np.eye(2)] * count), labels, task)
    bandwidth = float(rng.uniform(0.05, 2.0))
    for anchor in range(count):
        mine, ref = np.random.default_rng([seed, anchor]), np.random.default_rng([seed, anchor])
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            partner = augment.c_mixup_pair(ds, anchor, bandwidth, mine)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            expected = ref_c_mixup_pair(ds, anchor, bandwidth, ref)
        assert partner == expected
        assert type(partner) is int
        assert len(got) == len(want)
        assert mine.random() == ref.random()


def test_c_mixup_pair_singleton_warns_and_draws_nothing():
    ds = LabeledDataset(np.stack([np.eye(2)] * 4), [0, 1, 0, 1], "classification")
    ds.labels[3] = 2
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    with pytest.warns(UserWarning, match="anchor 3 is the only sample of its class"):
        assert augment.c_mixup_pair(ds, 3, 1.0, rng) == 3
    assert rng.random() == ref.random()
