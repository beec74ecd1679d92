"""Augmentation strategy tests: samplers, mixers, generators, probes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdmix import linalg
from spdmix.augment import (
    STRATEGIES,
    EigenCache,
    MixConfig,
    c_mixup_pair,
    d_mixup,
    drop_edge,
    drop_node,
    g_mixup_fit,
    g_mixup_sample,
    incorrect_label_probe,
    mix_dataset,
    r_mixup,
    r_mixup_cached,
    sample_beta,
    v_mixup,
)
from spdmix.augment import _weighted_choice
from spdmix.data_io import LabeledDataset, gen_labeled_dataset, gen_random_spd
from spdmix.linalg import (
    EigenvalueOverflowError,
    SpdMatrix,
    count_eig_calls,
    log_det,
    matrix_log,
)


class _FixedUniform:
    """Stands in for a Generator when a test needs a forced Bernoulli mask."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def regression_dataset(seed=0, count=10, n=4, cond=50.0):
    rng = np.random.default_rng(seed)
    mats = np.stack([gen_random_spd(n, cond, rng).array for _ in range(count)])
    return LabeledDataset(
        matrices=mats, labels=rng.uniform(size=count), task="regression"
    )


def _pairwise_mixers():
    """Every pairwise per-sample mixer as ``call(a, b, lam)`` on two matrices."""
    gen = g_mixup_fit(regression_dataset(seed=1, count=6, n=3))
    rng = np.random.default_rng(0)
    return {
        "r_mixup": lambda a, b, lam: r_mixup(a, b, 0.0, 1.0, lam),
        "r_mixup_cached": lambda a, b, lam: r_mixup_cached(
            matrix_log(a), matrix_log(b), 0.0, 1.0, lam
        ),
        "v_mixup": lambda a, b, lam: v_mixup(a, b, 0.0, 1.0, lam),
        "d_mixup": lambda a, b, lam: d_mixup(a, b, 0.0, 1.0, lam, rng),
        "g_mixup_sample": lambda a, b, lam: g_mixup_sample(gen, 0.0, 1.0, lam, rng),
    }


class TestPairwiseInputs:
    """Every pairwise per-sample mixer takes a ratio in [0, 1], as ``r_mixup``
    does, and the matrix mixers take two square matrices of one shape."""

    @pytest.mark.parametrize("name", list(_pairwise_mixers()))
    @pytest.mark.parametrize("lam", [1.5, -0.1, float("nan")])
    def test_ratio_outside_unit_interval_rejected(self, name, lam):
        a, b = regression_dataset(seed=2, count=2, n=3).matrices
        with pytest.raises(ValueError, match=r"mix ratio must lie in \[0, 1\]"):
            _pairwise_mixers()[name](a, b, lam)

    @pytest.mark.parametrize("name", ["r_mixup", "v_mixup", "d_mixup"])
    def test_matrix_shapes_checked(self, name):
        mix = _pairwise_mixers()[name]
        with pytest.raises(ValueError, match=r"must be square matrices, got shapes \(2, 3\)"):
            mix(np.ones((2, 3)), np.ones((2, 3)), 0.5)
        with pytest.raises(ValueError, match=r"dimension mismatch: .*\(2, 2\) and \(3, 3\)"):
            mix(np.eye(2), np.eye(3), 0.5)


class TestSampleBeta:
    def test_uniform_special_case(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_beta(1.0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 1.0 / 12.0) < 0.005

    def test_closed_form_variance(self):
        # Var Beta(a, a) = 1 / (4 (2a + 1))
        rng = np.random.default_rng(1)
        draws = np.array([sample_beta(0.2, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 1.0 / (4.0 * 1.4)) < 0.01

    def test_range_and_determinism(self):
        a = [sample_beta(0.5, np.random.default_rng(7)) for _ in range(100)]
        b = [sample_beta(0.5, np.random.default_rng(7)) for _ in range(100)]
        assert a == b
        assert all(0.0 <= v <= 1.0 for v in a)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            sample_beta(0.0, np.random.default_rng(0))


class TestRMixup:
    def test_lambda_zero_returns_first(self):
        ds = regression_dataset()
        out = r_mixup(ds.matrices[0], ds.matrices[1], 0.1, 0.9, 0.0)
        assert np.linalg.norm(out.matrix - ds.matrices[0]) <= 1e-8 * np.linalg.norm(
            ds.matrices[0]
        )
        assert out.label == pytest.approx(0.1, abs=1e-15)

    def test_commuting_oracle(self):
        out = r_mixup(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.0, 1.0, 0.5)
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 2.0]), atol=1e-12)
        assert out.label == pytest.approx(0.5)

    def test_determinant_product_formula(self):
        ds = regression_dataset(seed=3)
        lam = 0.3
        out = r_mixup(ds.matrices[0], ds.matrices[1], 0.0, 1.0, lam)
        expected = (1 - lam) * log_det(ds.matrices[0]) + lam * log_det(ds.matrices[1])
        assert log_det(out.matrix) == pytest.approx(expected, abs=1e-8)

    def test_spd_closure(self):
        ds = regression_dataset(seed=4, count=6, cond=1e4)
        rng = np.random.default_rng(5)
        for _ in range(25):
            i, j = rng.integers(6, size=2)
            lam = rng.uniform()
            out = r_mixup(ds.matrices[i], ds.matrices[j], 0.0, 1.0, lam)
            assert out.spd_guaranteed
            assert SpdMatrix.from_array(out.matrix).min_eigenvalue > 0


class TestRMixupCached:
    def test_matches_direct_path(self):
        for n in (8, 20):
            ds = regression_dataset(seed=n, count=8, n=n)
            cache = EigenCache.build(ds)
            rng = np.random.default_rng(6)
            for _ in range(25):
                i, j = rng.integers(8, size=2)
                lam = float(rng.uniform())
                direct = r_mixup(
                    ds.matrices[i], ds.matrices[j], ds.labels[i], ds.labels[j], lam
                )
                cached = r_mixup_cached(
                    cache.entry(ds.ids[i]), cache.entry(ds.ids[j]),
                    ds.labels[i], ds.labels[j], lam,
                )
                assert np.linalg.norm(cached.matrix - direct.matrix) <= 1e-8 * np.linalg.norm(
                    direct.matrix
                )
                assert cached.label == direct.label

    def test_lambda_one_returns_second(self):
        ds = regression_dataset(seed=7)
        cache = EigenCache.build(ds)
        out = r_mixup_cached(
            cache.entry(ds.ids[0]), cache.entry(ds.ids[1]), 0.0, 1.0, 1.0
        )
        assert np.linalg.norm(out.matrix - ds.matrices[1]) <= 1e-8 * np.linalg.norm(
            ds.matrices[1]
        )

    def test_eigendecomposition_counts_three_vs_one(self):
        ds = regression_dataset(seed=8)
        cache = EigenCache.build(ds)
        with count_eig_calls() as direct:
            r_mixup(ds.matrices[0], ds.matrices[1], 0.0, 1.0, 0.4)
        with count_eig_calls() as cached:
            r_mixup_cached(
                cache.entry(ds.ids[0]), cache.entry(ds.ids[1]), 0.0, 1.0, 0.4
            )
        assert direct.count == 3
        assert cached.count == 1

    def test_stale_cache_dimension_mismatch(self):
        a = EigenCache.build(regression_dataset(seed=9, n=3)).entry("s000000")
        b = EigenCache.build(regression_dataset(seed=9, n=4)).entry("s000000")
        with pytest.raises(ValueError, match="stale cache"):
            r_mixup_cached(a, b, 0.0, 1.0, 0.5)

    def test_cache_rejects_non_spd(self):
        ds = LabeledDataset(
            matrices=np.stack([np.diag([1.0, -1.0])]), labels=[0.0], task="regression"
        )
        with pytest.raises(ValueError, match="s000000.*clamp"):
            EigenCache.build(ds)

    def test_cache_entries_reconstruct_log_matrices(self):
        ds = regression_dataset(seed=55, count=5, n=6)
        cache = EigenCache.build(ds)
        for sample_id, mat in zip(ds.ids, ds.matrices):
            rebuilt = cache.entry(sample_id)
            target = matrix_log(mat)
            assert np.linalg.norm(rebuilt - target) <= 1e-8 * max(
                1.0, np.linalg.norm(target)
            )


    def test_cache_rows_are_read_only(self):
        # a caller cannot corrupt the logs that later mixes read
        ds = regression_dataset(seed=57, count=6, n=5)
        cache = EigenCache(ds)
        row = cache.entry(ds.ids[1])
        with pytest.raises(ValueError, match="read-only"):
            row[0, 0] = 0.0
        stack = cache.log_stack([1, 4])
        with pytest.raises(ValueError, match="read-only"):
            stack[4] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(stack, 2.0, out=stack)
        assert np.array_equal(stack[1], row)
        direct = r_mixup(ds.matrices[1], ds.matrices[4], 0.0, 1.0, 0.3).matrix
        mixed = r_mixup_cached(row, cache.entry(ds.ids[4]), 0.0, 1.0, 0.3).matrix
        assert np.array_equal(mixed, direct)
        (_, batch), = cache._mixes(np.array([1]), np.array([4]), np.array([0.3]))
        assert np.array_equal(batch[0], direct)

    def test_views_cannot_be_made_writeable(self):
        # a view handed out cannot be switched back to writeable and
        # written through into the stack later mixes read
        ds = regression_dataset(seed=58, count=3, n=4)
        cache = EigenCache(ds)
        clean = matrix_log(ds.matrices[0])
        for view in (cache.entry(ds.ids[0]), cache.log_stack([0]), cache.log_stack([0])[0]):
            try:
                view.flags.writeable = True
                view[..., 0, 0] = 99.0
            except ValueError:
                pass
            assert np.array_equal(cache.entry(ds.ids[0]), clean)
        cache.entry(ds.ids[2])  # a later fill leaves the stack read-only
        with pytest.raises(ValueError):
            cache.log_stack([1]).flags.writeable = True
        mixed = r_mixup_cached(cache.entry(ds.ids[0]), cache.entry(ds.ids[2]), 0.0, 1.0, 0.4)
        assert np.array_equal(
            mixed.matrix, r_mixup(ds.matrices[0], ds.matrices[2], 0.0, 1.0, 0.4).matrix
        )


class TestVMixup:
    def test_midpoint(self):
        out = v_mixup(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.0, 1.0, 0.5)
        np.testing.assert_allclose(out.matrix, np.diag([2.5, 2.5]))

    def test_lambda_zero(self):
        ds = regression_dataset(seed=10)
        out = v_mixup(ds.matrices[0], ds.matrices[1], 0.3, 0.7, 0.0)
        np.testing.assert_array_equal(out.matrix, ds.matrices[0])

    def test_determinant_inflation_on_rotated_pair(self):
        found = False
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = gen_random_spd(4, 100.0, rng).array
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rotated = q @ s @ q.T
            mixed = v_mixup(s, rotated, 0.0, 1.0, 0.5).matrix
            endpoint = np.linalg.slogdet(s)[1]
            if np.linalg.slogdet(mixed)[1] > endpoint + 1e-9:
                found = True
                break
        assert found


class TestDMixup:
    def test_lambda_extremes_exact(self):
        ds = regression_dataset(seed=11)
        rng = np.random.default_rng(0)
        at0 = d_mixup(ds.matrices[0], ds.matrices[1], 0.0, 1.0, 0.0, rng)
        np.testing.assert_array_equal(at0.matrix, ds.matrices[0])
        at1 = d_mixup(ds.matrices[0], ds.matrices[1], 0.0, 1.0, 1.0, rng)
        np.testing.assert_array_equal(at1.matrix, ds.matrices[1])

    def test_reproducible_mask_and_elementwise_identity(self):
        rng = np.random.default_rng(12)
        a = gen_random_spd(4, 10.0, rng).array
        b = gen_random_spd(4, 10.0, rng).array
        first = d_mixup(a, b, 0.0, 1.0, 0.5, np.random.default_rng(99))
        second = d_mixup(a, b, 0.0, 1.0, 0.5, np.random.default_rng(99))
        np.testing.assert_array_equal(first.matrix, second.matrix)
        # each entry comes from exactly one parent and the matrix is symmetric
        out = first.matrix
        assert np.array_equal(out, out.T)
        for p in range(4):
            for q in range(4):
                assert out[p, q] in (a[p, q], b[p, q])

    def test_label_mixed_with_same_lambda(self):
        out = d_mixup(np.eye(2), 2 * np.eye(2), 0.0, 1.0, 0.25, np.random.default_rng(1))
        assert out.label == pytest.approx(0.25, abs=1e-15)
        assert not out.spd_guaranteed


class TestDropNode:
    def test_all_kept_is_identity_map(self):
        ds = regression_dataset(seed=13)
        out = drop_node(ds.matrices[0], 0.5, 0.6, _FixedUniform(0.0))
        np.testing.assert_array_equal(out.matrix, ds.matrices[0])
        assert out.label == 0.5

    def test_single_node_dropped(self):
        s = np.array([[1.0, 2.0], [2.0, 5.0]])
        rng = _FixedUniform(0.0)
        rng.random = lambda size=None: np.array([0.99, 0.0])
        out = drop_node(s, 1.0, 0.5, rng)
        np.testing.assert_array_equal(out.matrix, [[0.0, 0.0], [0.0, 5.0]])

    def test_rank_bounded_by_kept_nodes(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            s = gen_random_spd(8, 100.0, rng).array
            out = drop_node(s, 0.0, 0.6, np.random.default_rng(rng.integers(1 << 32)))
            kept = int(out.provenance.mask_summary.split("=")[1].split("/")[0])
            assert np.linalg.matrix_rank(out.matrix, tol=1e-10) <= kept
            assert np.array_equal(out.matrix, out.matrix.T)
            assert out.label == 0.0

    def test_keep_prob_validated(self):
        with pytest.raises(ValueError):
            drop_node(np.eye(2), 0.0, 1.0, np.random.default_rng(0))


class TestDropEdge:
    def test_forced_all_keep(self):
        ds = regression_dataset(seed=15)
        out = drop_edge(ds.matrices[0], 0.0, 0.6, _FixedUniform(0.0))
        np.testing.assert_array_equal(out.matrix, ds.matrices[0])

    def test_forced_all_drop_leaves_diagonal(self):
        ds = regression_dataset(seed=16)
        out = drop_edge(ds.matrices[0], 0.0, 0.6, _FixedUniform(0.9999))
        np.testing.assert_array_equal(out.matrix, np.diag(np.diag(ds.matrices[0])))

    def test_drop_fraction_matches_keep_prob(self):
        n = 142  # strict upper triangle has 10011 edges
        s = np.ones((n, n))
        out = drop_edge(s, 0.0, 0.7, np.random.default_rng(17))
        upper = np.triu_indices(n, k=1)
        kept_fraction = out.matrix[upper].mean()
        assert abs(kept_fraction - 0.7) < 0.02

    def test_symmetric_and_label_preserved(self):
        ds = regression_dataset(seed=18)
        out = drop_edge(ds.matrices[0], 0.42, 0.5, np.random.default_rng(3))
        assert np.array_equal(out.matrix, out.matrix.T)
        assert out.label == 0.42


class TestGMixupFit:
    def test_identical_samples_give_zero_sigma(self):
        mat = gen_random_spd(3, 10.0, np.random.default_rng(19)).array
        ds = LabeledDataset(
            matrices=np.stack([mat, mat, mat, mat]),
            labels=[0, 0, 1, 1],
            task="classification",
        )
        gen = g_mixup_fit(ds)
        np.testing.assert_array_equal(gen.class_stds[0], np.zeros((3, 3)))
        np.testing.assert_array_equal(gen.class_stds[1], np.zeros((3, 3)))

    def test_singleton_class_warns(self):
        mats = np.stack([np.eye(2)] * 3)
        ds = LabeledDataset(matrices=mats, labels=[0, 0, 1], task="classification")
        with pytest.warns(UserWarning, match="single sample"):
            g_mixup_fit(ds)

    def test_perfectly_linear_edges_have_unit_correlation(self):
        rng = np.random.default_rng(20)
        base = rng.standard_normal((3, 3))
        base = base + base.T
        y = rng.uniform(size=50)
        mats = np.stack([yk * base + np.eye(3) for yk in y])
        ds = LabeledDataset(matrices=mats, labels=y, task="regression")
        gen = g_mixup_fit(ds)
        off = np.abs(base) > 1e-12
        np.testing.assert_allclose(np.abs(gen.edge_label_corr[off]), 1.0, atol=1e-10)
        cond_var = (1.0 - gen.edge_label_corr**2) * gen.edge_std**2
        np.testing.assert_allclose(cond_var[off], 0.0, atol=1e-12)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(21)
        n, count = 3, 400
        mu = rng.uniform(-1, 1, size=(n, n))
        mu = (mu + mu.T) / 2
        sd = rng.uniform(0.5, 1.5, size=(n, n))
        sd = (sd + sd.T) / 2
        mats = np.empty((count, n, n))
        for k in range(count):
            draw = mu + sd * rng.standard_normal((n, n))
            mats[k] = np.triu(draw) + np.triu(draw, k=1).T
        ds = LabeledDataset(
            matrices=mats, labels=rng.uniform(size=count), task="regression"
        )
        gen = g_mixup_fit(ds)
        se = sd / np.sqrt(count)
        assert np.all(np.abs(gen.edge_mean - mu) <= 4 * se)
        assert np.all(np.abs(gen.edge_std - sd) <= 4 * se)

    def test_zero_label_variance_rejected(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 3),
            labels=[1.0, 1.0, 1.0],
            task="regression",
        )
        with pytest.raises(ValueError, match="variance"):
            g_mixup_fit(ds)


class TestGMixupSample:
    def _zero_variance_generator(self):
        a = np.full((3, 3), 2.0)
        b = np.full((3, 3), 6.0)
        mats = np.stack([a, a, b, b])
        ds = LabeledDataset(matrices=mats, labels=[0, 0, 1, 1], task="classification")
        return g_mixup_fit(ds), a, b

    def test_zero_variance_is_deterministic_mixed_means(self):
        gen, a, b = self._zero_variance_generator()
        out = g_mixup_sample(gen, 0, 1, 0.25, np.random.default_rng(22))
        np.testing.assert_allclose(out.matrix, 0.75 * a + 0.25 * b, atol=1e-12)
        np.testing.assert_allclose(out.label, [0.75, 0.25], atol=1e-15)

    def test_lambda_zero_uses_first_class(self):
        gen, a, _ = self._zero_variance_generator()
        out = g_mixup_sample(gen, 0, 1, 0.0, np.random.default_rng(23))
        np.testing.assert_allclose(out.matrix, a, atol=1e-12)

    def test_monte_carlo_edge_mean(self):
        rng = np.random.default_rng(24)
        mats0 = 1.0 + 0.5 * rng.standard_normal((200, 2, 2))
        mats0 = (mats0 + mats0.transpose(0, 2, 1)) / 2
        mats1 = 3.0 + 0.5 * rng.standard_normal((200, 2, 2))
        mats1 = (mats1 + mats1.transpose(0, 2, 1)) / 2
        ds = LabeledDataset(
            matrices=np.concatenate([mats0, mats1]),
            labels=[0] * 200 + [1] * 200,
            task="classification",
        )
        gen = g_mixup_fit(ds)
        lam = 0.3
        draws = np.array(
            [
                g_mixup_sample(gen, 0, 1, lam, np.random.default_rng([25, k])).matrix[0, 1]
                for k in range(10_000)
            ]
        )
        target = (1 - lam) * gen.class_means[0][0, 1] + lam * gen.class_means[1][0, 1]
        blend_sd = np.sqrt(
            (1 - lam) ** 2 * gen.class_stds[0][0, 1] ** 2
            + lam**2 * gen.class_stds[1][0, 1] ** 2
        )
        assert abs(draws.mean() - target) <= 3 * blend_sd / 100.0

    def test_correlation_mode_forces_unit_diagonal(self):
        rng = np.random.default_rng(26)
        mats = np.stack([np.eye(2)] * 4) + 0.1 * np.ones((4, 2, 2))
        ds = LabeledDataset(
            matrices=mats, labels=[0, 0, 1, 1], task="classification",
            is_correlation=True,
        )
        gen = g_mixup_fit(ds)
        out = g_mixup_sample(gen, 0, 1, 0.5, rng)
        np.testing.assert_array_equal(np.diag(out.matrix), np.ones(2))

    def test_unfitted_class_rejected(self):
        gen, _, _ = self._zero_variance_generator()
        with pytest.raises(ValueError, match="class"):
            g_mixup_sample(gen, 0, 5, 0.5, np.random.default_rng(27))

    def test_regression_conditions_on_mixed_label(self):
        rng = np.random.default_rng(28)
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = rng.uniform(size=100)
        mats = np.stack([yk * base + np.eye(2) for yk in y])
        ds = LabeledDataset(matrices=mats, labels=y, task="regression")
        gen = g_mixup_fit(ds)
        out = g_mixup_sample(gen, 0.2, 0.8, 0.5, rng)
        # perfectly linear edge and zero conditional variance: the sampled
        # edge must equal the value at the mixed label
        assert out.matrix[0, 1] == pytest.approx(0.5, abs=1e-10)
        assert out.label == pytest.approx(0.5)


class TestCMixupPair:
    def test_equal_labels_symmetric_choice(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 3),
            labels=[0.5, 0.5, 0.5],
            task="regression",
        )
        rng = np.random.default_rng(29)
        picks = np.array([c_mixup_pair(ds, 0, 1.0, rng) for _ in range(10_000)])
        frac = np.mean(picks == 1)
        assert abs(frac - 0.5) < 0.02

    def test_small_bandwidth_prefers_nearest_label(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 4),
            labels=[0.0, 0.05, 0.5, 1.0],
            task="regression",
        )
        rng = np.random.default_rng(30)
        picks = np.array([c_mixup_pair(ds, 0, 1e-3, rng) for _ in range(10_000)])
        assert np.mean(picks == 1) >= 0.99

    def test_classification_stays_in_class(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 6),
            labels=[0, 1, 2, 0, 1, 2],
            task="classification",
        )
        rng = np.random.default_rng(31)
        for anchor in range(6):
            for _ in range(20):
                partner = c_mixup_pair(ds, anchor, 1.0, rng)
                assert ds.labels[partner] == ds.labels[anchor]
                assert partner != anchor

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_weighted_draw_is_rng_choice(self, weights, seed):
        w = np.asarray(weights)
        w /= w.sum()
        assume(np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-8)
        candidates = np.arange(100, 100 + len(w))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _weighted_choice(candidates, w, ours) == ref.choice(candidates, p=w)
        assert ours.random() == ref.random()

    def test_singleton_class_falls_back_with_warning(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 3),
            labels=[0, 1, 1],
            task="classification",
        )
        with pytest.warns(UserWarning, match="only sample"):
            partner = c_mixup_pair(ds, 0, 1.0, np.random.default_rng(32))
        assert partner == 0


def _overflows(ds, id_i, id_j, lam) -> bool:
    a, b = (ds.matrices[ds.ids.index(i)] for i in (id_i, id_j))
    try:
        r_mixup(a, b, 0.0, 1.0, float(lam))
    except EigenvalueOverflowError:
        return True
    return False


def assert_rows_match_r_mixup(ds, out, prov, rows=None):
    """Row ``k`` of an rmixup output is ``r_mixup`` on its provenance pair
    and ratio, bit for bit, matrix and label."""
    assert prov.strategy == "rmixup"
    for k in range(len(out)) if rows is None else rows:
        i, j = ds.ids.index(prov.source_i[k]), ds.ids.index(prov.source_j[k])
        direct = r_mixup(
            ds.matrices[i], ds.matrices[j], ds.labels[i], ds.labels[j], prov.lam[k]
        )
        assert np.array_equal(out.matrices[k], direct.matrix)
        assert out.labels[k] == direct.label


class TestMixDataset:
    def test_count_zero_is_empty(self):
        ds = regression_dataset()
        out, prov = mix_dataset(ds, MixConfig(strategy="rmixup"), 0)
        assert out.matrices.shape == (0, 4, 4)
        assert len(out) == len(prov) == 0
        assert list(prov.csv_rows(out.ids)) == []

    def test_same_seed_bitwise_identical(self):
        ds = regression_dataset(seed=33)
        config = MixConfig(strategy="rmixup", alpha=0.4, seed=77)
        a, prov_a = mix_dataset(ds, config, 8)
        b, prov_b = mix_dataset(ds, config, 8)
        assert np.array_equal(a.matrices, b.matrices)
        assert np.array_equal(a.labels, b.labels)
        assert list(prov_a.csv_rows(a.ids)) == list(prov_b.csv_rows(b.ids))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_longer_batch_extends_shorter(self, strategy):
        # per-index (seed, k) streams: output k does not depend on count
        ds = regression_dataset(seed=34)
        config = MixConfig(strategy=strategy, seed=5)
        short, prov_short = mix_dataset(ds, config, 8)
        long, prov_long = mix_dataset(ds, config, 12)
        assert np.array_equal(short.matrices, long.matrices[:8])
        assert np.array_equal(short.labels, long.labels[:8])
        # every provenance column, ratios by repr
        assert list(prov_short.csv_rows(short.ids)) == list(prov_long.csv_rows(long.ids))[:8]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_provenance_columns_follow_the_strategy(self, strategy):
        ds = regression_dataset(seed=38)
        out, prov = mix_dataset(ds, MixConfig(strategy=strategy, seed=6), 5)
        assert prov.strategy == strategy
        assert [row[1] for row in prov.csv_rows(out.ids)] == [strategy] * 5
        pairwise = strategy not in ("dropnode", "dropedge")
        assert (prov.source_j is not None, prov.lam is not None) == (pairwise, pairwise)
        masked = strategy in ("dmixup", "dropnode", "dropedge")
        assert (prov.mask_summary is not None) == masked
        assert set(prov.source_i) | set(prov.source_j or ()) <= set(ds.ids)

    @pytest.mark.parametrize("strategy", ["rmixup", "vmixup", "cmixup"])
    def test_spd_strategies_give_spd_outputs(self, strategy):
        ds = regression_dataset(seed=35, count=12, n=6, cond=1e3)
        out, _ = mix_dataset(ds, MixConfig(strategy=strategy, seed=1), 100)
        for matrix in out.matrices:
            assert SpdMatrix.from_array(matrix).min_eigenvalue > 0

    def test_rmixup_rows_match_direct(self):
        # every batch mix equals the three-decomposition r_mixup on its
        # provenance pair and ratio, bit for bit
        ds = regression_dataset(seed=36, count=8, n=5)
        out, prov = mix_dataset(ds, MixConfig(strategy="rmixup", seed=9), 10)
        assert_rows_match_r_mixup(ds, out, prov)

    def test_rmixup_decomposes_only_used_samples(self):
        # at most one decomposition per distinct source plus one per mix
        ds = regression_dataset(seed=42, count=64, n=4)
        with count_eig_calls() as counter:
            mix_dataset(ds, MixConfig(strategy="rmixup", seed=3), 4)
        assert counter.count <= 12

    def test_duplicate_ids_mix_their_own_matrices(self):
        ds = regression_dataset(seed=43, count=6, n=4)
        dup = LabeledDataset(
            matrices=ds.matrices, labels=ds.labels, task="regression", ids=["x"] * 6
        )
        config = MixConfig(strategy="rmixup", seed=4)
        out, _ = mix_dataset(ds, config, 10)
        out_dup, _ = mix_dataset(dup, config, 10)
        assert np.array_equal(out.matrices, out_dup.matrices)
        probe = incorrect_label_probe(ds, 20, np.random.default_rng(5))
        assert incorrect_label_probe(dup, 20, np.random.default_rng(5)) == probe

    def test_classification_labels_stay_on_simplex(self):
        rng = np.random.default_rng(37)
        mats = np.stack([gen_random_spd(3, 10.0, rng).array for _ in range(6)])
        ds = LabeledDataset(matrices=mats, labels=[0, 1, 2, 0, 1, 2], task="classification")
        for strategy in ("rmixup", "vmixup", "dmixup", "dropnode", "dropedge", "cmixup"):
            out, _ = mix_dataset(ds, MixConfig(strategy=strategy, seed=2), 6)
            assert out.labels.shape == (6, 3)
            assert np.all(out.labels >= 0)
            assert np.all(np.abs(out.labels.sum(axis=1) - 1.0) <= 1e-12)

    def test_gmixup_regression_zero_variance_rejected(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 4),
            labels=[1.0] * 4,
            task="regression",
        )
        with pytest.raises(ValueError, match="variance"):
            mix_dataset(ds, MixConfig(strategy="gmixup", seed=0), 2)

    def test_pairwise_needs_two_samples(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)]), labels=[0.5], task="regression"
        )
        with pytest.raises(ValueError, match="too small"):
            mix_dataset(ds, MixConfig(strategy="rmixup"), 1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            MixConfig(strategy="nope")
        with pytest.raises(ValueError, match="alpha"):
            MixConfig(strategy="rmixup", alpha=0.0)
        with pytest.raises(ValueError, match="keep_prob"):
            MixConfig(strategy="dropnode", keep_prob=1.0)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, "3"])
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            MixConfig(strategy="rmixup", seed=seed)

    def test_integer_valued_seeds_accepted(self):
        for seed in (0, 2.0, np.uint64(2**64 - 1)):
            assert MixConfig(strategy="rmixup", seed=seed).seed == seed


class TestBatchedRMixup:
    """rmixup batches draw every pair first, then mix in stacked chunks of a
    fixed byte budget; chunking must not change a single bit."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 4])
    def test_chunks_of_few_matrices_match_direct(self, monkeypatch, per_chunk):
        n = 5
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * n * n)
        ds = regression_dataset(seed=60 + per_chunk, count=9, n=n)
        out, prov = mix_dataset(ds, MixConfig(strategy="rmixup", seed=per_chunk), 11)
        assert_rows_match_r_mixup(ds, out, prov)

    def test_many_chunks_at_small_n(self):
        # at n=8 the 4 MiB budget holds 8192 matrices: 8200 mixes span two
        # chunks; check both sides of the seam
        ds = regression_dataset(seed=61, count=32, n=8)
        out, prov = mix_dataset(ds, MixConfig(strategy="rmixup", seed=2), 8200)
        per_chunk = linalg._CHUNK_BYTES // (8 * 8 * 8)
        assert per_chunk < 8200
        assert_rows_match_r_mixup(ds, out, prov, [0, 1, per_chunk - 1, per_chunk, 8199])

    def test_budget_chunks_at_large_n(self):
        # at n=360 the budget holds 4 matrices
        ds = regression_dataset(seed=62, count=5, n=360)
        out, prov = mix_dataset(ds, MixConfig(strategy="rmixup", seed=3), 6)
        assert_rows_match_r_mixup(ds, out, prov)

    def test_counts_distinct_sources_plus_mixes(self):
        ds = regression_dataset(seed=63, count=40, n=3)
        for count in (1, 7, 60):
            with count_eig_calls() as counter:
                _, prov = mix_dataset(ds, MixConfig(strategy="rmixup", seed=count), count)
            assert counter.count == len(set(prov.source_i) | set(prov.source_j)) + count

    def test_drawn_non_spd_sample_named(self):
        ds = regression_dataset(seed=64, count=12, n=3)
        config = MixConfig(strategy="rmixup", seed=8)
        clean, prov = mix_dataset(ds, config, 3)
        drawn = set(prov.source_i) | set(prov.source_j)
        bad_drawn, bad_idle = sorted(drawn)[-1], sorted(set(ds.ids) - drawn)[0]

        def broken(sample_id):
            mats = ds.matrices.copy()
            mats[ds.ids.index(sample_id)] = np.diag([1.0, -1.0, 2.0])
            return LabeledDataset(matrices=mats, labels=ds.labels, task="regression")

        with pytest.raises(ValueError, match=f"sample {bad_drawn} is not SPD.*clamp"):
            mix_dataset(broken(bad_drawn), config, 3)
        out, _ = mix_dataset(broken(bad_idle), config, 3)
        assert np.array_equal(out.matrices, clean.matrices)

    def test_overflowing_mix_named_by_output_and_sources(self, monkeypatch):
        # two samples with log-eigenvalues above 700: a mix of the pair, or
        # one leaning on either of them, overflows exp
        ds = regression_dataset(seed=67, count=6, n=3)
        ds.matrices[1] = np.diag([np.exp(705.0), 1.0, 2.0])
        ds.matrices[4] = np.diag([np.exp(704.5), 3.0, 1.0])
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 3 * 3)
        # vmixup draws the pairs and ratios rmixup draws
        _, draws = mix_dataset(ds, MixConfig(strategy="vmixup", seed=5), 40)
        k = next(
            k for k in range(40)
            if _overflows(ds, draws.source_i[k], draws.source_j[k], draws.lam[k])
        )
        assert k >= 2  # past the first chunk
        with pytest.raises(EigenvalueOverflowError) as exc:
            mix_dataset(ds, MixConfig(strategy="rmixup", seed=5), 40)
        assert exc.value.index == k
        assert str(exc.value).startswith(
            f"mix {k} of samples {draws.source_i[k]} and {draws.source_j[k]}: "
        )

    def test_probe_independent_of_chunking(self, monkeypatch):
        rng = np.random.default_rng(65)
        ds = gen_labeled_dataset(4, 20, "regression", "log-linear", rng, noise=0.1)
        whole = incorrect_label_probe(ds, 40, np.random.default_rng(66))
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 3 * 8 * 4 * 4)
        assert incorrect_label_probe(ds, 40, np.random.default_rng(66)) == whole

    def test_probe_mixes_match_cached_path(self):
        # the probe's geodesic error equals the one-trial-at-a-time
        # r_mixup_cached evaluation on the same draws
        rng = np.random.default_rng(67)
        ds = gen_labeled_dataset(4, 20, "regression", "log-linear", rng, noise=0.1)
        result = incorrect_label_probe(ds, 30, np.random.default_rng(68))
        draws = np.random.default_rng(68)
        cache = EigenCache.build(ds)
        d_r = []
        for _ in range(30):
            while True:
                picks = draws.choice(len(ds), size=3, replace=False)
                if len(np.unique(ds.labels[picks])) == 3:
                    break
            i1, i2, i3 = picks[np.argsort(ds.labels[picks])]
            w = (ds.labels[i2] - ds.labels[i3]) / (ds.labels[i1] - ds.labels[i3])
            mix = r_mixup_cached(
                cache.entry(ds.ids[i1]), cache.entry(ds.ids[i3]), 0.0, 1.0, 1.0 - w
            )
            d_r.append(np.abs(mix.matrix - ds.matrices[i2]).sum())
        assert result.mean_dr == float(np.mean(d_r))


class TestIncorrectLabelProbe:
    def test_log_linear_family_geodesic_wins_exactly(self):
        rng = np.random.default_rng(38)
        ds = gen_labeled_dataset(4, 30, "regression", "log-linear", rng)
        result = incorrect_label_probe(ds, 300, np.random.default_rng(39))
        assert result.mean_dr <= 0.01 * result.mean_dv
        assert result.relative_gap > 0.99

    def test_noisy_family_still_directionally_better(self):
        rng = np.random.default_rng(40)
        ds = gen_labeled_dataset(4, 40, "regression", "log-linear", rng, noise=0.1)
        result = incorrect_label_probe(ds, 300, np.random.default_rng(41))
        assert result.mean_dr < result.mean_dv

    def test_rejects_classification(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 4), labels=[0, 1, 0, 1],
            task="classification",
        )
        with pytest.raises(ValueError, match="regression"):
            incorrect_label_probe(ds, 10, np.random.default_rng(0))

    def test_requires_three_distinct_labels(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 4),
            labels=[0.1, 0.1, 0.9, 0.9],
            task="regression",
        )
        with pytest.raises(ValueError, match="3 distinct"):
            incorrect_label_probe(ds, 10, np.random.default_rng(0))
