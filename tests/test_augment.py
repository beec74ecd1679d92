"""Augmentation strategy tests: samplers, mixers, generators, probes."""

import numpy as np
import pytest

from spdmix import augment
from spdmix.augment import (
    STRATEGIES,
    EigenCache,
    MixConfig,
    augment_batch,
    c_mixup_pair,
    d_mixup,
    drop_edge,
    drop_node,
    g_mixup_fit,
    g_mixup_sample,
    incorrect_label_probe,
    r_mixup,
    r_mixup_cached,
    sample_beta,
    v_mixup,
)
from spdmix.data_io import LabeledDataset, gen_labeled_dataset, gen_random_spd
from spdmix.linalg import SpdMatrix, count_eig_calls, log_det


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
        from spdmix.linalg import matrix_log

        ds = regression_dataset(seed=55, count=5, n=6)
        cache = EigenCache.build(ds)
        for sample_id, mat in zip(ds.ids, ds.matrices):
            rebuilt = cache.entry(sample_id).log_matrix()
            target = matrix_log(mat)
            assert np.linalg.norm(rebuilt - target) <= 1e-8 * max(
                1.0, np.linalg.norm(target)
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

    def test_singleton_class_falls_back_with_warning(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 3),
            labels=[0, 1, 1],
            task="classification",
        )
        with pytest.warns(UserWarning, match="only sample"):
            partner = c_mixup_pair(ds, 0, 1.0, np.random.default_rng(32))
        assert partner == 0


class TestAugmentBatch:
    def test_count_zero_is_empty(self):
        ds = regression_dataset()
        out = augment_batch(ds, MixConfig(strategy="rmixup"), 0)
        assert out == []

    def test_same_seed_bitwise_identical(self):
        ds = regression_dataset(seed=33)
        config = MixConfig(strategy="rmixup", alpha=0.4, seed=77)
        a = augment_batch(ds, config, 8)
        b = augment_batch(ds, config, 8)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.matrix, s2.matrix)
            assert s1.label == s2.label
            assert s1.provenance == s2.provenance

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_longer_batch_extends_shorter(self, strategy):
        # per-index (seed, k) streams: output k does not depend on count
        ds = regression_dataset(seed=34)
        config = MixConfig(strategy=strategy, seed=5)
        short = augment_batch(ds, config, 8)
        long = augment_batch(ds, config, 12)
        for s1, s2 in zip(short, long[:8], strict=True):
            assert np.array_equal(s1.matrix, s2.matrix)
            assert np.array_equal(s1.label, s2.label)
            assert s1.provenance == s2.provenance

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_provenance_names_the_strategy(self, strategy):
        ds = regression_dataset(seed=38)
        out = augment_batch(ds, MixConfig(strategy=strategy, seed=6), 5)
        assert [s.provenance.strategy for s in out] == [strategy] * 5

    def test_rmixup_outputs_all_spd(self):
        ds = regression_dataset(seed=35, count=12, n=6, cond=1e3)
        out = augment_batch(ds, MixConfig(strategy="rmixup", seed=1), 100)
        for sample in out:
            assert SpdMatrix.from_array(sample.matrix).min_eigenvalue > 0

    def test_cache_flag_matches_direct(self):
        # every batch mix equals the three-decomposition r_mixup on its
        # provenance pair and ratio, bit for bit
        ds = regression_dataset(seed=36, count=8, n=5)
        out = augment_batch(ds, MixConfig(strategy="rmixup", seed=9), 10)
        for sample in out:
            p = sample.provenance
            i, j = ds.ids.index(p.source_i), ds.ids.index(p.source_j)
            direct = r_mixup(
                ds.matrices[i], ds.matrices[j], ds.labels[i], ds.labels[j], p.lam,
                (p.source_i, p.source_j),
            )
            assert np.array_equal(sample.matrix, direct.matrix)
            assert sample.label == direct.label
            assert sample.provenance == direct.provenance

    def test_rmixup_decomposes_only_used_samples(self):
        # at most one decomposition per distinct source plus one per mix
        ds = regression_dataset(seed=42, count=64, n=4)
        with count_eig_calls() as counter:
            augment_batch(ds, MixConfig(strategy="rmixup", seed=3), 4)
        assert counter.count <= 12

    def test_duplicate_ids_mix_their_own_matrices(self):
        ds = regression_dataset(seed=43, count=6, n=4)
        dup = LabeledDataset(
            matrices=ds.matrices, labels=ds.labels, task="regression", ids=["x"] * 6
        )
        config = MixConfig(strategy="rmixup", seed=4)
        for s1, s2 in zip(augment_batch(ds, config, 10), augment_batch(dup, config, 10)):
            assert np.array_equal(s1.matrix, s2.matrix)
        probe = incorrect_label_probe(ds, 20, np.random.default_rng(5))
        assert incorrect_label_probe(dup, 20, np.random.default_rng(5)) == probe

    def test_classification_labels_stay_on_simplex(self):
        rng = np.random.default_rng(37)
        mats = np.stack([gen_random_spd(3, 10.0, rng).array for _ in range(6)])
        ds = LabeledDataset(matrices=mats, labels=[0, 1, 2, 0, 1, 2], task="classification")
        for strategy in ("rmixup", "vmixup", "dmixup", "dropnode", "dropedge", "cmixup"):
            out = augment_batch(ds, MixConfig(strategy=strategy, seed=2), 6)
            for sample in out:
                label = np.asarray(sample.label)
                assert label.shape == (3,)
                assert np.all(label >= 0)
                assert abs(label.sum() - 1.0) <= 1e-12

    def test_gmixup_regression_zero_variance_rejected(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 4),
            labels=[1.0] * 4,
            task="regression",
        )
        with pytest.raises(ValueError, match="variance"):
            augment_batch(ds, MixConfig(strategy="gmixup", seed=0), 2)

    def test_pairwise_needs_two_samples(self):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)]), labels=[0.5], task="regression"
        )
        with pytest.raises(ValueError, match="too small"):
            augment_batch(ds, MixConfig(strategy="rmixup"), 1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            MixConfig(strategy="nope")
        with pytest.raises(ValueError, match="alpha"):
            MixConfig(strategy="rmixup", alpha=0.0)
        with pytest.raises(ValueError, match="keep_prob"):
            MixConfig(strategy="dropnode", keep_prob=1.0)


class TestBatchedRMixup:
    """rmixup batches draw every pair first, then mix in stacked chunks of a
    fixed byte budget; chunking must not change a single bit."""

    @staticmethod
    def assert_matches_direct(ds, out, indices=None):
        for k in range(len(out)) if indices is None else indices:
            p = out[k].provenance
            i, j = ds.ids.index(p.source_i), ds.ids.index(p.source_j)
            direct = r_mixup(
                ds.matrices[i], ds.matrices[j], ds.labels[i], ds.labels[j], p.lam,
                (p.source_i, p.source_j),
            )
            assert np.array_equal(out[k].matrix, direct.matrix)
            assert out[k].label == direct.label
            assert out[k].provenance == direct.provenance

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 4])
    def test_chunks_of_few_matrices_match_direct(self, monkeypatch, per_chunk):
        n = 5
        monkeypatch.setattr(augment, "_CHUNK_BYTES", per_chunk * 8 * n * n)
        ds = regression_dataset(seed=60 + per_chunk, count=9, n=n)
        out = augment_batch(ds, MixConfig(strategy="rmixup", seed=per_chunk), 11)
        self.assert_matches_direct(ds, out)

    def test_many_chunks_at_small_n(self):
        # at n=8 the 4 MiB budget holds 8192 matrices: 8200 mixes span two
        # chunks; check both sides of the seam
        ds = regression_dataset(seed=61, count=32, n=8)
        out = augment_batch(ds, MixConfig(strategy="rmixup", seed=2), 8200)
        per_chunk = augment._CHUNK_BYTES // (8 * 8 * 8)
        assert per_chunk < 8200
        self.assert_matches_direct(ds, out, [0, 1, per_chunk - 1, per_chunk, 8199])

    def test_budget_chunks_at_large_n(self):
        # at n=360 the budget holds 4 matrices
        ds = regression_dataset(seed=62, count=5, n=360)
        out = augment_batch(ds, MixConfig(strategy="rmixup", seed=3), 6)
        self.assert_matches_direct(ds, out)

    def test_counts_distinct_sources_plus_mixes(self):
        ds = regression_dataset(seed=63, count=40, n=3)
        for count in (1, 7, 60):
            with count_eig_calls() as counter:
                out = augment_batch(ds, MixConfig(strategy="rmixup", seed=count), count)
            sources = {s.provenance.source_i for s in out} | {s.provenance.source_j for s in out}
            assert counter.count == len(sources) + count

    def test_drawn_non_spd_sample_named(self):
        ds = regression_dataset(seed=64, count=12, n=3)
        config = MixConfig(strategy="rmixup", seed=8)
        clean = augment_batch(ds, config, 3)
        drawn = {s.provenance.source_i for s in clean} | {s.provenance.source_j for s in clean}
        bad_drawn, bad_idle = sorted(drawn)[-1], sorted(set(ds.ids) - drawn)[0]

        def broken(sample_id):
            mats = ds.matrices.copy()
            mats[ds.ids.index(sample_id)] = np.diag([1.0, -1.0, 2.0])
            return LabeledDataset(matrices=mats, labels=ds.labels, task="regression")

        with pytest.raises(ValueError, match=f"sample {bad_drawn} is not SPD.*clamp"):
            augment_batch(broken(bad_drawn), config, 3)
        for s1, s2 in zip(augment_batch(broken(bad_idle), config, 3), clean, strict=True):
            assert np.array_equal(s1.matrix, s2.matrix)

    def test_probe_independent_of_chunking(self, monkeypatch):
        rng = np.random.default_rng(65)
        ds = gen_labeled_dataset(4, 20, "regression", "log-linear", rng, noise=0.1)
        whole = incorrect_label_probe(ds, 40, np.random.default_rng(66))
        monkeypatch.setattr(augment, "_CHUNK_BYTES", 3 * 8 * 4 * 4)
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
