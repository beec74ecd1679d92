"""Covariance/correlation construction and SPD-ness diagnostics."""

import numpy as np
import pytest

from spdmix.data_io import gen_synthetic_series
from spdmix.linalg import SpdMatrix, count_eig_calls
from spdmix.spdness import (
    CLAMP_FLOOR_DEFAULT,
    clamp_to_spd,
    correlation,
    covariance,
    downsample_by_averaging,
    spdness_report,
    truncate,
)


class TestCovariance:
    def test_single_variable_hand_computation(self):
        # values (0, 2): mean 1, (1/2)((-1)^2 + 1^2) = 1
        cov = covariance(np.array([[0.0, 2.0]]))
        np.testing.assert_allclose(cov, [[1.0]])

    def test_identical_rows_are_rank_deficient(self):
        x = np.array([[1.0, 2.0, 5.0, 3.0], [1.0, 2.0, 5.0, 3.0]])
        cov = covariance(x)
        assert cov[0, 1] == pytest.approx(cov[0, 0], rel=1e-12)
        assert np.linalg.matrix_rank(cov, tol=1e-10) == 1

    def test_rank_capped_by_centering(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))
        cov = covariance(x)
        assert np.linalg.matrix_rank(cov, tol=1e-10) <= 1
        rep = spdness_report(cov, n=3, t=2)
        assert not rep.is_spd

    def test_one_over_t_normalizer(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 30))
        centered = x - x.mean(axis=1, keepdims=True)
        expected = centered @ centered.T / 30
        np.testing.assert_allclose(covariance(x), expected, atol=1e-12)

    def test_constant_row_named(self):
        x = np.vstack([np.ones(5), np.arange(5.0)])
        with pytest.raises(ValueError, match="row 0"):
            covariance(x)

    def test_psd_guarantee(self):
        rng = np.random.default_rng(2)
        for n, t in ((5, 3), (5, 50), (12, 12)):
            cov = covariance(rng.standard_normal((n, t)))
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * np.trace(cov)

    def test_rank_law(self):
        rng = np.random.default_rng(3)
        for n, t in ((6, 3), (6, 4), (4, 20)):
            cov = covariance(rng.standard_normal((n, t)))
            assert np.linalg.matrix_rank(cov, tol=1e-10) <= min(n, t - 1)


class TestCorrelation:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(4)
        cor = correlation(rng.standard_normal((6, 40)))
        assert np.array_equal(np.diag(cor), np.ones(6))

    def test_perfect_linear_dependence(self):
        x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        cor = correlation(x)
        assert cor[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(5)
        cor = correlation(rng.standard_normal((8, 25)))
        assert np.all(np.abs(cor) <= 1.0 + 1e-12)

    def test_matches_diagonal_scaling_route(self):
        # oracle: explicit D^{-1/2} Cov D^{-1/2} scaling
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 50))
        cov = covariance(x)
        d = np.diag(1.0 / np.sqrt(np.diag(cov)))
        expected = d @ cov @ d
        np.testing.assert_allclose(correlation(x), expected, atol=1e-12)

    def test_psd(self):
        rng = np.random.default_rng(7)
        cor = correlation(rng.standard_normal((7, 60)))
        assert np.linalg.eigvalsh(cor)[0] >= -1e-10 * 7


class TestClampToSpd:
    def test_already_spd_untouched(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((5, 5))
        s = g @ g.T + 5.0 * np.eye(5)
        out = clamp_to_spd(s)
        np.testing.assert_allclose(out.array, (s + s.T) / 2.0, atol=1e-12)

    def test_all_ones_pattern(self):
        out = clamp_to_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
        w = np.sort(np.linalg.eigvalsh(out.array))
        np.testing.assert_allclose(w, [1e-6, 2.0], rtol=1e-6)

    def test_constructed_rank_deficiency(self):
        # three exact zero modes (diagonal construction keeps them exact)
        s = np.diag([0.0, 0.0, 0.0, 1.0, 2.5, 4.0])
        out = clamp_to_spd(s)
        w = np.sort(np.linalg.eigvalsh(out.array))
        np.testing.assert_allclose(w[:3], [1e-6] * 3, rtol=1e-9)
        np.testing.assert_allclose(w[3:], [1.0, 2.5, 4.0], atol=1e-12)

    def test_custom_floor(self):
        out = clamp_to_spd(np.diag([0.0, 1.0]), floor=1e-8)
        assert np.sort(np.linalg.eigvalsh(out.array))[0] == pytest.approx(1e-8, rel=1e-9)

    def test_minimality(self):
        s = np.diag([-0.5e-6, 0.0, 1.0, 3.0])
        out = clamp_to_spd(s)
        changed = np.linalg.norm(out.array - s)
        assert changed <= CLAMP_FLOOR_DEFAULT * np.sqrt(2) + 1e-10 + 0.5e-6

    def test_small_positive_modes_left_alone(self):
        s = np.diag([1e-9, 1.0])
        out = clamp_to_spd(s)
        assert np.sort(np.linalg.eigvalsh(out.array))[0] == pytest.approx(1e-9, rel=1e-6)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            clamp_to_spd(np.eye(2), floor=0.0)

    @pytest.mark.parametrize(
        "s, total, values_only",
        [
            (np.diag([1.0, 2.0, 3.0]), 1, 1),  # SPD: the spectrum alone decides
            (np.diag([0.0, 2.0, 3.0]), 2, 1),  # repair needs the eigenvectors too
            (SpdMatrix.from_array(np.eye(3)), 0, 0),  # already validated
        ],
    )
    def test_counts_its_decompositions(self, s, total, values_only):
        with count_eig_calls() as c:
            clamp_to_spd(s)
        assert (c.count, c.values_only) == (total, values_only)


class TestSpdnessReport:
    def test_identity_is_fully_spd(self):
        rep = spdness_report(np.eye(4), n=4, t=100)
        assert rep.positive_count == 4
        assert rep.spdness_pct == 100.0
        assert rep.is_spd

    def test_rank_bound_field(self):
        rng = np.random.default_rng(9)
        cor = correlation(rng.standard_normal((6, 4)))
        rep = spdness_report(cor, n=6, t=4)
        assert rep.rank_bound == 3
        assert rep.positive_count <= 3
        assert rep.spdness_pct <= 100.0 * 3 / 6
        assert not rep.is_spd

    def test_short_series_bound(self):
        rng = np.random.default_rng(10)
        series = gen_synthetic_series(12, 6, 12, 0.5, rng)
        rep = spdness_report(correlation(series), n=12, t=6)
        assert rep.positive_count <= 5

    def test_violation_raises(self):
        with pytest.raises(ValueError, match="rank bound"):
            spdness_report(np.eye(4), n=4, t=3)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_count_does_not_depend_on_scale(self, scale):
        # rank 19 = t - 1; an absolute threshold counted 39 (exceeding the
        # rank bound) at 1e6 and 0 at 1e-6
        series = np.random.default_rng(0).standard_normal((60, 20))
        rep = spdness_report(covariance(scale * series), n=60, t=20)
        assert rep.positive_count == 19

    def test_unit_diagonal_keeps_absolute_threshold(self):
        # unit diagonal, eigenvalues 1 +- r per block: 2e-6 counts, 0.5e-6 not
        cor = np.eye(4)
        cor[0, 1] = cor[1, 0] = 1.0 - 2e-6
        cor[2, 3] = cor[3, 2] = 1.0 - 0.5e-6
        rep = spdness_report(cor, n=4, t=100)
        assert rep.positive_count == 3

    def test_non_positive_trace_rejected(self):
        with pytest.raises(ValueError, match="non-positive trace"):
            spdness_report(np.diag([1.0, -2.0]), n=2, t=10)

    def test_counts_one_values_only_solve(self):
        with count_eig_calls() as c:
            spdness_report(np.eye(4), n=4, t=100)
        assert (c.count, c.values_only) == (1, 1)

    def test_monotone_spdness_in_length(self):
        n = 16
        short, long_ = [], []
        for trial in range(50):
            rng = np.random.default_rng(trial)
            series = gen_synthetic_series(n, 2 * n, n, 0.5, rng)
            long_.append(spdness_report(correlation(series), n, 2 * n).spdness_pct)
            short.append(
                spdness_report(correlation(series[:, : n // 2]), n, n // 2).spdness_pct
            )
        assert np.mean(long_) > np.mean(short)


class TestSeriesReduction:
    def test_downsample_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(downsample_by_averaging(x, 4), x)

    def test_downsample_block_means(self):
        x = np.array([[1.0, 3.0, 5.0, 7.0]])
        np.testing.assert_allclose(downsample_by_averaging(x, 2), [[2.0, 6.0]])

    def test_downsample_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 24))
        out = downsample_by_averaging(x, 6)
        for i in range(3):
            for k in range(6):
                assert out[i, k] == pytest.approx(x[i, 4 * k : 4 * k + 4].mean(), abs=1e-14)

    def test_downsample_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="divide"):
            downsample_by_averaging(np.ones((2, 10)), 3)

    def test_truncate_identity(self):
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(truncate(x, 4), x)

    def test_truncate_prefix(self):
        np.testing.assert_array_equal(
            truncate(np.array([[1.0, 2.0, 3.0, 4.0]]), 2), [[1.0, 2.0]]
        )

    def test_truncate_composition(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 20))
        np.testing.assert_array_equal(
            truncate(truncate(x, 10), 4), truncate(x, 4)
        )

    def test_truncate_rejects_too_long(self):
        with pytest.raises(ValueError):
            truncate(np.ones((2, 4)), 5)
