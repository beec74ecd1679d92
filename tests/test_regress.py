"""Kernel, kernel ridge, geodesic regression, and comparison harness tests."""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

from spdmix import linalg, regress
from spdmix.cli import main
from spdmix.data_io import LabeledDataset, gen_random_spd, write_matrices
from spdmix.linalg import NonPositiveEigenvalueError, count_eig_calls, fro_norm, matrix_log
from spdmix.metrics import geodesic, log_euclidean_distance
from spdmix.regress import (
    LOSS_SLACK,
    ORDERING_SLACK,
    GeodesicRegressionModel,
    HarnessRow,
    KernelConfig,
    default_harness_sigma,
    euclidean_kernel,
    fit_kernel_ridge,
    geodesic_regression_fit,
    gram_matrix,
    heat_kernel,
    predict_two_sample,
    theorem1_harness,
    theorem1_trials,
    vec_log_upper,
)


def spd_set(seed, count, n=4, cond=50.0):
    rng = np.random.default_rng(seed)
    return np.stack([gen_random_spd(n, cond, rng).array for _ in range(count)])


def regression_dataset(seed=0, count=8, n=4):
    mats = spd_set(seed, count, n)
    labels = np.random.default_rng(seed + 1).uniform(size=count)
    return LabeledDataset(matrices=mats, labels=labels, task="regression")


class TestHeatKernel:
    def test_zero_distance_value(self):
        s = 2.0 * np.eye(2)
        assert heat_kernel(s, s, 1.0) == pytest.approx((2 * np.pi) ** -0.5, abs=1e-12)
        assert heat_kernel(s, s, 1.0) == pytest.approx(0.39894, abs=1e-5)

    def test_decays_monotonically_with_distance(self):
        base = np.eye(3)
        values = [
            heat_kernel(base, np.exp(t) * np.eye(3), 1.0) for t in (0.0, 0.5, 1.0, 3.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0

    def test_compositional_oracle(self):
        mats = spd_set(1, 2, n=5)
        sigma = 0.8
        d = log_euclidean_distance(mats[0], mats[1])
        expected = (2 * np.pi * sigma**2) ** (-5 * 4 / 4.0) * np.exp(
            -(d**2) / (2 * sigma**2)
        )
        assert heat_kernel(mats[0], mats[1], sigma) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_in_arguments(self):
        mats = spd_set(2, 2, n=3)
        assert heat_kernel(mats[0], mats[1], 1.3) == pytest.approx(
            heat_kernel(mats[1], mats[0], 1.3), rel=1e-12
        )


class TestEuclideanKernel:
    def test_zero_distance_value(self):
        s = np.eye(2)
        assert euclidean_kernel(s, s, 1.0) == pytest.approx((2 * np.pi) ** -1.0, abs=1e-12)

    def test_direct_formula(self):
        mats = spd_set(3, 2, n=4)
        sigma = 1.7
        d = np.linalg.norm(mats[0] - mats[1])
        expected = (2 * np.pi * sigma**2) ** (-2.0) * np.exp(-(d**2) / (2 * sigma**2))
        assert euclidean_kernel(mats[0], mats[1], sigma) == pytest.approx(
            expected, rel=1e-12
        )

    def test_symmetry(self):
        mats = spd_set(4, 2, n=3)
        assert euclidean_kernel(mats[0], mats[1], 2.0) == pytest.approx(
            euclidean_kernel(mats[1], mats[0], 2.0), rel=1e-12
        )


@pytest.mark.parametrize("kernel", [heat_kernel, euclidean_kernel])
class TestKernelInputs:
    def test_non_square_endpoints_rejected_as_non_square(self, kernel):
        with pytest.raises(ValueError, match=r"must be square matrices, got shapes \(2, 3\)"):
            kernel(np.ones((2, 3)), np.ones((2, 3)), 1.0)

    def test_dimension_mismatch(self, kernel):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel(np.eye(2), np.eye(3), 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_bad_bandwidth_rejected(self, kernel, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            kernel(np.eye(2), np.eye(2), sigma)


def test_infinite_bandwidth_rejected():
    with pytest.raises(ValueError, match="sigma must be positive and finite, got inf"):
        KernelConfig(sigma=float("inf"))


class TestKernelRidge:
    def test_single_sample_closed_form(self):
        ds = regression_dataset(seed=5, count=1)
        config = KernelConfig(sigma=1.0)
        predictor = fit_kernel_ridge(ds, config)
        assert predictor.predict(ds.matrices[0]) == pytest.approx(ds.labels[0], abs=1e-10)
        other = spd_set(6, 1, n=4)[0]
        k_ratio = heat_kernel(ds.matrices[0], other, 1.0) / heat_kernel(
            ds.matrices[0], ds.matrices[0], 1.0
        )
        assert predictor.predict(other) == pytest.approx(ds.labels[0] * k_ratio, rel=1e-9)

    def test_two_samples_match_closed_form(self):
        ds = regression_dataset(seed=7, count=2)
        sigma = 2.0
        predictor = fit_kernel_ridge(ds, KernelConfig(sigma=sigma))
        probe = spd_set(8, 1, n=4)[0]
        d = log_euclidean_distance(ds.matrices[0], ds.matrices[1])
        k_ij = np.exp(-(d**2) / (2 * sigma**2))
        k_i = np.exp(
            -(log_euclidean_distance(ds.matrices[0], probe) ** 2) / (2 * sigma**2)
        )
        k_j = np.exp(
            -(log_euclidean_distance(ds.matrices[1], probe) ** 2) / (2 * sigma**2)
        )
        expected = predict_two_sample(ds.labels[0], ds.labels[1], k_ij, k_i, k_j)
        assert predictor.predict(probe) == pytest.approx(expected, rel=1e-8)

    def test_exact_interpolation_without_ridge(self):
        ds = regression_dataset(seed=9, count=20, n=4)
        predictor = fit_kernel_ridge(ds, KernelConfig(sigma=_median_sigma(ds.matrices)))
        for mat, label in zip(ds.matrices, ds.labels):
            assert predictor.predict(mat) == pytest.approx(label, abs=1e-8)

    def test_large_ridge_shrinks_to_zero(self):
        ds = regression_dataset(seed=10, count=5)
        predictor = fit_kernel_ridge(ds, KernelConfig(sigma=1.0, ridge=1e9))
        assert abs(predictor.predict(ds.matrices[0])) < 1e-6

    def test_euclidean_space_supported(self):
        ds = regression_dataset(seed=11, count=6)
        predictor = fit_kernel_ridge(
            ds, KernelConfig(sigma=5.0, space="euclidean")
        )
        for mat, label in zip(ds.matrices, ds.labels):
            assert predictor.predict(mat) == pytest.approx(label, abs=1e-7)

    def test_coincident_samples_need_ridge(self):
        mat = np.eye(3)
        ds = LabeledDataset(
            matrices=np.stack([mat, mat, mat]),
            labels=[0.1, 0.2, 0.3],
            task="regression",
        )
        # a tiny bandwidth makes the normalizer huge, so the jitter ladder is
        # absorbed by rounding and the Gram stays numerically singular
        with pytest.raises(ValueError, match="ridge"):
            fit_kernel_ridge(ds, KernelConfig(sigma=1e-12))

    def test_jitter_ladder_escalates_past_a_singular_gram(self, monkeypatch):
        # log distance 1e-9 passes the coincidence check, yet the kernel
        # value rounds to exactly 1: the ridge-free Gram is singular
        a = np.eye(3)
        b = np.diag([1.0, 1.0, np.exp(1e-9)])
        ds = LabeledDataset(matrices=np.stack([a, b]), labels=[0.1, 0.2], task="regression")
        shifts = []
        factor = np.linalg.cholesky

        def recording(m):
            shifts.append(m[0, 0] - m[0, 1])
            return factor(m)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        predictor = fit_kernel_ridge(ds, KernelConfig(sigma=1.0))
        norm = (2.0 * np.pi) ** -1.5
        assert shifts == [0.0, pytest.approx(1e-10 * norm, rel=1e-3)]
        assert predictor.predict(a) == pytest.approx(0.15, abs=1e-3)

    def test_singular_even_after_jitter(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(ValueError, match="singular even after jitter"):
            fit_kernel_ridge(regression_dataset(seed=12, count=4), KernelConfig(sigma=1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(sigma=0.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, ridge=-1.0)
        with pytest.raises(ValueError):
            KernelConfig(sigma=1.0, space="hyperbolic")

    @pytest.mark.parametrize("space", ["riemannian", "euclidean"])
    def test_predict_evaluates_the_one_gaussian_body(self, monkeypatch, space):
        ds = regression_dataset(seed=4, count=6)
        config = KernelConfig(sigma=0.7, space=space)
        predictor = fit_kernel_ridge(ds, config)
        probe = spd_set(40, 1)[0]
        emb = matrix_log(probe) if space == "riemannian" else probe
        d2 = np.sum((predictor._train - emb).reshape(len(ds), -1) ** 2, axis=1)
        power = 4 * 3 / 4.0 if space == "riemannian" else 4 / 2.0
        norm = (2.0 * np.pi * 0.7**2) ** -power
        expected = float(predictor._weights @ (norm * np.exp(-d2 / (2.0 * 0.7**2))))
        calls = []
        body = regress._gaussian
        monkeypatch.setattr(regress, "_gaussian", lambda *a: calls.append(a) or body(*a))
        assert predictor.predict(probe) == expected
        assert len(calls) == 1


def _median_sigma(mats):
    dists = [
        log_euclidean_distance(mats[i], mats[j])
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    ]
    return float(np.median(dists))


class TestGramMatrix:
    def test_positive_definite_for_distinct_samples(self):
        mats = spd_set(12, 10, n=4)
        config = KernelConfig(sigma=_median_sigma(mats))
        gram = gram_matrix(mats, config)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram)[0] > 0


class TestPredictTwoSample:
    def test_returns_first_label_at_first_sample(self):
        assert predict_two_sample(0.3, 0.9, 0.5, 1.0, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_equal_labels_identity(self):
        c, k_ij, k_i, k_j = 0.7, 0.4, 0.8, 0.6
        expected = c * (k_i + k_j) / (1.0 + k_ij)
        assert predict_two_sample(c, c, k_ij, k_i, k_j) == pytest.approx(expected, rel=1e-12)

    def test_coincident_samples_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            predict_two_sample(0.1, 0.2, 1.0, 0.5, 0.5)

    def test_second_difference_is_nonnegative_along_geodesic(self):
        # prediction along K^lam coordinates bends below its chord: the
        # second finite difference of lam -> prediction is >= 0
        k_ij = 0.37
        y_i, y_j = 0.25, 0.85
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        values = np.array(
            [
                predict_two_sample(y_i, y_j, k_ij, k_ij**lam, k_ij ** (1 - lam))
                for lam in grid
            ]
        )
        second = np.diff(values, 2)
        assert np.all(second >= -1e-9)
        # consequently the prediction never exceeds the mixed label
        chord = (1 - grid) * y_i + grid * y_j
        assert np.all(values <= chord + 1e-9)


class TestVecLogUpper:
    def test_isometry(self):
        mats = spd_set(13, 2, n=5)
        v0, v1 = vec_log_upper(mats[0]), vec_log_upper(mats[1])
        from spdmix.linalg import matrix_log

        frob = np.linalg.norm(matrix_log(mats[0]) - matrix_log(mats[1]))
        assert np.linalg.norm(v0 - v1) == pytest.approx(frob, rel=1e-12)


class TestGeodesicRegression:
    def test_exact_recovery_of_linear_target(self):
        mats = spd_set(14, 12, n=3)
        coord = np.array([vec_log_upper(m)[1] for m in mats])
        labels = 2.0 * coord - 0.3
        ds = LabeledDataset(matrices=mats, labels=labels, task="regression")
        model = geodesic_regression_fit(ds)
        for mat, label in zip(mats, labels):
            assert model.predict(mat) == pytest.approx(label, abs=1e-6)

    def test_underdetermined_interpolates(self):
        mats = spd_set(15, 3, n=4)  # 3 samples, 10 features
        labels = np.array([0.2, 0.9, 0.5])
        ds = LabeledDataset(matrices=mats, labels=labels, task="regression")
        model = geodesic_regression_fit(ds)
        for mat, label in zip(mats, labels):
            assert model.predict(mat) == pytest.approx(label, abs=1e-6)

    def test_geodesic_mix_stays_on_hyperplane(self):
        mats = spd_set(16, 3, n=4)
        labels = np.array([0.1, 0.7, 0.4])
        ds = LabeledDataset(matrices=mats, labels=labels, task="regression")
        model = geodesic_regression_fit(ds)
        lam = 0.35
        mixed = geodesic(mats[0], mats[1], lam)
        mixed_label = (1 - lam) * labels[0] + lam * labels[1]
        assert model.predict(mixed.array) == pytest.approx(mixed_label, abs=1e-6)
        assert isinstance(model, GeodesicRegressionModel)


class TestTheoremHarness:
    def test_endpoints_have_zero_error(self):
        mats = spd_set(17, 2, n=4)
        sigma = default_harness_sigma(mats[0], mats[1])
        rows = theorem1_harness(
            mats[0], mats[1], 0.2, 0.9, [0.0, 1.0], KernelConfig(sigma=sigma)
        )
        for row in rows:
            assert row.err_geodesic_sq <= 1e-16
            assert row.err_line_sq <= 1e-16
            assert not row.loss_violation

    def test_random_sweep_no_loss_violations(self):
        rng = np.random.default_rng(18)
        for trial in range(100):
            n = int(rng.choice([4, 8]))
            mats = spd_set(1000 + trial, 2, n=n, cond=100.0)
            y_i, y_j = rng.uniform(size=2)
            lam = float(rng.uniform())
            sigma = default_harness_sigma(mats[0], mats[1])
            rows = theorem1_harness(
                mats[0], mats[1], y_i, y_j, [lam], KernelConfig(sigma=sigma)
            )
            assert not rows[0].loss_violation

    def test_commuting_midpoint_inequality(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([4.0, 1.0])
        sigma = default_harness_sigma(a, b)
        rows = theorem1_harness(a, b, 0.0, 1.0, [0.5], KernelConfig(sigma=sigma))
        assert rows[0].err_geodesic_sq <= rows[0].err_line_sq + 1e-12

    def test_prediction_bounded_by_mixed_label(self):
        mats = spd_set(19, 2, n=4)
        sigma = default_harness_sigma(mats[0], mats[1])
        rows = theorem1_harness(
            mats[0], mats[1], 0.4, 0.8, np.linspace(0, 1, 11), KernelConfig(sigma=sigma)
        )
        for row in rows:
            assert row.pred_geodesic <= row.y_mix + 1e-9
            assert row.pred_line >= -1e-9

    def test_narrow_kernel_violation_is_reported_not_hidden(self):
        # commuting pair with equal labels and a narrow kernel: a known
        # configuration where the straight line scores better
        a = np.exp(2.0) * np.eye(2)
        b = np.eye(2)
        d = log_euclidean_distance(a, b)
        rows = theorem1_harness(a, b, 1.0, 1.0, [0.5], KernelConfig(sigma=d))
        assert rows[0].loss_violation
        with pytest.raises(ValueError, match="loss comparison"):
            theorem1_harness(a, b, 1.0, 1.0, [0.5], KernelConfig(sigma=d), strict=True)

    def test_negative_labels_rejected(self):
        mats = spd_set(20, 2, n=3)
        with pytest.raises(ValueError, match="non-negative"):
            theorem1_harness(mats[0], mats[1], -0.1, 0.5, [0.5], KernelConfig(sigma=1.0))

    def test_nan_label_rejected(self):
        # NaN is not below zero either: it used to pass as a row of NaNs
        mats = spd_set(20, 2, n=3)
        with pytest.raises(ValueError, match="non-negative for the comparison, got nan"):
            theorem1_harness(
                mats[0], mats[1], np.nan, 0.5, [0.5], KernelConfig(sigma=1.0), strict=True
            )

    @pytest.mark.parametrize("config, field", [
        (KernelConfig(sigma=1.0, space="euclidean"), "space='euclidean'"),
        (KernelConfig(sigma=1.0, ridge=5.0), "ridge=5.0"),
    ])
    def test_unused_kernel_fields_rejected(self, config, field):
        mats = spd_set(20, 2, n=3)
        with pytest.raises(ValueError, match=field):
            theorem1_harness(mats[0], mats[1], 0.1, 0.5, [0.5], config)

    def test_underflowing_kernel_names_sigma(self, monkeypatch):
        # d / (2 sigma^2) overflows: exp(-d / (2 sigma^2)) of the pair is 0
        a, b = spd_set(22, 2, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                r"^sigma 1\.1e-154 gives the pair of matrices 0 and 1 a kernel value "
                r"exp\(-d / \(2 sigma\^2\)\) of 0 at distance d = \d"
            )):
                theorem1_harness(a, b, 0.1, 0.5, [0.5], KernelConfig(sigma=1.1e-154))
        # the pair's value is positive and a row's is not: that row is named
        d = log_euclidean_distance(a, b)
        sigma = np.sqrt(d / 1400.0)
        near = regress._row_distances

        def far(*args):
            dist = near(*args)
            dist[:, 2:] *= 4.0  # the line points' columns
            return dist

        monkeypatch.setattr(regress, "_row_distances", far)
        with pytest.raises(ValueError, match=(
            rf"^sigma {sigma} gives the line point at lam=0.5 of the pair of matrices 0 and 1"
        )):
            theorem1_harness(a, b, 0.1, 0.5, [0.5], KernelConfig(sigma=sigma))

    def test_coincident_endpoints_rejected(self):
        s = np.eye(3)
        with pytest.raises(ValueError, match="coincide"):
            theorem1_harness(s, s, 0.1, 0.2, [0.5], KernelConfig(sigma=1.0))

    def test_distance_scaling_along_geodesic(self):
        mats = spd_set(21, 2, n=5)
        d = log_euclidean_distance(mats[0], mats[1])
        for lam in np.linspace(0, 1, 9):
            mixed = geodesic(mats[0], mats[1], float(lam))
            assert abs(log_euclidean_distance(mats[0], mixed) - lam * d) <= 1e-8


def per_ratio_harness(s_i, s_j, y_i, y_j, lambdas, sigma):
    """The harness as one matrix at a time: a logarithm per endpoint and per
    line point, a kernel value per distance."""
    log_a, log_b = matrix_log(s_i), matrix_log(s_j)
    d_ij = fro_norm(log_a - log_b)
    if d_ij <= 1e-12:
        raise ValueError("endpoints coincide; the two-sample system is singular")
    two_sig_sq = 2.0 * sigma**2
    k_ij = float(np.exp(-d_ij / two_sig_sq))
    rows = []
    for lam in map(float, lambdas):
        log_geo = (1.0 - lam) * log_a + lam * log_b
        log_line = matrix_log((1.0 - lam) * s_i + lam * s_j)
        k = [
            float(np.exp(-fro_norm(point - end) / two_sig_sq))
            for point in (log_geo, log_line)
            for end in (log_a, log_b)
        ]
        pred_geo = predict_two_sample(y_i, y_j, k_ij, k[0], k[1])
        pred_line = predict_two_sample(y_i, y_j, k_ij, k[2], k[3])
        y_mix = (1.0 - lam) * y_i + lam * y_j
        err_geo, err_line = (pred_geo - y_mix) ** 2, (pred_line - y_mix) ** 2
        ordering = (
            pred_line < -ORDERING_SLACK
            or pred_line > pred_geo + ORDERING_SLACK
            or pred_geo > y_mix + ORDERING_SLACK
        )
        rows.append(HarnessRow(
            lam, y_mix, pred_geo, pred_line, err_geo, err_line,
            bool(err_geo > err_line + LOSS_SLACK), bool(ordering),
        ))
    return rows


def draws(count, trials, seed):
    """The pairs ``regress`` draws: anchor, then a distinct partner."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(trials):
        a = int(rng.integers(count))
        b = int(rng.integers(count - 1))
        pairs.append((a, b + 1 if b >= a else b))
    return pairs


def per_pair_csv(ds, trials, seed, lambdas, sigma=None):
    """``regress`` stdout as one harness call per pair, each pair with its
    own :func:`default_harness_sigma` unless ``sigma`` is given."""
    lines = ["pair,lam,err_geodesic,err_line,violation,ordering_violation"]
    for a, b in draws(len(ds), trials, seed):
        s_a, s_b = ds.matrices[a], ds.matrices[b]
        sig = sigma if sigma is not None else default_harness_sigma(s_a, s_b)
        rows = per_ratio_harness(
            s_a, s_b, float(ds.labels[a]), float(ds.labels[b]), lambdas, sig
        )
        for row in rows:
            lines.append(
                f"{ds.ids[a]}:{ds.ids[b]},{row.lam!r},{row.err_geodesic_sq!r},"
                f"{row.err_line_sq!r},{int(row.loss_violation)},"
                f"{int(row.ordering_violation)}"
            )
    return "\n".join(lines) + "\n"


DEFAULT_GRID = [k / 10 for k in range(11)]


def bits(rows):
    return [repr(astuple(row)) for row in rows]


class TestBatchedHarness:
    @pytest.mark.parametrize(
        "lambdas",
        [DEFAULT_GRID, [0.25, 0.5], [1.0, 0.0, 0.5], [0.0, 1e-300, 1.0 - 1e-17, 1.0]],
    )
    def test_matches_per_ratio_loop(self, lambdas):
        for seed in range(6):
            a, b = spd_set(400 + seed, 2, n=5, cond=200.0)
            y_i, y_j = np.random.default_rng(seed).uniform(size=2)
            sigma = default_harness_sigma(a, b)
            got = theorem1_harness(a, b, y_i, y_j, lambdas, KernelConfig(sigma=sigma))
            assert bits(got) == bits(per_ratio_harness(a, b, y_i, y_j, lambdas, sigma))

    def test_default_grid_counts_eleven_solves(self):
        a, b = spd_set(410, 2, n=6)
        with count_eig_calls() as c:
            theorem1_harness(a, b, 0.2, 0.7, DEFAULT_GRID, KernelConfig(sigma=3.0))
        assert c.count == 11

    def test_bad_ratio_rejected_before_any_solve(self):
        a, b = spd_set(411, 2, n=3)
        with count_eig_calls() as c, pytest.raises(ValueError, match="mix ratio"):
            theorem1_harness(a, b, 0.2, 0.7, [0.5, 1.5], KernelConfig(sigma=1.0))
        assert c.count == 0

    @pytest.mark.parametrize("drawn", [[2], [0]], ids=["drawn", "undrawn"])
    def test_trials_reject_a_negative_label_before_any_solve(self, drawn):
        # a pair with label -0.25 has y_mix = -0.25 at lam 1, below the label
        # range the ordering claim is stated for
        ds = regression_dataset(seed=414, count=4, n=3)
        ds.labels[2] = -0.25
        with count_eig_calls() as c, pytest.raises(ValueError, match="non-negative.*-0.25"):
            theorem1_trials(ds, [1], drawn, DEFAULT_GRID)
        assert c.count == 0

    def test_non_spd_line_point_named(self, monkeypatch):
        # the stack of interior line points (lam 0.3 and 0.5) has its last
        # one broken; the error names the point once, not its stack position
        a, b = spd_set(413, 2, n=3)

        def breaking_log(stack):
            if stack.ndim == 3:
                stack = stack.copy()
                stack[-1] = -np.eye(3)
            return matrix_log(stack)

        monkeypatch.setattr(regress, "matrix_log", breaking_log)
        with pytest.raises(NonPositiveEigenvalueError) as info:
            theorem1_harness(a, b, 0.2, 0.7, [0.0, 0.3, 0.5, 1.0], KernelConfig(sigma=1.0))
        assert str(info.value).startswith(
            "the line point at lam=0.5 between matrices 0 and 1 is not SPD (matrix_log requires"
        )

    @pytest.mark.parametrize("bad", [-1, 4, 7])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_trials_reject_a_pair_index_outside_before_any_solve(self, bad, side):
        # fancy indexing would wrap -1 and np.take(mode="clip") clip it to 0:
        # the two gathers of one pair would read different samples
        ds = regression_dataset(seed=416, count=4, n=3)
        pair = {"first": [0, 1], "second": [2, 3]}
        pair[side] = [pair[side][0], bad]
        with count_eig_calls() as c, pytest.raises(
            ValueError, match=f"pair index {bad} is outside the 4-sample dataset"
        ):
            theorem1_trials(ds, pair["first"], pair["second"], DEFAULT_GRID)
        assert c.count == 0

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_library_fits_independent_of_chunking(self, monkeypatch, per_chunk):
        ds = regression_dataset(seed=412, count=7, n=4)
        config = KernelConfig(sigma=2.0)
        logs = np.stack([matrix_log(m) for m in ds.matrices])
        gram = gram_matrix(ds.matrices, config)
        feats = np.stack([vec_log_upper(m) for m in ds.matrices])
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * 4 * 4)
        assert np.array_equal(gram_matrix(ds.matrices, config), gram)
        flat = logs.reshape(len(logs), -1)
        sq = np.sum(flat**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * flat @ flat.T, 0.0)
        np.fill_diagonal(d2, 0.0)
        assert np.array_equal(gram, (2 * np.pi * 4.0) ** -3.0 * np.exp(-d2 / 8.0))
        model = geodesic_regression_fit(ds)
        x_mean = feats.mean(axis=0)
        y = ds.labels - ds.labels.mean()
        weights = np.linalg.lstsq(feats - x_mean, y, rcond=None)[0]
        assert np.array_equal(model.weights, weights)

    def test_non_spd_matrix_named_by_stack_position(self, monkeypatch):
        # logs taken 3 matrices at a time: matrix 7 is the second of its
        # chunk, and the error names its place in the whole stack
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 3 * 8 * 4 * 4)
        ds = regression_dataset(seed=414, count=10, n=4)
        mats = ds.matrices.copy()
        mats[7] = -np.eye(4)
        bad = LabeledDataset(matrices=mats, labels=ds.labels, task="regression")
        config = KernelConfig(sigma=2.0)
        for fit in (
            lambda: gram_matrix(mats, config),
            lambda: fit_kernel_ridge(bad, config),
            lambda: geodesic_regression_fit(bad),
        ):
            with pytest.raises(NonPositiveEigenvalueError) as info:
                fit()
            assert info.value.index == 7
            assert str(info.value).startswith("matrix 7 of the stack: matrix_log requires")


class TestRegressCli:
    """``regress`` on the batched core against one harness call per pair."""

    def dataset(self, tmp_path, count=9, n=5, seed=420, edit=None):
        ds = regression_dataset(seed=seed, count=count, n=n)
        if edit is not None:
            edit(ds.matrices)
        path = tmp_path / "ds.spdb"
        write_matrices(path, ds)
        return ds, path

    def run(self, capsys, path, *extra):
        code = main(["regress", "--input", str(path), *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "extra, lambdas, sigma",
        [
            ((), DEFAULT_GRID, None),
            (("--lambdas", "0.25,0.5"), [0.25, 0.5], None),
            (("--sigma", "2.0"), DEFAULT_GRID, 2.0),
            (("--trials", "0"), DEFAULT_GRID, None),
        ],
    )
    def test_stdout_matches_per_pair_loop(self, capsys, tmp_path, extra, lambdas, sigma):
        ds, path = self.dataset(tmp_path)
        trials = 0 if "--trials" in extra else 30
        code, out, _ = self.run(capsys, path, "--trials", "30", "--seed", "4", *extra)
        assert code in (0, 4)
        assert out == per_pair_csv(ds, trials, 4, lambdas, sigma)

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_stdout_independent_of_chunking(self, capsys, tmp_path, monkeypatch, per_chunk):
        ds, path = self.dataset(tmp_path)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * 5 * 5)
        code, out, _ = self.run(capsys, path, "--trials", "7", "--seed", "5")
        assert code == 0
        assert out == per_pair_csv(ds, 7, 5, DEFAULT_GRID)

    @pytest.mark.parametrize("grid", [None, "0,1e-300,0.5,1", "0.25,0.5"])
    def test_solve_ledger(self, capsys, tmp_path, grid):
        ds, path = self.dataset(tmp_path, count=12)
        lambdas = DEFAULT_GRID if grid is None else [float(v) for v in grid.split(",")]
        extra = () if grid is None else ("--lambdas", grid)
        with count_eig_calls() as c:
            code, _, _ = self.run(capsys, path, "--trials", "20", "--seed", "6", *extra)
        assert code == 0
        pairs = draws(len(ds), 20, 6)
        sources = {k for pair in pairs for k in pair}
        interior = 0
        for a, b in pairs:
            s_a, s_b = ds.matrices[a], ds.matrices[b]
            for lam in lambdas:
                line = ((1.0 - lam) * s_a + lam * s_b).tobytes()
                interior += line not in (s_a.tobytes(), s_b.tobytes())
        assert c.count == len(sources) + interior
        if grid is None:
            assert interior == 20 * 9

    @pytest.mark.parametrize(
        "extra, message",
        [((), "no usable bandwidth"), (("--sigma", "2.0"), "two-sample system is singular")],
    )
    def test_duplicated_matrix_message(self, capsys, tmp_path, extra, message):
        def duplicate(mats):
            mats[2] = mats[0]

        ds, path = self.dataset(tmp_path, count=3, edit=duplicate)
        sigma = 2.0 if extra else None
        with pytest.raises(ValueError, match=message):
            per_pair_csv(ds, 10, 1, DEFAULT_GRID, sigma)
        code, out, err = self.run(capsys, path, "--trials", "10", "--seed", "1", *extra)
        assert code == 3
        assert message in err and out == ""

    def test_drawn_non_spd_sample_named(self, capsys, tmp_path):
        def break_one(mats):
            mats[3] = np.diag([1.0, -1.0, 2.0, 3.0, 4.0])

        ds, path = self.dataset(tmp_path, edit=break_one)
        assert any(3 in pair for pair in draws(len(ds), 10, 2))
        code, out, err = self.run(capsys, path, "--trials", "10", "--seed", "2")
        assert code == 3
        assert f"sample {ds.ids[3]} is not SPD" in err and out == ""

    def test_bad_ratio_exits_3_before_any_solve(self, capsys, tmp_path):
        _, path = self.dataset(tmp_path)
        with count_eig_calls() as c:
            code, out, err = self.run(capsys, path, "--lambdas", "0.5,1.5")
        assert code == 3 and out == ""
        assert "mix ratio must lie in [0, 1], got 1.5" in err
        assert c.count == 0
