"""Geodesic, distance, and swelling tests.

Commuting (diagonal) pairs give closed-form oracles for every metric:
the scalar geodesic applies per eigenvalue.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmix import linalg, metrics
from spdmix.data_io import gen_random_spd
from spdmix.linalg import (
    CholeskyPivotError,
    NonPositiveEigenvalueError,
    SpdMatrix,
    count_eig_calls,
    log_det,
    matrix_log,
    matrix_power,
    symmetrize,
)
from spdmix.metrics import (
    MetricKind,
    StabilityWarning,
    SwellingReport,
    bures_cross_sqrt,
    geodesic,
    log_euclidean_distance,
    swelling_check,
)
from spdmix.regress import KernelConfig, default_harness_sigma, theorem1_harness

ALL_METRICS = list(MetricKind)


def random_pair(seed, n=8, cond=100.0):
    rng = np.random.default_rng(seed)
    return gen_random_spd(n, cond, rng), gen_random_spd(n, cond, rng)


def rotated_pair(seed, n=8, cond=100.0):
    """Two matrices sharing a spectrum but rotated: equal determinants."""
    rng = np.random.default_rng(seed)
    s = gen_random_spd(n, cond, rng)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return s.array, q @ s.array @ q.T


class TestGeodesicEndpoints:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_identical_endpoints_fixed(self, metric):
        s, _ = random_pair(0)
        for lam in (0.0, 0.3, 1.0):
            out = geodesic(s, s, lam, metric)
            assert np.linalg.norm(out.array - s.array) <= 1e-8 * np.linalg.norm(s.array)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(5))
    def test_endpoint_property(self, metric, seed):
        s_i, s_j = random_pair(seed)
        at0 = geodesic(s_i, s_j, 0.0, metric)
        at1 = geodesic(s_i, s_j, 1.0, metric)
        assert np.linalg.norm(at0.array - s_i.array) <= 1e-8 * np.linalg.norm(s_i.array)
        assert np.linalg.norm(at1.array - s_j.array) <= 1e-8 * np.linalg.norm(s_j.array)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_symmetry_in_arguments(self, metric):
        s_i, s_j = random_pair(42)
        fwd = geodesic(s_i, s_j, 0.3, metric)
        rev = geodesic(s_j, s_i, 0.7, metric)
        assert np.linalg.norm(fwd.array - rev.array) <= 1e-8 * np.linalg.norm(fwd.array)


class TestGeodesicCommutingOracles:
    def test_log_euclidean_diagonal_midpoint(self):
        out = geodesic(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.5,
                       MetricKind.LOG_EUCLIDEAN)
        np.testing.assert_allclose(out.array, np.diag([2.0, 2.0]), atol=1e-12)

    def test_euclidean_diagonal_midpoint(self):
        out = geodesic(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.5,
                       MetricKind.EUCLIDEAN)
        np.testing.assert_allclose(out.array, np.diag([2.5, 2.5]), atol=1e-14)

    @settings(deadline=None, max_examples=25)
    @given(
        a=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=4),
        lam=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bures_wasserstein_diagonal_formula(self, a, lam):
        rng = np.random.default_rng(3)
        b = rng.uniform(0.1, 10.0, size=len(a))
        a = np.asarray(a)
        expected = ((1 - lam) * np.sqrt(a) + lam * np.sqrt(b)) ** 2
        out = geodesic(np.diag(a), np.diag(b), lam, MetricKind.BURES_WASSERSTEIN)
        np.testing.assert_allclose(out.array, np.diag(expected), atol=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(lam=st.floats(min_value=0.0, max_value=1.0))
    def test_affine_invariant_matches_log_euclidean_on_commuting(self, lam):
        # commuting inputs: both reduce to a^(1-lam) b^lam per eigenvalue
        a = np.diag([0.5, 2.0, 7.0])
        b = np.diag([3.0, 0.4, 1.0])
        ai = geodesic(a, b, lam, MetricKind.AFFINE_INVARIANT)
        le = geodesic(a, b, lam, MetricKind.LOG_EUCLIDEAN)
        np.testing.assert_allclose(ai.array, le.array, atol=1e-10)


class TestGeodesicValidation:
    def test_lambda_out_of_range(self):
        s_i, s_j = random_pair(1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            geodesic(s_i, s_j, 1.5, MetricKind.LOG_EUCLIDEAN)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            geodesic(np.eye(2), np.eye(3), 0.5, MetricKind.EUCLIDEAN)

    def test_metric_tag_attached_to_errors(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="log_euclidean geodesic"):
            geodesic(bad, np.eye(2), 0.5, MetricKind.LOG_EUCLIDEAN)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_swelling_check_rejects_a_bad_endpoint(self, metric):
        # either endpoint's fault names the metric; an asymmetric endpoint is
        # reported with its own asymmetry, not the mix's. A Cholesky factor
        # breaks down on a non-SPD endpoint before any solve
        asymmetric = np.array([[2.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        indefinite = np.diag([1.0, -1.0, 2.0])
        not_spd = CholeskyPivotError if metric is MetricKind.CHOLESKY else NonPositiveEigenvalueError
        for bad, error, detail in (
            (asymmetric, ValueError, "matrix is not symmetric: asymmetry 7.071e-01 "),
            (indefinite, not_spd, ""),
        ):
            for pair in ((bad, np.eye(3)), (np.eye(3), bad)):
                with pytest.raises(error, match=f"^{metric.value} geodesic: {detail}"):
                    swelling_check(*pair, 0.3, metric)

    def test_tagged_error_keeps_its_type_and_attributes(self, monkeypatch):
        bad = np.diag([1.0, 2.0, -1.0, 3.0])
        with pytest.raises(CholeskyPivotError, match="cholesky geodesic: .*pivot index 2") as exc:
            geodesic(bad, np.eye(4), 0.5, MetricKind.CHOLESKY)
        assert exc.value.pivot == 2

        def failing_log(_):
            raise NonPositiveEigenvalueError("negative", index=3)

        monkeypatch.setattr(metrics, "matrix_log", failing_log)
        with pytest.raises(NonPositiveEigenvalueError, match="log_euclidean geodesic") as exc:
            geodesic(np.eye(2), np.eye(2), 0.5, MetricKind.LOG_EUCLIDEAN)
        assert exc.value.index == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, b: geodesic(a, b, 0.5, MetricKind.EUCLIDEAN),
            log_euclidean_distance,
            bures_cross_sqrt,
            lambda a, b: swelling_check(a, b, 0.5, MetricKind.LOG_EUCLIDEAN),
        ],
        ids=["geodesic", "distance", "bures_cross_sqrt", "swelling_check"],
    )
    def test_non_square_endpoints_named_as_such(self, call):
        with pytest.raises(ValueError, match=r"must be square matrices, got shapes \(2, 3\)"):
            call(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="must be square matrices"):
            call(np.eye(2), np.ones((2, 3)))

    def test_stability_warning_on_tiny_eigenvalues(self):
        tiny = np.diag([1e-12, 1.0])
        for a, b in ((tiny, np.eye(2)), (np.eye(2), tiny)):  # endpoint, then core
            with pytest.warns(StabilityWarning):
                geodesic(a, b, 0.5, MetricKind.AFFINE_INVARIANT)
            with pytest.warns(StabilityWarning):
                bures_cross_sqrt(a, b)

    def test_stability_warning_names_the_callers_frame(self):
        tiny = np.diag([1e-12, 1.0])
        with pytest.warns(StabilityWarning) as direct:
            bures_cross_sqrt(tiny, np.eye(2))
        assert {w.filename for w in direct} == {__file__}
        with pytest.warns(StabilityWarning) as nested:
            geodesic(tiny, np.eye(2), 0.5, MetricKind.AFFINE_INVARIANT)
        code = metrics.geodesic.__code__
        lines = range(code.co_firstlineno, max(line or 0 for *_, line in code.co_lines()) + 1)
        assert {w.filename for w in nested} == {metrics.__file__}
        assert all(w.lineno in lines for w in nested)


class TestDecompositionCounts:
    @pytest.mark.parametrize(
        "metric, total, values_only",
        [
            (MetricKind.LOG_EUCLIDEAN, 3, 0),
            (MetricKind.EUCLIDEAN, 1, 1),
            (MetricKind.CHOLESKY, 1, 1),
            (MetricKind.AFFINE_INVARIANT, 3, 1),
            (MetricKind.BURES_WASSERSTEIN, 3, 1),
        ],
    )
    def test_geodesic_counts(self, metric, total, values_only):
        s_i, s_j = random_pair(30)
        with count_eig_calls() as c:
            geodesic(s_i, s_j, 0.3, metric)
        assert (c.count, c.values_only) == (total, values_only)

    # values-only solves swelling_check saves by reusing a spectrum the
    # geodesic already has: log-Euclidean takes both endpoints' from their
    # logarithms (and re-solves its exponential mix), the whitening metrics
    # take S_i's from its decomposition, and every mix that
    # SpdMatrix.from_array validated keeps its spectrum
    REUSED_SPECTRA = {
        MetricKind.LOG_EUCLIDEAN: 2,
        MetricKind.EUCLIDEAN: 1,
        MetricKind.CHOLESKY: 1,
        MetricKind.AFFINE_INVARIANT: 2,
        MetricKind.BURES_WASSERSTEIN: 2,
    }

    @pytest.mark.parametrize(
        "metric, total, values_only",
        [
            (MetricKind.LOG_EUCLIDEAN, 6, 3),
            (MetricKind.EUCLIDEAN, 4, 4),
            (MetricKind.CHOLESKY, 4, 4),
            (MetricKind.AFFINE_INVARIANT, 6, 4),
            (MetricKind.BURES_WASSERSTEIN, 6, 4),
        ],
    )
    def test_swelling_check_counts(self, metric, total, values_only):
        # total and values_only are the unshared cost: the geodesic's solves
        # plus a fresh values-only log_det per endpoint and one for the mix;
        # swelling_check costs exactly that less the spectra it reuses
        s_i, s_j = random_pair(30)
        with count_eig_calls() as c:
            mixed = geodesic(s_i, s_j, 0.3, metric)
            for m in (s_i, s_j, mixed):
                log_det(np.array(m))
        assert (c.count, c.values_only) == (total, values_only)
        saved = self.REUSED_SPECTRA[metric]
        with count_eig_calls() as c:
            swelling_check(s_i, s_j, 0.3, metric)
        assert (c.count, c.values_only) == (total - saved, values_only - saved)


class TestSymmetryChecks:
    """Each input matrix pays the full drift/norm check (``linalg._fold``)
    at most once per call, and an exactly symmetric one never: every later
    check of an endpoint, a log-Euclidean blend, a Cholesky ``L L^T`` or a
    Euclidean mix is one subtraction. The whitening metrics also check the
    products they build, ``X S_j X`` and, for affine-invariant,
    ``S_i^{1/2} P S_i^{1/2}``: those round asymmetrically, and that check is
    their only validation."""

    BUILT = {MetricKind.AFFINE_INVARIANT: 2, MetricKind.BURES_WASSERSTEIN: 1}

    @pytest.fixture
    def folded(self, monkeypatch):
        # matrices handed to the full check
        seen = []
        fold = linalg._fold

        def counting(arr):
            seen.append(len(arr))
            return fold(arr)

        monkeypatch.setattr(linalg, "_fold", counting)
        return seen

    @staticmethod
    def pair(drifted):
        s_i, s_j = (np.array(m) for m in random_pair(30))
        if drifted:
            rng = np.random.default_rng(31)
            s_i, s_j = (m + 1e-13 * rng.standard_normal(m.shape) for m in (s_i, s_j))
            assert (s_i - s_i.T).any() and (s_j - s_j.T).any()
        return s_i, s_j

    @pytest.mark.parametrize("drifted", [False, True], ids=["exact", "drifted"])
    @pytest.mark.parametrize("call", [geodesic, swelling_check])
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pair_calls(self, folded, metric, call, drifted):
        call(*self.pair(drifted), 0.3, metric)
        assert sum(folded) == 2 * drifted + self.BUILT.get(metric, 0)

    @pytest.mark.parametrize("drifted", [False, True], ids=["exact", "drifted"])
    def test_one_matrix_calls_and_the_harness(self, folded, drifted):
        s_i, s_j = self.pair(drifted)
        sigma = default_harness_sigma(s_i, s_j)
        for call, inputs in (
            (lambda: SpdMatrix.from_array(s_i), 1),
            (lambda: log_det(s_i), 1),
            (lambda: log_euclidean_distance(s_i, s_j), 2),
            (lambda: theorem1_harness(s_i, s_j, 0.2, 0.7, [0.5], KernelConfig(sigma=sigma)), 2),
        ):
            folded.clear()
            call()
            assert sum(folded) == inputs * drifted


def reference_affine_invariant(a, b, lam):
    half = matrix_power(a, 0.5).array
    inv_half = matrix_power(a, -0.5).array
    core = SpdMatrix.from_array(inv_half @ b @ inv_half)
    out = half @ matrix_power(core, lam).array @ half
    return SpdMatrix.from_array(symmetrize(out))


def reference_bures_wasserstein(a, b, lam):
    half = matrix_power(a, 0.5).array
    inv_half = matrix_power(a, -0.5).array
    core = SpdMatrix.from_array(half @ b @ half)
    cross = half @ matrix_power(core, 0.5).array @ inv_half
    out = (1.0 - lam) ** 2 * a + lam**2 * b + lam * (1.0 - lam) * (cross + cross.T)
    return SpdMatrix.from_array(symmetrize(out))


class TestOneDecompositionGeodesics:
    """The affine-invariant and Bures-Wasserstein geodesics decompose each
    matrix once and give the bits of the composition that decomposed ``A``
    twice and validated the congruence separately."""

    @pytest.mark.parametrize("n", [2, 8, 50])
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "metric, reference",
        [
            (MetricKind.AFFINE_INVARIANT, reference_affine_invariant),
            (MetricKind.BURES_WASSERSTEIN, reference_bures_wasserstein),
        ],
    )
    def test_matches_reference_bitwise(self, n, lam, metric, reference):
        a, b = (s.array for s in random_pair(40 + n, n=n, cond=1e3))
        out = geodesic(a, b, lam, metric)
        assert np.array_equal(out.array, reference(a, b, lam).array)


class TestBuresCrossSqrt:
    def test_identity_left_factor(self):
        rng = np.random.default_rng(5)
        s = gen_random_spd(6, 50.0, rng)
        half = bures_cross_sqrt(np.eye(6), s)
        assert np.linalg.norm(half @ half - s.array) <= 1e-7 * np.linalg.norm(s.array)

    def test_equal_factors(self):
        rng = np.random.default_rng(6)
        s = gen_random_spd(5, 20.0, rng)
        out = bures_cross_sqrt(s, s)
        assert np.linalg.norm(out - s.array) <= 1e-7 * np.linalg.norm(s.array)

    @pytest.mark.parametrize("seed", range(5))
    def test_square_back(self, seed):
        s_i, s_j = random_pair(seed + 10)
        cross = bures_cross_sqrt(s_i, s_j)
        prod = s_i.array @ s_j.array
        assert np.linalg.norm(cross @ cross - prod) <= 1e-7 * np.linalg.norm(prod)


class TestLogEuclideanDistance:
    def test_zero_on_equal(self):
        s, _ = random_pair(7)
        assert log_euclidean_distance(s, s) <= 1e-10

    def test_closed_form_example(self):
        d = log_euclidean_distance(np.eye(2), np.diag([np.e, np.e]))
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_direct_formula_oracle(self):
        s_i, s_j = random_pair(8)
        expected = np.linalg.norm(matrix_log(s_i) - matrix_log(s_j))
        assert log_euclidean_distance(s_i, s_j) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(9)
        mats = [gen_random_spd(6, 100.0, rng) for _ in range(3)]
        d01 = log_euclidean_distance(mats[0], mats[1])
        d10 = log_euclidean_distance(mats[1], mats[0])
        assert d01 == pytest.approx(d10, abs=1e-12)
        d02 = log_euclidean_distance(mats[0], mats[2])
        d12 = log_euclidean_distance(mats[1], mats[2])
        assert d02 <= d01 + d12 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            log_euclidean_distance(np.eye(2), np.eye(3))


class TestSwellingCheck:
    def test_reference_determinants(self):
        # endpoints with determinants 5.40 and 6.46; the geodesic midpoint
        # determinant is their geometric mean
        s_i = np.diag([5.40, 1.0])
        s_j = np.diag([6.46, 1.0])
        rep = swelling_check(s_i, s_j, 0.5, MetricKind.LOG_EUCLIDEAN)
        assert np.exp(rep.det_mix) == pytest.approx(np.sqrt(5.40 * 6.46), rel=1e-9)
        assert np.exp(rep.det_mix) == pytest.approx(5.906, abs=5e-4)
        assert rep.within_bounds and not rep.exceeds_max

    def test_equal_endpoints_all_metrics(self):
        s, _ = random_pair(11)
        for metric in ALL_METRICS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StabilityWarning)
                rep = swelling_check(s, s, 0.7, metric)
            assert rep.within_bounds and not rep.exceeds_max
            assert rep.det_mix == pytest.approx(rep.det_i, abs=1e-8)

    def test_determinant_identity_log_euclidean_and_affine(self):
        for seed in range(10):
            s_i, s_j = random_pair(seed, n=6)
            lam = np.random.default_rng(seed).uniform()
            for metric in (MetricKind.LOG_EUCLIDEAN, MetricKind.AFFINE_INVARIANT):
                rep = swelling_check(s_i, s_j, lam, metric)
                expected = (1 - lam) * rep.det_i + lam * rep.det_j
                assert abs(rep.det_mix - expected) <= 1e-8
                assert rep.within_bounds

    def test_euclidean_exceedance_exists(self):
        hits = 0
        for seed in range(1000):
            a, b = rotated_pair(seed, n=4)
            rep = swelling_check(a, b, 0.5, MetricKind.EUCLIDEAN)
            hits += rep.exceeds_max
            if hits:
                break
        assert hits >= 1

    def test_exceeds_and_within_mutually_exclusive(self):
        for seed in range(20):
            a, b = rotated_pair(seed)
            for metric in (MetricKind.EUCLIDEAN, MetricKind.CHOLESKY):
                rep = swelling_check(a, b, 0.4, metric)
                assert not (rep.exceeds_max and rep.within_bounds)


class TestOrderProperties:
    def test_holder_direction(self):
        # geodesic determinant never exceeds the straight-line determinant
        for seed in range(20):
            s_i, s_j = random_pair(seed, n=6)
            for lam in (0.1, 0.5, 0.9):
                le = swelling_check(s_i, s_j, lam, MetricKind.LOG_EUCLIDEAN)
                eu = swelling_check(s_i, s_j, lam, MetricKind.EUCLIDEAN)
                assert le.det_mix <= eu.det_mix + 1e-9

    def test_operator_concavity_of_log(self):
        for seed in range(20):
            s_i, s_j = random_pair(seed, n=6)
            lam = np.random.default_rng(1000 + seed).uniform()
            blend_log = matrix_log((1 - lam) * s_i.array + lam * s_j.array)
            log_blend = (1 - lam) * matrix_log(s_i) + lam * matrix_log(s_j)
            gap = np.linalg.eigvalsh(blend_log - log_blend)[0]
            assert gap >= -1e-9

    def test_no_swelling_guarantee(self):
        for seed in range(20):
            s_i, s_j = random_pair(seed, n=5)
            lam = np.random.default_rng(2000 + seed).uniform()
            for metric in (MetricKind.LOG_EUCLIDEAN, MetricKind.AFFINE_INVARIANT):
                rep = swelling_check(s_i, s_j, lam, metric)
                lo = min(rep.det_i, rep.det_j)
                hi = max(rep.det_i, rep.det_j)
                assert lo - 1e-9 <= rep.det_mix <= hi + 1e-9


class TestSwellingAccuracy:
    """Every log-determinant of a report is within 2.5e-10 * max(1, |x|) of a
    fresh values-only solve of the same matrix, and the flags are those the
    fresh solves give, whichever spectrum the report reused."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(25)
        for n in [*range(1, 9), 50, 50]:
            for cond in (1.0, 1e3, 1e6):
                s_i, s_j = gen_random_spd(n, cond, rng), gen_random_spd(n, cond, rng)
                for lam in (0.0, float(rng.uniform()), 1.0):
                    yield s_i, s_j, lam
        s = gen_random_spd(8, 1e6, rng)
        yield s, s, 0.5

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_log_dets_match_fresh_solves(self, metric):
        for s_i, s_j, lam in self.cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StabilityWarning)
                rep = swelling_check(s_i, s_j, lam, metric)
                mixed = geodesic(s_i, s_j, lam, metric)
            fresh = [log_det(np.array(m)) for m in (s_i, s_j, mixed)]
            for got, want in zip((rep.det_i, rep.det_j, rep.det_mix), fresh):
                assert abs(got - want) <= 2.5e-10 * max(1.0, abs(want)), (len(s_i), lam)
            lo, hi = min(fresh[:2]), max(fresh[:2])
            tol = metrics.SWELLING_LOG_TOL
            assert rep.exceeds_max == (fresh[2] > hi + tol)
            assert rep.within_bounds == (lo - tol <= fresh[2] <= hi + tol)


class TestSwellingReportShape:
    def test_fields_are_log_space(self):
        s_i = np.diag([2.0, 1.0])
        rep = swelling_check(s_i, s_i, 0.5, MetricKind.EUCLIDEAN)
        assert isinstance(rep, SwellingReport)
        assert rep.det_i == pytest.approx(log_det(s_i))
