"""Eigendecomposition and matrix-function tests.

Ground truths: explicit recomposition, numpy's LU-based determinant, and
elementwise scalar functions on diagonal matrices.
"""

import ast
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spdmix import linalg, regress
from spdmix.augment import MixConfig, MixStream, mix_dataset
from spdmix.data_io import LabeledDataset, SpdbWriter, gen_random_spd
from spdmix.linalg import (
    CholeskyPivotError,
    EigenConvergenceError,
    EigenDecomposition,
    EigenvalueOverflowError,
    NonPositiveEigenvalueError,
    SpdMatrix,
    cholesky,
    count_eig_calls,
    eig_sym,
    eigvals_sym,
    fro_norm,
    log_det,
    matrix_exp,
    matrix_log,
    matrix_power,
    symmetrize,
)
from spdmix.spdness import spdness_report

DIMS = [2, 3, 8, 50, 120]


def random_symmetric(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g + g.T) / 2.0


class TestSymmetrize:
    def test_small_drift_is_folded(self):
        rng = np.random.default_rng(0)
        a = random_symmetric(rng, 6)
        drifted = a + 1e-13 * rng.standard_normal((6, 6))
        out = symmetrize(drifted)
        assert np.array_equal(out, out.T)

    def test_real_asymmetry_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        a = np.eye(2)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            symmetrize(a)

    # the Frobenius norm of entries beyond 1e154 (or below 1e-154) over- or
    # underflows when squared, which used to disable the check
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
    def test_asymmetry_rejected_at_any_scale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                symmetrize(np.array([[1.0, 0.0], [1.0, 1.0]]) * scale)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 1.7e308])
    def test_symmetric_part_at_any_scale(self, scale):
        # (A + A^T) / 2 overflows above half the float64 range
        a = np.array([[1.0, 1.0], [1.0 + 1e-14, 0.5]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = symmetrize(np.stack([a, a.T]))
        assert np.isfinite(out).all()
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[0], out[0].T)
        np.testing.assert_allclose(out[0], a, rtol=1e-13)

    def test_bits_unchanged_in_range(self):
        # power-of-two scaling is exact: the check and the output keep the
        # bits of the plain computation wherever it neither over- nor underflows
        rng = np.random.default_rng(3)
        for n in (1, 2, 8, 50):
            a = random_symmetric(rng, n, scale=10.0 ** rng.uniform(-100, 100))
            drifted = a + 1e-12 * np.abs(a).max() * rng.standard_normal((n, n))
            assert np.array_equal(symmetrize(drifted), (drifted + drifted.T) / 2.0)
            assert np.array_equal(symmetrize(a), a)


def same_bits(x, y) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def reference_symmetrize(a):
    """:func:`symmetrize` as it was before an exactly symmetric matrix skipped
    the scaled check: every matrix checked, and the halves branch taken for
    the whole stack when any matrix's peak passes ``_HALF_MAX``."""
    arr = linalg._square(a)
    peak = np.maximum(arr.max(axis=(-2, -1), initial=0.0), -arr.min(axis=(-2, -1), initial=0.0))
    linalg._reject(
        ~np.isfinite(peak), linalg._StackError, lambda at: "matrix contains non-finite entries"
    )
    arr_t = arr.swapaxes(-1, -2)
    exponent = np.frexp(peak)[1]
    exponent = np.where(np.abs(exponent) > 400, np.clip(exponent, -1021, 1021), 0)
    unit = arr * np.ldexp(1.0, -exponent)[..., None, None] if exponent.any() else arr
    norm = fro_norm(unit)
    drift = fro_norm(unit - unit.swapaxes(-1, -2))
    bad = drift > linalg.SYMMETRY_RTOL * np.maximum(norm, np.finfo(np.float64).tiny)

    def asymmetry(at):
        with np.errstate(over="ignore"):
            found, bound = np.ldexp([drift[at], linalg.SYMMETRY_RTOL * norm[at]], exponent[at])
        return (
            f"matrix is not symmetric: asymmetry {found:.3e} "
            f"exceeds {linalg.SYMMETRY_RTOL:.1e} * ||A||_F = {bound:.3e}"
        )

    linalg._reject(bad, linalg._StackError, asymmetry)
    if peak.max(initial=0.0) > linalg._HALF_MAX:
        return arr / 2.0 + arr_t / 2.0
    return (arr + arr_t) / 2.0


SPECIAL_ENTRIES = [
    0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308, 1.7e308, -1e308,
    np.nan, np.inf, -np.inf,
]


@st.composite
def symmetrize_inputs(draw):
    """One matrix or a mixed stack: entries in [-4, 4] or special values
    (signed zeros, subnormals, entries past ``_HALF_MAX``, NaN and inf),
    each matrix exactly symmetric, drifted by up to twice the gate, or drawn
    entry by entry, then scaled by a power of two up to 2^+-1100."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL_ENTRIES))
    mats = []
    for _ in range(k):
        a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        shape = draw(st.sampled_from(["symmetric", "drifted", "drawn"]))
        if shape != "drawn":
            upper = np.triu_indices(n, 1)
            a[upper] = a.T[upper]
        peak = np.abs(a).max()
        if shape == "drifted" and n > 1 and 0.0 < peak < np.inf:
            ratio = draw(st.floats(0.0, 2.0 * linalg.SYMMETRY_RTOL))
            a[0, 1] += ratio * fro_norm(a / peak) * peak / np.sqrt(2.0)
        scales = st.sampled_from([-1000, 1000, 1022]), st.integers(-1100, 1100)
        scale = draw(st.one_of(st.just(0), *scales))
        with np.errstate(all="ignore"):
            mats.append(np.ldexp(a, scale))
    return np.stack(mats) if k > 1 or draw(st.booleans()) else mats[0]


class TestSymmetrizeReference:
    """:func:`symmetrize` against :func:`reference_symmetrize`: the same
    errors, and the same bits except in two cases. The halves branch is
    chosen per matrix, so a matrix beside a huge one keeps the bits it gets
    alone; and an exactly symmetric matrix past ``_HALF_MAX`` comes back
    whole, where the halves rounded its odd subnormals."""

    @staticmethod
    def alone(m):
        want = reference_symmetrize(m)
        with np.errstate(invalid="ignore", over="ignore"):
            exact = not (m - m.T).any()
        moved = want != m if exact else np.zeros(m.shape, bool)
        if moved.any():
            assert np.abs(m).max() > linalg._HALF_MAX
            assert (np.abs(m[moved]) < np.finfo(np.float64).tiny).all()
        return np.where(moved, m, want)

    @settings(max_examples=400, deadline=None)
    @given(symmetrize_inputs())
    @example(np.stack([np.diag([1.7e308, 1.0]), np.diag([5e-324, 1.0])]))
    @example(np.array([[1.7e308, 1.5e-323], [1.5e-323, 1.0]]))
    def test_matches_the_reference(self, a):
        try:
            want = reference_symmetrize(a)
        except ValueError as exc:
            want = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = symmetrize(a)
            except ValueError as exc:
                got = exc
        if isinstance(want, ValueError):
            assert type(got) is type(want) and str(got) == str(want)
            assert got.index == want.index
            return
        n = a.shape[-1]
        expected = np.stack([self.alone(m) for m in a.reshape(-1, n, n)]).reshape(a.shape)
        assert same_bits(got, expected)
        if not (np.abs(a) > linalg._HALF_MAX).any():
            assert same_bits(got, want)

    def test_stacked_matrix_keeps_the_bits_it_gets_alone(self):
        # the halves branch used to be taken for the whole stack, rounding
        # the odd subnormal sum of a matrix beside a huge one
        tiny = 5e-324
        a = np.array([[1.0, 3 * tiny], [2 * tiny, 1.0]])
        stacked = symmetrize(np.stack([a, np.diag([1.7e308, 1.0])]))
        assert same_bits(stacked[0], symmetrize(a))
        assert stacked[0, 0, 1] == stacked[0, 1, 0] == 2 * tiny

    def test_exactly_symmetric_input_keeps_its_bits(self):
        # the halves branch used to round 1.5e-323 to 2e-323
        a = np.array([[1.7e308, 1.5e-323], [1.5e-323, 1.0]])
        assert same_bits(symmetrize(a), a)
        assert same_bits(symmetrize(np.stack([a, a])), np.stack([a, a]))

    def test_signed_zeros_as_the_symmetric_part_gives_them(self):
        a = np.array([[-0.0, -0.0, 0.0], [-0.0, 1.0, -0.0], [0.0, 0.0, -0.0]])
        assert same_bits(symmetrize(a), (a + a.T) / 2.0)

    def test_non_finite_input_raises_without_a_warning(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.eye(3)
            a[0, 2] = a[2, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    symmetrize(a)


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(3))
        np.testing.assert_allclose(
            dec.orthogonal @ dec.orthogonal.T, np.eye(3), atol=1e-12
        )

    def test_diagonal_is_sorted_ascending(self):
        dec = eig_sym(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 4.0])
        # eigenvectors are axis permutations up to sign
        np.testing.assert_allclose(np.abs(dec.orthogonal), np.eye(2)[::-1], atol=1e-12)

    def test_reconstruction_oracle_8x8(self):
        rng = np.random.default_rng(1)
        s = random_symmetric(rng, 8)
        dec = eig_sym(s)
        rebuilt = (dec.orthogonal * dec.eigenvalues) @ dec.orthogonal.T
        assert np.linalg.norm(rebuilt - s) <= 1e-8 * np.linalg.norm(s)

    @pytest.mark.parametrize("n", DIMS)
    def test_reconstruction_and_orthogonality_bounds(self, n):
        rng = np.random.default_rng(n)
        s = random_symmetric(rng, n)
        dec = eig_sym(s)
        assert np.linalg.norm(dec.orthogonal @ dec.orthogonal.T - np.eye(n)) <= 1e-10 * n
        assert np.linalg.norm(dec.recompose() - s) <= 1e-8 * np.linalg.norm(s)
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(2)
        s = random_symmetric(rng, 12)
        d1 = eig_sym(s.copy())
        d2 = eig_sym(s.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.orthogonal, d2.orthogonal)


class TestMatrixLog:
    def test_diagonal_elementwise(self):
        out = matrix_log(np.diag([np.e, np.e**2]))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(matrix_log(np.eye(5)), np.zeros((5, 5)), atol=1e-14)

    def test_roundtrip_50x50(self):
        rng = np.random.default_rng(3)
        s = gen_random_spd(50, 1e3, rng)
        back = matrix_exp(matrix_log(s))
        assert np.linalg.norm(back.array - s.array) <= 1e-8 * np.linalg.norm(s.array)

    def test_non_positive_spectrum_instructs_clamping(self):
        with pytest.raises(NonPositiveEigenvalueError, match="[Cc]lamp"):
            matrix_log(np.diag([1.0, -0.5]))


class TestMatrixExp:
    def test_exp_zero_is_identity(self):
        out = matrix_exp(np.zeros((4, 4)))
        np.testing.assert_allclose(out.array, np.eye(4), atol=1e-14)

    def test_diagonal_elementwise(self):
        out = matrix_exp(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out.array, np.diag([np.e, np.e**2]), atol=1e-12)

    def test_det_equals_exp_trace(self):
        # oracle: LU-based determinant against the trace exponential
        rng = np.random.default_rng(4)
        h = random_symmetric(rng, 6)
        lhs = np.linalg.det(matrix_exp(h).array)
        rhs = np.exp(np.trace(h))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_overflow_rejected_with_magnitude(self):
        with pytest.raises(EigenvalueOverflowError, match="7.5"):
            matrix_exp(np.diag([750.0, 1.0]))

    def test_nan_spectrum_rejected(self):
        # finite entries whose spectrum leaves float64's range (eigenvalue
        # 2e308) leave nothing to take exp() of: rejected, not returned as a
        # matrix of NaN. The symmetric part itself no longer overflows, so
        # the spectrum reads inf rather than nan, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenvalueOverflowError, match="magnitude inf") as info:
                matrix_exp(np.full((2, 2), 1e308))
        assert info.value.index is None

    def test_result_is_validated_spd(self):
        rng = np.random.default_rng(5)
        out = matrix_exp(random_symmetric(rng, 7))
        assert isinstance(out, SpdMatrix)
        assert out.min_eigenvalue > 0


class TestMatrixPower:
    def test_zeroth_power_is_identity(self):
        rng = np.random.default_rng(6)
        s = gen_random_spd(5, 10.0, rng)
        np.testing.assert_allclose(matrix_power(s, 0.0).array, np.eye(5), atol=1e-14)

    def test_diagonal_sqrt(self):
        out = matrix_power(np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(out.array, np.diag([2.0, 3.0]), atol=1e-12)

    def test_power_composition_recovers_input(self):
        rng = np.random.default_rng(7)
        s = gen_random_spd(10, 100.0, rng)
        partial = matrix_power(s, 0.3)
        back = matrix_power(partial, 1.0 / 0.3)
        assert np.linalg.norm(back.array - s.array) <= 1e-7 * np.linalg.norm(s.array)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(8)
        s = gen_random_spd(12, 1e4, rng)
        half = matrix_power(s, 0.5).array
        assert np.linalg.norm(half @ half - s.array) <= 1e-8 * np.linalg.norm(s.array)

    def test_inverse_sqrt_whitens(self):
        rng = np.random.default_rng(9)
        s = gen_random_spd(9, 1e3, rng)
        ihalf = matrix_power(s, -0.5).array
        assert np.linalg.norm(ihalf @ s.array @ ihalf - np.eye(9)) <= 1e-8 * 3

    def test_overflow_guard(self):
        with pytest.raises(EigenvalueOverflowError):
            matrix_power(np.diag([1e300, 1.0]), 3.0)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveEigenvalueError):
            matrix_power(np.diag([1.0, 0.0]), 0.5)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_reconstruction_20x20(self):
        rng = np.random.default_rng(10)
        s = gen_random_spd(20, 100.0, rng)
        ell = cholesky(s)
        assert np.allclose(ell, np.tril(ell))
        assert np.all(np.diag(ell) > 0)
        assert np.linalg.norm(ell @ ell.T - s.array) <= 1e-8 * np.linalg.norm(s.array)

    def test_semidefinite_names_pivot(self):
        bad = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(CholeskyPivotError, match="pivot index 2") as info:
            cholesky(bad)
        assert info.value.pivot == 2

    @staticmethod
    def leading_minor_oracle(arr, margin):
        """``(pivot, decided)``: the first leading minor whose smallest
        eigenvalue is below ``-margin`` (``None`` if none is), decided only
        when every earlier minor sits above ``+margin``."""
        for k in range(1, arr.shape[0] + 1):
            low = float(eigvals_sym(arr[:k, :k])[0])
            if low < -margin:
                return k - 1, True
            if low <= margin:
                return None, False
        return None, True

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
    )
    def test_pivot_matches_leading_minor_oracle(self, n, seed, negative_at):
        # S = L D L^T with unit lower-triangular L: the leading minor of order
        # k is positive definite exactly while d_1..d_k > 0, so the first
        # negative d sits at the first indefinite minor (none if past n)
        rng = np.random.default_rng(seed)
        ell = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
        signs = rng.choice([-1.0, 1.0], n)
        signs[:negative_at] = 1.0
        signs[negative_at : negative_at + 1] = -1.0
        d = signs * 10.0 ** rng.uniform(-2.0, 2.0, n)
        arr = symmetrize((ell * d) @ ell.T)
        margin = 1e-8 * float(np.linalg.norm(arr))
        pivot, decided = self.leading_minor_oracle(arr, margin)
        assume(decided)
        if pivot is None:
            ell_out = cholesky(arr)
            assert np.linalg.norm(ell_out @ ell_out.T - arr) <= 1e-10 * np.linalg.norm(arr)
            return
        with pytest.raises(CholeskyPivotError) as info:
            cholesky(arr)
        assert info.value.pivot == pivot
        assert str(info.value) == (
            f"Cholesky failed at pivot index {pivot}: leading minor of "
            f"order {pivot + 1} is not positive definite"
        )

    def test_no_eigensolves_on_success_or_failure(self):
        s = gen_random_spd(8, 100.0, np.random.default_rng(12))
        with count_eig_calls() as c:
            cholesky(s)
        assert (c.count, c.values_only) == (0, 0)
        with count_eig_calls() as c, pytest.raises(CholeskyPivotError):
            cholesky(np.diag([1.0, 2.0, 3.0, -1.0, 5.0]))
        assert (c.count, c.values_only) == (0, 0)


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det(np.eye(4)) == 0.0

    def test_one_by_one(self):
        assert log_det(np.array([[5.40]])) == pytest.approx(np.log(5.40), abs=1e-12)

    def test_matches_cholesky_route(self):
        rng = np.random.default_rng(11)
        s = gen_random_spd(15, 1e3, rng)
        via_chol = 2.0 * np.sum(np.log(np.diag(cholesky(s))))
        assert abs(log_det(s) - via_chol) <= 1e-8 * max(1.0, abs(via_chol))

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveEigenvalueError):
            log_det(np.diag([2.0, -1.0]))


class TestRoundtripInvariants:
    @pytest.mark.parametrize("n", DIMS)
    def test_exp_log_roundtrip_to_condition_1e6(self, n):
        rng = np.random.default_rng(100 + n)
        s = gen_random_spd(n, 1e6, rng)
        back = matrix_exp(matrix_log(s))
        assert np.linalg.norm(back.array - s.array) <= 1e-8 * np.linalg.norm(s.array)

    @pytest.mark.parametrize("n", DIMS)
    def test_log_exp_roundtrip(self, n):
        # spectrum bounded as for log S with cond(S) <= 1e6
        rng = np.random.default_rng(200 + n)
        h = matrix_log(gen_random_spd(n, 1e6, rng))
        back = matrix_log(matrix_exp(h))
        assert np.linalg.norm(back - h) <= 1e-8 * max(1.0, np.linalg.norm(h))

    @pytest.mark.parametrize("n", [2, 8, 50])
    def test_trace_det_identity(self, n):
        rng = np.random.default_rng(300 + n)
        h = random_symmetric(rng, n)
        log_determinant = log_det(matrix_exp(h))
        assert abs(log_determinant - np.trace(h)) <= 1e-8 * max(1.0, abs(np.trace(h)))


class TestDiagonalCommutingOracle:
    """Matrix functions on diagonals equal the elementwise scalar function."""

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6)
    )
    def test_log_exp_power_on_diagonals(self, diag):
        d = np.asarray(diag)
        m = np.diag(d)
        np.testing.assert_allclose(matrix_log(m), np.diag(np.log(d)), atol=1e-12)
        np.testing.assert_allclose(
            matrix_exp(np.diag(np.log(d))).array, m, atol=1e-12 * max(1.0, d.max())
        )
        np.testing.assert_allclose(
            matrix_power(m, 0.7).array, np.diag(d**0.7), atol=1e-12
        )


class TestSpdMatrix:
    def test_from_array_validates_and_caches(self):
        rng = np.random.default_rng(12)
        s = gen_random_spd(6, 50.0, rng)
        again = SpdMatrix.from_array(s.array)
        w = np.linalg.eigvalsh(s.array)
        assert again.min_eigenvalue == pytest.approx(w[0], rel=1e-10)
        assert again.max_eigenvalue == pytest.approx(w[-1], rel=1e-10)
        assert again.condition_number == pytest.approx(w[-1] / w[0], rel=1e-9)

    def test_rejects_semidefinite(self):
        with pytest.raises(NonPositiveEigenvalueError):
            SpdMatrix.from_array(np.diag([1.0, 0.0]))

    def test_array_is_read_only(self):
        s = SpdMatrix.from_array(np.eye(3))
        with pytest.raises(ValueError):
            np.asarray(s)[0, 0] = 2.0

    def test_asarray_unwraps(self):
        # asarray shares the buffer, also at float64; array or a cast copies
        s = SpdMatrix.from_array(2.0 * np.eye(2))
        np.testing.assert_array_equal(np.asarray(s), 2.0 * np.eye(2))
        assert np.asarray(s) is s.array
        assert np.asarray(s, dtype=np.float64) is s.array
        for copy in (np.array(s), np.array(s, copy=True), np.asarray(s, dtype=np.float32)):
            assert not np.shares_memory(copy, s.array)
            assert copy.flags.writeable
        np.testing.assert_array_equal(np.array(s), s.array)
        with pytest.raises(ValueError):
            np.array(s, dtype=np.float32, copy=False)


class TestEigCallCounting:
    def test_counts_nested_and_scoped(self):
        s = np.eye(4)
        with count_eig_calls() as outer:
            eig_sym(s)
            with count_eig_calls() as inner:
                eig_sym(s)
            eig_sym(s)
        assert inner.count == 1
        assert outer.count == 3

    def test_values_only_solves_counted(self):
        s = SpdMatrix.from_array(np.diag([1.0, 2.0, 3.0]))
        trusted = matrix_exp(np.diag([0.0, 1.0, 2.0]))
        for solve, solves in (
            (lambda: SpdMatrix.from_array(np.eye(3)), 1),
            (lambda: log_det(np.eye(3)), 1),
            # from_array keeps the spectrum it validated; a trusted instance has none
            (lambda: log_det(s), 0),
            (lambda: log_det(trusted), 1),
            (lambda: eigvals_sym(np.eye(3)), 1),
        ):
            with count_eig_calls() as c:
                solve()
            assert (c.count, c.values_only) == (solves, solves)
        with count_eig_calls() as c:
            eig_sym(np.eye(3))
            matrix_log(np.stack([np.eye(3)] * 5))
            eigvals_sym(np.zeros((3, 3)))
        assert (c.count, c.values_only) == (7, 1)


class TestEigvalsSym:
    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_matches_full_decomposition(self, n):
        for s in TestStacks.spd_stack(n, 4, n):
            w = eigvals_sym(s)
            assert w.shape == (n,)
            np.testing.assert_allclose(w, eig_sym(s).eigenvalues, rtol=1e-12, atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigvals_sym(np.ones((2, 3)))

    @pytest.mark.parametrize("name, solve", [("eigh", eig_sym), ("eigvalsh", eigvals_sym)])
    def test_convergence_failure_names_input(self, monkeypatch, name, solve):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(EigenConvergenceError, match=r"shape \(2, 2\).*2\.0"):
            solve(2.0 * np.eye(2) / np.sqrt(2.0))
        if name == "eigh":
            with pytest.raises(EigenConvergenceError, match=r"shape \(3, 2, 2\).*2\.0"):
                matrix_log(np.stack([np.eye(2), 2.0 * np.eye(2) / np.sqrt(2.0), np.eye(2)]))


class TestOneBackend:
    """spdmix depends on numpy alone: every eigensolve, factorization and
    solve runs on numpy's one LAPACK/BLAS build, and every symmetric
    eigensolve goes through ``spdmix.linalg``."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "spdmix"

    def modules(self):
        paths = sorted(self.SRC.rglob("*.py"))
        assert paths
        return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]

    def test_scipy_imports_confined(self):
        # confined to nothing: no module of the package imports scipy
        for name, tree in self.modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    roots = {(node.module or "").split(".")[0]}
                else:
                    continue
                assert "scipy" not in roots, (name, node.lineno)

    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC.parent), env.get("PYTHONPATH")) if p
        )
        probe = (
            "import sys, spdmix.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_threads_and_ctypes_only_in_linalg(self):
        # the worker pool and the OpenBLAS thread pin have one home
        for name, tree in self.modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    roots = {(node.module or "").split(".")[0]}
                else:
                    continue
                confined = roots & {"ctypes", "concurrent"}
                assert name == "linalg.py" or not confined, (name, node.lineno)

    def test_cli_import_starts_no_thread(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC.parent), env.get("PYTHONPATH")) if p
        )
        probe = (
            "import threading, spdmix.cli, spdmix.linalg; "
            "print(threading.active_count(), spdmix.linalg._POOL)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["1", "None"]

    def test_numpy_eigensolvers_only_in_linalg(self):
        for name, tree in self.modules():
            calls = [
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr.startswith("eig")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            ]
            assert name == "linalg.py" or not calls, (name, calls)


class TestStacks:
    """Stacked inputs ``(k, n, n)``: one call gives each matrix the bits
    it gets alone, counts one decomposition per matrix, and checks every
    matrix on its own. Any other rank is rejected."""

    @staticmethod
    def spd_stack(seed, count, n):
        rng = np.random.default_rng(seed)
        return np.stack([gen_random_spd(n, 100.0, rng).array for _ in range(count)])

    @pytest.mark.parametrize("n", [1, 5, 8, 50, 120, 360])
    def test_matches_single_calls_bitwise(self, n):
        stack = self.spd_stack(n, 6, n)
        logs = matrix_log(stack)
        exps = matrix_exp(logs)
        assert isinstance(exps, np.ndarray) and exps.shape == stack.shape
        for k in range(len(stack)):
            assert np.array_equal(logs[k], matrix_log(stack[k]))
            assert np.array_equal(exps[k], matrix_exp(logs[k]).array)
        for part in (slice(0, 1), slice(1, 4), slice(4, 6)):
            assert np.array_equal(matrix_log(stack[part]), logs[part])

    def test_higher_rank_rejected(self):
        stack = self.spd_stack(9, 6, 4).reshape(2, 3, 4, 4)

        for fn in (symmetrize, matrix_log, matrix_exp):
            with pytest.raises(ValueError, match=r"stack \(k, n, n\).*\(2, 3, 4, 4\)"):
                fn(stack)

    def test_one_matrix_functions_reject_a_stack(self):
        stack = np.stack([2.0 * np.eye(3), 3.0 * np.eye(3)])
        semidefinite = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        cases = (
            (eig_sym, stack),
            (eigvals_sym, stack),
            (lambda a: EigenDecomposition(a, np.ones(a.shape[:-1])).recompose(), stack),
            (lambda a: spdness_report(a, 3, 10), stack),
            (log_det, stack),
            (lambda a: matrix_power(a, 0.0), stack),
            (lambda a: matrix_power(a, 0.5), stack),
            (lambda a: matrix_power(eig_sym(a), 0.5), stack),
            (SpdMatrix.from_array, stack),
            (cholesky, stack),
            (cholesky, semidefinite),
        )
        for fn, arg in cases:
            with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3, 3\)"):
                fn(arg)

    def test_counts_one_per_matrix(self):
        stack = self.spd_stack(10, 7, 3)
        with count_eig_calls() as c:
            matrix_log(stack)
        assert c.count == 7
        with count_eig_calls() as c:
            matrix_exp(matrix_log(stack))
        assert c.count == 14

    def test_non_positive_matrix_named(self):
        stack = self.spd_stack(11, 5, 3)
        stack[3] = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(NonPositiveEigenvalueError, match="matrix 3 of the stack") as info:
            matrix_log(stack)
        assert info.value.index == 3

    def test_overflow_matrix_named(self):
        stack = np.zeros((4, 2, 2))
        stack[2] = np.diag([750.0, 1.0])
        with pytest.raises(EigenvalueOverflowError, match="matrix 2 of the stack") as info:
            matrix_exp(stack)
        assert info.value.index == 2

    def test_asymmetric_matrix_named(self):
        stack = np.stack([np.eye(2)] * 4)
        stack[1] = [[1.0, 2.0], [0.0, 1.0]]
        for fn in (symmetrize, matrix_log, matrix_exp):
            with pytest.raises(ValueError, match="matrix 1 of the stack.*not symmetric"):
                fn(stack)

    def test_symmetry_tolerance_is_per_matrix(self):
        # a drift small against a large matrix's norm still rejects a small one
        stack = np.stack([1e6 * np.eye(2), np.eye(2)])
        stack[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="matrix 1 of the stack"):
            symmetrize(stack)
        assert np.array_equal(symmetrize(stack[:1]), stack[:1])

    def test_non_finite_matrix_named(self):
        stack = np.stack([np.eye(2)] * 3)
        stack[2, 0, 0] = np.inf
        with pytest.raises(ValueError, match="matrix 2 of the stack.*finite"):
            matrix_log(stack)

    def test_empty_stack(self):
        assert matrix_log(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_chunked_log_names_whole_stack_position(self, monkeypatch):
        # two matrices per chunk: the bad matrix sits in a later chunk
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 3 * 3)
        stack = self.spd_stack(12, 6, 3)
        logs = matrix_log(stack)
        for part in (slice(0, 2), slice(2, 4), slice(4, 6)):
            assert np.array_equal(matrix_log(stack[part]), logs[part])
        bad = stack.copy()
        bad[5] = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(NonPositiveEigenvalueError) as info:
            matrix_log(bad)
        assert info.value.index == 5
        assert str(info.value).startswith("matrix 5 of the stack: matrix_log requires")
        bad = stack.copy()
        bad[3, 0, 1] += 1.0
        with pytest.raises(ValueError, match="^matrix 3 of the stack: matrix is not symmetric"):
            matrix_log(bad)

    def test_chunked_exp_names_whole_stack_position(self, monkeypatch):
        # two matrices per chunk: each bad matrix sits in a later chunk
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 3 * 3)
        logs = matrix_log(self.spd_stack(16, 6, 3))
        exps = matrix_exp(logs)
        for part in (slice(0, 2), slice(2, 4), slice(4, 6)):
            assert np.array_equal(matrix_exp(logs[part]), exps[part])
        bad = logs.copy()
        bad[5] = np.diag([750.0, 1.0, 2.0])
        with pytest.raises(EigenvalueOverflowError) as info:
            matrix_exp(bad)
        assert info.value.index == 5
        assert str(info.value) == (
            "matrix 5 of the stack: matrix_exp eigenvalue magnitude 7.500e+02 "
            "exceeds the float64 limit 700"
        )
        bad = logs.copy()
        bad[3, 0, 1] += 1.0
        with pytest.raises(ValueError, match="^matrix 3 of the stack: matrix is not symmetric"):
            matrix_exp(bad)
        bad = logs.copy()
        bad[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix 2 of the stack: matrix contains non-f"):
            matrix_exp(bad)

    @pytest.mark.parametrize("per_chunk", [2, 6])
    def test_input_fault_wins_over_spectrum_fault(self, monkeypatch, per_chunk):
        # a non-positive matrix in chunk 0 and an asymmetric one in chunk 2:
        # every input is vetted before any spectrum, whatever the chunk size
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * 3 * 3)
        bad = self.spd_stack(12, 6, 3)
        bad[1] = np.diag([1.0, -0.5, 2.0])
        bad[4, 0, 1] += 1.0
        with pytest.raises(ValueError) as info:
            matrix_log(bad)
        assert type(info.value) is linalg._StackError
        assert info.value.index == 4
        assert str(info.value).startswith("matrix 4 of the stack: matrix is not symmetric")

    def test_rejected_spectrum_emits_no_warning(self):
        # log, exp and powers of a spectrum the check rejects are computed
        # with floating-point warnings off, on any thread
        stack = self.spd_stack(18, 6, 3)
        zero, negative = stack.copy(), stack.copy()
        zero[4] = np.diag([1.0, 0.0, 2.0])
        negative[1] = np.diag([1.0, -1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (zero, negative, zero[4], negative[1]):
                with pytest.raises(NonPositiveEigenvalueError):
                    matrix_log(bad)
            for big in (np.diag([800.0, 1.0, 2.0]), 800.0 * stack):
                with pytest.raises(EigenvalueOverflowError):
                    matrix_exp(big)
            with pytest.raises(NonPositiveEigenvalueError):
                matrix_power(zero[4], -0.5)
            with pytest.raises(EigenvalueOverflowError):
                matrix_power(stack[0], 1e308)


@pytest.mark.skipif(linalg._SET_THREADS is None, reason="numpy's OpenBLAS has no thread setter")
class TestPool:
    """Stacks split across a pool while the caller waits, with OpenBLAS on
    one thread per matrix: the worker count never changes a bit."""

    @staticmethod
    def results(stack):
        logs = matrix_log(stack)
        return [logs, np.asarray(matrix_exp(logs))]

    @pytest.mark.parametrize("n, count", [(8, 7), (50, 5), (120, 4), (360, 3)])
    def test_worker_counts_agree_bitwise(self, workers, n, count):
        stack = TestStacks.spd_stack(n + 1, count, n)
        by_workers = []
        for k in (1, 2, 3):
            workers(k)
            by_workers.append(self.results(stack))
            assert (linalg._POOL is None) == (k == 1)
        for other in by_workers[1:]:
            for got, want in zip(other, by_workers[0]):
                assert np.array_equal(got, want)
        for j in range(count):
            for got, want in zip(self.results(stack[j]), by_workers[0]):
                assert np.array_equal(got, want[j])

    def test_split_counts_one_solve_per_matrix(self, workers):
        workers(3)
        stack = TestStacks.spd_stack(13, 7, 4)
        with count_eig_calls() as c:
            matrix_exp(matrix_log(stack))
            matrix_log(stack[:5])
            eigvals_sym(stack[0])
        assert (c.count, c.values_only) == (7 + 7 + 5 + 1, 1)
        assert linalg._POOL is not None

    def test_one_round_trip_per_stack(self, monkeypatch, workers):
        # a stacked log or exp hands the whole stack to the pool once, however
        # many chunks it spans: the solve, the function of the spectrum and
        # the recompose are one task per part. A matrix of more bytes than a
        # part holds is a part of its own
        workers(2)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 3 * 8 * 4 * 4)
        calls, parts = [], []
        pinned, eigh = linalg._pinned, np.linalg.eigh

        def spy(fn, total, row_bytes=0):
            calls.append(total)
            return pinned(fn, total, row_bytes)

        def solve(a):
            parts.append(len(a))
            return eigh(a)

        monkeypatch.setattr(linalg, "_pinned", spy)
        monkeypatch.setattr(np.linalg, "eigh", solve)
        stack = TestStacks.spd_stack(15, 7, 4)
        with count_eig_calls() as c:
            logs = matrix_log(stack)
            assert calls == [7] and parts == [1] * 7
            calls.clear()
            parts.clear()
            matrix_exp(logs)
            assert calls == [7] and parts == [1] * 7
        assert c.count == 14

    def test_parts_are_cut_by_bytes(self, workers):
        # below the per-part cap, a stack of one chunk or less keeps its
        # _PARTS_PER_THREAD parts per thread; above it, a part is one matrix
        workers(2)
        cap = linalg._CHUNK_BYTES // (linalg._PARTS_PER_THREAD * 2)
        for n in (8, 50, 120, 256):
            per_chunk = linalg._CHUNK_BYTES // (8 * n * n)
            for total in (2, 7, per_chunk // 2, per_chunk):
                count = min(total, linalg._PARTS_PER_THREAD * 2)
                assert linalg._ends(total, 8 * n * n) == [total * p // count for p in range(count + 1)]
        assert 8 * 360 * 360 > cap
        for total in (2, 4, 55):
            assert linalg._ends(total, 8 * 360 * 360) == list(range(total + 1))
        ends = linalg._ends(3 * 209, 8 * 50 * 50)
        assert len(ends) - 1 == 24
        assert max(b - a for a, b in zip(ends, ends[1:])) * 8 * 50 * 50 <= cap + 8 * 50 * 50

    def test_solves_run_pinned_and_restore_the_count(self, monkeypatch, workers):
        workers(2)
        seen = []
        eigh = np.linalg.eigh

        def spy(a):
            seen.append(linalg._SET_THREADS(1))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        previous = linalg._SET_THREADS(2)
        try:
            matrix_log(np.eye(3))
            matrix_log(TestStacks.spd_stack(14, 4, 3))
        finally:
            assert linalg._SET_THREADS(previous) == 2
        assert len(seen) > 2 and set(seen) == {1}

    def test_convergence_failure_in_a_worker(self, monkeypatch, workers):
        workers(2)
        eigh = np.linalg.eigh

        def fail_late(a):
            if a[0, 0, 0] == 3.0:
                raise np.linalg.LinAlgError("did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", fail_late)
        stack = np.stack([np.eye(2), np.eye(2), 3.0 * np.eye(2), np.eye(2)])
        with pytest.raises(EigenConvergenceError, match=r"shape \(4, 2, 2\)"):
            matrix_log(stack)

    def test_failed_part_leaves_no_part_running(self, monkeypatch, workers):
        # the first part fails at once: the call returns only after the parts
        # already running finish, with the count restored and the lock free
        workers(2)
        running = []
        eigh = np.linalg.eigh

        def solve(a):
            if a[0, 0, 0] == 3.0:
                raise np.linalg.LinAlgError("did not converge")
            running.append(id(a))
            time.sleep(0.02)
            running.remove(id(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", solve)
        stack = np.stack([3.0 * np.eye(2)] + [np.eye(2)] * 7)
        previous = linalg._SET_THREADS(2)
        try:
            with pytest.raises(EigenConvergenceError):
                matrix_log(stack)
            assert not running and not linalg._PINNED.locked()
        finally:
            assert linalg._SET_THREADS(previous) == 2

    def test_concurrent_callers(self, workers):
        # callers on more threads than cores, switching often: every result
        # keeps its bits and the thread count is restored once all are done
        workers(4)
        stacks = [TestStacks.spd_stack(20 + k, 5, 6) for k in range(4)]
        want = [self.results(stack) for stack in stacks]
        got = [[] for _ in stacks]

        def solve(k):
            for _ in range(10):
                got[k].append(self.results(stacks[k]))

        previous = linalg._SET_THREADS(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            assert linalg._SET_THREADS(previous) == 2
        for runs, expected in zip(got, want):
            assert len(runs) == 10
            for run in runs:
                for a, b in zip(run, expected):
                    assert np.array_equal(a, b)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_solves_split_stacks(self):
        # the child inherits the pool object but none of its threads
        probe = "\n".join([
            "import os, signal, numpy as np",
            "from spdmix import linalg",
            "linalg._WORKERS = 2",
            "stack = np.stack([np.eye(3)] * 4)",
            "linalg.matrix_log(stack)",
            "assert linalg._POOL is not None",
            "pid = os.fork()",
            "if pid == 0:",
            "    signal.alarm(30)",  # a child stuck on the dead pool ends
            "    linalg.matrix_log(stack)",
            "    os._exit(0)",
            "print(os.waitpid(pid, 0)[1])",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(TestOneBackend.SRC.parent), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "0"

    @staticmethod
    def bounded(fn, seconds=60.0):
        """``fn()`` on a daemon thread: a call that deadlocks fails the test
        after ``seconds`` instead of hanging the suite."""
        done = {}

        def target():
            try:
                done["value"] = fn()
            except BaseException as exc:  # re-raised on the test's thread
                done["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        if thread.is_alive():
            # end the deadlock, so that no thread outlives the test: the pool
            # takes no more parts and the blocked acquire goes through
            if linalg._POOL is not None:
                linalg._POOL.shutdown(wait=False, cancel_futures=True)
            if linalg._PINNED.locked():
                linalg._PINNED.release()
            thread.join(seconds)
            pytest.fail("a pinned call inside a pool task did not finish")
        if "error" in done:
            raise done["error"]
        return done["value"]

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_pool_task_may_call_the_matrix_functions(self, monkeypatch, workers, count):
        # each part of the outer call takes stacked logs and exps of its rows,
        # which run inline on its thread; every solve is counted once, in the
        # scope of the thread that made the outer call, even with more
        # workers than cores switching often
        workers(count)
        monkeypatch.setattr(linalg, "_PINNED", threading.Lock())
        stack = TestStacks.spd_stack(31, 12, 4)
        want = self.results(stack)

        def run():
            out = np.empty((len(stack), 2) + stack.shape[1:])

            def task(part):
                logs = matrix_log(stack[part])
                out[part] = np.stack([logs, matrix_exp(logs)], axis=1)

            linalg._pinned(task, len(stack))
            return out

        def nested():
            with count_eig_calls() as c:
                runs = [run() for _ in range(50)]
            return runs, c.count

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs, solves = self.bounded(nested)
        finally:
            sys.setswitchinterval(interval)
        assert solves == 50 * 2 * len(stack)
        for run in runs:
            assert np.array_equal(run[:, 0], want[0])
            assert np.array_equal(run[:, 1], want[1])
        assert (linalg._POOL is None) == (count == 1)
        assert not linalg._PINNED.locked()

    def session_case(self, monkeypatch, fn):
        """``fn()`` under :meth:`bounded` with every solve lingering a little,
        so that parts are still out when a stream is left; afterwards the
        lock is free, the OpenBLAS count restored and no part running."""
        running = []
        eigh = np.linalg.eigh

        def solve(a):
            running.append(id(a))
            try:
                time.sleep(0.005)
                return eigh(a)
            finally:
                running.remove(id(a))

        monkeypatch.setattr(np.linalg, "eigh", solve)
        previous = linalg._SET_THREADS(2)
        try:
            return self.bounded(fn)
        finally:
            assert not running and not linalg._PINNED.locked()
            assert linalg._HOLDER is None
            assert linalg._SET_THREADS(previous) == 2

    @staticmethod
    def mixing(monkeypatch):
        """Nine rmixup outputs at n=3, in chunks of two."""
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 3 * 3)
        ds = LabeledDataset(TestStacks.spd_stack(44, 6, 3), np.linspace(0.0, 1.0, 6), "regression")
        config = MixConfig("rmixup", seed=4)
        return ds, config, MixStream(ds, config, 9)

    @pytest.mark.parametrize("count", [1, 2])
    def test_stream_left_after_its_first_chunk(self, monkeypatch, workers, count):
        # chunks of two: the consumer breaks while the second is out
        workers(count)
        ds, config, stream = self.mixing(monkeypatch)

        def first_chunk():
            for rows, part in stream:
                return rows, part.copy()

        rows, part = self.session_case(monkeypatch, first_chunk)
        assert rows == slice(0, 2)
        assert np.array_equal(part, mix_dataset(ds, config, 2)[0].matrices)

    @pytest.mark.parametrize("count", [1, 2])
    def test_writer_raises_mid_stream(self, monkeypatch, workers, count, tmp_path):
        # the writer has room for three matrices: the second chunk of two
        # does not fit, and its error leaves the stream mid-way
        workers(count)
        _, _, stream = self.mixing(monkeypatch)
        path = tmp_path / "m.spdb"

        def write():
            with pytest.raises(ValueError, match="does not fit"):
                with SpdbWriter(path, 3, 3, "regression") as out:
                    for _, part in stream:
                        out.write(part)

        self.session_case(monkeypatch, write)
        assert not path.exists()

    @pytest.mark.parametrize("count", [1, 2])
    def test_matrix_functions_between_chunks(self, monkeypatch, workers, count):
        # the consumer's own stacked log runs inline, pinned, while the next
        # chunk is out, with the bits of a call made outside any stream
        workers(count)
        ds, config, stream = self.mixing(monkeypatch)
        want = matrix_log(ds.matrices)

        def consume():
            parts, logs = [], []
            for _, part in stream:
                parts.append(part.copy())
                logs.append(matrix_log(ds.matrices))
            return np.concatenate(parts), logs

        mixed, logs = self.session_case(monkeypatch, consume)
        assert len(logs) == 5 and all(np.array_equal(got, want) for got in logs)
        assert np.array_equal(mixed, mix_dataset(ds, config, 9)[0].matrices)

    @pytest.mark.parametrize("count", [1, 2])
    def test_overflow_in_the_chunk_after_a_yielded_one(self, monkeypatch, workers, count):
        # as in the CLI's overflowing mix: output 5 is the first of ten
        # mixes to overflow, in the third chunk of two; the two chunks before
        # it were yielded whole and the error names output 5
        workers(count)
        logs = [[0.0, 0.5], [0.3, 0.1], [0.2, 0.4], [0.1, 0.0], [705.0, 0.0], [705.0, 0.0]]
        ds = LabeledDataset(np.stack([np.diag(np.exp(d)) for d in logs]),
                            np.linspace(0.0, 1.0, 6), "regression")
        config = MixConfig("rmixup", seed=2)
        stream = MixStream(ds, config, 10)
        written = []

        def consume():
            with pytest.raises(linalg.EigenvalueOverflowError) as info:
                for _, part in stream:
                    written.append(part.copy())
            return info.value

        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 2 * 2)
        error = self.session_case(monkeypatch, consume)
        assert error.index == 5
        assert str(error).startswith("mix 5 of samples s000004 and s000005: matrix_exp eigenvalue")
        assert np.array_equal(np.concatenate(written), mix_dataset(ds, config, 4)[0].matrices)

    @pytest.mark.parametrize("count", [1, 2])
    def test_regress_kernel_error_while_the_next_chunk_is_out(self, monkeypatch, workers, count):
        # six pairs of three rows in chunks of nine: the first chunk's kernel
        # check raises while the second chunk's line points are out
        workers(count)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 9 * 8 * 3 * 3)
        ds = LabeledDataset(TestStacks.spd_stack(45, 7, 3), np.linspace(0.0, 1.0, 7), "regression")
        first, second = np.arange(6), np.arange(1, 7)
        logs = matrix_log(ds.matrices)
        sigma = float(np.sqrt(np.max(fro_norm(logs[first] - logs[second])) / 200.0))
        near = regress._row_distances

        def far(mats, logs, i, j, lam):
            dist = near(mats, logs, i, j, lam)
            dist[(i == 0) & (lam == 0.5), 2:] *= 1e6
            return dist

        monkeypatch.setattr(regress, "_row_distances", far)

        def run():
            with pytest.raises(ValueError, match="the line point at lam=0.5 of the pair of matrices 0 and 1"):
                regress.theorem1_trials(ds, first, second, [0.25, 0.5, 0.75], sigma)

        self.session_case(monkeypatch, run)

    def test_without_setter_no_pool_and_same_bits(self, monkeypatch, workers):
        workers(2)
        stacks = [TestStacks.spd_stack(n + 2, 4, n) for n in (8, 50, 120)]
        pinned = [self.results(stack) for stack in stacks]
        workers(2)
        monkeypatch.setattr(linalg, "_SET_THREADS", None)
        for stack, want in zip(stacks, pinned):
            for got, expected in zip(self.results(stack), want):
                assert np.array_equal(got, expected)
        assert linalg._POOL is None


class TestThreadSetter:
    def test_falls_back_to_get_and_set(self):
        threads = [3]

        def put(count):
            threads[0] = count

        lib = SimpleNamespace(
            scipy_openblas_set_num_threads64_=put,
            scipy_openblas_get_num_threads64_=lambda: threads[0],
        )
        setter = linalg._setter_of(lib)
        assert setter(1) == 3 and threads == [1]
        assert setter(3) == 1 and threads == [3]

    def test_no_setter(self):
        assert linalg._setter_of(SimpleNamespace()) is None
        lib = SimpleNamespace(scipy_openblas_set_num_threads64_=lambda count: None)
        assert linalg._setter_of(lib) is None


class TestZeroDimension:
    @pytest.mark.parametrize(
        "call, shape",
        [(SpdMatrix.from_array, (0, 0)), (matrix_log, (0, 0)), (matrix_log, (2, 0, 0)),
         (matrix_exp, (2, 0, 0))],
        ids=["from_array", "matrix_log", "matrix_log-stack", "matrix_exp-stack"],
    )
    def test_empty_matrix_is_a_value_error(self, call, shape):
        with pytest.raises(ValueError, match=rf"size n >= 1, got shape \({', '.join(map(str, shape))}"):
            call(np.empty(shape))

    def test_zero_count_stack_stays_valid(self):
        assert matrix_log(np.empty((0, 3, 3))).shape == (0, 3, 3)
