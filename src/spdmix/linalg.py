"""Dense symmetric linear algebra: eigendecomposition and matrix functions.

Every matrix function here (log, exp, real powers) routes through a single
symmetric eigendecomposition rather than Pade approximants or
scaling-and-squaring, which keeps ``matrix_exp`` and ``matrix_log`` exact
mutual inverses up to the accuracy of the decomposition itself.

All inputs and outputs are double-precision dense arrays. Functions are pure
and thread-safe; :class:`SpdMatrix` instances are immutable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, eigh
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "CholeskyPivotError",
    "EigenConvergenceError",
    "EigenDecomposition",
    "EigenvalueOverflowError",
    "EigCallCounter",
    "NonPositiveEigenvalueError",
    "SpdMatrix",
    "cholesky",
    "count_eig_calls",
    "eig_sym",
    "fro_norm",
    "log_det",
    "matmul",
    "matrix_exp",
    "matrix_log",
    "matrix_power",
    "symmetrize",
]

# Relative Frobenius asymmetry tolerated before an input is rejected.
SYMMETRY_RTOL = 1e-10
# |eigenvalue| bound beyond which exp() overflows / underflows in float64.
EXP_EIGENVALUE_LIMIT = 700.0


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class NonPositiveEigenvalueError(ValueError):
    """An operation that requires a strictly positive spectrum saw mu <= 0."""


class EigenvalueOverflowError(ValueError):
    """exp() of an eigenvalue would overflow or underflow float64."""


class CholeskyPivotError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm as a plain reduction.

    Deliberately avoids ``np.linalg.norm``: numpy and scipy ship separate
    BLAS thread pools here, and a numpy BLAS call leaves its pool spinning,
    which slows the next scipy LAPACK call several-fold.
    """
    arr = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.einsum("...i,...i->", arr.ravel(), arr.ravel())))


def matmul(a: np.ndarray, b: np.ndarray, *, transpose_b: bool = False) -> np.ndarray:
    """float64 matrix product through scipy's BLAS (see :func:`fro_norm`)."""
    return dgemm(1.0, a, b, trans_b=1 if transpose_b else 0)


def symmetrize(a: np.ndarray, *, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return the exactly symmetric part of ``a``, rejecting real asymmetry.

    Floating-point drift from repeated mixing is folded back by ``(A + A^T)/2``
    as long as the asymmetry is below ``rtol`` times the Frobenius norm;
    anything larger is treated as a caller bug and raises ``ValueError``.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    norm = fro_norm(arr)
    drift = fro_norm(arr - arr.T)
    if drift > rtol * max(norm, np.finfo(np.float64).tiny):
        raise ValueError(
            f"matrix is not symmetric: asymmetry {drift:.3e} exceeds "
            f"{rtol:.1e} * ||A||_F = {rtol * norm:.3e}"
        )
    return (arr + arr.T) / 2.0


class EigenDecomposition(NamedTuple):
    """Orthogonal basis and ascending eigenvalues of a symmetric matrix."""

    orthogonal: np.ndarray
    eigenvalues: np.ndarray

    def recompose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild ``O diag(values) O^T`` (defaults to the stored spectrum)."""
        w = self.eigenvalues if values is None else values
        out = matmul(self.orthogonal * w, self.orthogonal, transpose_b=True)
        return (out + out.T) / 2.0


class EigCallCounter:
    """Counts eigendecompositions observed while a context is active."""

    def __init__(self) -> None:
        self.count = 0


_ACTIVE_COUNTERS: list[EigCallCounter] = []
_COUNTER_LOCK = threading.Lock()


@contextmanager
def count_eig_calls() -> Iterator[EigCallCounter]:
    """Context manager instrumenting how many times ``eig_sym`` runs."""
    counter = EigCallCounter()
    with _COUNTER_LOCK:
        _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        with _COUNTER_LOCK:
            _ACTIVE_COUNTERS.remove(counter)


def eig_sym(a: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with a symmetric-specific solver.

    Returns eigenvalues in ascending order and an orthogonal eigenvector
    matrix ``O`` with ``O diag(mu) O^T`` reconstructing the input. The call is
    deterministic for identical input bits.

    Raises
    ------
    EigenConvergenceError
        If the underlying solver does not converge; the message carries the
        matrix dimension and Frobenius norm for diagnosis.
    """
    sym = symmetrize(a)
    if _ACTIVE_COUNTERS:
        with _COUNTER_LOCK:
            for counter in _ACTIVE_COUNTERS:
                counter.count += 1
    try:
        w, v = eigh(sym, check_finite=False)
    except LinAlgError as exc:
        raise EigenConvergenceError(
            f"symmetric eigensolver failed to converge on a "
            f"{sym.shape[0]}x{sym.shape[0]} matrix with ||A||_F = "
            f"{fro_norm(sym):.6e}"
        ) from exc
    return EigenDecomposition(orthogonal=v, eigenvalues=w)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    ``min_eigenvalue`` and ``max_eigenvalue`` are cached at validation time;
    the wrapped array is read-only. ``np.asarray`` unwraps instances
    transparently, so they can be passed anywhere a plain array is accepted.
    """

    array: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float

    @classmethod
    def from_array(cls, a: np.ndarray, *, rtol: float = SYMMETRY_RTOL) -> "SpdMatrix":
        """Validate ``a`` (symmetry, finiteness, strictly positive spectrum)."""
        if isinstance(a, SpdMatrix):
            return a
        arr = symmetrize(a, rtol=rtol)
        w = eigh(arr, eigvals_only=True, check_finite=False)
        if w[0] <= 0.0:
            raise NonPositiveEigenvalueError(
                f"matrix is not positive definite: min eigenvalue "
                f"{w[0]:.6e} <= 0; clamp non-positive eigenvalues first"
            )
        arr.setflags(write=False)
        return cls(arr, float(w[0]), float(w[-1]))

    @classmethod
    def _trusted(cls, arr: np.ndarray, wmin: float, wmax: float) -> "SpdMatrix":
        """Wrap without re-validating; callers must know the spectrum."""
        arr.setflags(write=False)
        return cls(arr, wmin, wmax)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def condition_number(self) -> float:
        return self.max_eigenvalue / self.min_eigenvalue

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.array.astype(dtype)
        return self.array


def _as_matrix(a) -> np.ndarray:
    return a.array if isinstance(a, SpdMatrix) else np.asarray(a, dtype=np.float64)


def matrix_log(s) -> np.ndarray:
    """Matrix logarithm ``O diag(log mu) O^T`` of a positive definite matrix.

    Never clamps: a non-positive eigenvalue raises
    :class:`NonPositiveEigenvalueError` telling the caller to clamp first.
    """
    dec = eig_sym(_as_matrix(s))
    mu = dec.eigenvalues
    if mu[0] <= 0.0:
        raise NonPositiveEigenvalueError(
            f"matrix_log requires a strictly positive spectrum; found min "
            f"eigenvalue {mu[0]:.6e} <= 0. Clamp the matrix to SPD first "
            f"(this function never clamps silently)."
        )
    return dec.recompose(np.log(mu))


def matrix_exp(h) -> SpdMatrix:
    """Matrix exponential ``O diag(exp mu) O^T`` of a symmetric matrix.

    The result is strictly positive definite and satisfies
    ``det(exp H) = exp(trace H)``. Eigenvalues with magnitude above
    ``EXP_EIGENVALUE_LIMIT`` raise :class:`EigenvalueOverflowError` instead of
    silently overflowing or flushing to zero.
    """
    dec = eig_sym(_as_matrix(h))
    mu = dec.eigenvalues
    peak = float(np.max(np.abs(mu)))
    if peak > EXP_EIGENVALUE_LIMIT:
        raise EigenvalueOverflowError(
            f"matrix_exp eigenvalue magnitude {peak:.3e} exceeds the float64 "
            f"limit {EXP_EIGENVALUE_LIMIT:g}"
        )
    w = np.exp(mu)
    return SpdMatrix._trusted(dec.recompose(w), float(w[0]), float(w[-1]))


def matrix_power(s, p: float) -> SpdMatrix:
    """Real matrix power ``S^p = O diag(mu^p) O^T`` of an SPD matrix."""
    dec = eig_sym(_as_matrix(s))
    mu = dec.eigenvalues
    if mu[0] <= 0.0:
        raise NonPositiveEigenvalueError(
            f"matrix_power requires a strictly positive spectrum; found min "
            f"eigenvalue {mu[0]:.6e} <= 0"
        )
    if p == 0.0:
        n = mu.shape[0]
        return SpdMatrix._trusted(np.eye(n), 1.0, 1.0)
    peak = float(np.max(np.abs(p * np.log(mu))))
    if peak > EXP_EIGENVALUE_LIMIT:
        raise EigenvalueOverflowError(
            f"matrix_power exponent p*log(mu) reaches magnitude {peak:.3e}, "
            f"beyond the float64 limit {EXP_EIGENVALUE_LIMIT:g}"
        )
    w = mu**p
    return SpdMatrix._trusted(
        dec.recompose(w), float(np.min(w)), float(np.max(w))
    )


def cholesky(s) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L L^T = S``.

    Raises :class:`CholeskyPivotError` naming the failing pivot index when the
    matrix is numerically semidefinite.
    """
    arr = symmetrize(_as_matrix(s))
    (potrf,) = get_lapack_funcs(("potrf",), (arr,))
    c, info = potrf(arr, lower=1, overwrite_a=False)
    if info > 0:
        raise CholeskyPivotError(
            f"Cholesky failed at pivot index {info - 1}: leading minor of "
            f"order {info} is not positive definite",
            pivot=info - 1,
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to dpotrf")
    return np.tril(c)


def log_det(s) -> float:
    """Log-determinant of an SPD matrix as the sum of log eigenvalues.

    Determinants are handled in log-space only; the raw determinant of a
    large matrix overflows float64 long before the log does.
    """
    if isinstance(s, SpdMatrix):
        w = eigh(s.array, eigvals_only=True, check_finite=False)
    else:
        w = eigh(symmetrize(s), eigvals_only=True, check_finite=False)
    if w[0] <= 0.0:
        raise NonPositiveEigenvalueError(
            f"log_det requires a strictly positive spectrum; found min "
            f"eigenvalue {w[0]:.6e} <= 0"
        )
    return float(np.sum(np.log(w)))

