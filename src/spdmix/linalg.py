"""Dense symmetric linear algebra: eigendecomposition and matrix functions.

Every matrix function here (log, exp, real powers) routes through a single
symmetric eigendecomposition rather than Pade approximants or
scaling-and-squaring, which keeps ``matrix_exp`` and ``matrix_log`` exact
mutual inverses up to the accuracy of the decomposition itself.

:func:`eig_sym` (``numpy.linalg.eigh``, LAPACK ``syevd``) and its values-only
twin :func:`eigvals_sym` (``eigvalsh``) solve one matrix; :func:`count_eig_calls`
counts every solve. :func:`symmetrize`, :func:`matrix_log` and
:func:`matrix_exp` also take a stack ``(k, n, n)`` and check each matrix on its
own; a stacked call gives each matrix the bits it gets alone.

:func:`matrix_log` and :func:`matrix_exp` are one stacked kernel, the only
code that hands the pool a stack: per part, one pool task solves, applies the
function to the spectrum and recomposes. Every solve and recompose runs with
numpy's bundled OpenBLAS pinned to one thread; a stack of two or more matrices
is split into contiguous parts that a pool of one thread per core takes while
the caller waits. Parallelism is across matrices, never inside one, so a
matrix gets the same bits under any worker count and any
``OPENBLAS_NUM_THREADS``. The pin is process-wide, so it is held only while
one pinned call runs, under a lock that serialises them. Without the OpenBLAS
``scipy_openblas_{set,get}_num_threads64_`` pair, each call is plain numpy.

All inputs and outputs are double-precision dense arrays. Functions are pure
and safe to call from any thread; :class:`SpdMatrix` instances are immutable.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

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
    "eigvals_sym",
    "fro_norm",
    "log_det",
    "matrix_exp",
    "matrix_log",
    "matrix_power",
    "symmetrize",
]

# Relative Frobenius asymmetry tolerated before an input is rejected.
SYMMETRY_RTOL = 1e-10
# |eigenvalue| bound beyond which exp() overflows / underflows in float64.
EXP_EIGENVALUE_LIMIT = 700.0
# The largest entry whose sum with another entry cannot overflow float64.
_HALF_MAX = float(np.finfo(np.float64).max / 2.0)

# Bytes of matrices handed to one stacked call. It bounds the working set of
# a batched operation at large n and still stacks thousands of matrices at
# small n, where per-call overhead dominates.
_CHUNK_BYTES = 4 << 20


def _chunks(total: int, n: int) -> Iterator[slice]:
    step = max(1, _CHUNK_BYTES // max(1, 8 * n * n))
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def _setter_of(lib):
    """``lib``'s OpenBLAS thread-count setter as ``set(count) -> previous
    count``, or ``None`` when it exports no setter."""
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if put is None or get is None:
        return None
    put.argtypes, put.restype = [ctypes.c_int], None
    get.argtypes, get.restype = [], ctypes.c_int

    def setter(count: int) -> int:
        previous = get()
        put(count)
        return previous

    return setter


def _thread_setter():
    """The thread-count setter of the OpenBLAS bundled with numpy, or
    ``None``; loading the library again returns numpy's own copy."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        setter = _setter_of(ctypes.CDLL(str(path)))
        if setter is not None:
            return setter
    return None


_SET_THREADS = _thread_setter()
# Threads of the pool that takes the parts of a split stack: one per core
# this process may run on. The pool starts on first use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_POOL: ThreadPoolExecutor | None = None
# Parts a split stack is cut into per thread: more parts balance the load
# when the host stalls a thread, each costs one more numpy call.
_PARTS_PER_THREAD = 4
# Held for each pinned call: in numpy's build the OpenBLAS thread count is
# process-wide, so a pin would slow every other matrix product it outlived.
_PINNED = threading.Lock()


def _forget_pool() -> None:
    # a forked child has the pool object but none of its threads
    global _POOL, _PINNED
    _POOL, _PINNED = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pinned(fn, *stacks):
    """``fn(*stacks)`` on one OpenBLAS thread per matrix.

    The arguments are one matrix each, or stacks that share their leading
    axis and give one stacked array. Two or more matrices are split into
    contiguous parts, a few per thread, that the pool takes in turn, so a
    thread the host stalls holds up one part at most. The caller waits for
    every part, or the first failure, and joins the results in order, so each
    matrix gets the bits it gets alone. Without a thread setter, one call.
    """
    global _POOL
    if _SET_THREADS is None:
        return fn(*stacks)
    with _PINNED:
        previous = _SET_THREADS(1)
        try:
            total = len(stacks[0]) if stacks[0].ndim == 3 else 1
            if total < 2 or _WORKERS < 2:
                return fn(*stacks)
            if _POOL is None:
                _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="spdmix-linalg")
            count = min(total, _PARTS_PER_THREAD * _WORKERS)
            ends = [total * p // count for p in range(count + 1)]
            futures = [
                _POOL.submit(fn, *(s[a:b] for s in stacks)) for a, b in zip(ends, ends[1:])
            ]
            try:
                # one wake-up per call: a caller woken per part preempts a
                # worker whenever there are no more cores than workers
                wait(futures, return_when=FIRST_EXCEPTION)
                results = [f.result() for f in futures]
            finally:
                for f in futures:
                    f.cancel()
                wait(futures)
        finally:
            _SET_THREADS(previous)
    return np.concatenate(results)


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class _StackError(ValueError):
    """A check failed on one matrix: ``detail`` is the check's text, ``index``
    the matrix's stack position (``None`` for one matrix), which the message
    names first. :func:`symmetrize` raises it bare."""

    def __init__(self, detail: str, index=None):
        where = "" if index is None else f"matrix {index} of the stack: "
        super().__init__(where + detail)
        self.detail = detail
        self.index = index


class NonPositiveEigenvalueError(_StackError):
    """An operation that requires a strictly positive spectrum saw mu <= 0."""


class EigenvalueOverflowError(_StackError):
    """exp() of an eigenvalue would overflow or underflow float64."""


class CholeskyPivotError(ValueError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def fro_norm(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack ``(k, n, n)``,
    as a plain reduction with no BLAS call."""
    arr = np.asarray(a, dtype=np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", arr, arr))


def _reject(bad: np.ndarray, error: type, message) -> None:
    """Raise ``error`` for the first matrix flagged in ``bad``, one flag or one
    per matrix of a stack; ``message(at)`` words it, with ``at`` indexing that
    matrix's entry of a per-matrix array, and the error names its position."""
    if bad.any():
        k = None if bad.ndim == 0 else int(np.argmax(bad))
        raise error(message(() if k is None else k), index=k)


def _square(a, stack: bool = True) -> np.ndarray:
    """``a`` as one square matrix or, if ``stack``, a stack ``(k, n, n)``."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim not in (2, 3 if stack else 2) or arr.shape[-1] != arr.shape[-2]:
        of = " or a stack (k, n, n) of them" if stack else ""
        raise ValueError(f"expected a square matrix{of}, got shape {arr.shape}")
    return arr


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part of ``a``, rejecting real asymmetry.

    Floating-point drift from repeated mixing is folded back by ``(A + A^T)/2``
    as long as the asymmetry is below ``SYMMETRY_RTOL`` times the Frobenius norm;
    anything larger is treated as a caller bug and raises ``ValueError``.
    ``a`` may be a stack ``(k, n, n)``; each matrix is checked against its
    own norm.

    A matrix whose largest entry lies beyond ``2**±400``, where squares over-
    or underflow, is checked scaled by the power of two that brings that
    entry into [0.5, 1); the scaling is exact, so the check holds at any
    magnitude. The symmetric part is built from halves when ``A + A^T`` could
    overflow.
    """
    arr = _square(a)
    # NaN and inf reach the largest magnitude; zero sizes reduce to 0
    peak = np.maximum(arr.max(axis=(-2, -1), initial=0.0), -arr.min(axis=(-2, -1), initial=0.0))
    _reject(~np.isfinite(peak), _StackError, lambda at: "matrix contains non-finite entries")
    arr_t = arr.swapaxes(-1, -2)
    exponent = np.frexp(peak)[1]
    exponent = np.where(np.abs(exponent) > 400, np.clip(exponent, -1021, 1021), 0)
    unit = arr * np.ldexp(1.0, -exponent)[..., None, None] if exponent.any() else arr
    norm = fro_norm(unit)
    drift = fro_norm(unit - unit.swapaxes(-1, -2))
    bad = drift > SYMMETRY_RTOL * np.maximum(norm, np.finfo(np.float64).tiny)

    def asymmetry(at):
        with np.errstate(over="ignore"):
            found, bound = np.ldexp([drift[at], SYMMETRY_RTOL * norm[at]], exponent[at])
        return (
            f"matrix is not symmetric: asymmetry {found:.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * ||A||_F = {bound:.3e}"
        )

    _reject(bad, _StackError, asymmetry)
    if peak.max(initial=0.0) > _HALF_MAX:
        return arr / 2.0 + arr_t / 2.0
    return (arr + arr_t) / 2.0


class EigenDecomposition(NamedTuple):
    """Orthogonal basis and ascending eigenvalues of a symmetric matrix."""

    orthogonal: np.ndarray
    eigenvalues: np.ndarray

    def recompose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild ``O diag(values) O^T`` (defaults to the stored spectrum)."""
        o = _square(self.orthogonal, stack=False)
        w = self.eigenvalues if values is None else values
        return _pinned(_recompose, o, np.broadcast_to(w, o.shape[:-1]))


def _recompose(o: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    prod = (o * w[..., None, :]) @ o.swapaxes(-1, -2)
    return np.divide(prod + prod.swapaxes(-1, -2), 2.0, out=out)


@dataclass
class EigCallCounter:
    """Decompositions seen in a :func:`count_eig_calls` scope, one per matrix:
    ``count`` in all, ``values_only`` of them by :func:`eigvals_sym`."""

    count: int = 0
    values_only: int = 0


# The counters of every enclosing count_eig_calls scope, innermost last. The
# calling thread counts a whole stack before any part of it goes to the pool.
_COUNTERS: ContextVar[tuple[EigCallCounter, ...]] = ContextVar("eig_counters", default=())


@contextmanager
def count_eig_calls() -> Iterator[EigCallCounter]:
    """Count the :func:`eig_sym` and :func:`eigvals_sym` solves made in this context."""
    counter = EigCallCounter()
    token = _COUNTERS.set(_COUNTERS.get() + (counter,))
    try:
        yield counter
    finally:
        _COUNTERS.reset(token)


def _solve(task, sym: np.ndarray, *stacks, values_only: bool = False):
    """``task(sym, *stacks)``, pinned, on a symmetric matrix or stack,
    counting one solve per matrix; the task solves with a numpy eigensolver."""
    matrices = len(sym) if sym.ndim == 3 else 1
    for counter in _COUNTERS.get():
        counter.count += matrices
        counter.values_only += matrices if values_only else 0
    try:
        return _pinned(task, sym, *stacks)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"symmetric eigensolver failed to converge on input of shape "
            f"{sym.shape}, largest ||A||_F = {float(np.max(fro_norm(sym))):.6e}"
        ) from exc


def eig_sym(a: np.ndarray) -> EigenDecomposition:
    """Eigendecompose one symmetric matrix with LAPACK ``syevd``
    (``numpy.linalg.eigh``).

    Returns eigenvalues in ascending order and an orthogonal eigenvector
    matrix ``O`` with ``O diag(mu) O^T`` reconstructing the input. The call is
    deterministic for identical input bits. :func:`count_eig_calls` counts
    one call.

    Raises
    ------
    EigenConvergenceError
        If the underlying solver does not converge; the message carries the
        matrix dimension and Frobenius norm for diagnosis.
    """
    w, v = _solve(np.linalg.eigh, symmetrize(_square(a, stack=False)))
    return EigenDecomposition(orthogonal=v, eigenvalues=w)


def eigvals_sym(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix, without eigenvectors
    (``numpy.linalg.eigvalsh``).

    ``a`` must be exactly symmetric, as :func:`symmetrize` returns it or an
    :class:`SpdMatrix` holds it: the solver reads only the lower triangle.
    Counted and checked for convergence like :func:`eig_sym`.
    """
    return _solve(np.linalg.eigvalsh, _square(a, stack=False), values_only=True)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    ``min_eigenvalue`` and ``max_eigenvalue`` are cached at validation time;
    the wrapped array is read-only. ``np.asarray`` unwraps an instance to
    that array itself (no copy for ``dtype=np.float64`` either), so instances
    can be passed anywhere a plain array is accepted; ``np.array`` and any
    other dtype give a copy.
    """

    array: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float

    @classmethod
    def from_array(cls, a: np.ndarray) -> "SpdMatrix":
        """Validate ``a`` (symmetry, finiteness, strictly positive spectrum)."""
        if isinstance(a, SpdMatrix):
            return a
        arr = symmetrize(_square(a, stack=False))
        w = eigvals_sym(arr)
        _require_positive(w, "SpdMatrix")
        arr.setflags(write=False)
        return cls(arr, float(w[0]), float(w[-1]))

    @classmethod
    def _trusted(cls, arr: np.ndarray, wmin: float, wmax: float) -> "SpdMatrix":
        """Wrap without re-validating; callers must know the spectrum."""
        arr.setflags(write=False)
        return cls(arr, wmin, wmax)

    @property
    def condition_number(self) -> float:
        return self.max_eigenvalue / self.min_eigenvalue

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy)


def _require_positive(mu: np.ndarray, what: str) -> None:
    """Reject a spectrum, or a stack of them, whose smallest eigenvalue is <= 0."""
    low = mu[..., 0]
    _reject(~(low > 0.0), NonPositiveEigenvalueError, lambda at: (
        f"{what} requires a strictly positive spectrum; found min "
        f"eigenvalue {low[at]:.6e} <= 0. Clamp the matrix "
        f"to SPD first (spdmix never clamps silently)."
    ))


def _spectral(s, f, check) -> tuple[np.ndarray, np.ndarray]:
    """``O diag(f(mu)) O^T`` of a symmetric matrix, or of each matrix of a
    stack, and its ascending spectrum ``mu``.

    Each ``_CHUNK_BYTES`` part (one matrix is one part, ``...``) is
    symmetrized here; one pinned task solves it, applies ``f`` with
    floating-point warnings off and recomposes into the output. Then
    ``check(mu)`` vets the spectra of the whole stack."""
    arr = _square(s)
    out, mu = np.empty_like(arr), np.empty(arr.shape[:-1])

    def task(sym, dest):
        w, o = np.linalg.eigh(sym)
        with np.errstate(all="ignore"):
            _recompose(o, f(w), out=dest)
        return w

    for part in _chunks(len(arr), arr.shape[-1]) if arr.ndim == 3 else [...]:
        try:
            sym = symmetrize(arr[part])
        except _StackError as exc:
            at = None if exc.index is None else part.start + exc.index
            raise _StackError(exc.detail, index=at) from exc
        mu[part] = _solve(task, sym, out[part])
    check(mu)
    return out, mu


def matrix_log(s) -> np.ndarray:
    """Matrix logarithm ``O diag(log mu) O^T`` of a positive definite matrix,
    or of each matrix of a stack, one decomposition and one pool task per
    ``_CHUNK_BYTES`` of matrices.

    Never clamps: a non-positive eigenvalue raises
    :class:`NonPositiveEigenvalueError` telling the caller to clamp first;
    for a stack, its ``index`` names the first offending matrix by its
    position in the whole stack.
    """
    return _spectral(s, np.log, lambda mu: _require_positive(mu, "matrix_log"))[0]


def matrix_exp(h) -> SpdMatrix | np.ndarray:
    """Matrix exponential ``O diag(exp mu) O^T`` of a symmetric matrix.

    The result is strictly positive definite and satisfies
    ``det(exp H) = exp(trace H)``. Eigenvalues with magnitude above
    ``EXP_EIGENVALUE_LIMIT`` raise :class:`EigenvalueOverflowError` instead of
    silently overflowing or flushing to zero. A 2-D input gives an
    :class:`SpdMatrix`; a stack ``(k, n, n)`` gives a plain array of the
    exponentials, each checked on its own.
    """

    def check(mu):
        peak = np.max(np.abs(mu), axis=-1)
        _reject(~(peak <= EXP_EIGENVALUE_LIMIT), EigenvalueOverflowError, lambda at: (
            f"matrix_exp eigenvalue magnitude {peak[at]:.3e} exceeds the float64 "
            f"limit {EXP_EIGENVALUE_LIMIT:g}"
        ))

    out, mu = _spectral(h, np.exp, check)
    if out.ndim > 2:
        return out
    w = np.exp(mu)
    return SpdMatrix._trusted(out, float(w[0]), float(w[-1]))


def matrix_power(s, p: float) -> SpdMatrix:
    """Real matrix power ``S^p = O diag(mu^p) O^T`` of an SPD matrix, or of
    the matrix an :class:`EigenDecomposition` ``s`` describes."""
    dec = s if isinstance(s, EigenDecomposition) else eig_sym(s)
    _square(dec.orthogonal, stack=False)
    mu = dec.eigenvalues
    _require_positive(mu, "matrix_power")
    with np.errstate(all="ignore"):
        peak = np.max(np.abs(p * np.log(mu)))
    _reject(~(peak <= EXP_EIGENVALUE_LIMIT), EigenvalueOverflowError, lambda at: (
        f"matrix_power exponent p*log(mu) reaches magnitude {peak:.3e}, "
        f"beyond the float64 limit {EXP_EIGENVALUE_LIMIT:g}"
    ))
    if p == 0.0:
        return SpdMatrix._trusted(np.eye(len(mu)), 1.0, 1.0)
    w = mu**p
    return SpdMatrix._trusted(dec.recompose(w), float(np.min(w)), float(np.max(w)))


def cholesky(s) -> np.ndarray:
    """Lower-triangular Cholesky factor ``L`` with ``L L^T = S``.

    Raises :class:`CholeskyPivotError` naming the failing pivot index when the
    matrix is numerically semidefinite.
    """
    arr = symmetrize(_square(s, stack=False))
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        lo, hi = 0, arr.shape[0]
    # numpy does not say where the factorization broke down. Every leading
    # minor of a positive definite minor is positive definite, so bisect for
    # the smallest failing one: ``lo`` factors, ``hi`` does not.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(arr[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    raise CholeskyPivotError(
        f"Cholesky failed at pivot index {hi - 1}: leading minor of "
        f"order {hi} is not positive definite",
        pivot=hi - 1,
    )


def log_det(s) -> float:
    """Log-determinant of an SPD matrix as the sum of log eigenvalues.

    Determinants are handled in log-space only; the raw determinant of a
    large matrix overflows float64 long before the log does.
    """
    w = eigvals_sym(s.array if isinstance(s, SpdMatrix) else symmetrize(_square(s, stack=False)))
    _require_positive(w, "log_det")
    return float(np.sum(np.log(w)))

