"""Dense symmetric linear algebra: eigendecomposition and matrix functions.

Every matrix function here (log, exp, real powers) routes through a single
symmetric eigendecomposition rather than Pade approximants or
scaling-and-squaring, which keeps ``matrix_exp`` and ``matrix_log`` exact
mutual inverses up to the accuracy of the decomposition itself.

:func:`eig_sym` (``numpy.linalg.eigh``, LAPACK ``syevd``) and its values-only
twin :func:`eigvals_sym` (``eigvalsh``) solve one matrix, each validated by
:func:`symmetrize`; :func:`count_eig_calls` counts every solve. An exactly
symmetric matrix passes :func:`symmetrize` after one subtraction, so only the
first check of a drifted matrix measures its asymmetry. :func:`symmetrize`,
:func:`matrix_log` and :func:`matrix_exp` also take a stack ``(k, n, n)`` and
check each matrix on its own; a stacked call gives each matrix the bits it
gets alone.

:func:`matrix_log` and :func:`matrix_exp` are one stacked kernel: per part,
one pool task symmetrizes, solves, applies the function to the spectrum and
recomposes. Every solve and recompose runs with numpy's bundled OpenBLAS
pinned to one thread; a stack of two or more matrices goes to a pool of one
thread per core in one call, cut by bytes into contiguous parts that the
threads take in row order. Parallelism is across matrices, never inside one,
so a matrix gets the same bits under any worker count and any
``OPENBLAS_NUM_THREADS``. The pin is process-wide, so it is held only while a
pinned session runs, under a lock that serialises sessions; a chunked
session keeps the next chunk out while its caller works on this one. A pool
task, or the caller holding the session, may call the matrix functions; they
run inline on its thread, already pinned. Without the OpenBLAS thread setter
pair, ``scipy_openblas_{set,get}_num_threads64_``, each call is plain numpy.

All inputs and outputs are double-precision dense arrays. Functions are pure
and safe to call from any thread; :class:`SpdMatrix` instances are immutable.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
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
# Parts a split stack is cut into per thread, at least: more parts balance
# the load when the host stalls a thread, each costs one more numpy call.
_PARTS_PER_THREAD = 4
# Held for each pinned session: in numpy's build the OpenBLAS thread count is
# process-wide, so a pin would slow every other matrix product it outlived.
_PINNED = threading.Lock()
# The thread that holds the open session; pinned calls it makes run inline.
_HOLDER: int | None = None
# True in the context a pool part runs in; pinned calls it makes run inline.
_INSIDE: ContextVar[bool] = ContextVar("inside_pinned", default=False)
# Held for each update of the count_eig_calls counters, which pool tasks share.
_COUNTING = threading.Lock()


def _forget_pool() -> None:
    # a forked child has the pool object but none of its threads
    global _POOL, _PINNED, _COUNTING, _HOLDER
    _POOL, _PINNED, _COUNTING, _HOLDER = None, threading.Lock(), threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _ends(total: int, row_bytes: int) -> list[int]:
    """Bounds of the parts of ``range(total)``: ``_PARTS_PER_THREAD`` per
    thread, or more to keep a part of rows ``row_bytes`` long near
    ``_CHUNK_BYTES // (_PARTS_PER_THREAD * _WORKERS)`` bytes, or one row."""
    least = _PARTS_PER_THREAD * _WORKERS
    count = min(total, max(least, -(-total * row_bytes // (_CHUNK_BYTES // least))))
    return [total * p // count for p in range(count + 1)]


def _drain(fn, parts: deque, failed: list) -> None:
    # a pool thread's share of one submit: parts in row order, until none is
    # left or one has failed
    _INSIDE.set(True)
    while not failed:
        try:
            part = parts.popleft()
        except IndexError:
            return
        try:
            fn(part)
        except BaseException as exc:  # raised again by the submitter's collect
            failed.append((part.start, exc))


@contextmanager
def _session():
    """OpenBLAS pinned to one thread, under the lock, until the session
    closes. Yields ``submit(fn, total, row_bytes=0)``: one pool task per
    thread takes ``fn(part)`` on the parts (slices, :func:`_ends`) of
    ``range(total)``, in a copy of the caller's context, and ``fn`` writes
    its output in place. ``submit`` returns ``collect()``, which waits for
    them (one wake-up) and raises the first failing part's error; one row,
    or one worker, runs as one call in ``collect``, which returns its value.
    Closing drops the parts not yet taken and waits for those running, also
    when the caller leaves the session early. The holder's and the parts'
    pinned calls run inline; without a thread setter all of them do.
    """
    global _HOLDER
    if _SET_THREADS is None or _INSIDE.get() or _HOLDER == threading.get_ident():
        yield lambda fn, total, row_bytes=0: lambda: fn(slice(0, total))
        return
    jobs: dict[int, tuple] = {}

    def submit(fn, total, row_bytes=0):
        global _POOL
        if total < 2 or _WORKERS < 2:
            return lambda: fn(slice(0, total))
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="spdmix-linalg")
        ends, failed = _ends(total, row_bytes), []
        parts = deque(map(slice, ends, ends[1:]))
        tasks = [_POOL.submit(copy_context().run, _drain, fn, parts, failed)
                 for _ in range(min(_WORKERS, len(parts)))]
        jobs[id(parts)] = parts, tasks

        def collect():
            wait(tasks)  # a caller woken per part would preempt a worker
            del jobs[id(parts)]
            if failed:
                raise min(failed)[1]

        return collect

    with _PINNED:
        previous = _SET_THREADS(1)
        _HOLDER = threading.get_ident()
        try:
            yield submit
        finally:
            for parts, _ in jobs.values():
                parts.clear()
            for _, tasks in jobs.values():
                wait(tasks)
            _HOLDER = None
            _SET_THREADS(previous)


def _pinned(fn, total: int, row_bytes: int = 0):
    """One ``submit`` and ``collect`` of a :func:`_session` of its own."""
    with _session() as submit:
        return submit(fn, total, row_bytes)()


def _chunked(fn, total: int, n: int) -> Iterator[slice]:
    """The :func:`_chunks` of ``range(total)``, each yielded once ``fn(rows)``
    has run on its parts (slices of ``range(total)``) or raised the first
    failing part's error. One :func:`_session` submits chunk k+1 before chunk
    k is yielded, and closes when the iterator ends or is dropped."""
    chunks = list(_chunks(total, n))
    with _session() as submit:
        started = (submit(lambda part, c=c: fn(slice(c.start + part.start, c.start + part.stop)),
                          c.stop - c.start, 8 * n * n) for c in chunks)
        ahead = next(started, None)
        for chunk in chunks:
            collect, ahead = ahead, next(started, None)
            collect()
            yield chunk


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

    A matrix whose skew part ``A - A^T`` is all zero, which also proves it
    finite, comes back whole (a ``±0`` pair signed as ``(A + A^T)/2`` signs
    it): that one subtraction is its whole check. Any other matrix has its
    floating-point drift folded back by ``(A + A^T)/2`` as long as the
    asymmetry is below ``SYMMETRY_RTOL`` times the Frobenius norm; a larger
    one, or a non-finite entry, is a caller bug and raises ``ValueError``.
    ``a`` may be a stack ``(k, n, n)``; each matrix is checked against its
    own norm and gets the bits it gets alone.

    A drifted matrix whose largest entry lies beyond ``2**±400``, where
    squares over- or underflow, is checked scaled by the power of two that
    brings that entry into [0.5, 1); the scaling is exact, so the check holds
    at any magnitude. Its symmetric part is built from halves when
    ``A + A^T`` could overflow.
    """
    arr = _square(a)
    with np.errstate(invalid="ignore", over="ignore"):
        skew = arr - arr.swapaxes(-1, -2)
        out = arr - skew / 2.0  # A, where the skew part is zero
    if np.count_nonzero(skew):
        drifted = skew.any(axis=(-2, -1))  # a stack's mask, or one matrix's flag
        try:
            out[drifted] = _fold(arr[drifted])
        except _StackError as exc:
            at = None if arr.ndim == 2 else int(np.flatnonzero(drifted)[exc.index])
            raise _StackError(exc.detail, at) from None
    return out


def _fold(arr: np.ndarray) -> np.ndarray:
    """The symmetric part of each matrix of a stack ``(k, n, n)`` that is not
    exactly symmetric, checked as :func:`symmetrize` describes."""
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
    halves = (peak > _HALF_MAX)[:, None, None]  # where A + A^T could overflow
    with np.errstate(over="ignore"):
        return np.where(halves, arr / 2.0 + arr_t / 2.0, (arr + arr_t) / 2.0)


class EigenDecomposition(NamedTuple):
    """Orthogonal basis and ascending eigenvalues of a symmetric matrix."""

    orthogonal: np.ndarray
    eigenvalues: np.ndarray

    def recompose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild ``O diag(values) O^T`` (defaults to the stored spectrum)."""
        o = _square(self.orthogonal, stack=False)
        w = self.eigenvalues if values is None else values
        return _pinned(lambda _: _recompose(o, np.broadcast_to(w, o.shape[:-1])), 1)


def _recompose(o: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    prod = (o * w[..., None, :]) @ o.swapaxes(-1, -2)
    out = np.add(prod, prod.swapaxes(-1, -2), out=out)
    out /= 2.0
    return out


@dataclass
class EigCallCounter:
    """Decompositions seen in a :func:`count_eig_calls` scope, one per matrix:
    ``count`` in all, ``values_only`` of them by :func:`eigvals_sym`."""

    count: int = 0
    values_only: int = 0


# The counters of every enclosing count_eig_calls scope, innermost last. The
# thread that hands a stack to _pinned counts it whole; a pool task sees its
# submitter's counters, through the context it runs in.
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


def _solve(task, a: np.ndarray, rows=None, values_only: bool = False):
    """``task(part)``, pinned, over the parts of the matrices ``a[rows]`` (one
    matrix, or a stack's every matrix by default) that the task solves with a
    numpy eigensolver, counting one solve per matrix."""
    matrices = 1 if a.ndim == 2 else len(a) if rows is None else len(rows)
    with _COUNTING:
        for counter in _COUNTERS.get():
            counter.count += matrices
            counter.values_only += matrices if values_only else 0
    try:
        return _pinned(task, matrices, a.itemsize * a.shape[-1] ** 2)
    except np.linalg.LinAlgError as exc:
        sym = a if rows is None else a[rows]
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
    sym = symmetrize(_square(a, stack=False))
    w, v = _solve(lambda _: np.linalg.eigh(sym), sym)
    return EigenDecomposition(orthogonal=v, eigenvalues=w)


def eigvals_sym(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix, without eigenvectors
    (``numpy.linalg.eigvalsh``).

    Validated through :func:`symmetrize`, counted and checked for convergence
    like :func:`eig_sym`; an exactly symmetric input, such as an
    :class:`SpdMatrix` holds, costs that check one subtraction.
    """
    sym = symmetrize(_square(a, stack=False))
    return _solve(lambda _: np.linalg.eigvalsh(sym), sym, values_only=True)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix.

    ``min_eigenvalue``, ``max_eigenvalue`` and the spectrum, which :func:`log_det`
    reuses, are kept from :meth:`from_array`; the array is read-only. ``np.asarray``
    unwraps an instance to that array itself (no copy for ``dtype=np.float64``
    either), so instances can be passed anywhere a plain array is accepted;
    ``np.array`` and any other dtype give a copy.
    """

    array: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "SpdMatrix":
        """Validate ``a`` (symmetry, finiteness, strictly positive spectrum)."""
        if isinstance(a, SpdMatrix):
            return a
        arr = symmetrize(_square(a, stack=False))
        w = eigvals_sym(arr)
        _require_positive(w, "SpdMatrix")
        arr.setflags(write=False)
        return cls(arr, float(w[0]), float(w[-1]), w)

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


def _spectral(s, f, check, rows=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``O diag(f(mu)) O^T`` of a symmetric matrix, or of each matrix
    ``s[rows]`` of a stack (every one by default), written into ``out`` (a
    new array by default) at the same place, and the ascending spectra ``mu``.

    One pinned call: each part's task symmetrizes its matrices (naming a bad
    one by its place in ``rows``), solves, applies ``f`` with floating-point
    warnings off and recomposes into ``out``. Then ``check(mu)`` vets every
    spectrum, so an input fault anywhere wins over a spectrum fault."""
    arr = _square(s)
    out = np.empty_like(arr) if out is None else out
    stack, dest = (arr, out) if arr.ndim == 3 else (arr[None], out[None])
    mu = np.empty((len(stack) if rows is None else len(rows), arr.shape[-1]))

    def task(part):
        at = part if rows is None else rows[part]
        try:
            sym = symmetrize(stack[at])
        except _StackError as exc:
            where = part.start + exc.index if arr.ndim == 3 else None
            raise _StackError(exc.detail, index=where) from exc
        mu[part], o = np.linalg.eigh(sym)
        with np.errstate(all="ignore"):
            _recompose(o, f(mu[part]), out=sym if rows is not None else dest[at])
        if rows is not None:
            dest[at] = sym

    _solve(task, arr, rows)
    mu = mu if arr.ndim == 3 else mu[0]
    check(mu)
    return out, mu


def matrix_log(s, *, rows=None, out=None) -> np.ndarray:
    """Matrix logarithm ``O diag(log mu) O^T`` of a positive definite matrix,
    or of each matrix of a stack, one decomposition per matrix and one pool
    round trip per stack. With ``rows``, the logarithms of ``s[rows]`` are
    written into ``out[rows]``; ``out`` may be ``s``.

    Never clamps: a non-positive eigenvalue raises
    :class:`NonPositiveEigenvalueError` telling the caller to clamp first;
    for a stack, its ``index`` names the first offending matrix by its
    position in the whole stack (in ``rows``, when given).
    """
    return _spectral(s, np.log, lambda mu: _require_positive(mu, "matrix_log"), rows, out)[0]


def matrix_exp(h, *, out=None) -> SpdMatrix | np.ndarray:
    """Matrix exponential ``O diag(exp mu) O^T`` of a symmetric matrix.

    The result is strictly positive definite and satisfies
    ``det(exp H) = exp(trace H)``. Eigenvalues with magnitude above
    ``EXP_EIGENVALUE_LIMIT`` raise :class:`EigenvalueOverflowError` instead of
    silently overflowing or flushing to zero. A 2-D input gives an
    :class:`SpdMatrix`; a stack ``(k, n, n)`` gives a plain array of the
    exponentials, each checked on its own, written into ``out`` when given
    (which may be ``h``).
    """

    def check(mu):
        peak = np.max(np.abs(mu), axis=-1)
        _reject(~(peak <= EXP_EIGENVALUE_LIMIT), EigenvalueOverflowError, lambda at: (
            f"matrix_exp eigenvalue magnitude {peak[at]:.3e} exceeds the float64 "
            f"limit {EXP_EIGENVALUE_LIMIT:g}"
        ))

    out, mu = _spectral(h, np.exp, check, out=out)
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
    w = s._spectrum if isinstance(s, SpdMatrix) and s._spectrum is not None else eigvals_sym(s)
    _require_positive(w, "log_det")
    return float(np.sum(np.log(w)))

