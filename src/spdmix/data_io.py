"""Dataset model, SPDB binary format, series CSV, and synthetic generators.

SPDB file layout (little-endian, independent of host byte order):

    offset  size  field
    0       4     magic ``b"SPDB"``
    4       2     version (u16), currently 1
    6       4     matrix dimension n (u32)
    10      4     matrix count (u32)
    14      4     flags (u32): bit 0 = correlation matrices,
                  bit 1 = regression task
    18      -     count * n * n float64 values, row-major

Labels live in a sidecar CSV ``<stem>.labels.csv`` with header ``id,label``
(UTF-8, LF line endings). Regression labels are floats, classification
labels are integer class ids; soft classification labels (as produced by
mixing) are stored as ``;``-joined simplex weights in the same column.
"""

from __future__ import annotations

import csv
import os
import stat
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import SpdMatrix, _chunks, matrix_exp, matrix_log

__all__ = [
    "FormatError",
    "LabeledDataset",
    "SpdbFormatError",
    "SpdbWriter",
    "csv_writer",
    "gen_labeled_dataset",
    "gen_random_spd",
    "gen_synthetic_series",
    "read_matrices",
    "read_series_csv",
    "write_matrices",
    "write_series_csv",
]

MAGIC = b"SPDB"
VERSION = 1
FLAG_CORRELATION = 1
FLAG_REGRESSION = 2
_HEADER = struct.Struct("<4sHIII")

TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"


class FormatError(ValueError):
    """A file on disk is not in the format it is read as."""


class SpdbFormatError(FormatError):
    """The bytes on disk do not form a valid SPDB file."""


@dataclass
class LabeledDataset:
    """Aligned matrices and labels for one prediction task.

    ``labels`` is a float array for regression, an int array of class ids for
    classification (integer-valued floats are converted, any other value is
    rejected), or a (count, n_classes) float array of simplex rows for
    soft-labeled (already mixed) classification data. Soft-labeled datasets
    cannot feed class-conditional strategies.
    """

    matrices: np.ndarray
    labels: np.ndarray
    task: str
    is_correlation: bool = False
    ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.matrices = np.asarray(self.matrices, dtype=np.float64)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError(
                f"matrices must have shape (count, n, n), got {self.matrices.shape}"
            )
        if self.task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        self.labels = np.asarray(self.labels)
        if len(self.labels) != len(self.matrices):
            raise ValueError(
                f"{len(self.matrices)} matrices but {len(self.labels)} labels"
            )
        if self.task == TASK_REGRESSION:
            self.labels = self.labels.astype(np.float64)
            if self.labels.ndim != 1:
                raise ValueError("regression labels must be scalars")
            if len(self.labels) and not np.isfinite(self.labels).all():
                raise ValueError("regression labels must be finite")
        elif self.labels.ndim == 1:
            with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
                class_ids = self.labels.astype(np.int64)
            off = np.flatnonzero(class_ids != self.labels)
            if len(off):
                raise ValueError(f"class ids must be integers, got {self.labels[off[0]].item()!r}")
            self.labels = class_ids
            if len(class_ids) and class_ids.min() < 0:
                raise ValueError("class ids must be non-negative")
        if not self.ids:
            self.ids = [f"s{k:06d}" for k in range(len(self.matrices))]
        elif len(self.ids) != len(self.matrices):
            raise ValueError("ids and matrices must have equal length")

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def has_soft_labels(self) -> bool:
        return self.labels.ndim == 2

    @property
    def n_classes(self) -> int:
        if self.task != TASK_CLASSIFICATION:
            raise ValueError("n_classes is only defined for classification")
        if self.has_soft_labels:
            return self.labels.shape[1]
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def csv_writer(fh, ids):
    """An LF-terminated ``csv.writer`` whose rows read back field for field.

    Python 3.11's writer leaves a bare ``\r`` unquoted when the line
    terminator is ``\n``, and a reader then ends the row there. When any of
    ``ids`` (the free-text fields the file will hold) contains one, every
    field is quoted.
    """
    quote_all = any("\r" in text for text in ids)
    return csv.writer(
        fh, lineterminator="\n", quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    )


def _labels_path(path: Path) -> Path:
    return path.with_name(path.stem + ".labels.csv")


def _format_labels(labels) -> list[str]:
    """The sidecar text of every label: an integer class id as is, a float
    by ``repr``, a soft-label row as its ``;``-joined weights."""
    labels = np.asarray(labels)
    if labels.ndim == 2:
        return [";".join(map(repr, row)) for row in labels.astype(np.float64).tolist()]
    if labels.dtype.kind in "iu":
        return list(map(str, labels.tolist()))
    return list(map(repr, labels.astype(np.float64).tolist()))


class SpdbWriter:
    """A dataset written as an SPDB file plus its labels sidecar, a chunk of
    matrices at a time::

        with SpdbWriter(path, n, count, task, is_correlation) as out:
            for chunk in chunks:
                out.write(chunk)
            out.finish(ids, labels)

    The file is opened with the first chunk, or in :meth:`finish` when there
    is none, so a failure before then leaves an existing file as it was. An
    existing file is rewritten in place, not truncated first: the first chunk
    goes out after a zeroed placeholder, and :meth:`finish` cuts the file at
    the end of the payload and writes the header last, so a run killed before
    then leaves a file that reads as bad magic, never a mix of old and new
    matrices. Overwriting a 64 MiB SPDB this way takes about a fifth of the
    time of truncating it and writing fresh pages (11-12 against 52-57 ms,
    median of 15, 2-vCPU ext4 VM). A FIFO or device target cannot seek: it
    gets the header first. :meth:`finish` checks that ``count`` matrices came
    and writes the sidecar. Leaving the block on an exception closes and
    unlinks every file the writer opened, those of :meth:`open` included.
    """

    def __init__(self, path, dim: int, count: int, task: str, is_correlation: bool = False):
        flags = (FLAG_CORRELATION if is_correlation else 0) | (
            FLAG_REGRESSION if task == TASK_REGRESSION else 0
        )
        self.path = Path(path)
        self._header = _HEADER.pack(MAGIC, VERSION, dim, count, flags)
        self._shape = (dim, dim)
        self._count = self._left = count
        self._fh = None
        self._opened: list[Path] = []

    def __enter__(self) -> "SpdbWriter":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self._fh is not None:
            self._fh.close()
        if kind is not None:
            for path in self._opened:
                path.unlink(missing_ok=True)

    def open(self, path):
        """Open another text file written along with the dataset (UTF-8, LF
        kept as is); it is unlinked with the dataset on failure."""
        fh = open(path, "w", encoding="utf-8", newline="")
        self._opened.append(Path(path))
        return fh

    def write(self, matrices) -> None:
        """Append a stack ``(k, n, n)`` of matrices to the file, which holds
        it when this returns."""
        payload = np.ascontiguousarray(matrices, dtype="<f8")
        if payload.shape[1:] != self._shape or len(payload) > self._left:
            raise ValueError(
                f"a stack of shape {payload.shape} does not fit the {self._left} "
                f"matrices of shape {self._shape} left to write"
            )
        if self._fh is None:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            self._opened.append(self.path)
            self._fh = open(fd, "wb")
            self._in_place = stat.S_ISREG(os.fstat(fd).st_mode)
            self._fh.write(bytes(_HEADER.size) if self._in_place else self._header)
        self._fh.write(payload.data)
        self._fh.flush()
        self._left -= len(payload)

    def finish(self, ids, labels) -> None:
        """Cut the SPDB file at its payload's end, write its header, close it
        and write the labels sidecar."""
        if self._left:
            raise ValueError(f"{self._left} of {self._count} matrices were never written")
        if self._fh is None:
            self.write(np.empty((0, *self._shape)))
        if self._in_place:
            self._fh.truncate()
            self._fh.seek(0)
            self._fh.write(self._header)
        self._fh.close()
        with self.open(_labels_path(self.path)) as fh:
            writer = csv_writer(fh, ids)
            writer.writerow(["id", "label"])
            writer.writerows(zip(ids, _format_labels(labels)))


def write_matrices(path, dataset: LabeledDataset) -> None:
    """Write a dataset as an SPDB file plus its labels sidecar CSV, as one
    chunk of an :class:`SpdbWriter`."""
    with SpdbWriter(path, dataset.dim, len(dataset), dataset.task, dataset.is_correlation) as out:
        out.write(dataset.matrices)
        out.finish(dataset.ids, dataset.labels)


def _number(sample_id: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpdbFormatError(f"sample {sample_id}: label {text!r} is not a number") from None


def _parse_labels(rows: list[tuple[str, str]], task: str) -> np.ndarray:
    if any(";" in text for _, text in rows):
        parsed = [
            [_number(sample_id, v) for v in text.split(";")] for sample_id, text in rows
        ]
        widths = {len(p) for p in parsed}
        if len(widths) > 1:
            raise SpdbFormatError("soft labels have inconsistent widths")
        return np.asarray(parsed, dtype=np.float64)
    values = [_number(sample_id, text) for sample_id, text in rows]
    if task == TASK_CLASSIFICATION:
        for (sample_id, text), value in zip(rows, values):
            if not value.is_integer():
                raise SpdbFormatError(f"sample {sample_id}: class id {text!r} is not an integer")
        return np.asarray([int(v) for v in values], dtype=np.int64)
    return np.asarray(values, dtype=np.float64)


def read_matrices(path) -> LabeledDataset:
    """Read an SPDB file and its labels sidecar back into a dataset.

    The roundtrip with :func:`write_matrices` is bitwise exact. Corrupt files
    fail with a distinct :class:`SpdbFormatError` (bad magic, version
    mismatch, truncated payload, or label-count mismatch), never garbage data.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise SpdbFormatError(f"truncated header: {size} bytes in {path}")
        magic, version, n, count, flags = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise SpdbFormatError(f"bad magic {magic!r} in {path}")
        if version != VERSION:
            raise SpdbFormatError(f"version mismatch: file has {version}, expected {VERSION}")
        expected = count * n * n * 8
        got = size - _HEADER.size
        if got != expected:
            raise SpdbFormatError(
                f"truncated payload: expected {expected} bytes for count={count}, "
                f"n={n}, found {got}"
            )
        matrices = np.fromfile(fh, dtype="<f8", count=count * n * n)
    matrices = matrices.reshape(count, n, n)
    task = TASK_REGRESSION if flags & FLAG_REGRESSION else TASK_CLASSIFICATION

    labels_file = _labels_path(path)
    if not labels_file.exists():
        raise SpdbFormatError(f"missing labels sidecar {labels_file}")
    with open(labels_file, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "label"]:
            raise SpdbFormatError(f"labels CSV has header {header}, expected id,label")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise SpdbFormatError(
                    f"{labels_file}, line {reader.line_num}: {len(row)} fields, "
                    f"expected 2 (id,label)"
                )
            rows.append((row[0], row[1]))
    if len(rows) != count:
        raise SpdbFormatError(
            f"label-count mismatch: {count} matrices but {len(rows)} label rows"
        )
    return LabeledDataset(
        matrices=matrices,
        labels=_parse_labels(rows, task),
        task=task,
        is_correlation=bool(flags & FLAG_CORRELATION),
        ids=[sample_id for sample_id, _ in rows],
    )


def write_series_csv(path, series: np.ndarray, layout: str = "vars-as-rows") -> None:
    """Write one (n_vars, n_steps) series as CSV in the requested orientation."""
    arr = np.asarray(series, dtype=np.float64)
    if layout == "vars-as-rows":
        table = arr
    elif layout == "vars-as-cols":
        table = arr.T
    else:
        raise ValueError(f"unknown series layout {layout!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_series_csv(path, layout: str = "vars-as-rows") -> np.ndarray:
    """Read a series CSV; an optional non-numeric first row is a name header.

    Empty or ragged files and non-numeric values raise :class:`FormatError`.
    A leading UTF-8 byte-order mark is skipped. Values are parsed by
    ``np.loadtxt``; a file it rejects is read again row by row with
    ``float()``, which names the offending line.
    """
    if layout not in ("vars-as-rows", "vars-as-cols"):
        raise ValueError(f"unknown series layout {layout!r}")
    table = _parse_series_table(path)
    if table is None:
        table = _parse_series_rows(path)
    return table if layout == "vars-as-rows" else table.T


def _is_header(row: list[str]) -> bool:
    try:
        float(row[0])
    except ValueError:
        return True
    return False


def _parse_series_table(path) -> np.ndarray | None:
    """The data rows as one ``np.loadtxt`` table, or ``None`` where loadtxt
    fails or finds no data."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        first = next((row for row in reader if row), None)
        if first is None:
            return None
        header_lines = reader.line_num if _is_header(first) else 0
        fh.seek(0)
        try:
            with warnings.catch_warnings():
                # loadtxt only warns about a file without data rows
                warnings.simplefilter("error")
                # comments=None: the default "#" would drop text float() rejects
                table = np.loadtxt(
                    fh, delimiter=",", comments=None, ndmin=2, skiprows=header_lines
                )
        except (ValueError, UserWarning):
            return None
    return table if table.size else None


def _parse_series_rows(path) -> np.ndarray:
    """The data rows parsed one by one; errors name the file and line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if rows and _is_header(rows[0][1]):
        rows = rows[1:]
    if not rows:
        raise FormatError(f"{path}: no data rows")
    width = len(rows[0][1])
    table = np.empty((len(rows), width))
    for k, (line, row) in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"{path}, line {line}: {len(row)} values, expected {width}")
        try:
            table[k] = [float(v) for v in row]
        except ValueError as exc:
            raise FormatError(f"{path}, line {line}: {exc}") from exc
    return table


def _sym_gauss(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return scale * (g + g.T) / (2.0 * np.sqrt(n))


def _check_noise(noise: float) -> None:
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")


def gen_random_spd(n: int, condition_target: float, rng: np.random.Generator) -> SpdMatrix:
    """Random SPD matrix with condition number within a factor 2 of target.

    Uses a QR-orthogonalized Gaussian basis and log-uniform eigenvalues in
    ``[1/sqrt(kappa), sqrt(kappa)]`` with the extremes pinned, so the target
    is hit exactly up to rounding.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 1.0 <= condition_target < np.inf:
        raise ValueError(f"condition target must be >= 1 and finite, got {condition_target}")
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if condition_target == 1.0 or n == 1:
        w = np.ones(n)
    else:
        span = np.log(condition_target)
        exponents = rng.uniform(0.0, span, size=n)
        exponents[0] = 0.0
        exponents[-1] = span
        w = np.exp(np.sort(exponents) - span / 2.0)
    arr = (q * w) @ q.T
    arr = (arr + arr.T) / 2.0
    return SpdMatrix._trusted(arr, float(w.min()), float(w.max()))


def gen_synthetic_series(
    n: int,
    t: int,
    latent_rank: int,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Series whose rows are linear mixtures of ``latent_rank`` latent signals.

    With ``noise > 0`` and ``t >= n + 1`` the sample correlation matrix is SPD
    with high probability; with ``noise = 0`` its rank is capped by the
    latent rank.
    """
    if not 1 <= latent_rank <= n:
        raise ValueError(f"latent rank must lie in [1, {n}], got {latent_rank}")
    _check_noise(noise)
    mixing = rng.standard_normal((n, latent_rank))
    latent = rng.standard_normal((latent_rank, t))
    series = mixing @ latent
    if noise > 0.0:
        with np.errstate(over="ignore"):  # rejected below
            series = series + noise * rng.standard_normal((n, t))
    if not np.isfinite(series).all():
        raise ValueError(f"the series leaves float64's range at noise {noise}")
    return series


def gen_labeled_dataset(
    n: int,
    count: int,
    task: str,
    structure: str,
    rng: np.random.Generator,
    *,
    noise: float = 0.0,
    n_classes: int = 2,
    separation: float = 3.0,
) -> LabeledDataset:
    """Synthetic labeled SPD dataset.

    ``structure="log-linear"`` (regression): matrices ``exp(B + y H)`` for
    fixed random symmetric ``B, H`` and labels uniform on [0, 1], so the
    log-matrices are exactly linear in the label; ``noise`` adds a per-sample
    symmetric perturbation inside the exponential.

    ``structure="clustered"`` (classification): per-class centers built from
    random SPD matrices pushed ``separation`` apart in log-space, with
    ``noise``-scaled log-space jitter per sample.

    A ``noise``, ``separation`` or class count that takes a sample beyond
    float64's range raises ``ValueError`` naming the parameters that set the
    spread.
    """
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    _check_noise(noise)
    if structure == "log-linear":
        if task != TASK_REGRESSION:
            raise ValueError("log-linear structure generates regression labels")
        base = _sym_gauss(n, rng, scale=0.5)
        slope = _sym_gauss(n, rng, scale=1.0)
        labels = rng.uniform(0.0, 1.0, size=count)
        logs = labels[:, None, None] * slope
        logs += base
    elif structure == "clustered":
        if task != TASK_CLASSIFICATION:
            raise ValueError("clustered structure generates classification labels")
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        if not np.isfinite(separation):
            raise ValueError(f"separation must be finite, got {separation}")
        centers = []
        for c in range(n_classes):
            base = gen_random_spd(n, 10.0, rng)
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below
                centers.append(matrix_log(base) + c * separation * np.eye(n))
        labels = np.arange(count) % n_classes
        logs = np.stack(centers)[labels]
    else:
        raise ValueError(f"unknown structure {structure!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # matrix_exp rejects overflow
            for part in _chunks(count, n):  # a chunk's exponentials overwrite its logs
                if noise > 0.0:
                    g = rng.standard_normal(logs[part].shape)
                    logs[part] += noise * (g + g.swapaxes(1, 2)) / (2.0 * np.sqrt(n))
                logs[part] = matrix_exp(logs[part])
    except ValueError as exc:
        spread = f"noise {noise}" if structure != "clustered" else (
            f"noise {noise}, separation {separation} and classes {n_classes}"
        )
        raise ValueError(f"a sample leaves float64's range at {spread}: {exc}") from exc
    return LabeledDataset(matrices=logs, labels=labels, task=task)
