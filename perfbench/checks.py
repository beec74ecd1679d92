"""Output checks for each operation kind, independent of the spdmix package.

SPDB files are read here with a reader of their own, and geodesic mixes are
recomputed with ``numpy.linalg.eigh``, so a defect in spdmix's reader,
writer or linear algebra shows as a failed check rather than agreeing with
itself. Every check returns a list of problems; an empty list is a pass.
Matrices are read in bounded chunks so that checking adds little to the
process's peak memory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sHIII")
_CHUNK_BYTES = 4 << 20

REF_RTOL = 1e-10  # rmixup output against the numpy reference, Frobenius
LOGDET_TOL = 1e-9  # no-swelling identity, relative to max(1, |log det|)
SYM_RTOL = 1e-12  # asymmetry of any mix output, Frobenius
LOSS_SLACK = 1e-12  # the regress harness's own loss-violation slack


class Spdb:
    """Read-only view of an SPDB file and its ``.labels.csv`` sidecar."""

    def __init__(self, path: Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            magic, version, self.n, self.count, self.flags = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != b"SPDB" or version != 1:
            raise ValueError(f"{self.path.name}: not an SPDB v1 file")
        expected = _HEADER.size + self.count * self.n * self.n * 8
        if self.path.stat().st_size != expected:
            raise ValueError(f"{self.path.name}: size does not match its header")
        with open(self.path.with_name(self.path.stem + ".labels.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["id", "label"]]:
            raise ValueError(f"{self.path.name}: labels sidecar has no id,label header")
        self.ids = [r[0] for r in rows[1:]]
        self.labels = [r[1] for r in rows[1:]]
        self.index = {sample_id: k for k, sample_id in enumerate(self.ids)}
        self._all = None
        if self.count * self.n * self.n * 8 <= _CHUNK_BYTES:
            self._all = self._read(0, self.count)

    def _read(self, start: int, stop: int) -> np.ndarray:
        size = self.n * self.n
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size + start * size * 8)
            raw = fh.read((stop - start) * size * 8)
        return np.frombuffer(raw, dtype="<f8").reshape(stop - start, self.n, self.n)

    def chunks(self):
        """Yield ``(start, stack)`` over all matrices, a few MiB at a time."""
        step = max(1, _CHUNK_BYTES // (self.n * self.n * 8))
        for start in range(0, self.count, step):
            stop = min(self.count, start + step)
            yield start, (self._all[start:stop] if self._all is not None else self._read(start, stop))

    def take(self, indices) -> np.ndarray:
        if self._all is not None:
            return self._all[list(indices)]
        return np.stack([self._read(k, k + 1)[0] for k in indices])


def _log_spd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(stack)
    return (v * np.log(w)[:, None, :]) @ np.swapaxes(v, 1, 2), np.log(w).sum(axis=1)


def _exp_sym(stack: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(stack)
    return (v * np.exp(w)[:, None, :]) @ np.swapaxes(v, 1, 2)


def _fro(stack: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("kij,kij->k", stack, stack))


def _mixed(y_i: float, y_j: float, lam: float) -> float:
    return (1.0 - lam) * y_i + lam * y_j


def check_mix(op, source: Spdb) -> list[str]:
    """Structure of every mix output; values of rmixup, vmixup and cmixup."""
    out = Spdb(op.outputs[0])
    problems = []
    if (out.count, out.n) != (op.items, source.n):
        return [f"{op.strategy}: wrote {out.count} matrices of n={out.n}, "
                f"expected {op.items} of n={source.n}"]
    with open(op.outputs[2], newline="") as fh:
        prov = list(csv.DictReader(fh))
    if len(out.ids) != op.items or len(prov) != op.items:
        return [f"{op.strategy}: {len(out.ids)} label rows, {len(prov)} provenance rows"]
    pairwise = op.strategy not in ("dropnode", "dropedge")
    src_i, src_j, lams = [], [], []
    for row in prov:
        if row["source_i"] not in source.index or (
            pairwise and row["source_j"] not in source.index
        ):
            return [f"{op.strategy}: provenance source ids not in the input: {row}"]
        src_i.append(source.index[row["source_i"]])
        src_j.append(source.index[row["source_j"]] if pairwise else src_i[-1])
        lams.append(float(row["lam"]) if pairwise else None)

    # Regression labels are written with repr, so the mixed label is exact.
    for k in range(op.items if source.flags & 2 else 0):
        want = float(source.labels[src_i[k]])
        if pairwise:
            want = _mixed(want, float(source.labels[src_j[k]]), lams[k])
        if float(out.labels[k]) != want:
            problems.append(f"{op.strategy}: label {k} is {out.labels[k]}, expected {want!r}")
            break

    for start, mats in out.chunks():
        stop = start + len(mats)
        asym = _fro(mats - np.swapaxes(mats, 1, 2))
        if np.any(asym > SYM_RTOL * _fro(mats)) or not np.isfinite(mats).all():
            problems.append(f"{op.strategy}: asymmetric or non-finite output in [{start}, {stop})")
            break
        if op.strategy not in ("rmixup", "vmixup", "cmixup"):
            continue
        lam = np.asarray(lams[start:stop])[:, None, None]
        a = source.take(src_i[start:stop])
        b = source.take(src_j[start:stop])
        if op.strategy != "rmixup":
            if not np.array_equal(mats, (1.0 - lam) * a + lam * b):
                problems.append(f"{op.strategy}: output differs from (1-lam) S_i + lam S_j")
                break
            continue
        log_a, logdet_a = _log_spd(a)
        log_b, logdet_b = _log_spd(b)
        ref = _exp_sym((1.0 - lam) * log_a + lam * log_b)
        err = _fro(mats - ref) / _fro(ref)
        if np.any(err > REF_RTOL):
            k = start + int(np.argmax(err))
            problems.append(f"rmixup: sample {k} is {err.max():.2e} from the reference")
            break
        sign, logdet = np.linalg.slogdet(mats)
        want = (1.0 - lam[:, 0, 0]) * logdet_a + lam[:, 0, 0] * logdet_b
        if np.any(sign <= 0) or np.any(
            np.abs(logdet - want) > LOGDET_TOL * np.maximum(1.0, np.abs(want))
        ):
            problems.append(f"rmixup: log det identity fails in [{start}, {stop})")
            break
    return problems


def check_regress(op, stdout: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != op.items * 11:
        return [f"regress: {len(rows)} rows, expected {op.items} x 11"]
    for row in rows:
        err_g, err_l = float(row["err_geodesic"]), float(row["err_line"])
        if not (math.isfinite(err_g) and math.isfinite(err_l)):
            return [f"regress: non-finite error in {row}"]
        if int(row["violation"]) != int(err_g > err_l + LOSS_SLACK):
            return [f"regress: violation column disagrees with its errors in {row}"]
    return []


def check_probe(op, stdout: str) -> list[str]:
    result = json.loads(stdout)
    if result["trials"] != op.items:
        return [f"probe: reports {result['trials']} trials, expected {op.items}"]
    if not result["mean_dr"] < result["mean_dv"]:
        return [f"probe: geodesic mean {result['mean_dr']} is not below linear {result['mean_dv']}"]
    return []


def check_diagnose(op, stdout: str) -> list[str]:
    rows = [r for r in csv.DictReader(io.StringIO(stdout)) if r["id"] != "aggregate"]
    if len(rows) != op.items:
        return [f"diagnose: {len(rows)} report rows, expected {op.items}"]
    for row in rows:
        n, t, positive = int(row["n"]), int(row["t"]), int(row["positive_count"])
        if n != op.n or positive > min(n, t - 1):
            return [f"diagnose: positive_count {positive} exceeds min(n, t-1) in {row}"]
    return []


def check(op, stdout: str, sources: dict) -> list[str]:
    """Problems with one operation's output; ``sources`` caches input readers."""
    try:
        if op.kind in ("rmixup", "baseline"):
            key = op.dataset.name
            if key not in sources:
                sources[key] = Spdb(op.dataset.files[0])
            return check_mix(op, sources[key])
        if op.kind == "regress":
            return check_regress(op, stdout)
        if op.kind == "probe":
            return check_probe(op, stdout)
        return check_diagnose(op, stdout)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return [f"{op.kind}: unreadable output: {exc!r}"]
