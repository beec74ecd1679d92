"""The golden record of spdmix's output bits, and the script that rewrites it.

:func:`run` makes the inputs with ``spdmix gen`` and runs every operation of
:data:`OPERATIONS` in-process through ``cli.main``, inside one working
directory; an operation whose first word names one of :data:`STEPS` runs
that step of this script instead, which makes an input no ``gen`` kind
writes. For each operation it keeps the exit code, the stdout, the
warnings, the solves it made (``count_eig_calls``: all, values-only) and
every file it wrote, each with its sha256. ``record.json`` holds those
results and the machine they were made on; ``arrays.npz`` holds the matrices
of every SPDB file written, so that a machine with another numpy, BLAS or
CPU can compare within a tolerance instead of by bytes.

Rewrite the record (only in a change that moves output bits, saying why)::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np

from spdmix import cli
from spdmix.data_io import _HEADER, read_matrices, write_matrices
from spdmix.linalg import count_eig_calls

HERE = Path(__file__).resolve().parent
RECORD = HERE / "record.json"
ARRAYS = HERE / "arrays.npz"

_MIX = ["mix", "--count", "12", "--seed", "7"]
STRATEGIES = ("rmixup", "vmixup", "dmixup", "dropnode", "dropedge", "gmixup", "cmixup")
PAIRWISE = ("rmixup", "vmixup", "dmixup", "gmixup", "cmixup")
MASKED = ("dmixup", "dropnode", "dropedge")

# (name, argv), run in order in one directory: the gen steps make the inputs
OPERATIONS = [
    ("gen-reg8", ["gen", "--kind", "log-linear", "--n", "8", "--count", "24", "--seed", "1",
                  "--noise", "0.05", "-o", "reg8.spdb"]),
    ("gen-cls8", ["gen", "--kind", "clustered", "--n", "8", "--count", "24", "--seed", "2",
                  "--classes", "3", "--noise", "0.05", "-o", "cls8.spdb"]),
    ("gen-reg50", ["gen", "--kind", "log-linear", "--n", "50", "--count", "4", "--seed", "3",
                   "--noise", "0.05", "-o", "reg50.spdb"]),
    ("gen-series", ["gen", "--kind", "series", "--n", "6", "--t", "40", "--count", "2",
                    "--seed", "4", "-o", "series.csv"]),
    *[
        (f"mix-{s}-{data}", [*_MIX, "--strategy", s, "--input", f"{data}.spdb",
                             "-o", f"{s}-{data}.spdb"])
        for data in ("reg8", "cls8")
        for s in STRATEGIES
    ],
    ("mix-rmixup-reg50", ["mix", "--count", "3", "--seed", "9", "--strategy", "rmixup",
                          "--input", "reg50.spdb", "-o", "rmixup-reg50.spdb"]),
    ("regress", ["regress", "--input", "reg8.spdb", "--trials", "4", "--seed", "5"]),
    ("regress-sigma", ["regress", "--input", "reg8.spdb", "--trials", "3", "--seed", "6",
                       "--sigma", "2.5", "--lambdas", "0.25,0.5,0.75"]),
    ("probe", ["probe", "--input", "reg8.spdb", "--trials", "40", "--seed", "5"]),
    ("probe-reg50", ["probe", "--input", "reg50.spdb", "--trials", "6", "--seed", "8"]),
    ("diagnose-spdb", ["diagnose", "--input", "reg8.spdb", "--t", "20", "-o", "diag.csv"]),
    ("diagnose-series", ["diagnose", "--input", "series_000.csv", "series_001.csv",
                         "--sweep", "10,20,40"]),
    # many outputs per mask position: 400 outputs at n=4 are one part
    ("gen-reg4", ["gen", "--kind", "log-linear", "--n", "4", "--count", "16", "--seed", "10",
                  "--noise", "0.05", "-o", "reg4.spdb"]),
    *[
        (f"mix-{s}-reg4", ["mix", "--count", "400", "--seed", "11", "--strategy", s,
                           "--input", "reg4.spdb", "-o", f"{s}-reg4.spdb"])
        for s in MASKED
    ],
    ("mix-dmixup-reg4-alpha", ["mix", "--count", "400", "--seed", "11", "--alpha", "0.4",
                               "--strategy", "dmixup", "--input", "reg4.spdb",
                               "-o", "dmixup-reg4-alpha.spdb"]),
    # ratios drawn from Beta(0.4, 0.4), not Beta(1, 1)
    *[
        (f"mix-{s}-reg8-alpha", [*_MIX, "--alpha", "0.4", "--strategy", s,
                                 "--input", "reg8.spdb", "-o", f"{s}-reg8-alpha.spdb"])
        for s in PAIRWISE
    ],
    # hard classes on correlation input: gmixup writes a unit diagonal
    ("flag-cls8", ["flag-correlation", "cls8.spdb", "corr8.spdb"]),
    ("mix-gmixup-corr8", [*_MIX, "--strategy", "gmixup", "--input", "corr8.spdb",
                          "-o", "gmixup-corr8.spdb"]),
    # a mask of 1225 positions per output at n=50, over 14 outputs
    ("mix-dropedge-reg50", ["mix", "--count", "14", "--seed", "12", "--strategy", "dropedge",
                            "--input", "reg50.spdb", "-o", "dropedge-reg50.spdb"]),
]


def flag_correlation(source: str, target: str) -> int:
    """Write the samples of the SPDB file ``source`` to ``target`` flagged as
    correlation matrices. Their diagonals are not 1, so gmixup's unit
    diagonal differs from its draws there."""
    dataset = read_matrices(source)
    dataset.is_correlation = True
    write_matrices(target, dataset)
    return 0


STEPS = {"flag-correlation": flag_correlation}


def machine() -> dict:
    """What output bits depend on beyond the code: numpy, its BLAS build and the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu}


def _operation(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with warnings.catch_warnings(record=True) as seen, count_eig_calls() as solves, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        step = STEPS.get(argv[0])
        code = step(*argv[1:]) if step else cli.main(argv)
    text = stdout.getvalue()
    return {
        "argv": argv,
        "exit": code,
        "stdout": text,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in seen],
        "solves": [solves.count, solves.values_only],
    }


def run(workdir) -> tuple[dict, dict[str, np.ndarray]]:
    """Every operation's result, by name, and the matrices of every SPDB file
    written, keyed ``"<operation>/<file>"``; ``workdir`` must be empty."""
    workdir = Path(workdir)
    results, arrays = {}, {}
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep the stdout free of the directory
    try:
        for name, argv in OPERATIONS:
            before = set(os.listdir("."))
            result = results[name] = _operation(argv)
            result["files"] = {}
            for file in sorted(set(os.listdir(".")) - before):
                data = Path(file).read_bytes()
                entry = result["files"][file] = {"sha256": hashlib.sha256(data).hexdigest()}
                if file.endswith(".spdb"):
                    entry["header"] = data[: _HEADER.size].hex()
                    _, _, n, count, _ = _HEADER.unpack(data[: _HEADER.size])
                    payload = np.frombuffer(data[_HEADER.size :], "<f8")
                    arrays[f"{name}/{file}"] = payload.reshape(count, n, n)
                else:
                    entry["text"] = data.decode("utf-8")
    finally:
        os.chdir(cwd)
    return results, arrays


def write(workdir) -> None:
    """Rewrite ``record.json`` and ``arrays.npz`` from a run in ``workdir``."""
    results, arrays = run(workdir)
    record = {"machine": machine(), "operations": results}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    np.savez_compressed(ARRAYS, **arrays)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
    print(f"wrote {RECORD} and {ARRAYS}", file=sys.stderr)
