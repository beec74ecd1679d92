"""Every CLI output against the committed golden record (``tests/golden``).

The record pins history, not formulas: each operation's exit code, stdout,
warnings, solve ledger and written files. On the machine the record was made
on (same numpy version, BLAS build and CPU model) every byte must match. On
another machine LAPACK and libm may round differently, so there the byte
comparison is skipped and only the tolerance comparison runs: each SPDB
payload is held to 1e-12 relative Frobenius per matrix and the numbers of
each text output, as one vector, to 1e-12 relative Frobenius, with every
other character equal. Exit codes, warnings and solve ledgers match exactly in
both.
"""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from spdmix import augment

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TOLERANCE = 1e-12
# a number not glued to a word, so ids such as s000007 stay text
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


@pytest.fixture(scope="module")
def record():
    return json.loads(golden.RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden.run(tmp_path_factory.mktemp("golden"))


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.linalg.norm(got - want) <= TOLERANCE * np.linalg.norm(want)
    )


def _numbers(text: str) -> tuple[str, list[float]]:
    """``text`` with every number replaced by ``#``, and the numbers in order."""
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


def _same_text(got: str, want: str) -> bool:
    (got_shape, got_numbers), (want_shape, want_numbers) = _numbers(got), _numbers(want)
    return got_shape == want_shape and _close(got_numbers, want_numbers)


def test_record_covers_every_operation(record):
    assert sorted(record["operations"]) == sorted(name for name, _ in golden.OPERATIONS)
    assert {s for name in record["operations"] for s in augment.STRATEGIES
            if name.startswith(f"mix-{s}-")} == set(augment.STRATEGIES)


@pytest.mark.parametrize("mode", ["bytes", "tolerance"])
@pytest.mark.parametrize("name", [name for name, _ in golden.OPERATIONS])
def test_operation_matches_the_record(name, mode, record, fresh):
    want = record["operations"][name]
    got = fresh[0][name]
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert got["solves"] == want["solves"], "the solve ledger moved"
    assert got["warnings"] == want["warnings"]
    assert sorted(got["files"]) == sorted(want["files"])
    if mode == "bytes":
        if golden.machine() != record["machine"]:
            pytest.skip(f"record made on {record['machine']}, not {golden.machine()}")
        assert got["stdout_sha256"] == want["stdout_sha256"], got["stdout"]
        for file, entry in want["files"].items():
            assert got["files"][file]["sha256"] == entry["sha256"], file
        return
    assert _same_text(got["stdout"], want["stdout"]), got["stdout"]
    arrays = np.load(golden.ARRAYS)
    for file, entry in want["files"].items():
        if "text" in entry:
            assert _same_text(got["files"][file]["text"], entry["text"]), file
            continue
        assert got["files"][file]["header"] == entry["header"], file
        mats, stored = fresh[1][f"{name}/{file}"], arrays[f"{name}/{file}"]
        assert mats.shape == stored.shape, file
        assert all(_close(a, b) for a, b in zip(mats, stored)), file


def test_tolerance_path_sees_text_and_number_changes():
    csv = "pair,lam,err\ns000001:s000002,0.25,1.5e-03\ns000003:s000004,0.5,2.0e-03\n"
    assert _same_text(csv, csv)
    assert _same_text(csv.replace("1.5e-03", "1.5000000000000004e-03"), csv)
    assert not _same_text(csv.replace("1.5e-03", "1.5001e-03"), csv)
    assert not _same_text(csv.replace("s000001", "s000009"), csv)
    assert _numbers('{"mean_dr": 0.5, "trials": 40}') == ('{"mean_dr": #, "trials": #}', [0.5, 40])
