"""Workload definitions: the inputs each workload generates and the CLI
operations one measurement cycle runs.

Every workload runs all five operation kinds, so every end-to-end metric is
measured on every workload. The mix operations differ in matrix size, and
with it the layer that dominates; regress, probe and diagnose are the same on
both. The first operation of the cycle is also the warm-up.

Operation kinds and their throughput unit ("item"):

    rmixup    mix --strategy rmixup --cache on     samples written
    baseline  mix with one of the six baselines    samples written
    regress   regress (default 11-value grid)      trials (pairs)
    probe     probe                                trials
    diagnose  diagnose --sweep over series files   report rows (series x sweep)

All inputs and seeds derive from the benchmark's ``--seed``; the program
sees only the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

BASELINES = ("vmixup", "dmixup", "dropnode", "dropedge", "gmixup", "cmixup")
SWEEP = (60, 120, 240, 480, 960)

# Per workload: generated datasets (gen flags) and the operations of one
# cycle as (kind, dataset, size). Sizes are output counts for mix operations
# and trial counts for regress/probe.
#
# Both workloads also run the same regress, probe and diagnose operations:
# n=50 regress and probe (direct matrix_log/matrix_exp, metrics, regress)
# and n=120 diagnose (spdness and series CSV parsing). At n=8 their figures
# spread by up to 0.30 between runs, and at n=360, where they run on both
# vCPUs through OpenBLAS, by up to 0.35.
ANALYZE_DATASETS = {
    # gen --kind spd keeps regress at exit 0; log-linear data exits 4.
    "pairs": {"kind": "spd", "n": 50, "count": 64},
    "probeset": {"kind": "log-linear", "n": 50, "count": 64, "noise": 0.1},
    "series": {"kind": "series", "n": 120, "t": 960, "count": 4, "noise": 0.5},
}
ANALYZE_OPS = [
    ("regress", "pairs", 100),
    ("probe", "probeset", 500),
    ("diagnose", "series", None),
]

SPECS = {
    # n=8: per-sample Python dispatch dominates mixing.
    "mix-small": {
        "datasets": {
            "mixset": {"kind": "log-linear", "n": 8, "count": 256, "noise": 0.1},
            **ANALYZE_DATASETS,
        },
        "cycle": [
            ("rmixup", "mixset", 5000),
            *(("baseline:" + s, "mixset", 5000) for s in BASELINES),
            *ANALYZE_OPS,
        ],
    },
    # n=360: LAPACK-bound; each rmixup operation writes 64 MiB.
    "mix-large": {
        "datasets": {"mixset": {"kind": "spd", "n": 360, "count": 64}, **ANALYZE_DATASETS},
        # A baseline comes first, and so is the warm-up: an rmixup warm-up
        # would add three 4 s operations to every run's set-up.
        "cycle": [
            *(("baseline:" + s, "mixset", 64) for s in BASELINES),
            ("rmixup", "mixset", 64),
            *ANALYZE_OPS,
        ],
    },
}


@dataclass
class Dataset:
    name: str
    argv: list[str]
    files: list[Path]  # every file the gen command writes
    n: int
    count: int


@dataclass
class Op:
    kind: str  # one of report.ALL
    strategy: str | None  # mix strategy, or None
    argv: list[str]
    items: int
    n: int
    inputs: list[Path]  # files the operation reads
    dataset: Dataset | None  # SPDB input, or None for series input
    outputs: list[Path] = field(default_factory=list)  # SPDB, labels, provenance


def _shrink(spec: dict) -> dict:
    """Tiny version of a workload, for the smoke test: same operations,
    a few samples and trials each. Probe keeps 200 trials, because its check
    compares two means whose gap is within their noise at a few trials."""
    datasets = {}
    for name, d in spec["datasets"].items():
        d = dict(d, n=min(d["n"], 6), count=min(d["count"], 12))
        if d["kind"] == "series":
            d["t"] = 120
            d["count"] = min(d["count"], 2)
        datasets[name] = d
    cycle = [(k, ds, None if size is None else min(size, 200 if k == "probe" else 6))
             for k, ds, size in spec["cycle"]]
    return {"datasets": datasets, "cycle": cycle}


def build(workload: str, seed: int, work: Path, tiny: bool = False):
    """Return ``(datasets, cycle)`` for a workload under ``work``."""
    spec = SPECS[workload]
    if tiny:
        spec = _shrink(spec)
    datasets: dict[str, Dataset] = {}
    for k, (name, d) in enumerate(spec["datasets"].items()):
        argv = ["gen", "--kind", d["kind"], "--n", str(d["n"]), "--count", str(d["count"]),
                "--seed", str(seed * 16 + k)]
        if "noise" in d:
            argv += ["--noise", repr(d["noise"])]
        if d["kind"] == "series":
            argv += ["--t", str(d["t"])]
            target = work / f"{name}.csv"
            if d["count"] == 1:
                files = [target]
            else:
                files = [work / f"{name}_{j:03d}.csv" for j in range(d["count"])]
        else:
            target = work / f"{name}.spdb"
            files = [target, work / f"{name}.labels.csv"]
        argv += ["-o", str(target)]
        datasets[name] = Dataset(name, argv, files, d["n"], d["count"])

    cycle: list[Op] = []
    for j, (label, name, size) in enumerate(spec["cycle"]):
        ds = datasets[name]
        op_seed = str(seed * 16 + j)
        kind, _, strategy = label.partition(":")
        if kind in ("rmixup", "baseline"):
            strategy = strategy or "rmixup"
            out = work / f"out_{j:02d}_{strategy}.spdb"
            cache = ["--cache", "on"] if kind == "rmixup" else []
            argv = ["mix", "--input", str(ds.files[0]), "--strategy", strategy, *cache,
                    "--count", str(size), "--seed", op_seed, "-o", str(out)]
            outputs = [out, out.with_name(out.stem + ".labels.csv"),
                       out.with_name(out.stem + ".provenance.csv")]
            cycle.append(Op(kind, strategy, argv, size, ds.n, ds.files, ds, outputs))
        elif kind in ("regress", "probe"):
            argv = [kind, "--input", str(ds.files[0]), "--trials", str(size), "--seed", op_seed]
            cycle.append(Op(kind, None, argv, size, ds.n, ds.files, ds))
        else:
            sweep = [s for s in SWEEP if s <= spec["datasets"][name]["t"]]
            argv = ["diagnose", "--input", *map(str, ds.files),
                    "--sweep", ",".join(map(str, sweep))]
            cycle.append(Op(kind, None, argv, len(ds.files) * len(sweep), ds.n, ds.files, None))
    return list(datasets.values()), cycle
