"""Command-line front end: dataset generation, mixing, diagnostics and checks.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 domain
incompatibility (strategy/task mismatch, invalid dataset for an operation),
4 invariant violation detected by a check.

Reports are machine-readable (CSV or single-line JSON) on stdout; any human
prose goes to stderr. Every subcommand with a ``--seed`` flag is
bit-reproducible; seeds are unsigned 64-bit integers. ``--config FILE``
reads each line ``key=value`` as the flag ``--key=value``, placed before the
command line's flags: it is converted and checked as that flag is, explicit
flags win, and a key is accepted exactly when ``--key`` is. A config file
cannot supply a required flag.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import augment, regress, spdness
from .data_io import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    FormatError,
    LabeledDataset,
    SpdbWriter,
    csv_writer,
    gen_labeled_dataset,
    gen_random_spd,
    gen_synthetic_series,
    read_matrices,
    read_series_csv,
    write_matrices,
    write_series_csv,
)

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _checked(check):
    """argparse type: an integer that ``check`` accepts; the ``ValueError``
    it raises otherwise becomes the usage error."""

    def integer(text: str) -> int:
        value = int(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    return integer


_seed = _checked(augment._check_seed)
_series_length = _checked(spdness._check_series_length)


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    return count


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv_writer(buf, [str(row[0]) for row in rows])
    writer.writerow(header)
    writer.writerows(rows)
    if out_path:
        Path(out_path).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated ``kind`` values (``int`` or ``float``) of ``flag``."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        name = "integer" if kind is int else "float"
        raise _UsageError(f"{flag} expects a comma-separated {name} list: {exc}")
    if not values:
        raise _UsageError(f"{flag} list is empty")
    return values


# ----------------------------------------------------------------------
# gen

# The gen flags that only some kinds read: those kinds, and the default.
_GEN_KIND_FLAGS = {
    "t": (("series",), None),
    "latent_rank": (("series",), None),
    "noise": (("log-linear", "clustered", "series"), 0.0),
    "condition": (("spd",), 100.0),
    "classes": (("clustered",), 2),
    "separation": (("clustered",), 3.0),
    "series_layout": (("series",), "vars-as-rows"),
}


def _gen_kind_flags(args) -> None:
    """Reject a flag the chosen kind does not read; default those it does."""
    for name, (kinds, default) in _GEN_KIND_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.kind not in kinds:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} applies to --kind {' or '.join(kinds)} only")


def cmd_gen(args) -> int:
    _gen_kind_flags(args)
    rng = np.random.default_rng(args.seed)
    if args.kind == "series":
        if args.t is None:
            raise _UsageError("--t is required for --kind series")
        latent = args.latent_rank if args.latent_rank is not None else args.n
        # every series is drawn before any is written: a failing draw writes nothing
        all_series = [
            gen_synthetic_series(args.n, args.t, latent, args.noise, rng)
            for _ in range(args.count)
        ]
        files = []
        for k, series in enumerate(all_series):
            if args.count == 1:
                target = Path(args.output)
            else:
                stem = Path(args.output)
                target = stem.with_name(f"{stem.stem}_{k:03d}{stem.suffix or '.csv'}")
            write_series_csv(target, series, layout=args.series_layout)
            files.append(str(target))
        _emit_json(
            {"kind": args.kind, "count": args.count, "n": args.n, "t": args.t,
             "seed": args.seed, "files": files}
        )
        return 0
    if args.kind == "log-linear":
        dataset = gen_labeled_dataset(
            args.n, args.count, TASK_REGRESSION, "log-linear", rng, noise=args.noise
        )
    elif args.kind == "clustered":
        dataset = gen_labeled_dataset(
            args.n,
            args.count,
            TASK_CLASSIFICATION,
            "clustered",
            rng,
            noise=args.noise,
            n_classes=args.classes,
            separation=args.separation,
        )
    else:  # spd
        # drawn in order into one stack: the output is held once
        mats = np.empty((args.count, args.n, args.n))
        for k in range(args.count):
            mats[k] = gen_random_spd(args.n, args.condition, rng).array
        dataset = LabeledDataset(
            matrices=mats,
            labels=rng.uniform(0.0, 1.0, size=args.count),
            task=TASK_REGRESSION,
        )
    write_matrices(args.output, dataset)
    _emit_json(
        {"kind": args.kind, "count": args.count, "n": args.n, "seed": args.seed,
         "output": str(args.output)}
    )
    return 0


# ----------------------------------------------------------------------
# mix


def cmd_mix(args) -> int:
    dataset = read_matrices(args.input)
    config = augment.MixConfig(
        strategy=args.strategy,
        alpha=args.alpha,
        keep_prob=args.keep_prob,
        cmix_bandwidth=args.bandwidth,
        seed=args.seed,
    )
    if args.cache is not None:
        print("note: --cache is deprecated and has no effect", file=sys.stderr)
    # each part goes to disk as it comes; a failure unlinks what was written
    stream = augment.MixStream(dataset, config, args.count)
    output = Path(args.output)
    with SpdbWriter(output, stream.dim, stream.count, stream.task, stream.is_correlation) as out:
        for _, part in stream:
            out.write(part)
        out.finish(stream.ids, stream.labels)
        with out.open(output.with_name(output.stem + ".provenance.csv")) as fh:
            writer = csv_writer(fh, dataset.ids)
            writer.writerow(stream.provenance.CSV_HEADER)
            writer.writerows(stream.provenance.csv_rows(stream.ids))
    _emit_json(
        {"strategy": args.strategy, "count": stream.count, "n": dataset.dim,
         "seed": args.seed, "output": str(args.output)}
    )
    return 0


# ----------------------------------------------------------------------
# diagnose


def _infer_format(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    return "spdb" if path.endswith(".spdb") else "series"


def cmd_diagnose(args) -> int:
    sweep = _parse_list(args.sweep, "--sweep", int) if args.sweep else None
    try:
        for tt in sweep or ():
            spdness._check_series_length(tt)
    except ValueError as exc:
        raise _UsageError(f"--sweep: {exc}") from exc
    header = ["id", "n", "t", "positive_count", "spdness_pct", "is_spd"]
    rows: list[list] = []
    per_t: dict[int, list[float]] = {}

    def add(sample_id: str, rep: spdness.SpdnessReport) -> None:
        rows.append(
            [sample_id, rep.n, rep.t, rep.positive_count,
             f"{rep.spdness_pct:.4f}", int(rep.is_spd)]
        )
        per_t.setdefault(rep.t, []).append(rep.spdness_pct)

    for path in args.input:
        fmt = _infer_format(path, args.format)
        if fmt == "spdb":
            if sweep is not None:
                raise _UsageError("--sweep applies to series input only")
            if args.t is None:
                raise _UsageError("--t is required for matrix (SPDB) input")
            dataset = read_matrices(path)
            for sample_id, mat in zip(dataset.ids, dataset.matrices):
                add(sample_id, spdness.spdness_report(mat, dataset.dim, args.t))
        else:
            if args.t is not None:
                raise _UsageError("--t applies to matrix (SPDB) input only")
            series = read_series_csv(path, layout=args.series_layout)
            n, t = series.shape
            name = Path(path).stem
            lengths = sweep if sweep is not None else [t]
            for tt in lengths:
                if tt > t:
                    raise _UsageError(f"sweep length {tt} exceeds the series length {t}")
                if args.reduce == "average" and t % tt != 0:
                    raise _UsageError(
                        f"sweep length {tt} does not divide the series length {t}"
                    )
                reduced = (
                    spdness.truncate(series, tt)
                    if args.reduce == "truncate"
                    else spdness.downsample_by_averaging(series, tt)
                )
                add(name, spdness.spdness_report(spdness.correlation(reduced), n, tt))

    for tt in sorted(per_t):
        pcts = per_t[tt]
        rows.append(
            ["aggregate", "", tt, "", f"{float(np.mean(pcts)):.4f}",
             f"{float(np.mean([p == 100.0 for p in pcts])):.4f}"]
        )
    _emit_csv(header, rows, args.output)
    return 0


# ----------------------------------------------------------------------
# regress


def cmd_regress(args) -> int:
    dataset = read_matrices(args.input)
    if dataset.task != TASK_REGRESSION:
        raise ValueError("the regression harness requires a regression dataset")
    if len(dataset) < 2:
        raise ValueError("need at least 2 samples")
    lambdas = _parse_list(args.lambdas, "--lambdas", float)
    rng = np.random.default_rng(args.seed)
    pairs = np.empty((args.trials, 2), dtype=np.intp)
    for pair in pairs:
        a = int(rng.integers(len(dataset)))
        pair[:] = a, augment._partner_uniform(a, int(rng.integers(len(dataset) - 1)))
    tables = regress.theorem1_trials(dataset, pairs[:, 0], pairs[:, 1], lambdas, args.sigma)
    header = ["pair", "lam", "err_geodesic", "err_line", "violation", "ordering_violation"]
    rows: list[list] = []
    violations = 0
    for (a, b), table in zip(pairs.tolist(), tables):
        pair = f"{dataset.ids[a]}:{dataset.ids[b]}"
        for row in table:
            violations += int(row.loss_violation)
            rows.append(
                [pair, repr(row.lam), repr(row.err_geodesic_sq), repr(row.err_line_sq),
                 int(row.loss_violation), int(row.ordering_violation)]
            )
    _emit_csv(header, rows, args.output)
    if violations:
        print(f"error: {violations} loss violations detected", file=sys.stderr)
        return 4
    return 0


# ----------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    dataset = read_matrices(args.input)
    rng = np.random.default_rng(args.seed)
    result = augment.incorrect_label_probe(dataset, args.trials, rng)
    _emit_json(
        {
            "trials": args.trials,
            "mean_dv": result.mean_dv,
            "mean_dr": result.mean_dr,
            "std_dv": result.std_dv,
            "std_dr": result.std_dr,
            "relative_gap": result.relative_gap,
        }
    )
    return 0


# ----------------------------------------------------------------------
# parser plumbing


_COMMANDS = {
    "gen": cmd_gen, "mix": cmd_mix, "diagnose": cmd_diagnose,
    "regress": cmd_regress, "probe": cmd_probe,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdmix",
        description="Geodesic mixup and diagnostics for SPD matrix datasets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value defaults file")
        return p

    p = sub("gen", "generate synthetic datasets or series")
    p.add_argument("--kind", required=True, choices=["log-linear", "clustered", "spd", "series"])
    p.add_argument("--n", type=_count(1), required=True,
                   help="matrix dimension / variable count")
    p.add_argument("--count", type=_count(1), default=1, help="samples (or series files)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--t", type=_series_length, default=None, help="series length (kind=series)")
    p.add_argument("--latent-rank", type=int, default=None,
                   help="latent signals (kind=series; default --n)")
    p.add_argument("--noise", type=float, default=None,
                   help="noise scale (kind=log-linear, clustered or series; default 0)")
    p.add_argument("--condition", type=float, default=None,
                   help="condition target (kind=spd; default 100)")
    p.add_argument("--classes", type=int, default=None,
                   help="class count (kind=clustered; default 2)")
    p.add_argument("--separation", type=float, default=None,
                   help="class gap (kind=clustered; default 3)")
    p.add_argument("--series-layout", default=None, choices=["vars-as-rows", "vars-as-cols"],
                   help="kind=series; default vars-as-rows")
    p.add_argument("-o", "--output", required=True)

    p = sub("mix", "augment a dataset with one strategy")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", required=True, choices=list(augment.STRATEGIES))
    p.add_argument("--alpha", type=float, default=1.0, help="Beta shape for the mix ratio")
    p.add_argument("--keep-prob", type=float, default=0.9)
    p.add_argument("--bandwidth", type=float, default=None, help="label kernel width (cmixup)")
    p.add_argument("--count", type=_count(0), default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cache", choices=["on", "off"], default=None,
                   help="deprecated, no effect")
    p.add_argument("-o", "--output", required=True)

    p = sub("diagnose", "eigenvalue positivity reports for series or matrices")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--format", choices=["auto", "spdb", "series"], default="auto")
    p.add_argument("--series-layout", default="vars-as-rows",
                   choices=["vars-as-rows", "vars-as-cols"])
    p.add_argument("--t", type=_series_length, default=None,
                   help="series length behind SPDB input")
    p.add_argument("--sweep", default=None, help="comma-separated target lengths")
    p.add_argument("--reduce", choices=["truncate", "average"], default="truncate")
    p.add_argument("-o", "--output", default=None)

    p = sub("regress", "geodesic-vs-line regression comparison harness")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=_count(0), default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sigma", type=float, default=None,
                   help="kernel bandwidth; default 8x each pair's distance")
    p.add_argument("--lambdas", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("-o", "--output", default=None)

    p = sub("probe", "incorrect-label probe on a regression dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--trials", type=_count(1), default=1000)
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def _config_flags(path: str) -> list[str]:
    """Each ``key=value`` line of the config file as the flag ``--key=value``."""
    flags = []
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line is not key=value: {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key and "config".startswith(key):
            raise _UsageError(f"a config file cannot set --config: {line!r}")
        flags.append(f"--{key}={value}")
    return flags


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # ahead of the command line's flags, so that an explicit flag wins
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
