"""spdmix benchmark: CLI operations run in-process, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload mix-small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

One process calls ``spdmix.cli.main(argv)`` for one operation after another
(a closed loop with a single caller) on inputs generated from ``--seed``.
Set-up imports ``spdmix.cli`` once, then three times generates the inputs
and runs one untimed warm-up operation (the first of the cycle);
``setup_s`` is the import time plus the median of those three. The run then
repeats the workload's cycle of operations, one whole cycle at least, and
starts no operation after ``--seconds`` have passed. Each operation's wall
time is taken around ``cli.main`` alone; its output is checked afterwards
(see ``checks``). A repeat of an operation whose output bytes match those
of an earlier, fully checked repeat passes without the full check again. An
operation fails if it exits non-zero, raises, or fails its check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
operation twice in a row, untraced then traced, and reports the per-layer
metrics from the traced runs and ``trace_overhead_frac`` from the pair; the
spans are written to ``.perfbench_out/``. ``--smoke`` runs every workload at
tiny sizes in both modes and checks that every metric in BENCHMARK.json is
printed with its unit.

Stdout carries one provenance line and one operation-count line, then the
result as the last line. The program runs with its default thread settings.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_REPS = 3


class SetupError(RuntimeError):
    """Generating the inputs failed; nothing can be measured."""


def _import_cli():
    """Import ``spdmix.cli`` from ``src/`` of the checkout being measured."""
    src = ROOT / "src"
    if not (src / "spdmix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/spdmix under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    from spdmix import cli

    return cli


def _digest(stdout: str, paths) -> str:
    h = hashlib.blake2b(stdout.encode())
    for path in paths:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
    return h.hexdigest()


class Runner:
    """Executes, times and checks the operations of one workload."""

    def __init__(self, cli):
        import checks
        from spdmix.linalg import count_eig_calls

        self.cli = cli
        self.check = checks.check
        self.count_eig_calls = count_eig_calls
        self.attempted = 0
        self.failed = 0
        self._verified: dict[tuple, str] = {}
        self._sources: dict = {}

    def _call(self, argv, root=contextlib.nullcontext()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                with root:
                    rc = self.cli.main(argv)
            except Exception as exc:  # a crash fails the operation, not the run
                rc = f"raised {exc!r}"
            seconds = perf_counter() - start
        return rc, seconds, out.getvalue(), err.getvalue()

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def gen(self, dataset) -> float:
        self.attempted += 1
        rc, seconds, _, err = self._call(dataset.argv)
        missing = [str(p) for p in dataset.files if not p.is_file()]
        if rc != 0 or missing:
            self._fail(" ".join(dataset.argv), [f"exit {rc}: {err.strip()}", *missing])
            raise SetupError(f"generating {dataset.name} failed")
        return seconds

    def op(self, op, tracer=None):
        """Run one operation; return ``(seconds, passed, library eig count)``."""
        gc.collect()
        with contextlib.ExitStack() as stack:
            root = contextlib.nullcontext()
            counter = None
            if tracer is not None:
                counter = stack.enter_context(self.count_eig_calls())
                tracer.install()
                stack.callback(tracer.uninstall)
                root = tracer.operation(f"bench.{op.kind}")
            rc, seconds, stdout, err = self._call(op.argv, root)
        self.attempted += 1
        if rc != 0:
            problems = [f"exit {rc}: {err.strip()[-500:]}"]
        else:
            digest = _digest(stdout, op.outputs)
            key = tuple(op.argv)
            problems = [] if self._verified.get(key) == digest else self.check(
                op, stdout, self._sources)
            if not problems:
                self._verified[key] = digest
        if problems:
            self._fail(" ".join(op.argv), problems)
        return seconds, not problems, counter.count if counter else 0


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _distinct_sources(op) -> int:
    with open(op.outputs[2], newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len({r["source_i"] for r in rows} | {r["source_j"] for r in rows if r["source_j"]})


def run_workload(cli, import_s: float, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool = False) -> dict:
    import report
    import workloads
    from tracer import Tracer

    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        datasets, cycle = workloads.build(workload, seed, work, tiny=tiny)
        runner = Runner(cli)
        setups, gens = [], []
        for _ in range(SETUP_REPS):
            gen_s = sum(runner.gen(d) for d in datasets)
            warm_s, _, _ = runner.op(cycle[0])
            gens.append(gen_s)
            setups.append(gen_s + warm_s)

        stats = {kind: report.KindStats() for kind in report.ALL}
        tracer = Tracer() if trace else None
        untraced = traced = 0.0
        start = perf_counter()
        done = 0  # operations run; the first whole cycle always runs
        while done < len(cycle) or perf_counter() - start < seconds:
            op = cycle[done % len(cycle)]
            done += 1
            s, ok, _ = runner.op(op)
            if tracer is not None:
                untraced += s
                s, ok, count = runner.op(op, tracer)
                traced += s
            if not ok:
                continue
            x = stats[op.kind]
            x.ops += 1
            x.items += op.items
            x.seconds += s
            x.bytes_in += _file_bytes(op.inputs)
            x.bytes_out += _file_bytes(op.outputs[:2])
            if tracer is not None:
                x.count_eig += count
                x.eig_full += tracer.eig_full
                x.eig_values += tracer.eig_values
                x.add_spans(tracer.names, tracer.stats)
                if op.kind == "rmixup":
                    x.sources += _distinct_sources(op)
                    x.entries += tracer.calls("augment.EigenCache.build") * op.dataset.count

        if tracer is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = report.end_to_end(stats, import_s + statistics.median(setups), rss)
        else:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"trace-{workload}-seed{seed}.npz")
            metrics = report.per_layer(stats, statistics.median(gens), traced / untraced - 1.0)
        provenance = _provenance(cli, workload, seed, trace, done, datasets, cycle, stats)
        return {"provenance": provenance, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _build_info(module, key: str) -> str:
    try:
        dep = module.show_config(mode="dicts")["Build Dependencies"][key]
        return f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(cli, workload, seed, trace, done, datasets, cycle, stats) -> dict:
    import numpy
    import scipy
    import spdmix

    ops = {}
    for op in cycle:
        x = stats[op.kind]
        ops.setdefault(op.kind, {
            "n": op.n, "items_per_op": op.items, "ops": x.ops,
            "bytes_in_per_op": x.bytes_in // max(1, x.ops),
            "bytes_out_per_op": x.bytes_out // max(1, x.ops),
        })
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "operations_timed": done,
        "spdmix_commit": _git_commit(),
        "spdmix_version": getattr(spdmix, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _build_info(numpy, "blas"),
        "scipy_lapack": _build_info(scipy, "lapack"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SPD_AUGMENT_THREADS": os.environ.get("SPD_AUGMENT_THREADS"),
        "datasets": {d.name: {"n": d.n, "count": d.count, "bytes": _file_bytes(d.files)}
                     for d in datasets},
        "ops": ops,
    }


def smoke(cli, import_s: float) -> int:
    """Run every workload tiny, traced and untraced; check the metric names."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.SPECS):
        problems.append("BENCHMARK.json workloads differ from workloads.SPECS")
    for workload in workloads.SPECS:
        for trace in (0, 1):
            result = run_workload(cli, import_s, workload, 0, 0.0, bool(trace), tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {diff}")
            if result["failed"]:
                problems.append(f"{where}: {result['failed']} operations failed")
            if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a float")
            print(f"smoke {where}: {len(got)} metrics, {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for problem in problems:
        print(f"smoke FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    cli = _import_cli()
    import_s = perf_counter() - _STARTED
    if args.smoke:
        return smoke(cli, import_s)

    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"--workload must be one of {', '.join(workloads.SPECS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.trace and os.environ.get("SPD_AUGMENT_THREADS", "1") not in ("", "1"):
        parser.error("--trace 1 follows one thread; unset SPD_AUGMENT_THREADS")
    try:
        result = run_workload(cli, import_s, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({"ops_attempted": result["attempted"], "ops_failed": result["failed"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
