"""End-to-end CLI tests: exit codes, reproducibility, report formats."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdmix import augment, linalg
from spdmix.cli import main
from spdmix.data_io import (
    TASK_REGRESSION,
    LabeledDataset,
    gen_labeled_dataset,
    gen_random_spd,
    read_matrices,
    write_matrices,
)
from spdmix.linalg import count_eig_calls
from spdmix.spdness import covariance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_dataset(capsys, tmp_path, kind="log-linear", n=6, count=20, seed=7, extra=()):
    path = tmp_path / f"{kind}.spdb"
    code, out, _ = run(
        capsys, "gen", "--kind", kind, "--n", str(n), "--count", str(count),
        "--seed", str(seed), "-o", str(path), *extra,
    )
    assert code == 0
    return path, json.loads(out)


def test_unknown_subcommand_is_usage_error(capsys):
    # ``bench`` timed one-sample mixing paths that ``mix`` no longer takes
    code, out, err = run(capsys, "bench", "--n", "3")
    assert (code, out) == (2, "")
    assert "invalid choice: 'bench'" in err


class TestGen:
    def test_reproducible_bytes(self, capsys, tmp_path):
        p1, _ = gen_dataset(capsys, tmp_path, seed=7)
        p2 = tmp_path / "again.spdb"
        code, _, _ = run(
            capsys, "gen", "--kind", "log-linear", "--n", "6", "--count", "20",
            "--seed", "7", "-o", str(p2),
        )
        assert code == 0
        assert p1.read_bytes()[18:] == p2.read_bytes()[18:]
        ds = read_matrices(p1)
        assert len(ds) == 20 and ds.dim == 6

    def test_spd_bytes_are_the_draws_in_order(self, capsys, tmp_path):
        path, _ = gen_dataset(capsys, tmp_path, kind="spd", n=5, count=6, seed=11,
                              extra=("--condition", "30"))
        rng = np.random.default_rng(11)
        mats = np.stack([gen_random_spd(5, 30.0, rng).array for _ in range(6)])
        expected = tmp_path / "expected.spdb"
        write_matrices(expected, LabeledDataset(mats, rng.uniform(0.0, 1.0, size=6),
                                                TASK_REGRESSION))
        assert path.read_bytes() == expected.read_bytes()
        assert (tmp_path / "spd.labels.csv").read_bytes() == \
            (tmp_path / "expected.labels.csv").read_bytes()

    def test_spd_peak_is_the_output(self, capsys, tmp_path):
        # 128 matrices at n=120 (14 MiB) are drawn into one stack and written
        # from it; a list of draws stacked afterwards held them twice
        n, count = 120, 128
        code, err, peak = traced_peak(
            capsys, "gen", "--kind", "spd", "--n", str(n), "--count", str(count),
            "-o", str(tmp_path / "g.spdb"),
        )
        budget = count * n * n * 8 + (1 << 20)
        assert code == 0, err
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"

    def test_summary_json_fields(self, capsys, tmp_path):
        _, summary = gen_dataset(capsys, tmp_path, seed=3)
        assert summary["count"] == 20
        assert summary["n"] == 6
        assert summary["seed"] == 3

    def test_series_generation(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, out, _ = run(
            capsys, "gen", "--kind", "series", "--n", "10", "--t", "40",
            "--noise", "0.5", "--seed", "1", "-o", str(path),
        )
        assert code == 0
        assert path.exists()
        assert json.loads(out)["t"] == 40

    def test_missing_output_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "spd", "--n", "4")
        assert code == 2

    def test_series_without_t_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, err = run(capsys, "gen", "--kind", "series", "--n", "4", "-o", str(path))
        assert code == 2 and "--t is required" in err
        assert not path.exists()

    def test_unknown_strategy_choice_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "--kind", "bogus", "--n", "4", "-o", str(tmp_path / "x"),
        )
        assert code == 2


class TestMix:
    def test_cache_on_off_equivalence(self, capsys, tmp_path):
        # --cache is deprecated: on, off and no flag write the same bytes
        src, _ = gen_dataset(capsys, tmp_path)
        written = []
        for cache in (("--cache", "off"), ("--cache", "on"), ()):
            out = tmp_path / f"{cache[-1] if cache else 'none'}.spdb"
            code, _, err = run(
                capsys, "mix", "--input", str(src), "--strategy", "rmixup",
                "--count", "16", "--seed", "5", *cache, "-o", str(out),
            )
            assert code == 0
            assert ("deprecated" in err) == bool(cache)
            written.append([
                out.read_bytes(),
                out.with_name(out.stem + ".labels.csv").read_bytes(),
                out.with_name(out.stem + ".provenance.csv").read_bytes(),
            ])
        assert written[0] == written[1] == written[2]

    # an earlier output is rewritten in place: longer, shorter and the same
    # size as the new one
    @pytest.mark.parametrize("earlier", [40, 3, 23])
    @pytest.mark.parametrize("strategy", ["rmixup", "vmixup"])
    def test_rewrite_gives_the_bytes_of_a_new_output(
        self, capsys, tmp_path, mix_inputs, strategy, earlier
    ):
        src = mix_inputs["regression"]
        written = []
        for name, runs in (("new", [(23, 13)]), ("old", [(earlier, 1), (23, 13)])):
            for count, seed in runs:
                code, _, err = run(
                    capsys, "mix", "--input", str(src), "--strategy", strategy, "--count",
                    str(count), "--seed", str(seed), "-o", str(tmp_path / f"{name}.spdb"),
                )
                assert code == 0, err
            written.append(mix_files(tmp_path / f"{name}.spdb"))
        assert written[0] == written[1]

    def test_vmixup_outputs_psd(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        out = tmp_path / "v.spdb"
        code, _, _ = run(
            capsys, "mix", "--input", str(src), "--strategy", "vmixup",
            "--count", "12", "--seed", "2", "-o", str(out),
        )
        assert code == 0
        for mat in read_matrices(out).matrices:
            assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.trace(mat)

    def test_count_zero_writes_empty_file(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        out = tmp_path / "e.spdb"
        code, _, _ = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup",
            "--count", "0", "-o", str(out),
        )
        assert code == 0
        assert read_matrices(out).matrices.shape == (0, 6, 6)

    def test_provenance_sidecar(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        out = tmp_path / "p.spdb"
        run(
            capsys, "mix", "--input", str(src), "--strategy", "dmixup",
            "--count", "4", "--seed", "1", "-o", str(out),
        )
        rows = list(csv.DictReader(open(tmp_path / "p.provenance.csv")))
        assert len(rows) == 4
        assert all(r["strategy"] == "dmixup" for r in rows)
        assert all(r["mask_summary"].startswith("swapped=") for r in rows)

    @pytest.mark.parametrize("kind", ["log-linear", "clustered"])
    def test_cmixup_provenance_names_cmixup(self, capsys, tmp_path, kind):
        # cmixup rows used to say vmixup, the kernel its pairs are mixed with
        src, _ = gen_dataset(capsys, tmp_path, kind=kind)
        out = tmp_path / "c.spdb"
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "cmixup",
            "--count", "9", "--seed", "2", "-o", str(out),
        )
        assert code == 0, err
        rows = list(csv.DictReader(open(tmp_path / "c.provenance.csv")))
        assert [r["strategy"] for r in rows] == ["cmixup"] * 9

    def test_strategy_task_incompatibility_exits_3(self, capsys, tmp_path):
        # constant labels make the generator strategy unusable for regression
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", extra=("--condition", "10"))
        ds = read_matrices(src)
        ds.labels[:] = 0.5
        from spdmix.data_io import write_matrices

        write_matrices(src, ds)
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "gmixup",
            "--count", "2", "-o", str(tmp_path / "g.spdb"),
        )
        assert code == 3
        assert "variance" in err

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "mix", "--input", str(tmp_path / "nope.spdb"),
            "--strategy", "rmixup", "--count", "1", "-o", str(tmp_path / "o.spdb"),
        )
        assert code == 1

    def test_out_of_range_seed_is_usage_error(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        out = str(tmp_path / "o.spdb")
        commands = (
            ("mix", "--input", str(src), "--strategy", "rmixup", "--count", "1", "-o", out),
            ("gen", "--kind", "spd", "--n", "3", "-o", out),
            ("regress", "--input", str(src)),
            ("probe", "--input", str(src)),
        )
        for argv in commands:
            for seed in ("-1", str(2**64)):
                code, _, err = run(capsys, *argv, "--seed", seed)
                assert code == 2, argv
                assert f"seed must be an unsigned 64-bit integer, got {seed}" in err

    @pytest.mark.parametrize("strategy", ["vmixup", "rmixup"])
    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_exits_3_naming_alpha(self, capsys, tmp_path, strategy, alpha):
        src, _ = gen_dataset(capsys, tmp_path, n=4, count=3)
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", strategy, "--alpha", alpha,
            "--count", "2", "-o", str(tmp_path / "m.spdb"),
        )
        assert code == 3
        assert f"alpha must be positive and finite, got {alpha}" in err

    def test_cmixup_on_constant_labels_needs_bandwidth(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=4, count=5)
        ds = read_matrices(src)
        ds.labels[:] = 0.25
        write_matrices(src, ds)
        argv = ["mix", "--input", str(src), "--strategy", "cmixup", "--count", "2",
                "-o", str(tmp_path / "c.spdb")]
        code, _, err = run(capsys, *argv)
        assert code == 3 and "label standard deviation" in err
        assert run(capsys, *argv, "--bandwidth", "0.5")[0] == 0

    def test_corrupt_input_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.spdb"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        code, _, _ = run(
            capsys, "mix", "--input", str(bad), "--strategy", "rmixup",
            "--count", "1", "-o", str(tmp_path / "o.spdb"),
        )
        assert code == 1


def oracle_mix(dataset, strategy, count, seed, out_path, alpha=1.0):
    """``mix`` one sample at a time through the public per-sample functions;
    writes the three files ``mix`` writes and returns the drawn source rows."""
    hard = dataset.task == "classification" and not dataset.has_soft_labels

    def label(k):
        if not hard:
            return dataset.labels[k]
        row = np.zeros(dataset.n_classes)
        row[dataset.labels[k]] = 1.0
        return row

    generator = augment.g_mixup_fit(dataset) if strategy == "gmixup" else None
    bandwidth = float(dataset.labels.std()) if dataset.task == "regression" else 1.0
    samples, drawn = [], set()
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        a = int(rng.integers(len(dataset)))
        mat_a, src_a = dataset.matrices[a], dataset.ids[a]
        if strategy == "dropnode":
            samples.append(augment.drop_node(mat_a, label(a), 0.9, rng, src_a))
            continue
        if strategy == "dropedge":
            samples.append(augment.drop_edge(mat_a, label(a), 0.9, rng, src_a))
            continue
        if strategy == "cmixup":
            b = augment.c_mixup_pair(dataset, a, bandwidth, rng)
        else:
            b = int(rng.integers(len(dataset) - 1))
            b += b >= a
        lam = augment.sample_beta(alpha, rng)
        drawn |= {a, b}
        args = (mat_a, dataset.matrices[b], label(a), label(b), lam)
        sources = (src_a, dataset.ids[b])
        if strategy == "rmixup":
            samples.append(augment.r_mixup(*args, sources))
        elif strategy == "dmixup":
            samples.append(augment.d_mixup(*args, rng, sources))
        elif strategy == "gmixup":
            samples.append(augment.g_mixup_sample(
                generator, dataset.labels[a], dataset.labels[b], lam, rng,
                dataset.n_classes if hard else None, sources,
            ))
        else:
            samples.append(augment.v_mixup(*args, sources))
    if samples:
        matrices = np.stack([s.matrix for s in samples])
        labels = np.array([s.label for s in samples], dtype=np.float64)
    else:
        matrices, labels = np.zeros((0, dataset.dim, dataset.dim)), np.zeros(0)
    ids = [f"m{k:06d}" for k in range(count)]
    write_matrices(out_path, LabeledDataset(
        matrices, labels, dataset.task,
        is_correlation=dataset.is_correlation and strategy == "gmixup", ids=ids,
    ))
    with open(out_path.with_name(out_path.stem + ".provenance.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "strategy", "source_i", "source_j", "lam", "mask_summary"])
        for sample_id, sample in zip(ids, samples):
            p = sample.provenance
            # cmixup mixes its pairs as vmixup does, under its own name
            writer.writerow([sample_id, "cmixup" if strategy == "cmixup" else p.strategy,
                             p.source_i, p.source_j or "",
                             "" if p.lam is None else repr(p.lam), p.mask_summary or ""])
    return drawn


def mix_files(path):
    return [path.read_bytes()] + [
        path.with_name(path.stem + suffix).read_bytes()
        for suffix in (".labels.csv", ".provenance.csv")
    ]


@pytest.fixture(scope="module")
def mix_inputs(tmp_path_factory):
    """Regression (flagged as correlation matrices, so gmixup's flag rule
    shows), hard 3-class and soft-label inputs."""
    root = tmp_path_factory.mktemp("mix_inputs")
    rng = np.random.default_rng(90)
    reg = gen_labeled_dataset(4, 12, "regression", "log-linear", rng, noise=0.1)
    reg.is_correlation = True
    classes = gen_labeled_dataset(
        4, 12, "classification", "clustered", rng, noise=0.1, n_classes=3
    )
    soft = LabeledDataset(
        classes.matrices, np.eye(3)[classes.labels] * 0.75 + 0.25 / 3, "classification"
    )
    paths = {}
    for name, ds in (("regression", reg), ("classes", classes), ("soft", soft)):
        paths[name] = root / f"{name}.spdb"
        write_matrices(paths[name], ds)
    return paths


class TestMixOracle:
    """``mix`` writes, byte for byte, what one-at-a-time mixing through the
    public per-sample functions writes, with the eigensolves of one batch."""

    # class-conditional strategies reject soft labels
    @pytest.mark.parametrize("source, count, strategy", [
        (source, count, strategy)
        for source, count in (("regression", 23), ("classes", 23), ("soft", 23),
                              ("regression", 0))
        for strategy in augment.STRATEGIES
        if not (source == "soft" and strategy in ("gmixup", "cmixup"))
    ])
    def test_matches_per_sample_oracle(
        self, capsys, tmp_path, mix_inputs, source, count, strategy
    ):
        src = mix_inputs[source]
        out = tmp_path / "mix.spdb"
        with count_eig_calls() as counter:
            code, stdout, err = run(
                capsys, "mix", "--input", str(src), "--strategy", strategy,
                "--count", str(count), "--seed", "13", "-o", str(out),
            )
        assert code == 0, err
        assert json.loads(stdout)["count"] == count
        expected = tmp_path / "oracle.spdb"
        drawn = oracle_mix(read_matrices(src), strategy, count, 13, expected)
        assert mix_files(out) == mix_files(expected)
        assert counter.count == (len(drawn) + count if strategy == "rmixup" else 0)

    # two-word seeds: the oracle's default_rng([seed, k]) hashes three or
    # four entropy words
    @pytest.mark.parametrize("seed", [2**32 + 13, 2**64 - 1])
    @pytest.mark.parametrize("strategy", augment.STRATEGIES)
    def test_matches_per_sample_oracle_at_two_word_seeds(
        self, capsys, tmp_path, mix_inputs, strategy, seed
    ):
        src = mix_inputs["regression"]
        out = tmp_path / "mix.spdb"
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", strategy,
            "--count", "23", "--seed", str(seed), "-o", str(out),
        )
        assert code == 0, err
        expected = tmp_path / "oracle.spdb"
        oracle_mix(read_matrices(src), strategy, 23, seed, expected)
        assert mix_files(out) == mix_files(expected)

    # alpha != 1 draws each ratio on numpy's own generator, through libm's pow
    # (0.4) or the gamma sampler (2.5), continuing the stream the pair came from
    @pytest.mark.parametrize("alpha", ["0.4", "2.5"])
    @pytest.mark.parametrize("source", ["regression", "classes"])
    @pytest.mark.parametrize("strategy", sorted(augment._PAIRWISE))
    def test_matches_per_sample_oracle_at_alpha(
        self, capsys, tmp_path, mix_inputs, strategy, source, alpha
    ):
        src = mix_inputs[source]
        out = tmp_path / "mix.spdb"
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", strategy, "--count", "23",
            "--seed", "13", "--alpha", alpha, "-o", str(out),
        )
        assert code == 0, err
        expected = tmp_path / "oracle.spdb"
        oracle_mix(read_matrices(src), strategy, 23, 13, expected, alpha=float(alpha))
        assert mix_files(out) == mix_files(expected)

    def test_mix_builds_no_generator_per_output(self, monkeypatch, mix_inputs):
        dataset = read_matrices(mix_inputs["regression"])

        def refuse(*args, **kwargs):
            raise AssertionError("mix_dataset called np.random.default_rng")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for strategy in augment.STRATEGIES:
            out, _ = augment.mix_dataset(dataset, augment.MixConfig(strategy, seed=13), 5)
            assert len(out) == 5


def traced_peak(capsys, *argv):
    """``main(argv)``'s exit code, stderr and traced peak above its start.

    The command runs once untraced first, so that what the interpreter
    allocates on first use (imports, caches, the pool) is not charged to it
    and the peak does not depend on which tests ran before."""
    run(capsys, *argv)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return code, err, peak


class TestMixMemory:
    """``mix`` streams its outputs to disk: it holds the input, the logs of
    the drawn sources (rmixup) and a few ``_CHUNK_BYTES`` chunks, whatever
    the output count."""

    @pytest.mark.parametrize("strategy", augment.STRATEGIES)
    def test_peak_is_one_copy_of_each_stack(self, capsys, tmp_path, strategy):
        # 64 inputs -> 1000 outputs at n=50: the 19.1 MiB of output is never
        # held; a baseline fills one reused chunk, rmixup's stacked
        # exponentials take a few chunks on top of the logs
        n, inputs, outputs = 50, 64, 1000
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=n, count=inputs)
        in_bytes = inputs * n * n * 8
        if strategy == "rmixup":
            budget = 2 * in_bytes + 6 * linalg._CHUNK_BYTES
        else:
            budget = in_bytes + linalg._CHUNK_BYTES + (1 << 20)
        code, err, peak = traced_peak(
            capsys, "mix", "--input", str(src), "--strategy", strategy,
            "--count", str(outputs), "--seed", "3", "-o", str(tmp_path / "m.spdb"),
        )
        assert code == 0, err
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"

    def test_rmixup_logs_fill_in_place(self, capsys, tmp_path, monkeypatch):
        # 512 inputs at n=40 (6.2 MiB) and 64 KiB chunks: the logs of the
        # ~440 drawn sources dwarf the slack, so a gathered copy of them or a
        # whole-stack log output would break the budget
        n, size = 40, 512
        src = tmp_path / "in.spdb"
        write_matrices(src, gen_labeled_dataset(n, size, "regression", "log-linear",
                                                np.random.default_rng(4), noise=0.1))
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 64 << 10)
        in_bytes = size * n * n * 8
        budget = 2 * in_bytes + 6 * linalg._CHUNK_BYTES + (1 << 20)
        code, err, peak = traced_peak(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup",
            "--count", str(size), "--seed", "3", "-o", str(tmp_path / "m.spdb"),
        )
        assert code == 0, err
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind", ["log-linear", "clustered"])
    def test_gmixup_fit_holds_no_stacked_temporaries(self, capsys, tmp_path, kind):
        # 1024 inputs at n=30 (7 MiB) -> 8 outputs: a (count, n, n)
        # temporary of the fit (centred samples, a class's members) would
        # break the budget
        n, size = 30, 1024
        src = tmp_path / "in.spdb"
        task = "regression" if kind == "log-linear" else "classification"
        write_matrices(src, gen_labeled_dataset(n, size, task, kind,
                                                np.random.default_rng(5), noise=0.1))
        budget = size * n * n * 8 + (1 << 20)
        code, err, peak = traced_peak(
            capsys, "mix", "--input", str(src), "--strategy", "gmixup",
            "--count", "8", "--seed", "3", "-o", str(tmp_path / "m.spdb"),
        )
        assert code == 0, err
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"

    def test_cmixup_partner_draws_hold_no_per_anchor_state(self, capsys, tmp_path):
        # 2048 regression inputs -> 2048 outputs draw about 1300 distinct
        # anchors; keeping each drawn anchor's candidates and weights would
        # hold about 40 MiB, building them per draw holds one anchor's worth
        n, size = 2, 2048
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=n, count=size)
        budget = 2 * size * n * n * 8 + (1 << 20)
        code, err, peak = traced_peak(
            capsys, "mix", "--input", str(src), "--strategy", "cmixup",
            "--count", str(size), "--seed", "3", "-o", str(tmp_path / "m.spdb"),
        )
        assert code == 0, err
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"


class TestMixFailures:
    """A failing ``mix`` names what failed and leaves no partial output."""

    @staticmethod
    def outputs(tmp_path):
        return sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("m."))

    def overflowing_mix(self, capsys, tmp_path, left=()):
        # four tame samples and two whose log has eigenvalue 705: a mix of
        # the two overflows exp's limit of 700 whatever its ratio. At seed 2
        # output 5 is the first such mix of ten
        logs = [[0.0, 0.5], [0.3, 0.1], [0.2, 0.4], [0.1, 0.0], [705.0, 0.0], [705.0, 0.0]]
        src = tmp_path / "in.spdb"
        write_matrices(src, LabeledDataset(
            np.stack([np.diag(np.exp(d)) for d in logs]), np.linspace(0.0, 1.0, 6), "regression"
        ))
        code, stdout, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup", "--count", "10",
            "--seed", "2", "-o", str(tmp_path / "m.spdb"),
        )
        assert (code, stdout) == (3, "")
        assert "error: mix 5 of samples s000004 and s000005: matrix_exp eigenvalue" in err
        assert self.outputs(tmp_path) == sorted(left)

    def test_overflow_in_a_later_chunk_unlinks_the_outputs(self, capsys, tmp_path, monkeypatch):
        # output 5 is in the third chunk of two, so two chunks are on disk
        # when it fails
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 2 * 2)
        self.overflowing_mix(capsys, tmp_path)

    def test_failure_after_the_first_chunk_unlinks_an_earlier_output(
        self, capsys, tmp_path, monkeypatch
    ):
        # an earlier output of the same size is rewritten in place from the
        # first chunk on, so it goes; its sidecars were never opened and stay
        write_matrices(tmp_path / "m.spdb", LabeledDataset(
            np.stack([np.eye(2)] * 10), np.zeros(10), "regression"
        ))
        (tmp_path / "m.provenance.csv").write_text("earlier\n")
        sidecars = ["m.labels.csv", "m.provenance.csv"]
        before = [(tmp_path / name).read_bytes() for name in sidecars]
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 2 * 8 * 2 * 2)
        self.overflowing_mix(capsys, tmp_path, left=sidecars)
        assert [(tmp_path / name).read_bytes() for name in sidecars] == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_overflow_in_a_later_part_is_named_by_output_index(
        self, capsys, tmp_path, workers, count
    ):
        # ten outputs in one chunk: with two workers the chunk goes to the
        # pool in eight parts and output 5 is the first row of the fifth,
        # but the error names it by its place in the output
        workers(count)
        self.overflowing_mix(capsys, tmp_path)

    def test_non_spd_source_is_named_before_any_byte_is_written(self, capsys, tmp_path):
        mats = np.stack([np.eye(3) * (k + 1.0) for k in range(4)])
        mats[2, 0, 0] = -1.0
        src = tmp_path / "in.spdb"
        write_matrices(src, LabeledDataset(mats, [0.1, 0.2, 0.3, 0.4], "regression"))
        # an earlier run's output stays as it was
        (tmp_path / "m.spdb").write_bytes(b"earlier")
        code, stdout, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup", "--count", "16",
            "-o", str(tmp_path / "m.spdb"),
        )
        assert (code, stdout) == (3, "")
        assert "error: sample s000002 is not SPD" in err
        assert self.outputs(tmp_path) == ["m.spdb"]
        assert (tmp_path / "m.spdb").read_bytes() == b"earlier"

    def test_failure_before_the_first_chunk_keeps_an_earlier_output(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        out = tmp_path / "m.spdb"
        code, _, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup", "--count", "16",
            "-o", str(out),
        )
        assert code == 0, err
        before = mix_files(out)
        broken = read_matrices(src)
        broken.matrices[2, 0, 0] = -1.0
        write_matrices(src, broken)
        code, stdout, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup", "--count", "16",
            "-o", str(out),
        )
        assert (code, stdout) == (3, "")
        assert "error: sample s000002 is not SPD" in err
        assert mix_files(out) == before

    def test_unwritable_provenance_unlinks_the_dataset(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, n=3, count=4)
        (tmp_path / "m.provenance.csv").mkdir()
        code, stdout, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "vmixup", "--count", "3",
            "-o", str(tmp_path / "m.spdb"),
        )
        assert (code, stdout) == (1, "")
        assert "error: " in err
        assert self.outputs(tmp_path) == ["m.provenance.csv"]


class TestBlasThreads:
    """``mix`` in fresh processes under different OpenBLAS thread settings.
    OpenBLAS's own threads change an n=360 eigensolve's bits; with one BLAS
    thread per matrix the bytes do not depend on ``OPENBLAS_NUM_THREADS``."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def mix(self, src, out, threads, pin=True):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC), env.get("PYTHONPATH")) if p
        )
        # without the thread setter, every solve is one numpy call on
        # OpenBLAS's own threads, as before stacks were split
        script = (
            "import sys; from spdmix import linalg; "
            + ("" if pin else "linalg._SET_THREADS = None; ")
            + "from spdmix.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        subprocess.run(
            [sys.executable, "-c", script, "mix", "--input", str(src), "--strategy",
             "rmixup", "--count", "4", "--seed", "3", "-o", str(out)],
            env=env, capture_output=True, check=True,
        )
        return mix_files(out)

    @pytest.mark.skipif(linalg._SET_THREADS is None, reason="no OpenBLAS thread setter")
    def test_n360_bytes_independent_of_blas_threads(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=360, count=6, seed=5)
        unset = self.mix(src, tmp_path / "unset.spdb", None)
        one = self.mix(src, tmp_path / "one.spdb", "1")
        single_call = self.mix(src, tmp_path / "single.spdb", "1", pin=False)
        assert unset == one == single_call

    @pytest.mark.skipif(linalg._SET_THREADS is None, reason="no OpenBLAS thread setter")
    def test_n50_bytes_match_unpinned_calls(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=50, count=12, seed=6)
        pinned = self.mix(src, tmp_path / "pinned.spdb", None)
        assert pinned == self.mix(src, tmp_path / "default.spdb", None, pin=False)


class TestCountFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("mix", "--count", "-2"),
        ("regress", "--trials", "-3"),
        ("gen", "--count", "0"),
        ("probe", "--trials", "0"),
    ])
    def test_below_minimum_is_usage_error(self, capsys, tmp_path, command, flag, value):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        out = str(tmp_path / "o.spdb")
        argv = {
            "mix": ["mix", "--input", str(src), "--strategy", "rmixup", "-o", out],
            "regress": ["regress", "--input", str(src)],
            "gen": ["gen", "--kind", "spd", "--n", "3", "-o", out],
            "probe": ["probe", "--input", str(src)],
        }[command]
        code, stdout, err = run(capsys, *argv, flag, value)
        assert (code, stdout) == (2, "")
        assert flag in err and "at least" in err
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        code, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert flag[2:] in err and "at least" in err


class TestListFlags:
    @pytest.mark.parametrize("command, flag, kind", [
        ("diagnose", "--sweep", "integer"),
        ("regress", "--lambdas", "float"),
    ])
    def test_bad_list_is_usage_error(self, capsys, tmp_path, command, flag, kind):
        src, _ = gen_dataset(capsys, tmp_path, n=3, count=4)
        argv = {
            "diagnose": ["diagnose", "--input", str(src), "--t", "10"],
            "regress": ["regress", "--input", str(src)],
        }[command]
        for value, message in (
            ("4,x", f"{flag} expects a comma-separated {kind} list"),
            (" , ", f"{flag} list is empty"),
        ):
            code, stdout, err = run(capsys, *argv, flag, value)
            assert (code, stdout) == (2, "")
            assert message in err


class TestDiagnose:
    def test_sweep_is_monotone_on_synthetic_series(self, capsys, tmp_path):
        series = tmp_path / "ser.csv"
        code, _, _ = run(
            capsys, "gen", "--kind", "series", "--n", "16", "--t", "64",
            "--noise", "0.5", "--seed", "4", "-o", str(series),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "diagnose", "--input", str(series), "--sweep", "4,8,16,32,64",
            "--reduce", "truncate",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        means = [
            float(r["spdness_pct"]) for r in rows if r["id"] == "aggregate"
        ]
        assert len(means) == 5
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))

    def test_ragged_series_is_format_error(self, capsys, tmp_path):
        series = tmp_path / "ragged.csv"
        series.write_text("1.0,2.0,3.0\n4.0,5.0\n")
        code, _, err = run(capsys, "diagnose", "--input", str(series))
        assert code == 1
        assert "ragged.csv" in err and "line 2" in err

    def test_spdb_input_requires_t(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        code, _, _ = run(capsys, "diagnose", "--input", str(src))
        assert code == 2

    def test_spdb_input_rejects_sweep(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        code, out, err = run(
            capsys, "diagnose", "--input", str(src), "--t", "100", "--sweep", "10,20",
        )
        assert (code, out) == (2, "")
        assert "--sweep applies to series input only" in err

    def test_output_file_holds_the_report(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, count=5)
        argv = ["diagnose", "--input", str(src), "--t", "100"]
        _, report, _ = run(capsys, *argv)
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, *argv, "-o", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == report

    def test_spdb_input_reports_all_samples(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, count=5)
        code, out, _ = run(capsys, "diagnose", "--input", str(src), "--t", "100")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        sample_rows = [r for r in rows if r["id"] != "aggregate"]
        assert len(sample_rows) == 5
        assert all(r["is_spd"] == "1" for r in sample_rows)

    def test_spdb_covariance_count_is_scale_free(self, capsys, tmp_path):
        # rank 19 whatever the units; the absolute 1e-6 threshold failed the
        # 1e6-scaled matrix with a false rank-bound violation (exit 3)
        series = np.random.default_rng(0).standard_normal((60, 20))
        src = tmp_path / "cov.spdb"
        mats = np.stack([covariance(scale * series) for scale in (1.0, 1e6, 1e-6)])
        write_matrices(src, LabeledDataset(mats, np.zeros(3), TASK_REGRESSION))
        code, out, err = run(capsys, "diagnose", "--input", str(src), "--t", "20")
        assert code == 0, err
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["id"] != "aggregate"]
        assert [r["positive_count"] for r in rows] == ["19"] * 3

    def test_solve_ledger_series(self, capsys, tmp_path):
        # one values-only solve per report row: 2 files x 3 sweep lengths
        stem = tmp_path / "ledger.csv"
        run(
            capsys, "gen", "--kind", "series", "--n", "6", "--t", "40",
            "--count", "2", "--noise", "0.5", "--seed", "3", "-o", str(stem),
        )
        files = sorted(str(p) for p in tmp_path.glob("ledger_*.csv"))
        with count_eig_calls() as c:
            code, _, _ = run(capsys, "diagnose", "--input", *files, "--sweep", "10,20,40")
        assert code == 0
        assert (c.count, c.values_only) == (6, 6)

    def test_solve_ledger_spdb(self, capsys, tmp_path):
        # one values-only solve per sample
        src, _ = gen_dataset(capsys, tmp_path, count=9)
        with count_eig_calls() as c:
            code, _, _ = run(capsys, "diagnose", "--input", str(src), "--t", "100")
        assert code == 0
        assert (c.count, c.values_only) == (9, 9)

    def test_invalid_sweep_length_exits_2(self, capsys, tmp_path):
        series = tmp_path / "s.csv"
        run(
            capsys, "gen", "--kind", "series", "--n", "4", "--t", "10",
            "--noise", "0.5", "--seed", "2", "-o", str(series),
        )
        code, _, _ = run(
            capsys, "diagnose", "--input", str(series), "--sweep", "5,20",
        )
        assert code == 2

    def test_average_reduce_requires_divisor(self, capsys, tmp_path):
        series = tmp_path / "s.csv"
        run(
            capsys, "gen", "--kind", "series", "--n", "4", "--t", "12",
            "--noise", "0.5", "--seed", "2", "-o", str(series),
        )
        code, _, _ = run(
            capsys, "diagnose", "--input", str(series), "--sweep", "5",
            "--reduce", "average",
        )
        assert code == 2

    def test_average_reduce_reports_every_length(self, capsys, tmp_path):
        series = tmp_path / "s.csv"
        run(
            capsys, "gen", "--kind", "series", "--n", "4", "--t", "12",
            "--noise", "0.5", "--seed", "2", "-o", str(series),
        )
        code, out, err = run(
            capsys, "diagnose", "--input", str(series), "--sweep", "6,12",
            "--reduce", "average",
        )
        assert code == 0, err
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["id"] == "s"]
        assert [r["t"] for r in rows] == ["6", "12"]
        full = run(capsys, "diagnose", "--input", str(series))[1]
        assert out.splitlines()[2] == full.splitlines()[1]  # averaging by 1 is the series

    def test_explicit_spdb_format_ignores_the_suffix(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, count=3)
        renamed = tmp_path / "matrices.bin"
        src.rename(renamed)
        src.with_name(src.stem + ".labels.csv").rename(tmp_path / "matrices.labels.csv")
        code, out, err = run(
            capsys, "diagnose", "--input", str(renamed), "--format", "spdb", "--t", "100",
        )
        assert code == 0, err
        assert [r["id"] for r in csv.DictReader(io.StringIO(out))][:3] == [
            "s000000", "s000001", "s000002"
        ]

    def test_multiple_series_files_aggregate(self, capsys, tmp_path):
        stem = tmp_path / "multi.csv"
        run(
            capsys, "gen", "--kind", "series", "--n", "6", "--t", "24",
            "--count", "3", "--noise", "0.5", "--seed", "6", "-o", str(stem),
        )
        files = sorted(str(p) for p in tmp_path.glob("multi_*.csv"))
        assert len(files) == 3
        code, out, _ = run(
            capsys, "diagnose", "--input", *files, "--sweep", "6,12,24",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(r["id"] == "aggregate" for r in rows) == 3
        assert sum(r["id"] != "aggregate" for r in rows) == 9


class TestRegress:
    def test_random_dataset_has_no_loss_violations(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=6, count=12)
        code, out, _ = run(
            capsys, "regress", "--input", str(src), "--trials", "20", "--seed", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20 * 11
        assert all(r["violation"] == "0" for r in rows)

    def test_trials_zero_is_empty_success(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd")
        code, out, _ = run(capsys, "regress", "--input", str(src), "--trials", "0")
        assert code == 0
        assert out.strip().splitlines() == [
            "pair,lam,err_geodesic,err_line,violation,ordering_violation"
        ]

    def test_classification_dataset_exits_3(self, capsys, tmp_path):
        src, _ = gen_dataset(
            capsys, tmp_path, kind="clustered", extra=("--noise", "0.05")
        )
        code, _, _ = run(capsys, "regress", "--input", str(src), "--trials", "1")
        assert code == 3

    def test_labels_sidecar_with_byte_order_mark(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=4, count=6)
        code, plain, _ = run(capsys, "regress", "--input", str(src), "--trials", "3")
        assert code == 0
        labels = src.with_name(src.stem + ".labels.csv")
        labels.write_bytes(b"\xef\xbb\xbf" + labels.read_bytes())
        code, out, err = run(capsys, "regress", "--input", str(src), "--trials", "3")
        assert code == 0, err
        assert out == plain

    def test_output_file_holds_the_table(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=4, count=6)
        argv = ["regress", "--input", str(src), "--trials", "3"]
        _, table, _ = run(capsys, *argv)
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, *argv, "-o", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == table

    def test_one_sample_dataset_exits_3(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=4, count=1)
        code, out, err = run(capsys, "regress", "--input", str(src), "--trials", "1")
        assert (code, out) == (3, "")
        assert "need at least 2 samples" in err

    def test_negative_labels_exit_3(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd")
        ds = read_matrices(src)
        ds.labels[0] = -0.5
        from spdmix.data_io import write_matrices

        write_matrices(src, ds)
        code, out, err = run(capsys, "regress", "--input", str(src), "--trials", "1")
        assert (code, out) == (3, "")
        assert "labels must be non-negative for the comparison, got -0.5" in err


class TestProbe:
    def test_log_linear_gap_is_total(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=4, count=30)
        code, out, _ = run(
            capsys, "probe", "--input", str(src), "--trials", "200", "--seed", "1",
        )
        assert code == 0
        result = json.loads(out)
        assert result["mean_dr"] <= 0.01 * result["mean_dv"]
        assert result["relative_gap"] > 0.99

    @pytest.mark.parametrize("trials", [1, 7, 60])
    def test_solve_ledger(self, capsys, tmp_path, trials):
        # one solve per distinct drawn outer sample, then one per trial's mix
        src, _ = gen_dataset(capsys, tmp_path, n=5, count=20, extra=("--noise", "0.1"))
        with count_eig_calls() as c:
            code, _, err = run(
                capsys, "probe", "--input", str(src), "--trials", str(trials), "--seed", "4",
            )
        assert code == 0, err
        ds, rng, outer = read_matrices(src), np.random.default_rng(4), set()
        for _ in range(trials):
            while True:
                picks = rng.choice(len(ds), size=3, replace=False)
                if len(np.unique(ds.labels[picks])) == 3:
                    break
            ordered = picks[np.argsort(ds.labels[picks])]
            outer |= {int(ordered[0]), int(ordered[2])}
        assert (c.count, c.values_only) == (len(outer) + trials, 0)

    def test_zero_trials_is_usage_error(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path)
        code, _, _ = run(capsys, "probe", "--input", str(src), "--trials", "0")
        assert code == 2

    def test_too_few_distinct_labels_exit_3(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", count=4)
        ds = read_matrices(src)
        ds.labels[:] = [0.1, 0.1, 0.9, 0.9]
        from spdmix.data_io import write_matrices

        write_matrices(src, ds)
        code, _, _ = run(capsys, "probe", "--input", str(src), "--trials", "5")
        assert code == 3


    def _cut_row(self, capsys, tmp_path, text):
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=4, count=10)
        labels = src.with_name(src.stem + ".labels.csv")
        lines = labels.read_text().splitlines()
        lines[2] = text
        labels.write_text("\n".join(lines) + "\n")
        return run(capsys, "probe", "--input", str(src), "--trials", "5")

    def test_labels_row_without_comma_exits_1(self, capsys, tmp_path):
        code, out, err = self._cut_row(capsys, tmp_path, "s000001")
        assert code == 1
        assert out == ""
        assert "log-linear.labels.csv, line 3" in err

    def test_non_numeric_label_exits_1(self, capsys, tmp_path):
        code, _, err = self._cut_row(capsys, tmp_path, "s000001,abc")
        assert code == 1
        assert "s000001" in err and "'abc'" in err


class TestGenInputRules:
    @pytest.mark.parametrize("kind, flag, value, message", [
        ("log-linear", "--noise", "-0.5", "noise must be non-negative and finite, got -0.5"),
        ("log-linear", "--noise", "nan", "noise must be non-negative and finite, got nan"),
        ("log-linear", "--noise", "inf", "noise must be non-negative and finite, got inf"),
        ("clustered", "--noise", "-1", "noise must be non-negative and finite, got -1.0"),
        ("series", "--noise", "nan", "noise must be non-negative and finite, got nan"),
        ("series", "--noise", "inf", "noise must be non-negative and finite, got inf"),
        ("spd", "--condition", "nan", "condition target must be >= 1 and finite, got nan"),
        ("spd", "--condition", "inf", "condition target must be >= 1 and finite, got inf"),
        ("clustered", "--separation", "inf", "separation must be finite, got inf"),
        ("clustered", "--separation", "nan", "separation must be finite, got nan"),
    ])
    def test_bad_value_is_domain_error(self, capsys, tmp_path, kind, flag, value, message):
        series = ["--t", "10"] if kind == "series" else []
        code, stdout, err = run(
            capsys, "gen", "--kind", kind, "--n", "3", "--count", "4", "--seed", "1",
            flag, value, *series, "-o", str(tmp_path / "out"),
        )
        assert (code, stdout) == (3, "")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["log-linear", "clustered", "spd", "series"])
    def test_dimension_below_one_is_usage_error(self, capsys, tmp_path, kind, n):
        series = ["--t", "10"] if kind == "series" else []
        code, stdout, err = run(
            capsys, "gen", "--kind", kind, "--n", n, "--count", "4", *series,
            "-o", str(tmp_path / "out"),
        )
        assert (code, stdout) == (2, "")
        assert f"argument --n: must be at least 1, got {n}" in err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_sigma_is_domain_error(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        code, stdout, err = run(capsys, "regress", "--input", str(src), "--trials", "2",
                                "--sigma", "inf")
        assert (code, stdout) == (3, "")
        assert "sigma must be positive and finite, got inf" in err


class TestSeriesLength:
    """A series needs at least two time steps, wherever its length is given."""

    @pytest.mark.parametrize("t", ["1", "0", "-1"])
    def test_gen_series_rejects_short_length(self, capsys, tmp_path, t):
        code, stdout, err = run(
            capsys, "gen", "--kind", "series", "--n", "3", "--t", t,
            "-o", str(tmp_path / "s.csv"),
        )
        assert (code, stdout) == (2, "")
        assert f"argument --t: series length must be at least 2, got t={t}" in err
        assert list(tmp_path.iterdir()) == []

    def test_diagnose_spdb_rejects_short_length(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        code, stdout, err = run(capsys, "diagnose", "--input", str(src), "--t", "1")
        assert (code, stdout) == (2, "")
        assert "argument --t: series length must be at least 2, got t=1" in err

    @pytest.mark.parametrize("t, message", [
        ("10", "--t applies to matrix (SPDB) input only"),
        ("0", "argument --t: series length must be at least 2, got t=0"),
        ("-1", "argument --t: series length must be at least 2, got t=-1"),
    ], ids=["unused", "zero", "negative"])
    def test_diagnose_series_input_rejects_t(self, capsys, tmp_path, t, message):
        series = tmp_path / "s.csv"
        run(capsys, "gen", "--kind", "series", "--n", "3", "--t", "10", "--noise", "0.1",
            "-o", str(series))
        code, stdout, err = run(capsys, "diagnose", "--input", str(series), "--t", t)
        assert (code, stdout) == (2, "")
        assert message in err

    def test_diagnose_sweep_rejects_short_length(self, capsys, tmp_path):
        series = tmp_path / "s.csv"
        run(capsys, "gen", "--kind", "series", "--n", "3", "--t", "10", "--noise", "0.1",
            "-o", str(series))
        code, stdout, err = run(capsys, "diagnose", "--input", str(series), "--sweep", "1,5")
        assert (code, stdout) == (2, "")
        assert "--sweep: series length must be at least 2, got t=1" in err

    def test_diagnose_one_step_series_is_domain_error(self, capsys, tmp_path):
        series = tmp_path / "one.csv"
        series.write_text("1.0\n2.0\n3.0\n")
        code, stdout, err = run(capsys, "diagnose", "--input", str(series))
        assert (code, stdout) == (3, "")
        assert "series length must be at least 2, got t=1" in err


class TestConfigAsFlags:
    """A config line ``key=value`` is read as the flag ``--key=value``."""

    @staticmethod
    def argv(capsys, tmp_path, command):
        if command == "gen-series":
            return ["gen", "--kind", "series", "--n", "3", "--t", "10", "--noise", "0.1",
                    "-o", str(tmp_path / "g.csv")]
        if command == "diagnose-series":
            series = tmp_path / "s.csv"
            run(capsys, "gen", "--kind", "series", "--n", "3", "--t", "10", "--noise", "0.1",
                "-o", str(series))
            return ["diagnose", "--input", str(series)]
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        if command == "diagnose-spdb":
            return ["diagnose", "--input", str(src), "--t", "20"]
        return ["mix", "--input", str(src), "--strategy", "rmixup", "--count", "2",
                "-o", str(tmp_path / "m.spdb")]

    @pytest.mark.parametrize("command, line", [
        ("diagnose-series", "reduce=bogus"),
        ("diagnose-spdb", "format=bogus"),
        ("diagnose-series", "series-layout=bogus"),
        ("gen-series", "series-layout=bogus"),
        ("mix", "cache=bogus"),
    ])
    def test_bad_choice_is_usage_error(self, capsys, tmp_path, command, line):
        argv = self.argv(capsys, tmp_path, command)
        assert run(capsys, *argv)[0] == 0
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        code, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert f"argument --{line.split('=')[0]}: invalid choice" in err

    @pytest.mark.parametrize("line, message", [
        ("count=0", "argument --count: must be at least 1, got 0"),
        ("frobnicate=1", "unrecognized arguments: --frobnicate=1"),
        ("config=other", "a config file cannot set --config: 'config=other'"),
        ("conf=other", "a config file cannot set --config: 'conf=other'"),
    ])
    def test_bad_line_is_usage_error(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        code, stdout, err = run(capsys, "gen", "--config", str(cfg), "--kind", "spd",
                                "--n", "3", "-o", str(tmp_path / "x.spdb"))
        assert (code, stdout) == (2, "")
        assert message in err

    def test_key_prefix_accepted_as_on_the_command_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("coun=4\n")
        outputs = []
        for name, extra in (("a", ["--config", str(cfg)]), ("b", ["--coun", "4"])):
            target = tmp_path / f"{name}.spdb"
            code, out, err = run(capsys, "gen", *extra, "--kind", "spd", "--n", "3",
                                 "-o", str(target))
            assert code == 0, err
            assert json.loads(out)["count"] == 4
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_required_flag_not_supplied_by_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("kind=spd\n")
        code, stdout, err = run(capsys, "gen", "--config", str(cfg), "--n", "3",
                                "-o", str(tmp_path / "x.spdb"))
        assert (code, stdout) == (2, "")
        assert "the following arguments are required: --kind" in err


class TestCarriageReturnIds:
    def test_mix_outputs_read_back(self, capsys, tmp_path):
        from spdmix.data_io import write_matrices

        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        ds = read_matrices(src)
        ds.ids = ["a\rb", "\r", "c", "d\r\n"]
        write_matrices(src, ds)
        out_path = tmp_path / "m.spdb"
        code, _, _ = run(
            capsys, "mix", "--input", str(src), "--strategy", "rmixup",
            "--count", "6", "--seed", "1", "-o", str(out_path),
        )
        assert code == 0
        prov = out_path.with_name("m.provenance.csv")
        with open(prov, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            assert row["source_i"] in ds.ids and row["source_j"] in ds.ids


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("count=7\nseed=9\n")
        out_path = tmp_path / "c.spdb"
        code, out, _ = run(
            capsys, "gen", "--config", str(cfg), "--kind", "spd", "--n", "4",
            "--seed", "123", "-o", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 7  # from config
        assert summary["seed"] == 123  # flag wins

    def test_config_with_byte_order_mark(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=4, count=10)
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed=5")
        code, out, err = run(capsys, "probe", "--config", str(cfg), "--input", str(src),
                             "--trials", "5")
        assert code == 0, err
        assert out == run(capsys, "probe", "--input", str(src), "--trials", "5",
                          "--seed", "5")[1]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(
            capsys, "gen", "--config", str(cfg), "--kind", "spd", "--n", "4",
            "-o", str(tmp_path / "x.spdb"),
        )
        assert code == 2
        assert "frobnicate" in err

    def test_comments_and_blank_lines_skipped(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=4, count=10)
        cfg = tmp_path / "cfg"
        cfg.write_text("# probe defaults\n\n  seed = 5  \n   \n# end\n")
        code, out, err = run(capsys, "probe", "--config", str(cfg), "--input", str(src),
                             "--trials", "5")
        assert code == 0, err
        assert out == run(capsys, "probe", "--input", str(src), "--trials", "5",
                          "--seed", "5")[1]

    def test_malformed_line_is_usage_error(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="log-linear", n=4, count=10)
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=5\nseed 6\n")
        code, out, err = run(capsys, "probe", "--config", str(cfg), "--input", str(src))
        assert (code, out) == (2, "")
        assert "config line is not key=value: 'seed 6'" in err

    def test_untyped_key_taken_as_text(self, capsys, tmp_path):
        # --strategy has no type: its config value is kept as written, and
        # the required flag still wins
        src, _ = gen_dataset(capsys, tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("strategy=dropedge\n")
        outputs = []
        for name, extra in (("a", ["--config", str(cfg)]), ("b", [])):
            target = tmp_path / f"{name}.spdb"
            code, _, err = run(
                capsys, "mix", *extra, "--input", str(src), "--strategy", "vmixup",
                "--count", "3", "--seed", "2", "-o", str(target),
            )
            assert code == 0, err
            outputs.append(mix_files(target))
        assert outputs[0] == outputs[1]

    def test_dashed_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("keep-prob=0.8\n")
        src, _ = gen_dataset(capsys, tmp_path)
        code, _, _ = run(
            capsys, "mix", "--config", str(cfg), "--input", str(src),
            "--strategy", "dropedge", "--count", "2", "-o", str(tmp_path / "d.spdb"),
        )
        assert code == 0



class TestKernelWidths:
    """A kernel width whose ``2 * width**2`` overflows float64 is a domain
    error at its rule's home, not an ``OverflowError`` out of ``main``."""

    def test_cmixup_bandwidth(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        code, stdout, err = run(
            capsys, "mix", "--input", str(src), "--strategy", "cmixup", "--count", "2",
            "--bandwidth", "1e308", "-o", str(tmp_path / "m.spdb"),
        )
        assert (code, stdout) == (3, "")
        assert "error: cmixup bandwidth 1e+308 is too wide" in err
        assert not (tmp_path / "m.spdb").exists()

    def test_regress_sigma(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        code, stdout, err = run(capsys, "regress", "--input", str(src), "--trials", "2",
                                "--sigma", "1e308")
        assert (code, stdout) == (3, "")
        assert "error: sigma 1e+308 is too wide" in err

    # 2 * width**2 underflows to 0 (or below the normal range) and used to
    # give divide-by-zero warnings and an error blaming the samples
    @pytest.mark.parametrize("width", ["1e-300", "1e-155"])
    def test_narrow_widths_are_domain_errors(self, capsys, tmp_path, width):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "regress", "--input", str(src), "--trials", "2",
                                    "--sigma", width)
            assert (code, stdout) == (3, "")
            assert f"error: sigma {float(width)} is too narrow" in err
            code, stdout, err = run(
                capsys, "mix", "--input", str(src), "--strategy", "cmixup", "--count", "2",
                "--bandwidth", width, "-o", str(tmp_path / "m.spdb"),
            )
            assert (code, stdout) == (3, "")
            assert f"error: cmixup bandwidth {float(width)} is too narrow" in err
        assert not (tmp_path / "m.spdb").exists()

    def test_kernel_underflow_names_sigma(self, capsys, tmp_path):
        # 2 * sigma**2 is normal, but exp(-d / (2 sigma^2)) underflows to 0 at
        # the pair's distance: the bandwidth is named, not the samples
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "regress", "--input", str(src), "--trials", "2",
                                    "--sigma", "1.1e-154")
        assert (code, stdout) == (3, "")
        line = next(l for l in err.splitlines() if l.startswith("error:"))
        assert "sigma 1.1e-154 gives the pair of matrices" in line
        assert "of 0 at distance d = " in line

    def test_narrowest_width_runs(self, capsys, tmp_path):
        src, _ = gen_dataset(capsys, tmp_path, kind="spd", n=3, count=4)
        width = repr(augment._NARROWEST_KERNEL)
        code, _, err = run(capsys, "mix", "--input", str(src), "--strategy", "cmixup",
                           "--count", "2", "--bandwidth", width, "-o", str(tmp_path / "m.spdb"))
        assert code == 0, err


class TestGenFiniteOutput:
    """``gen`` writes no non-finite value: a spread beyond float64's range
    exits 3 naming the flag, and no file is written."""

    @pytest.mark.parametrize("kind, flags, named", [
        ("series", ["--noise", "1e308"], "noise 1e+308"),
        ("clustered", ["--separation", "1e308"], "separation 1e+308"),
        ("clustered", ["--noise", "1e308"], "noise 1e+308"),
        ("log-linear", ["--noise", "1e308"], "noise 1e+308"),
        # class 234's center sits 234 * 3 > 700 out in log-space
        ("clustered", ["--classes", "300", "--count", "300"], "classes 300"),
    ])
    def test_overflowing_spread_is_domain_error(self, capsys, tmp_path, kind, flags, named):
        series = ["--t", "10", "--count", "3"] if kind == "series" else ["--count", "4"]
        code, stdout, err = run(
            capsys, "gen", "--kind", kind, "--n", "3", *series, *flags,
            "-o", str(tmp_path / "out"),
        )
        assert (code, stdout) == (3, "")
        assert "error: " in err and "leaves float64's range at" in err and named in err
        assert list(tmp_path.iterdir()) == []


class TestGenKindFlags:
    """A ``gen`` flag that the chosen kind does not read is a usage error,
    on the command line and in a config file alike."""

    @pytest.mark.parametrize("kind, flag, value, applies", [
        ("spd", "--t", "10", "series"),
        ("spd", "--latent-rank", "2", "series"),
        ("spd", "--classes", "5", "clustered"),
        ("spd", "--separation", "1", "clustered"),
        ("spd", "--noise", "0.3", "log-linear or clustered or series"),
        ("log-linear", "--condition", "10", "spd"),
        ("log-linear", "--series-layout", "vars-as-cols", "series"),
        ("clustered", "--t", "10", "series"),
        ("series", "--classes", "3", "clustered"),
        ("series", "--condition", "10", "spd"),
    ])
    def test_other_kinds_flag_is_usage_error(self, capsys, tmp_path, kind, flag, value,
                                             applies):
        argv = ["gen", "--kind", kind, "--n", "3", "--count", "4", "-o", str(tmp_path / "out")]
        if kind == "series" and flag != "--t":
            argv += ["--t", "10"]
        message = f"error: {flag} applies to --kind {applies} only"
        code, stdout, err = run(capsys, *argv, flag, value)
        assert (code, stdout) == (2, "")
        assert message in err
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{flag[2:]}={value}\n")
        code, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]

    @pytest.mark.parametrize("kind, extra", [
        ("spd", ["--condition", "100"]),
        ("log-linear", ["--noise", "0"]),
        ("clustered", ["--noise", "0", "--classes", "2", "--separation", "3"]),
        ("series", ["--t", "10", "--noise", "0", "--series-layout", "vars-as-rows"]),
    ])
    def test_own_defaults_spelled_out_give_the_same_bytes(self, capsys, tmp_path, kind, extra):
        base = ["--t", "10"] if kind == "series" else []
        outputs = []
        for name, flags in (("a", base), ("b", extra)):
            target = tmp_path / f"{name}.out"
            code, _, err = run(capsys, "gen", "--kind", kind, "--n", "3", "--count", "4",
                               "--seed", "5", *flags, "-o", str(target))
            assert code == 0, err
            outputs.append(sorted(p.read_bytes() for p in tmp_path.glob(f"{name}*")))
        assert outputs[0] == outputs[1]


class TestExitCodeSweep:
    """Every numeric flag of every subcommand, over values at and past its
    range, in-process: no exception escapes ``main``, the exit code is one
    of the contract's, and every failing run prints an ``error:`` line,
    which names the flag or its value unless a check failed (exit 4)."""

    VALUES = ("0", "-1", "1", "nan", "inf", "1e308", "1e-300")
    # each setup's numeric flags; a setup is a small valid run the flag joins
    FLAGS = {
        "gen-log-linear": ("--n", "--count", "--seed", "--noise"),
        "gen-clustered": ("--n", "--count", "--seed", "--noise", "--classes", "--separation"),
        "gen-spd": ("--n", "--count", "--seed", "--condition"),
        "gen-series": ("--n", "--count", "--seed", "--noise", "--t", "--latent-rank"),
        "mix-rmixup": ("--alpha", "--count", "--seed"),
        "mix-dropnode": ("--keep-prob",),
        "mix-cmixup": ("--bandwidth",),
        "diagnose-spdb": ("--t",),
        "diagnose-series": ("--sweep",),
        "regress": ("--trials", "--seed", "--sigma", "--lambdas"),
        "probe": ("--trials", "--seed"),
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep")
        for argv in (
            ["gen", "--kind", "spd", "--n", "2", "--count", "4", "-o", str(root / "spd.spdb")],
            ["gen", "--kind", "log-linear", "--n", "2", "--count", "8", "--noise", "0.1",
             "-o", str(root / "reg.spdb")],
            ["gen", "--kind", "series", "--n", "2", "--t", "10", "--noise", "0.1",
             "-o", str(root / "s.csv")],
        ):
            assert main(argv) == 0
        return root

    @staticmethod
    def setup_argv(setup, inputs, out):
        command, _, detail = setup.partition("-")
        if command == "gen":
            series = ["--t", "5"] if detail == "series" else []
            return ["gen", "--kind", detail, "--n", "2", "--count", "4", *series, "-o", out]
        if command == "mix":
            return ["mix", "--input", str(inputs / "spd.spdb"), "--strategy", detail,
                    "--count", "3", "-o", out]
        if setup == "diagnose-spdb":
            return ["diagnose", "--input", str(inputs / "spd.spdb"), "--t", "20"]
        if setup == "diagnose-series":
            return ["diagnose", "--input", str(inputs / "s.csv")]
        if command == "regress":
            return ["regress", "--input", str(inputs / "spd.spdb"), "--trials", "2"]
        return ["probe", "--input", str(inputs / "reg.spdb"), "--trials", "5"]

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("setup, flag", [
        (setup, flag) for setup, flags in FLAGS.items() for flag in flags
    ])
    def test_exit_code_in_contract(self, capsys, tmp_path, inputs, setup, flag, value):
        argv = self.setup_argv(setup, inputs, str(tmp_path / "out"))
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        code, _, err = run(capsys, *argv, flag, value)
        assert code in (0, 2, 3, 4), err
        if code:
            line = next((l for l in err.splitlines() if "error:" in l), None)
            assert line is not None, err
            if code != 4:  # exit 4 reports what a check measured, not the input
                names = (flag[2:], flag[2:].replace("-", "_"), value, str(float(value)))
                assert any(name in line for name in names), line


class TestSparseClassIds:
    """Hard class ids mix as one-hot rows of width ``max id + 1``; the rows are
    built per output, never as an identity matrix of that width."""

    @pytest.mark.parametrize("strategy", ["vmixup", "rmixup", "gmixup", "cmixup", "dmixup"])
    def test_large_class_id_mixes_within_a_bounded_peak(self, capsys, tmp_path, strategy):
        src, _ = gen_dataset(capsys, tmp_path, kind="clustered", n=4, count=6)
        ds = read_matrices(src)
        ds.labels[:] = [0, 0, 1, 1, 60000, 60000]
        write_matrices(src, ds)
        out = tmp_path / "m.spdb"
        argv = ("mix", "--input", str(src), "--strategy", strategy, "--count", "4",
                "--seed", "2", "-o", str(out))
        code, err, peak = traced_peak(capsys, *argv)
        assert code == 0, err
        # four label rows of 60001 floats are 1.9 MiB; np.eye(60001) was 26.8 GiB
        assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MiB"
        # each soft row is 240 KB of text, past the csv module's field limit
        lines = out.with_name("m.labels.csv").read_text().splitlines()
        assert lines[0] == "id,label" and len(lines) == 5
        labels = [np.array(line.split(",")[1].split(";"), dtype=float) for line in lines[1:]]
        assert {len(label) for label in labels} == {60001}
        with open(out.with_name("m.provenance.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        for label, row in zip(labels, rows):
            lam = float(row["lam"])
            want = np.zeros(60001)
            want[ds.labels[ds.ids.index(row["source_i"])]] += 1.0 - lam
            want[ds.labels[ds.ids.index(row["source_j"])]] += lam
            assert np.array_equal(label, want)


    def test_soft_label_output_reads_back(self, capsys, tmp_path):
        # each sidecar row of the first mix is 240 KB, past the csv module's
        # default field limit of 131072 characters
        src, _ = gen_dataset(capsys, tmp_path, kind="clustered", n=4, count=6)
        ds = read_matrices(src)
        ds.labels[:] = [0, 0, 1, 1, 60000, 60000]
        write_matrices(src, ds)
        first, second = tmp_path / "m.spdb", tmp_path / "m2.spdb"
        for source, out in ((src, first), (first, second)):
            code, _, err = run(capsys, "mix", "--input", str(source), "--strategy", "vmixup",
                               "--count", "4", "--seed", "2", "-o", str(out))
            assert code == 0, err
        assert read_matrices(second).labels.shape == (4, 60001)


class TestZeroDimension:
    """An SPDB header with n=0 is a format error: every subcommand that reads
    one exits 1 with an ``error:`` line and writes nothing."""

    @staticmethod
    def zero_dim_file(tmp_path):
        from spdmix import data_io

        path = tmp_path / "empty.spdb"
        path.write_bytes(data_io._HEADER.pack(
            data_io.MAGIC, data_io.VERSION, 0, 3, data_io.FLAG_REGRESSION
        ))
        path.with_name("empty.labels.csv").write_text("id,label\na,0.1\nb,0.5\nc,0.9\n")
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ("mix", "--strategy", "rmixup", "--count", "4", "-o", "{out}"),
            ("mix", "--strategy", "vmixup", "--count", "4", "-o", "{out}"),
            ("probe", "--trials", "5"),
            ("regress", "--trials", "2"),
            ("diagnose", "--t", "5"),
        ],
        ids=["mix-rmixup", "mix-vmixup", "probe", "regress", "diagnose"],
    )
    def test_n_zero_header_exits_1(self, capsys, tmp_path, argv):
        src, out = self.zero_dim_file(tmp_path), tmp_path / "out.spdb"
        argv = [arg.format(out=out) for arg in argv]
        code, stdout, err = run(capsys, argv[0], "--input", str(src), *argv[1:])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: matrix dimension n=0 in ")
        assert not out.exists()
