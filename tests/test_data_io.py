"""SPDB format roundtrips and synthetic generator properties."""

import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spdmix.data_io import (
    FormatError,
    LabeledDataset,
    SpdbFormatError,
    SpdbWriter,
    gen_labeled_dataset,
    gen_random_spd,
    gen_synthetic_series,
    read_matrices,
    read_series_csv,
    write_matrices,
    write_series_csv,
)
from spdmix import data_io, linalg
from spdmix.linalg import SpdMatrix, matrix_exp, matrix_log
from spdmix.metrics import log_euclidean_distance

SRC = Path(__file__).resolve().parents[1] / "src"


def small_regression_dataset(seed=0, count=5, n=4):
    rng = np.random.default_rng(seed)
    mats = np.stack([gen_random_spd(n, 10.0, rng).array for _ in range(count)])
    return LabeledDataset(
        matrices=mats, labels=rng.uniform(size=count), task="regression"
    )


class TestSpdbRoundtrip:
    def test_bitwise_roundtrip_regression(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "ds.spdb"
        write_matrices(path, ds)
        back = read_matrices(path)
        assert np.array_equal(back.matrices, ds.matrices)
        assert np.array_equal(back.labels, ds.labels)
        assert back.task == ds.task
        assert back.ids == ds.ids

    def test_bitwise_roundtrip_classification(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(
            matrices=rng.standard_normal((3, 2, 2)) * 0 + np.eye(2),
            labels=[0, 1, 1],
            task="classification",
            is_correlation=True,
        )
        path = tmp_path / "cls.spdb"
        write_matrices(path, ds)
        back = read_matrices(path)
        assert back.task == "classification"
        assert back.is_correlation
        assert np.array_equal(back.labels, [0, 1, 1])

    def test_soft_labels_roundtrip(self, tmp_path):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 2),
            labels=np.array([[0.25, 0.75], [1.0, 0.0]]),
            task="classification",
        )
        path = tmp_path / "soft.spdb"
        write_matrices(path, ds)
        back = read_matrices(path)
        assert back.has_soft_labels
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_empty_dataset(self, tmp_path):
        ds = LabeledDataset(
            matrices=np.zeros((0, 3, 3)), labels=np.zeros(0), task="regression"
        )
        path = tmp_path / "empty.spdb"
        write_matrices(path, ds)
        back = read_matrices(path)
        assert len(back) == 0
        assert back.matrices.shape == (0, 3, 3) and back.dim == 3

    def test_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.spdb"
        write_matrices(path, small_regression_dataset())
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SpdbFormatError, match="truncated header: 10 bytes"):
            read_matrices(path)

    def test_labels_csv_with_wrong_header(self, tmp_path):
        path = tmp_path / "h.spdb"
        write_matrices(path, small_regression_dataset())
        sidecar = tmp_path / "h.labels.csv"
        sidecar.write_text(sidecar.read_text().replace("id,label", "id,target", 1))
        with pytest.raises(SpdbFormatError, match=r"header \['id', 'target'\], expected id,label"):
            read_matrices(path)

    def test_truncated_payload(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "t.spdb"
        write_matrices(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SpdbFormatError, match="truncated payload"):
            read_matrices(path)

    def test_bad_magic(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "m.spdb"
        write_matrices(path, ds)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(SpdbFormatError, match="bad magic"):
            read_matrices(path)

    def test_version_mismatch(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "v.spdb"
        write_matrices(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SpdbFormatError, match="version mismatch"):
            read_matrices(path)

    def test_label_count_mismatch(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "l.spdb"
        write_matrices(path, ds)
        labels = path.with_name("l.labels.csv")
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SpdbFormatError, match="label-count mismatch"):
            read_matrices(path)

    def test_ids_with_delimiters_roundtrip(self, tmp_path):
        ds = small_regression_dataset(count=3)
        ds.ids = ["a,b", 'say "hi"', "two\nlines"]
        path = tmp_path / "ids.spdb"
        write_matrices(path, ds)
        assert read_matrices(path).ids == ds.ids

    def test_ids_with_bare_carriage_return_roundtrip(self, tmp_path):
        ds = small_regression_dataset(count=3)
        ds.ids = ["\r", "a\rb", "plain"]
        path = tmp_path / "cr.spdb"
        write_matrices(path, ds)
        assert read_matrices(path).ids == ds.ids

    def test_plain_ids_keep_minimal_quoting(self, tmp_path):
        ds = small_regression_dataset(count=2)
        ds.ids = ["a", "b,c"]
        path = tmp_path / "q.spdb"
        write_matrices(path, ds)
        lines = path.with_name("q.labels.csv").read_text().splitlines()
        assert lines[1].startswith("a,") and lines[2].startswith('"b,c",')

    @pytest.mark.parametrize("labels, task, text", [
        ([0, 12, 3], "classification", ["0", "12", "3"]),
        ([0.1, -0.0, 1e-300, 3.0], "regression", ["0.1", "-0.0", "1e-300", "3.0"]),
        ([[0.25, 0.75], [1.0, 0.0], [-0.0, 1.0]], "classification",
         ["0.25;0.75", "1.0;0.0", "-0.0;1.0"]),
        (np.array([[0.1, 0.9]], dtype=np.float32), "classification",
         ["0.10000000149011612;0.8999999761581421"]),
        (np.array([[0, 1], [1, 0]]), "classification", ["0.0;1.0", "1.0;0.0"]),
    ])
    def test_label_sidecar_bytes(self, tmp_path, labels, task, text):
        # class ids as integers, floats by repr, soft rows as ;-joined floats
        ds = LabeledDataset(np.stack([np.eye(2)] * len(text)), labels, task)
        path = tmp_path / "l.spdb"
        write_matrices(path, ds)
        expected = "id,label\n" + "".join(
            f"s{k:06d},{label}\n" for k, label in enumerate(text)
        )
        assert path.with_name("l.labels.csv").read_bytes() == expected.encode()

    # printable characters plus both line-break characters
    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.text(
                st.characters(codec="utf-8").filter(lambda c: c.isprintable() or c in "\r\n")
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example(["\r"])
    def test_printable_ids_roundtrip(self, ids):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * len(ids)),
            labels=np.arange(len(ids)),
            task="classification",
            ids=ids,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.spdb"
            write_matrices(path, ds)
            back = read_matrices(path)
        assert back.ids == ids
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_fractional_class_id_rejected(self, tmp_path):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 2), labels=[0, 1], task="classification"
        )
        path = tmp_path / "c.spdb"
        write_matrices(path, ds)
        labels = path.with_name("c.labels.csv")
        labels.write_text(labels.read_text().replace(",1\n", ",1.7\n"))
        with pytest.raises(SpdbFormatError, match="1.7"):
            read_matrices(path)

    def test_non_numeric_label_rejected(self, tmp_path):
        ds = small_regression_dataset(count=3)
        path = tmp_path / "r.spdb"
        write_matrices(path, ds)
        labels = path.with_name("r.labels.csv")
        lines = labels.read_text().splitlines()
        lines[2] = "s000001,abc"
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpdbFormatError, match="s000001.*'abc'"):
            read_matrices(path)

    def test_non_numeric_soft_label_rejected(self, tmp_path):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 2),
            labels=[[0.5, 0.5], [1.0, 0.0]],
            task="classification",
        )
        path = tmp_path / "soft.spdb"
        write_matrices(path, ds)
        labels = path.with_name("soft.labels.csv")
        labels.write_text(labels.read_text().replace("1.0;0.0", "1.0;x"))
        with pytest.raises(SpdbFormatError, match="s000001.*'x'"):
            read_matrices(path)

    def test_labels_row_without_comma_rejected(self, tmp_path):
        ds = small_regression_dataset(count=3)
        path = tmp_path / "cut.spdb"
        write_matrices(path, ds)
        labels = path.with_name("cut.labels.csv")
        lines = labels.read_text().splitlines()
        lines[2] = "s000001"
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpdbFormatError, match="cut.labels.csv, line 3: 1 fields"):
            read_matrices(path)

    def test_blank_sidecar_lines_skipped(self, tmp_path):
        ds = small_regression_dataset(count=3)
        path = tmp_path / "gaps.spdb"
        write_matrices(path, ds)
        labels = path.with_name("gaps.labels.csv")
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join([lines[0], "", lines[1], "", "", *lines[2:], ""]) + "\n")
        back = read_matrices(path)
        assert back.ids == ds.ids
        assert np.array_equal(back.labels, ds.labels)

    def test_soft_labels_of_unequal_widths_rejected(self, tmp_path):
        ds = LabeledDataset(
            matrices=np.stack([np.eye(2)] * 2),
            labels=[[0.5, 0.5], [1.0, 0.0]],
            task="classification",
        )
        path = tmp_path / "soft.spdb"
        write_matrices(path, ds)
        labels = path.with_name("soft.labels.csv")
        labels.write_text(labels.read_text().replace("1.0;0.0", "1.0;0.0;0.0"))
        with pytest.raises(SpdbFormatError, match="soft labels have inconsistent widths"):
            read_matrices(path)

    def test_missing_labels_sidecar(self, tmp_path):
        ds = small_regression_dataset()
        path = tmp_path / "s.spdb"
        write_matrices(path, ds)
        path.with_name("s.labels.csv").unlink()
        with pytest.raises(SpdbFormatError, match="missing labels"):
            read_matrices(path)


class TestSpdbWriter:
    """``write_matrices`` is the one-chunk case of :class:`SpdbWriter`."""

    def test_chunks_write_the_bytes_of_one_stack(self, tmp_path):
        ds = small_regression_dataset(count=7)
        write_matrices(tmp_path / "one.spdb", ds)
        with SpdbWriter(tmp_path / "parts.spdb", 4, 7, "regression") as out:
            for rows in (slice(0, 3), slice(3, 3), slice(3, 7)):
                out.write(ds.matrices[rows])
            out.finish(ds.ids, ds.labels)
        for name in ("{}.spdb", "{}.labels.csv"):
            assert (tmp_path / name.format("parts")).read_bytes() == \
                (tmp_path / name.format("one")).read_bytes()

    def test_empty_dataset_gets_its_header(self, tmp_path):
        ds = LabeledDataset(np.zeros((0, 3, 3)), np.zeros(0), "classification")
        with SpdbWriter(tmp_path / "e.spdb", 3, 0, "classification") as out:
            out.finish([], np.zeros(0, dtype=np.int64))
        assert read_matrices(tmp_path / "e.spdb").matrices.shape == (0, 3, 3)
        write_matrices(tmp_path / "w.spdb", ds)
        assert (tmp_path / "w.spdb").read_bytes() == (tmp_path / "e.spdb").read_bytes()

    def test_count_is_held_to(self, tmp_path):
        ds = small_regression_dataset(count=3)
        with pytest.raises(ValueError, match="does not fit"):
            with SpdbWriter(tmp_path / "a.spdb", 4, 2, "regression") as out:
                out.write(ds.matrices)
        with pytest.raises(ValueError, match="1 of 3 matrices were never written"):
            with SpdbWriter(tmp_path / "b.spdb", 4, 3, "regression") as out:
                out.write(ds.matrices[:2])
                out.finish(ds.ids, ds.labels)
        with pytest.raises(ValueError, match="does not fit"):
            with SpdbWriter(tmp_path / "c.spdb", 3, 3, "regression") as out:
                out.write(ds.matrices)
        assert list(tmp_path.iterdir()) == []

    def test_failure_unlinks_what_was_opened(self, tmp_path):
        ds = small_regression_dataset(count=4)
        (tmp_path / "x.labels.csv").write_text("earlier")
        with pytest.raises(RuntimeError):
            with SpdbWriter(tmp_path / "x.spdb", 4, 4, "regression") as out:
                out.write(ds.matrices[:2])
                raise RuntimeError("interrupted")
        # the sidecar was never opened, so it is not this writer's to remove
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.labels.csv"]
        with pytest.raises(RuntimeError):
            with SpdbWriter(tmp_path / "x.spdb", 4, 4, "regression") as out:
                out.write(ds.matrices)
                out.finish(ds.ids, ds.labels)
                with out.open(tmp_path / "x.extra.csv") as fh:
                    fh.write("partial")
                    raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    # an existing SPDB is rewritten in place: longer, shorter, same size,
    # and a file that is not an SPDB at all
    @pytest.mark.parametrize("earlier", [(4, 12), (4, 2), (4, 7), (6, 7), None])
    def test_rewrite_gives_the_bytes_of_a_new_file(self, tmp_path, earlier):
        ds = small_regression_dataset(count=7)
        write_matrices(tmp_path / "new.spdb", ds)
        if earlier is None:
            (tmp_path / "old.spdb").write_bytes(b"\xff" * 3)
        else:
            n, count = earlier
            write_matrices(tmp_path / "old.spdb", small_regression_dataset(1, count, n))
        write_matrices(tmp_path / "old.spdb", ds)
        for name in ("{}.spdb", "{}.labels.csv"):
            assert (tmp_path / name.format("old")).read_bytes() == \
                (tmp_path / name.format("new")).read_bytes()

    def test_killed_rewrite_reads_as_bad_magic(self, tmp_path):
        # the earlier file has the new one's size, so only the header tells
        # a half-written file from a whole one
        path = tmp_path / "k.spdb"
        write_matrices(path, small_regression_dataset(1, count=8))
        size = path.stat().st_size
        script = (
            "import os, sys; import numpy as np; from spdmix.data_io import SpdbWriter\n"
            "out = SpdbWriter(sys.argv[1], 4, 8, 'regression')\n"
            "out.write(np.eye(4) * np.ones((3, 1, 1)))\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
        assert path.stat().st_size == size
        with pytest.raises(SpdbFormatError, match="bad magic"):
            read_matrices(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_gets_the_bytes_of_a_file(self, tmp_path):
        ds = small_regression_dataset(count=7)
        write_matrices(tmp_path / "file.spdb", ds)
        fifo = tmp_path / "pipe.spdb"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with SpdbWriter(fifo, 4, 7, "regression") as out:
            out.write(ds.matrices[:3])
            out.write(ds.matrices[3:])
            out.finish(ds.ids, ds.labels)
        reader.join(timeout=30)
        assert received == [(tmp_path / "file.spdb").read_bytes()]


class TestSeriesCsv:
    @pytest.mark.parametrize("layout", ["vars-as-rows", "vars-as-cols"])
    def test_roundtrip(self, tmp_path, layout):
        rng = np.random.default_rng(2)
        series = rng.standard_normal((4, 9))
        path = tmp_path / "s.csv"
        write_series_csv(path, series, layout=layout)
        back = read_series_csv(path, layout=layout)
        np.testing.assert_array_equal(back, series)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=7),
            elements=st.floats(allow_nan=False),
        ),
        st.sampled_from(["vars-as-rows", "vars-as-cols"]),
        st.booleans(),
    )
    def test_roundtrip_bit_exact_through_loadtxt(self, series, layout, header):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_series_csv(path, series, layout=layout)
            if header:
                width = series.shape[0 if layout == "vars-as-cols" else 1]
                names = ",".join(f"v{k}" for k in range(width))
                path.write_text(names + "\n" + path.read_text())
            back = read_series_csv(path, layout=layout)
            table = data_io._parse_series_table(path)
            rows = data_io._parse_series_rows(path)
        assert back.shape == series.shape
        assert np.array_equal(back.view(np.uint64), series.view(np.uint64))
        assert table is not None
        assert np.array_equal(table.view(np.uint64), rows.view(np.uint64))

    @pytest.mark.parametrize(
        "text",
        ['"1.0",2.0\n3.0,4.0\n', "1_0,2\n3,4\n", "a,b\n\n\n1,2\r\n3,4\r\n"],
    )
    def test_rows_loadtxt_rejects_or_skips_read_as_before(self, tmp_path, text):
        path = tmp_path / "odd.csv"
        path.write_text(text, newline="")
        rows = data_io._parse_series_rows(path)
        assert np.array_equal(read_series_csv(path), rows)

    def test_hash_is_a_value_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("1.0,2.0\n3.0,4.0#x\n")
        with pytest.raises(FormatError, match="line 2: could not convert"):
            read_series_csv(path)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        back = read_series_csv(path, layout="vars-as-cols")
        np.testing.assert_array_equal(back, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("layout", ["vars-as-rows", "vars-as-cols"])
    def test_byte_order_mark_keeps_first_row(self, tmp_path, layout):
        # the mark made the first field unparseable, so the first data row
        # was taken for a name header and dropped without an error
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
        expected = np.array([[1.0, 2.0], [3.0, 4.0]])
        if layout == "vars-as-cols":
            expected = expected.T
        np.testing.assert_array_equal(read_series_csv(path, layout=layout), expected)
        np.testing.assert_array_equal(data_io._parse_series_table(path), [[1, 2], [3, 4]])
        np.testing.assert_array_equal(data_io._parse_series_rows(path), [[1, 2], [3, 4]])

    def test_byte_order_mark_before_header_drops_only_header(self, tmp_path):
        path = tmp_path / "bom_header.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(read_series_csv(path), [[1, 2], [3, 4]])
        np.testing.assert_array_equal(data_io._parse_series_table(path), [[1, 2], [3, 4]])
        np.testing.assert_array_equal(data_io._parse_series_rows(path), [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("1.0,2.0\n\n3.0\n", "line 3: 1 values, expected 2"),
            ("1.0,2.0\n3.0,x\n", "line 2: could not convert"),
            ("a,b\n", "no data rows"),
        ],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=match) as info:
            read_series_csv(path)
        assert "bad.csv" in str(info.value)

    def test_empty_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="empty.csv: no data rows"):
            read_series_csv(path)


class TestGenRandomSpd:
    def test_condition_one_is_multiple_of_identity(self):
        rng = np.random.default_rng(3)
        s = gen_random_spd(5, 1.0, rng)
        np.testing.assert_allclose(s.array, np.eye(5), atol=1e-12)

    def test_condition_targeting(self):
        rng = np.random.default_rng(4)
        s = gen_random_spd(50, 1e4, rng)
        w = np.linalg.eigvalsh(s.array)
        kappa = w[-1] / w[0]
        assert 5e3 <= kappa <= 2e4

    def test_reproducible(self):
        a = gen_random_spd(6, 100.0, np.random.default_rng(5)).array
        b = gen_random_spd(6, 100.0, np.random.default_rng(5)).array
        assert np.array_equal(a, b)

    def test_strictly_valid_without_clamping(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = gen_random_spd(8, 1e6, rng)
            revalidated = SpdMatrix.from_array(s.array)
            assert revalidated.min_eigenvalue > 0


class TestGenSyntheticSeries:
    def test_rank_one_noiseless_correlation(self):
        rng = np.random.default_rng(7)
        series = gen_synthetic_series(5, 40, 1, 0.0, rng)
        from spdmix.spdness import correlation

        cor = correlation(series)
        assert np.all(np.isclose(np.abs(cor), 1.0, atol=1e-10))
        assert np.linalg.matrix_rank(cor, tol=1e-8) == 1

    def test_short_series_rank_bound(self):
        rng = np.random.default_rng(8)
        n = 10
        series = gen_synthetic_series(n, n // 2, n, 0.3, rng)
        from spdmix.spdness import correlation, spdness_report

        rep = spdness_report(correlation(series), n, n // 2)
        assert rep.spdness_pct <= 100.0 * (n // 2 - 1) / n

    def test_reproducible(self):
        a = gen_synthetic_series(4, 10, 2, 0.1, np.random.default_rng(9))
        b = gen_synthetic_series(4, 10, 2, 0.1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_latent_rank_validated(self):
        with pytest.raises(ValueError):
            gen_synthetic_series(4, 10, 5, 0.1, np.random.default_rng(0))


class TestGenInputRules:
    """Each numeric input of the generators has one rule, and a non-finite
    value breaks it."""

    GENERATORS = {
        "series": lambda rng, noise: gen_synthetic_series(4, 10, 2, noise, rng),
        "log-linear": lambda rng, noise: gen_labeled_dataset(
            3, 4, "regression", "log-linear", rng, noise=noise),
        "clustered": lambda rng, noise: gen_labeled_dataset(
            3, 4, "classification", "clustered", rng, noise=noise),
    }

    @pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_noise(self, kind, noise):
        with pytest.raises(ValueError, match=f"noise must be non-negative and finite, got {noise}"):
            self.GENERATORS[kind](np.random.default_rng(0), noise)

    @pytest.mark.parametrize("condition", [0.5, float("nan"), float("inf")])
    def test_condition(self, condition):
        with pytest.raises(ValueError, match=f"condition target must be >= 1 and finite, got {condition}"):
            gen_random_spd(3, condition, np.random.default_rng(0))

    @pytest.mark.parametrize("separation", [float("inf"), float("-inf"), float("nan")])
    def test_separation(self, separation):
        with pytest.raises(ValueError, match=f"separation must be finite, got {separation}"):
            gen_labeled_dataset(3, 4, "classification", "clustered", np.random.default_rng(0),
                                separation=separation)

    def test_edges_accepted(self):
        rng = np.random.default_rng(0)
        assert gen_random_spd(3, 1.0, rng).condition_number == pytest.approx(1.0)
        for make in self.GENERATORS.values():
            make(rng, 0.0)
        gen_labeled_dataset(3, 4, "classification", "clustered", rng, separation=-2.0)


class TestGenLabeledDataset:
    def test_log_linear_family_is_geodesically_exact(self):
        rng = np.random.default_rng(10)
        ds = gen_labeled_dataset(4, 30, "regression", "log-linear", rng)
        y = ds.labels
        order = np.argsort(y)
        i1, i2, i3 = order[0], order[len(order) // 2], order[-1]
        w = (y[i2] - y[i3]) / (y[i1] - y[i3])
        log_mix = w * matrix_log(ds.matrices[i1]) + (1 - w) * matrix_log(ds.matrices[i3])
        x_r = matrix_exp(log_mix).array
        x_v = w * ds.matrices[i1] + (1 - w) * ds.matrices[i3]
        target = ds.matrices[i2]
        assert np.linalg.norm(x_r - target) <= 1e-8 * np.linalg.norm(target)
        assert np.linalg.norm(x_v - target) > 1e-6 * np.linalg.norm(target)

    def test_clustered_nearest_neighbor_separates(self):
        rng = np.random.default_rng(11)
        ds = gen_labeled_dataset(
            5, 40, "classification", "clustered", rng, noise=0.05, separation=3.0
        )
        train_idx = np.arange(0, 30)
        test_idx = np.arange(30, 40)
        correct = 0
        for t in test_idx:
            dists = [
                log_euclidean_distance(ds.matrices[t], ds.matrices[k])
                for k in train_idx
            ]
            predicted = ds.labels[train_idx[int(np.argmin(dists))]]
            correct += predicted == ds.labels[t]
        assert correct == len(test_idx)

    @pytest.mark.parametrize("n", [3, 8, 50])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("structure", ["log-linear", "clustered"])
    @pytest.mark.parametrize("per_chunk", [None, 2])
    def test_stacked_matches_per_sample_loop(self, monkeypatch, n, noise, structure, per_chunk):
        # one matrix_exp per sample, drawing each sample's noise in turn
        if per_chunk:
            monkeypatch.setattr(linalg, "_CHUNK_BYTES", per_chunk * 8 * n * n)

        def sym_gauss(rng, scale):
            g = rng.standard_normal((n, n))
            return scale * (g + g.T) / (2.0 * np.sqrt(n))

        rng = np.random.default_rng(n)
        if structure == "log-linear":
            base, slope = sym_gauss(rng, 0.5), sym_gauss(rng, 1.0)
            labels = rng.uniform(0.0, 1.0, size=7)
            logs = [base + y * slope for y in labels]
            task = "regression"
        else:
            centers = [
                matrix_log(gen_random_spd(n, 10.0, rng)) + c * 3.0 * np.eye(n) for c in range(2)
            ]
            labels = np.arange(7) % 2
            logs = [centers[c] for c in labels]
            task = "classification"
        if noise > 0.0:
            logs = [h + sym_gauss(rng, noise) for h in logs]
        expected = np.stack([matrix_exp(h).array for h in logs])
        ds = gen_labeled_dataset(n, 7, task, structure, np.random.default_rng(n), noise=noise)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.matrices, expected)

    @pytest.mark.parametrize("structure", ["log-linear", "clustered"])
    def test_peak_is_the_output_and_a_few_chunks(self, structure):
        # 128 matrices at n=120 (14 MiB) are exponentiated 36 at a time
        n, count = 120, 128
        task = "regression" if structure == "log-linear" else "classification"
        budget = count * n * n * 8 + 6 * linalg._CHUNK_BYTES
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gen_labeled_dataset(n, count, task, structure, np.random.default_rng(3), noise=0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB, budget {budget / 2**20:.1f} MiB"

    def test_minimal_count(self):
        ds = gen_labeled_dataset(3, 2, "regression", "log-linear", np.random.default_rng(12))
        assert len(ds) == 2

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gen_labeled_dataset(3, 1, "regression", "log-linear", np.random.default_rng(0))

    def test_structure_task_compatibility(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            gen_labeled_dataset(3, 4, "classification", "log-linear", rng)
        with pytest.raises(ValueError):
            gen_labeled_dataset(3, 4, "regression", "clustered", rng)


class TestLabeledDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledDataset(
                matrices=np.zeros((2, 2, 2)), labels=[1.0], task="regression"
            )

    def test_bad_task(self):
        with pytest.raises(ValueError, match="task"):
            LabeledDataset(matrices=np.zeros((1, 2, 2)), labels=[0.0], task="ranking")

    def test_negative_class_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            LabeledDataset(
                matrices=np.zeros((1, 2, 2)), labels=[-1], task="classification"
            )

    def test_non_integer_class_ids_rejected(self):
        for labels, bad in (([0.5, 1.7, 2.0], "0.5"), ([0.0, np.nan, 1.0], "nan")):
            with pytest.raises(ValueError, match=f"class ids must be integers, got {bad}"):
                LabeledDataset(np.zeros((3, 2, 2)), labels, task="classification")

    def test_integer_valued_class_ids_accepted(self):
        ds = LabeledDataset(np.zeros((3, 2, 2)), [0.0, 1.0, 2.0], task="classification")
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 2]

    def test_n_classes(self):
        ds = LabeledDataset(
            matrices=np.zeros((3, 2, 2)), labels=[0, 2, 1], task="classification"
        )
        assert ds.n_classes == 3
