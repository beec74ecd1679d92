"""Metric names, units and formulas.

End-to-end metrics come from untraced runs. Per-layer metrics come from the
traced run and are named ``<kind>.<module>.<metric>``, where ``kind`` is the
operation kind (see ``workloads``) and ``module`` the spdmix module, or
``lapack`` for the eigensolvers spdmix calls. An "item" is the unit of the
operation kind's throughput metric; "share" is a fraction of the operations'
wall time. Every name, unit and formula lives here, and BENCHMARK.json lists
the same names and units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL = ("rmixup", "baseline", "regress", "probe", "diagnose")
MIX = ("rmixup", "baseline")
DECOMPOSING = ("rmixup", "regress", "probe", "diagnose")

END_TO_END = (
    ("setup_s", "s"),
    ("rmixup_samples_per_s", "samples/s"),
    ("baseline_samples_per_s", "samples/s"),
    ("regress_pairs_per_s", "pairs/s"),
    ("probe_trials_per_s", "trials/s"),
    ("diagnose_matrices_per_s", "matrices/s"),
    ("peak_rss_mib", "MiB"),
)

_READS = ("data_io.read_matrices", "data_io.read_series_csv")
_MIB = float(1 << 20)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class KindStats:
    """Totals over the operations of one kind in one run."""

    ops: int = 0
    items: int = 0
    seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0  # SPDB payload and labels written by write_matrices
    eig_full: int = 0  # matrices decomposed with eigenvectors
    eig_values: int = 0  # matrices decomposed for eigenvalues only
    count_eig: int = 0  # what spdmix.linalg.count_eig_calls reported
    sources: int = 0  # distinct provenance sources of rmixup outputs
    entries: int = 0  # eigendecomposition cache entries built
    spans: dict = field(default_factory=dict)  # name -> [calls, seconds, self seconds]

    def add_spans(self, names: list[str], stats: dict) -> None:
        for name_id, (calls, total, own) in stats.items():
            acc = self.spans.setdefault(names[name_id], [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total(self, *names: str) -> float:
        return sum(self.spans.get(n, [0, 0.0])[1] for n in names)

    def own(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def module_self(self, module: str) -> float:
        return sum(v[2] for k, v in self.spans.items() if k.split(".", 1)[0] == module)

    def lapack(self) -> tuple[int, float]:
        hits = [v for k, v in self.spans.items() if k.startswith("lapack.")]
        return sum(v[0] for v in hits), sum(v[1] for v in hits)


# (metric, unit, operation kinds it is reported for, formula)
LAYER = (
    ("cli.self_ms_per_op", "ms", ALL,
     lambda x: 1e3 * _ratio(x.module_self("cli"), x.ops)),
    ("data_io.read_ms_per_op", "ms", ALL,
     lambda x: 1e3 * _ratio(x.total(*_READS), x.ops)),
    ("data_io.read_mib_per_s", "MiB/s", ALL,
     lambda x: _ratio(x.bytes_in / _MIB, x.total(*_READS))),
    ("data_io.write_ms_per_op", "ms", MIX,
     lambda x: 1e3 * _ratio(x.total("data_io.write_matrices"), x.ops)),
    ("data_io.write_mib_per_s", "MiB/s", MIX,
     lambda x: _ratio(x.bytes_out / _MIB, x.total("data_io.write_matrices"))),
    ("augment.batch_self_us_per_sample", "us", MIX,
     lambda x: 1e6 * _ratio(x.own("augment.augment_batch"), x.items)),
    ("augment.precompute_ms_per_op", "ms", ("rmixup",),
     lambda x: 1e3 * _ratio(x.total("augment.EigenCache.build"), x.ops)),
    ("augment.log_matrix_calls_per_sample", "calls/sample", ("rmixup",),
     lambda x: _ratio(x.calls("augment.EigenCacheEntry.log_matrix"), x.items)),
    ("augment.cache_used_ratio", "ratio", ("rmixup",),
     lambda x: _ratio(x.sources, x.entries)),
    ("augment.probe_ms_per_trial", "ms", ("probe",),
     lambda x: 1e3 * _ratio(x.total("augment.incorrect_label_probe"), x.items)),
    ("linalg.eigensolves_per_item", "solves/item", ALL,
     lambda x: _ratio(x.eig_full + x.eig_values, x.items)),
    ("linalg.values_only_per_item", "solves/item", DECOMPOSING,
     lambda x: _ratio(x.eig_values, x.items)),
    ("linalg.eigensolve_ms_per_call", "ms", DECOMPOSING,
     lambda x: 1e3 * _ratio(x.lapack()[1], x.lapack()[0])),
    ("linalg.eigensolve_share", "fraction", DECOMPOSING,
     lambda x: _ratio(x.lapack()[1], x.seconds)),
    ("linalg.count_eig_calls_per_item", "calls/item", ALL,
     lambda x: _ratio(x.count_eig, x.items)),
    ("linalg.recompose_ms_per_call", "ms", ("rmixup", "regress", "probe"),
     lambda x: 1e3 * _ratio(x.total("linalg.EigenDecomposition.recompose"),
                            x.calls("linalg.EigenDecomposition.recompose"))),
    ("linalg.symmetrize_calls_per_item", "calls/item", DECOMPOSING,
     lambda x: _ratio(x.calls("linalg.symmetrize"), x.items)),
    ("linalg.symmetrize_share", "fraction", ("rmixup", "regress"),
     lambda x: _ratio(x.total("linalg.symmetrize"), x.seconds)),
    ("linalg.matrix_log_calls_per_item", "calls/item", ("rmixup", "regress", "probe"),
     lambda x: _ratio(x.calls("linalg.matrix_log"), x.items)),
    ("linalg.matrix_exp_calls_per_item", "calls/item", ("rmixup", "probe"),
     lambda x: _ratio(x.calls("linalg.matrix_exp"), x.items)),
    ("metrics.distance_calls_per_pair", "calls/pair", ("regress",),
     lambda x: _ratio(x.calls("metrics.log_euclidean_distance"), x.items)),
    ("metrics.self_ms_per_pair", "ms", ("regress",),
     lambda x: 1e3 * _ratio(x.module_self("metrics"), x.items)),
    ("regress.harness_ms_per_pair", "ms", ("regress",),
     lambda x: 1e3 * _ratio(x.total("regress.theorem1_harness"), x.items)),
    ("regress.sigma_ms_per_pair", "ms", ("regress",),
     lambda x: 1e3 * _ratio(x.total("regress.default_harness_sigma"), x.items)),
    ("spdness.correlation_ms_per_matrix", "ms", ("diagnose",),
     lambda x: 1e3 * _ratio(x.total("spdness.correlation"), x.items)),
    ("spdness.report_ms_per_matrix", "ms", ("diagnose",),
     lambda x: 1e3 * _ratio(x.total("spdness.spdness_report"), x.items)),
)


def end_to_end(stats: dict[str, KindStats], setup_s: float, peak_rss_mib: float) -> dict:
    values = {
        "setup_s": setup_s,
        "rmixup_samples_per_s": _ratio(stats["rmixup"].items, stats["rmixup"].seconds),
        "baseline_samples_per_s": _ratio(stats["baseline"].items, stats["baseline"].seconds),
        "regress_pairs_per_s": _ratio(stats["regress"].items, stats["regress"].seconds),
        "probe_trials_per_s": _ratio(stats["probe"].items, stats["probe"].seconds),
        "diagnose_matrices_per_s": _ratio(stats["diagnose"].items, stats["diagnose"].seconds),
        "peak_rss_mib": peak_rss_mib,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(stats: dict[str, KindStats], gen_s: float, overhead: float) -> dict:
    out = {}
    for kind in ALL:
        for metric, unit, kinds, formula in LAYER:
            if kind in kinds:
                out[f"{kind}.{metric}"] = {"value": formula(stats[kind]), "unit": unit}
    # Per workload rather than per operation kind: the median time to
    # generate the inputs, and traced / untraced wall time - 1.
    out["data_io.gen_s"] = {"value": gen_s, "unit": "s"}
    out["trace_overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return out
