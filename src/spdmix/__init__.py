"""Geodesic mixup and diagnostics for SPD matrix datasets.

Subpackages by concern:

- :mod:`spdmix.linalg` -- symmetric eigendecomposition and matrix functions
- :mod:`spdmix.metrics` -- geodesics under five metrics, distance, swelling
- :mod:`spdmix.spdness` -- covariance/correlation construction and diagnostics
- :mod:`spdmix.augment` -- mixing strategies, log-matrix cache, probes
- :mod:`spdmix.regress` -- kernels, kernel ridge and geodesic regression
- :mod:`spdmix.data_io` -- dataset model, SPDB format, synthetic generators
- :mod:`spdmix.cli` -- the ``spdmix`` command-line front end
"""

from .augment import (
    EigenCache,
    MixConfig,
    MixedSample,
    incorrect_label_probe,
    mix_dataset,
    r_mixup,
    r_mixup_cached,
    sample_beta,
    v_mixup,
)
from .data_io import (
    LabeledDataset,
    gen_labeled_dataset,
    gen_random_spd,
    gen_synthetic_series,
    read_matrices,
    write_matrices,
)
from .linalg import (
    SpdMatrix,
    cholesky,
    count_eig_calls,
    eig_sym,
    log_det,
    matrix_exp,
    matrix_log,
    matrix_power,
    symmetrize,
)
from .metrics import (
    MetricKind,
    StabilityWarning,
    geodesic,
    log_euclidean_distance,
    swelling_check,
)
from .regress import (
    KernelConfig,
    euclidean_kernel,
    fit_kernel_ridge,
    heat_kernel,
    predict_two_sample,
    theorem1_harness,
)
from .spdness import (
    clamp_to_spd,
    correlation,
    covariance,
    downsample_by_averaging,
    spdness_report,
    truncate,
)

__version__ = "0.1.0"
