"""Ensemble Kalman filtering with inflation and spectral projection.

Library layout:

* :mod:`enkf_lab.linalg` PSD kernels (gains, low-rank Loewner ratios, factors)
* :mod:`enkf_lab.models` coefficient streams and the turbulence testbed
* :mod:`enkf_lab.reference` exact/augmented Kalman benchmarks
* :mod:`enkf_lab.effective_dim` low-effective-dimension verifier
* :mod:`enkf_lab.enkf` the filter itself
* :mod:`enkf_lab.diagnostics` monitored sequences and experiments
* :mod:`enkf_lab.cli` the ``enkf-lab`` command
"""

import os as _os

# ENKF_LAB_THREADS caps the BLAS thread pools. It must reach the environment
# before the first submodule imports numpy: the pools size themselves then
# and ignore later changes.
if _os.environ.get("ENKF_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["ENKF_LAB_THREADS"])

__version__ = "0.1.0"

from .effective_dim import (
    DimReport,
    minimal_p_search,
    verify_dim_general,
    verify_dim_observed,
    verify_dim_unfiltered,
)
from .enkf import (
    Ensemble,
    EnkfConfig,
    EnkfFilter,
    FilterDiverged,
    StepRecord,
    enkf_assimilate,
    enkf_forecast,
)
from .linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    kalman_gain,
    kalman_update_operator,
    symmetrize,
)
from .models import (
    CoefficientStream,
    InvalidChain,
    InvalidParams,
    JumpSpec,
    StepCoefficients,
    TruthTrajectory,
    TurbulenceParams,
    build_turbulence,
    markov_jump_step,
    simulate_truth,
    truth_path,
)
from .reference import (
    KalmanState,
    augmented_riccati_step,
    kalman_step,
    stationary_riccati_ambient,
    stationary_riccati_diag,
)
from .diagnostics import (
    FilterDiagnostics,
    compute_lambda_mu,
    run_accuracy_experiment,
    run_concentration_experiment,
    run_filter_experiment,
    run_stability_experiment,
    write_csv,
    write_json,
)
