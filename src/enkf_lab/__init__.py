"""Ensemble Kalman filtering with inflation and spectral projection.

Library layout:

* :mod:`enkf_lab.linalg` PSD kernels (gains, low-rank Loewner ratios, factors)
* :mod:`enkf_lab.models` coefficient streams and the turbulence testbed
* :mod:`enkf_lab.reference` exact/augmented Kalman benchmarks
* :mod:`enkf_lab.effective_dim` low-effective-dimension verifier
* :mod:`enkf_lab.enkf` the filter itself
* :mod:`enkf_lab.diagnostics` monitored sequences and experiments
* :mod:`enkf_lab.cli` the ``enkf-lab`` command

The package exports exactly the first six modules' ``__all__``, in that
order. BLAS threads follow ``OMP_NUM_THREADS`` and its kin, as numpy reads
them at its first import.
"""

__version__ = "0.1.0"

from . import diagnostics, effective_dim, enkf, linalg, models, reference
from .linalg import *
from .models import *
from .reference import *
from .effective_dim import *
from .enkf import *
from .diagnostics import *

__all__ = [
    name for module in (linalg, models, reference, effective_dim, enkf, diagnostics)
    for name in module.__all__
]
