"""Fractal-geometry laboratory for Gaussian processes with a general
variance scale: exact simulation, adapted Cantor sets, dimension and
capacity estimators, hitting-probability experiments, and the integral
conditions that gate each regime."""

import os

# BLAS and LAPACK run on one thread: --threads is the only parallelism, and
# no payload byte depends on the caller's environment.  This acts only when
# NumPy is first imported after this package.
os.environ.update(
    dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
)

__version__ = "0.1.0"

from .conditions import (
    check_strong_condition,
    check_weak_condition,
    f_gamma,
    integral_I,
    psi_sqrtlog_criterion,
)
from .dimension import (
    box_dimension_euclidean,
    dim_delta_estimate,
    dim_rho_product,
    image_dimension_experiment,
    intersection_dimension_experiment,
)
from .energy import capacity_estimate, kernel_matrix, minimize_energy
from .fractal_sets import Target, TimeSet, build_cantor
from .gp_sim import (
    CovMatrix,
    PathBatch,
    cov_stationary_increments,
    cov_volterra,
    sample_paths,
)
from .hitting import (
    add_sandwich_terms,
    hausdorff_content_estimate,
    hit_probability_mc,
    sandwich_report,
    small_ball_sweep,
    wilson_interval,
)
from .metrics import AtomRows, commensurability_report, covariance_delta_matrix
from .scale import (
    CustomScale,
    ExpLogScale,
    LogCorrectedScale,
    LogScale,
    PowerLogScale,
    PowerScale,
    ScaleFunction,
    parse_scale_spec,
    phi_kernel,
)
