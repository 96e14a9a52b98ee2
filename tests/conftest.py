from __future__ import annotations

import sys
from pathlib import Path

# gpfractal first: its import pins BLAS to one thread, which acts only
# before NumPy is loaded, so in-process tests run the BLAS the CLI runs
import gpfractal  # noqa: F401  isort: skip
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gpfractal.gp_sim import sample_paths
from gpfractal.scale import (
    ExpLogScale,
    LogScale,
    PowerLogScale,
    PowerScale,
)


@pytest.fixture(scope="session")
def registry():
    """The built-in family instances exercised across the suite."""
    return [
        PowerScale(0.4),
        PowerLogScale(0.3, 1.0),
        PowerLogScale(0.3, -1.0),
        ExpLogScale(0.3),
        ExpLogScale(0.7),
        LogScale(1.0),
    ]


@pytest.fixture(scope="session")
def concave_registry():
    """Families declaring concavity near 0, with representative params.

    H = 1 is excluded: gamma(r) = r gives the degenerate rank-one
    process B(t) = t * xi, whose conditional variances vanish.
    """
    return [
        PowerScale(0.3),
        PowerScale(0.5),
        PowerScale(0.75),
        PowerLogScale(0.3, -1.0),
        ExpLogScale(0.3),
        ExpLogScale(0.7),
        LogScale(1.0),
    ]


@pytest.fixture()
def rng():
    # fresh generator per test: results never depend on execution order
    return np.random.default_rng(20240817)


def all_paths(cov, d, n_paths, seed, threads=1):
    """Every path sample_paths draws, (n_paths, n, d), collected through its consumer.

    Rows no chunk filled stay NaN.
    """
    values = np.full((n_paths, cov.n, d), np.nan)

    def keep(p0, block):
        values[p0 : p0 + len(block)] = block

    sample_paths(cov, d=d, n_paths=n_paths, seed=seed, threads=threads, consume=keep)
    return values
