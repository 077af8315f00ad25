import os

# One BLAS thread, as in the benchmark: small products under threaded BLAS
# time bimodally (3 ms or 48 ms for the same fast-path call), which the
# wall-clock tests would see.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from latticebump.bumps import check_condition_B, make_bump, make_theta_pair, make_window  # noqa: E402
from latticebump.grid import make_grid  # noqa: E402

# frozen oracle: integral of exp(-1/(1-t^2)) over [-1, 1], adaptive quadrature
BUMP_INTEGRAL = 0.4439938161680793


@pytest.fixture(scope="session")
def spec():
    """Standard working grid for witness experiments."""
    return make_grid(1, 8, 32)


@pytest.fixture(scope="session")
def phi04():
    """The radius-0.4 tensor bump on R^2 (n = 1)."""
    return make_bump(2, "tensor-exp", radius=0.4)


@pytest.fixture(scope="session")
def condition_b(phi04):
    res = check_condition_B(phi04)
    assert res.holds
    return res


@pytest.fixture(scope="session")
def theta(phi04, condition_b, spec):
    return make_theta_pair(phi04, condition_b.witness, condition_b.slack / 4, spec)


@pytest.fixture(scope="session")
def kappa():
    return make_window(1, 0.6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
