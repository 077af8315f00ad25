import os

# One BLAS thread, as in the benchmark: small products under threaded BLAS
# time bimodally (3 ms or 48 ms for the same fast-path call), which the
# wall-clock tests would see.  OpenBLAS reads the variable when numpy is
# first imported, so it is set here, in the root conftest, and the warning
# filters that name a numpy or latticebump class are added below instead of
# in pyproject.toml: pytest imports a filter's module while it reads the ini
# file, before any conftest runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    for category in ("numpy.exceptions.ComplexWarning", "numpy.exceptions.RankWarning",
                     "latticebump.operators.AliasingWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")
