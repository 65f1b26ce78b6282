"""Test-session set-up, run by pytest before any test module imports numpy.

With one OpenBLAS thread and two usable CPUs, ``pipeline.train`` runs each
step of a training with weak data on two threads, and
``pipeline.predict_frames`` a large batch as two row blocks (README,
"Threads").  The acceptance suite's weak trainings spend most of tier-1
on the first.  The schedule does not change the bits; the numpy and
OpenBLAS build, the BLAS thread count and the batch size can: at two
OpenBLAS threads, predictions for 41 to 43 samples at width 1024
differed in the last bits from one thread's (README, "Threads").  A
value already set in the environment wins.

The ``numpy_passes`` fixture is the one way a test forces the numpy
passes of the compiled loops, and the ``needs_cc`` marker skips a test
where no C compiler builds them.
"""

import contextlib
import os
import shutil

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_cc: skipped where no C compiler (cc) is on the PATH")


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_cc") and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")


@pytest.fixture(scope="session")
def numpy_passes():
    """A context manager under which every compiled loop runs its numpy
    passes, counted by ``compiled.runs()`` as "the numpy passes (forced
    by the test)".  Session-scoped, so Hypothesis tests may take it."""
    from poselift import compiled  # imported late: numpy after the setting above

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compiled, "_library", (None, "forced by the test"))
            yield

    return forced
