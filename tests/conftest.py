"""Fixtures shared by the test modules."""

import os

import pytest


class Schedule:
    """Forces :func:`poselift.nn._side_by_side` through what it observes:
    two usable CPUs, and one BLAS thread or two.  ``schedule(True)`` gives
    every :func:`poselift.nn.pair` the worker thread, ``schedule(False)``
    the caller alone."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def __call__(self, side_by_side: bool) -> None:
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        self._monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        self._monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1" if side_by_side else "2")

    def both(self, run) -> list:
        """``[run()]`` with the caller alone, then with the worker thread."""
        results = []
        for side_by_side in (False, True):
            self(side_by_side)
            results.append(run())
        return results


@pytest.fixture
def schedule(monkeypatch) -> Schedule:
    return Schedule(monkeypatch)
