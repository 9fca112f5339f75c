import tracemalloc

import numpy as np
import pytest

from coordlab import coordination_code as cc
from coordlab import prob_core as pc


@pytest.fixture
def uniform_binary():
    return pc.Pmf([0.5, 0.5])


@pytest.fixture
def identity_channel():
    return pc.CondPmf(np.eye(2))


@pytest.fixture
def identity_joint():
    return pc.JointPmf([[0.5, 0.0], [0.0, 0.5]])


def random_pmf(rng, k):
    return pc.Pmf(rng.dirichlet(np.ones(k)))


def random_cond(rng, kx, ky):
    return pc.CondPmf(rng.dirichlet(np.ones(ky), size=kx))


@pytest.fixture
def pool_workers(monkeypatch):
    """Replaces the Monte-Carlo thread pool by a recorder that runs the
    chunks in the calling thread; returns the list of each pool's
    max_workers. No thread starts."""
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cc, "ThreadPoolExecutor", RecordingPool)
    return workers


@pytest.fixture
def refuse_work(monkeypatch):
    """Makes drawing source or codeword symbols, and scoring a Monte-Carlo
    chunk, fail: a refusal test passes only if nothing was drawn."""

    def boom(*args, **kwargs):
        raise AssertionError("work started past a bound")

    monkeypatch.setattr(cc, "_draw_symbols", boom)
    monkeypatch.setattr(cc, "_chunk_tvs", boom)


def _traced(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """A function that runs fn and returns (its result, the peak of its
    traced allocations)."""
    return _traced
