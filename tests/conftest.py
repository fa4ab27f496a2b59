"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.kernels import available_backends
from repro.lists.generate import LinkedList, random_list

#: Whether the ``c`` kernel backend's library builds on this host.
HAVE_C = "c" in available_backends()

#: The ``c`` backend as a test parameter, skipped where its library does
#: not build (CI's full leg asserts that it does).
C_BACKEND = pytest.param(
    "c", marks=pytest.mark.skipif(not HAVE_C, reason="the c backend does not build here")
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_list(rng) -> LinkedList:
    """A 100-node random list with random integer values."""
    return random_list(100, rng, values=rng.integers(-50, 50, 100))


@pytest.fixture
def medium_list(rng) -> LinkedList:
    """A 10_000-node random list with random integer values."""
    return random_list(10_000, rng, values=rng.integers(-50, 50, 10_000))


def make_affine_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random affine-map values (a in {1,2}, b in [-5, 5])."""
    return np.stack(
        [rng.integers(1, 3, n), rng.integers(-5, 6, n)], axis=1
    ).astype(np.int64)


@contextlib.contextmanager
def within(seconds):
    """Raise ``TimeoutError`` once the block runs past ``seconds``, so a
    scan or a pool that hangs fails its test instead of stalling the
    suite (main thread only: the deadline is a ``SIGALRM``)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
