"""Pytest plugin: run every test inside the sanitizer suite.

Enable with ``pytest -p repro.sanitize.pytest_plugin`` (the CI
``sanitize`` job does this for the concurrency and serve suites).
Each test gets a fresh :func:`~repro.sanitize.runtime.sanitizers`
scope; after the test body passes, the plugin fails it if the race
detector reported an unordered pair.

Soft observations (still-open pools at test end, event-loop stalls)
surface as pytest warnings: module-scoped fixtures legitimately hold
pools across tests, and stall timing on shared CI runners is not a
per-test verdict.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator

import pytest

from .runtime import SanitizerState, sanitizers


class SanitizerViolation(AssertionError):
    """A test completed but left races behind."""


@pytest.fixture(autouse=True)
def _repro_sanitizers() -> Iterator[SanitizerState]:
    with sanitizers(label="pytest") as state:
        yield state
    failures = state.failures()
    if failures:
        details = "\n".join(f"  [{f.check}] {f.message}" for f in failures)
        raise SanitizerViolation(
            f"sanitizers reported {len(failures)} violation(s):\n{details}"
        )
    for finding in state.warnings():
        warnings.warn(f"[sanitize:{finding.check}] {finding.message}", stacklevel=1)
