"""Shared fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture(scope="session")
def budget():
    """budget(seconds) is a context manager that fails the test once its body
    has run for that many wall-clock seconds, so that a hot path that falls
    back into exponential behaviour fails the test instead of hanging it."""

    @contextmanager
    def within(seconds: float):
        def expired(signum, frame):
            pytest.fail(f"over the {seconds} s budget")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
