"""Shared fixtures."""

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """`with time_limit(seconds): ...` fails the test when the block runs
    longer, so a call that turns exponential fails in seconds instead of
    hanging the suite. Uses SIGALRM, so POSIX and the main thread only."""

    def expired(signum, frame):
        pytest.fail("time limit exceeded")

    @contextmanager
    def limit(seconds: int):
        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
