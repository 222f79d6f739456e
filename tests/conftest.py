"""Shared fixtures."""

import signal
from contextlib import contextmanager

import pytest


class _Expired(BaseException):
    """Raised by the SIGALRM handler wherever the test happens to be; a
    BaseException, as pytest's own failure is, so `except Exception` in the
    code under test does not swallow it."""


def _expired(signum, frame):
    raise _Expired


@pytest.fixture
def time_limit():
    """`with time_limit(seconds): ...` fails the test when the block runs
    longer, so a call that turns exponential fails in seconds instead of
    hanging the suite. Uses SIGALRM, so POSIX and the main thread only.

    The handler raises a private exception, and the failure is raised here,
    with the handler's traceback dropped: pytest cannot format a traceback
    whose innermost frame sits on an instruction without a line number, as
    an alarm landing in deep recursion can leave it."""

    @contextmanager
    def limit(seconds: int):
        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(seconds)
        try:
            yield
        except _Expired:
            raise pytest.fail.Exception("time limit exceeded") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
