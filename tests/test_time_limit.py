"""The time_limit fixture of conftest.py."""

import pytest


def _descend_and_spin(depth):
    # At the bottom the loop only jumps back, and on CPython 3.11 that
    # backward jump has no line number, so the alarm lands on an instruction
    # pytest cannot place in the source.
    for _ in iter(int, 1):  # forever
        if depth:
            _descend_and_spin(depth - 1)


def test_time_limit_fails_cleanly_inside_deep_recursion(time_limit):
    with pytest.raises(pytest.fail.Exception, match="time limit exceeded") as excinfo:
        with time_limit(1):
            _descend_and_spin(200)
    assert "time limit exceeded" in str(excinfo.getrepr())
