"""Suite-wide fixtures: a per-test time limit.

A kernel bug that loops instead of failing would otherwise stall the whole
run.  Where the platform has SIGALRM, a test still running after
TEST_TIME_LIMIT_S seconds fails with its name, and the next test runs.
The limit is over 30 times the slowest test in the suite.
"""

from __future__ import annotations

import signal

import pytest

TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
