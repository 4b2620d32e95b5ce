import signal

import pytest


@pytest.fixture
def deadline():
    """Fail the test after 20 s instead of stalling the suite on a hang."""
    def expire(signum, frame):
        pytest.fail("did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
