import signal

import pytest

from filtropt import context_for

# Longest any one test may run; the slowest (the exhaustive BM oracle) takes
# about 27 s, so only a hang reaches this.
TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _per_test_timeout():
    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ctx3():
    return context_for(3)


@pytest.fixture(scope="session")
def ctx4():
    return context_for(4)


@pytest.fixture(scope="session")
def ctx5():
    return context_for(5)


@pytest.fixture(scope="session")
def ctx7():
    return context_for(7)
