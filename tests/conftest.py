import signal

import pytest

from borelenv import envelope

# The slowest test takes about 6 s; a hang fails by name at this bound
# instead of running to the CI job's time limit.
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def _time_bound(request):
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fresh_envelope_memos():
    # both keys are blind to monkeypatching: _intersection_sum's is (algebra,
    # Weyl set), _row_flag_algebra's is (field, row flag).  An entry left by
    # an earlier test would skip a later test's patched kernel, and one made
    # by a patched kernel must not reach a later test
    memos = (envelope._intersection_sum, envelope._row_flag_algebra)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
