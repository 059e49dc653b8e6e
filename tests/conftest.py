import signal
import sys

import pytest

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


def library_caches() -> list:
    """Every library ``lru_cache`` in a loaded ``borelenv`` module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "borelenv" or name.startswith("borelenv."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and value.__module__.startswith("borelenv"):
                    found[value.__name__] = value
    return list(found.values())


@pytest.fixture(autouse=True)
def _fresh_library_caches():
    # every memo key is blind to monkeypatching: _intersection_sum's is
    # (algebra, Weyl set), _row_flag_algebra's and _coset_certificate's a
    # BorelConjugate, which compares by (field, row flag).  An entry left by
    # an earlier test would skip a later test's patched kernel, and one made
    # by a patched kernel must not reach a later test
    for memo in library_caches():
        memo.cache_clear()
    yield
    for memo in library_caches():
        memo.cache_clear()
