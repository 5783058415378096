import signal

import pytest

from homring import verify
from homring.rings import SubringEmbedding, z4x_ring

# no single test runs for more than this many seconds; the slowest takes
# about 2 s, so a test that hangs fails instead of stalling the suite
TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail the test once it has run TIME_LIMIT seconds, through SIGALRM;
    where the platform has no SIGALRM the limit is skipped."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran over {TIME_LIMIT} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def verify_report():
    """Run the built-in verification suite once and share the report."""
    return verify.run()


@pytest.fixture(scope="session")
def z4x_conjugation():
    """The automorphism t -> -t of Z4X."""
    Z = z4x_ring()
    table = [(a % 4) + 4 * ((-(a // 4)) % 4) for a in range(Z.order)]
    return SubringEmbedding(Z, Z, table, tag="z4x-conjugation")
