import pytest

from homring import verify
from homring.rings import SubringEmbedding, z4x_ring


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
