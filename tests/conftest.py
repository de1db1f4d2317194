import pytest

from parrondoq import verify


@pytest.fixture(scope="session")
def registry():
    """One run of the verification registry, shared by every test that
    reads its results."""
    return verify.run_all()
