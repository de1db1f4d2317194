import time

import pytest

from parrondoq import verify


@pytest.fixture(scope="session")
def timed_registry():
    """One run of the verification registry: its results and its wall time
    in seconds."""
    start = time.perf_counter()
    results = verify.run_all()
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def registry(timed_registry):
    """The results of that one run, shared by every test that reads them."""
    return timed_registry[0]
