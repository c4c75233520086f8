import pytest

from rkesim import codebook, fob


def _fresh_process() -> None:
    """Empty every memo a fresh process starts without.  ``fob._frame`` is
    one: a frame it hands out again skips ``encode``, so the codebook never
    primes its decode."""
    fob._frame.cache_clear()
    codebook.clear_caches()


@pytest.fixture(scope="session")
def fresh_process():
    """The function that returns every memo to a fresh process's state.
    Session-scoped, so a Hypothesis test can call it in each example."""
    return _fresh_process
