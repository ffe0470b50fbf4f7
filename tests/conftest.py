"""Suite-wide checks."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Fail a test that leaves a worker process running; stop the leftovers so
    the failure stays with the test that caused it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(timeout=10)
    assert not left, f"worker processes outlived the test: {left}"
