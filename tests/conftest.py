import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

import pytest

from ivfuse import _blas


@pytest.fixture
def set_blas_threads():
    """A setter of the OpenBLAS thread count, which is restored after the
    test; the test is skipped where numpy's OpenBLAS is not found."""
    fns = _blas._functions()
    if fns is None:
        pytest.skip("numpy's OpenBLAS is not found")
    before = fns[0]()
    yield fns[1]
    fns[1](before)
