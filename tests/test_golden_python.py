"""The golden digests of tests/test_golden.py, on the Python event loop.

test_golden.py runs with the compiled loop wherever it can be built; here the
same tests run with it disabled, so the pinned outputs hold for both.
"""

import pytest

from test_golden import test_driver_digests, test_golden_digests, test_sweep_digests  # noqa: F401

pytestmark = pytest.mark.usefixtures("python_loop")
