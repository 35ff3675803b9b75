"""The golden digests of tests/test_golden.py, on the Python reference loop.

test_golden.py runs the compiled kernel; here the same tests run on the loop
of tests/reference_loop.py (the initial draws stay the kernel's), so the
pinned outputs hold for both.
"""

import pytest

from test_golden import test_driver_digests, test_golden_digests, test_sweep_digests  # noqa: F401

pytestmark = pytest.mark.usefixtures("python_loop")
