"""A full field that the heap has no room for gets its own mapping, so the
peak RSS follows the arrays alive, not where glibc's heap has holes (see
romctl/__init__.py)."""
import platform
import sys

import numpy as np
import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="reads glibc's heap from /proc/self/maps",
)


def in_heap(a: np.ndarray) -> bool:
    addr = a.ctypes.data
    with open("/proc/self/maps") as maps:
        for line in maps:
            if line.rstrip().endswith("[heap]"):
                lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
                if lo <= addr < hi:
                    return True
    return False


def test_a_full_field_is_mapped_after_one_is_freed():
    # glibc's default would grow the heap for the second: freeing the first
    # raises its mapping threshold above their size
    first = np.ones((1601, 1200))
    del first
    assert not in_heap(np.ones((1601, 1200)))


def test_a_small_array_comes_from_the_heap():
    assert in_heap(np.ones(1 << 16))
