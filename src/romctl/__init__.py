"""Optimal control of the 1D periodic advection equation with a full-order
upwind model, a linear Galerkin reduced model, and a shifted nonlinear Galerkin
reduced model, driven by an adjoint-based descent loop."""

import ctypes
import sys

from .control import build_fourier_shapes
from .discretization import SpaceTimeGrid

__version__ = "0.1.0"

# glibc (mallopt): an array of 4 MiB or more that no free heap block holds gets
# its own mapping, unmapped when freed, and the heap keeps at most 2 MiB free
# at its top. By default the mapping threshold rises to each freed mapping's
# size, so the 15 MB fields of a half-scale refresh grew the heap, and where
# small blocks sat in it moved the peak RSS of identical runs by 10 MB. numpy
# asks for huge pages from 4 MiB on, so a fresh mapping faults cheaply.
_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_LIBC, "mallopt"):
    _LIBC.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _LIBC.mallopt(-1, 2 << 20)  # M_TRIM_THRESHOLD
