"""Optimal control of the 1D periodic advection equation with a full-order
upwind model, a linear Galerkin reduced model, and a shifted nonlinear Galerkin
reduced model, driven by an adjoint-based descent loop."""

from .control import build_fourier_shapes
from .discretization import SpaceTimeGrid

__version__ = "0.1.0"
