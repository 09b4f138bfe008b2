"""Pseudo-spectral laboratory for low-Mach radiation hydrodynamics.

The package integrates the scaled compressible system whose pressure
gradient stiffens like 1/delta^2 as the Mach parameter delta shrinks,
verifies its perturbation-form algebra exactly, and measures the scalings of
the solution bundle and the approach to the incompressible limit.
"""

from .fields import SpectralGrid, load_field, save_field
from .model import IdealGasEOS, PhysParams

__version__ = "0.1.0"

__all__ = ["SpectralGrid", "save_field", "load_field",
           "PhysParams", "IdealGasEOS", "__version__"]
