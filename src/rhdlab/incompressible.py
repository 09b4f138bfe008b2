"""Reference solver for the incompressible Navier-Stokes limit system.

Projection method on the same spectral grid as the compressible runs,
stepping Fourier coefficients: dealiased explicit Euler advection,
Crank-Nicolson diffusion, and an exact Leray projection in place of the
pressure gradient.  The diffusion half is second order in ``dt``, and so
is the step where the projection removes the advection (a Taylor-Green
vortex); with advection the step is first order.  Only the advection
leaves spectral space.  Pressure is recovered diagnostically from its
Poisson equation rather than evolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralGrid
from .steppers import schedule

__all__ = ["IncompressibleSolver", "IncompressibleTrajectory",
           "taylor_green_velocity", "taylor_green_pressure"]


@dataclass
class IncompressibleTrajectory:
    """Observation times and, at each, the stepped velocity coefficients."""
    times: list = field(default_factory=list)
    uhats: list = field(default_factory=list)


class IncompressibleSolver:
    """Semi-implicit projection integrator for divergence-free velocity:
    explicit Euler advection and Crank-Nicolson diffusion, so a step is
    first order in ``dt`` on data whose advection is not a gradient, and
    second order only where the projection removes the advection."""

    def __init__(self, grid: SpectralGrid, mu_bar: float, rho_bar: float = 1.0):
        if not mu_bar >= 0:  # a NaN fails the comparison
            raise ValueError("mu_bar must be >= 0")
        self.grid = grid
        self.mu_bar = float(mu_bar)
        self.rho_bar = float(rho_bar)

    def _advection(self, uhat: np.ndarray) -> np.ndarray:
        """Dealiased coefficients of ``-(u.grad)u``."""
        g = self.grid
        adv = -np.einsum("j...,ij...->i...", g.ifft(uhat), g.jacobian(uhat))
        return g.fft(adv)

    def step(self, uhat: np.ndarray, dt: float) -> np.ndarray:
        """One step on velocity coefficients; the new coefficients are
        divergence-free to spectral round-off."""
        if not dt > 0:  # a NaN fails the comparison
            raise ValueError("dt must be positive")
        g = self.grid
        half = 0.5 * dt * self.mu_bar
        unew = (uhat + dt * g.leray(self._advection(uhat))
                - half * g.ksq * uhat) / (1.0 + half * g.ksq)
        return g.leray(unew)

    def run(self, u0: np.ndarray, dt: float, t_end: float,
            cadence: int = 10) -> IncompressibleTrajectory:
        """Advance the point values ``u0`` to ``t_end``.

        The datum is transformed once.  At 0 and at the steps
        :func:`rhdlab.steppers.schedule` observes, the trajectory keeps the
        stepped coefficients, on the dealias box and Leray-projected."""
        g = self.grid
        uhat = g.leray(g.fft(np.asarray(u0, dtype=float)))
        traj = IncompressibleTrajectory(times=[0.0], uhats=[uhat])
        for t, seen, _ in schedule(t_end, dt, cadence):
            uhat = self.step(uhat, dt)
            if seen:
                traj.times.append(t)
                traj.uhats.append(uhat)
        return traj

    def pressure_recover(self, u: np.ndarray) -> np.ndarray:
        """Zero-mean pressure from ``lap(P) = -rho_bar * div((u.grad)u)``
        for the point values ``u``."""
        g = self.grid
        dhat = -g.divergence(self._advection(g.fft(u)))
        ksq = np.where(g.ksq == 0.0, 1.0, g.ksq)
        phat = self.rho_bar * dhat / ksq
        phat[(0,) * g.dim] = 0.0
        return g.ifft(phat)


def taylor_green_velocity(grid: SpectralGrid, mu_bar: float, t: float) -> np.ndarray:
    """Self-similar vortex ``(sin x cos y, -cos x sin y) * exp(-2 mu_bar t)`` (2D)."""
    if grid.dim != 2:
        raise ValueError("Taylor-Green reference solution is 2D")
    x = grid.grid_points()
    decay = np.exp(-2.0 * mu_bar * t)
    return np.stack([np.sin(x[0]) * np.cos(x[1]),
                     -np.cos(x[0]) * np.sin(x[1])]) * decay


def taylor_green_pressure(grid: SpectralGrid, rho_bar: float, mu_bar: float,
                          t: float) -> np.ndarray:
    """Matching zero-mean pressure ``(rho_bar/4)(cos 2x + cos 2y) exp(-4 mu_bar t)``.

    Sign fixed by the momentum balance: the vortex advection term is the
    gradient of ``-(1/4)(cos 2x + cos 2y) exp(-4 mu_bar t)``, and
    ``grad P = -rho_bar (u.grad)u`` for the self-similar decay.
    """
    if grid.dim != 2:
        raise ValueError("Taylor-Green reference solution is 2D")
    x = grid.grid_points()
    decay = np.exp(-4.0 * mu_bar * t)
    return 0.25 * rho_bar * (np.cos(2.0 * x[0]) + np.cos(2.0 * x[1])) * decay
