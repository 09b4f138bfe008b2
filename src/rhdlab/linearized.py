"""Frozen-coefficient linearized system and its uniform-estimate probe.

The linearized dynamics evolve (relative density, scaled momentum,
temperature perturbation, radiation perturbation) with a bounded scalar
coefficient ``A(x, t)`` weighting the viscosity and prescribed forcings on
the momentum, temperature, and radiation equations.  The solver treats the
``A``-averaged stiff linear part implicitly per Fourier mode and the bounded
fluctuation ``A - A_mean`` explicitly, so the admissible step is set by the
fluctuation amplitude and never by the Mach parameter.  The implicit part is
the momentum-form symbol of :func:`rhdlab.steppers.acoustic_exchange_matrix`
(relative-density slot, viscosity scaled by ``A_mean``), the linear part of
:func:`rhdlab.compressible.rhs_momentum_form`.

:func:`check_estimate` accumulates both sides of the a priori bound (scaled
norms plus dissipation integrals against initial data plus forcing load,
times an exponential of the coefficient size) and reports the ratio
constant; the constants are existential, so only their stability across a
Mach sweep is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .diagnostics import grad_sobolev_sq, scaled_bundle
from .fields import SpectralGrid
from .model import Background, DomainError, PhysParams
from .steppers import (ARS_GAMMA, ImexOperator, acoustic_exchange_matrix,
                       ars222_step, imex_euler_step, pack_state, unpack_state)

__all__ = ["CoefficientField", "constant_coefficient", "standing_wave",
           "LinearizedProblem", "LinearizedTrajectory", "solve_linearized",
           "EstimateReport", "check_estimate"]


@dataclass
class CoefficientField:
    """Scalar coefficient family with declared uniform bounds."""
    lower: float
    upper: float
    fn: Callable[[SpectralGrid, float], np.ndarray]
    label: str = "coefficient"

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise DomainError(
                f"bounds must satisfy 0 < lower <= upper, got "
                f"({self.lower}, {self.upper})")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def sample(self, grid: SpectralGrid, t: float) -> np.ndarray:
        A = self.fn(grid, t)
        lo, hi = float(np.min(A)), float(np.max(A))
        tol = 1e-9 * max(1.0, self.upper)
        if lo < self.lower - tol or hi > self.upper + tol:
            raise DomainError(
                f"{self.label}: sampled range [{lo:.6g}, {hi:.6g}] leaves "
                f"declared bounds [{self.lower}, {self.upper}] at t={t}")
        return A


def constant_coefficient(value: float = 1.0) -> CoefficientField:
    def fn(grid, t):
        return np.full(grid.shape, value)
    return CoefficientField(value, value, fn, label=f"constant({value})")


def standing_wave(amplitude: float = 0.5, base: float = 1.0) -> CoefficientField:
    """``base + amplitude*sin(x_0)*sin(t)``; requires ``|amplitude| < base``."""
    if not abs(amplitude) < base:
        raise DomainError("standing wave needs |amplitude| < base for positivity")
    def fn(grid, t):
        x = grid.grid_points()
        return base + amplitude * np.sin(x[0]) * np.sin(t)
    return CoefficientField(base - abs(amplitude), base + abs(amplitude), fn,
                            label=f"standing-wave({amplitude})")


@dataclass
class LinearizedProblem:
    coeff: CoefficientField
    init_nrel: np.ndarray
    init_mom: np.ndarray
    init_dtheta: np.ndarray
    init_drad: np.ndarray
    horizon: float
    forcing_mom: Optional[Callable] = None     # (grid, t) -> vector field
    forcing_temp: Optional[Callable] = None    # (grid, t) -> scalar field
    forcing_rad: Optional[Callable] = None
    norm_order: int = 2


@dataclass
class LinearizedTrajectory:
    times: list = field(default_factory=list)
    bundles: list = field(default_factory=list)
    cum_dissipation: list = field(default_factory=list)
    cum_forcing: list = field(default_factory=list)
    cum_coeff_load: list = field(default_factory=list)
    states: list = field(default_factory=list)   # (nrel, mom, dtheta, drad)
    dt: float = 0.0
    norm_order: int = 2
    delta: float = 0.0


def solve_linearized(grid: SpectralGrid, problem: LinearizedProblem,
                     params: PhysParams, eos, dt: float,
                     scheme: str = "imex1", cadence: int = 1,
                     keep_states: bool = False) -> LinearizedTrajectory:
    """Integrate the linearized system and accumulate estimate ingredients.

    Dissipation, forcing, and coefficient-load integrals are accumulated by
    the trapezoid rule at every step regardless of ``cadence``.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    if scheme not in ("imex1", "imex2"):
        raise DomainError(f"unknown scheme {scheme!r}")
    pr = params
    d = grid.dim
    d2 = pr.delta ** 2
    bg = Background.of(pr, eos)

    a_mid = problem.coeff.midpoint
    M = acoustic_exchange_matrix(grid, bg, viscosity=a_mid,
                                 relative_density=True)
    coeff = dt if scheme == "imex1" else ARS_GAMMA * dt
    op = ImexOperator(M, coeff)
    a_constant = problem.coeff.upper == problem.coeff.lower

    def explicit_at(t):
        def explicit(X):
            N = np.zeros_like(X)
            if not a_constant:
                A = problem.coeff.sample(grid, t)
                ap = A - a_mid
                jac = grid.ifft(grid.ik[np.newaxis, :] * X[1:1 + d][:, np.newaxis])
                div_m = np.trace(jac, axis1=0, axis2=1)
                for i in range(d):
                    # mu_bar * div(ap * grad m_i) + (lam+mu)_bar * d_i(ap * div m)
                    shear = np.sum(grid.ik * grid.fft(ap * jac[i]), axis=0)
                    bulk = grid.ik[i] * grid.fft(ap * div_m)
                    N[1 + i] += (pr.mu_bar * shear
                                 + (pr.mu_bar + pr.lam_bar) * bulk)
            if problem.forcing_mom is not None:
                N[1:1 + d] += grid.fft(problem.forcing_mom(grid, t))
            if problem.forcing_temp is not None:
                N[d + 1] += grid.fft(problem.forcing_temp(grid, t))
            if problem.forcing_rad is not None:
                N[d + 2] += grid.fft(problem.forcing_rad(grid, t)) / pr.delta
            return grid.mask_spectral(N)
        return explicit

    def forcing_load(t):
        load = 0.0
        no = problem.norm_order
        if problem.forcing_mom is not None:
            load += grid.sobolev_norm(problem.forcing_mom(grid, t),
                                      max(no - 1, 0)) ** 2
        if problem.forcing_temp is not None:
            load += grid.sobolev_norm(problem.forcing_temp(grid, t),
                                      max(no - 1, 0)) ** 2 / d2
        if problem.forcing_rad is not None:
            load += grid.sobolev_norm(problem.forcing_rad(grid, t),
                                      max(no - 1, 0)) ** 2 / d2
        return load

    def coeff_load(t):
        A = problem.coeff.sample(grid, t)
        return 1.0 + grid.sobolev_norm(A, problem.norm_order) ** 2

    def diss_rate(X):
        nrel, mom, dth, dG = unpack_state(grid, X)
        no = problem.norm_order
        exch = bg.emission * dth - pr.sigma_a * dG
        return (grad_sobolev_sq(grid, nrel, max(no - 1, 0)) / d2
                + sum(grad_sobolev_sq(grid, mom[i], no) for i in range(d))
                + (grad_sobolev_sq(grid, dth, no)
                   + grad_sobolev_sq(grid, dG, no)
                   + grid.sobolev_norm(exch, no) ** 2) / d2)

    X = grid.mask_spectral(pack_state(
        grid, problem.init_nrel, problem.init_mom, problem.init_dtheta,
        problem.init_drad))

    traj = LinearizedTrajectory(dt=dt, norm_order=problem.norm_order,
                                delta=pr.delta)
    nsteps = max(0, int(np.ceil(problem.horizon / dt - 1e-12)))
    cum_d = cum_f = cum_a = 0.0
    prev = (diss_rate(X), forcing_load(0.0), coeff_load(0.0))

    def observe(t):
        nrel, mom, dth, dG = unpack_state(grid, X)
        traj.times.append(t)
        traj.bundles.append(scaled_bundle(grid, mom, nrel, dth, dG,
                                          pr.delta, problem.norm_order))
        traj.cum_dissipation.append(cum_d)
        traj.cum_forcing.append(cum_f)
        traj.cum_coeff_load.append(cum_a)
        if keep_states:
            traj.states.append((nrel, mom, dth, dG))

    observe(0.0)
    for istep in range(1, nsteps + 1):
        t0 = (istep - 1) * dt
        t1 = istep * dt
        if scheme == "imex1":
            X = imex_euler_step(op, X, dt, explicit_at(t0))
        else:
            X = ars222_step(op, X, dt, explicit_at(t0))
        cur = (diss_rate(X), forcing_load(t1), coeff_load(t1))
        cum_d += 0.5 * dt * (prev[0] + cur[0])
        cum_f += 0.5 * dt * (prev[1] + cur[1])
        cum_a += 0.5 * dt * (prev[2] + cur[2])
        prev = cur
        if istep % max(1, cadence) == 0 or istep == nsteps:
            observe(t1)
    return traj


@dataclass
class EstimateReport:
    constant: float            # fitted leading constant
    c0: float                  # exponent constant used (reported, not fitted)
    lhs_sup: float
    rhs: float
    bundle0: float
    forcing_integral: float
    coeff_integral: float
    times: list
    lhs_series: list


def check_estimate(traj: LinearizedTrajectory, c0: float = 1.0) -> EstimateReport:
    """Ratio of the accumulated left side to the constant-free right side.

    LHS(t) = bundle(t) + cumulative dissipation; RHS = [bundle(0) +
    forcing integral] * [1 + exp(c0 * L) * L] with L the integral of
    ``1 + |A|^2``.  The returned ``constant`` estimates the leading
    constant; with zero data and forcing it is defined as 0.
    """
    lhs = [b + cd for b, cd in zip(traj.bundles, traj.cum_dissipation)]
    bundle0 = traj.bundles[0]
    forcing = traj.cum_forcing[-1]
    load = traj.cum_coeff_load[-1]
    base = bundle0 + forcing
    rhs = base * (1.0 + np.exp(min(c0 * load, 700.0)) * load)
    constant = 0.0 if rhs == 0.0 else max(lhs) / rhs
    return EstimateReport(constant, c0, max(lhs), rhs, bundle0, forcing,
                          load, list(traj.times), lhs)
