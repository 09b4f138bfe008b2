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

from .diagnostics import bundle_factors
from .fields import SpectralGrid
from .model import Background, DomainError, PhysParams, planck_linear
from .steppers import (SCHEMES, ImexStepper, acoustic_exchange_matrix,
                       pack_state, unpack_state)

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
    shapes = {}  # spatial factor per grid, built on first use

    def fn(grid, t):
        if grid not in shapes:
            shapes[grid] = amplitude * np.sin(grid.grid_points()[0])
        return base + shapes[grid] * np.sin(t)
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
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    pr = params
    d = grid.dim
    d2 = pr.delta ** 2
    no = problem.norm_order
    bg = Background.of(pr, eos)

    a_mid = problem.coeff.midpoint
    M = acoustic_exchange_matrix(grid, bg, viscosity=a_mid,
                                 relative_density=True)
    stepper = ImexStepper(scheme, M, dt)
    a_constant = problem.coeff.upper == problem.coeff.lower

    def level(t):
        """Fluctuation ``A - A_mean`` and load ``1 + |A|^2_{H^no}`` of the
        coefficient sampled once at time level ``t``: the load closes the
        step ending at ``t`` and the fluctuation drives the next one."""
        A = problem.coeff.sample(grid, t)
        return A - a_mid, 1.0 + grid.sobolev_norm(A, no) ** 2

    # (forcing, first slot of X it drives, divisor)
    forced = [(f, slot, c) for f, slot, c in (
        (problem.forcing_mom, 1, 1.0), (problem.forcing_temp, d + 1, 1.0),
        (problem.forcing_rad, d + 2, pr.delta)) if f is not None]

    def explicit_at(t, ap):
        def explicit(X):
            # point values of the forcings, then of the momentum flux,
            # forward-transformed in one call
            terms = [np.reshape(f(grid, t) / c, (-1,) + grid.shape)
                     for f, _, c in forced]
            if not a_constant:
                # ap * (mu_bar d_j m_i + (lam+mu)_bar div(m) delta_ij), whose
                # divergence over j is the momentum tendency
                jac = grid.jacobian(X[1:1 + d])
                flux = pr.mu_bar * jac
                flux[range(d), range(d)] += ((pr.mu_bar + pr.lam_bar)
                                             * np.trace(jac, axis1=0, axis2=1))
                terms.append((ap * flux).reshape((d * d,) + grid.shape))
            N = np.zeros_like(X)
            if terms:
                F = np.split(grid.fft(np.concatenate(terms)),
                             np.cumsum([len(v) for v in terms])[:-1])
                for (_, slot, _), Fs in zip(forced, F):
                    N[slot:slot + len(Fs)] += Fs
                if not a_constant:
                    N[1:1 + d] += np.sum(grid.ik * F[-1].reshape(
                        (d, d) + grid.spectral_shape), axis=1)
            return grid.mask_spectral(N)
        return explicit

    # momentum, temperature and radiation forcings with their load divisors
    forcings = ((problem.forcing_mom, 1.0), (problem.forcing_temp, d2),
                (problem.forcing_rad, d2))

    def forcing_load(t):
        return sum((grid.sobolev_norm(f(grid, t), max(no - 1, 0)) ** 2 / c
                    for f, c in forcings if f is not None), 0.0)

    # Parseval weights per slot of X: the dissipation rate takes gradients
    # of nrel in H^(no-1), of the rest in H^no, and the exchange term in H^no
    w_no = grid.sobolev_weight(no)
    w_diss = grid.ksq * np.stack([grid.sobolev_weight(max(no - 1, 0)) / d2]
                                 + [w_no] * d + [w_no / d2] * 2)
    bundle = bundle_factors(d, pr.delta)

    def diss_rate(X):
        exch = planck_linear(X[d + 1], X[d + 2], pr)
        return float(np.sum(grid.norm_sq(X, w_diss))
                     + grid.norm_sq(exch, w_no) / d2)

    X = grid.mask_spectral(pack_state(
        grid, problem.init_nrel, problem.init_mom, problem.init_dtheta,
        problem.init_drad))

    traj = LinearizedTrajectory(dt=dt, norm_order=problem.norm_order,
                                delta=pr.delta)
    nsteps = max(0, int(np.ceil(problem.horizon / dt - 1e-12)))
    cum_d = cum_f = cum_a = 0.0
    ap, load = level(0.0)
    prev = (diss_rate(X), forcing_load(0.0), load)

    def observe(t):
        traj.times.append(t)
        traj.bundles.append(float(bundle @ grid.norm_sq(X, w_no)))
        traj.cum_dissipation.append(cum_d)
        traj.cum_forcing.append(cum_f)
        traj.cum_coeff_load.append(cum_a)
        if keep_states:
            traj.states.append(unpack_state(grid, X))

    observe(0.0)
    for istep in range(1, nsteps + 1):
        t0 = (istep - 1) * dt
        t1 = istep * dt
        X = stepper.step(X, explicit_at(t0, ap))
        if not a_constant:  # a constant family keeps its level-0 load
            ap, load = level(t1)
        cur = (diss_rate(X), forcing_load(t1), load)
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
