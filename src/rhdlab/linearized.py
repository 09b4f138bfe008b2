"""Frozen-coefficient linearized system and its uniform-estimate probe.

The linearized dynamics evolve (relative density, scaled momentum,
temperature perturbation, radiation perturbation) with a bounded scalar
coefficient ``A(x, t)`` weighting the viscosity.  The coefficient is the
standing wave ``A = 1 + a sin(x_0) sin(t)`` with ``|a| < 1``; ``a = 0`` is
the constant family ``A = 1``.  The solver treats the stiff linear part at
``A = 1`` implicitly per Fourier mode and the bounded fluctuation ``A - 1``
explicitly, so the admissible step is set by the fluctuation amplitude and
never by the Mach parameter.  The implicit part is the momentum-form symbol
of :func:`rhdlab.steppers.split_symbol` (relative-density slot), the linear
part of :func:`rhdlab.compressible.rhs_momentum_form`: a transverse
diffusion rate and one 4x4 longitudinal block per ``|k|^2`` shell.

:func:`check_estimate` accumulates both sides of the a priori bound (scaled
norms plus dissipation integrals against the initial data, times the
exponential of the coefficient's load) and reports the ratio constant; the
constants are existential, so only their stability across a Mach sweep is
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import bundle_factors
from .fields import SpectralGrid
from .model import Background, DomainError, planck_linear
from .steppers import (ImexStepper, pack_state, schedule, split_symbol,
                       unpack_state)

__all__ = ["LinearizedProblem", "LinearizedTrajectory", "solve_linearized",
           "EstimateReport", "check_estimate"]


@dataclass
class LinearizedProblem:
    """Initial data and horizon of one probe; ``wave`` is the amplitude
    ``a`` of the coefficient ``A = 1 + a sin(x_0) sin(t)``, ``|a| < 1``
    so that ``A`` stays positive."""
    wave: float
    init_nrel: np.ndarray
    init_mom: np.ndarray
    init_dtheta: np.ndarray
    init_drad: np.ndarray
    horizon: float
    norm_order: int = 2

    def __post_init__(self):
        if not abs(self.wave) < 1.0:
            raise DomainError(f"the standing wave needs |wave| < 1 for a "
                              f"positive coefficient, got {self.wave}")


@dataclass
class LinearizedTrajectory:
    times: list = field(default_factory=list)
    bundles: list = field(default_factory=list)
    cum_dissipation: list = field(default_factory=list)
    cum_coeff_load: list = field(default_factory=list)
    states: list = field(default_factory=list)   # (nrel, mom, dtheta, drad)


def solve_linearized(grid: SpectralGrid, problem: LinearizedProblem,
                     bg: Background, dt: float,
                     scheme: str = "imex1", cadence: int = 1,
                     keep_states: bool = False) -> LinearizedTrajectory:
    """Integrate the linearized system and accumulate estimate ingredients.

    The steps and the observed states (at 0, every ``cadence`` steps and at
    the horizon) come from :func:`rhdlab.steppers.schedule`, which raises
    :class:`ValueError` first for a horizon or a step count it refuses;
    :class:`rhdlab.steppers.ImexStepper` raises it next for an unknown
    ``scheme``.  The dissipation and coefficient-load integrals are
    accumulated by the trapezoid rule at every step regardless of
    ``cadence``.  Dissipation weights of ``H^norm_order`` that overflow
    raise :class:`rhdlab.model.DomainError`.
    """
    steps = schedule(problem.horizon, dt, cadence)
    pr, d, no = bg.params, grid.dim, problem.norm_order
    d2 = pr.delta ** 2

    # the coefficient is point values, normed on the whole half spectrum
    whole = grid.whole()
    stepper = ImexStepper(scheme, split_symbol(grid, bg, relative_density=True),
                          dt)
    constant = problem.wave == 0.0
    shape = problem.wave * np.sin(grid.grid_points()[0])

    def level(t):
        """Fluctuation ``A - 1`` and load ``1 + |A|^2_{H^no}`` of the
        coefficient sampled once at time level ``t``: the load closes the
        step ending at ``t`` and the fluctuation drives the next one."""
        A = 1.0 + shape * np.sin(t)
        return A - 1.0, 1.0 + whole.sobolev_norm(A, no) ** 2

    def explicit_at(ap):
        def explicit(X):
            N = np.zeros_like(X)
            if not constant:
                # ap * (mu_bar d_j m_i + (lam+mu)_bar div(m) delta_ij), whose
                # divergence over j is the momentum tendency
                jac = grid.jacobian(X[1:1 + d])
                flux = pr.mu_bar * jac
                flux[range(d), range(d)] += ((pr.mu_bar + pr.lam_bar)
                                             * np.trace(jac, axis1=0, axis2=1))
                N[1:1 + d] += grid.divergence(grid.fft(ap * flux))
            return N
        return explicit

    # Parseval weights per slot of X: the dissipation rate takes gradients
    # of nrel in H^(no-1), of the rest in H^no, and the exchange term in H^no;
    # a finite H^no weight can still overflow once divided by delta^2
    w_no = grid.sobolev_weight(no)
    with np.errstate(over="ignore", invalid="ignore"):
        w_diss = grid.ksq * np.stack([grid.sobolev_weight(max(no - 1, 0)) / d2]
                                     + [w_no] * d + [w_no / d2] * 2)
    if not np.all(np.isfinite(w_diss)):
        raise DomainError(f"the H^{no} dissipation weights overflow")
    bundle = bundle_factors(d, pr.delta)

    def diss_rate(X):
        exch = planck_linear(X[d + 1], X[d + 2], pr)
        return float(np.sum(grid.norm_sq(X, w_diss))
                     + grid.norm_sq(exch, w_no) / d2)

    X = pack_state(grid, problem.init_nrel, problem.init_mom,
                   problem.init_dtheta, problem.init_drad)

    traj = LinearizedTrajectory()
    cum_d = cum_a = 0.0
    ap, load = level(0.0)
    prev = (diss_rate(X), load)

    def observe(t):
        traj.times.append(t)
        traj.bundles.append(float(bundle @ grid.norm_sq(X, w_no)))
        traj.cum_dissipation.append(cum_d)
        traj.cum_coeff_load.append(cum_a)
        if keep_states:
            traj.states.append(unpack_state(grid, X))

    observe(0.0)
    for t1, seen, _ in steps:
        X = stepper.step(X, explicit_at(ap))
        if not constant:  # a constant family keeps its level-0 load
            ap, load = level(t1)
        cur = (diss_rate(X), load)
        cum_d += 0.5 * dt * (prev[0] + cur[0])
        cum_a += 0.5 * dt * (prev[1] + cur[1])
        prev = cur
        if seen:
            observe(t1)
    return traj


@dataclass
class EstimateReport:
    """The fitted leading constant and the sup in time of the left side."""
    constant: float
    lhs_sup: float


def check_estimate(traj: LinearizedTrajectory) -> EstimateReport:
    """Ratio of the accumulated left side to the constant-free right side.

    LHS(t) = bundle(t) + cumulative dissipation; RHS = bundle(0) * [1 +
    exp(L) * L] with the load L the integral of ``1 + |A|^2``.  The
    returned ``constant`` estimates the leading constant; with zero data it
    is defined as 0.  A right side that is not finite raises
    :class:`rhdlab.model.DomainError`.
    """
    lhs = max(b + cd for b, cd in zip(traj.bundles, traj.cum_dissipation))
    bundle0 = traj.bundles[0]
    load = traj.cum_coeff_load[-1]
    if bundle0 == 0.0:  # zero data, also under a load past the range of exp
        return EstimateReport(0.0, lhs)
    with np.errstate(over="ignore"):
        rhs = bundle0 * (1.0 + np.exp(load) * load)
    if not np.isfinite(rhs):
        raise DomainError(f"the right side {bundle0:.6g} * (1 + exp(L) * L) "
                          f"at the load L = {load:.6g} is not finite")
    return EstimateReport(lhs / rhs, lhs)
