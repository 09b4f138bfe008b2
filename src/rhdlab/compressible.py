"""Time integration of the scaled compressible radiation-hydrodynamics system.

The solver steps the perturbation form: the deviations
``(rho - rho_bar, u, theta - theta_bar, n - n_bar)`` from the radiative
equilibrium.  Its IMEX split integrates the constant-coefficient acoustic
subsystem (whose pressure gradients carry the 1/delta^2 weight), all
diffusion, and the linear matter-radiation exchange implicitly with a cached
per-mode factorization, so the stable time step does not shrink as delta
does; advection and every nonlinear remainder stay explicit.  The time
schemes come from :data:`rhdlab.steppers.SCHEMES`.

The implicit part is the symbol built by
:func:`rhdlab.steppers.split_symbol` from the background coefficients in
:class:`rhdlab.model.Background`: per ``|k|^2`` shell, a diffusion rate
for the transverse velocity and one 4x4 block coupling density, the
longitudinal velocity, temperature and radiation.  :func:`rhs_perturbation`
is that same split symbol applied to the state plus the explicit
remainders, so the identity suite, which checks it against
:func:`rhs_primitive`, covers the operator the solver factors.

Neither the primitive equations nor the momentum perturbation form
(relative density + scaled momentum) is stepped.  :func:`rhs_primitive` is
the reference the perturbation forms are checked against, and
:func:`rhs_momentum_form` assembles the momentum form with the
relative-density symbol the linearized probe factors, so that
change-of-variables algebra is verified against the primitive equations too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import model
from .fields import SpectralGrid
from .model import Background, PhysParams, DomainError
from .steppers import (SCHEMES, ImexStepper, SolverError, pack_state,
                       split_symbol, unpack_state)

__all__ = [
    "SolverConfig", "CompressibleState", "PerturbationState", "Trajectory",
    "StateInvalidError", "CompressibleSolver", "default_dt",
    "rhs_primitive", "rhs_perturbation", "rhs_momentum_form",
]

class StateInvalidError(Exception):
    """A state violated positivity or finiteness invariants."""


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "imex1"               # "imex2" enables the 2nd-order pair
    positivity_interval: int = 10       # steps between invariant checks

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}")
        if self.positivity_interval < 1:
            raise ValueError(f"positivity_interval must be >= 1, got "
                             f"{self.positivity_interval}")


@dataclass
class CompressibleState:
    """Primitive fields; density and temperature must stay positive."""
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    rad: np.ndarray
    time: float = 0.0

    def validate(self, grid: SpectralGrid) -> None:
        for name, f in (("rho", self.rho), ("theta", self.theta), ("rad", self.rad)):
            if f.shape != grid.shape:
                raise StateInvalidError(f"{name} has shape {f.shape}, expected {grid.shape}")
        if self.u.shape != (grid.dim,) + grid.shape:
            raise StateInvalidError("u has wrong shape")
        for name, f in (("rho", self.rho), ("u", self.u),
                        ("theta", self.theta), ("rad", self.rad)):
            if not np.all(np.isfinite(f)):
                raise StateInvalidError(f"{name} contains non-finite values")
        if np.min(self.rho) <= 0.0:
            raise StateInvalidError(f"min rho = {np.min(self.rho)} <= 0")
        if np.min(self.theta) <= 0.0:
            raise StateInvalidError(f"min theta = {np.min(self.theta)} <= 0")

    def to_perturbation(self, params: PhysParams) -> "PerturbationState":
        return PerturbationState(self.rho - params.rho_bar, self.u.copy(),
                                 self.theta - params.theta_bar,
                                 self.rad - params.n_bar, self.time)


@dataclass
class PerturbationState:
    """Deviations from the constant background; same layout as the primitive state."""
    drho: np.ndarray
    u: np.ndarray
    dtheta: np.ndarray
    drad: np.ndarray
    time: float = 0.0

    def to_primitive(self, params: PhysParams) -> CompressibleState:
        return CompressibleState(params.rho_bar + self.drho, self.u.copy(),
                                 params.theta_bar + self.dtheta,
                                 params.n_bar + self.drad, self.time)


@dataclass
class Trajectory:
    """Result of a run: the observation times, the observer's records,
    the final state, how the run ended, and the count of observations with
    negative radiation.  Every norm of the run is in ``records``; the run
    summaries take their sups in time from there."""
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    final_state: Optional[PerturbationState] = None
    status: str = "ok"
    abort_reason: Optional[str] = None
    abort_time: Optional[float] = None
    dt: float = 0.0
    delta: float = 0.0
    negative_radiation_points: int = 0


def default_dt(grid: SpectralGrid, u0: np.ndarray) -> float:
    """Advective step ``0.25*dx / max(1, |u0|_inf)``.

    The acoustic speed is absent on purpose: the stiff 1/delta^2 pressure
    coupling is integrated implicitly, so only advection restricts dt.
    """
    umax = float(np.max(np.abs(u0))) if u0.size else 0.0
    return 0.25 * grid.dx / max(1.0, umax)


# -- right-hand sides -------------------------------------------------------

def _derivatives(grid, X, a, b):
    """Point values of a packed spectral state and of the derivative fields
    every assembly shares.

    Returns ``(n, v, z, g, grad_n, jac_v, visc_v, div_v, grad_z, lap_z)``
    for the slots ``(n, v, z, g)`` of ``X``, with ``jac[i, j] = d v_i /
    d x_j`` and the viscous term ``visc_v = a lap(v) + b grad(div v)``
    formed on the coefficients.  Every field but ``div_v`` is a view into
    one point-value array, filled by one inverse transform per group: the
    state itself, ``grad n``, each row of the Jacobian, the viscous term,
    and ``(grad z, lap z)``.  The derivative groups take turns in one
    coefficient buffer of ``d + 1`` fields, so no group is larger than the
    state and no coefficient copy of the whole set is made.
    """
    g, d, s = grid, grid.dim, len(X)
    ik, vhat, zhat = g.ik, X[1:1 + d], X[d + 1]
    x = np.empty((s + d * d + 3 * d + 1,) + g.shape)
    n, v, z, gg, grad_n, jac, visc, grad_z, lap_z = np.split(
        x, np.cumsum([1, d, 1, 1, d, d * d, d, d]))
    jac = jac.reshape((d, d) + g.shape)
    x[:s] = g.ifft(X)
    c = np.empty((d + 1,) + g.spectral_shape, dtype=X.dtype)
    grad_n[:] = g.ifft(np.multiply(ik, X[0], out=c[:d]))
    for i in range(d):
        jac[i] = g.ifft(np.multiply(ik, vhat[i], out=c[:d]))
    # the Jacobian's diagonal summed from 0 in index order, as np.trace
    # sums it, so div v and the viscous term keep their last bit
    div = sum(ik[i] * vhat[i] for i in range(d))
    np.multiply(b * ik, div, out=c[:d])
    c[:d] -= a * g.ksq * vhat
    visc[:] = g.ifft(c[:d])
    np.multiply(ik, zhat, out=c[:d])
    np.multiply(-g.ksq, zhat, out=c[d])
    x[-(d + 1):] = g.ifft(c)
    return (n[0], v, z[0], gg[0], grad_n, jac, visc,
            np.trace(jac, axis1=0, axis2=1), grad_z, lap_z[0])


def _velocity_form_remainders(grid, X, bg: Background, eos):
    """Spectral nonlinear remainders of the velocity form at packed state ``X``.

    The radiation row carries its ``1/delta`` weight; nothing is dealiased.
    """
    pr = bg.params
    r_mass, r_vel, r_temp, r_rad = model.velocity_form_remainders(
        *_derivatives(grid, X, pr.mu, pr.mu + pr.lam), bg, eos)
    return pack_state(grid, r_mass, r_vel, r_temp, r_rad / bg.delta)


def rhs_primitive(grid: SpectralGrid, state: CompressibleState,
                  params: PhysParams, eos):
    """Tendencies ``(rho_t, u_t, theta_t, rad_t)`` of the primitive system.

    The pressure gradient is assembled in chain-rule form
    ``P_rho grad(rho) + P_theta grad(theta)``; for resolved fields this is
    the exact nodal gradient of the interpolated pressure, and it is the
    grouping under which the perturbation assemblies match to round-off.
    Nothing is dealiased: a caller comparing the tendencies masks them.
    """
    state.validate(grid)
    rho, u, theta, rad = state.rho, state.u, state.theta, state.rad
    d2 = params.delta ** 2

    X = pack_state(grid, rho, u, theta, rad)
    grad_rho, jac_u, visc_u, div_u, grad_theta, lap_theta = _derivatives(
        grid, X, params.mu, params.mu + params.lam)[4:]
    lap_rad = grid.ifft(-grid.ksq * X[grid.dim + 2])

    rho_t = -(rho * div_u + np.sum(u * grad_rho, axis=0))

    p_rho = eos.p_rho(rho, theta)
    p_theta = eos.p_theta(rho, theta)
    advect = np.einsum("j...,ij...->i...", u, jac_u)
    u_t = (-advect
           - (p_rho * grad_rho + p_theta * grad_theta) / (rho * d2)
           + visc_u / rho)

    recip = 1.0 / (rho * eos.e_theta(rho, theta))
    dd = model.deformation_contraction(jac_u)
    source = model.radiation_source(theta, rad, params)
    theta_t = (-np.sum(u * grad_theta, axis=0)
               - theta * p_theta * recip * div_u
               + params.kappa * recip * lap_theta
               + d2 * (2.0 * params.mu * dd + params.lam * div_u ** 2) * recip
               - source * recip)

    rad_t = (params.nu * lap_rad + source) / params.delta
    return rho_t, u_t, theta_t, rad_t


def rhs_perturbation(grid: SpectralGrid, pert: PerturbationState,
                     params: PhysParams, eos):
    """Tendencies ``(drho_t, u_t, dtheta_t, drad_t)`` of the velocity
    perturbation form: the symbol the IMEX solver factors, applied to the
    state, plus the nonlinear remainders the solver treats explicitly."""
    X = pack_state(grid, pert.drho, pert.u, pert.dtheta, pert.drad)
    bg = Background.of(params, eos)
    F = (split_symbol(grid, bg).apply(X)
         + _velocity_form_remainders(grid, X, bg, eos))
    return unpack_state(grid, grid.mask_spectral(F))


def rhs_momentum_form(grid: SpectralGrid, nrel, mom, dtheta, drad,
                      params: PhysParams, eos):
    """Tendencies ``(nrel_t, mom_t, dtheta_t, drad_t)`` of the momentum
    perturbation form (relative density, scaled momentum).

    Assembled for verification only: the linear part is the
    relative-density symbol the linearized probe factors, and derivatives
    of the composite ``1/(1 + nrel)`` are chain-expanded so the result
    equals the mapped primitive right-hand side exactly on resolved fields.
    """
    pr = params
    bg = Background.of(pr, eos)
    X = pack_state(grid, nrel, mom, dtheta, drad)
    grad_nrel, jac_m, visc_m, div_m, grad_dtheta, lap_dtheta = _derivatives(
        grid, X, pr.mu_bar, pr.mu_bar + pr.lam_bar)[4:]
    hess_nrel = grid.ifft(grid.ik[:, np.newaxis] * grid.ik[np.newaxis, :]
                          * X[0])

    r_mom, r_temp, r_rad = model.momentum_form_remainders(
        nrel, mom, dtheta, drad, grad_nrel, hess_nrel, jac_m, div_m,
        grad_dtheta, lap_dtheta, bg, eos)

    # Viscosity acts on u = f*m; the symbol carries its constant part on m.
    f = 1.0 / (1.0 + np.asarray(nrel))
    grad_f = -(f ** 2) * grad_nrel
    r_mom = (r_mom - np.asarray(nrel) * f * visc_m
             + pr.mu_bar * np.einsum("ij...,j...->i...", jac_m, grad_f)
             + (pr.lam_bar + pr.mu_bar) * grad_f * div_m)

    F = split_symbol(grid, bg, relative_density=True).apply(X)
    F += pack_state(grid, np.zeros_like(r_temp), r_mom, r_temp,
                    r_rad / pr.delta)
    return unpack_state(grid, grid.mask_spectral(F))


# -- the IMEX solver ---------------------------------------------------------

class CompressibleSolver:
    """IMEX integrator with delta-uniform stability.

    Construction factors the implicit operator once, per ``|k|^2`` shell,
    and spreads it onto the half spectrum; each explicit evaluation then
    costs ``d + 4`` inverse transforms of at most ``d + 3`` fields each
    (see ``_derivatives``) and one forward transform, and each stage one
    transverse scale plus one 4x4 contraction per mode.
    """

    def __init__(self, grid: SpectralGrid, params: PhysParams, eos,
                 config: SolverConfig):
        self.grid = grid
        self.params = params
        self.eos = eos
        self.config = config

        self._bg = Background.of(params, eos)
        self._stepper = ImexStepper(config.scheme, split_symbol(grid, self._bg),
                                    config.dt)

    # spectral packing --------------------------------------------------

    def pack(self, pert: PerturbationState) -> np.ndarray:
        return self.grid.mask_spectral(
            pack_state(self.grid, pert.drho, pert.u, pert.dtheta, pert.drad))

    def unpack(self, X: np.ndarray, time: float) -> PerturbationState:
        return PerturbationState(*unpack_state(self.grid, X), time)

    # stepping -------------------------------------------------------------

    def _explicit(self, X: np.ndarray) -> np.ndarray:
        return self.grid.mask_spectral(
            _velocity_form_remainders(self.grid, X, self._bg, self.eos))

    def step_spectral(self, X: np.ndarray) -> np.ndarray:
        return self._stepper.step(X, self._explicit)

    def run(self, state0, cadence: int = 10,
            observer: Optional[Callable] = None) -> Trajectory:
        """Advance to ``t_end``, observing every ``cadence`` steps.

        ``observer(X, t)`` is called at observation points with the packed
        spectral state (:func:`rhdlab.steppers.pack_state` layout) and its
        time, and its return value appended to ``trajectory.records``.  The
        loop itself takes no norm: it records the observation times and
        counts the observations with a negative radiation point value.
        Invariant violations abort the run and are reported in the
        trajectory rather than raised.
        """
        cfg = self.config
        grid = self.grid
        if isinstance(state0, CompressibleState):
            state0.validate(grid)
            pert = state0.to_perturbation(self.params)
        else:
            pert = state0
        traj = Trajectory(dt=cfg.dt, delta=self.params.delta)
        nsteps = max(0, int(np.ceil((cfg.t_end - pert.time) / cfg.dt - 1e-12)))
        X = self.pack(pert)
        t = pert.time
        last_valid = t

        def observe(X, t, p):
            """``p`` is the unpacked ``X`` of an invariant check, or None."""
            traj.times.append(t)
            drad = p.drad if p is not None else grid.ifft(X[grid.dim + 2])
            if np.min(self.params.n_bar + drad) < 0.0:
                traj.negative_radiation_points += 1
            if observer is not None:
                traj.records.append(observer(X, t))

        def check_invariants(p):
            prim = p.to_primitive(self.params)
            prim.validate(grid)
            bound = default_dt(grid, prim.u)
            if cfg.dt > 4.0 * bound:
                raise StateInvalidError(
                    f"dt={cfg.dt} exceeds 4x advective bound {bound:.3e}")

        # point values of X, unpacked only for the invariant checks
        p = self.unpack(X, t)
        try:
            check_invariants(p)
            observe(X, t, p)
            for istep in range(1, nsteps + 1):
                X = self.step_spectral(X)
                t = pert.time + istep * cfg.dt
                last = istep == nsteps
                check = istep % cfg.positivity_interval == 0 or last
                seen = istep % max(1, cadence) == 0 or last
                p = self.unpack(X, t) if check else None
                if check:
                    check_invariants(p)
                last_valid = t
                if seen:
                    observe(X, t, p)
        except (StateInvalidError, SolverError, DomainError) as exc:
            traj.status = "aborted"
            traj.abort_reason = str(exc)
            traj.abort_time = last_valid
        traj.final_state = p if p is not None else self.unpack(X, t)
        return traj
