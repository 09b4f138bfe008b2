"""Time integration of the scaled compressible radiation-hydrodynamics system.

Two formulations of the same dynamics are available: ``primitive`` steps
``(rho, u, theta, n)`` directly, ``perturbation`` steps the deviations
``(rho - rho_bar, u, theta - theta_bar, n - n_bar)``.  Both share one IMEX
split: the constant-coefficient acoustic subsystem (whose pressure gradients
carry the 1/delta^2 weight), all diffusion, and the linear matter-radiation
exchange are integrated implicitly with a cached per-mode factorization, so
the stable time step does not shrink as delta does; advection and every
nonlinear remainder stay explicit.

The implicit part is the symbol built by
:func:`rhdlab.steppers.acoustic_exchange_matrix` from the background
coefficients in :class:`rhdlab.model.Background`.  :func:`rhs_perturbation`
is that same symbol applied to the state plus the explicit remainders, so
the identity suite, which checks it against :func:`rhs_primitive`, covers
the operator the solver factors.

The momentum perturbation form (relative density + scaled momentum) is not
stepped - one dynamical formulation is enough - but its full right-hand side
is assembled by :func:`rhs_momentum_form`, with the relative-density symbol
the linearized probe factors, so the change-of-variables algebra can be
verified against the primitive equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import model
from .fields import SpectralGrid
from .model import Background, PhysParams, DomainError
from .steppers import (ARS_GAMMA, ImexOperator, SolverError,
                       acoustic_exchange_matrix, ars222_step, imex_euler_step,
                       pack_state, unpack_state)

__all__ = [
    "SolverConfig", "CompressibleState", "PerturbationState", "Trajectory",
    "StateInvalidError", "CompressibleSolver", "default_dt",
    "rhs_primitive", "rhs_perturbation", "rhs_momentum_form",
]

_FORMULATIONS = ("perturbation", "primitive")
_SCHEMES = ("imex1", "imex2")
_IMEX_SPLIT = "acoustic+diffusion+exchange"


class StateInvalidError(Exception):
    """A state violated positivity or finiteness invariants."""


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    formulation: str = "perturbation"
    scheme: str = "imex1"               # "imex2" enables the 2nd-order pair
    imex_split: str = _IMEX_SPLIT
    cfl_check: bool = True
    positivity_interval: int = 10       # steps between invariant checks

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.formulation not in _FORMULATIONS:
            raise ValueError(f"formulation must be one of {_FORMULATIONS}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.imex_split != _IMEX_SPLIT:
            raise ValueError(f"unsupported imex_split {self.imex_split!r}; "
                             f"only {_IMEX_SPLIT!r} is implemented")


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
    """Result of a run: cadence-resolved diagnostics plus summary scalars."""
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    u_snapshots: list = field(default_factory=list)
    final_state: Optional[PerturbationState] = None
    status: str = "ok"
    abort_reason: Optional[str] = None
    abort_time: Optional[float] = None
    dt: float = 0.0
    delta: float = 0.0
    negative_radiation_points: int = 0
    sup_l2_density_temperature: float = 0.0
    sup_l2_radiation: float = 0.0
    sup_l2_velocity: float = 0.0
    sup_bundle: float = 0.0

    @property
    def completed(self) -> bool:
        return self.status == "ok"


def default_dt(grid: SpectralGrid, u0: np.ndarray) -> float:
    """Advective step ``0.25*dx / max(1, |u0|_inf)``.

    The acoustic speed is absent on purpose: the stiff 1/delta^2 pressure
    coupling is integrated implicitly, so only advection restricts dt.
    """
    umax = float(np.max(np.abs(u0))) if u0.size else 0.0
    return 0.25 * grid.dx / max(1.0, umax)


# -- right-hand sides -------------------------------------------------------

def _derivatives(grid, X):
    """Derivative fields of a packed spectral state, shared by every assembly.

    Returns ``(grad_n, jac_v, lap_v, grad_div_v, div_v, grad_z, lap_z)`` for
    the density-like slot ``n``, the vector slot ``v`` (``jac[i, j] = d v_i
    / d x_j``) and the temperature-like slot ``z``.
    """
    g, d = grid, grid.dim
    grad_n = g.ifft(g.ik * X[0][np.newaxis])
    jac_v = g.ifft(g.ik[np.newaxis, :] * X[1:1 + d][:, np.newaxis])
    div_v = np.trace(jac_v, axis1=0, axis2=1)
    lap_v = g.ifft(-g.ksq * X[1:1 + d])
    dhat = np.sum(g.ik * X[1:1 + d], axis=0)
    grad_div_v = g.ifft(g.ik * dhat[np.newaxis])
    grad_z = g.ifft(g.ik * X[d + 1][np.newaxis])
    lap_z = g.ifft(-g.ksq * X[d + 1])
    return grad_n, jac_v, lap_v, grad_div_v, div_v, grad_z, lap_z


def _velocity_form_remainders(grid, X, params: PhysParams, eos):
    """Spectral nonlinear remainders of the velocity form at packed state ``X``.

    The radiation row carries its ``1/delta`` weight; nothing is dealiased.
    """
    drho, u, dtheta, drad = unpack_state(grid, X)
    grad_drho, jac_u, lap_u, grad_div_u, div_u, grad_dtheta, lap_dtheta = \
        _derivatives(grid, X)
    r_mass, r_vel, r_temp, r_rad = model.velocity_form_remainders(
        drho, u, dtheta, drad, grad_drho, jac_u, lap_u, grad_div_u,
        div_u, grad_dtheta, lap_dtheta, params, eos)
    N = pack_state(grid, r_mass, r_vel, r_temp, r_rad)
    N[grid.dim + 2] /= params.delta
    return N


def _apply_symbol(M, X):
    return np.einsum("ij...,j...->i...", M, X)


def _physical(grid, F, mask):
    return unpack_state(grid, grid.mask_spectral(F) if mask else F)


def rhs_primitive(grid: SpectralGrid, state: CompressibleState,
                  params: PhysParams, eos, mask: bool = True):
    """Tendencies ``(rho_t, u_t, theta_t, rad_t)`` of the primitive system.

    The pressure gradient is assembled in chain-rule form
    ``P_rho grad(rho) + P_theta grad(theta)``; for resolved fields this is
    the exact nodal gradient of the interpolated pressure, and it is the
    grouping under which the perturbation assemblies match to round-off.
    """
    state.validate(grid)
    rho, u, theta, rad = state.rho, state.u, state.theta, state.rad
    d2 = params.delta ** 2

    X = pack_state(grid, rho, u, theta, rad)
    grad_rho, jac_u, lap_u, grad_div_u, div_u, grad_theta, lap_theta = \
        _derivatives(grid, X)
    lap_rad = grid.ifft(-grid.ksq * X[grid.dim + 2])

    rho_t = -(rho * div_u + np.sum(u * grad_rho, axis=0))

    p_rho = eos.p_rho(rho, theta)
    p_theta = eos.p_theta(rho, theta)
    advect = np.einsum("j...,ij...->i...", u, jac_u)
    u_t = (-advect
           - (p_rho * grad_rho + p_theta * grad_theta) / (rho * d2)
           + (params.mu * lap_u + (params.mu + params.lam) * grad_div_u) / rho)

    recip = 1.0 / (rho * eos.e_theta(rho, theta))
    dd = model.deformation_contraction(jac_u)
    source = model.radiation_source(theta, rad, params)
    theta_t = (-np.sum(u * grad_theta, axis=0)
               - theta * p_theta * recip * div_u
               + params.kappa * recip * lap_theta
               + d2 * (2.0 * params.mu * dd + params.lam * div_u ** 2) * recip
               - source * recip)

    rad_t = (params.nu * lap_rad + source) / params.delta

    if mask:
        rho_t, theta_t, rad_t = grid.mask(rho_t), grid.mask(theta_t), grid.mask(rad_t)
        u_t = grid.mask(u_t)
    return rho_t, u_t, theta_t, rad_t


def rhs_perturbation(grid: SpectralGrid, pert: PerturbationState,
                     params: PhysParams, eos, mask: bool = True):
    """Tendencies ``(drho_t, u_t, dtheta_t, drad_t)`` of the velocity
    perturbation form: the symbol the IMEX solver factors, applied to the
    state, plus the nonlinear remainders the solver treats explicitly."""
    X = pack_state(grid, pert.drho, pert.u, pert.dtheta, pert.drad)
    M = acoustic_exchange_matrix(grid, Background.of(params, eos))
    F = _apply_symbol(M, X) + _velocity_form_remainders(grid, X, params, eos)
    return _physical(grid, F, mask)


def rhs_momentum_form(grid: SpectralGrid, nrel, mom, dtheta, drad,
                      params: PhysParams, eos, mask: bool = True):
    """Tendencies ``(nrel_t, mom_t, dtheta_t, drad_t)`` of the momentum
    perturbation form (relative density, scaled momentum).

    Assembled for verification only: the linear part is the
    relative-density symbol the linearized probe factors, and derivatives
    of the composite ``1/(1 + nrel)`` are chain-expanded so the result
    equals the mapped primitive right-hand side exactly on resolved fields.
    """
    pr = params
    d = grid.dim
    X = pack_state(grid, nrel, mom, dtheta, drad)
    grad_nrel, jac_m, lap_m, grad_div_m, div_m, grad_dtheta, lap_dtheta = \
        _derivatives(grid, X)
    hess_nrel = grid.hessian(nrel)

    r_mom, r_temp, r_rad = model.momentum_form_remainders(
        nrel, mom, dtheta, drad, grad_nrel, hess_nrel, jac_m, lap_m,
        grad_div_m, div_m, grad_dtheta, lap_dtheta, pr, eos)

    # Viscosity acts on u = f*m; the symbol carries its constant part on m.
    f = 1.0 / (1.0 + np.asarray(nrel))
    f_minus_1 = -np.asarray(nrel) * f
    grad_f = -(f ** 2) * grad_nrel
    visc_shear = (f_minus_1 * lap_m
                  + np.einsum("ij...,j...->i...", jac_m, grad_f))
    visc_bulk = grad_f * div_m + f_minus_1 * grad_div_m
    r_mom = (r_mom + pr.mu_bar * visc_shear
             + (pr.lam_bar + pr.mu_bar) * visc_bulk)

    M = acoustic_exchange_matrix(grid, Background.of(pr, eos),
                                 relative_density=True)
    F = _apply_symbol(M, X)
    F[1:1 + d] += grid.fft(r_mom)
    F[d + 1] += grid.fft(r_temp)
    F[d + 2] += grid.fft(r_rad) / pr.delta
    return _physical(grid, F, mask)


# -- the IMEX solver ---------------------------------------------------------

class CompressibleSolver:
    """IMEX integrator with delta-uniform stability.

    Construction factors the per-mode implicit operator once; stepping then
    costs a handful of transforms and one batched triangular-free solve.
    """

    def __init__(self, grid: SpectralGrid, params: PhysParams, eos,
                 config: SolverConfig):
        self.grid = grid
        self.params = params
        self.eos = eos
        self.config = config

        M = acoustic_exchange_matrix(grid, Background.of(params, eos))
        coeff = config.dt if config.scheme == "imex1" else ARS_GAMMA * config.dt
        self._op = ImexOperator(M, coeff)
        self._explicit = (self._explicit_perturbation
                          if config.formulation == "perturbation"
                          else self._explicit_primitive)

    # spectral packing --------------------------------------------------

    def pack(self, pert: PerturbationState) -> np.ndarray:
        return self.grid.mask_spectral(
            pack_state(self.grid, pert.drho, pert.u, pert.dtheta, pert.drad))

    def unpack(self, X: np.ndarray, time: float) -> PerturbationState:
        return PerturbationState(*unpack_state(self.grid, X), time)

    # explicit tendencies ------------------------------------------------

    def _explicit_perturbation(self, X: np.ndarray) -> np.ndarray:
        return self.grid.mask_spectral(
            _velocity_form_remainders(self.grid, X, self.params, self.eos))

    def _explicit_primitive(self, X: np.ndarray) -> np.ndarray:
        g, pr = self.grid, self.params
        pert = self.unpack(X, 0.0)
        state = pert.to_primitive(pr)
        state.validate(g)
        F = pack_state(g, *rhs_primitive(g, state, pr, self.eos, mask=False))
        return g.mask_spectral(F - self._op.apply(X))

    # stepping -------------------------------------------------------------

    def step_spectral(self, X: np.ndarray) -> np.ndarray:
        if self.config.scheme == "imex1":
            return imex_euler_step(self._op, X, self.config.dt, self._explicit)
        return ars222_step(self._op, X, self.config.dt, self._explicit)

    def run(self, state0, cadence: int = 10,
            observer: Optional[Callable] = None,
            snapshot_velocity: bool = True) -> Trajectory:
        """Advance to ``t_end``, observing every ``cadence`` steps.

        ``observer(pert_state)`` is called at observation points and its
        return value appended to ``trajectory.records``.  Invariant
        violations abort the run and are reported in the trajectory rather
        than raised.
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

        def observe(Xs, ts):
            p = self.unpack(Xs, ts)
            traj.times.append(ts)
            if snapshot_velocity:
                traj.u_snapshots.append(p.u.copy())
            l2 = grid.sobolev_norm
            drho_l2, dth_l2 = l2(p.drho, 0), l2(p.dtheta, 0)
            traj.sup_l2_density_temperature = max(
                traj.sup_l2_density_temperature, drho_l2 + dth_l2)
            traj.sup_l2_radiation = max(traj.sup_l2_radiation, l2(p.drad, 0))
            traj.sup_l2_velocity = max(traj.sup_l2_velocity, l2(p.u, 0))
            if np.min(self.params.n_bar + p.drad) < 0.0:
                traj.negative_radiation_points += 1
            if observer is not None:
                rec = observer(p)
                traj.records.append(rec)
                traj.sup_bundle = max(traj.sup_bundle,
                                      getattr(rec, "bundle_sup", 0.0))
            return p

        def check_invariants(Xs, ts):
            p = self.unpack(Xs, ts)
            prim = p.to_primitive(self.params)
            prim.validate(grid)
            if cfg.cfl_check:
                bound = default_dt(grid, prim.u)
                if cfg.dt > 4.0 * bound:
                    raise StateInvalidError(
                        f"dt={cfg.dt} exceeds 4x advective bound {bound:.3e}")

        try:
            check_invariants(X, t)
            observe(X, t)
            for istep in range(1, nsteps + 1):
                X = self.step_spectral(X)
                t = pert.time + istep * cfg.dt
                if istep % max(1, cfg.positivity_interval) == 0 or istep == nsteps:
                    check_invariants(X, t)
                last_valid = t
                if istep % max(1, cadence) == 0 or istep == nsteps:
                    observe(X, t)
        except (StateInvalidError, SolverError, DomainError) as exc:
            traj.status = "aborted"
            traj.abort_reason = str(exc)
            traj.abort_time = last_valid
        traj.final_state = self.unpack(X, t)
        return traj
