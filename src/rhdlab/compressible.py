"""Time integration of the scaled compressible radiation-hydrodynamics system.

The solver steps the perturbation form: the deviations
``(rho - rho_bar, u, theta - theta_bar, n - n_bar)`` from the radiative
equilibrium.  A run holds the state in one shape only: the spectral
coefficients on the dealias box (the crop of the forward transform is the
2/3-rule filter).  :meth:`CompressibleSolver.pack` validates a primitive
:class:`CompressibleState` and packs its deviation into them, one field at
a time, and :meth:`CompressibleSolver.run` steps the packed datum, so the
caller can drop the datum's point values before any step.  Each invariant
check rebuilds the primitive state from the coefficients' point values to
validate it, and the run ends with those point values as its final state.

The IMEX split integrates the constant-coefficient acoustic subsystem
(whose pressure gradients carry the 1/delta^2 weight), all diffusion, and
the linear matter-radiation exchange implicitly with a cached per-mode
factorization, so the stable time step does not shrink as delta does;
advection and every nonlinear remainder stay explicit.  The time schemes
come from :data:`rhdlab.steppers.SCHEMES`.  The solver takes its step and
scheme, and its run the horizon, as plain arguments, as the incompressible
reference and the linearized probe do, and each is refused where every
time loop uses it: the scheme and the step by
:class:`rhdlab.steppers.ImexStepper`, the horizon, the cadence and the
step count by :func:`rhdlab.steppers.schedule`.

The perturbation forms and the solver take one
:class:`rhdlab.model.Background`, the model at one parameter set: its
parameters, its gas law and the coefficients at the background.  The
implicit part is the symbol built by :func:`rhdlab.steppers.split_symbol`
from those coefficients: per ``|k|^2`` shell, a diffusion rate for the
transverse velocity and one 4x4 block coupling density, the longitudinal
velocity, temperature and radiation.  :func:`rhs_perturbation` is that
same split symbol applied to the state plus the explicit remainders, so
the identity suite, which checks it against :func:`rhs_primitive`, covers
the operator the solver factors.

Neither the primitive equations nor the momentum perturbation form
(relative density + scaled momentum) is stepped.  :func:`rhs_primitive` is
the reference the perturbation forms are checked against; it takes the
parameters and the gas law alone (``bg.params, bg.eos``), so it never
reads a background coefficient.  :func:`rhs_momentum_form` assembles the
momentum form with the relative-density symbol the linearized probe
factors, so that change-of-variables algebra is verified against the
primitive equations too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import model
from .fields import SpectralGrid
from .model import Background, PhysParams, DomainError
from .steppers import (ImexStepper, pack_state, schedule, split_symbol,
                       unpack_state)

__all__ = [
    "CompressibleState", "Trajectory", "CompressibleSolver", "default_dt",
    "check_dt", "rhs_primitive", "rhs_perturbation", "rhs_momentum_form",
]

# Steps between the invariant checks of a run; the last step is checked too.
CHECK_EVERY = 10


@dataclass
class CompressibleState:
    """Primitive fields; density and temperature must stay positive.
    :meth:`validate` raises :class:`rhdlab.model.DomainError` for a state
    that breaks this or holds a non-finite value."""
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    rad: np.ndarray

    def validate(self, grid: SpectralGrid) -> None:
        for name, f in (("rho", self.rho), ("theta", self.theta), ("rad", self.rad)):
            if f.shape != grid.shape:
                raise DomainError(f"{name} has shape {f.shape}, expected {grid.shape}")
        if self.u.shape != (grid.dim,) + grid.shape:
            raise DomainError("u has wrong shape")
        for name, f in (("rho", self.rho), ("u", self.u),
                        ("theta", self.theta), ("rad", self.rad)):
            if not np.all(np.isfinite(f)):
                raise DomainError(f"{name} contains non-finite values")
        if np.min(self.rho) <= 0.0:
            raise DomainError(f"min rho = {np.min(self.rho)} <= 0")
        if np.min(self.theta) <= 0.0:
            raise DomainError(f"min theta = {np.min(self.theta)} <= 0")


@dataclass
class Trajectory:
    """Result of a run: the observation times, the observer's records,
    the final state, how the run ended, and the count of observations with
    negative radiation.  Every norm of the run is in ``records``; the run
    summaries take their sups in time from there.  ``final_state`` holds
    the point values ``(drho, u, dtheta, drad)`` of the state the run ended
    or aborted at, as :func:`rhdlab.steppers.unpack_state` returns them."""
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    final_state: Optional[tuple] = None
    status: str = "ok"
    abort_reason: Optional[str] = None
    abort_time: Optional[float] = None
    negative_radiation_points: int = 0


def default_dt(grid: SpectralGrid, u0: np.ndarray) -> float:
    """Advective step ``0.25*dx / max(1, |u0|_inf)``.

    The acoustic speed is absent on purpose: the stiff 1/delta^2 pressure
    coupling is integrated implicitly, so only advection restricts dt.
    """
    umax = float(np.max(np.abs(u0))) if u0.size else 0.0
    return 0.25 * grid.dx / max(1.0, umax)


def check_dt(grid: SpectralGrid, dt: float, u: np.ndarray) -> None:
    """Refuse a step ``dt`` above 4 times the advective bound
    :func:`default_dt` at velocity ``u`` with
    :class:`rhdlab.model.DomainError`."""
    bound = default_dt(grid, u)
    if dt > 4.0 * bound:
        raise DomainError(f"dt={dt} exceeds 4x advective bound {bound:.3e}")


# -- right-hand sides -------------------------------------------------------

def _derivative_coefficients(grid, X, a, b):
    """The coefficients of the fields of :func:`_derivatives` that are
    transformed, in that order, as three groups of at most ``d + 3``
    fields: the state, ``(visc, lap z)`` and the derivative along x_0 of
    each of ``(n, v, z)``.  :meth:`rhdlab.fields.SpectralGrid._slabs`
    forms the derivatives along the other axes on the partials of the
    first ``d + 2`` fields, ``(n, v, z)``."""
    g, d, vhat = grid, grid.dim, X[1:1 + grid.dim]
    yield X
    # no local holds a yielded group, or the viscous term, past its yield
    yield np.concatenate([b * g.ik * g.divergence(vhat) - a * g.ksq * vhat,
                          [-g.ksq * X[d + 1]]])
    yield g.ik[0] * X[:d + 2]


def _split(x, d):
    """``(n, v, z, g, grad_n, jac_v, visc_v, div_v, grad_z, lap_z)``: views
    of the point values ``x``, laid out ``[state, visc, lap z, d_0 (n, v,
    z), ..., d_{d-1} (n, v, z)]``, and the trace ``div_v`` of ``jac_v``."""
    grads = x[2 * d + 4:].reshape((d, d + 2) + x.shape[1:]).swapaxes(0, 1)
    jac = grads[1:1 + d]
    return (x[0], x[1:1 + d], x[d + 1], x[d + 2], grads[0], jac,
            x[d + 3:2 * d + 3], np.trace(jac, axis1=0, axis2=1),
            grads[d + 1], x[2 * d + 3])


def _slabs(grid, X, a, b, kernel, block=0):
    """:meth:`rhdlab.fields.SpectralGrid._slabs` of the ``(d + 2)^2``
    derivative fields at packed state ``X``: ``3 d + 6`` of them
    transformed (:func:`_derivative_coefficients`) and the derivatives
    along x_1, ..., x_{d-1} of ``(n, v, z)`` formed on their partials."""
    d = grid.dim
    return grid._slabs(_derivative_coefficients(grid, X, a, b), 3 * d + 6,
                       d + 2, kernel, block)


def _derivatives(grid, X, a, b):
    """Point values of a packed spectral state and of the derivative fields
    every assembly shares.

    Returns ``(n, v, z, g, grad_n, jac_v, visc_v, div_v, grad_z, lap_z)``
    for the slots ``(n, v, z, g)`` of ``X``, with ``jac[i, j] = d v_i /
    d x_j`` and the viscous term ``visc_v = a lap(v) + b grad(div v)``
    formed on the coefficients.  Every field but ``div_v`` is a view into
    one point-value array, ``[state, visc, lap z, d_0 (n, v, z), ...,
    d_{d-1} (n, v, z)]``, written slab by slab from the slabs of an
    explicit evaluation (:func:`_slabs`), so no transform is larger than
    the state.
    """
    d = grid.dim
    x = np.empty(((d + 2) ** 2,) + grid.shape)

    def keep(at, slab, _):
        x[:, at] = slab
    _slabs(grid, X, a, b, keep)
    return _split(x, d)


def _velocity_form_remainders(grid, X, bg: Background):
    """Spectral nonlinear remainders of the velocity form at packed state ``X``.

    The derivative fields of :func:`_derivatives` are formed slab by slab
    (:meth:`rhdlab.fields.SpectralGrid._slabs`, in slabs of the grid's
    size), and each slab's remainders are one call of
    :func:`rhdlab.model.velocity_form_remainders` into its slab of one
    block in the :func:`rhdlab.steppers.pack_state` layout, their radiation
    row given its ``1/delta`` weight, and transformed as far as the last
    pass; the block's forward transform, which dealiases it, ends with
    that pass.  ``rho`` and ``theta`` are checked slab by slab, so a bad
    point raises :class:`rhdlab.model.DomainError` once its slab is
    reached.
    """
    pr, d = bg.params, grid.dim

    def remainders(_, x, block):
        model.velocity_form_remainders(*_split(x, d), bg, out=block)
        block[-1] /= bg.delta
    return _slabs(grid, X, pr.mu, pr.mu + pr.lam, remainders, d + 3)


def _momentum_form_remainders(grid, X, bg: Background):
    """Spectral nonlinear remainders of the momentum form at packed state
    ``X``, as :func:`_velocity_form_remainders`; the continuity row is
    exact and its remainder zero."""
    pr = bg.params
    r_mom, r_temp, r_rad = model.momentum_form_remainders(
        *_derivatives(grid, X, pr.mu_bar, pr.mu_bar + pr.lam_bar),
        grid.jacobian(grid.ik * X[0]), bg)
    return pack_state(grid, np.zeros_like(r_temp), r_mom, r_temp,
                      r_rad / bg.delta)


def rhs_primitive(grid: SpectralGrid, state: CompressibleState,
                  params: PhysParams, eos):
    """Tendencies ``(rho_t, u_t, theta_t, rad_t)`` of the primitive system.

    The pressure gradient is assembled in chain-rule form
    ``P_rho grad(rho) + P_theta grad(theta)``; for resolved fields this is
    the exact nodal gradient of the interpolated pressure, and it is the
    grouping under which the perturbation assemblies match to round-off.
    The products are of the given point values, the derivatives of their
    coefficients on ``grid``'s layout: for fields with modes outside the
    dealias box, pass ``grid.whole()`` and mask the tendencies to compare
    them, as the identity suite does.
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


def rhs_perturbation(grid: SpectralGrid, drho, u, dtheta, drad,
                     bg: Background):
    """Tendencies ``(drho_t, u_t, dtheta_t, drad_t)`` of the velocity
    perturbation form: the symbol the IMEX solver factors, applied to the
    state, plus the nonlinear remainders the solver treats explicitly.

    The state is packed onto ``grid``'s layout first, so on a dealiased
    grid these are the tendencies of its part in the box, dealiased."""
    X = pack_state(grid, drho, u, dtheta, drad)
    F = (split_symbol(grid, bg).apply(X)
         + _velocity_form_remainders(grid, X, bg))
    return unpack_state(grid, F)


def rhs_momentum_form(grid: SpectralGrid, nrel, mom, dtheta, drad,
                      bg: Background):
    """Tendencies ``(nrel_t, mom_t, dtheta_t, drad_t)`` of the momentum
    perturbation form (relative density, scaled momentum).

    Assembled for verification only, as :func:`rhs_perturbation` is: the
    relative-density symbol the linearized probe factors, applied to the
    state, plus the remainders; derivatives of the composite
    ``1/(1 + nrel)`` are chain-expanded so the result equals the mapped
    primitive right-hand side exactly on resolved fields.
    """
    X = pack_state(grid, nrel, mom, dtheta, drad)
    F = (split_symbol(grid, bg, relative_density=True).apply(X)
         + _momentum_form_remainders(grid, X, bg))
    return unpack_state(grid, F)


# -- the IMEX solver ---------------------------------------------------------

class CompressibleSolver:
    """IMEX integrator with delta-uniform stability: the scheme ``scheme``
    of :data:`rhdlab.steppers.SCHEMES` at step ``dt``, both kept as
    attributes.

    Construction factors the implicit operator once, per ``|k|^2`` shell,
    and spreads it onto the box modes; each explicit evaluation then
    transforms 3 groups of at most ``d + 3`` fields back (the state, the
    viscous term with ``lap z``, and the derivative along x_0 of each of
    ``n``, ``v_i`` and ``z``), ``3 d + 6`` fields, forms the derivatives
    of ``n``, ``v`` and ``z`` along the other axes on their partials, and
    transforms one block of remainders forward; each stage's solve is one
    tridiagonal elimination and one transverse scale per mode.

    An evaluation runs slab by slab between the transforms' passes along
    x_0 (:meth:`rhdlab.fields.SpectralGrid._slabs`), and the slab, whose
    size the grid sets, is its one cut: each x_0 pass takes a whole group
    of fields, and the remainders one call per slab.  At its peak it holds
    the x_0 partials of the ``3 d + 6`` transformed fields, which the
    block of remainders takes over row by row, and one slab of the point
    values of the ``(d + 2)^2`` derivative fields, of the ``div v`` trace
    and of the scratch of :func:`rhdlab.model.velocity_form_remainders`:
    0.45 times the derivative point values at 48³ (16 slabs), 0.86 times
    at 32³ and 0.93 times at 16³ (4 slabs) and 1.22 times at 128² (3
    slabs).  A run takes its datum packed (:meth:`pack`), so it need hold
    no point values of it, and drops the point values of its invariant
    checks before each step.
    """

    def __init__(self, grid: SpectralGrid, bg: Background, dt: float,
                 scheme: str = "imex1"):
        self.grid = grid
        self.bg = bg
        self.dt = dt
        self.scheme = scheme
        self._stepper = ImexStepper(scheme, split_symbol(grid, bg), dt)

    def pack(self, state: CompressibleState) -> np.ndarray:
        """Coefficients of the deviation of ``state`` from the background,
        in the :func:`rhdlab.steppers.pack_state` layout: the datum
        :meth:`run` steps.  ``state`` is validated first
        (:class:`rhdlab.model.DomainError`).  Each deviation is formed in one
        field of scratch and transformed into its rows of the result, so
        no stack of point values is built; every value is bit for bit the
        stacked transform of :func:`rhdlab.steppers.pack_state`."""
        state.validate(self.grid)
        g, pr, d = self.grid, self.bg.params, self.grid.dim
        X = np.empty((d + 3,) + g.spectral_shape, complex)
        g._fft_into(state.u, X[1:1 + d])
        dev = np.empty(g.shape)
        for i, f, bar in ((0, state.rho, pr.rho_bar),
                          (d + 1, state.theta, pr.theta_bar),
                          (d + 2, state.rad, pr.n_bar)):
            g._fft_into(np.subtract(f, bar, out=dev), X[i:i + 1])
        return X

    # stepping -------------------------------------------------------------

    def _explicit(self, X: np.ndarray) -> np.ndarray:
        return _velocity_form_remainders(self.grid, X, self.bg)

    def step_spectral(self, X: np.ndarray) -> np.ndarray:
        return self._stepper.step(X, self._explicit)

    def run(self, X: np.ndarray, t_end: float, cadence: int = 10,
            observer: Optional[Callable] = None) -> Trajectory:
        """Advance the coefficients ``X`` of a datum, as :meth:`pack`
        returns them, to ``t_end``, observing it at 0 and wherever
        :func:`rhdlab.steppers.schedule` says (every ``cadence`` steps and
        at the end).  The schedule raises its :class:`ValueError` before
        any work for a negative or NaN ``t_end``, a ``cadence`` below 1 or
        a step count no run can finish.  The invariants are checked on the
        point values of ``X`` on entry, every :data:`CHECK_EVERY` steps
        and after the last step.  The run drops ``X`` once it has stepped
        from it, so a caller that keeps no reference to ``X``, nor to the
        datum it packed, holds neither while the run steps (on Python 3.10
        the caller's frame holds ``X`` until the call returns).

        ``observer(X, t)`` is called at observation points with the packed
        spectral state (:func:`rhdlab.steppers.pack_state` layout) and its
        time, and its return value appended to ``trajectory.records``.  The
        loop itself takes no norm: it records the observation times and
        counts the observations with a negative radiation point value.
        Invariant violations, and any arithmetic of the run that overflows,
        divides by zero or makes a NaN (a non-finite coefficient, say),
        abort the run and are reported in the trajectory rather than
        raised; ``abort_time`` is the time of the state before the one that
        failed.  The run starts at time 0.
        """
        grid, pr = self.grid, self.bg.params
        steps = schedule(t_end, self.dt, cadence)
        traj = Trajectory()
        t = last_valid = 0.0

        def observe(X, t, p):
            """``p`` is the unpacked ``X`` of an invariant check, or None."""
            traj.times.append(t)
            drad = p[3] if p is not None else grid.ifft(X[grid.dim + 2])
            if np.min(pr.n_bar + drad) < 0.0:
                traj.negative_radiation_points += 1
            if observer is not None:
                traj.records.append(observer(X, t))

        def check_invariants(p):
            drho, u, dtheta, drad = p
            CompressibleState(pr.rho_bar + drho, u, pr.theta_bar + dtheta,
                              pr.n_bar + drad).validate(grid)
            check_dt(grid, self.dt, u)

        # point values of X, unpacked only for the invariant checks and
        # before each one, and dropped before each step, so no step holds
        # them.  An aborted run ends on the state that failed: X, at time
        # t, whether its check, its observation or the step from it failed
        # (that one unpacked again at the end, to the same bits); last_valid
        # is the time of the state before it
        p = unpack_state(grid, X)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                check_invariants(p)
                observe(X, t, p)
                for i, (t_next, seen, last) in enumerate(steps, 1):
                    p = None
                    X = self.step_spectral(X)
                    last_valid, t = t, t_next
                    if i % CHECK_EVERY == 0 or last:
                        p = unpack_state(grid, X)
                        check_invariants(p)
                    if seen:
                        observe(X, t, p)
        except (DomainError, FloatingPointError) as exc:
            traj.status, traj.abort_time = "aborted", last_valid
            traj.abort_reason = str(exc)
            if isinstance(exc, FloatingPointError):
                traj.abort_reason = f"non-finite arithmetic: {exc}"
        traj.final_state = p if p is not None else unpack_state(grid, X)
        return traj
