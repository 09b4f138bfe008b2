"""Closed-form algebra of the scaled radiation-hydrodynamics model.

Everything here is a pure point evaluator: functions act on scalars or
numpy arrays of point values (and, where needed, caller-supplied spatial
derivatives), never on grids.  Field-level application is the caller's
broadcasting over grid points, which keeps the algebra testable on its own.

The model couples compressible Navier-Stokes-Fourier flow to a gray
radiation field ``n`` through the exchange source ``sigma_tilde*theta^4 -
sigma_a*n``; the Mach parameter ``delta`` weights the pressure gradient by
``1/delta^2`` and the radiation equation by ``1/delta``.  Two equivalent
perturbation forms around the constant state ``(rho_bar, 0, theta_bar,
n_bar)`` are provided: the velocity form in ``(rho-rho_bar, u,
theta-theta_bar, n-n_bar)`` and the momentum form in the relative density
``(rho-rho_bar)/rho_bar`` and scaled momentum ``rho*u/rho_bar``.  That
state is a radiative equilibrium, so ``n_bar = sigma_tilde*theta_bar^4/
sigma_a`` is derived from the other parameters, not set.

One :class:`Background` is the model a run works with: it holds the
parameters, the gas law (an :class:`IdealGasEOS` in every run the
configuration describes) and the gas-law and emission coefficients at the
background, and it is built once per parameter set.  :meth:`Background.of`
is the only code that evaluates the gas law there.  Every solver,
right-hand side and diagnostic takes that one object, and so do the
nonlinear remainders: each coefficient gap in them is a ``Background``
value minus the value of ``bg.eos`` at the current state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError", "DomainError",
    "PhysParams", "Background", "IdealGasEOS",
    "radiation_source",
    "planck_cubic", "planck_linear",
    "thermo_consistency_residual",
    "velocity_form_remainders", "momentum_form_remainders",
    "deformation_contraction",
]


class ParameterError(Exception):
    """Invalid physical parameters."""


class DomainError(Exception):
    """Evaluation outside the admissible state region."""


def _check_positive(name, value):
    # a NaN minimum fails the first test, an infinite maximum the second
    arr = np.asarray(value)
    if not (np.min(arr) > 0.0 and np.max(arr) < np.inf):
        raise DomainError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PhysParams:
    """Scaling constants and constant background state.

    ``delta`` is the Mach parameter (0 < delta <= 1).  The background is
    a radiative equilibrium, so its radiation is no parameter of its own:
    :attr:`n_bar` is ``sigma_tilde*theta_bar**4/sigma_a``.  Every constant
    that must be positive must also be finite, and so must the emission
    ``sigma_tilde*theta_bar**4`` and ``n_bar``.
    """

    mu: float = 0.1            # shear viscosity, > 0
    lam: float = 0.0           # second viscosity, 3*lam + 2*mu >= 0
    kappa: float = 0.1         # heat conduction, > 0
    nu: float = 0.1            # radiation diffusion, > 0
    sigma_a: float = 1.0       # absorption, > 0
    sigma_tilde: float = 1.0   # scaled Stefan constant, > 0
    delta: float = 0.1         # Mach parameter, in (0, 1]
    rho_bar: float = 1.0
    theta_bar: float = 1.0

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            target = float(self.sigma_tilde * np.float64(self.theta_bar) ** 4)
        # the emission before n_bar, so an n_bar derived from an overflowing
        # sigma_tilde*theta_bar^4 is blamed on its cause
        values = dict(vars(self), **{"sigma_tilde*theta_bar^4": target})
        for name in ("mu", "kappa", "nu", "sigma_a", "sigma_tilde", "rho_bar",
                     "theta_bar", "sigma_tilde*theta_bar^4"):
            if not 0.0 < values[name] < np.inf:
                raise ParameterError(
                    f"{name} must be finite and > 0, got {values[name]}")
        if not 0.0 < self.n_bar < np.inf:
            raise ParameterError(
                f"sigma_a = {self.sigma_a} leaves the background radiation "
                f"n_bar = sigma_tilde*theta_bar^4/sigma_a = {self.n_bar}, "
                f"not finite and > 0")
        if 3.0 * self.lam + 2.0 * self.mu < 0.0:
            raise ParameterError("viscosities must satisfy 3*lam + 2*mu >= 0")
        if not (0.0 < self.delta <= 1.0 and self.delta ** 2 > 0.0):
            raise ParameterError(f"delta must lie in (0, 1] and have a "
                                 f"nonzero square, got {self.delta}")

    @property
    def n_bar(self) -> float:
        """Background radiation, the level that balances emission at
        ``theta_bar``."""
        return self.sigma_tilde * self.theta_bar ** 4 / self.sigma_a

    @property
    def mu_bar(self) -> float:
        return self.mu / self.rho_bar

    @property
    def lam_bar(self) -> float:
        return self.lam / self.rho_bar


@dataclass(frozen=True)
class Background:
    """The model at one parameter set: the parameters, the gas law, and
    the gas-law and emission coefficients at the background state
    ``(rho_bar, theta_bar)`` of ``params``.

    The coefficients are the constants of the linear part shared by both
    perturbation forms: the acoustic coupling (weighted by ``1/delta^2``),
    diffusion and the linearized matter-radiation exchange.  Build with
    :meth:`of`, once per parameter set, and hand the one object to every
    consumer.
    """

    params: PhysParams
    eos: object         # the gas law, as IdealGasEOS describes it
    p_rho: float        # P_rho at the background
    p_theta: float      # P_theta at the background
    e_theta: float      # e_theta at the background
    recip: float        # 1/(rho_bar*e_theta), the heat-capacity reciprocal
    emission: float     # 4*sigma_tilde*theta_bar^3, slope of the emission term

    @classmethod
    def of(cls, params: PhysParams, eos) -> "Background":
        pb = params.rho_bar, params.theta_bar
        e_theta = float(eos.e_theta(*pb))
        return cls(params, eos, float(eos.p_rho(*pb)), float(eos.p_theta(*pb)),
                   e_theta, 1.0 / (params.rho_bar * e_theta),
                   4.0 * params.sigma_tilde * params.theta_bar ** 3)

    @property
    def delta(self) -> float:
        return self.params.delta


class IdealGasEOS:
    """Ideal polytropic gas: ``P = R*rho*theta``, ``e = c_v*theta``.

    The one gas law the configuration offers.  Any object with ``p`` and
    the analytic partials ``p_rho``, ``p_theta``, ``e_rho``, ``e_theta``,
    each a function of ``(rho, theta)``, serves as a gas law:
    :meth:`Background.of` evaluates it at the background and keeps it as
    ``Background.eos``, where the remainders find it; they, the reference
    right-hand side and the identity suite read nothing else.
    """

    def __init__(self, R: float = 1.0, c_v: float = 1.0):
        if R <= 0 or c_v <= 0:
            raise ParameterError("R and c_v must be positive")
        self.R = float(R)
        self.c_v = float(c_v)

    def p(self, rho, theta):
        return self.R * rho * theta

    def p_rho(self, rho, theta):
        return self.R * theta

    def p_theta(self, rho, theta):
        return self.R * rho

    def e_rho(self, rho, theta):
        return 0.0

    def e_theta(self, rho, theta):
        return self.c_v

    def __repr__(self):
        return f"IdealGasEOS(R={self.R}, c_v={self.c_v})"


def thermo_consistency_residual(eos, rho, theta):
    """Residual of the thermodynamic relation ``-rho^2 e_rho = theta*P_theta - P``.

    Zero (to round-off) for every admissible gas; the reformulated
    temperature equation relies on it.
    """
    _check_positive("rho", rho)
    _check_positive("theta", theta)
    return (-np.asarray(rho) ** 2 * eos.e_rho(rho, theta)
            - (theta * eos.p_theta(rho, theta) - eos.p(rho, theta)))


# -- radiation source and its decomposition --------------------------------

def radiation_source(theta, rad, params: PhysParams):
    """Pointwise emission-minus-absorption source ``sigma_tilde*theta^4 - sigma_a*rad``."""
    _check_positive("theta", theta)
    return params.sigma_tilde * np.asarray(theta) ** 4 - params.sigma_a * np.asarray(rad)


def planck_cubic(dtheta, params: PhysParams, out=None):
    """Cubic factor of the quartic emission remainder.

    ``planck_cubic(z) * z`` equals ``sigma_tilde*((theta_bar + z)^4 -
    theta_bar^4) - 4*sigma_tilde*theta_bar^3*z`` for every ``z``.
    Evaluated in Horner form, ``z*(6 st tb^2 + z*(4 st tb + st*z))``: no
    ``pow`` call, five passes over ``z``.  With ``out`` (an array of the
    shape of ``dtheta`` that does not overlap it) the passes run in
    ``out`` and it is returned: the same operations in the same order, so
    the result is bit-identical to a fresh one.
    """
    z = np.asarray(dtheta)
    st, tb = params.sigma_tilde, params.theta_bar
    c = np.multiply(st, z, out=out)
    c += 4.0 * st * tb
    c *= z
    c += 6.0 * st * tb ** 2
    c *= z
    return c


def planck_linear(dtheta, drad, bg: Background):
    """Linear part ``bg.emission*dtheta - sigma_a*drad`` of the exchange
    source, the slope ``bg.emission = 4*sigma_tilde*theta_bar^3`` read from
    the background; being linear, it applies to Fourier coefficients too.
    Its sum with ``planck_cubic(dtheta)*dtheta`` reproduces
    :func:`radiation_source` because the background is a radiative
    equilibrium."""
    return (bg.emission * np.asarray(dtheta)
            - bg.params.sigma_a * np.asarray(drad))


# -- nonlinear remainders of the two perturbation forms ---------------------

def deformation_contraction(jac_u, out=None, tmp=None):
    """``D(u):D(u)`` from the velocity Jacobian ``jac[i, j] = d u_i / d x_j``.

    Summed over the distinct index pairs, ``sum_i J_ii^2 + 1/2 sum_{i<j}
    (J_ij + J_ji)^2``, without forming the symmetric part.  ``out`` and the
    scratch ``tmp``, fields of the shape of ``jac_u[0, 0]`` that do not
    overlap it, are fresh when not given; the result is ``out``.
    """
    shape = np.shape(jac_u[0, 0])
    out = np.empty(shape) if out is None else out
    tmp = np.empty(shape) if tmp is None else tmp
    d = len(jac_u)
    np.square(jac_u[0, 0], out=out)
    for i in range(1, d):
        out += np.square(jac_u[i, i], out=tmp)
    for i in range(d):
        for j in range(i + 1, d):
            np.add(jac_u[i, j], jac_u[j, i], out=tmp)
            np.square(tmp, out=tmp)
            tmp *= 0.5
            out += tmp
    return out


def _dot(a, b, out, tmp):
    """``out = sum_i a[i]*b[i]``, accumulated one component at a time."""
    np.multiply(a[0], b[0], out=out)
    for ai, bi in zip(a[1:], b[1:]):
        out += np.multiply(ai, bi, out=tmp)
    return out


def velocity_form_remainders(drho, u, dtheta, drad,
                             grad_drho, jac_u, visc_u, div_u,
                             grad_dtheta, lap_dtheta, bg: Background,
                             out=None):
    """Nonlinear remainder terms of the velocity perturbation form.

    Arguments are point values of the perturbations ``(drho, u, dtheta,
    drad)`` and their spatial derivatives (``jac_u[i, j] = d u_i / d x_j``);
    ``visc_u`` is the viscous term ``mu lap(u) + (mu + lam) grad(div u)``.
    Scalar fields share the shape of ``drho``; vector fields add a leading
    axis of length d.  Returns ``(r_mass, r_velocity, r_temperature,
    r_radiation)``; all four vanish at the background state with zero
    derivatives.  They are the rows of one ``(d + 3, *shape)`` block in the
    :func:`rhdlab.steppers.pack_state` layout: ``out`` when given (it must
    not overlap the arguments), else a fresh one, and the four results are
    views of its rows.

    Each coefficient gap is the value in ``bg`` minus the value at the
    state; the gas law ``bg.eos`` is evaluated at the state.  The
    exchange-gap term enters ``r_temperature`` with a plus sign: that is
    the sign produced by expanding ``1/(rho*e_theta)`` around the
    background, and the one under which the assembled form reproduces the
    primitive equations exactly.

    ``rho`` and ``theta`` are formed and checked first, so a bad point
    raises :class:`DomainError` before any other arithmetic can overflow.
    Every term is pointwise, written with in-place ufuncs into the block
    and into scratch fields of the arguments' shape, and the gas law is
    evaluated once, on ``rho`` and ``theta`` as they are: remainders of
    some rows of the arguments are those rows of the remainders of all of
    them, bit for bit, so a caller may evaluate a field slab by slab.  The
    gaps ``P_rho/rho`` and ``P_theta/rho`` divide by ``rho`` as written: a
    reciprocal multiply would change their rounding, which the
    ``1/delta^2`` weight amplifies.
    """
    params, eos = bg.params, bg.eos
    shape, d = np.shape(drho), len(u)
    rho = np.add(drho, params.rho_bar, out=np.empty(shape))
    theta = np.add(dtheta, params.theta_bar, out=np.empty(shape))
    _check_positive("rho", rho)
    _check_positive("theta", theta)
    out = np.empty((d + 3,) + shape) if out is None else out
    r_mass, r_velocity = out[0, ...], out[1:1 + d]
    r_temperature = out[d + 1, ...]
    d2 = params.delta ** 2
    p_theta = eos.p_theta(rho, theta)
    e_theta = eos.e_theta(rho, theta)
    tmp = np.empty(shape)

    _dot(u, grad_drho, r_mass, tmp)
    r_mass += np.multiply(drho, div_u, out=tmp)
    np.negative(r_mass, out=r_mass)

    h6 = np.divide(eos.p_rho(rho, theta), rho, out=np.empty(shape))
    np.subtract(bg.p_rho / params.rho_bar, h6, out=h6)
    h6 /= d2
    h7 = np.divide(p_theta, rho, out=np.empty(shape))
    np.subtract(bg.p_theta / params.rho_bar, h7, out=h7)
    h7 /= d2
    h8 = np.divide(1.0, rho, out=np.empty(shape))
    np.subtract(1.0 / params.rho_bar, h8, out=h8)
    for i in range(d):
        r = r_velocity[i, ...]
        np.negative(_dot(u, jac_u[i], r, tmp), out=r)
        r += np.multiply(h6, grad_drho[i], out=tmp)
        r += np.multiply(h7, grad_dtheta[i], out=tmp)
        r -= np.multiply(h8, visc_u[i], out=tmp)

    re, recip, h9, h10 = tmp, h8, h6, h7
    np.multiply(rho, e_theta, out=re)
    np.divide(1.0, re, out=recip)
    np.subtract(bg.recip, recip, out=h9)
    np.multiply(theta, p_theta, out=h10)
    h10 /= re
    np.subtract(params.theta_bar * bg.p_theta / (params.rho_bar * bg.e_theta),
                h10, out=h10)
    # a gas law may hand back rho or theta itself, so these two become
    # scratch only after the last read of p_theta and e_theta
    linear_exchange, dissipation = rho, theta
    quartic_rem = planck_cubic(dtheta, params, out=out[d + 2, ...])
    quartic_rem *= dtheta
    np.negative(_dot(u, grad_dtheta, r_temperature, tmp), out=r_temperature)
    np.multiply(params.kappa, h9, out=tmp)
    r_temperature -= np.multiply(tmp, lap_dtheta, out=tmp)
    deformation_contraction(jac_u, dissipation, tmp)
    dissipation *= 2.0 * params.mu
    dissipation += np.multiply(params.lam, np.square(div_u, out=tmp), out=tmp)
    dissipation *= d2
    r_temperature += np.multiply(dissipation, recip, out=dissipation)
    r_temperature += np.multiply(h10, div_u, out=tmp)
    np.multiply(bg.emission, dtheta, out=linear_exchange)
    linear_exchange -= np.multiply(params.sigma_a, drad, out=tmp)
    r_temperature += np.multiply(h9, linear_exchange, out=tmp)
    r_temperature -= np.multiply(quartic_rem, recip, out=tmp)
    return r_mass, r_velocity, r_temperature, quartic_rem


def momentum_form_remainders(nrel, mom, dtheta, drad,
                             grad_nrel, jac_m, visc_m, div_m,
                             grad_dtheta, lap_dtheta, hess_nrel,
                             bg: Background):
    """Nonlinear remainder terms of the momentum perturbation form.

    ``nrel = (rho - rho_bar)/rho_bar`` and ``mom = rho*u/rho_bar``; the
    arguments follow :func:`velocity_form_remainders`, with ``visc_m =
    mu_bar lap(m) + (mu_bar + lam_bar) grad(div m)`` the viscous term the
    symbol applies to ``m`` and the Hessian of ``nrel`` last (it feeds the
    gradient of ``m . grad(1/(1+nrel))``).  Viscosity acts on ``u = f m``
    with ``f = 1/(1 + nrel)``, so ``r_momentum`` holds everything of it
    but ``visc_m``.  Returns
    ``(r_momentum, r_temperature, r_radiation)``; the continuity equation
    of this form is exact and has no remainder.  As in
    :func:`velocity_form_remainders`, the gaps read ``bg``.

    The temperature and radiation equations are those of the velocity
    form: their remainders are the ones :func:`velocity_form_remainders`
    gives at the actual velocity ``u = f m`` and ``drho = rho_bar nrel``,
    plus the change-of-variables term ``adiab_bar (nrel f div m - m .
    grad f)``, the linear adiabatic term of the velocity form's symbol on
    ``div u`` less that of this form's on ``div m``.  The gas law is
    evaluated at the state twice for ``P_rho`` and ``P_theta``, here and
    there, and once for ``e_theta``, there.

    Derivatives of the composite ``1/(1 + nrel)`` are expanded through the
    chain rule on the supplied derivatives of ``nrel``, so all outputs are
    exact nodal values of the continuum expressions.
    """
    params, eos = bg.params, bg.eos
    nrel = np.asarray(nrel)
    rho = params.rho_bar * (1.0 + nrel)
    _check_positive("rho", rho)
    theta = params.theta_bar + np.asarray(dtheta)
    _check_positive("theta", theta)
    d2 = params.delta ** 2
    mu_b, lam_b = params.mu_bar, params.lam_bar

    f = 1.0 / (1.0 + nrel)
    grad_f = -(f ** 2) * grad_nrel
    hess_f = (-(f ** 2) * hess_nrel
              + 2.0 * f ** 3 * np.einsum("i...,j...->ij...", grad_nrel, grad_nrel))
    lap_f = np.trace(hess_f, axis1=0, axis2=1)

    # momentum equation remainder
    m_dot_gf = np.sum(mom * grad_f, axis=0)
    adv = (np.einsum("ij...,j...->i...", jac_m, mom) * f
           + mom * (div_m * f + m_dot_gf))
    visc_shear = np.einsum("ij...,j...->i...", jac_m, grad_f) + mom * lap_f
    visc_bulk = (np.einsum("ji...,j...->i...", jac_m, grad_f)
                 + np.einsum("j...,ji...->i...", mom, hess_f))
    h1 = bg.p_rho - eos.p_rho(rho, theta)
    h2 = bg.p_theta - eos.p_theta(rho, theta)
    r_momentum = (-adv + mu_b * visc_shear + (lam_b + mu_b) * visc_bulk
                  + (h1 / d2) * grad_nrel
                  + (h2 / (params.rho_bar * d2)) * grad_dtheta
                  - nrel * f * visc_m
                  + mu_b * np.einsum("ij...,j...->i...", jac_m, grad_f)
                  + (lam_b + mu_b) * grad_f * div_m)

    # the velocity form's rows at u = f*m; its mass and velocity rows,
    # which read the viscous term, are dropped
    u = f * mom
    _, _, r_temperature, r_radiation = velocity_form_remainders(
        params.rho_bar * nrel, u, dtheta, drad, params.rho_bar * grad_nrel,
        f * jac_m + np.einsum("i...,j...->ij...", mom, grad_f),
        np.zeros_like(u), f * div_m + m_dot_gf, grad_dtheta, lap_dtheta, bg)
    adiab_bar = params.theta_bar * bg.p_theta / (params.rho_bar * bg.e_theta)
    r_temperature += adiab_bar * (nrel * f * div_m - m_dot_gf)
    return r_momentum, r_temperature, r_radiation
