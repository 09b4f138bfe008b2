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
``(rho-rho_bar)/rho_bar`` and scaled momentum ``rho*u/rho_bar``.

The gas-law and emission coefficients at the background live in one
place, :class:`Background`, and :meth:`Background.of` is the only code that
evaluates the gas law there.  Every solver, right-hand side and diagnostic
reads them from it, and so do the nonlinear remainders: each coefficient
gap in them is a ``Background`` value minus the value at the current
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelError", "ParameterError", "DomainError",
    "PhysParams", "Background", "IdealGasEOS", "CallableEOS", "validate_eos",
    "equilibrium_radiation", "radiation_source",
    "planck_cubic", "planck_split", "planck_linear",
    "thermo_consistency_residual",
    "velocity_form_remainders", "momentum_form_remainders",
    "deformation_contraction",
]

_COMPAT_RTOL = 1e-12


class ModelError(Exception):
    """Base class for model-layer failures."""


class ParameterError(ModelError):
    """Invalid physical parameters."""


class DomainError(ModelError):
    """Evaluation outside the admissible state region."""


def _check_positive(name, value):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PhysParams:
    """Scaling constants and constant background state.

    ``delta`` is the Mach parameter (0 < delta <= 1).  The background must
    be a radiative equilibrium: ``sigma_a * n_bar == sigma_tilde *
    theta_bar**4`` within relative 1e-12; use :meth:`equilibrium` to build a
    compatible set from the temperature.
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
    n_bar: float = 1.0

    def __post_init__(self):
        for name in ("mu", "kappa", "nu", "sigma_a", "sigma_tilde",
                     "rho_bar", "theta_bar", "n_bar"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if 3.0 * self.lam + 2.0 * self.mu < 0.0:
            raise ParameterError("viscosities must satisfy 3*lam + 2*mu >= 0")
        if not (0.0 < self.delta <= 1.0 and self.delta ** 2 > 0.0):
            raise ParameterError(f"delta must lie in (0, 1] and have a "
                                 f"nonzero square, got {self.delta}")
        target = self.sigma_tilde * self.theta_bar ** 4
        if abs(self.sigma_a * self.n_bar - target) > _COMPAT_RTOL * abs(target):
            raise ParameterError(
                "background is not a radiative equilibrium: "
                f"sigma_a*n_bar={self.sigma_a * self.n_bar!r} vs "
                f"sigma_tilde*theta_bar^4={target!r}")

    @classmethod
    def equilibrium(cls, **kwargs) -> "PhysParams":
        """Build parameters with ``n_bar`` derived from the compatibility relation."""
        kwargs.pop("n_bar", None)
        theta_bar = kwargs.get("theta_bar", 1.0)
        sigma_a = kwargs.get("sigma_a", 1.0)
        sigma_tilde = kwargs.get("sigma_tilde", 1.0)
        n_bar = equilibrium_radiation(theta_bar, sigma_a, sigma_tilde)
        return cls(n_bar=n_bar, **kwargs)

    @property
    def mu_bar(self) -> float:
        return self.mu / self.rho_bar

    @property
    def lam_bar(self) -> float:
        return self.lam / self.rho_bar


@dataclass(frozen=True)
class Background:
    """Gas-law and emission coefficients at the background state.

    The state is ``(rho_bar, theta_bar)`` of ``params``.

    These are the constants of the linear part shared by both perturbation
    forms: the acoustic coupling (weighted by ``1/delta^2``), diffusion and
    the linearized matter-radiation exchange.  Build with :meth:`of`.
    """

    params: PhysParams
    p_rho: float        # P_rho at the background
    p_theta: float      # P_theta at the background
    e_theta: float      # e_theta at the background
    recip: float        # 1/(rho_bar*e_theta), the heat-capacity reciprocal
    emission: float     # 4*sigma_tilde*theta_bar^3, slope of the emission term

    @classmethod
    def of(cls, params: PhysParams, eos) -> "Background":
        pb = params.rho_bar, params.theta_bar
        e_theta = float(eos.e_theta(*pb))
        return cls(params, float(eos.p_rho(*pb)), float(eos.p_theta(*pb)),
                   e_theta, 1.0 / (params.rho_bar * e_theta),
                   4.0 * params.sigma_tilde * params.theta_bar ** 3)

    @property
    def delta(self) -> float:
        return self.params.delta


class IdealGasEOS:
    """Ideal polytropic gas: ``P = R*rho*theta``, ``e = c_v*theta``."""

    def __init__(self, R: float = 1.0, c_v: float = 1.0):
        if R <= 0 or c_v <= 0:
            raise ParameterError("R and c_v must be positive")
        self.R = float(R)
        self.c_v = float(c_v)
        self.tag = "ideal-polytropic"

    def p(self, rho, theta):
        return self.R * rho * theta

    def e(self, rho, theta):
        return self.c_v * theta * np.ones_like(np.asarray(rho, dtype=float))

    def p_rho(self, rho, theta):
        return self.R * theta * np.ones_like(np.asarray(rho, dtype=float))

    def p_theta(self, rho, theta):
        return self.R * rho * np.ones_like(np.asarray(theta, dtype=float))

    def e_rho(self, rho, theta):
        return np.zeros_like(np.asarray(rho, dtype=float))

    def e_theta(self, rho, theta):
        return self.c_v * np.ones_like(np.asarray(rho, dtype=float))

    def __repr__(self):
        return f"IdealGasEOS(R={self.R}, c_v={self.c_v})"


class CallableEOS:
    """General gas law from user callables ``p(rho, theta)``, ``e(rho, theta)``.

    Missing partial derivatives fall back to central differences with step
    ``1e-6 * max(1, |x|)``.  Construction validates admissibility
    (``p_rho > 0``, ``e_theta > 0``) and the thermodynamic consistency
    relation on a sample lattice unless ``validate=False``.
    """

    _FD_REL = 1e-6

    def __init__(self, p, e, p_rho=None, p_theta=None, e_rho=None,
                 e_theta=None, tag: str = "user", validate: bool = True):
        self.p = p
        self.e = e
        self.fd_backed = any(fn is None for fn in (p_rho, p_theta, e_rho, e_theta))
        self.p_rho = p_rho if p_rho is not None else self._fd(p, 0)
        self.p_theta = p_theta if p_theta is not None else self._fd(p, 1)
        self.e_rho = e_rho if e_rho is not None else self._fd(e, 0)
        self.e_theta = e_theta if e_theta is not None else self._fd(e, 1)
        self.tag = tag
        if validate:
            validate_eos(self)

    @classmethod
    def _fd(cls, fn, arg):
        def deriv(rho, theta):
            x = rho if arg == 0 else theta
            h = cls._FD_REL * np.maximum(1.0, np.abs(x))
            if arg == 0:
                return (fn(rho + h, theta) - fn(rho - h, theta)) / (2.0 * h)
            return (fn(rho, theta + h) - fn(rho, theta - h)) / (2.0 * h)
        return deriv


def validate_eos(eos, rho_range=(0.5, 2.0), theta_range=(0.5, 2.0),
                 samples: int = 8, rtol=None) -> None:
    """Check admissibility and thermodynamic consistency on a sample lattice.

    Raises :class:`ParameterError` if ``p_rho <= 0`` or ``e_theta <= 0``
    anywhere, or if the consistency residual exceeds ``rtol`` relative to
    the local pressure scale.  The default tolerance is 1e-10; families
    whose partials come from the difference-quotient fallback get 1e-9,
    the noise floor of the central differences themselves.
    """
    if rtol is None:
        rtol = 1e-9 if getattr(eos, "fd_backed", False) else 1e-10
    rho = np.linspace(*rho_range, samples)[:, None]
    theta = np.linspace(*theta_range, samples)[None, :]
    rho, theta = np.broadcast_arrays(rho, theta)
    if np.any(eos.p_rho(rho, theta) <= 0.0):
        raise ParameterError(f"EOS '{eos.tag}': p_rho must be positive")
    if np.any(eos.e_theta(rho, theta) <= 0.0):
        raise ParameterError(f"EOS '{eos.tag}': e_theta must be positive")
    res = thermo_consistency_residual(eos, rho, theta)
    scale = np.maximum(np.abs(eos.p(rho, theta)), 1.0)
    worst = float(np.max(np.abs(res) / scale))
    if worst > rtol:
        raise ParameterError(
            f"EOS '{eos.tag}': thermodynamic consistency residual {worst:.3e} "
            f"exceeds {rtol:.1e}")


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

def equilibrium_radiation(theta_bar, sigma_a, sigma_tilde):
    """Radiation level that balances emission at the background temperature."""
    for name, val in (("theta_bar", theta_bar), ("sigma_a", sigma_a),
                      ("sigma_tilde", sigma_tilde)):
        _check_positive(name, val)
    return sigma_tilde * theta_bar ** 4 / sigma_a


def radiation_source(theta, rad, params: PhysParams):
    """Pointwise emission-minus-absorption source ``sigma_tilde*theta^4 - sigma_a*rad``."""
    _check_positive("theta", theta)
    return params.sigma_tilde * np.asarray(theta) ** 4 - params.sigma_a * np.asarray(rad)


def planck_cubic(dtheta, params: PhysParams):
    """Cubic factor of the quartic emission remainder.

    ``planck_cubic(z) * z`` equals ``sigma_tilde*((theta_bar + z)^4 -
    theta_bar^4) - 4*sigma_tilde*theta_bar^3*z`` for every ``z``.
    """
    z = np.asarray(dtheta)
    st, tb = params.sigma_tilde, params.theta_bar
    return 6.0 * st * tb ** 2 * z + 4.0 * st * tb * z ** 2 + st * z ** 3


def planck_split(dtheta, drad, params: PhysParams):
    """Split the exchange source at a perturbed state into linear + remainder.

    Returns ``(linear, remainder)`` with ``linear = 4*sigma_tilde*
    theta_bar^3*dtheta - sigma_a*drad`` and ``remainder = planck_cubic
    (dtheta)*dtheta``; their sum reproduces ``radiation_source`` exactly
    because the background is a radiative equilibrium.
    """
    z = np.asarray(dtheta)
    return planck_linear(z, drad, params), planck_cubic(z, params) * z


def planck_linear(dtheta, drad, params: PhysParams):
    """Linear part ``4*sigma_tilde*theta_bar^3*dtheta - sigma_a*drad`` of the
    exchange source; being linear, it applies to Fourier coefficients too."""
    return (4.0 * params.sigma_tilde * params.theta_bar ** 3
            * np.asarray(dtheta) - params.sigma_a * np.asarray(drad))


# -- nonlinear remainders of the two perturbation forms ---------------------

def deformation_contraction(jac_u):
    """``D(u):D(u)`` from the velocity Jacobian ``jac[i, j] = d u_i / d x_j``."""
    sym = 0.5 * (jac_u + np.swapaxes(jac_u, 0, 1))
    return np.sum(sym * sym, axis=(0, 1))


def velocity_form_remainders(drho, u, dtheta, drad,
                             grad_drho, jac_u, visc_u, div_u,
                             grad_dtheta, lap_dtheta, bg: Background, eos):
    """Nonlinear remainder terms of the velocity perturbation form.

    Arguments are point values of the perturbations ``(drho, u, dtheta,
    drad)`` and their spatial derivatives (``jac_u[i, j] = d u_i / d x_j``);
    ``visc_u`` is the viscous term ``mu lap(u) + (mu + lam) grad(div u)``.
    Returns ``(r_mass, r_velocity, r_temperature, r_radiation)``; all four
    vanish at the background state with zero derivatives.

    Each coefficient gap is the value in ``bg`` minus the value at the
    state; the gas law is evaluated once, at the state.  The exchange-gap
    term enters ``r_temperature`` with a plus sign: that is the sign
    produced by expanding ``1/(rho*e_theta)`` around the background, and
    the one under which the assembled form reproduces the primitive
    equations exactly.
    """
    params = bg.params
    rho = params.rho_bar + np.asarray(drho)
    theta = params.theta_bar + np.asarray(dtheta)
    _check_positive("rho", rho)
    _check_positive("theta", theta)
    d2 = params.delta ** 2
    p_theta = eos.p_theta(rho, theta)
    e_theta = eos.e_theta(rho, theta)

    r_mass = -drho * div_u - np.sum(u * grad_drho, axis=0)

    h6 = bg.p_rho / params.rho_bar - eos.p_rho(rho, theta) / rho
    h7 = bg.p_theta / params.rho_bar - p_theta / rho
    h8 = 1.0 / params.rho_bar - 1.0 / rho
    r_velocity = (-np.einsum("j...,ij...->i...", u, jac_u)
                  + (h6 / d2) * grad_drho + (h7 / d2) * grad_dtheta
                  - h8 * visc_u)

    recip = 1.0 / (rho * e_theta)
    h9 = bg.recip - recip
    h10 = (params.theta_bar * bg.p_theta / (params.rho_bar * bg.e_theta)
           - theta * p_theta / (rho * e_theta))
    linear_exchange, quartic_rem = planck_split(dtheta, drad, params)
    dd = deformation_contraction(jac_u)
    r_temperature = (-np.sum(u * grad_dtheta, axis=0)
                     - params.kappa * h9 * lap_dtheta
                     + d2 * (2.0 * params.mu * dd + params.lam * div_u ** 2) * recip
                     + h10 * div_u
                     + h9 * linear_exchange
                     - quartic_rem * recip)

    r_radiation = quartic_rem
    return r_mass, r_velocity, r_temperature, r_radiation


def momentum_form_remainders(nrel, mom, dtheta, drad,
                             grad_nrel, hess_nrel, jac_m, div_m,
                             grad_dtheta, lap_dtheta, bg: Background, eos):
    """Nonlinear remainder terms of the momentum perturbation form.

    ``nrel = (rho - rho_bar)/rho_bar`` and ``mom = rho*u/rho_bar``; the
    required derivatives go up to second order in ``nrel`` (its Hessian
    feeds the gradient of ``m . grad(1/(1+nrel))``).  Returns
    ``(r_momentum, r_temperature, r_radiation)``; the continuity equation
    of this form is exact and has no remainder.  As in
    :func:`velocity_form_remainders`, the gaps read ``bg`` and the gas law
    is evaluated once, at the state.

    Derivatives of the composite ``1/(1 + nrel)`` are expanded through the
    chain rule on the supplied derivatives of ``nrel``, so all outputs are
    exact nodal values of the continuum expressions.
    """
    params = bg.params
    nrel = np.asarray(nrel)
    rho = params.rho_bar * (1.0 + nrel)
    _check_positive("rho", rho)
    theta = params.theta_bar + np.asarray(dtheta)
    _check_positive("theta", theta)
    d2 = params.delta ** 2
    mu_b, lam_b = params.mu_bar, params.lam_bar
    p_theta = eos.p_theta(rho, theta)
    e_theta = eos.e_theta(rho, theta)

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
    h2 = bg.p_theta - p_theta
    r_momentum = (-adv + mu_b * visc_shear + (lam_b + mu_b) * visc_bulk
                  + (h1 / d2) * grad_nrel
                  + (h2 / (params.rho_bar * d2)) * grad_dtheta)

    # temperature equation remainder, written with the actual velocity u = f*m
    u = f * mom
    div_u = f * div_m + m_dot_gf
    jac_u = f * jac_m + np.einsum("i...,j...->ij...", mom, grad_f)
    recip = 1.0 / (rho * e_theta)
    h3 = bg.recip - recip
    adiab_bar = params.theta_bar * bg.p_theta / (params.rho_bar * bg.e_theta)
    h4 = adiab_bar - theta * p_theta / (rho * e_theta)
    linear_exchange, quartic_rem = planck_split(dtheta, drad, params)
    dd = deformation_contraction(jac_u)
    r_temperature = (-np.sum(u * grad_dtheta, axis=0)
                     - params.kappa * h3 * lap_dtheta
                     + h3 * linear_exchange
                     + d2 * (2.0 * params.mu * dd + params.lam * div_u ** 2) * recip
                     + h4 * div_u
                     - quartic_rem * recip
                     + adiab_bar * (nrel * f * div_m - m_dot_gf))

    r_radiation = quartic_rem
    return r_momentum, r_temperature, r_radiation
