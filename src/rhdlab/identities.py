"""Machine-checkable identity suite for the model algebra.

Runs the closed-form checks (emission split, quartic factorization,
thermodynamic consistency, background annihilation) and the two
reformulation equivalences on seeded random smooth fields.  A named fault
can be injected to verify that the suite actually catches broken algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .compressible import (CompressibleState, PerturbationState,
                           rhs_momentum_form, rhs_perturbation, rhs_primitive)
from .fields import SpectralGrid
from .initial import random_band_scalar
from .model import Background, PhysParams

__all__ = ["IdentityResult", "run_identity_suite", "FAULTS"]

FAULTS = ("planck-cubic-coeff", "exchange-gap-sign", "background-coefficient")


@dataclass
class IdentityResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e})"


def _rel(a, b, scale=None):
    scale = np.max(np.abs(a)) if scale is None else scale
    scale = max(float(scale), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / scale)


def _remainder_checks(grid, bg: Background, eos, noise):
    """``background-zero`` and ``remainders-quadratic`` for both remainder
    sets, reading the coefficients in ``bg``; ``noise`` draws the fields."""
    s, v = grid.shape, (grid.dim,) + grid.shape
    j = (grid.dim,) + v
    shapes = ((s, v, s, s, v, j, v, s, v, s)            # velocity form
              + (s, v, s, s, v, j, j, s, v, s))         # momentum form

    def remainders(fields):
        return (model.velocity_form_remainders(*fields[:10], bg, eos)
                + model.momentum_form_remainders(*fields[10:], bg, eos))

    # both vanish at the background with zero derivatives
    zero = IdentityResult("background-zero", max(
        float(np.max(np.abs(r)))
        for r in remainders([np.zeros(sh) for sh in shapes])), 1e-14)

    # ... and are quadratic in the perturbation: with every field and
    # derivative input eps times a random field, doubling eps quadruples
    # them.  A wrong background coefficient leaves a part linear in eps,
    # and R(2 eps) - 4 R(eps) then has the size of R itself.
    fields = [noise.standard_normal(sh) for sh in shapes]
    small, double = (remainders([e * f for f in fields])
                     for e in (1e-6, 2e-6))
    quadratic = IdentityResult("remainders-quadratic", max(
        _rel(4.0 * r1, r2) for r1, r2 in zip(small, double)), 1e-4)
    return [zero, quadratic]


def run_identity_suite(grid: SpectralGrid, params: PhysParams, eos,
                       seed: int = 0, n_fields: int = 5,
                       amplitude: float = 1e-3, n_points: int = 10000,
                       fault: str | None = None):
    """Run every identity; returns a list of :class:`IdentityResult`.

    ``fault`` injects a named defect (see :data:`FAULTS`) into the checked
    expressions so the corresponding identities must fail; used to prove
    the suite is not vacuous.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; known: {FAULTS}")
    rng = np.random.default_rng(seed)
    pr = params
    bg = Background.of(pr, eos)
    results = []

    cubic_factor = 1.0 + (1e-6 if fault == "planck-cubic-coeff" else 0.0)

    def planck_cubic(z):
        st, tb = pr.sigma_tilde, pr.theta_bar
        return (cubic_factor * 6.0 * st * tb ** 2 * z
                + 4.0 * st * tb * z ** 2 + st * z ** 3)

    # emission split against direct quartic evaluation
    z = 0.5 * pr.theta_bar * (2.0 * rng.random(n_points) - 1.0)
    gg = pr.n_bar * (2.0 * rng.random(n_points) - 1.0)
    linear = 4.0 * pr.sigma_tilde * pr.theta_bar ** 3 * z - pr.sigma_a * gg
    split_sum = linear + planck_cubic(z) * z
    direct = (pr.sigma_tilde * (pr.theta_bar + z) ** 4
              - pr.sigma_a * (pr.n_bar + gg))
    results.append(IdentityResult(
        "planck-split", _rel(direct, split_sum,
                             scale=pr.sigma_tilde * pr.theta_bar ** 4), 1e-13))

    # quartic factorization of the emission remainder
    lhs = planck_cubic(z) * z
    rhs = (pr.sigma_tilde * (pr.theta_bar + z) ** 4
           - pr.sigma_tilde * pr.theta_bar ** 4
           - 4.0 * pr.sigma_tilde * pr.theta_bar ** 3 * z)
    results.append(IdentityResult(
        "quartic-factor", _rel(lhs, rhs,
                               scale=pr.sigma_tilde * pr.theta_bar ** 4), 1e-13))

    # thermodynamic consistency of the shipped gas law
    rho = pr.rho_bar * (0.5 + 1.5 * rng.random(n_points))
    th = pr.theta_bar * (0.5 + 1.5 * rng.random(n_points))
    res = model.thermo_consistency_residual(eos, rho, th)
    scale = np.max(np.abs(eos.p(rho, th)))
    results.append(IdentityResult(
        "thermo-relation", float(np.max(np.abs(res)) / scale), 1e-10))

    # the "background-coefficient" fault hands the remainder checks a
    # Background with P_rho off by 1 %
    bg_rem = (replace(bg, p_rho=1.01 * bg.p_rho)
              if fault == "background-coefficient" else bg)
    results.extend(_remainder_checks(grid, bg_rem, eos,
                                     np.random.default_rng([seed, 1])))

    # exchange antisymmetry: on a uniform state the linear exchange cancels
    # between delta * (radiation eq) and rho_bar*e_theta * (temperature eq),
    # leaving a residual quadratic in the perturbation size
    eps = 1e-6
    zero = np.zeros(grid.shape)
    pert = PerturbationState(zero.copy(), np.zeros((grid.dim,) + grid.shape),
                             np.full(grid.shape, 0.7 * eps * pr.theta_bar),
                             np.full(grid.shape, -0.4 * eps * pr.n_bar))
    _, _, zeta_t, g_t = rhs_perturbation(grid, pert, pr, eos)
    balance = pr.delta * g_t + pr.rho_bar * bg.e_theta * zeta_t
    lin_scale = np.max(np.abs(model.planck_linear(pert.dtheta, pert.drad, pr)))
    results.append(IdentityResult(
        "exchange-antisymmetry",
        float(np.max(np.abs(balance)) / lin_scale), 100.0 * eps))

    # reformulation equivalences on random smooth fields
    worst_v, worst_m = 0.0, 0.0
    for _ in range(n_fields):
        f = lambda: amplitude * random_band_scalar(grid, rng, 3.0)
        drho = pr.rho_bar * f()
        dth = pr.theta_bar * f()
        drad = f()
        u = np.stack([f() for _ in range(grid.dim)])
        state = CompressibleState(pr.rho_bar + drho, u, pr.theta_bar + dth,
                                  pr.n_bar + drad)
        rho_t, u_t, th_t, n_t = rhs_primitive(grid, state, pr, eos)
        if fault == "exchange-gap-sign":
            # flip the exchange-gap contribution the same way a wrong-signed
            # assembly would
            h9 = bg.recip - 1.0 / (state.rho * eos.e_theta(state.rho,
                                                           state.theta))
            th_t = th_t - 2.0 * h9 * model.planck_linear(dth, drad, pr)

        per = rhs_perturbation(grid, PerturbationState(drho, u, dth, drad),
                               pr, eos)
        mapped_v = (grid.mask(rho_t), grid.mask(u_t), grid.mask(th_t),
                    grid.mask(n_t))
        for a, b in zip(mapped_v, per):
            worst_v = max(worst_v, _rel(a, b))

        nrel = drho / pr.rho_bar
        mom = state.rho * u / pr.rho_bar
        mres = rhs_momentum_form(grid, nrel, mom, dth, drad, pr, eos)
        mapped_m = (grid.mask(rho_t / pr.rho_bar),
                    grid.mask((rho_t * u + state.rho * u_t) / pr.rho_bar),
                    grid.mask(th_t), grid.mask(n_t))
        for a, b in zip(mapped_m, mres):
            worst_m = max(worst_m, _rel(a, b))
    results.append(IdentityResult("velocity-form-rhs", worst_v, 1e-10))
    results.append(IdentityResult("momentum-form-rhs", worst_m, 1e-10))
    return results
