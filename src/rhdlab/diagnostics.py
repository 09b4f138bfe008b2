"""Scaled norms, energy functionals, dissipation budgets, and limit errors.

Everything the scaling claims quantify lives here: the weighted norm bundle
(velocity, density/temperature over delta, radiation over sqrt(delta)), the
energy functional with its beta-weighted velocity/density-gradient cross
term, cumulative dissipation integrals, the matter-radiation disequilibrium,
and compressible-vs-incompressible velocity errors.  The measured
dissipation-inequality constants are exposed as probes (cadence-resolution
finite differences, not proofs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import SpectralGrid
from .model import Background, DomainError, PhysParams, planck_split

__all__ = [
    "DiagnosticsRecord", "Collector", "CadenceMismatchError",
    "scaled_bundle", "energy_functional", "exchange_residual",
    "velocity_density_cross_term", "grad_sobolev_sq",
    "compare_to_reference", "RefErrorSeries",
    "energy_dissipation_probe", "cross_term_probe", "ProbeResult",
]

CSV_COLUMNS = ["time", "bundle_sup", "energy_E", "diss_u", "diss_theta",
               "diss_G", "exchange_residual", "ref_error_L2", "ref_error_H1",
               "delta", "seed", "kind"]


class CadenceMismatchError(Exception):
    """Two trajectories do not share observation times."""


@dataclass
class DiagnosticsRecord:
    """One cadence point in the frozen CSV schema (plus probe extras)."""
    time: float
    bundle_sup: float
    energy_E: float
    diss_u: float
    diss_theta: float
    diss_G: float
    exchange_residual: float
    ref_error_L2: float = float("nan")
    ref_error_H1: float = float("nan")
    delta: float = float("nan")
    seed: int = -1
    kind: str = "run"
    extras: dict = field(default_factory=dict, repr=False, compare=False)

    def csv_row(self):
        vals = [self.time, self.bundle_sup, self.energy_E, self.diss_u,
                self.diss_theta, self.diss_G, self.exchange_residual,
                self.ref_error_L2, self.ref_error_H1, self.delta]
        return ["%.17g" % v for v in vals] + [str(self.seed), self.kind]


# -- pointwise functionals ---------------------------------------------------

def scaled_bundle(grid: SpectralGrid, u, drho, dtheta, drad, delta: float,
                  order: int = 3) -> float:
    """Sum of squared H^order norms with weights (1, 1/delta^2, 1/delta^2,
    1/delta)."""
    if order < 0:
        raise DomainError("order must be >= 0")
    n = grid.sobolev_norm
    return (n(u, order) ** 2
            + (n(drho, order) ** 2 + n(dtheta, order) ** 2) / delta ** 2
            + n(drad, order) ** 2 / delta)


def grad_sobolev_sq(grid: SpectralGrid, f, order: int) -> float:
    """``sum_i |d_i f|^2`` in H^order.

    The multiplier is ``|k|^2 (1+|k|^2)^order`` with the derivative's
    Nyquist-zeroed ``|k|^2`` and the norm's full one, so the value equals
    the sum of ``grid.sobolev_norm(grid.deriv(f, i), order)**2``.
    """
    chat = grid.coeffs(f)
    w = grid.ksq * (1.0 + grid.ksq_full) ** order
    return float(grid.volume * np.sum(w * np.abs(chat) ** 2))


def velocity_density_cross_term(grid: SpectralGrid, u, drho,
                                order: int) -> float:
    """Spectral realization of ``sum_{k<order} <grad^k u, grad^{k+1} drho>``.

    Each derivative level is represented by the ``|k|^(2k)`` multiplier, the
    pairing contracts every velocity component with the matching gradient
    component of the density perturbation.
    """
    uhat = grid.coeffs(u)
    rhat = grid.coeffs(drho)
    w = np.zeros(grid.shape)
    for k in range(order):
        w += grid.ksq ** k
    pair = np.sum(np.conj(uhat) * (grid.ik * rhat[np.newaxis]), axis=0)
    return float(grid.volume * np.sum(w * pair.real))


def energy_functional(grid: SpectralGrid, u, drho, dtheta, drad, delta: float,
                      beta: float, order: int, params: PhysParams, eos) -> float:
    """Weighted norm sum plus the beta cross term.

    Weights: 1 on velocity, ``P_rho(bar)/(rho_bar^2 delta^2)`` on density,
    ``e_theta(bar)/(theta_bar delta^2)`` on temperature, and
    ``sigma_a/(4 sigma_tilde delta rho_bar theta_bar^4)`` on radiation.
    ``beta`` must lie in [0, 1]; beta = 0 drops the cross term.
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    if order < 0:
        raise DomainError("order must be >= 0")
    bg = Background.of(params, eos)
    w_rho = bg.p_rho / (params.rho_bar ** 2 * delta ** 2)
    w_theta = bg.e_theta / (params.theta_bar * delta ** 2)
    w_rad = params.sigma_a / (4.0 * params.sigma_tilde * delta
                              * params.rho_bar * params.theta_bar ** 4)
    n = grid.sobolev_norm
    return (n(u, order) ** 2
            + beta * velocity_density_cross_term(grid, u, drho, order)
            + w_rho * n(drho, order) ** 2
            + w_theta * n(dtheta, order) ** 2
            + w_rad * n(drad, order) ** 2)


def exchange_residual(grid: SpectralGrid, dtheta, drad, order: int,
                      params: PhysParams) -> float:
    """H^order norm of the linear matter-radiation disequilibrium."""
    linear_exchange, _ = planck_split(dtheta, drad, params)
    return grid.sobolev_norm(linear_exchange, order)


# -- per-run collection ------------------------------------------------------

class Collector:
    """Builds one :class:`DiagnosticsRecord` per observation.

    Dissipation integrals are accumulated with the trapezoid rule at
    cadence resolution, weighted as in the a priori energy inequality:
    ``mu/rho_bar`` on velocity gradients, ``kappa/(rho_bar theta_bar
    delta^2)`` on temperature gradients, ``nu sigma_a/(4 sigma_tilde
    rho_bar theta_bar^4 delta^2)`` on radiation gradients.
    """

    def __init__(self, grid: SpectralGrid, params: PhysParams, eos,
                 order: int = 3, beta: float = 0.05, seed: int = -1,
                 kind: str = "run"):
        self.grid = grid
        self.params = params
        self.eos = eos
        self.order = order
        self.beta = beta
        self.seed = seed
        self.kind = kind
        self._cum = np.zeros(3)
        self._prev_time: Optional[float] = None
        self._prev_rates: Optional[np.ndarray] = None

    def observe(self, pert) -> DiagnosticsRecord:
        g, pr = self.grid, self.params
        el = self.order
        delta = pr.delta
        d2 = delta ** 2
        tb4 = pr.theta_bar ** 4

        gu = grad_sobolev_sq(g, pert.u, el)
        gth = grad_sobolev_sq(g, pert.dtheta, el)
        gG = grad_sobolev_sq(g, pert.drad, el)
        rates = np.array([
            (pr.mu / pr.rho_bar) * gu,
            pr.kappa / (pr.rho_bar * pr.theta_bar * d2) * gth,
            pr.nu * pr.sigma_a / (4.0 * pr.sigma_tilde * pr.rho_bar * tb4 * d2) * gG,
        ])
        if self._prev_time is not None:
            dt = pert.time - self._prev_time
            self._cum += 0.5 * dt * (rates + self._prev_rates)
        self._prev_time, self._prev_rates = pert.time, rates

        bundle = scaled_bundle(g, pert.u, pert.drho, pert.dtheta, pert.drad,
                               delta, el)
        energy = energy_functional(g, pert.u, pert.drho, pert.dtheta,
                                   pert.drad, delta, self.beta, el, pr, self.eos)
        exch = exchange_residual(g, pert.dtheta, pert.drad, el, pr)

        nrm = g.sobolev_norm
        smallness = (nrm(pert.u, 3) + (nrm(pert.drho, 3) + nrm(pert.dtheta, 3)) / delta
                     + nrm(pert.drad, 3) / np.sqrt(delta))
        extras = {
            "cross": velocity_density_cross_term(g, pert.u, pert.drho, el),
            "grad_u_sq": gu,
            "grad_drho_sq_lm1": grad_sobolev_sq(g, pert.drho, max(el - 1, 0)),
            "grad_dtheta_sq_lm1": grad_sobolev_sq(g, pert.dtheta, max(el - 1, 0)),
            "grad_dtheta_sq": gth,
            "grad_drad_sq": gG,
            "exchange_sq": exch ** 2,
            "smallness": smallness,
        }
        rec = DiagnosticsRecord(
            time=pert.time, bundle_sup=bundle, energy_E=energy,
            diss_u=self._cum[0], diss_theta=self._cum[1], diss_G=self._cum[2],
            exchange_residual=exch, delta=delta, seed=self.seed,
            kind=self.kind, extras=extras)
        return rec


# -- limit comparison --------------------------------------------------------

@dataclass
class RefErrorSeries:
    times: list
    err_l2: list
    err_h1: list
    sup_l2: float
    sup_h1: float


def compare_to_reference(comp_traj, ref_traj, grid: SpectralGrid) -> RefErrorSeries:
    """Velocity error of a compressible run against its incompressible
    reference at shared observation times (L2 and H1)."""
    tc, tr = comp_traj.times, ref_traj.times
    if len(tc) != len(tr) or any(abs(a - b) > 1e-9 * max(1.0, abs(a))
                                 for a, b in zip(tc, tr)):
        raise CadenceMismatchError(
            f"observation times differ: {len(tc)} vs {len(tr)} points")
    if not comp_traj.u_snapshots or not ref_traj.u_snapshots:
        raise CadenceMismatchError("velocity snapshots missing from a trajectory")
    err_l2, err_h1 = [], []
    for uc, ur in zip(comp_traj.u_snapshots, ref_traj.u_snapshots):
        diff = uc - ur
        err_l2.append(grid.sobolev_norm(diff, 0))
        err_h1.append(grid.sobolev_norm(diff, 1))
    return RefErrorSeries(list(tc), err_l2, err_h1,
                          max(err_l2), max(err_h1))


# -- dissipation-inequality probes -------------------------------------------

@dataclass
class ProbeResult:
    """Measured inequality constant: ``constant`` is the sup of the
    positive-part ratio (0 when the left side never goes positive, i.e.
    the inequality holds with slack); ``signed_sup`` keeps the sign."""
    constant: float
    signed_sup: float
    times: list
    numerators: list
    denominators: list


def _centered_ratios(times, nums_at, dens_at):
    ts, nums, dens = [], [], []
    for i in range(1, len(times) - 1):
        ts.append(times[i])
        nums.append(nums_at(i))
        dens.append(dens_at(i))
    if not ts:
        return ProbeResult(0.0, 0.0, ts, nums, dens)
    floor = 1e-12 * max(max(dens), 1e-300)
    ratios = [n / max(d, floor) for n, d in zip(nums, dens)]
    return ProbeResult(max(0.0, max(ratios)), max(ratios), ts, nums, dens)


def energy_dissipation_probe(records, params: PhysParams) -> ProbeResult:
    """Measured constant in the energy-dissipation inequality.

    Checks, at cadence resolution, that d/dt of the energy functional plus
    the weighted dissipation (velocity, temperature, radiation gradients and
    the squared exchange residual) is bounded by
    ``C * smallness * (1/delta^2) * |grad drho|^2_{H^{l-1}}`` and returns
    the largest measured C.
    """
    pr = params
    d2 = pr.delta ** 2
    tb4 = pr.theta_bar ** 4
    times = [r.time for r in records]
    smallness = max(r.extras["smallness"] for r in records)

    def num(i):
        dt2 = times[i + 1] - times[i - 1]
        dE = (records[i + 1].energy_E - records[i - 1].energy_E) / dt2
        r = records[i]
        diss = ((pr.mu / pr.rho_bar) * r.extras["grad_u_sq"]
                + pr.kappa / (pr.rho_bar * pr.theta_bar * d2) * r.extras["grad_dtheta_sq"]
                + pr.nu * pr.sigma_a / (4.0 * pr.sigma_tilde * pr.rho_bar * tb4 * d2)
                * r.extras["grad_drad_sq"]
                + r.extras["exchange_sq"] / (4.0 * pr.sigma_tilde * pr.rho_bar * tb4 * d2))
        return dE + diss

    def den(i):
        return smallness * records[i].extras["grad_drho_sq_lm1"] / d2

    return _centered_ratios(times, num, den)


def cross_term_probe(records, params: PhysParams, eos) -> ProbeResult:
    """Measured constant in the cross-term inequality.

    d/dt of the velocity/density-gradient cross term plus
    ``P_rho(bar)/(2 rho_bar delta^2) |grad drho|^2_{H^{l-1}}`` against
    ``|grad u|^2_{H^l} + (1/delta^2) |grad dtheta|^2_{H^{l-1}}``.
    """
    pr = params
    d2 = pr.delta ** 2
    p_rho_b = Background.of(pr, eos).p_rho
    times = [r.time for r in records]

    def num(i):
        dt2 = times[i + 1] - times[i - 1]
        dX = (records[i + 1].extras["cross"] - records[i - 1].extras["cross"]) / dt2
        return dX + (p_rho_b / (2.0 * pr.rho_bar * d2)
                     * records[i].extras["grad_drho_sq_lm1"])

    def den(i):
        r = records[i]
        return r.extras["grad_u_sq"] + r.extras["grad_dtheta_sq_lm1"] / d2

    return _centered_ratios(times, num, den)
