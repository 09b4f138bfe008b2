"""Scaled norms, energy functionals, dissipation budgets, and limit errors.

Everything the scaling claims quantify lives here: the weighted norm bundle
(velocity, density/temperature over delta, radiation over sqrt(delta)), the
energy functional with its beta-weighted velocity/density-gradient cross
term, cumulative dissipation integrals, the matter-radiation disequilibrium,
and the velocity errors against an incompressible reference.  The measured
dissipation-inequality constants are exposed as probes (cadence-resolution
finite differences, not proofs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import SpectralGrid
from .model import Background, DomainError, PhysParams, planck_linear
from .steppers import field_sums

__all__ = [
    "DiagnosticsRecord", "Collector", "CadenceMismatchError", "bundle_factors",
    "energy_dissipation_probe", "cross_term_probe", "ProbeResult",
]

CSV_COLUMNS = ["time", "bundle_sup", "energy_E", "diss_u", "diss_theta",
               "diss_G", "exchange_residual", "ref_error_L2", "ref_error_H1",
               "delta", "seed", "kind"]


class CadenceMismatchError(Exception):
    """A run and its reference do not share observation times."""


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


# -- functionals of the packed state (Parseval sums) --------------------------

def bundle_factors(dim: int, delta: float) -> np.ndarray:
    """Per-slot factors of the scaled bundle on a packed ``(n, v, z, g)``
    state: 1 on velocity, 1/delta^2 on density and temperature, 1/delta on
    radiation."""
    return np.array([1.0 / delta ** 2] + [1.0] * dim
                    + [1.0 / delta ** 2, 1.0 / delta])


def _energy_factors(dim, params, eos, delta):
    pr, bg = params, Background.of(params, eos)
    return np.array([bg.p_rho / (pr.rho_bar ** 2 * delta ** 2)] + [1.0] * dim
                    + [bg.e_theta / (pr.theta_bar * delta ** 2),
                       pr.sigma_a / (4.0 * pr.sigma_tilde * delta * pr.rho_bar
                                     * pr.theta_bar ** 4)])


def _dissipation_factors(pr):
    """Weights of the velocity, temperature and radiation gradient norms and
    of the squared exchange residual in the a priori dissipation."""
    heat = 4.0 * pr.sigma_tilde * pr.rho_bar * pr.theta_bar ** 4 * pr.delta ** 2
    return np.array([pr.mu / pr.rho_bar,
                     pr.kappa / (pr.rho_bar * pr.theta_bar * pr.delta ** 2),
                     pr.nu * pr.sigma_a / heat, 1.0 / heat])


def _cross_weight(grid, order):
    return sum((grid.ksq ** k for k in range(order)), np.zeros(grid.shape))


def _cross(grid, rhat, uhat, weight):
    """Spectral realization of ``sum_{k<order} <grad^k u, grad^{k+1} drho>``
    from the coefficients ``uhat``, ``rhat`` and :func:`_cross_weight`.

    Each derivative level is represented by the ``|k|^(2k)`` multiplier, the
    pairing contracts every velocity component with the matching gradient
    component of the density perturbation.
    """
    pair = np.sum(np.conj(uhat) * (grid.ik * rhat), axis=0).real
    return float(grid.volume / float(grid.n ** grid.dim) ** 2
                 * np.sum(weight * pair))


# -- per-run collection ------------------------------------------------------

class Collector:
    """Builds one :class:`DiagnosticsRecord` per observation.

    Each observation takes every quantity from the Fourier coefficients of
    the perturbation fields, packed as :func:`rhdlab.steppers.pack_state`
    lays them out (the solver's own state), with weights built here; it
    transforms nothing.
    The bundle weighs the squared ``H^order`` norms by ``(1, 1/delta^2,
    1/delta^2, 1/delta)`` on velocity, density, temperature and radiation.
    The energy functional weighs them by ``1``, ``P_rho(bar)/(rho_bar^2
    delta^2)``, ``e_theta(bar)/(theta_bar delta^2)`` and ``sigma_a/(4
    sigma_tilde delta rho_bar theta_bar^4)``, and adds ``beta`` times the
    velocity/density-gradient cross term; ``beta`` must lie in [0, 1].
    Dissipation integrals are accumulated with the trapezoid rule at
    cadence resolution, weighted as in the a priori energy inequality:
    ``mu/rho_bar`` on velocity gradients, ``kappa/(rho_bar theta_bar
    delta^2)`` on temperature gradients, ``nu sigma_a/(4 sigma_tilde
    rho_bar theta_bar^4 delta^2)`` on radiation gradients.

    With a ``reference`` (an
    :class:`rhdlab.incompressible.IncompressibleTrajectory` observed at the
    same times), observation ``i`` also records the L2 and H1 norms of the
    velocity coefficients minus ``reference.uhats[i]``; a time that differs
    from ``reference.times[i]`` raises :class:`CadenceMismatchError`.
    """

    def __init__(self, grid: SpectralGrid, params: PhysParams, eos,
                 order: int = 3, beta: float = 0.05, seed: int = -1,
                 kind: str = "run", reference=None):
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {beta}")
        self.grid = grid
        self.params = params
        self.beta = beta
        self.seed = seed
        self.kind = kind
        self.reference = reference
        self._observed = 0
        self._cum = np.zeros(3)
        self._prev_time: Optional[float] = None
        self._prev_rates: Optional[np.ndarray] = None

        self._w = grid.sobolev_weight(order)
        self._w1 = grid.sobolev_weight(1)
        self._w3 = grid.sobolev_weight(3)
        self._w_grad = grid.ksq * self._w
        self._w_grad_lm1 = grid.ksq * grid.sobolev_weight(max(order - 1, 0))
        self._w_cross = _cross_weight(grid, order)
        self._bundle = bundle_factors(grid.dim, params.delta)
        self._energy = _energy_factors(grid.dim, params, eos, params.delta)
        self._dissipation = _dissipation_factors(params)

    def observe(self, X: np.ndarray, time: float) -> DiagnosticsRecord:
        """Record of the packed spectral state ``X`` at ``time``."""
        g, pr, d = self.grid, self.params, self.grid.dim
        delta = pr.delta

        _, gu, gth, gG = field_sums(g.norm_sq(X, self._w_grad), d)
        rates = self._dissipation[:3] * np.array([gu, gth, gG])
        if self._prev_time is not None:
            dt = time - self._prev_time
            self._cum += 0.5 * dt * (rates + self._prev_rates)
        self._prev_time, self._prev_rates = time, rates

        sq = g.norm_sq(X, self._w)
        cross = _cross(g, X[0], X[1:1 + d], self._w_cross)
        bundle = float(self._bundle @ sq)
        energy = float(self._energy @ sq) + self.beta * cross
        exch_sq = float(g.norm_sq(planck_linear(X[d + 1], X[d + 2], pr),
                                  self._w))
        grad_lm1 = g.norm_sq(X, self._w_grad_lm1)
        n3, u3, th3, rad3 = np.sqrt(field_sums(g.norm_sq(X, self._w3), d))
        smallness = u3 + (n3 + th3) / delta + rad3 / np.sqrt(delta)
        extras = {
            "cross": cross,
            "grad_u_sq": float(gu),
            "grad_drho_sq_lm1": float(grad_lm1[0]),
            "grad_dtheta_sq_lm1": float(grad_lm1[d + 1]),
            "grad_dtheta_sq": float(gth),
            "grad_drad_sq": float(gG),
            "exchange_sq": exch_sq,
            "smallness": float(smallness),
        }
        rec = DiagnosticsRecord(
            time=time, bundle_sup=bundle, energy_E=energy,
            diss_u=self._cum[0], diss_theta=self._cum[1], diss_G=self._cum[2],
            exchange_residual=float(np.sqrt(exch_sq)), delta=delta,
            seed=self.seed, kind=self.kind, extras=extras)
        if self.reference is not None:
            i, ref = self._observed, self.reference
            if i >= len(ref.times) or abs(ref.times[i] - time) > 1e-9 * max(
                    1.0, abs(time)):
                raise CadenceMismatchError(
                    f"observation {i} at t={time} has no reference point")
            diff = X[1:1 + d] - ref.uhats[i]
            rec.ref_error_L2 = float(np.sqrt(np.sum(g.norm_sq(diff))))
            rec.ref_error_H1 = float(np.sqrt(np.sum(g.norm_sq(diff, self._w1))))
        self._observed += 1
        return rec


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
    d2 = params.delta ** 2
    factors = _dissipation_factors(params)
    times = [r.time for r in records]
    smallness = max(r.extras["smallness"] for r in records)

    def num(i):
        dt2 = times[i + 1] - times[i - 1]
        dE = (records[i + 1].energy_E - records[i - 1].energy_E) / dt2
        x = records[i].extras
        return dE + float(factors @ [x["grad_u_sq"], x["grad_dtheta_sq"],
                                     x["grad_drad_sq"], x["exchange_sq"]])

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
