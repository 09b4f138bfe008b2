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

__all__ = [
    "DiagnosticsRecord", "Collector", "CadenceMismatchError", "bundle_factors",
    "energy_dissipation_probe", "cross_term_probe",
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
        """The values in :data:`CSV_COLUMNS` order: the floats to 17
        significant digits, then the seed and the kind as they are."""
        vals = [getattr(self, name) for name in CSV_COLUMNS]
        return ["%.17g" % v for v in vals[:-2]] + [str(v) for v in vals[-2:]]


# -- functionals of the packed state (Parseval sums) --------------------------

def bundle_factors(dim: int, delta: float) -> np.ndarray:
    """Per-slot factors of the scaled bundle on a packed ``(n, v, z, g)``
    state: 1 on velocity, 1/delta^2 on density and temperature, 1/delta on
    radiation."""
    return np.array([1.0 / delta ** 2] + [1.0] * dim
                    + [1.0 / delta ** 2, 1.0 / delta])


def _energy_factors(dim, bg):
    pr, delta = bg.params, bg.delta
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


def _field_sums(values, dim):
    """Per-field ``(n, v, z, g)`` totals of per-slot values of a packed
    state; the velocity slots are summed."""
    return (values[0], np.sum(values[1:1 + dim]), values[dim + 1],
            values[dim + 2])


# -- per-run collection ------------------------------------------------------

class Collector:
    """Builds one :class:`DiagnosticsRecord` per observation.

    Each observation takes every quantity from the Fourier coefficients of
    the perturbation fields, packed as :func:`rhdlab.steppers.pack_state`
    lays them out (the solver's own state); it transforms nothing.  It
    forms the Parseval density of ``|X|^2``
    (:meth:`rhdlab.fields.SpectralGrid.parseval_density`) once, and takes
    every weighted norm of the state as one product with a stack of
    weights built here: ``H^order``, ``|k|^2 H^order``, ``|k|^2
    H^(order-1)``, ``H^3``, ``sum_{k<order} |k|^(2k)`` (the cross term) and
    ``H^1`` (the limit errors).  The unweighted L2 norms are row sums of
    the same density; ``extras`` records ``l2_density_temperature`` (the
    sum of the density and temperature norms), ``l2_radiation`` and
    ``l2_velocity``, whose sups in time the run summaries report.
    The bundle weighs the squared ``H^order`` norms by ``(1, 1/delta^2,
    1/delta^2, 1/delta)`` on velocity, density, temperature and radiation.
    The energy functional weighs them by ``1``, ``P_rho(bar)/(rho_bar^2
    delta^2)``, ``e_theta(bar)/(theta_bar delta^2)`` and ``sigma_a/(4
    sigma_tilde delta rho_bar theta_bar^4)``, and adds ``beta`` times the
    velocity/density-gradient cross term ``sum_{k<order} <grad^k u,
    grad^{k+1} drho>``; ``beta`` must lie in [0, 1].
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

    def __init__(self, grid: SpectralGrid, bg: Background,
                 order: int = 3, beta: float = 0.05, seed: int = -1,
                 kind: str = "run", reference=None):
        if not 0.0 <= beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {beta}")
        self.grid = grid
        self.bg = bg
        self.beta = beta
        self.seed = seed
        self.kind = kind
        self.reference = reference
        self._observed = 0
        self._cum = np.zeros(3)
        self._prev_time: Optional[float] = None
        self._prev_rates: Optional[np.ndarray] = None

        w, ksq = grid.sobolev_weight(order), grid.ksq
        self._weights = np.stack([
            w, ksq * w, ksq * grid.sobolev_weight(max(order - 1, 0)),
            grid.sobolev_weight(3),
            sum((ksq ** k for k in range(order)), np.zeros(grid.spectral_shape)),
            grid.sobolev_weight(1)]).reshape(6, -1)
        self._bundle = bundle_factors(grid.dim, bg.delta)
        self._energy = _energy_factors(grid.dim, bg)
        self._dissipation = _dissipation_factors(bg.params)

    def _density(self, fhat):
        """Parseval density of ``|fhat|^2``, one row per field."""
        sq = np.abs(fhat)
        sq *= sq
        return self.grid.parseval_density(sq).reshape(-1, self._weights.shape[1])

    def observe(self, X: np.ndarray, time: float) -> DiagnosticsRecord:
        """Record of the packed spectral state ``X`` at ``time``."""
        g, pr, d = self.grid, self.bg.params, self.grid.dim
        delta, w = pr.delta, self._weights

        sq = self._density(X)
        h, grad, grad_lm1, h3 = w[:4] @ sq.T
        _, gu, gth, gG = _field_sums(grad, d)
        rates = self._dissipation[:3] * np.array([gu, gth, gG])
        if self._prev_time is not None:
            dt = time - self._prev_time
            self._cum += 0.5 * dt * (rates + self._prev_rates)
        self._prev_time, self._prev_rates = time, rates

        # u against grad drho, component by component; the cross row's
        # |k|^(2k) terms stand for the k-th derivative levels of both
        pair = np.sum(np.conj(X[1:1 + d]) * (g.ik * X[0]), axis=0).real
        cross = float(w[4] @ g.parseval_density(pair).ravel())
        bundle = float(self._bundle @ h)
        energy = float(self._energy @ h) + self.beta * cross
        exch_sq = float(w[0] @ self._density(
            planck_linear(X[d + 1], X[d + 2], self.bg))[0])
        n3, u3, th3, rad3 = np.sqrt(_field_sums(h3, d))
        smallness = u3 + (n3 + th3) / delta + rad3 / np.sqrt(delta)
        n, v, z, rad = np.sqrt(_field_sums(np.sum(sq, axis=1), d))
        extras = {
            "cross": cross,
            "grad_u_sq": float(gu),
            "grad_drho_sq_lm1": float(grad_lm1[0]),
            "grad_dtheta_sq_lm1": float(grad_lm1[d + 1]),
            "grad_dtheta_sq": float(gth),
            "grad_drad_sq": float(gG),
            "exchange_sq": exch_sq,
            "smallness": float(smallness),
            "l2_density_temperature": float(n + z),
            "l2_radiation": float(rad),
            "l2_velocity": float(v),
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
            diff = np.sum(self._density(X[1:1 + d] - ref.uhats[i]), axis=0)
            rec.ref_error_L2 = float(np.sqrt(np.sum(diff)))
            rec.ref_error_H1 = float(np.sqrt(w[5] @ diff))
        self._observed += 1
        return rec


# -- dissipation-inequality probes -------------------------------------------

def _centered_ratios(times, nums_at, dens_at):
    """Largest positive ratio ``nums_at(i) / dens_at(i)`` over the interior
    records, 0 when no ratio is positive (the inequality holds with slack)
    or there is no interior record; a denominator is floored at 1e-12 times
    the largest one."""
    inner = range(1, len(times) - 1)
    nums = [nums_at(i) for i in inner]
    dens = [dens_at(i) for i in inner]
    if not nums:
        return 0.0
    floor = 1e-12 * max(max(dens), 1e-300)
    return max(0.0, max(n / max(d, floor) for n, d in zip(nums, dens)))


def energy_dissipation_probe(records, params: PhysParams) -> float:
    """Measured constant in the energy-dissipation inequality.

    Checks, at cadence resolution, that d/dt of the energy functional plus
    the weighted dissipation (velocity, temperature, radiation gradients and
    the squared exchange residual) is bounded by
    ``C * smallness * (1/delta^2) * |grad drho|^2_{H^{l-1}}`` and returns
    the largest measured C, 0 when the left side never goes positive (the
    inequality holds with slack).
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


def cross_term_probe(records, bg: Background) -> float:
    """Measured constant in the cross-term inequality.

    d/dt of the velocity/density-gradient cross term plus
    ``P_rho(bar)/(2 rho_bar delta^2) |grad drho|^2_{H^{l-1}}`` against
    ``|grad u|^2_{H^l} + (1/delta^2) |grad dtheta|^2_{H^{l-1}}``; returns
    the largest measured ratio, 0 as in :func:`energy_dissipation_probe`.
    """
    pr = bg.params
    d2 = pr.delta ** 2
    times = [r.time for r in records]

    def num(i):
        dt2 = times[i + 1] - times[i - 1]
        dX = (records[i + 1].extras["cross"] - records[i - 1].extras["cross"]) / dt2
        return dX + (bg.p_rho / (2.0 * pr.rho_bar * d2)
                     * records[i].extras["grad_drho_sq_lm1"])

    def den(i):
        r = records[i]
        return r.extras["grad_u_sq"] + r.extras["grad_dtheta_sq_lm1"] / d2

    return _centered_ratios(times, num, den)
