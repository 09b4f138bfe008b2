"""Reproducible well-prepared initial data.

The generator draws Gaussian Fourier coefficients under a squared-exponential
energy envelope centered at ``spectrum_peak``, then scales each component so
the weighted norm bundle

    |momentum or velocity|_HN + (1/delta)|density pert|_HN
        + (1/delta)|temperature pert|_HN + (1/sqrt(delta))|radiation pert|_HN

lands at 0.8 times the requested budget (0.2 per component).  Velocity data
are Leray-projected before scaling, so ``div u0`` vanishes to round-off.

By default the temperature perturbation is slaved to the density one so the
linearized pressure ``P_rho*drho + P_theta*dtheta`` vanishes: on a periodic
box there is no dispersion to carry acoustic energy away, and independently
drawn O(delta) density/temperature data would ring at O(1) velocity
amplitude forever, defeating the point of well-prepared data ("no large
acoustic waves").  Set ``balanced_pressure=False`` to get fully independent
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compressible import CompressibleState
from .fields import SpectralGrid
from .model import Background, PhysParams

__all__ = ["InitSpec", "InitError", "make_well_prepared", "random_band_scalar"]

_MODES = ("local-thm", "global-thm")
_SHARE = 0.2  # weighted-norm budget share per component
_BUNDLE_RTOL = 1e-6  # achieved bundle against its target


class InitError(Exception):
    """Initial data cannot be constructed as requested; ``key`` names the
    :class:`InitSpec` field at fault, where one is."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class InitSpec:
    """Recipe for one well-prepared datum.

    ``mode`` selects which velocity norm is budgeted: ``local-thm`` budgets
    the momentum ``rho0*u0``, ``global-thm`` the velocity ``u0``; the
    generator reports both norms either way.  ``budget`` is the bundle
    bound; zero gives the exact equilibrium state.
    """
    budget: float = 0.5
    delta: float = 0.1
    seed: int = 0
    spectrum_peak: float = 2.0
    mode: str = "global-thm"
    norm_order: int = 3
    slaved_radiation: bool = False
    balanced_pressure: bool = True

    def __post_init__(self):
        if self.budget < 0:
            raise InitError(f"budget must be >= 0, got {self.budget}")
        if not 0.0 < self.delta <= 1.0:
            raise InitError(f"delta must lie in (0, 1], got {self.delta}")
        if self.mode not in _MODES:
            raise InitError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.spectrum_peak <= 0:
            raise InitError("spectrum_peak must be positive")
        if self.norm_order < 0:
            raise InitError("norm_order must be >= 0")


def random_band_scalar(grid: SpectralGrid, rng: np.random.Generator,
                       peak: float) -> np.ndarray:
    """Zero-mean random field with envelope ``exp(-(|k| - peak)^2)``.

    Built by filtering white noise, so Hermitian symmetry (realness) is
    automatic; the spectrum decays super-exponentially away from ``peak``,
    keeping nonlinear products of these fields fully resolved.
    """
    white = rng.standard_normal(grid.shape)
    kmag = np.sqrt(grid.ksq_full) * (grid.extent / (2.0 * np.pi))  # integer mode magnitude
    env = np.exp(-((kmag - peak) ** 2))
    env[(0,) * grid.dim] = 0.0
    return grid.ifft(grid.fft(white) * env)


def _unit_shape(grid, rng, peak, order):
    f = random_band_scalar(grid, rng, peak)
    return f / grid.sobolev_norm(f, order)


def make_well_prepared(spec: InitSpec, grid: SpectralGrid, params: PhysParams,
                       eos):
    """Generate a well-prepared state.

    Returns ``(state, report)``; the report records the achieved weighted
    norms, both bundle variants, ``div u0``, and the positivity margins.
    Raises :class:`InitError` when the budget cannot be met without
    violating ``rho >= rho_bar/2`` or ``theta >= theta_bar/2`` (the
    positivity clamp), when the spectrum peak is not inside the
    dealiased band, when the ``H^norm_order`` weight overflows on the
    grid, or when the achieved bundle misses 0.8 times the budget by more
    than 1e-6 relative (``norm_order`` too high for the grid).
    """
    if abs(spec.delta - params.delta) > 1e-14:
        raise InitError(f"spec.delta={spec.delta} != params.delta={params.delta}")
    if spec.spectrum_peak + 3.0 > grid.n // 3:
        raise InitError(
            f"spectrum_peak={spec.spectrum_peak} too close to the dealias "
            f"cut {grid.n // 3} at n={grid.n}", key="spectrum_peak")
    N = spec.norm_order
    with np.errstate(over="ignore"):
        weight = grid.sobolev_weight(N)
    if not np.all(np.isfinite(weight)):
        raise InitError(f"norm_order={N}: the weight (1 + |k|^2)^{N} "
                        f"overflows on this grid", key="norm_order")
    delta = spec.delta
    rng = np.random.default_rng(spec.seed)
    bg = Background.of(params, eos)

    if spec.budget == 0.0:
        state = CompressibleState(
            np.full(grid.shape, params.rho_bar),
            np.zeros((grid.dim,) + grid.shape),
            np.full(grid.shape, params.theta_bar),
            np.full(grid.shape, params.n_bar))
        return state, _report(grid, state, params, spec)

    share = _SHARE * spec.budget

    # Fixed draw order keeps a given seed comparable across flag settings.
    w_rho = _unit_shape(grid, rng, spec.spectrum_peak, N)
    w_theta = _unit_shape(grid, rng, spec.spectrum_peak, N)
    w_rad = _unit_shape(grid, rng, spec.spectrum_peak, N)
    w_u = np.stack([random_band_scalar(grid, rng, spec.spectrum_peak)
                    for _ in range(grid.dim)])

    balanced = spec.balanced_pressure and abs(bg.p_theta) > 1e-14
    if balanced:
        # Slave dtheta to drho so the linearized pressure vanishes
        # (entropy-mode data); budget the pair jointly.
        ratio = bg.p_rho / bg.p_theta
        amp_rho = 2.0 * share * delta / (1.0 + abs(ratio))
        drho = amp_rho * w_rho
        dtheta = -ratio * drho
    else:
        drho = share * delta * w_rho
        dtheta = share * delta * w_theta

    if spec.slaved_radiation:
        drad = (bg.emission / params.sigma_a) * dtheta
    else:
        drad = share * np.sqrt(delta) * w_rad

    rho0 = params.rho_bar + drho
    theta0 = params.theta_bar + dtheta
    if np.min(rho0) < 0.5 * params.rho_bar:
        raise InitError(
            f"budget {spec.budget} unreachable: density perturbation would "
            f"push min rho to {np.min(rho0):.4g} < rho_bar/2", key="budget")
    if np.min(theta0) < 0.5 * params.theta_bar:
        raise InitError(
            f"budget {spec.budget} unreachable: temperature perturbation "
            f"would push min theta to {np.min(theta0):.4g} < theta_bar/2",
            key="budget")

    u_dir = grid.ifft(grid.leray(grid.fft(w_u)))
    if spec.mode == "local-thm":
        norm = grid.sobolev_norm(rho0 * u_dir, N)
    else:
        norm = grid.sobolev_norm(u_dir, N)
    u0 = (share / norm) * u_dir

    state = CompressibleState(rho0, u0, theta0, params.n_bar + drad)
    report = _report(grid, state, params, spec)
    # At a high order the H^N weight amplifies the round-off of
    # ``rho - rho_bar`` (and of the other perturbations) past the data.
    achieved, target = report["bundle"], 4.0 * share
    if spec.slaved_radiation:  # the radiation norm follows dtheta instead
        achieved -= report["weighted_norms"]["radiation"]
        target -= share
    if not abs(achieved - target) <= _BUNDLE_RTOL * target:
        raise InitError(
            f"norm_order={N}: the achieved bundle {achieved:.6g} misses its "
            f"target {target:.6g} by more than {_BUNDLE_RTOL:g} relative: "
            f"the H^{N} weight is too steep for this grid",
            key="norm_order")
    return state, report


def _report(grid, state, params, spec):
    N = spec.norm_order
    delta = spec.delta
    drho = state.rho - params.rho_bar
    dtheta = state.theta - params.theta_bar
    drad = state.rad - params.n_bar
    comp = {
        "momentum": grid.sobolev_norm(state.rho * state.u, N),
        "velocity": grid.sobolev_norm(state.u, N),
        "density": grid.sobolev_norm(drho, N) / delta,
        "temperature": grid.sobolev_norm(dtheta, N) / delta,
        "radiation": grid.sobolev_norm(drad, N) / np.sqrt(delta),
    }
    lead = comp["momentum"] if spec.mode == "local-thm" else comp["velocity"]
    bundle = lead + comp["density"] + comp["temperature"] + comp["radiation"]
    return {
        "weighted_norms": comp,
        "bundle": bundle,
        "budget": spec.budget,
        "mode": spec.mode,
        "div_u": float(np.max(np.abs(
            grid.ifft(np.sum(grid.ik * grid.fft(state.u), axis=0))))),
        "min_rho": float(np.min(state.rho)),
        "min_theta": float(np.min(state.theta)),
        "seed": spec.seed,
    }
