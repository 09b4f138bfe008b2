"""Reproducible well-prepared initial data.

The generator draws Gaussian Fourier coefficients under a squared-exponential
energy envelope centered at ``spectrum_peak``, then scales each component so
the weighted norm bundle

    |momentum or velocity|_HN + (1/delta)|density pert|_HN
        + (1/delta)|temperature pert|_HN + (1/sqrt(delta))|radiation pert|_HN

lands at 0.8 times the requested budget (0.2 per component).  Velocity data
are Leray-projected before scaling, so ``div u0`` vanishes to round-off.

The datum is built on its coefficients, over the whole half spectrum
(:meth:`rhdlab.fields.SpectralGrid.whole`): each drawn white noise is
transformed forward once and filtered by the envelope, its unit norm is a
Parseval sum of those coefficients, the velocity is projected there, and
each state field takes one inverse transform.  The envelope and the
``H^N`` weight are built once per datum.  The report takes its norms of
the state's point values, as the budget check needs them.

By default the temperature perturbation is slaved to the density one so the
linearized pressure ``P_rho*drho + P_theta*dtheta`` vanishes: on a periodic
box there is no dispersion to carry acoustic energy away, and independently
drawn O(delta) density/temperature data would ring at O(1) velocity
amplitude forever, defeating the point of well-prepared data ("no large
acoustic waves").  Set ``balanced_pressure=False`` to get fully independent
fields.  Every field is drawn either way, in a fixed order, so a seed gives
the same shapes under every flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .compressible import CompressibleState
from .fields import SpectralGrid
from .model import Background, ParameterError

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
    seed: int = 0
    spectrum_peak: float = 2.0
    mode: str = "global-thm"
    norm_order: int = 3
    slaved_radiation: bool = False
    balanced_pressure: bool = True

    def __post_init__(self):
        if self.budget < 0:
            raise InitError(f"budget must be >= 0, got {self.budget}")
        if self.mode not in _MODES:
            raise InitError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.spectrum_peak <= 0:
            raise InitError("spectrum_peak must be positive")
        if self.norm_order < 0:
            raise InitError("norm_order must be >= 0")


def _envelope(grid, peak):
    """``exp(-(|k| - peak)^2)`` in integer mode magnitudes on the layout of
    ``grid``, zero at ``k = 0``."""
    kmag = np.sqrt(grid.ksq_full) * (grid.extent / (2.0 * np.pi))
    env = np.exp(-((kmag - peak) ** 2))
    env[(0,) * grid.dim] = 0.0
    return env


def _band(grid, rng, env):
    """Coefficients of one drawn white noise, transformed once and filtered
    by ``env``."""
    c = grid.fft(rng.standard_normal(grid.shape))
    c *= env
    return c


def random_band_scalar(grid: SpectralGrid, rng: np.random.Generator,
                       peak: float) -> np.ndarray:
    """Zero-mean random field with envelope ``exp(-(|k| - peak)^2)``.

    Built by filtering white noise over the whole half spectrum
    (:meth:`rhdlab.fields.SpectralGrid.whole`), so Hermitian symmetry
    (realness) is automatic; the spectrum decays super-exponentially away
    from ``peak``, keeping nonlinear products of these fields fully
    resolved.  On a dealiased grid each call builds the whole grid; a
    caller that draws several fields passes ``grid.whole()``.
    """
    grid = grid.whole()
    return grid.ifft(_band(grid, rng, _envelope(grid, peak)))


def _norm(grid, fhats, w):
    """The ``H^N`` norm, weight ``w``, of the fields whose coefficients
    ``fhats`` yields: the root of the sum of their Parseval sums, taken one
    field at a time."""
    return float(np.sqrt(sum(np.sum(grid.norm_sq(f, w)) for f in fhats)))


def make_well_prepared(spec: InitSpec, grid: SpectralGrid, bg: Background):
    """Generate a well-prepared state around the background of ``bg``.

    Returns ``(state, report)``; the report records the achieved weighted
    norms, both bundle variants, ``div u0``, and the positivity margins.
    Raises :class:`InitError` when the budget cannot be met without
    violating ``rho >= rho_bar/2`` or ``theta >= theta_bar/2`` (the
    positivity clamp), when it is so small that the squares of its shares
    are below the normal float range, when the spectrum peak is not inside
    the dealiased band, or when a component's achieved norm misses its
    share of 0.8 times the budget by more than 1e-6 relative
    (``norm_order`` too high for the grid; the caller checks that its
    weight is finite).
    Raises :class:`rhdlab.model.ParameterError` instead when the missed
    component's perturbation is below the round-off of its background.
    """
    # the data are point values: every filter and norm here is over the
    # whole half spectrum
    grid, params = grid.whole(), bg.params
    if spec.spectrum_peak + 3.0 > grid.n // 3:
        raise InitError(
            f"spectrum_peak={spec.spectrum_peak} too close to the dealias "
            f"cut {grid.n // 3} at n={grid.n}", key="spectrum_peak")
    N = spec.norm_order
    w = grid.sobolev_weight(N)

    if spec.budget == 0.0:
        state = CompressibleState(
            np.full(grid.shape, params.rho_bar),
            np.zeros((grid.dim,) + grid.shape),
            np.full(grid.shape, params.theta_bar),
            np.full(grid.shape, params.n_bar))
        return state, _report(grid, state, bg, spec, w)

    share = _SHARE * spec.budget
    if share * share < np.finfo(float).tiny:
        raise InitError(f"budget {spec.budget} is too small: the squares of "
                        f"its norms underflow", key="budget")
    env = _envelope(grid, spec.spectrum_peak)
    rng = default_rng(spec.seed)
    (drho, dtheta, drad), norms = _deviations(spec, grid, bg, w, env, rng)
    # the norm each component is scaled to; a slaved radiation follows
    # dtheta and has none of its own
    lead = "momentum" if spec.mode == "local-thm" else "velocity"
    shares = {lead: share, **norms}
    rho0 = params.rho_bar + drho
    theta0 = params.theta_bar + dtheta
    rad0 = params.n_bar + drad
    # the deviations go before the velocity is drawn; a missed share draws
    # them again from the seed
    del drho, dtheta, drad
    for name, field, f0, bar in (("density", "rho", rho0, params.rho_bar),
                                 ("temperature", "theta", theta0,
                                  params.theta_bar)):
        if np.min(f0) < 0.5 * bar:
            raise InitError(
                f"budget {spec.budget} unreachable: {name} perturbation "
                f"would push min {field} to {np.min(f0):.4g} < {field}_bar/2",
                key="budget")

    u_hat = np.empty((grid.dim,) + grid.spectral_shape, complex)
    for i in range(grid.dim):
        u_hat[i] = _band(grid, rng, env)
    del env
    u_hat = grid.leray(u_hat)
    # the norms of rho*u may square past float range, but only where rho_bar
    # is so large that drho drowns in it, and that datum is refused below
    with np.errstate(over="ignore"):
        if lead == "velocity":
            u_hat *= share / _norm(grid, u_hat, w)
        u0 = grid.ifft(u_hat)
        del u_hat
        if lead == "momentum":
            u0 *= share / _norm(grid, (grid.fft(rho0 * u) for u in u0), w)
        state = CompressibleState(rho0, u0, theta0, rad0)
        report = _report(grid, state, bg, spec, w)
    got = report["weighted_norms"]
    missed = [name for name, want in shares.items()
              if not abs(got[name] - want) <= _BUNDLE_RTOL * want]
    if not missed:
        return state, report
    # the H^N weight shrinks a rough shape until the round-off of its
    # background swamps it; blame the background only if the perturbation
    # drowns there even at the L2 size its H^N norm stands for.  The
    # deviations are drawn again: state - bar is not them to the bit
    (drho, dtheta, drad), _ = _deviations(
        spec, grid, bg, w, _envelope(grid, spec.spectrum_peak),
        default_rng(spec.seed))
    fields = {"density": (drho, params.rho_bar, "params.rho_bar"),
              "radiation": (drad, params.n_bar, "the background radiation "
                            "sigma_tilde*theta_bar^4/sigma_a"),
              "temperature": (dtheta, params.theta_bar, "params.theta_bar")}
    lost = [f"the {name} perturbation is below the round-off of {label} = "
            f"{bar:.6g}" for name, (pert, bar, label) in fields.items()
            if name in missed and _drowned(grid, pert, bar, N)]
    if lost:
        raise ParameterError("; ".join(lost))
    misses = ", ".join(f"{name} {got[name]:.6g} for {shares[name]:.6g}"
                       for name in missed)
    raise InitError(f"norm_order={N}: achieved norms miss their shares by "
                    f"more than {_BUNDLE_RTOL:g} relative ({misses}): the "
                    f"H^{N} weight is too steep for the grid", key="norm_order")


def _deviations(spec, grid, bg, w, env, rng):
    """``((drho, dtheta, drad), norms)``: the point values of the
    deviations, the first draws of the fresh generator ``rng`` of
    ``spec.seed``, under the envelope ``env`` and scaled with the ``H^N``
    weight ``w``, and the density, temperature and radiation norms they
    are scaled to (a slaved radiation has none).

    Fixed draw order (density, temperature, radiation) keeps a given seed
    comparable across flag settings: a shape the flags do not use is drawn
    all the same."""
    params, delta = bg.params, bg.delta
    share = _SHARE * spec.budget
    norms = {}

    def scaled(amp):
        """Point values of the next drawn shape at the ``H^N`` norm
        ``amp``."""
        c = _band(grid, rng, env)
        c *= amp / _norm(grid, [c], w)
        return grid.ifft(c)

    if spec.balanced_pressure and abs(bg.p_theta) > 1e-14:
        # Slave dtheta to drho so the linearized pressure vanishes
        # (entropy-mode data); budget the pair jointly.
        ratio = bg.p_rho / bg.p_theta
        amp_rho = 2.0 * share * delta / (1.0 + abs(ratio))
        drho = scaled(amp_rho)
        rng.standard_normal(grid.shape)
        dtheta = -ratio * drho
        norms["density"] = amp_rho / delta
        norms["temperature"] = abs(ratio) * amp_rho / delta
    else:
        drho = scaled(share * delta)
        dtheta = scaled(share * delta)
        norms["density"] = norms["temperature"] = share

    if spec.slaved_radiation:
        rng.standard_normal(grid.shape)
        drad = (bg.emission / params.sigma_a) * dtheta
    else:
        drad = scaled(share * np.sqrt(delta))
        norms["radiation"] = share
    return (drho, dtheta, drad), norms


def _drowned(grid, pert, bar, N):
    """Whether adding ``pert``, rescaled to the L2 norm that equals its
    ``H^N`` norm, to the constant ``bar`` loses more than ``_BUNDLE_RTOL``
    of it to round-off; not if the squares of its L2 norm underflow, since
    then no rescaling can tell."""
    l2 = grid.sobolev_norm(pert, 0)
    if l2 == 0.0:
        return False
    big = pert * (grid.sobolev_norm(pert, N) / l2)
    return (np.max(np.abs(bar + big - bar - big))
            > _BUNDLE_RTOL * np.max(np.abs(big)))


def _report(grid, state, bg, spec, w):
    """The achieved norms of the point values of ``state``, on the whole
    grid ``grid`` with the ``H^N`` weight ``w``, and its margins; the
    velocity norm and ``div u`` share one transform of ``u``."""
    params, delta = bg.params, bg.delta

    def norm(f):
        return _norm(grid, [grid.fft(f)], w)

    u_hat = grid.fft(state.u)
    div_hat = grid.divergence(u_hat)
    velocity = _norm(grid, u_hat, w)
    del u_hat
    div_u = float(np.max(np.abs(grid.ifft(div_hat))))
    comp = {
        "momentum": _norm(grid, (grid.fft(state.rho * u) for u in state.u),
                          w),
        "velocity": velocity,
        "density": norm(state.rho - params.rho_bar) / delta,
        "temperature": norm(state.theta - params.theta_bar) / delta,
        "radiation": norm(state.rad - params.n_bar) / np.sqrt(delta),
    }
    lead = comp["momentum"] if spec.mode == "local-thm" else comp["velocity"]
    bundle = lead + comp["density"] + comp["temperature"] + comp["radiation"]
    return {
        "weighted_norms": comp,
        "bundle": bundle,
        "budget": spec.budget,
        "mode": spec.mode,
        "div_u": div_u,
        "min_rho": float(np.min(state.rho)),
        "min_theta": float(np.min(state.theta)),
        "seed": spec.seed,
    }
