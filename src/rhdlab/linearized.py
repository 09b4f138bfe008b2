"""Frozen-coefficient linearized system and its uniform-estimate probe.

The linearized dynamics evolve (relative density, scaled momentum,
temperature perturbation, radiation perturbation) with a bounded scalar
coefficient ``A(x, t)`` weighting the viscosity.  The coefficient is the
standing wave ``A = 1 + a sin(x_0) sin(t)`` with ``|a| < 1``; ``a = 0`` is
the constant family ``A = 1``.  The solver treats the stiff linear part at
``A = 1`` implicitly per Fourier mode and the bounded fluctuation ``A - 1``
explicitly, so the admissible step is set by the fluctuation amplitude and
never by the Mach parameter.  The implicit part is the momentum-form symbol
of :func:`rhdlab.steppers.split_symbol` (relative-density slot), the linear
part of :func:`rhdlab.compressible.rhs_momentum_form`: a transverse
diffusion rate and one 4x4 longitudinal block per ``|k|^2`` shell.

A step makes no transform.  The fluctuation ``A - 1`` is a profile of
``x_0`` alone, and the DFT of a sampled product is the circular convolution
of the two DFTs, so the fluctuation times the viscous flux, taken on point
values and transformed back to the dealias box, is one small matrix along
the box rows of ``x_0`` applied to the flux's coefficients: the same term,
aliasing included, at every extent, dealiased or not.  The coefficient's
load ``1 + |A|^2_{H^no}`` is the quadratic ``1 + q0 + 2 s q1 + s^2 q2`` in
``s = sin(t)``, its three Parseval sums taken once from one length-``n``
DFT of the profile along ``x_0``.  The dissipation rate and the observed
bundle come from one Parseval density of the state and its exchange term
per step.  One solve steps each amplitude of a problem in turn from one
packed datum on one factored operator.

:func:`check_estimate` accumulates both sides of the a priori bound (scaled
norms plus dissipation integrals against the initial data, times the
exponential of the coefficient's load) and reports the ratio constant; the
constants are existential, so only their stability across a Mach sweep is
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .diagnostics import bundle_factors
from .fields import SpectralGrid
from .model import Background, DomainError, PhysParams, planck_linear
from .steppers import (ImexStepper, SolverError, pack_state, schedule,
                       split_symbol, unpack_state)

__all__ = ["LinearizedProblem", "LinearizedTrajectory", "solve_linearized",
           "EstimateReport", "check_estimate"]


@dataclass
class LinearizedProblem:
    """Initial data and horizon of one probe; ``waves`` are the amplitudes
    ``a`` of the coefficients ``A = 1 + a sin(x_0) sin(t)`` it is solved
    for, each ``|a| < 1`` so that ``A`` stays positive."""
    waves: tuple
    init_nrel: np.ndarray
    init_mom: np.ndarray
    init_dtheta: np.ndarray
    init_drad: np.ndarray
    horizon: float
    norm_order: int = 2

    def __post_init__(self):
        for wave in self.waves:
            if not abs(wave) < 1.0:
                raise DomainError(f"the standing wave needs |wave| < 1 for "
                                  f"a positive coefficient, got {wave}")


@dataclass
class LinearizedTrajectory:
    times: list = field(default_factory=list)
    bundles: list = field(default_factory=list)
    cum_dissipation: list = field(default_factory=list)
    cum_coeff_load: list = field(default_factory=list)
    states: list = field(default_factory=list)   # (nrel, mom, dtheta, drad)


def _standing_wave(grid: SpectralGrid, wave: float, norm_order: int):
    """The coefficient ``A = 1 + wave sin(x_0) sin(t)`` on ``grid`` in
    spectral form, from one length-``n`` DFT along ``x_0``: ``(K, load)``
    with ``K`` the convolution of the fluctuation along the box rows of
    ``x_0`` (:func:`_fluctuation`) and ``load(s)`` the load ``1 +
    |A|^2_{H^norm_order}`` at ``s = sin(t)``.

    ``A - 1 = s * shape`` with ``shape = wave sin(x_0)`` a profile of
    ``x_0`` alone: on the whole half spectrum its coefficients vanish off
    the line ``k_1 = ... = 0``, where they are ``n**(dim - 1)`` times its
    DFT ``S`` along ``x_0``, so no whole grid is transformed.  The DFT of a
    sampled product is the circular convolution of the two DFTs, so the
    product with ``shape``, taken on point values and transformed back to
    the box, is the ``(rows, rows)`` matrix ``K[r, r'] = S((k_0(r) -
    k_0(r')) mod n) / n`` along the box rows of ``x_0``: exact, aliasing
    included, for every extent.  The load is ``1 + q0 + 2 s q1 + s^2 q2``,
    with ``q0``, ``q1`` and ``q2`` the Parseval sums of ``|1|^2``, ``1 *
    shape`` and ``|shape|^2``, the last two on that line.  At ``wave = 0``
    the fluctuation vanishes and so do ``q1`` and ``q2``: the load is ``1 +
    q0`` to the bit, and nothing spectral is built.
    """
    # the mean 1 is the coefficient n**d at k = 0, where the weight is 1
    q0 = grid.volume
    if wave == 0.0:
        return None, lambda s: 1.0 + q0
    n, rows = grid.n, grid.lead_modes
    S = np.fft.fft(wave * np.sin(np.arange(n) * grid.dx)) / n
    K = S[np.subtract.outer(rows, rows) % n]
    k0 = (2.0 * np.pi / grid.extent) * np.fft.fftfreq(n, d=1.0 / n)
    q1 = float(q0 * S[0].real)
    q2 = float(q0 * np.sum((1.0 + k0 * k0) ** norm_order * np.abs(S) ** 2))

    def load(s):
        return 1.0 + q0 + 2.0 * s * q1 + s * s * q2

    return K, load


def _fluctuation(grid: SpectralGrid, params: PhysParams, K):
    """``tendency(s, X)``: the momentum tendency of the fluctuation ``A -
    1`` at ``s = sin(t)`` on packed coefficients ``X``, with ``K`` of
    :func:`_standing_wave`; zero when ``K`` is None.  It transforms no
    field."""
    d, rows = grid.dim, len(grid.lead_modes)
    mu_ik, mu_lam = params.mu_bar * grid.ik, params.mu_bar + params.lam_bar

    def tendency(s, X):
        # the divergence over j of (A - 1) (mu_bar d_j m_i
        # + (lam + mu)_bar div(m) delta_ij), the flux taken along x_0 by K
        N = np.zeros_like(X)
        if K is not None:
            m = X[1:1 + d]
            flux = mu_ik * m[:, None]
            flux[range(d), range(d)] += mu_lam * grid.divergence(m)
            flux = np.matmul(K, flux.reshape(d * d, rows, -1))
            N[1:1 + d] = s * grid.divergence(
                flux.reshape((d, d) + grid.spectral_shape))
        return N

    return tendency


def solve_linearized(grid: SpectralGrid, problem: LinearizedProblem,
                     bg: Background, dt: float,
                     scheme: str = "imex1", cadence: int = 1,
                     keep_states: bool = False) -> list:
    """Integrate the linearized system once per amplitude of
    ``problem.waves`` and accumulate estimate ingredients: one
    :class:`LinearizedTrajectory` per amplitude, in order.

    Every amplitude steps from one packed datum on one factored stepper,
    with the same dissipation weights; only its coefficient
    (:func:`_standing_wave`) is its own.  The steps and the observed states
    (at 0, every ``cadence`` steps and at the horizon) come from
    :func:`rhdlab.steppers.schedule`, which raises :class:`ValueError`
    first for a horizon or a step count it refuses;
    :class:`rhdlab.steppers.ImexStepper` raises it next for an unknown
    ``scheme``.  The dissipation and coefficient-load integrals are
    accumulated by the trapezoid rule at every step regardless of
    ``cadence``.  Dissipation weights of ``H^norm_order`` that overflow
    raise :class:`rhdlab.model.DomainError`, before any step.  Data that
    are not zero but whose bundle underflows below the smallest normal
    float raise :class:`FloatingPointError` before any step.  Under
    ``np.errstate`` that raises, arithmetic of the set-up that leaves
    float range raises :class:`FloatingPointError` before any step, and
    arithmetic of the steps that does raises
    :class:`rhdlab.steppers.SolverError`: the norms of the initial state
    were in range, so the state diverged.
    """
    schedule(problem.horizon, dt, cadence)  # refuses before any set-up
    pr, d, no = bg.params, grid.dim, problem.norm_order
    d2 = pr.delta ** 2
    stepper = ImexStepper(scheme, split_symbol(grid, bg, relative_density=True),
                          dt)
    # Parseval weights per slot of [X, exchange]: the dissipation rate takes
    # gradients of nrel in H^(no-1), of the rest of X in H^no, and the
    # exchange term in H^no; the bundle takes X in H^no.  A finite H^no
    # weight can still overflow once divided by delta^2
    w_no = grid.sobolev_weight(no)
    with np.errstate(over="ignore", invalid="ignore"):
        w_diss = np.concatenate([
            grid.ksq * np.stack([grid.sobolev_weight(max(no - 1, 0)) / d2]
                                + [w_no] * d + [w_no / d2] * 2),
            [w_no / d2]])
    if not np.all(np.isfinite(w_diss)):
        raise DomainError(f"the H^{no} dissipation weights overflow")
    X0 = pack_state(grid, problem.init_nrel, problem.init_mom,
                    problem.init_dtheta, problem.init_drad)
    waves = [_standing_wave(grid, a, no) for a in problem.waves]
    bundle = bundle_factors(d, pr.delta)
    spatial = tuple(range(1, d + 1))

    def density(X):
        """The Parseval density of ``[X, exchange]``, every slot unweighted."""
        exch = planck_linear(X[d + 1], X[d + 2], bg)
        sq = np.abs(np.concatenate([X, [exch]]))
        sq *= sq
        return grid.parseval_density(sq)

    def bundle_of(dens):
        """The scaled bundle of ``X`` in ``H^no`` from its :func:`density`."""
        return float(bundle @ np.sum(dens[:-1] * w_no, axis=spatial))

    dens0 = density(X0)
    # one t = 0 bundle for every amplitude; zero data keep their bundle 0
    if np.any(X0) and not bundle_of(dens0) >= np.finfo(float).tiny:
        raise FloatingPointError("underflow in the bundle")

    def solve(a, K, load):
        tendency = _fluctuation(grid, pr, K)
        traj = LinearizedTrajectory()
        X, dens, cum_d, cum_a, s = X0, dens0, 0.0, 0.0, 0.0
        prev = (float(np.sum(dens * w_diss)), load(s))

        def observe(t):
            traj.times.append(t)
            traj.bundles.append(bundle_of(dens))
            traj.cum_dissipation.append(cum_d)
            traj.cum_coeff_load.append(cum_a)
            if keep_states:
                traj.states.append(unpack_state(grid, X))

        observe(0.0)
        t = 0.0
        try:
            for t1, seen, _ in schedule(problem.horizon, dt, cadence):
                # the fluctuation at the step's start drives it; the load at
                # its end closes it
                X = stepper.step(X, partial(tendency, s))
                s = float(np.sin(t1))
                dens = density(X)
                cur = (float(np.sum(dens * w_diss)), load(s))
                cum_d += 0.5 * dt * (prev[0] + cur[0])
                cum_a += 0.5 * dt * (prev[1] + cur[1])
                prev, t = cur, t1
                if seen:
                    observe(t1)
        except FloatingPointError as exc:
            raise SolverError(f"the linearized probe at delta={pr.delta}, "
                              f"wave={a} diverged after t={t}: "
                              f"{exc}") from None
        return traj

    return [solve(a, *wave) for a, wave in zip(problem.waves, waves)]


@dataclass
class EstimateReport:
    """The fitted leading constant and the sup in time of the left side."""
    constant: float
    lhs_sup: float


def check_estimate(traj: LinearizedTrajectory) -> EstimateReport:
    """Ratio of the accumulated left side to the constant-free right side.

    LHS(t) = bundle(t) + cumulative dissipation; RHS = bundle(0) * [1 +
    exp(L) * L] with the load L the integral of ``1 + |A|^2``.  The
    returned ``constant`` estimates the leading constant; with zero data it
    is defined as 0.  A right side that is not finite raises
    :class:`rhdlab.model.DomainError`.
    """
    lhs = max(b + cd for b, cd in zip(traj.bundles, traj.cum_dissipation))
    bundle0 = traj.bundles[0]
    load = traj.cum_coeff_load[-1]
    if bundle0 == 0.0:  # zero data, also under a load past the range of exp
        return EstimateReport(0.0, lhs)
    with np.errstate(over="ignore"):
        rhs = bundle0 * (1.0 + np.exp(load) * load)
    if not np.isfinite(rhs):
        raise DomainError(f"the right side {bundle0:.6g} * (1 + exp(L) * L) "
                          f"at the load L = {load:.6g} is not finite")
    return EstimateReport(lhs / rhs, lhs)
