"""Per-Fourier-mode implicit machinery shared by the time integrators.

The stiff linear part of every system here (acoustic coupling, diffusion,
matter-radiation exchange) is block-diagonal over Fourier modes, so the
implicit solve is a batched dense solve with one small complex matrix per
mode, factored once per (matrix, dt) pair.  :func:`acoustic_exchange_matrix`
is the single builder of that linear part: the IMEX solver, the linearized
probe and the verification right-hand sides all take their symbol from it.
The solvers only factor the symbol; only the verification right-hand sides
apply it.
:data:`SCHEMES` is the single table of time schemes, and :class:`ImexStepper`
factors a symbol for the scheme it is given.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SolverError", "acoustic_exchange_matrix", "pack_state",
           "unpack_state", "field_sums", "ImexOperator", "ImexStepper",
           "SCHEMES", "imex_euler_step", "ars222_step", "ARS_GAMMA",
           "ARS_DHAT"]

# Two-stage, second-order, L-stable IMEX pair (stiff part SDIRK).
ARS_GAMMA = 1.0 - np.sqrt(0.5)
ARS_DHAT = 1.0 - 1.0 / (2.0 * ARS_GAMMA)


class SolverError(Exception):
    """Implicit factorization or stepping failure."""


def acoustic_exchange_matrix(grid, bg, viscosity=1.0, relative_density=False):
    """Linear symbol of the coupled system at every mode.

    ``bg`` is the :class:`rhdlab.model.Background` the coefficients come from.

    State layout per mode: ``(density-like, velocity-like x dim,
    temperature-like, radiation-like)``.  In the velocity form the density
    slot holds ``drho`` and the rows are::

        n_t   = -rho_bar * i k . v
        v_t   = -P_rho/(rho_bar delta^2) * i k n
                - P_theta/(rho_bar delta^2) * i k z
                - a mu_bar |k|^2 v - a (mu_bar + lam_bar) k (k . v)
        z_t   = -theta_bar P_theta recip * i k . v - kappa recip |k|^2 z
                - emission recip z + sigma_a recip g
        g_t   = (emission z - nu |k|^2 g - sigma_a g) / delta

    with ``a = viscosity`` and ``recip``, ``emission`` from ``bg``.  With
    ``relative_density`` the slot holds ``nrel = drho/rho_bar`` (the
    momentum form), and the symbol is the one above conjugated by
    ``diag(1/rho_bar, 1, ..., 1)``.

    Returns a complex array of shape ``(s, s, *grid.shape)`` with
    ``s = dim + 3``.
    """
    pr = bg.params
    d2 = bg.delta ** 2
    cont = pr.rho_bar
    grad_n = bg.p_rho / (pr.rho_bar * d2)
    if relative_density:
        cont = cont / pr.rho_bar
        grad_n = grad_n * pr.rho_bar
    grad_t = bg.p_theta / (pr.rho_bar * d2)
    visc_shear = pr.mu_bar * viscosity
    visc_bulk = (pr.mu_bar + pr.lam_bar) * viscosity
    div_t = pr.theta_bar * bg.p_theta * bg.recip

    d = grid.dim
    s = d + 3
    kvec = grid.ik.imag  # Nyquist-zeroed wavenumbers
    ksq = grid.ksq
    M = np.zeros((s, s) + grid.shape, dtype=np.complex128)
    for i in range(d):
        M[0, 1 + i] = -cont * 1j * kvec[i]
        M[1 + i, 0] = -grad_n * 1j * kvec[i]
        M[1 + i, d + 1] = -grad_t * 1j * kvec[i]
        for j in range(d):
            M[1 + i, 1 + j] -= visc_bulk * kvec[i] * kvec[j]
        M[1 + i, 1 + i] -= visc_shear * ksq
        M[d + 1, 1 + i] = -div_t * 1j * kvec[i]
    M[d + 1, d + 1] = -pr.kappa * bg.recip * ksq - bg.emission * bg.recip
    M[d + 1, d + 2] = pr.sigma_a * bg.recip + 0j
    M[d + 2, d + 1] = bg.emission / bg.delta + 0j
    M[d + 2, d + 2] = -pr.nu / bg.delta * ksq - pr.sigma_a / bg.delta
    return M


def pack_state(grid, n, v, z, g) -> np.ndarray:
    """Spectral state ``(s, *grid.shape)`` in the layout of the symbol.

    ``n``, ``z`` and ``g`` are scalar fields, ``v`` a vector field; no
    dealiasing is applied.
    """
    d = grid.dim
    X = np.empty((d + 3,) + grid.shape, dtype=np.complex128)
    X[0] = grid.fft(n)
    X[1:1 + d] = grid.fft(v)
    X[d + 1] = grid.fft(z)
    X[d + 2] = grid.fft(g)
    return X


def unpack_state(grid, X: np.ndarray):
    """Point values ``(n, v, z, g)`` of a state built by :func:`pack_state`."""
    d = grid.dim
    return (grid.ifft(X[0]), grid.ifft(X[1:1 + d]), grid.ifft(X[d + 1]),
            grid.ifft(X[d + 2]))


def field_sums(values, dim):
    """Per-field ``(n, v, z, g)`` totals of per-slot values of a packed
    state; the velocity slots are summed."""
    return (values[0], np.sum(values[1:1 + dim]), values[dim + 1],
            values[dim + 2])


class ImexOperator:
    """Batched per-mode solve with ``(I - c*M)``, factored once at
    construction and reused every step.

    Construction overwrites ``M`` with ``I - c*M`` and keeps only its
    inverse, so the operator holds one ``(s, s)`` matrix per mode and never
    the symbol itself.  Spectral states have shape ``(s, *grid.shape)``.
    """

    def __init__(self, M: np.ndarray, solve_coeff: float):
        s = M.shape[0]
        A = M.reshape(s, s, -1).transpose(2, 0, 1)
        A *= -solve_coeff
        A[:, range(s), range(s)] += 1.0
        try:
            self._inv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"implicit operator I - {solve_coeff!r}*M is singular") from exc

    def solve(self, X: np.ndarray) -> np.ndarray:
        """``(I - c*M)^{-1} @ X`` per mode."""
        out = np.einsum("mij,jm->im", self._inv, X.reshape(len(X), -1))
        return out.reshape(X.shape)


def imex_euler_step(op: ImexOperator, X, dt, explicit_fn):
    """First-order IMEX Euler; ``op`` must be factored with ``solve_coeff=dt``."""
    return op.solve(X + dt * explicit_fn(X))


def ars222_step(op: ImexOperator, X, dt, explicit_fn):
    """Second-order two-stage IMEX step; ``op`` factored with ``ARS_GAMMA*dt``.

    The stage derivative ``M @ y`` comes from the solve relation
    ``y - ARS_GAMMA*dt * M @ y = r`` as ``(y - r)/(ARS_GAMMA*dt)``, so the
    symbol is never applied.
    """
    n1 = explicit_fn(X)
    r = X + dt * ARS_GAMMA * n1
    y = op.solve(r)
    n2 = explicit_fn(y)
    rhs = (X + dt * (ARS_DHAT * n1 + (1.0 - ARS_DHAT) * n2)
           + (1.0 - ARS_GAMMA) / ARS_GAMMA * (y - r))
    return op.solve(rhs)


# Scheme name -> (implicit coefficient in units of dt, step).  A step looks its
# function up in the module on each call, so a wrapper bound to the module
# attribute (a profiler's, say) sees every step.
SCHEMES = {
    "imex1": (1.0, lambda *args: imex_euler_step(*args)),
    "imex2": (ARS_GAMMA, lambda *args: ars222_step(*args)),
}


class ImexStepper:
    """The scheme ``SCHEMES[scheme]`` at ``dt`` for the symbol ``M``; ``op``
    is ``M`` factored at the scheme's implicit coefficient.

    The stepper consumes ``M``: :class:`ImexOperator` overwrites it while
    factoring, and no reference to it is kept.
    """

    def __init__(self, scheme: str, M: np.ndarray, dt: float):
        gamma, self._step = SCHEMES[scheme]
        self.dt = dt
        self.op = ImexOperator(M, gamma * dt)

    def step(self, X: np.ndarray, explicit_fn) -> np.ndarray:
        return self._step(self.op, X, self.dt, explicit_fn)
