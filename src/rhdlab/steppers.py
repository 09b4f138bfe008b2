"""Per-Fourier-mode implicit machinery shared by the time integrators.

The stiff linear part of every system here (acoustic coupling, diffusion,
matter-radiation exchange) is block-diagonal over Fourier modes, so the
implicit solve is a batched dense solve with one small complex matrix per
mode, factored once per (matrix, dt) pair.  :func:`acoustic_exchange_matrix`
is the single builder of that linear part: the IMEX solver, the linearized
probe and the verification right-hand sides all take their symbol from it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SolverError", "acoustic_exchange_matrix", "pack_state",
           "unpack_state", "ImexOperator",
           "imex_euler_step", "ars222_step", "ARS_GAMMA", "ARS_DHAT"]

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


class ImexOperator:
    """Batched per-mode application of ``M`` and solve with ``(I - c*M)``.

    Spectral states have shape ``(s, *grid.shape)``; the factorization is
    computed once at construction and reused every step.
    """

    def __init__(self, M: np.ndarray, solve_coeff: float):
        s = M.shape[0]
        self._s = s
        self._field_shape = M.shape[2:]
        Mm = M.reshape(s, s, -1).transpose(2, 0, 1)
        try:
            self._inv = np.linalg.inv(np.eye(s)[None] - solve_coeff * Mm)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"implicit operator I - {solve_coeff!r}*M is singular") from exc
        self._M = Mm

    def _contract(self, mats, X):
        flat = X.reshape(self._s, -1)
        out = np.einsum("mij,jm->im", mats, flat)
        return out.reshape((self._s,) + self._field_shape)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``M @ X`` per mode."""
        return self._contract(self._M, X)

    def solve(self, X: np.ndarray) -> np.ndarray:
        """``(I - c*M)^{-1} @ X`` per mode."""
        return self._contract(self._inv, X)


def imex_euler_step(op: ImexOperator, X, dt, explicit_fn):
    """First-order IMEX Euler; ``op`` must be factored with ``solve_coeff=dt``."""
    return op.solve(X + dt * explicit_fn(X))


def ars222_step(op: ImexOperator, X, dt, explicit_fn):
    """Second-order two-stage IMEX step; ``op`` factored with ``ARS_GAMMA*dt``."""
    n1 = explicit_fn(X)
    y = op.solve(X + dt * ARS_GAMMA * n1)
    n2 = explicit_fn(y)
    rhs = (X + dt * (ARS_DHAT * n1 + (1.0 - ARS_DHAT) * n2)
           + dt * (1.0 - ARS_GAMMA) * op.apply(y))
    return op.solve(rhs)
