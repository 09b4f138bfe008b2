"""Per-Fourier-mode implicit machinery shared by the time integrators.

The stiff linear part of every system here (acoustic coupling, diffusion,
matter-radiation exchange) is block-diagonal over Fourier modes, and its
symbol splits exactly along the Helmholtz decomposition of the velocity:
the ``dim - 1`` transverse (solenoidal) components are only diffused, and
the acoustic coupling acts on the longitudinal component ``k^ . v`` alone,
in one 4x4 block over ``(n, k^ . v, z, g)``.  Both parts depend on the mode
only through ``|k|^2``, so :func:`split_symbol`, the single builder of that
linear part, stores one block and one transverse rate per distinct
``|k|^2`` (a *shell*) with a map from mode to shell; the IMEX solver, the
linearized probe and the verification right-hand sides all take their
symbol from it.  :class:`ImexOperator` inverts the per-shell blocks once,
spreads the inverse onto the modes, and solves with a transverse scale plus
one 4x4 contraction per mode.

Every field is real, so a spectral state holds only the half spectrum of
:attr:`rhdlab.fields.SpectralGrid.spectral_shape` (the ``rfftn`` layout):
the symbol at ``-k`` is the complex conjugate of the one at ``k``, so the
modes left out follow from the kept ones.  The solvers only factor the
symbol; only the verification right-hand sides apply it.
:data:`SCHEMES` is the single table of time schemes, and :class:`ImexStepper`
factors a symbol for the scheme it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolverError", "SplitSymbol", "split_symbol", "pack_state",
           "unpack_state", "ImexOperator", "ImexStepper",
           "SCHEMES", "imex_euler_step", "ars222_step", "ARS_GAMMA",
           "ARS_DHAT"]

# Two-stage, second-order, L-stable IMEX pair (stiff part SDIRK).
ARS_GAMMA = 1.0 - np.sqrt(0.5)
ARS_DHAT = 1.0 - 1.0 / (2.0 * ARS_GAMMA)


class SolverError(Exception):
    """Implicit factorization or stepping failure."""


# Modes per pass of _contract: a pass's temporaries stay in cache.
_CHUNK = 4096


def _planar(per_shell, shell):
    """Per-shell ``(n_shells, 4, 4)`` entries spread onto the modes as one
    contiguous ``(4, 4, *shell.shape)`` array."""
    return np.take(np.moveaxis(per_shell, 0, -1), shell, axis=-1)


def _contract(P, t, khat, X):
    """Per mode, ``P @ (n, k^ . v, z, g)`` on the longitudinal part of ``X``
    and ``t * v`` on its transverse velocity.

    ``P`` is planar ``(4, 4, *spectral_shape)``, ``t`` has the spectral
    shape and ``khat`` is ``(dim, *spectral_shape)``; the new velocity is
    ``t*v + k^ (zL - t*vL)`` with ``vL = k^ . v`` and ``zL`` the second row
    of the product.  The modes go in equal chunks of at most ``_CHUNK``, so
    the temporaries of the 16 multiply-adds stay in cache.
    """
    d, m, shape = len(khat), t.size, X.shape
    P, t, khat = P.reshape(4, 4, m), t.reshape(m), khat.reshape(d, m)
    X = X.reshape(len(X), m)
    out = np.empty_like(X)
    step = -(-m // -(-m // _CHUNK))
    vL, zL, tmp = np.empty((3, step), dtype=X.dtype)
    for lo in range(0, m, step):
        c = slice(lo, lo + step)
        x, o, k, tc, pc = X[:, c], out[:, c], khat[:, c], t[c], P[..., c]
        w = x.shape[1]
        vl, zl, tp = vL[:w], zL[:w], tmp[:w]
        np.multiply(k[0], x[1], out=vl)
        for i in range(1, d):
            np.multiply(k[i], x[1 + i], out=tp)
            vl += tp
        y = (x[0], vl, x[d + 1], x[d + 2])
        for row, dst in zip(pc, (o[0], zl, o[d + 1], o[d + 2])):
            np.multiply(row[0], y[0], out=dst)
            for p, yj in zip(row[1:], y[1:]):
                np.multiply(p, yj, out=tp)
                dst += tp
        np.multiply(tc, vl, out=tp)
        zl -= tp
        for i in range(d):
            np.multiply(tc, x[1 + i], out=o[1 + i])
            np.multiply(k[i], zl, out=tp)
            o[1 + i] += tp
    return out.reshape(shape)


@dataclass(frozen=True)
class SplitSymbol:
    """The linear symbol per ``|k|^2`` shell (see :func:`split_symbol`).

    ``blocks`` is ``(n_shells, 4, 4)`` complex in the basis
    ``(n, k^ . v, z, g)``, ``transverse`` the ``(n_shells,)`` rate of each
    transverse velocity component, ``shell`` the int32 shell of every mode
    (``grid.spectral_shape``), and ``khat`` the ``(dim, *spectral_shape)``
    unit wavevectors, zero where ``|k| = 0``.
    """
    blocks: np.ndarray
    transverse: np.ndarray
    shell: np.ndarray
    khat: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``M @ X`` per mode for a state ``(s, *spectral_shape)``."""
        return _contract(_planar(self.blocks, self.shell),
                         self.transverse[self.shell], self.khat, X)


def split_symbol(grid, bg, viscosity=1.0, relative_density=False):
    """Linear symbol of the coupled system, one block per ``|k|^2`` shell.

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

    With ``k = |k| k^`` and ``v = vL k^ + vT`` (``vT . k^ = 0``), ``vT``
    only decays at the rate ``-a mu_bar |k|^2``, and ``(n, vL, z, g)``
    follow one 4x4 block in which ``i k`` becomes ``i |k|`` and the
    viscosity ``-a (2 mu_bar + lam_bar) |k|^2``.  ``|k|^2`` and ``k^`` come
    from the Nyquist-zeroed wavenumbers of ``grid.ik``, so the split is
    exact on every mode; at ``|k| = 0`` every component decouples.
    Returns a :class:`SplitSymbol`.
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

    ksq, shell = np.unique(grid.ksq, return_inverse=True)
    kmag = np.sqrt(grid.ksq)
    kvec = grid.ik.imag  # Nyquist-zeroed wavenumbers
    khat = np.divide(kvec, kmag, out=np.zeros_like(kvec), where=kmag > 0.0)
    ik = 1j * np.sqrt(ksq)  # i|k| of each shell
    B = np.zeros((len(ksq), 4, 4), dtype=np.complex128)
    B[:, 0, 1] = -cont * ik
    B[:, 1, 0] = -grad_n * ik
    B[:, 1, 1] = -(visc_shear + visc_bulk) * ksq
    B[:, 1, 2] = -grad_t * ik
    B[:, 2, 1] = -div_t * ik
    B[:, 2, 2] = -pr.kappa * bg.recip * ksq - bg.emission * bg.recip
    B[:, 2, 3] = pr.sigma_a * bg.recip
    B[:, 3, 2] = bg.emission / bg.delta
    B[:, 3, 3] = -pr.nu / bg.delta * ksq - pr.sigma_a / bg.delta
    return SplitSymbol(B, -visc_shear * ksq,
                       shell.reshape(grid.spectral_shape).astype(np.int32),
                       khat)


def pack_state(grid, n, v, z, g) -> np.ndarray:
    """Spectral state ``(s, *grid.spectral_shape)`` in the layout of the
    symbol, from one forward transform.

    ``n``, ``z`` and ``g`` are scalar fields, ``v`` a vector field; no
    dealiasing is applied.
    """
    return grid.fft(np.stack([n, *v, z, g]))


def unpack_state(grid, X: np.ndarray):
    """Point values ``(n, v, z, g)`` of a state built by :func:`pack_state`,
    from one inverse transform."""
    d = grid.dim
    x = grid.ifft(X)
    return x[0], x[1:1 + d], x[d + 1], x[d + 2]


class ImexOperator:
    """Per-mode solve with ``(I - c*M)``, factored once at construction and
    reused every step.

    Construction inverts the ``I - c*B`` of each shell's longitudinal block
    ``B`` and the scalar ``1 - c*rate`` of its transverse rate, then spreads
    both onto the modes: the operator holds a planar ``(4, 4,
    *spectral_shape)`` inverse, one transverse factor per mode and the
    symbol's ``khat``, never the symbol's blocks.  Spectral states have
    shape ``(s, *grid.spectral_shape)``.
    """

    def __init__(self, symbol: SplitSymbol, solve_coeff: float):
        try:
            inv = np.linalg.inv(np.eye(4) - solve_coeff * symbol.blocks)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"implicit operator I - {solve_coeff!r}*M is singular") from exc
        scale = 1.0 / (1.0 - solve_coeff * symbol.transverse)
        if not (np.isfinite(inv).all() and np.isfinite(scale).all()):
            raise SolverError(f"implicit operator I - {solve_coeff!r}*M has "
                              f"no finite inverse")
        self._inv = _planar(inv, symbol.shell)
        self._scale = scale[symbol.shell]
        self._khat = symbol.khat

    def solve(self, X: np.ndarray) -> np.ndarray:
        """``(I - c*M)^{-1} @ X`` per mode."""
        return _contract(self._inv, self._scale, self._khat, X)


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
    """The scheme ``SCHEMES[scheme]`` at ``dt`` for a :class:`SplitSymbol`;
    ``op`` is the symbol factored at the scheme's implicit coefficient."""

    def __init__(self, scheme: str, symbol: SplitSymbol, dt: float):
        gamma, self._step = SCHEMES[scheme]
        self.dt = dt
        self.op = ImexOperator(symbol, gamma * dt)

    def step(self, X: np.ndarray, explicit_fn) -> np.ndarray:
        return self._step(self.op, X, self.dt, explicit_fn)
