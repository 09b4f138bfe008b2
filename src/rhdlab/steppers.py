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
symbol from it.  The block is tridiagonal (density couples to ``k^ . v``
only, and radiation to the temperature only), so the symbol holds it as
its three diagonals, and that one representation serves the builder, the
factorization and the product: :class:`ImexOperator` factors each shell's
``I - c*B`` once by tridiagonal elimination, spreads the factors onto the
modes, and solves with forward elimination, back substitution and a
transverse scale per mode; :meth:`SplitSymbol.apply` is the banded product
per mode.

Every field is real, so a spectral state holds only the modes of
:attr:`rhdlab.fields.SpectralGrid.spectral_shape`, the half spectrum with
``k_last >= 0`` cropped to the 2/3-rule box (all of the half spectrum
without dealiasing): the symbol at ``-k`` is the complex conjugate of the
one at ``k``, so the modes left out of the half follow from the kept ones,
and the modes outside the box are zero.  The symbol, its shells, the
factors and the stage sums are all as small as the box.  The solvers only
factor the symbol; only the verification right-hand sides apply it.
:data:`SCHEMES` is the single table of time schemes, and :class:`ImexStepper`
factors a symbol for the scheme it is given.

:func:`schedule` is the one step schedule of every time loop (the
compressible run, the incompressible reference and the linearized probe):
the step count, the time of each step and the steps that are observed.  A
run and its reference observed at the same ``dt`` and cadence therefore
share their observation times, and a step count no run can finish is
refused before any step.  :class:`ImexStepper` is the one check of a
scheme and a step, and :func:`schedule` the one of a horizon, a cadence and
a step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolverError", "SplitSymbol", "split_symbol", "pack_state",
           "unpack_state", "ImexOperator", "ImexStepper",
           "SCHEMES", "imex_euler_step", "ars222_step", "ARS_GAMMA",
           "ARS_DHAT", "schedule"]

# Two-stage, second-order, L-stable IMEX pair (stiff part SDIRK).
ARS_GAMMA = 1.0 - np.sqrt(0.5)
ARS_DHAT = 1.0 - 1.0 / (2.0 * ARS_GAMMA)


class SolverError(Exception):
    """Implicit factorization or stepping failure."""


# The most steps one run may take.  The cheapest step here, a linearized
# probe step on the smallest (8²) grid, takes about 70 µs on one x86 core,
# so 10**9 steps are most of a day of stepping alone: a count above it
# comes from a mistyped dt, and stepping it would hang without a word.
MAX_STEPS = 10 ** 9

# Modes per pass of _per_mode: a pass's temporaries stay in cache.
_CHUNK = 4096


def _per_mode(t, khat, X, longitudinal):
    """Per mode, ``longitudinal`` on the longitudinal part of ``X`` and
    ``t * v`` on its transverse velocity.

    ``t`` has the spectral shape and ``khat`` is ``(dim,
    *spectral_shape)``.  The modes go, flattened, in equal chunks of at
    most ``_CHUNK``, so the temporaries stay in cache: for the chunk ``c``,
    ``longitudinal(c, y, x, tmp)`` writes the new ``x = (n, xL, z, g)`` of
    the old ``y = (n, vL, z, g)``, with ``vL = k^ . v``, and may use the
    scratch ``tmp``.  The new velocity is ``t*v + k^ (xL - t*vL)``.
    """
    d, m, shape = len(khat), t.size, X.shape
    t, khat, X = t.reshape(m), khat.reshape(d, m), X.reshape(len(X), m)
    out = np.empty_like(X)
    step = -(-m // -(-m // _CHUNK))
    vL, xL, tmp = np.empty((3, step), dtype=X.dtype)
    for lo in range(0, m, step):
        c = slice(lo, lo + step)
        x, o, k, tc = X[:, c], out[:, c], khat[:, c], t[c]
        w = x.shape[1]
        vl, xl, tp = vL[:w], xL[:w], tmp[:w]
        np.multiply(k[0], x[1], out=vl)
        for i in range(1, d):
            np.multiply(k[i], x[1 + i], out=tp)
            vl += tp
        longitudinal(c, (x[0], vl, x[d + 1], x[d + 2]),
                     (o[0], xl, o[d + 1], o[d + 2]), tp)
        np.multiply(tc, vl, out=tp)
        xl -= tp
        for i in range(d):
            np.multiply(tc, x[1 + i], out=o[1 + i])
            np.multiply(k[i], xl, out=tp)
            o[1 + i] += tp
    return out.reshape(shape)


@dataclass(frozen=True)
class SplitSymbol:
    """The linear symbol per ``|k|^2`` shell (see :func:`split_symbol`).

    ``bands`` is the ``(3, 4, n_shells)`` complex tridiagonal block over
    ``(n, k^ . v, z, g)`` of each shell, by its diagonals: ``bands[0, i]``
    is the entry ``B[i, i-1]`` below the diagonal, ``bands[1, i]`` the
    diagonal ``B[i, i]`` and ``bands[2, i]`` the entry ``B[i, i+1]`` above
    it, so ``bands[0, 0]`` and ``bands[2, 3]`` are zero.  ``transverse``
    is the ``(n_shells,)`` rate of each transverse velocity component,
    ``shell`` the int32 shell of every mode (``grid.spectral_shape``), and
    ``khat`` the ``(dim, *spectral_shape)`` unit wavevectors, zero where
    ``|k| = 0``.
    """
    bands: np.ndarray
    transverse: np.ndarray
    shell: np.ndarray
    khat: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``M @ X`` per mode for a state ``(s, *spectral_shape)``
        (:func:`_per_mode`): row ``i`` of the block sums its terms below,
        on and above the diagonal, in that order."""
        shell = self.shell.reshape(-1)

        def product(c, y, x, tmp):
            bands = self.bands[..., shell[c]]
            for i, xi in enumerate(x):
                lo = max(0, i - 1)
                np.multiply(bands[1 + lo - i, i], y[lo], out=xi)
                for j in range(lo + 1, min(4, i + 2)):
                    np.multiply(bands[1 + j - i, i], y[j], out=tmp)
                    xi += tmp
        return _per_mode(self.transverse[self.shell], self.khat, X, product)


def split_symbol(grid, bg, relative_density=False):
    """Linear symbol of the coupled system, one block per ``|k|^2`` shell.

    ``bg`` is the :class:`rhdlab.model.Background` the coefficients come from.

    State layout per mode: ``(density-like, velocity-like x dim,
    temperature-like, radiation-like)``.  In the velocity form the density
    slot holds ``drho`` and the rows are::

        n_t   = -rho_bar * i k . v
        v_t   = -P_rho/(rho_bar delta^2) * i k n
                - P_theta/(rho_bar delta^2) * i k z
                - mu_bar |k|^2 v - (mu_bar + lam_bar) k (k . v)
        z_t   = -theta_bar P_theta recip * i k . v - kappa recip |k|^2 z
                - emission recip z + sigma_a recip g
        g_t   = (emission z - nu |k|^2 g - sigma_a g) / delta

    with ``recip`` and ``emission`` from ``bg``.  With
    ``relative_density`` the slot holds ``nrel = drho/rho_bar`` (the
    momentum form), and the symbol is the one above conjugated by
    ``diag(1/rho_bar, 1, ..., 1)``.

    With ``k = |k| k^`` and ``v = vL k^ + vT`` (``vT . k^ = 0``), ``vT``
    only decays at the rate ``-mu_bar |k|^2``, and ``(n, vL, z, g)``
    follow one 4x4 block in which ``i k`` becomes ``i |k|`` and the
    viscosity ``-(2 mu_bar + lam_bar) |k|^2``.  ``|k|^2`` and ``k^`` come
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
    div_t = pr.theta_bar * bg.p_theta * bg.recip

    ksq, shell = np.unique(grid.ksq, return_inverse=True)
    kmag = np.sqrt(grid.ksq)
    kvec = grid.ik.imag  # Nyquist-zeroed wavenumbers
    khat = np.divide(kvec, kmag, out=np.zeros_like(kvec), where=kmag > 0.0)
    ik = 1j * np.sqrt(ksq)  # i|k| of each shell
    sub, diag, sup = bands = np.zeros((3, 4, len(ksq)), dtype=np.complex128)
    # an overflowing coefficient leaves inf or nan (inf * 0 at k = 0), which
    # the factorization refuses
    with np.errstate(over="ignore", invalid="ignore"):
        sup[0] = -cont * ik
        sub[1] = -grad_n * ik
        diag[1] = -(pr.mu_bar + (pr.mu_bar + pr.lam_bar)) * ksq
        sup[1] = -grad_t * ik
        sub[2] = -div_t * ik
        diag[2] = -pr.kappa * bg.recip * ksq - bg.emission * bg.recip
        sup[2] = pr.sigma_a * bg.recip
        sub[3] = bg.emission / bg.delta
        diag[3] = -pr.nu / bg.delta * ksq - pr.sigma_a / bg.delta
        transverse = -pr.mu_bar * ksq
    return SplitSymbol(bands, transverse,
                       shell.reshape(grid.spectral_shape).astype(np.int32),
                       khat)


def pack_state(grid, n, v, z, g) -> np.ndarray:
    """Spectral state ``(s, *grid.spectral_shape)`` in the layout of the
    symbol, from one forward transform.

    ``n``, ``z`` and ``g`` are scalar fields, ``v`` a vector field; on a
    dealiased grid the transform's crop to the box is the 2/3-rule filter.
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

    The symbol holds its longitudinal block ``B`` over ``(n, k^ . v, z,
    g)`` by its three diagonals, so construction factors each shell's
    ``I - c*B`` from them by tridiagonal (Thomas) elimination, without
    pivoting: per shell the multipliers ``l1, l2, l3`` below the diagonal,
    the reciprocal pivots ``1/d0 .. 1/d3`` and the couplings ``A01, A12,
    A23`` above it.  On the physical symbol every pivot is real and at
    least 1.  A factor that is the same on every shell (``1/d0 = 1`` and
    ``A23 = -c*sigma_a*recip`` there) stays a scalar; the others are spread
    onto the modes, so the operator holds eight complex values per mode,
    with one transverse factor ``1/(1 - c*rate)`` per mode and the
    symbol's ``khat``, never the symbol's bands.  A solve is forward
    elimination, back substitution and the transverse scale.  A block that
    is not finite and a zero pivot raise :class:`SolverError`.  Spectral
    states have shape ``(s, *grid.spectral_shape)``.
    """

    def __init__(self, symbol: SplitSymbol, solve_coeff: float):
        name = f"implicit operator I - {solve_coeff!r}*M"
        with np.errstate(all="ignore"):
            # 0.0 - x, not -x: the sign of a zero real or imaginary part is
            # the one I - c*B has
            cb = solve_coeff * symbol.bands
            sub, diag, sup = 0.0 - cb[0], 1.0 - cb[1], 0.0 - cb[2]
            scale = 1.0 / (1.0 - solve_coeff * symbol.transverse)
        if not (np.isfinite(cb).all() and np.isfinite(scale).all()):
            raise SolverError(f"{name} has no finite inverse")
        lower, pivots = [], [diag[0]]
        with np.errstate(all="ignore"):
            for i in range(1, 4):
                lower.append(sub[i] / pivots[-1])
                pivots.append(diag[i] - lower[-1] * sup[i - 1])
            if not all(p.all() for p in pivots):
                raise SolverError(f"{name} is singular")
            recips = [1.0 / p for p in pivots]
        if not np.isfinite(lower + pivots + recips).all():
            raise SolverError(f"{name} has no finite inverse")

        def spread(f):
            return f[0] if (f == f[0]).all() else f[symbol.shell]
        # (l1, l2, l3, 1/d0, ..., 1/d3, A01, A12, A23)
        self._factors = tuple(map(spread, lower + recips + list(sup[:3])))
        self._scale = scale[symbol.shell]
        self._khat = symbol.khat

    def solve(self, X: np.ndarray) -> np.ndarray:
        """``(I - c*M)^{-1} @ X`` per mode (:func:`_per_mode`): on the
        longitudinal part ``y``, forward elimination ``x_i = y_i - l_i
        x_{i-1}`` (``x0 = y0``), then back substitution ``x_i = (x_i -
        A_{i,i+1} x_{i+1}) / d_i``."""
        m = self._scale.size
        factors = [f.reshape(m) if np.ndim(f) else f for f in self._factors]

        def eliminate(c, y, x, tmp):
            l1, l2, l3, r0, r1, r2, r3, a01, a12, a23 = (
                f[c] if np.ndim(f) else f for f in factors)
            x0, x1, x2, x3 = x
            for li, below, yi, xi in ((l1, y[0], y[1], x1), (l2, x1, y[2], x2),
                                      (l3, x2, y[3], x3)):
                np.multiply(li, below, out=tmp)
                np.subtract(yi, tmp, out=xi)
            x3 *= r3
            for a, above, ri, xi in ((a23, x3, r2, x2), (a12, x2, r1, x1)):
                np.multiply(a, above, out=tmp)
                xi -= tmp
                xi *= ri
            np.multiply(a01, x1, out=tmp)
            np.subtract(y[0], tmp, out=x0)
            x0 *= r0
        return _per_mode(self._scale, self._khat, X, eliminate)


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
    ``op`` is the symbol factored at the scheme's implicit coefficient.

    The one check of the scheme and the step of every IMEX loop: a scheme
    not in :data:`SCHEMES`, or a ``dt`` that is not positive (NaN
    included), raises :class:`ValueError` before anything is factored."""

    def __init__(self, scheme: str, symbol: SplitSymbol, dt: float):
        if scheme not in SCHEMES or not dt > 0.0:
            raise ValueError(f"need a scheme of {tuple(SCHEMES)} and dt > 0: "
                             f"{scheme!r}, {dt!r}")
        gamma, self._step = SCHEMES[scheme]
        self.dt = dt
        self.op = ImexOperator(symbol, gamma * dt)

    def step(self, X: np.ndarray, explicit_fn) -> np.ndarray:
        return self._step(self.op, X, self.dt, explicit_fn)


def schedule(t_end: float, dt: float, cadence: int = 1):
    """The steps from time 0 to ``t_end`` at ``dt``: an iterator of
    ``(t, seen, last)`` per step, with ``t = i*dt`` the time the ``i``-th
    step ends at, ``seen`` whether that state is observed (every
    ``cadence`` steps and at the last step) and ``last`` whether it is the
    last step.

    The count is ``ceil(t_end/dt - 1e-12)``, so a ``t_end`` that is a whole
    number of steps up to round-off takes exactly that many, and at least
    one if ``t_end`` is positive; ``t_end = 0`` takes none.  Raises :class:`ValueError` on the call, before any step,
    for a ``t_end`` that is negative or NaN, a ``dt`` that is not positive
    (NaN included), ``cadence < 1`` or more than :data:`MAX_STEPS` steps.
    """
    if not (dt > 0.0 and cadence >= 1):
        raise ValueError(f"need dt > 0 and cadence >= 1: {dt!r}, {cadence!r}")
    if not t_end >= 0.0:
        raise ValueError(f"need t_end >= 0 to count the steps: {t_end!r}")
    steps = t_end / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end!r} / {dt!r} asks for more "
                         f"than {MAX_STEPS:.0e} steps")
    n = max(int(t_end > 0.0), int(np.ceil(steps)))
    return ((i * dt, i % cadence == 0 or i == n, i == n)
            for i in range(1, n + 1))
