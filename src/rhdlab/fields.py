"""Pseudo-spectral field machinery on a periodic box.

Conventions
-----------
Scalar fields are point values: real ``float64`` arrays of shape
``grid.shape`` (``points_per_axis`` repeated ``dim`` times).  Vector fields
carry a leading component axis of length ``grid.dim``.  Their Fourier
coefficients are ``grid.fft(f)``, unnormalized, on the same layout.
Methods take coefficients unless they say otherwise: derivatives are
multiplications by ``grid.ik`` (``grid.ksq`` for ``-laplacian``), exact
derivatives of the trigonometric interpolant.  The Nyquist mode is dropped
from ``ik`` and ``ksq`` alike, so ``div(grad(f))`` and ``laplacian(f)``
agree bit-for-bit.

Every public operation returns a fresh array and never mutates its inputs,
so grids and fields are safe to share across worker threads.  Every norm
is a Parseval sum over Fourier coefficients (:meth:`SpectralGrid.norm_sq`).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

__all__ = ["SpectralGrid", "save_field", "load_field"]

_MAGIC = b"SPECF1\n"


class SpectralGrid:
    """Uniform periodic grid with Fourier transforms, wavenumbers and norms.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    points_per_axis : int
        Even number of points per axis, at least 8.
    extent : float
        Period of the box along every axis (default ``2*pi``).
    dealias : bool
        If True (default), :meth:`mask` removes modes with any
        ``|k_i| > points_per_axis // 3`` (the 2/3 rule); nonlinear solver
        tendencies are filtered through this mask.
    """

    def __init__(self, dim: int = 2, points_per_axis: int = 64,
                 extent: float = 2.0 * np.pi, dealias: bool = True):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        n = int(points_per_axis)
        if n < 8 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {points_per_axis}")
        if extent <= 0:
            raise ValueError("extent must be positive")
        self.dim = dim
        self.n = n
        self.extent = float(extent)
        self.dealias = bool(dealias)
        self.shape = (n,) * dim
        self.dx = self.extent / n
        self.volume = self.extent ** dim

        # Integer mode numbers per axis in FFT layout; scaled to wavenumbers.
        ints = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
        scale = 2.0 * np.pi / self.extent
        axes = np.meshgrid(*([ints] * dim), indexing="ij")
        self.k = np.stack([scale * a for a in axes])          # (dim, *shape)

        # First-derivative multipliers zero the Nyquist mode (odd derivative
        # of the symmetric interpolant); |k|^2 is built from the same vectors
        # so operator identities hold exactly.
        kd = self.k.copy()
        for ax in range(dim):
            idx = [slice(None)] * dim
            idx[ax] = n // 2
            kd[(ax, *idx)] = 0.0
        self.ik = 1j * kd
        self.ksq = np.sum(kd * kd, axis=0)
        # True |k|^2 including the Nyquist mode: used for norms and spectral
        # envelopes, where Nyquist content must count as high-frequency.
        self.ksq_full = np.sum(self.k * self.k, axis=0)

        cut = n // 3
        keep = np.ones(self.shape, dtype=bool)
        for a in axes:
            keep &= np.abs(a) <= cut
        self.dealias_mask = keep
        self._fft_axes = tuple(range(-dim, 0))

    # -- transforms -------------------------------------------------------

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Forward transform over the spatial axes (component axes pass through)."""
        return _fft.fftn(f, axes=self._fft_axes)

    def ifft(self, fhat: np.ndarray) -> np.ndarray:
        """Inverse transform back to a real field."""
        return _fft.ifftn(fhat, axes=self._fft_axes).real

    def grid_points(self) -> np.ndarray:
        """Node coordinates, shape ``(dim, *shape)``."""
        x1 = np.arange(self.n) * self.dx
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    # -- calculus on coefficients ----------------------------------------

    def jacobian(self, vhat: np.ndarray) -> np.ndarray:
        """Point values of all first derivatives of a vector field given by
        its coefficients; ``jac[i, j] = d v_i / d x_j``."""
        return self.ifft(self.ik[np.newaxis, :] * vhat[:, np.newaxis])

    def leray(self, vhat: np.ndarray) -> np.ndarray:
        """Coefficients of the divergence-free part of a vector field.

        Gradient parts are removed exactly; the mean (k = 0) passes.
        """
        if vhat.shape[0] != self.dim:
            raise ValueError("leray expects a vector field")
        ksq = np.where(self.ksq == 0.0, 1.0, self.ksq)
        k = self.ik.imag  # zeroed-Nyquist wavenumbers
        proj = np.sum(k * vhat, axis=0) / ksq
        return vhat - k * proj[np.newaxis]

    # -- norms and masks --------------------------------------------------

    def norm_sq(self, fhat: np.ndarray, weight=1.0):
        """Parseval sum ``volume * sum(weight * |fhat / n**dim|^2)`` of
        transformed fields over the spatial axes; component axes are kept.

        ``weight`` must broadcast to the shape of ``fhat``.
        """
        sq = np.abs(fhat)
        sq *= sq
        sq *= weight
        return (self.volume / float(self.n ** self.dim) ** 2
                * np.sum(sq, axis=self._fft_axes))

    def sobolev_weight(self, order: int) -> np.ndarray:
        """The ``(1 + |k|^2)^order`` multiplier of :meth:`sobolev_norm`."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return (1.0 + self.ksq_full) ** order

    def sobolev_norm(self, f: np.ndarray, order: int = 0) -> float:
        """Discrete Sobolev norm of point values ``f`` via the
        ``(1 + |k|^2)^order`` multiplier.

        Matches the continuum L2 norm at ``order=0`` (Parseval); vector
        fields contribute the sum of squared component norms.
        """
        w = self.sobolev_weight(order)
        return float(np.sqrt(np.sum(self.norm_sq(self.fft(f), w))))

    def mask(self, f: np.ndarray) -> np.ndarray:
        """Apply the 2/3-rule filter to point values (identity when
        ``dealias`` is off)."""
        if not self.dealias:
            return np.array(f, copy=True)
        return self.ifft(self.fft(f) * self.dealias_mask)

    def mask_spectral(self, fhat: np.ndarray) -> np.ndarray:
        """The 2/3-rule filter on coefficients (:meth:`mask` on point values)."""
        if not self.dealias:
            return fhat
        return fhat * self.dealias_mask

    def __repr__(self):
        return (f"SpectralGrid(dim={self.dim}, points_per_axis={self.n}, "
                f"extent={self.extent:.6g}, dealias={self.dealias})")


def save_field(path, field: np.ndarray, grid: SpectralGrid) -> None:
    """Write a field snapshot: ASCII header, then little-endian float64, C order.

    Header: ``SPECF1\\n`` magic followed by one line
    ``dim=<d> n=<n> ncomp=<c> extent=<e>\\n``.
    """
    arr = np.asarray(field, dtype=np.float64)
    ncomp = 1 if arr.ndim == grid.dim else arr.shape[0]
    header = f"dim={grid.dim} n={grid.n} ncomp={ncomp} extent={grid.extent!r}\n"
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def load_field(path):
    """Read a snapshot written by :func:`save_field`.

    Returns ``(field, meta)`` where ``meta`` has keys dim, n, ncomp, extent.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field snapshot (bad magic)")
        header = fh.readline().decode("ascii", "replace").strip()
        payload = fh.read()
    try:
        meta = {key: float(val) if key == "extent" else int(val)
                for key, val in (item.split("=") for item in header.split())}
        shape = (meta["n"],) * meta["dim"]
        if meta["ncomp"] > 1:
            shape = (meta["ncomp"],) + shape
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{path}: malformed header {header!r}: "
                         f"{type(exc).__name__} {exc}") from None
    expected = int(np.prod(shape))
    if len(payload) != 8 * expected:
        raise ValueError(f"{path}: payload holds {len(payload) / 8:g} float64 "
                         f"values, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy(), meta
