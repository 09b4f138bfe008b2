"""Pseudo-spectral field machinery on a periodic box.

Conventions
-----------
Scalar fields are point values: real ``float64`` arrays of shape
``grid.shape`` (``points_per_axis`` repeated ``dim`` times).  Vector fields
carry a leading component axis of length ``grid.dim``.  Every field is real,
so only half of its spectrum is kept, and of that half only the modes the
2/3 rule keeps: its Fourier coefficients are ``grid.fft(f)``, unnormalized,
on the dealias box of shape ``grid.spectral_shape``.  With ``c = n // 3``
the box holds the modes with every ``|k_i| <= c`` and ``k_last >= 0``,
``(2c + 1,) * (dim - 1) + (c + 1,)``, in ``rfftn`` order with the negative
frequencies wrapped; without dealiasing it is the whole ``rfftn`` half
spectrum, ``(n,) * (dim - 1) + (n // 2 + 1,)``.  The transforms are
``numpy.fft`` 1-D passes pruned to the box: ``fft`` runs ``rfft`` along the
last axis and keeps ``c + 1`` columns, then ``fft`` along each leading axis
in turn, from the last, over the box rows of the axes already transformed
only; ``ifft`` runs the same passes backwards, each leading axis zero-padded
from its box rows, and ``irfft`` pads the last axis itself.  The crop is
the 2/3-rule filter, every coefficient array is as small as the rule
allows, and every value is bit for bit the cropped ``numpy.fft.rfftn``, or
the ``irfftn`` of the zero-padded half spectrum.
Each mode left out with ``k_last < 0`` is the complex conjugate of a kept
one, so a Parseval sum counts a kept mode twice (``grid.multiplicity``),
except on the ``k_last = 0`` and ``k_last = n/2`` planes, which hold their
own conjugates and count once.
Methods take coefficients unless they say otherwise.  Derivatives are
multiplications by ``grid.ik`` (``grid.ksq`` for ``-laplacian``), exact
derivatives of the trigonometric interpolant.  Three methods take first
derivatives: :meth:`SpectralGrid.divergence` gives the coefficients of a
divergence; :meth:`SpectralGrid._slabs` forms the point values of the
derivatives along x_1, ..., x_{d-1} of the fields it is asked for on
their x_0 partials (the caller hands it those along x_0 as fields), for
the compressible solver's explicit evaluation and the verification
right-hand sides; and
:meth:`SpectralGrid.jacobian` gives the point values of the gradients of
a stack of fields, for the incompressible reference's advection and the
momentum form's Hessian.  The Nyquist mode is dropped from ``ik`` and
``ksq`` alike, so ``div(grad(f))`` and ``laplacian(f)`` agree bit-for-bit.

Point values may hold modes outside the box.  What takes their norm or
filters them without dealiasing them works on ``grid.whole()``, the same
grid with the whole half spectrum as its layout.

``fft`` and ``ifft`` take stacks of fields, with any leading axes.  They
flatten the leading axes and transform them in groups of fields whose
``rfftn`` half spectra take at most ``_GROUP_BYTES`` (1 MiB) together, one
field when a field alone is larger: 1 field per call at 48^3 and 256^2, 3
at 32^3, 7 at 128^2 and 31 at 64^2.  Small grids make fewer calls, and
large grids hold a call's buffer to one field.  Every value is bit for bit
the one a single call over the whole stack gives.  A non-finite value
passes through both silently, as ``inf`` or ``nan``, for the caller's own
checks to find.

Each transform is two halves: the one pass along the first axis x_0 (the
first of ``ifft``, the last of ``fft``), and the passes that act on each
x_0 row (2D) or plane (3D) alone.  Between the halves a stack is held as
partials, ``(n, *box rows, c + 1)`` per field, about half the size of its
point values when dealiased.  ``fft`` and ``ifft`` run both halves over
all rows; :meth:`SpectralGrid._slabs` runs a pointwise step slab by slab
between them, so the point values of a whole stack never exist at once.
No ``ik_j`` with ``j >= 1`` varies along x_0, so ``_slabs`` forms the
derivatives along x_1, ..., x_{d-1} of the fields it is asked for on
their partials, with no x_0 pass or partials of their own: ``ik_1``
times the x_0 partial before the x_1 pass in 3D, and ``ik_last`` times
the partial after it (after the x_0 pass in 2D), which skips the x_1
pass too.  Such a derivative differs from the transform of its
``ik``-multiplied coefficients by round-off.  The compressible solver's
explicit evaluation is such a step, and the slab is its one cut: the
grid sets the slab size, at most ``_SLAB_POINTS`` (8192) points and at
least ``dim + 1`` slabs, and each x_0 pass of ``_slabs`` runs over a
whole group or block in one call.

Every public operation returns a fresh array and never mutates its inputs,
so grids and fields are safe to share across worker threads: a grid
keeps no scratch buffer from one call to the next.  Every norm
is a Parseval sum over Fourier coefficients
(:meth:`SpectralGrid.parseval_density`).
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np
from numpy import fft as _fft

__all__ = ["SpectralGrid", "save_field", "load_field"]

_MAGIC = b"SPECF1\n"
# Bytes of complex half spectrum that one transform call takes at most (one
# field when a field alone is larger).  On small grids it saves calls: a
# 5-field 2D ifft one field per call is 1.13x slower at 128^2, 1.5x at 64^2
# and about 3x at 16^2.  On large grids it bounds the call's buffer: without
# it a zero-horizon 48^3 run peaks at 70.9 MB of RSS against 63.1 MB, and a
# two-step 96^3 run at 280.6 against 243.9 MB (one thread, 2-core VM, while
# a run held its datum).
_GROUP_BYTES = 1 << 20
# Points of one slab of SpectralGrid._slabs, at most: a pointwise kernel's
# scratch fields are the size of one slab and stay in cache.
_SLAB_POINTS = 8192


def _quiet():
    """The floating-point state of every transform pass: an overflow or a
    non-finite value passes through silently, for the caller's checks."""
    return np.errstate(invalid="ignore", over="ignore")


def _checked(dim, points_per_axis, extent):
    """``(n, volume)`` of a grid, or ``ValueError`` naming the argument no
    :class:`SpectralGrid` takes."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = int(points_per_axis)
    if n < 8 or n % 2 != 0:
        raise ValueError(f"points_per_axis must be even and >= 8, got {points_per_axis}")
    with np.errstate(all="ignore"):
        volume = float(np.float64(extent) ** dim)
        ksq_max = float(dim * (np.pi * n / np.float64(extent)) ** 2)
    if not (extent > 0 and 0.0 < volume < np.inf and ksq_max < np.inf):
        raise ValueError(f"extent must be > 0 with a finite, nonzero box "
                         f"volume and a finite largest |k|^2, got {extent!r}")
    return n, volume


def _axis_modes(n, cut):
    """Integer mode numbers ``|m| <= cut`` of a leading axis in fft order
    (0, 1, ..., -1) and ``0, ..., cut`` of the last one."""
    ints = _fft.fftfreq(n, d=1.0 / n)
    return ints[np.abs(ints) <= cut], np.arange(cut + 1)


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
        If True (default), the spectral layout is the 2/3-rule box: it
        leaves out the modes with any ``|k_i| > points_per_axis // 3``, so
        every forward transform, of a nonlinear tendency too, is
        dealiased.  If False it is the whole ``rfftn`` half spectrum.
    """

    def __init__(self, dim: int = 2, points_per_axis: int = 64,
                 extent: float = 2.0 * np.pi, dealias: bool = True):
        n, volume = _checked(dim, points_per_axis, extent)
        self.dim, self.n, self.extent = dim, n, float(extent)
        self.dealias, self.volume = bool(dealias), volume
        self.shape, self.dx = (n,) * dim, self.extent / n
        self._fft_axes = tuple(range(-dim, 0))

        # Integer mode numbers of the box per axis, scaled to wavenumbers.
        cut = n // 3 if self.dealias else n // 2
        lead, last = _axis_modes(n, cut)
        self.lead_modes = lead.astype(int)  # the box rows of a leading axis
        self.spectral_shape = (len(lead),) * (dim - 1) + (cut + 1,)
        axes = np.meshgrid(*([lead] * (dim - 1)), last, indexing="ij")
        k = (2.0 * np.pi / self.extent) * np.stack(axes)  # (dim, *spectral_shape)
        self.multiplicity = np.where(last % (n // 2) == 0, 1.0, 2.0)

        # The box rows of a leading axis: the non-negative modes lead and
        # the negative ones end both the box and the whole axis, so the same
        # slices index either, and their blocks over the leading axes index
        # the box within the half spectrum.  Without dealiasing the box rows
        # are the whole axis, one slice.
        neg = np.count_nonzero(lead < 0)
        self._rows = ((slice(0, len(lead) - neg), slice(-neg, None))
                      if self.dealias else (slice(None),))
        self._blocks = [(Ellipsis, *b, slice(0, cut + 1))
                        for b in product(self._rows, repeat=dim - 1)]
        # the lines of the x_0 pass, on the axis after x_0 in a stack: the
        # box rows of the middle axis in 3D, every column in 2D
        self._mid_rows = self._rows if dim == 3 else (slice(None),)
        self._half_shape = (n,) * (dim - 1) + (n // 2 + 1,)
        self._group = max(1, _GROUP_BYTES // (16 * prod(self._half_shape)))
        # x_0 rows per slab: at most _SLAB_POINTS points, one row when a
        # row alone holds more, and at least dim + 1 slabs, the fewest with
        # which an explicit evaluation holds less than it did over whole
        # fields on every grid: 1.40 times its point values at 16^3
        # undealiased in 4 slabs and 1.75 in 3, against 1.66; 1.22 at
        # 128^2 in 3 slabs and 1.57 in 2, against 1.60 (the whole-field
        # figures are those of the evaluation before it ran in slabs)
        self._slab = max(1, min(_SLAB_POINTS // n ** (dim - 1),
                                -(-n // (dim + 1))))

        # First-derivative multipliers zero the Nyquist mode (odd derivative
        # of the symmetric interpolant); |k|^2 is built from the same vectors
        # so operator identities hold exactly.
        kd = np.where(np.abs(axes) == n // 2, 0.0, k)
        self.ik = 1j * kd
        # ik of the last axis on its columns and, in 3D, of the middle axis
        # on its box rows: the multipliers of a derivative formed on
        # partials (_ifft_slab)
        self._ik_last = self.ik[-1][(0,) * (dim - 1)]
        self._ik_mid = self.ik[1][0, :, :1] if dim == 3 else None
        self.ksq = np.sum(kd * kd, axis=0)
        # True |k|^2 including the Nyquist mode: used for norms and spectral
        # envelopes, where Nyquist content must count as high-frequency.
        self.ksq_full = np.sum(k * k, axis=0)

    def whole(self) -> "SpectralGrid":
        """This grid without the 2/3 rule, whose layout is the whole
        ``rfftn`` half spectrum (this grid itself when ``dealias`` is off).

        Point values may hold modes outside the box: their norms, filters
        and anything else that must not dealias them work on this grid."""
        return (SpectralGrid(self.dim, self.n, self.extent, dealias=False)
                if self.dealias else self)

    # -- transforms -------------------------------------------------------

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Coefficients on the box of point values, over the spatial axes
        (component axes pass through): the ``rfftn`` half spectrum cropped
        to ``spectral_shape``, the 2/3-rule filter.

        Each group runs :meth:`_fft_slab` over all its rows, into one half
        spectrum reused by every group of the call, then :meth:`_fft_x0`,
        which copies the box out.  A stack is transformed in groups of at
        most ``_GROUP_BYTES`` of half spectrum (:meth:`_grouped`)."""
        return self._fft_into(f, None)

    def _fft_into(self, f, out):
        """:meth:`fft` of ``f`` written into ``out`` (a fresh array when
        None), each group's coefficients straight into their place."""
        half = np.empty((min(prod(f.shape[:-self.dim]), self._group),)
                        + self._half_shape, complex)

        def forward(g, out):
            self._fft_x0(self._fft_slab(g, half[:len(g)]), out)
        with _quiet():
            return self._grouped(f, self.spectral_shape, complex, forward, out)

    def ifft(self, fhat: np.ndarray) -> np.ndarray:
        """Real point values of box coefficients: the ``irfftn`` of the box
        zero-padded into the ``rfftn`` half spectrum.

        Each group is written into one pad buffer of ``c + 1`` columns,
        reused by every group of the call, by :meth:`_ifft_x0`, and
        :meth:`_ifft_slab` finishes it over all its rows.  A stack is
        transformed in groups of at most ``_GROUP_BYTES`` of half spectrum
        (:meth:`_grouped`)."""
        return self._ifft_into(fhat, None)

    def _ifft_into(self, fhat, out):
        """:meth:`ifft` of ``fhat`` written into ``out`` (a fresh array
        when None), each group's point values straight into its place."""
        buf = np.empty((min(prod(fhat.shape[:-self.dim]), self._group),)
                       + self.shape[:-1] + self.spectral_shape[-1:], complex)

        def inverse(g, out):
            p = buf[:len(g)]
            self._ifft_x0(g, p)
            self._ifft_slab(p, out)
        with _quiet():
            return self._grouped(fhat, self.shape, float, inverse, out)

    # Partials, a stack between the x_0 pass and the others, are
    # ``(fields, n, *box rows, c + 1)``, with the box rows of the middle
    # axis in 3D.  A pad buffer may hold the whole middle axis instead,
    # zero outside the box rows; the row slices ``_mid_rows`` index either.

    def _ifft_x0(self, fhat, p):
        """The x_0 pass of :meth:`ifft`: the box ``fhat`` zero-padded into
        the partials ``p`` and transformed along x_0 in place, over the box
        rows of the middle axis only."""
        p.fill(0.0)
        for block in self._blocks:
            p[block] = fhat[block]
        for rows in self._mid_rows:
            lines = p[:, :, rows]
            _fft.ifft(lines, axis=1, out=lines)

    def _ifft_slab(self, p, out, pad=None, derive=0):
        """The passes of :meth:`ifft` after the x_0 pass, over a slab of x_0
        rows of the partials ``p``, into the real ``out``: in 3D the
        ``ifft`` of the middle axis, in place, then the ``irfft`` of the
        last axis, which pads the columns itself.  Partials with the box
        rows of the middle axis only are first zero-padded into ``pad``,
        which holds the whole axis; partials with the whole axis are
        overwritten.

        With ``derive``, ``out`` holds after the fields of ``p`` the
        derivatives along x_1, ..., x_{d-1} of the first ``derive`` of
        them, each formed on a partial, since no ``ik_j`` with ``j >= 1``
        varies along x_0: along the middle axis ``ik_1`` times the x_0
        partial, zero-padded after the fields of ``p`` into ``pad`` (which
        3D needs then), and along the last axis ``ik_last`` times the
        field's partial after the middle pass (its x_0 partial in 2D),
        written over it, which skips that pass too.  ``out`` holds the
        fields, then the derivatives along x_1 and, in 3D, along x_2."""
        f = len(p)
        if pad is not None:
            pad.fill(0.0)
            for rows in self._mid_rows:
                pad[:f, :, rows] = p[:, :, rows]
                if derive:
                    np.multiply(self._ik_mid[rows], p[:derive, :, rows],
                                out=pad[f:, :, rows])
            p = pad
        if self.dim == 3:
            _fft.ifft(p, axis=2, out=p)
        _fft.irfft(p, n=self.n, axis=-1, out=out[:len(p)])
        if derive:
            last = p[:derive]
            last *= self._ik_last
            _fft.irfft(last, n=self.n, axis=-1, out=out[len(p):])

    def _fft_slab(self, f, half):
        """The passes of :meth:`fft` before the x_0 pass, over a slab of x_0
        rows of the point values ``f``: the ``rfft`` of the last axis into
        the half spectrum ``half``, cropped to ``c + 1`` columns, and in 3D
        the ``fft`` of the middle axis in place.  Returns the cropped view
        of ``half``, partials with the whole middle axis."""
        h = _fft.rfft(f, axis=-1, out=half)[..., :self.spectral_shape[-1]]
        if self.dim == 3:
            _fft.fft(h, axis=2, out=h)
        return h

    def _fft_x0(self, p, out):
        """The x_0 pass of :meth:`fft`: the partials ``p`` transformed along
        x_0 in place, over the box rows of the middle axis only, and the
        box copied out into ``out``."""
        for rows in self._mid_rows:
            lines = p[:, :, rows]
            _fft.fft(lines, axis=1, out=lines)
        for block in self._blocks:
            out[block] = p[block]

    def _slabs(self, groups, fields, derive, kernel, block=0):
        """A pointwise ``kernel`` run slab by slab on the point values of
        coefficient stacks and of derivatives of their first ``derive``
        fields, and the coefficients of what it writes.

        ``groups`` yields coefficient stacks ``(k, *spectral_shape)`` of
        ``fields`` fields in all, each taken as it comes (a group may reuse
        the buffer of the one before).  Their x_0 passes fill one stack of
        partials.  Then, for each slab of at most ``_slab`` x_0 rows,
        ``kernel(at, x, y)`` is called with ``at`` the slice of those rows,
        ``x`` their point values ``(fields + (dim - 1) derive, s, ...)``
        and ``y`` an empty ``(block, s, ...)`` block for it to fill, whose
        forward passes up to x_0 follow.  ``x`` holds the fields, then the
        derivatives along x_1 of the first ``derive`` of them and, in 3D,
        along x_2, formed on their partials (:meth:`_ifft_slab`), so a
        derivative along x_0 alone is a field of ``groups``.  With
        ``block`` zero, ``y`` is empty and None is returned; else the
        coefficients ``(block, *spectral_shape)`` of the filled block,
        after one x_0 pass.  The block's partials are written over the
        first ``block <= fields`` partials, row by row once each slab has
        read them, so the call holds one stack of partials.  The fields
        are bit for bit the ones :meth:`ifft` gives over the whole stack,
        the block's coefficients the ones :meth:`fft` gives over the whole
        block, and a derivative differs from the :meth:`ifft` of its
        ``ik``-multiplied coefficients by round-off; no value depends on
        the slab size.  The buffers are the call's own, and only the
        kernel and ``groups`` run in the caller's floating-point state."""
        n, rows, d = self.n, self._slab, self.dim
        p = self._partials(groups, fields)
        x = np.empty((fields + (d - 1) * derive, rows) + self.shape[1:])
        # the whole middle axis, for the fields and their derivatives
        # along it
        pad = (np.empty((fields + derive, rows) + self.shape[1:-1]
                        + self.spectral_shape[-1:], complex)
               if d == 3 else None)
        y = np.empty((block, rows) + self.shape[1:])
        half = np.empty((block, rows) + self._half_shape[1:], complex)
        q = p[:block]
        for lo in range(0, n, rows):
            at = slice(lo, min(lo + rows, n))
            s = at.stop - lo
            with _quiet():
                self._ifft_slab(p[:, at], x[:, :s],
                                None if pad is None else pad[:, :s], derive)
            kernel(at, x[:, :s], y[:, :s])
            if block:
                with _quiet():
                    h = self._fft_slab(y[:, :s], half[:, :s])
                for r in self._mid_rows:
                    q[:, at, r] = h[:, :, r]
        if not block:
            return None
        del x, pad, y, half
        out = np.empty((block,) + self.spectral_shape, complex)
        with _quiet():
            self._fft_x0(q, out)
        return out

    def _partials(self, groups, fields):
        """The x_0 passes of :meth:`ifft` of the coefficient stacks that
        ``groups`` yields, ``fields`` fields in all, into one stack of
        partials, each group in one call as it comes."""
        p = np.empty((fields, self.n) + self.spectral_shape[1:], complex)
        i = 0
        for g in groups:
            with _quiet():
                self._ifft_x0(g, p[i:i + len(g)])
            i += len(g)
            # a group is dead once passed: not held while the next is formed
            del g
        return p

    def _grouped(self, x, shape, dtype, transform, out=None):
        """The stack ``x``, flattened to ``(fields, *spatial)``, transformed
        by ``transform(g, out)`` in calls of at most ``_group`` fields (the
        fields whose half spectra take at most ``_GROUP_BYTES`` together, or
        one), each writing its ``dtype`` values of field shape ``shape``
        into its rows of ``out``: a ``(fields, *shape)`` array, or a fresh
        one, returned with the leading axes of ``x``, when None."""
        lead, x = x.shape[:-self.dim], x.reshape((-1,) + x.shape[-self.dim:])
        flat = np.empty((len(x),) + shape, dtype) if out is None else out
        for i in range(0, len(x), self._group):
            transform(x[i:i + self._group], flat[i:i + self._group])
        return flat.reshape(lead + shape) if out is None else out

    def grid_points(self) -> np.ndarray:
        """Node coordinates, shape ``(dim, *shape)``."""
        x1 = np.arange(self.n) * self.dx
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    # -- calculus on coefficients ----------------------------------------

    def jacobian(self, fhat: np.ndarray) -> np.ndarray:
        """Point values of the gradients of a stack of fields given by their
        coefficients, shape ``(m, dim, *shape)``: ``jac[i, j] = d f_i /
        d x_j``.

        Each field takes one inverse transform of its ``dim`` derivatives,
        formed in one ``dim``-field coefficient buffer, so no call is larger
        than a vector field, and written group by group into the result
        (:meth:`_ifft_into`).
        """
        out = np.empty((len(fhat), self.dim) + self.shape)
        for grad, c in zip(out, self._gradients(fhat)):
            self._ifft_into(c, grad)
        return out

    def _gradients(self, fhat):
        """The coefficients ``ik * f`` of the gradient of each field ``f``
        of ``fhat`` in turn, each in one ``dim``-field buffer that the next
        overwrites."""
        c = np.empty_like(self.ik)
        for f in fhat:
            yield np.multiply(self.ik, f, out=c)

    def divergence(self, fhat: np.ndarray) -> np.ndarray:
        """Coefficients of the divergence ``sum_i ik[i] * f_i`` of
        coefficients ``fhat``, whose components ``f_i`` run along the axis
        just before the spatial axes; leading axes pass through.

        The terms are summed in index order from the first, as ``np.trace``
        sums a diagonal; another order would move the last bit of every
        field formed from a divergence, the viscous term among them."""
        f = np.moveaxis(fhat, -self.dim - 1, 0)
        return sum(self.ik[i] * f[i] for i in range(self.dim))

    def leray(self, vhat: np.ndarray) -> np.ndarray:
        """Coefficients of the divergence-free part of a vector field.

        Gradient parts are removed exactly; the mean (k = 0) passes.
        """
        if vhat.shape[0] != self.dim:
            raise ValueError("leray expects a vector field")
        ksq = np.where(self.ksq == 0.0, 1.0, self.ksq)
        # k.v is -i div(v) exactly: the factor -1j only moves the parts
        proj = -1j * self.divergence(vhat) / ksq
        out = self.ik.imag * proj
        return np.subtract(vhat, out, out=out)

    # -- norms and the filter ---------------------------------------------

    def parseval_density(self, density: np.ndarray) -> np.ndarray:
        """``density`` on the box, even in ``k``, times
        ``multiplicity * volume / n**(2 dim)``: summed over the spatial
        axes, it is ``volume * sum(density) / n**(2 dim)`` over the whole
        spectrum, the Parseval sum."""
        return density * (self.volume / float(self.n ** self.dim) ** 2
                          * self.multiplicity)

    def power_density(self, fhat: np.ndarray, weight=1.0) -> np.ndarray:
        """:meth:`parseval_density` of ``weight * |fhat|^2``, per mode and
        field: summed over the spatial axes, the squared norm of the fields
        of ``fhat`` that ``weight`` selects.  ``weight`` must broadcast to
        the shape of ``fhat`` and be even in ``k``."""
        sq = np.abs(fhat)
        sq *= sq
        sq *= weight
        return self.parseval_density(sq)

    def norm_sq(self, fhat: np.ndarray, weight=1.0):
        """Parseval sum ``volume * sum(weight * |fhat / n**dim|^2)`` of
        transformed fields over the spatial axes, the sum of
        :meth:`power_density`; component axes are kept."""
        return np.sum(self.power_density(fhat, weight), axis=self._fft_axes)

    def sobolev_weight(self, order: int) -> np.ndarray:
        """The ``(1 + |k|^2)^order`` multiplier of :meth:`sobolev_norm`."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        return (1.0 + self.ksq_full) ** order

    def largest_sobolev_weight(self, order: int) -> float:
        """The largest :meth:`sobolev_weight` of :meth:`whole`, without
        building it: the weight increases with ``|k|^2``, which is largest
        at the corner mode, ``|k_i| = pi n / extent`` on every axis."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        lead, last = _axis_modes(self.n, self.n // 2)
        k = (2.0 * np.pi / self.extent) * np.array(
            [np.max(np.abs(lead))] * (self.dim - 1) + [last[-1]])
        return float((1.0 + np.sum(k * k)) ** order)

    def sobolev_norm(self, f: np.ndarray, order: int = 0) -> float:
        """Discrete Sobolev norm of point values ``f`` via the
        ``(1 + |k|^2)^order`` multiplier, over the whole half spectrum of
        ``f`` (:meth:`whole`), dealiased or not.

        Matches the continuum L2 norm at ``order=0`` (Parseval); vector
        fields contribute the sum of squared component norms.  Each call
        transforms ``f`` and builds the weight, and on a dealiased grid
        :meth:`whole` too.  A caller that holds the coefficients on
        ``grid.whole()`` takes the Parseval sum :meth:`norm_sq` with one
        :meth:`sobolev_weight` instead, as the initial data do.
        """
        g = self.whole()
        w = g.sobolev_weight(order)
        return float(np.sqrt(np.sum(g.norm_sq(g.fft(f), w))))

    def mask(self, f: np.ndarray) -> np.ndarray:
        """The 2/3-rule filter on point values, ``ifft(fft(f))``: the
        round trip through the box (through the whole half spectrum when
        ``dealias`` is off)."""
        return self.ifft(self.fft(f))

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
    A header that :func:`save_field` could not have written (a ``dim``,
    ``n`` or ``extent`` no :class:`SpectralGrid` takes, ``ncomp < 1``)
    raises ``ValueError`` naming the file, as a malformed one or a payload
    of the wrong size does.
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
        _checked(meta["dim"], meta["n"], meta["extent"])
        if meta["ncomp"] < 1:
            raise ValueError(f"ncomp must be >= 1, got {meta['ncomp']}")
        # a vector field leads with its components
        shape = (meta["ncomp"],) * (meta["ncomp"] != 1) + (meta["n"],) * meta["dim"]
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{path}: malformed header {header!r}: "
                         f"{type(exc).__name__} {exc}") from None
    expected = int(np.prod(shape))
    if len(payload) != 8 * expected:
        raise ValueError(f"{path}: payload holds {len(payload) / 8:g} float64 "
                         f"values, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).copy(), meta
