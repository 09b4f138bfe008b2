from collections import Counter

import numpy as np
import pytest

from rhdlab.fields import SpectralGrid


@pytest.fixture
def transforms(monkeypatch):
    """Running count, in ``transforms[0]``, of the fields transformed, as
    the fields that pass the one pass along the first axis every transform
    has: ``SpectralGrid._fft_x0`` (forward, named ``fft``) and
    ``SpectralGrid._ifft_x0`` (inverse, named ``ifft``).  ``fft``,
    ``ifft`` and the slabs of an explicit evaluation all go through it.
    ``transforms[1]`` counts the calls, ``transforms[2]`` holds the most
    fields of one call and ``transforms[3]`` counts the fields, by
    direction."""
    count = [0, Counter(), Counter(), Counter()]
    for name, method in (("fft", "_fft_x0"), ("ifft", "_ifft_x0")):
        def counted(self, x, out, _name=name,
                    _transform=getattr(SpectralGrid, method)):
            count[0] += len(x)
            count[1][_name] += 1
            count[2][_name] = max(count[2][_name], len(x))
            count[3][_name] += len(x)
            return _transform(self, x, out)
        monkeypatch.setattr(SpectralGrid, method, counted)
    return count


def _dense_symbol(grid, bg, relative_density=False):
    """The linear symbol at every mode as one dense ``(s, s,
    *grid.spectral_shape)`` array, written row by row from the equations
    in the docstring of ``rhdlab.steppers.split_symbol``."""
    pr, d = bg.params, grid.dim
    k, ksq = grid.ik.imag, grid.ksq
    d2, rho = bg.delta ** 2, pr.rho_bar
    M = np.zeros((d + 3, d + 3) + grid.spectral_shape, dtype=complex)
    for i in range(d):
        M[0, 1 + i] = -rho * 1j * k[i]
        M[1 + i, 0] = -bg.p_rho / (rho * d2) * 1j * k[i]
        M[1 + i, d + 1] = -bg.p_theta / (rho * d2) * 1j * k[i]
        for j in range(d):
            M[1 + i, 1 + j] = -(pr.mu_bar + pr.lam_bar) * k[i] * k[j]
        M[1 + i, 1 + i] -= pr.mu_bar * ksq
        M[d + 1, 1 + i] = -pr.theta_bar * bg.p_theta * bg.recip * 1j * k[i]
    M[d + 1, d + 1] = -pr.kappa * bg.recip * ksq - bg.emission * bg.recip
    M[d + 1, d + 2] = pr.sigma_a * bg.recip
    M[d + 2, d + 1] = bg.emission / bg.delta
    M[d + 2, d + 2] = -(pr.nu * ksq + pr.sigma_a) / bg.delta
    if relative_density:  # conjugate by diag(1/rho_bar, 1, ..., 1)
        M[0] /= rho
        M[:, 0] *= rho
    return M


@pytest.fixture
def dense_symbol():
    """``dense_symbol(grid, bg, relative_density=False)``:
    the dense per-mode oracle of ``rhdlab.steppers.split_symbol``."""
    return _dense_symbol
