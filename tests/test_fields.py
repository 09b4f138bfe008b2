import numpy as np
import pytest

from rhdlab.fields import SpectralGrid, load_field, save_field


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=2, points_per_axis=64)


def band_limited(grid, seed, cut=10):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    fhat = grid.fft(f)
    fhat[np.sqrt(grid.ksq_full) > cut] = 0.0
    return grid.ifft(fhat)


# point-value calculus built from the grid's wavenumbers

def deriv(grid, f, axis):
    return grid.ifft(grid.ik[axis] * grid.fft(f))


def grad(grid, f):
    return grid.ifft(grid.ik * grid.fft(f)[np.newaxis])


def div(grid, v):
    return grid.ifft(np.sum(grid.ik * grid.fft(v), axis=0))


def laplacian(grid, f):
    return grid.ifft(-grid.ksq * grid.fft(f))


def leray(grid, v):
    return grid.ifft(grid.leray(grid.fft(v)))


def inner(grid, f, g):
    """Exact quadrature of ``f*g`` over the box, component axes summed."""
    return float(np.sum(f * g) * grid.dx ** grid.dim)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(dim=4)
    with pytest.raises(ValueError):
        SpectralGrid(points_per_axis=6)
    with pytest.raises(ValueError):
        SpectralGrid(points_per_axis=63)
    with pytest.raises(ValueError):
        SpectralGrid(extent=-1.0)
    # the box volume overflows, or the largest |k|^2 does
    for extent in (1e308, 1e-300):
        with pytest.raises(ValueError, match="extent"):
            SpectralGrid(extent=extent)


def test_derivative_exactness(grid):
    x = grid.grid_points()
    f = np.sin(x[0])
    assert np.max(np.abs(deriv(grid, f, 0) - np.cos(x[0]))) < 1e-12
    assert np.max(np.abs(laplacian(grid, f) + f)) < 1e-12


def test_div_grad_equals_laplacian(grid):
    f = band_limited(grid, 1)
    lhs = div(grid, grad(grid, f))
    rhs = laplacian(grid, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_sobolev_norm_analytic_values(grid):
    x = grid.grid_points()
    const = np.full(grid.shape, 2.5)
    assert grid.sobolev_norm(const, 0) == pytest.approx(2.5 * 2 * np.pi, rel=1e-13)
    f = np.sin(x[0])
    assert grid.sobolev_norm(f, 0) == pytest.approx(np.pi * np.sqrt(2), rel=1e-13)
    assert grid.sobolev_norm(f, 1) == pytest.approx(2 * np.pi, rel=1e-13)
    with pytest.raises(ValueError):
        grid.sobolev_norm(f, -1)


def test_parseval(grid):
    f = band_limited(grid, 2)
    quad = inner(grid, f, f)
    assert grid.sobolev_norm(f, 0) ** 2 == pytest.approx(quad, rel=1e-12)


def test_leray_kills_gradients(grid):
    phi = band_limited(grid, 3)
    gp = grad(grid, phi)
    proj = leray(grid, gp)
    assert np.max(np.abs(proj)) < 1e-12 * np.max(np.abs(gp))


def test_leray_divergence_free_and_idempotent(grid):
    rng = np.random.default_rng(4)
    v = np.stack([band_limited(grid, 5), band_limited(grid, 6)])
    pv = leray(grid, v)
    assert np.max(np.abs(div(grid, pv))) < 1e-12
    assert np.max(np.abs(leray(grid, pv) - pv)) < 1e-13
    # on coefficients the projector is idempotent to round-off
    vhat = grid.fft(v)
    pvhat = grid.leray(vhat)
    assert (np.max(np.abs(grid.leray(pvhat) - pvhat))
            < 1e-13 * np.max(np.abs(vhat)))
    with pytest.raises(ValueError):
        grid.leray(vhat[0])
    # self-adjointness in the discrete L2 inner product
    w = np.stack([band_limited(grid, 7), band_limited(grid, 8)])
    lhs = inner(grid, leray(grid, v), w)
    rhs = inner(grid, v, leray(grid, w))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))
    # mean (k = 0) passes through
    vm = v + np.array([1.5, -0.5])[:, None, None]
    pm = leray(grid, vm)
    assert np.mean(pm[0]) == pytest.approx(1.5 + np.mean(pv[0]), abs=1e-13)


def test_dealiased_product_rule(grid):
    # for fields in the lower third of the spectrum, the masked derivative
    # of a product equals the masked product rule exactly
    f = band_limited(grid, 10, cut=grid.n // 3 - 1)
    g = band_limited(grid, 11, cut=grid.n // 3 - 1)
    lhs = grid.mask(deriv(grid, f * g, 0))
    rhs = grid.mask(deriv(grid, f, 0) * g + f * deriv(grid, g, 0))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_mask_roundtrip_identity_on_band(grid):
    f = band_limited(grid, 12, cut=grid.n // 3 - 2)
    assert np.max(np.abs(grid.mask(f) - f)) < 1e-13


def test_snapshot_roundtrip(tmp_path, grid):
    v = np.stack([band_limited(grid, 13), band_limited(grid, 14)])
    path = tmp_path / "snap.dat"
    save_field(path, v, grid)
    back, meta = load_field(path)
    assert meta == {"dim": 2, "n": 64, "ncomp": 2, "extent": grid.extent}
    np.testing.assert_array_equal(back, v)
    s = band_limited(grid, 15)
    save_field(path, s, grid)
    back, meta = load_field(path)
    assert meta["ncomp"] == 1
    np.testing.assert_array_equal(back, s)


def test_truncated_snapshot_names_file_and_counts(tmp_path, grid):
    path = tmp_path / "cut.dat"
    save_field(path, band_limited(grid, 17), grid)
    path.write_bytes(path.read_bytes()[:-100])
    expected = grid.n ** grid.dim
    with pytest.raises(ValueError) as err:
        load_field(path)
    msg = str(err.value)
    assert str(path) in msg and str(expected) in msg
    assert f"{expected - 12.5:g}" in msg


def test_snapshot_header_missing_key_names_file(tmp_path, grid):
    path = tmp_path / "nohdr.dat"
    save_field(path, band_limited(grid, 18), grid)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b" ncomp=1", b"", 1))
    with pytest.raises(ValueError, match="ncomp") as err:
        load_field(path)
    assert str(path) in str(err.value)


def test_operations_do_not_mutate(grid):
    f = band_limited(grid, 16)
    f0 = f.copy()
    grid.fft(f); grid.mask(f); grid.sobolev_norm(f, 2)
    np.testing.assert_array_equal(f, f0)
    vhat = grid.fft(np.stack([f, band_limited(grid, 19)]))
    vhat0 = vhat.copy()
    grid.ifft(vhat); grid.jacobian(vhat); grid.leray(vhat)
    grid.mask_spectral(vhat); grid.norm_sq(vhat, grid.ksq)
    np.testing.assert_array_equal(vhat, vhat0)


def test_jacobian_from_coefficients(grid):
    # jac[i, j] = d v_i / d x_j, from the coefficients of v
    x = grid.grid_points()
    v = np.stack([np.sin(x[0]) * np.cos(2 * x[1]), np.cos(3 * x[0])])
    jac = grid.jacobian(grid.fft(v))
    assert jac.shape == (2, 2) + grid.shape
    exact = [[np.cos(x[0]) * np.cos(2 * x[1]),
              -2 * np.sin(x[0]) * np.sin(2 * x[1])],
             [-3 * np.sin(3 * x[0]), np.zeros(grid.shape)]]
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(jac[i, j] - exact[i][j])) < 1e-12


def test_3d_grid_basics():
    g3 = SpectralGrid(dim=3, points_per_axis=16)
    x = g3.grid_points()
    f = np.sin(x[2])
    assert np.max(np.abs(deriv(g3, f, 2) - np.cos(x[2]))) < 1e-12
    v = np.stack([np.sin(x[1]), np.sin(x[2]), np.sin(x[0])])
    pv = leray(g3, v)
    assert np.max(np.abs(div(g3, pv))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_half_spectrum_layout(dim):
    # coefficients, wavenumbers and the dealias mask are the k_last >= 0
    # part of the whole-spectrum fftn layout; the inverse recovers the field
    g = SpectralGrid(dim=dim, points_per_axis=8)
    f = np.random.default_rng(20).standard_normal(g.shape)
    half = (Ellipsis, slice(0, g.n // 2 + 1))
    full = np.fft.fftn(f)
    assert g.spectral_shape == g.shape[:-1] + (g.n // 2 + 1,)
    np.testing.assert_allclose(g.fft(f), full[half], atol=1e-12)
    assert np.max(np.abs(g.ifft(g.fft(f)) - f)) < 1e-14
    ints = np.fft.fftfreq(g.n, d=1.0 / g.n)
    k = np.stack(np.meshgrid(*([ints] * dim), indexing="ij"))
    nyq = np.abs(k) == g.n // 2
    kd = np.where(nyq, 0.0, k)
    np.testing.assert_array_equal(g.ik, 1j * kd[(slice(None),) + half])
    np.testing.assert_array_equal(g.ksq, np.sum(kd * kd, axis=0)[half])
    np.testing.assert_array_equal(g.ksq_full, np.sum(k * k, axis=0)[half])
    keep = np.all(np.abs(k) <= g.n // 3, axis=0)
    np.testing.assert_array_equal(g.dealias_mask, keep[half])
    np.testing.assert_array_equal(g.multiplicity, [1, 2, 2, 2, 1])
