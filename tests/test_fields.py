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


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(dim=4)
    with pytest.raises(ValueError):
        SpectralGrid(points_per_axis=6)
    with pytest.raises(ValueError):
        SpectralGrid(points_per_axis=63)
    with pytest.raises(ValueError):
        SpectralGrid(extent=-1.0)


def test_derivative_exactness(grid):
    x = grid.grid_points()
    f = np.sin(x[0])
    assert np.max(np.abs(grid.deriv(f, 0) - np.cos(x[0]))) < 1e-12
    assert np.max(np.abs(grid.laplacian(f) + f)) < 1e-12


def test_div_grad_equals_laplacian(grid):
    f = band_limited(grid, 1)
    lhs = grid.div(grid.grad(f))
    rhs = grid.laplacian(f)
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
    quad = grid.integral(f * f)
    assert grid.sobolev_norm(f, 0) ** 2 == pytest.approx(quad, rel=1e-12)


def test_leray_kills_gradients(grid):
    phi = band_limited(grid, 3)
    gp = grid.grad(phi)
    proj = grid.leray_project(gp)
    assert np.max(np.abs(proj)) < 1e-12 * np.max(np.abs(gp))


def test_leray_divergence_free_and_idempotent(grid):
    rng = np.random.default_rng(4)
    v = np.stack([band_limited(grid, 5), band_limited(grid, 6)])
    pv = grid.leray_project(v)
    assert np.max(np.abs(grid.div(pv))) < 1e-12
    assert np.max(np.abs(grid.leray_project(pv) - pv)) < 1e-13
    # self-adjointness in the discrete L2 inner product
    w = np.stack([band_limited(grid, 7), band_limited(grid, 8)])
    lhs = grid.inner(grid.leray_project(v), w)
    rhs = grid.inner(v, grid.leray_project(w))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))
    # mean (k = 0) passes through
    vm = v + np.array([1.5, -0.5])[:, None, None]
    pm = grid.leray_project(vm)
    assert np.mean(pm[0]) == pytest.approx(1.5 + np.mean(pv[0]), abs=1e-13)


def test_helmholtz_solve(grid):
    x = grid.grid_points()
    f = np.sin(x[0])
    assert np.max(np.abs(grid.helmholtz_solve(1.0, 0.0, f) - f)) < 1e-13
    assert np.max(np.abs(grid.helmholtz_solve(1.0, 1.0, f) - 0.5 * f)) < 1e-13
    rhs = band_limited(grid, 9)
    sol = grid.helmholtz_solve(2.0, 0.3, rhs)
    resid = 2.0 * sol - 0.3 * grid.laplacian(sol) - rhs
    assert np.max(np.abs(resid)) < 1e-11 * np.max(np.abs(rhs))
    with pytest.raises(ValueError):
        grid.helmholtz_solve(0.0, 1.0, rhs)
    with pytest.raises(ValueError):
        grid.helmholtz_solve(1.0, -1.0, rhs)


def test_dealiased_product_rule(grid):
    # for fields in the lower third of the spectrum, the masked derivative
    # of a product equals the masked product rule exactly
    f = band_limited(grid, 10, cut=grid.n // 3 - 1)
    g = band_limited(grid, 11, cut=grid.n // 3 - 1)
    lhs = grid.mask(grid.deriv(f * g, 0))
    rhs = grid.mask(grid.deriv(f, 0) * g + f * grid.deriv(g, 0))
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
    grid.grad(f); grid.laplacian(f); grid.mask(f)
    np.testing.assert_array_equal(f, f0)


def test_3d_grid_basics():
    g3 = SpectralGrid(dim=3, points_per_axis=16)
    x = g3.grid_points()
    f = np.sin(x[2])
    assert np.max(np.abs(g3.deriv(f, 2) - np.cos(x[2]))) < 1e-12
    v = np.stack([np.sin(x[1]), np.sin(x[2]), np.sin(x[0])])
    pv = g3.leray_project(v)
    assert np.max(np.abs(g3.div(pv))) < 1e-12
