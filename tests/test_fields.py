import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

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


@pytest.mark.parametrize("dim,n,extent", [(2, 16, 2.0 * np.pi), (3, 16, 3.0),
                                          (2, 18, 1e-3), (3, 48, 2.0 * np.pi)])
@pytest.mark.parametrize("dealias", [True, False])
def test_largest_sobolev_weight_without_the_whole_grid(dim, n, extent,
                                                        dealias):
    # the weight of the corner mode, taken without building whole(): the
    # largest |k|^2 to the bit (order 1), the largest weight at every
    # order, and finite exactly where every weight of whole() is
    g = SpectralGrid(dim=dim, points_per_axis=n, extent=extent,
                     dealias=dealias)
    whole = g.whole()
    assert g.largest_sobolev_weight(1) == np.max(whole.sobolev_weight(1))
    # the first order whose weights overflow lies next to this one
    top = int(np.log(np.finfo(float).max)
              / np.log(np.max(whole.sobolev_weight(1))))
    with np.errstate(over="ignore"):
        for order in (0, 2, 3, top - 1, top, top + 1, top + 2):
            want = whole.sobolev_weight(order)
            got = g.largest_sobolev_weight(order)
            assert np.isfinite(got) == np.all(np.isfinite(want)), order
            assert got == pytest.approx(np.max(want), rel=1e-14), order
    with pytest.raises(ValueError):
        g.largest_sobolev_weight(-1)


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


@pytest.mark.parametrize("header", [b"dim=2 n=8 ncomp=0 extent=6.25",
                                    b"dim=2 n=8 ncomp=-2 extent=6.25"])
def test_snapshot_header_without_components_is_malformed(tmp_path, header):
    # save_field writes ncomp >= 1: a header with fewer is refused as
    # malformed, naming the file, before the payload size is checked
    path = tmp_path / "bad.dat"
    path.write_bytes(b"SPECF1\n" + header + b"\n")
    with pytest.raises(ValueError, match="malformed header") as err:
        load_field(path)
    assert str(path) in str(err.value)


def test_snapshot_header_flips_and_truncations(tmp_path):
    # every single-byte change of the magic and the header line, and every
    # 7th truncation: each loads the original values with a header a grid
    # takes, or raises ValueError naming the file.  The new byte is any
    # printable character, any byte str.split() takes for whitespace, NUL
    # or a non-ASCII byte; every other control byte parses as a letter does.
    g = SpectralGrid(dim=2, points_per_axis=16)
    f = band_limited(g, 21, cut=5)
    path = tmp_path / "flip.dat"
    save_field(path, f, g)
    raw = path.read_bytes()
    head = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    alphabet = [*range(0x1c, 0x7f), *b"\t\n\v\f\r", 0x00, 0x80, 0xff]
    cases = [raw[:i] + bytes([b]) + raw[i + 1:]
             for i in range(head) for b in alphabet if b != raw[i]]
    cases += [raw[:size] for size in range(0, len(raw), 7)]
    loaded = 0
    for case in cases:
        path.write_bytes(case)
        try:
            back, meta = load_field(path)
        except ValueError as exc:
            assert str(path) in str(exc), case[:head]
            continue
        loaded += 1
        assert np.array_equal(back, f), case[:head]
        assert (meta["dim"], meta["n"], meta["ncomp"]) == (2, 16, 1)
        assert 0.0 < meta["extent"] < np.inf, case[:head]
    assert loaded > 0


def test_operations_do_not_mutate(grid):
    f = band_limited(grid, 16)
    f0 = f.copy()
    grid.fft(f); grid.mask(f); grid.sobolev_norm(f, 2)
    np.testing.assert_array_equal(f, f0)
    vhat = grid.fft(np.stack([f, band_limited(grid, 19)]))
    vhat0 = vhat.copy()
    grid.ifft(vhat); grid.jacobian(vhat); grid.divergence(vhat)
    grid.leray(vhat)
    grid.norm_sq(vhat, grid.ksq)
    np.testing.assert_array_equal(vhat, vhat0)


def test_jacobian_from_coefficients():
    for dim, n, dealias in [(2, 64, True), (2, 16, False), (3, 16, True),
                            (3, 16, False)]:
        _check_jacobian_and_divergence(
            SpectralGrid(dim=dim, points_per_axis=n, dealias=dealias))


def _check_jacobian_and_divergence(g):
    # jac[i, j] = d v_i / d x_j, from the coefficients of v
    dim, x = g.dim, g.grid_points()
    v = np.stack([np.sin(x[0]) * np.cos(2 * x[1]), np.cos(3 * x[0])])
    jac = g.jacobian(g.fft(v))
    assert jac.shape == (2, dim) + g.shape
    zero = np.zeros(g.shape)
    exact = [[np.cos(x[0]) * np.cos(2 * x[1]),
              -2 * np.sin(x[0]) * np.sin(2 * x[1])] + [zero] * (dim - 2),
             [-3 * np.sin(3 * x[0])] + [zero] * (dim - 1)]
    for i in range(2):
        for j in range(dim):
            assert np.max(np.abs(jac[i, j] - exact[i][j])) < 1e-12, g

    # one transform per field changes no bit against the one-call
    # transform of the whole stack
    rng = np.random.default_rng(dim)
    for m in (1, dim, dim + 2):
        fhat = g.fft(rng.standard_normal((m,) + g.shape))
        want = g.ifft(g.ik[np.newaxis] * fhat[:, np.newaxis])
        assert np.array_equal(g.jacobian(fhat), want), (g, m)

    # the divergence sums its terms in index order, over the component
    # axis just before the spatial axes
    vhat = g.fft(rng.standard_normal((dim,) + g.shape))
    assert np.array_equal(g.divergence(vhat),
                          sum(g.ik[i] * vhat[i] for i in range(dim))), g
    flux = g.fft(rng.standard_normal((dim + 1, dim) + g.shape))
    div = g.divergence(flux)
    assert div.shape == (dim + 1,) + g.spectral_shape
    for i in range(dim + 1):
        assert np.array_equal(div[i], sum(g.ik[j] * flux[i, j]
                                          for j in range(dim))), g


def test_3d_grid_basics():
    g3 = SpectralGrid(dim=3, points_per_axis=16)
    x = g3.grid_points()
    f = np.sin(x[2])
    assert np.max(np.abs(deriv(g3, f, 2) - np.cos(x[2]))) < 1e-12
    v = np.stack([np.sin(x[1]), np.sin(x[2]), np.sin(x[0])])
    pv = leray(g3, v)
    assert np.max(np.abs(div(g3, pv))) < 1e-12


def box_index(n, dim, cut):
    """Indices into the whole-spectrum ``fftn`` layout of the modes with
    every ``|k_i| <= cut`` and ``k_last >= 0``, negatives wrapped."""
    lead = np.flatnonzero(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= cut)
    return np.ix_(*([lead] * (dim - 1)), np.arange(cut + 1))


@pytest.mark.parametrize("dim", [2, 3])
def test_half_spectrum_layout(dim):
    # coefficients and wavenumbers are the 2/3-rule box of the k_last >= 0
    # part of the whole-spectrum fftn layout, or all of that part without
    # dealiasing; the inverse recovers a field the box holds
    for dealias, cut, mult in ((True, 2, [1, 2, 2]), (False, 4, [1, 2, 2, 2, 1])):
        g = SpectralGrid(dim=dim, points_per_axis=8, dealias=dealias)
        f = np.random.default_rng(20).standard_normal(g.shape)
        box = box_index(g.n, dim, cut)
        full = np.fft.fftn(f)
        assert g.spectral_shape == full[box].shape
        assert g.spectral_shape == ((5,) * (dim - 1) + (3,) if dealias
                                    else g.shape[:-1] + (g.n // 2 + 1,))
        np.testing.assert_allclose(g.fft(f), full[box], atol=1e-12)
        band = g.mask(f)
        assert np.max(np.abs(g.ifft(g.fft(band)) - band)) < 1e-14
        ints = np.fft.fftfreq(g.n, d=1.0 / g.n)
        k = np.stack(np.meshgrid(*([ints] * dim), indexing="ij"))
        nyq = np.abs(k) == g.n // 2
        kd = np.where(nyq, 0.0, k)
        np.testing.assert_array_equal(g.ik, 1j * kd[(slice(None),) + box])
        np.testing.assert_array_equal(g.ksq, np.sum(kd * kd, axis=0)[box])
        np.testing.assert_array_equal(g.ksq_full, np.sum(k * k, axis=0)[box])
        np.testing.assert_array_equal(g.multiplicity, mult)


def _near_scipy(got, oracle, tol=1e-15):
    # scipy.fft is an independent implementation: it agrees with numpy.fft
    # to round-off only (its bits differ at 18^2 and in 3D)
    return np.max(np.abs(got - oracle)) <= tol * np.max(np.abs(oracle))


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 16), (2, 18)])
@pytest.mark.parametrize("dealias", [True, False])
def test_box_transforms_against_masked_rfftn(dim, n, dealias):
    # the box coefficients are numpy's masked rfftn half spectrum gathered
    # onto the box, bit for bit, and the round trip is the masked irfftn of
    # the whole half spectrum; both agree with scipy.fft to round-off, and
    # neither transform touches its input
    g = SpectralGrid(dim=dim, points_per_axis=n, dealias=dealias)
    axes = tuple(range(-dim, 0))
    v = np.random.default_rng(n + dim).standard_normal((2,) + g.shape)
    ints = np.fft.fftfreq(n, d=1.0 / n)
    modes = np.meshgrid(*([ints] * (dim - 1)), np.arange(n // 2 + 1),
                        indexing="ij")
    cut = n // 3 if dealias else n // 2
    keep = np.all(np.abs(modes) <= cut, axis=0)
    masked = np.fft.rfftn(v, axes=axes) * keep
    box = (slice(None),) + box_index(n, dim, cut)
    v0 = v.copy()
    vhat = g.fft(v)
    assert np.array_equal(vhat, masked[box])
    assert _near_scipy(vhat, (sfft.rfftn(v, axes=axes) * keep)[box])
    vhat0 = vhat.copy()
    back = g.ifft(vhat)
    assert np.array_equal(back, np.fft.irfftn(masked, s=g.shape, axes=axes))
    assert _near_scipy(back, sfft.irfftn(masked, s=g.shape, axes=axes))
    assert np.array_equal(g.mask(v), back)
    assert np.array_equal(v, v0) and np.array_equal(vhat, vhat0)
    for out, arg in ((vhat, v), (back, vhat), (g.fft(v), vhat),
                     (g.ifft(vhat), back)):
        assert not np.shares_memory(out, arg)


def test_box_sizes():
    # the modes the 2/3-rule box keeps of the rfftn half spectrum
    for dim, n, box, half in ((3, 48, 18513, 57600), (2, 128, 3655, 8320),
                              (2, 64, 946, 2112)):
        g = SpectralGrid(dim=dim, points_per_axis=n)
        assert np.prod(g.spectral_shape) == box
        assert g.ksq.size == g.multiplicity.size * np.prod(
            g.spectral_shape[:-1]) == box
        whole = g.whole()
        assert np.prod(whole.spectral_shape) == half
        assert whole.whole() is whole and not whole.dealias


def _stack_oracles(g, f, fhat, fft=np.fft):
    # one rfftn over the whole stack, cropped through the box blocks, and
    # one irfftn of the whole stack zero-padded into the half spectrum
    axes = tuple(range(-g.dim, 0))
    half = fft.rfftn(f, axes=axes)
    box = np.empty(half.shape[:-g.dim] + g.spectral_shape, complex)
    padded = np.zeros(fhat.shape[:-g.dim] + half.shape[-g.dim:], complex)
    for block in g._blocks:
        box[block] = half[block]
        padded[block] = fhat[block]
    return box, fft.irfftn(padded, s=g.shape, axes=axes)


def _check_grouped_stacks(g, leads, seed):
    # every value of fft and ifft is bit for bit numpy's one call over the
    # stack, and scipy's to round-off; neither transform touches its input,
    # and a result is not a buffer that the next call rewrites
    rng = np.random.default_rng(seed)
    kept = []
    for lead in leads:
        f = rng.standard_normal(lead + g.shape)
        fhat = (rng.standard_normal(lead + g.spectral_shape)
                + 1j * rng.standard_normal(lead + g.spectral_shape))
        f0, fhat0 = f.copy(), fhat.copy()
        box, back = _stack_oracles(g, f, fhat)
        got_box, got_back = g.fft(f), g.ifft(fhat)
        assert got_box.shape == box.shape and np.array_equal(got_box, box), lead
        assert got_back.shape == back.shape and np.array_equal(got_back, back), lead
        scipy_box, scipy_back = _stack_oracles(g, f, fhat, sfft)
        assert _near_scipy(got_box, scipy_box), lead
        assert _near_scipy(got_back, scipy_back), lead
        assert np.array_equal(f, f0) and np.array_equal(fhat, fhat0), lead
        kept.append((got_box, box, got_back, back))
    for got_box, box, got_back, back in kept:
        assert np.array_equal(got_box, box) and np.array_equal(got_back, back)


@pytest.mark.parametrize("n,group", [(256, 1), (128, 7)])
@pytest.mark.parametrize("dealias", [True, False])
def test_grouped_transforms_match_one_call_over_the_stack(n, group, dealias):
    # fft and ifft split a stack into groups of at most 1 MiB of half
    # spectrum
    g = SpectralGrid(dim=2, points_per_axis=n, dealias=dealias)
    assert g._group == group
    _check_grouped_stacks(g, [(), (1,), (6,), (7,), (8,), (2, 3), (5, 3)], n)


@pytest.mark.parametrize("n,group", [(32, 3), (48, 1)])
@pytest.mark.parametrize("dealias", [True, False])
def test_grouped_3d_transforms_match_one_call_over_the_stack(n, group, dealias):
    # in 3D the first axis's pass runs over the box rows of the second, one
    # block at a time, in each group of a stack
    g = SpectralGrid(dim=3, points_per_axis=n, dealias=dealias)
    assert g._group == group
    _check_grouped_stacks(g, [(), (1,), (3,), (4,), (2, 3)], n)


def test_grouped_transforms_hold_one_group_of_half_spectrum():
    # a 6-field stack at 256^2 is 6 groups of one field: each transform
    # peaks below its output plus 3 one-field half spectra (one call over
    # the stack held 6)
    g = SpectralGrid(dim=2, points_per_axis=256)
    half_bytes = 16 * g.n * (g.n // 2 + 1)
    f = np.random.default_rng(6).standard_normal((6,) + g.shape)
    fhat = g.fft(f)
    for transform, arg in ((g.ifft, fhat), (g.fft, f)):
        tracemalloc.start()
        try:
            out = transform(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 3 * half_bytes, transform.__name__


def test_shared_grid_transforms_concurrently():
    # the grid keeps no scratch buffer between calls: two threads that
    # transform different stacks on one grid at once get the serial results
    g = SpectralGrid(dim=2, points_per_axis=256)
    rng = np.random.default_rng(2)
    stacks = [rng.standard_normal((3,) + g.shape),
              rng.standard_normal((2, 2) + g.shape)]
    serial = [(g.fft(f), g.ifft(g.fft(f))) for f in stacks]
    results = [[], []]
    start = threading.Barrier(2)

    def work(i):
        start.wait(timeout=30)
        for _ in range(5):
            fhat = g.fft(stacks[i])
            results[i].append((fhat, g.ifft(fhat)))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (fhat, back), got in zip(serial, results):
        assert len(got) == 5
        for got_fhat, got_back in got:
            assert np.array_equal(got_fhat, fhat)
            assert np.array_equal(got_back, back)
