import numpy as np
import pytest
from scipy.linalg import expm

from rhdlab.config import default_config
from rhdlab.fields import SpectralGrid
from rhdlab.model import Background, IdealGasEOS, PhysParams
from rhdlab.steppers import (ARS_GAMMA, MAX_STEPS, ImexOperator, SolverError,
                             SplitSymbol, ars222_step, schedule, split_symbol)

# A background away from rho_bar = 1, where a misplaced rho_bar factor shows.
OFF_UNIT = dict(rho_bar=1.37, theta_bar=0.9, sigma_a=1.3, sigma_tilde=0.8,
                mu=0.13, lam=0.05, kappa=0.17, nu=0.11)
OFF_UNIT_EOS = IdealGasEOS(R=1.2, c_v=0.8)


def _blocks(bands):
    """The dense ``(n_shells, 4, 4)`` blocks of ``SplitSymbol.bands``."""
    B = np.zeros(bands.shape[-1:] + (4, 4), dtype=complex)
    i = np.arange(4)
    B[:, i[1:], i[:-1]] = bands[0, 1:].T
    B[:, i, i] = bands[1].T
    B[:, i[:-1], i[1:]] = bands[2, :3].T
    return B


def _symbol(bands, shell, khat=None):
    """A hand-built symbol without transverse decay, ``khat`` zero unless
    given."""
    return SplitSymbol(bands=bands, transverse=np.zeros(bands.shape[-1]),
                       shell=np.asarray(shell, dtype=np.int32),
                       khat=np.zeros((2,) + np.shape(shell))
                       if khat is None else khat)


@pytest.mark.parametrize("relative_density", [False, True])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_split_symbol_matches_dense_oracle(dim, n, relative_density,
                                           dense_symbol):
    # on every mode (k = 0, the Nyquist planes and the modes outside the
    # dealias band included) the split apply is M @ X and the split solve
    # is the dense solve with I - c M, at both implicit coefficients
    g = SpectralGrid(dim=dim, points_per_axis=n, dealias=False)
    bg = Background.of(PhysParams(delta=0.05, **OFF_UNIT),
                       OFF_UNIT_EOS)
    dt, s = 1e-2, dim + 3
    symbol = split_symbol(g, bg, relative_density=relative_density)
    M = np.moveaxis(dense_symbol(g, bg, relative_density=relative_density),
                    (0, 1), (-2, -1))
    rng = np.random.default_rng(11)
    X = (rng.standard_normal((s,) + g.spectral_shape)
         + 1j * rng.standard_normal((s,) + g.spectral_shape))
    Xm = np.moveaxis(X, 0, -1)[..., np.newaxis]

    def mode_err(got, want):
        return np.max(np.linalg.norm(np.moveaxis(got, 0, -1) - want, axis=-1)
                      / np.linalg.norm(want, axis=-1))

    assert mode_err(symbol.apply(X), (M @ Xm)[..., 0]) <= 1e-12
    for coeff in (dt, ARS_GAMMA * dt):
        want = np.linalg.solve(np.eye(s) - coeff * M, Xm)[..., 0]
        assert mode_err(ImexOperator(symbol, coeff).solve(X), want) <= 1e-12


def test_ars222_is_second_order_with_explicit_part(dense_symbol):
    # one mode, explicit part b*X: the imex2 step must converge at second
    # order to expm((M_k + b I) T) X; a wrong explicit weight (ARS_DHAT off
    # by 1e-3) reads 1.90 and 1.73 over the last two halvings
    g = SpectralGrid(dim=2, points_per_axis=8)
    bg = Background.of(PhysParams(delta=1.0, **OFF_UNIT),
                       OFF_UNIT_EOS)
    symbol = split_symbol(g, bg)
    mode, b, T, s = (1, 1), 1.5j, 1.0, g.dim + 3
    Mk = dense_symbol(g, bg)[(...,) + mode]
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    want = expm((Mk + b * np.eye(s)) * T) @ x0
    errs = []
    for steps in (20, 40, 80, 160, 320, 640):
        dt = T / steps
        op = ImexOperator(symbol, ARS_GAMMA * dt)
        X = np.zeros((s,) + g.spectral_shape, dtype=complex)
        X[(...,) + mode] = x0
        for _ in range(steps):
            X = ars222_step(op, X, dt, lambda Y: b * Y)
        errs.append(np.linalg.norm(X[(...,) + mode] - want))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders[-2:] >= 1.9), orders


def test_schedule_times_and_observations():
    # 7 steps of 0.1 to 0.7 (round-off in 0.7/0.1 does not add an eighth),
    # observed every 3 steps and at the last
    steps = list(schedule(0.7, 0.1, 3))
    assert [t for t, _, _ in steps] == [i * 0.1 for i in range(1, 8)]
    assert [i for i, (_, seen, _) in enumerate(steps, 1) if seen] == [3, 6, 7]
    assert [last for _, _, last in steps] == [False] * 6 + [True]
    # a cadence that divides the count observes the last step once
    assert [seen for _, seen, _ in schedule(0.4, 0.1, 2)] == [
        False, True, False, True]
    assert all(seen for _, seen, _ in schedule(0.3, 0.1))
    assert list(schedule(0.0, 0.1, 5)) == []
    # a positive horizon far below one step still takes one
    assert list(schedule(0.5, 1e13)) == [(1e13, True, True)]


@pytest.mark.parametrize("t_end, dt, cadence, match", [
    (1.0, 0.0, 1, "dt"), (1.0, -1e-3, 1, "dt"), (1.0, float("nan"), 1, "dt"),
    (1.0, 0.1, 0, "cadence"),
    (1.0, 1e-30, 1, "steps"), (1e300, 1e-300, 1, "steps"),
    (float("nan"), 0.1, 1, "steps"),
    (-1.0, 0.1, 1, "t_end"), (float("nan"), 0.1, 1, "t_end")])
def test_schedule_refuses_before_any_step(t_end, dt, cadence, match):
    with pytest.raises(ValueError, match=match):
        schedule(t_end, dt, cadence)


def test_schedule_admits_its_ceiling():
    # exactly MAX_STEPS steps pass; one more is refused (neither is iterated)
    schedule(MAX_STEPS * 1e-3, 1e-3)
    with pytest.raises(ValueError, match="steps"):
        schedule((MAX_STEPS + 1) * 1e-3, 1e-3)


def test_singular_implicit_operator_is_refused():
    # a shell whose block is I / c, factored at the coefficient c, leaves
    # I - c*M exactly zero: the inversion fails and the error names c
    c = 0.25
    bands = np.zeros((3, 4, 1))
    bands[1] = 1.0 / c
    symbol = _symbol(bands, np.zeros((3, 2)))
    with pytest.raises(SolverError,
                       match=r"^implicit operator I - 0\.25\*M is singular$"):
        ImexOperator(symbol, c)


def _held_arrays(op):
    """Every array or scalar an operator holds, tuples unpacked."""
    for value in vars(op).values():
        yield from value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_operator_holds_at_most_nine_complex_values_per_mode(dim, n):
    # the tridiagonal factors of each shell spread onto the modes, not a
    # dense 4x4 inverse (16 complex values per mode)
    g = SpectralGrid(dim=dim, points_per_axis=n)
    bg = Background.of(PhysParams(delta=0.05, **OFF_UNIT), OFF_UNIT_EOS)
    op = ImexOperator(split_symbol(g, bg), 1e-2)
    held = sum(np.size(a) for a in _held_arrays(op) if np.iscomplexobj(a))
    assert held <= 9 * np.prod(g.spectral_shape)


def test_general_tridiagonal_blocks_solve_as_dense():
    # complex tridiagonal blocks that differ on every shell, the diagonal
    # of n included, solve as the dense 4x4 solve of each mode, and apply
    # as the dense product
    rng = np.random.default_rng(5)
    shells, c = 6, 0.3
    bands = (rng.standard_normal((3, 4, shells))
             + 1j * rng.standard_normal((3, 4, shells)))
    bands[0, 0] = bands[2, 3] = 0.0
    khat = rng.standard_normal((2, 3, 4))
    khat /= np.linalg.norm(khat, axis=0)
    symbol = SplitSymbol(bands=bands, transverse=-rng.random(shells),
                         shell=rng.integers(0, shells, (3, 4), np.int32),
                         khat=khat)
    X = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    B = _blocks(bands)[symbol.shell]
    vL = np.sum(khat * X[1:3], axis=0)
    Y = np.stack([X[0], vL, X[3], X[4]], -1)[..., None]
    t = symbol.transverse[symbol.shell]
    for got, want, scale in (
            (symbol.apply(X), B @ Y, t),
            (ImexOperator(symbol, c).solve(X),
             np.linalg.solve(np.eye(4) - c * B, Y), 1.0 / (1.0 - c * t))):
        np.testing.assert_allclose(got[[0, 3, 4]],
                                   np.moveaxis(want[..., [0, 2, 3], 0], -1, 0),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            got[1:3], scale * X[1:3] + khat * (want[..., 1, 0] - scale * vL),
            rtol=1e-13, atol=1e-13)


def test_zero_pivot_is_refused():
    # rows n and k^ . v of I - c*M equal on one shell: the second pivot is
    # zero and the operator is singular there
    c = 0.5
    bands = np.zeros((3, 4, 2))
    bands[2, 0, 1] = bands[0, 1, 1] = -1.0 / c
    symbol = _symbol(bands, [[0, 1]])
    with pytest.raises(SolverError,
                       match=r"^implicit operator I - 0\.5\*M is singular$"):
        ImexOperator(symbol, c)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_block_is_refused(bad):
    bands = np.zeros((3, 4, 2))
    bands[1, 1, 1] = bad
    with pytest.raises(SolverError, match="has no finite inverse$"):
        ImexOperator(_symbol(bands, [[0, 1]]), 0.5)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_slow_eigenvalue_tends_to_the_thermal_limit(dim, n):
    # as delta -> 0 the acoustic pair and the radiation relaxation of each
    # shell's block leave, and its slowest eigenvalue tends to the
    # isobaric heat diffusion with radiative conduction,
    #   -(kappa + nu e/(sigma_a + nu |k|^2)) |k|^2 / (rho_bar c_p),
    #   rho_bar c_p = rho_bar e_theta + theta_bar P_theta^2/(rho_bar P_rho),
    # at the rate delta.  At the defaults the largest relative error over
    # the shells reads 1.441e-1, 1.629e-2 and 1.651e-3 at delta = 0.1,
    # 0.01 and 0.001 (8.84 and 9.87 per decade); the bound 2 delta holds
    # them with a margin of 1.21 or more, and 8 per decade of 1.10
    g = SpectralGrid(dim=dim, points_per_axis=n)
    ksq = np.unique(g.ksq)
    errs = []
    for delta in (0.1, 0.01, 0.001):
        bg = default_config().build_background(delta)
        pr = bg.params
        ev = np.linalg.eigvals(_blocks(split_symbol(g, bg).bands)[ksq > 0])
        slow = ev[np.arange(len(ev)), np.argmin(np.abs(ev), axis=1)]
        rho_cp = (pr.rho_bar * bg.e_theta
                  + pr.theta_bar * bg.p_theta ** 2 / (pr.rho_bar * bg.p_rho))
        k2 = ksq[ksq > 0]
        limit = -(pr.kappa + pr.nu * bg.emission / (pr.sigma_a + pr.nu * k2)
                  ) * k2 / rho_cp
        errs.append(np.max(np.abs(slow - limit) / np.abs(limit)))
        assert errs[-1] <= 2.0 * delta, (delta, errs)
    assert errs[0] >= 8.0 * errs[1] and errs[1] >= 8.0 * errs[2], errs
