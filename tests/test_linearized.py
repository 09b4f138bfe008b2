import numpy as np
import pytest
from scipy.linalg import expm

from rhdlab.fields import SpectralGrid
from rhdlab.linearized import (LinearizedProblem, LinearizedTrajectory,
                               _fluctuation, _standing_wave, check_estimate,
                               solve_linearized)
from rhdlab.model import Background, DomainError, IdealGasEOS, PhysParams

EOS = IdealGasEOS()


def zero_fields(grid):
    return (np.zeros(grid.shape), np.zeros((grid.dim,) + grid.shape),
            np.zeros(grid.shape), np.zeros(grid.shape))


def make_problem(grid, wave, horizon, **kw):
    n0, m0, z0, g0 = zero_fields(grid)
    defaults = dict(waves=(wave,), init_nrel=n0, init_mom=m0, init_dtheta=z0,
                    init_drad=g0, horizon=horizon)
    defaults.update(kw)
    return LinearizedProblem(**defaults)


def test_zero_problem_stays_zero():
    grid = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    [traj] = solve_linearized(grid, make_problem(grid, 0.0, 0.1),
                              bg, dt=1e-2, keep_states=True)
    for state in traj.states:
        for f in state:
            assert np.max(np.abs(f)) == 0.0
    rep = check_estimate(traj)
    assert rep.constant == 0.0


def test_single_mode_matches_matrix_exponential_oracle():
    # A == 1, data in one Fourier mode: the exact solution is the matrix
    # exponential of the dense per-mode system (dim+3 square)
    grid = SpectralGrid(dim=2, points_per_axis=16)
    params = PhysParams(delta=0.2, mu=0.13, lam=0.07, kappa=0.15, nu=0.12)
    pr = params
    bg = Background.of(pr, EOS)
    x = grid.grid_points()
    c0 = np.array([0.3 + 0.1j, -0.2 + 0.25j, 0.15 - 0.3j, 0.1 + 0.2j,
                   -0.25 - 0.05j]) * 1e-2

    def mode_field(c):
        return 2.0 * np.real(c * np.exp(1j * x[0]))

    problem = make_problem(
        grid, 0.0, horizon=0.1,
        init_nrel=mode_field(c0[0]),
        init_mom=np.stack([mode_field(c0[1]), mode_field(c0[2])]),
        init_dtheta=mode_field(c0[3]), init_drad=mode_field(c0[4]))
    [traj] = solve_linearized(grid, problem, bg, dt=1e-4, scheme="imex2",
                              cadence=10 ** 6, keep_states=True)

    rb, tb = pr.rho_bar, pr.theta_bar
    p_rho = float(EOS.p_rho(rb, tb))
    p_theta = float(EOS.p_theta(rb, tb))
    recip = 1.0 / (rb * float(EOS.e_theta(rb, tb)))
    d2 = pr.delta ** 2
    M = np.array([
        [0, -1j, 0, 0, 0],
        [-1j * rb * p_rho / d2, -(2 * pr.mu_bar + pr.lam_bar), 0,
         -1j * p_theta / d2, 0],
        [0, 0, -pr.mu_bar, 0, 0],
        [0, -1j * tb * p_theta * recip, 0,
         -pr.kappa * recip - 4 * pr.sigma_tilde * tb ** 3 * recip,
         pr.sigma_a * recip],
        [0, 0, 0, 4 * pr.sigma_tilde * tb ** 3 / pr.delta,
         (-pr.nu - pr.sigma_a) / pr.delta],
    ], dtype=complex)
    c_exact = expm(M * 0.1) @ c0

    nrel, mom, dth, drad = traj.states[-1]
    got = np.array([grid.fft(f)[1, 0] / grid.n ** grid.dim
                    for f in (nrel, mom[0], mom[1], dth, drad)])
    assert np.max(np.abs(got - c_exact)) < 1e-8


def test_mean_mode_relaxes_as_matrix_exponential():
    # spatially constant temperature and radiation data: the k=0
    # temperature/radiation pair relaxes by a 2x2 linear ODE, integrated
    # exactly by its matrix exponential
    grid = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    z0, g0 = 1.0, -2.0
    problem = make_problem(
        grid, 0.0, horizon=0.2,
        init_dtheta=np.full(grid.shape, z0), init_drad=np.full(grid.shape, g0))
    [traj] = solve_linearized(grid, problem, bg, dt=1e-4,
                              scheme="imex2", cadence=500, keep_states=True)
    A = np.array([[-4.0, 1.0], [4.0 / 0.1, -1.0 / 0.1]])
    for t, (nrel, mom, dth, drad) in zip(traj.times, traj.states):
        state = expm(A * t) @ np.array([z0, g0])
        assert abs(np.mean(dth) - state[0]) < 2e-6
        assert abs(np.mean(drad) - state[1]) < 2e-6
        assert np.max(np.abs(nrel)) < 1e-12 and np.max(np.abs(mom)) < 1e-12


def test_check_estimate_hand_arithmetic():
    traj = LinearizedTrajectory(times=[0.0, 0.5, 1.0], bundles=[2.0, 3.0, 1.0],
                                cum_dissipation=[0.0, 1.0, 4.0],
                                cum_coeff_load=[0.0, 0.25, 0.5])
    rep = check_estimate(traj)
    # LHS = bundle + dissipation = 2, 4, 5; RHS = 2*(1 + e^0.5*0.5)
    assert rep.lhs_sup == pytest.approx(5.0, rel=1e-15)
    assert rep.constant == pytest.approx(
        5.0 / (2.0 * (1.0 + 0.5 * np.exp(0.5))), rel=1e-15)
    zero = LinearizedTrajectory(times=[0.0], bundles=[0.0], cum_dissipation=[0.0],
                                cum_coeff_load=[0.0])
    assert check_estimate(zero).constant == 0.0


def test_check_estimate_refuses_an_overflowing_right_side():
    # e^1000 overflows: an error, not a constant of 0 against an infinite
    # right side
    traj = LinearizedTrajectory(times=[0.0, 1.0], bundles=[1e10, 1e10],
                                cum_dissipation=[0.0, 1.0],
                                cum_coeff_load=[0.0, 1e3])
    with pytest.raises(DomainError, match="not finite"):
        check_estimate(traj)


def test_check_estimate_takes_the_exponential_of_the_whole_load():
    # a load of 702 is within exp's range: the right side is
    # 1 + e^702 * 702, not an exponential clamped below it; and zero data
    # give the constant 0 under a load past exp's range
    traj = LinearizedTrajectory(times=[0.0, 1.0], bundles=[1.0, 1.0],
                                cum_dissipation=[0.0, 1e300],
                                cum_coeff_load=[0.0, 702.0])
    rep = check_estimate(traj)
    assert rep.constant == pytest.approx(
        (1.0 + 1e300) / (1.0 + np.exp(702.0) * 702.0), rel=1e-14, abs=0.0)
    zero = LinearizedTrajectory(times=[0.0, 1.0], bundles=[0.0, 0.0],
                                cum_dissipation=[0.0, 0.0],
                                cum_coeff_load=[0.0, 1e3])
    assert check_estimate(zero).constant == 0.0


def test_solution_map_is_additive():
    grid = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    rng = np.random.default_rng(2)
    def rnd():
        return grid.mask(1e-2 * rng.standard_normal(grid.shape))
    p1 = make_problem(grid, 0.0, 0.05,
                      init_nrel=rnd(), init_dtheta=rnd())
    p2 = make_problem(grid, 0.0, 0.05,
                      init_mom=np.stack([rnd(), rnd()]), init_drad=rnd())
    p12 = make_problem(grid, 0.0, 0.05,
                       init_nrel=p1.init_nrel, init_mom=p2.init_mom,
                       init_dtheta=p1.init_dtheta, init_drad=p2.init_drad)
    kw = dict(dt=1e-3, cadence=10 ** 6, keep_states=True)
    s1 = solve_linearized(grid, p1, bg, **kw)[0].states[-1]
    s2 = solve_linearized(grid, p2, bg, **kw)[0].states[-1]
    s12 = solve_linearized(grid, p12, bg, **kw)[0].states[-1]
    for a, b, ab in zip(s1, s2, s12):
        scale = max(np.max(np.abs(ab)), 1e-30)
        assert np.max(np.abs(a + b - ab)) < 1e-10 * scale


def test_data_scaling_leaves_constant_invariant():
    # the solution map is linear: doubling every datum quadruples both sides
    grid = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    rng = np.random.default_rng(3)
    data = [grid.mask(1e-2 * rng.standard_normal(grid.shape)) for _ in range(5)]
    consts = []
    for scale in (1.0, 2.0):
        problem = make_problem(
            grid, 0.0, 0.1, init_nrel=scale * data[0],
            init_mom=scale * np.stack(data[1:3]), init_dtheta=scale * data[3],
            init_drad=scale * data[4])
        [traj] = solve_linearized(grid, problem, bg, dt=1e-3)
        consts.append(check_estimate(traj).constant)
    assert consts[1] == pytest.approx(consts[0], rel=1e-10)


def test_coefficient_bounds_enforced():
    # A = 1 + a sin(x_0) sin(t) is positive only for |a| < 1, and a NaN
    # amplitude is no amplitude
    grid = SpectralGrid(dim=2, points_per_axis=16)
    for wave in (1.0, -1.5, np.nan):
        with pytest.raises(DomainError, match="wave"):
            make_problem(grid, wave, 0.05)


def test_unknown_scheme_is_refused_by_the_stepper():
    # the probe has no scheme check of its own: the stepper's ValueError,
    # which lists the schemes, is raised before anything is factored
    grid = SpectralGrid(dim=2, points_per_axis=8)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    with pytest.raises(ValueError, match="imex1"):
        solve_linearized(grid, make_problem(grid, 0.0, 0.05), bg, dt=1e-2,
                         scheme="rk4")


def test_constant_uniformity_small_grid():
    # quick two-point Mach check of the estimate constant's stability
    grid = SpectralGrid(dim=2, points_per_axis=32)
    rng = np.random.default_rng(5)
    shapes = [grid.mask(rng.standard_normal(grid.shape)) for _ in range(5)]
    consts = {}
    for delta in (0.2, 0.05):
        bg = Background.of(PhysParams(delta=delta), EOS)
        problem = make_problem(
            grid, 0.5, 0.2,
            init_nrel=delta * 0.02 * shapes[0],
            init_mom=0.02 * np.stack(shapes[1:3]),
            init_dtheta=delta * 0.02 * shapes[3],
            init_drad=np.sqrt(delta) * 0.02 * shapes[4])
        [traj] = solve_linearized(grid, problem, bg, dt=1e-3)
        consts[delta] = check_estimate(traj).constant
    vals = list(consts.values())
    assert max(vals) / min(vals) < 4.0


def test_standing_wave_builds_nodes_once(monkeypatch):
    # the spatial factor is built once per amplitude of a solve, not at
    # every step; the golden check of the linearized workload pins the
    # sampled values
    from rhdlab import linearized
    grid = SpectralGrid(dim=2, points_per_axis=16)
    calls = []

    def counted(grid, wave, norm_order, _built=linearized._standing_wave):
        calls.append(wave)
        return _built(grid, wave, norm_order)

    monkeypatch.setattr(linearized, "_standing_wave", counted)
    trajs = solve_linearized(grid, make_problem(grid, 0.5, 0.01,
                                                waves=(0.5, 0.0)),
                             Background.of(PhysParams(delta=0.1), EOS),
                             dt=1e-3)
    assert [len(traj.times) for traj in trajs] == [11, 11]
    assert calls == [0.5, 0.0]


def point_value_tendency(grid, params, wave, t, X):
    # the fluctuation's momentum tendency the long way: the flux's point
    # values times A - 1 = wave sin(x_0) sin(t), transformed back to the box
    d = grid.dim
    jac = grid.jacobian(X[1:1 + d])
    flux = params.mu_bar * jac
    flux[range(d), range(d)] += ((params.mu_bar + params.lam_bar)
                                 * np.trace(jac, axis1=0, axis2=1))
    ap = wave * np.sin(grid.grid_points()[0]) * np.sin(t)
    N = np.zeros_like(X)
    N[1:1 + d] = grid.divergence(grid.fft(ap * flux))
    return N


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 24), (3, 12), (3, 16)])
@pytest.mark.parametrize("extent", [2.0 * np.pi, 3.0])
@pytest.mark.parametrize("dealias", [True, False])
def test_fluctuation_convolution_matches_point_values(dim, n, extent, dealias):
    # the product with a profile of x_0 is a circular convolution along k_0:
    # exact, aliasing included, also where sin(x_0) is not periodic
    grid = SpectralGrid(dim=dim, points_per_axis=n, extent=extent,
                        dealias=dealias)
    params = PhysParams(delta=0.1, mu=0.13, lam=0.07)
    rng = np.random.default_rng(11)
    X = grid.fft(rng.standard_normal((dim + 3,) + grid.shape))
    K, _ = _standing_wave(grid, 0.7, 2)
    tendency = _fluctuation(grid, params, K)
    for t in (0.3, 2.0):
        want = point_value_tendency(grid, params, 0.7, t, X)
        got = tendency(np.sin(t), X)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("extent", [2.0 * np.pi, 3.0])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_closed_form_load_matches_the_coefficient_norm(extent, order):
    # 1 + |A|^2 in H^order from three sums taken once, against the norm of
    # the sampled coefficient on the whole half spectrum
    grid = SpectralGrid(dim=2, points_per_axis=16, extent=extent)
    _, load = _standing_wave(grid, 0.5, order)
    shape = 0.5 * np.sin(grid.grid_points()[0])
    whole = grid.whole()
    for t in (0.0, 0.4, 1.3, 2.9, -0.8):
        want = 1.0 + whole.sobolev_norm(1.0 + shape * np.sin(t), order) ** 2
        assert load(np.sin(t)) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_standing_wave_steps_make_no_transform(monkeypatch):
    # every transform is set-up: a solve of ten steps makes as many
    # fft/ifft calls as one of none
    grid = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    rng = np.random.default_rng(4)
    data = [grid.mask(rng.standard_normal(grid.shape)) for _ in range(5)]
    calls = [0]

    def counted(method):
        def call(self, f):
            calls[0] += 1
            return method(self, f)
        return call

    monkeypatch.setattr(SpectralGrid, "fft", counted(SpectralGrid.fft))
    monkeypatch.setattr(SpectralGrid, "ifft", counted(SpectralGrid.ifft))
    counts = []
    for horizon in (0.0, 0.01):
        calls[0] = 0
        problem = make_problem(grid, 0.5, horizon, init_nrel=data[0],
                               init_mom=np.stack(data[1:3]),
                               init_dtheta=data[3], init_drad=data[4])
        [traj] = solve_linearized(grid, problem, bg, dt=1e-3)
        counts.append(calls[0])
    assert len(traj.times) == 11 and counts[1] == counts[0]
