import tracemalloc

import numpy as np
import pytest

from rhdlab.compressible import (CompressibleSolver, CompressibleState,
                                 PerturbationState, SolverConfig,
                                 StateInvalidError, _derivatives, default_dt,
                                 rhs_momentum_form, rhs_perturbation,
                                 rhs_primitive)
from rhdlab.fields import SpectralGrid
from rhdlab.initial import InitSpec, make_well_prepared, random_band_scalar
from rhdlab.model import IdealGasEOS, PhysParams


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=2, points_per_axis=64)


EOS = IdealGasEOS()
# A background away from rho_bar = 1, where a misplaced rho_bar factor shows.
OFF_UNIT = dict(rho_bar=1.37, theta_bar=0.9, sigma_a=1.3, sigma_tilde=0.8,
                mu=0.13, lam=0.05, kappa=0.17, nu=0.11)
OFF_UNIT_EOS = IdealGasEOS(R=1.2, c_v=0.8)


def equilibrium_state(grid, params):
    return CompressibleState(np.full(grid.shape, params.rho_bar),
                             np.zeros((grid.dim,) + grid.shape),
                             np.full(grid.shape, params.theta_bar),
                             np.full(grid.shape, params.n_bar))


def smooth_state(grid, params, seed, amp=1e-3):
    rng = np.random.default_rng(seed)
    f = lambda: amp * random_band_scalar(grid, rng, 3.0)
    drho = params.rho_bar * f()
    dth = params.theta_bar * f()
    drad = f()
    u = np.stack([f() for _ in range(grid.dim)])
    return CompressibleState(params.rho_bar + drho, u,
                             params.theta_bar + dth, params.n_bar + drad)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, scheme="rk4")
    for interval in (0, -3):
        with pytest.raises(ValueError, match="positivity_interval"):
            SolverConfig(dt=0.1, t_end=1.0, positivity_interval=interval)


def test_state_validation(grid):
    params = PhysParams()
    st = equilibrium_state(grid, params)
    st.validate(grid)
    bad = CompressibleState(st.rho * 0.0, st.u, st.theta, st.rad)
    with pytest.raises(StateInvalidError):
        bad.validate(grid)


def test_rhs_primitive_equilibrium_is_zero(grid):
    params = PhysParams(delta=0.1)
    tends = rhs_primitive(grid, equilibrium_state(grid, params), params, EOS)
    for f in tends:
        assert np.max(np.abs(f)) < 1e-13


def test_rhs_primitive_uniform_state_values(grid):
    # rho=1, u=0, theta=1, n=2 with unit constants: theta_t = 1, n_t = -1/delta
    params = PhysParams(delta=0.25)
    st = CompressibleState(np.ones(grid.shape),
                           np.zeros((2,) + grid.shape),
                           np.ones(grid.shape),
                           np.full(grid.shape, 2.0))
    rho_t, u_t, th_t, n_t = rhs_primitive(grid, st, params, EOS)
    assert np.allclose(rho_t, 0.0, atol=1e-13)
    assert np.allclose(u_t, 0.0, atol=1e-13)
    assert np.allclose(th_t, 1.0, atol=1e-12)
    assert np.allclose(n_t, -1.0 / params.delta, atol=1e-11)


def test_rhs_perturbation_zero_and_uniform(grid):
    params = PhysParams(delta=0.1)
    zero = PerturbationState(np.zeros(grid.shape),
                             np.zeros((2,) + grid.shape),
                             np.zeros(grid.shape), np.zeros(grid.shape))
    for f in rhs_perturbation(grid, zero, params, EOS):
        assert np.max(np.abs(f)) == 0.0
    # uniform small dtheta only: leading tendency is -4*dtheta
    eps = 1e-8
    pert = PerturbationState(np.zeros(grid.shape),
                             np.zeros((2,) + grid.shape),
                             np.full(grid.shape, eps), np.zeros(grid.shape))
    _, _, th_t, _ = rhs_perturbation(grid, pert, params, EOS)
    assert np.allclose(th_t, -4.0 * eps, rtol=1e-6)


@pytest.mark.parametrize("background", [dict(), OFF_UNIT])
def test_reformulation_equivalences(grid, background):
    params = PhysParams.equilibrium(delta=0.1, **background)
    eos = OFF_UNIT_EOS if background else EOS
    for seed in range(3):
        st = smooth_state(grid, params, seed)
        pert = st.to_perturbation(params)
        rho_t, u_t, th_t, n_t = rhs_primitive(grid, st, params, eos)
        mapped = [grid.mask(rho_t), grid.mask(u_t), grid.mask(th_t), grid.mask(n_t)]
        assembled = rhs_perturbation(grid, pert, params, eos)
        for a, b in zip(mapped, assembled):
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))
        nrel = pert.drho / params.rho_bar
        mom = st.rho * st.u / params.rho_bar
        mapped_m = [grid.mask(rho_t / params.rho_bar),
                    grid.mask((rho_t * st.u + st.rho * u_t) / params.rho_bar),
                    grid.mask(th_t), grid.mask(n_t)]
        assembled_m = rhs_momentum_form(grid, nrel, mom, pert.dtheta,
                                        pert.drad, params, eos)
        for a, b in zip(mapped_m, assembled_m):
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


@pytest.mark.parametrize("scheme", ["imex1", "imex2"])
def test_equilibrium_fixed_point(grid, scheme):
    params = PhysParams(delta=0.05)
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=0.01, t_end=1.0,
                                             scheme=scheme))
    traj = solver.run(equilibrium_state(grid, params), cadence=100)
    assert traj.status == "ok"
    fs = traj.final_state
    worst = max(np.max(np.abs(fs.drho)), np.max(np.abs(fs.u)),
                np.max(np.abs(fs.dtheta)), np.max(np.abs(fs.drad)))
    assert worst < 1e-12


def test_mass_conservation(grid):
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=5),
                               grid, params, EOS)
    mass0 = np.mean(st.rho) * grid.volume
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=0.05))
    traj = solver.run(st, cadence=10)
    mass1 = np.mean(traj.final_state.to_primitive(params).rho) * grid.volume
    assert abs(mass1 - mass0) < 1e-12 * mass0


def test_delta_uniform_stability(grid):
    # same grid and dt across the Mach sweep: every run completes
    st_cache = {}
    for delta in (0.2, 0.1, 0.05, 0.025):
        params = PhysParams(delta=delta)
        st, _ = make_well_prepared(InitSpec(budget=0.5, delta=delta, seed=7),
                                   grid, params, EOS)
        solver = CompressibleSolver(grid, params, EOS,
                                    SolverConfig(dt=1e-3, t_end=0.05))
        traj = solver.run(st, cadence=50)
        assert traj.status == "ok", traj.abort_reason
        st_cache[delta] = traj


def test_single_mode_amplification_oracle(grid):
    # dense 4x4 longitudinal-mode matrix: the implicit update must not
    # amplify at dt = 10 * delta * dx
    params = PhysParams(delta=0.1)
    eos = EOS
    pr, tb, rb = params, params.theta_bar, params.rho_bar
    p_rho = float(eos.p_rho(rb, tb))
    p_theta = float(eos.p_theta(rb, tb))
    e_theta = float(eos.e_theta(rb, tb))
    recip = 1.0 / (rb * e_theta)
    dt = 10.0 * pr.delta * grid.dx
    for kmag in (1.0, 3.0, 8.0, 21.0):
        d2 = pr.delta ** 2
        M4 = np.array([
            [0.0, -1j * rb * kmag, 0.0, 0.0],
            [-1j * p_rho * kmag / (rb * d2), -(2 * pr.mu_bar + pr.lam_bar) * kmag ** 2,
             -1j * p_theta * kmag / (rb * d2), 0.0],
            [0.0, -1j * tb * p_theta * recip * kmag,
             -pr.kappa * recip * kmag ** 2 - 4 * pr.sigma_tilde * tb ** 3 * recip,
             pr.sigma_a * recip],
            [0.0, 0.0, 4 * pr.sigma_tilde * tb ** 3 / pr.delta,
             (-pr.nu * kmag ** 2 - pr.sigma_a) / pr.delta],
        ], dtype=complex)
        amp = np.linalg.inv(np.eye(4) - dt * M4)
        assert np.max(np.abs(np.linalg.eigvals(amp))) <= 1.0 + 1e-12


def test_operator_amplification_all_modes(grid):
    # the factored implicit update never amplifies any mode: neither the
    # inverse 4x4 longitudinal block nor the transverse factor of any shell,
    # read where the operator spreads them onto the modes
    params = PhysParams(delta=0.05)
    dt = 10.0 * params.delta * grid.dx
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=dt, t_end=dt))
    op = solver._stepper.op
    eigs = np.linalg.eigvals(np.moveaxis(op._inv, (0, 1), (-2, -1)))
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-12
    assert np.max(np.abs(op._scale)) <= 1.0 + 1e-12


def test_imex_stepper_releases_symbol(grid):
    # the stepper keeps the factor only: no array of s^2 entries per mode,
    # and the symbol it was built from is freed once the caller drops it
    import weakref
    from rhdlab.model import Background
    from rhdlab.steppers import ImexStepper, split_symbol

    symbol = split_symbol(grid, Background.of(PhysParams(), EOS))
    stepper = ImexStepper("imex2", symbol, 1e-3)
    ref = weakref.ref(symbol)
    del symbol
    assert ref() is None
    arrays = [v for v in vars(stepper.op).values() if isinstance(v, np.ndarray)]
    modes = np.prod(grid.spectral_shape)
    assert arrays and all(a.size < (grid.dim + 3) ** 2 * modes for a in arrays)


@pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
def test_ars222_implicit_update_against_dense_solve(delta, dense_symbol):
    # zero explicit part: one imex2 step is the two-stage SDIRK update
    # y = (I - g dt M)^{-1} X, x = (I - g dt M)^{-1} (X + (1-g) dt M y),
    # solved here densely per mode
    from rhdlab.model import Background
    from rhdlab.steppers import ARS_GAMMA, ImexStepper, split_symbol

    g = SpectralGrid(dim=2, points_per_axis=16)
    params = PhysParams.equilibrium(delta=delta, **OFF_UNIT)
    bg = Background.of(params, OFF_UNIT_EOS)
    dt = 1e-2
    stepper = ImexStepper("imex2", split_symbol(g, bg), dt)
    M = dense_symbol(g, bg)
    rng = np.random.default_rng(5)
    X = (rng.standard_normal((g.dim + 3,) + g.spectral_shape)
         + 1j * rng.standard_normal((g.dim + 3,) + g.spectral_shape))
    got = stepper.step(X, np.zeros_like)

    # half-spectrum indices: (13, 2) and (9, 7) are the stored conjugates of
    # the modes (3, -2) and (7, -7), which the half layout leaves out
    A = np.eye(g.dim + 3) - ARS_GAMMA * dt * M.transpose(2, 3, 0, 1)
    for mode in [(0, 0), (1, 0), (0, 1), (13, 2), (5, 5), (12, 2), (9, 7),
                 (8, 3), (8, 8)]:
        Mk, Ak, Xk = M[(...,) + mode], A[mode], X[(...,) + mode]
        y = np.linalg.solve(Ak, Xk)
        want = np.linalg.solve(Ak, Xk + (1.0 - ARS_GAMMA) * dt * (Mk @ y))
        err = np.linalg.norm(got[(...,) + mode] - want)
        assert err <= 1e-10 * np.linalg.norm(want), mode


def test_linearized_operator_matches_momentum_form(grid, monkeypatch):
    # the symbol the linearized probe factors is the linear part of the
    # momentum form: on data of size 1e-7 the remainders are 1e-7 relative
    from rhdlab import linearized, steppers

    params = PhysParams.equilibrium(delta=0.1, **OFF_UNIT)
    ops = []

    # record the split symbol the probe factors
    class RecordingOperator(steppers.ImexOperator):
        def __init__(self, symbol, coeff):
            ops.append(symbol)
            super().__init__(symbol, coeff)

    monkeypatch.setattr(steppers, "ImexOperator", RecordingOperator)
    st = smooth_state(grid, params, seed=4, amp=1e-7)
    nrel = (st.rho - params.rho_bar) / params.rho_bar
    mom = st.rho * st.u / params.rho_bar
    dth, drad = st.theta - params.theta_bar, st.rad - params.n_bar
    problem = linearized.LinearizedProblem(
        linearized.constant_coefficient(1.0), nrel, mom, dth, drad,
        horizon=0.0)
    linearized.solve_linearized(grid, problem, params, OFF_UNIT_EOS, dt=1e-3)

    d = grid.dim
    X = np.concatenate([grid.fft(nrel)[None], grid.fft(mom),
                        grid.fft(dth)[None], grid.fft(drad)[None]])
    LX = ops[0].apply(grid.mask_spectral(X))
    linear = (grid.ifft(LX[0]), grid.ifft(LX[1:1 + d]), grid.ifft(LX[d + 1]),
              grid.ifft(LX[d + 2]))
    full = rhs_momentum_form(grid, nrel, mom, dth, drad, params, OFF_UNIT_EOS)
    for a, b in zip(full, linear):
        assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(a))


@pytest.mark.parametrize("dim,scheme,limit", [
    (2, "imex1", 23), (2, "imex2", 46), (3, "imex1", 34), (3, "imex2", 68)])
def test_transforms_per_step(dim, scheme, limit, transforms):
    # field transforms through SpectralGrid.fft/ifft in one perturbation step
    g = SpectralGrid(dim=dim, points_per_axis=16)
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=3),
                               g, params, EOS)
    solver = CompressibleSolver(g, params, EOS,
                                SolverConfig(dt=1e-3, t_end=1e-3,
                                             scheme=scheme))
    X = solver.pack(st.to_perturbation(params))
    transforms[0] = 0
    solver.step_spectral(X)
    assert 0 < transforms[0] <= limit


@pytest.mark.parametrize("dim,scheme,fields", [
    (2, "imex1", 21), (2, "imex2", 42), (3, "imex1", 31), (3, "imex2", 62)])
def test_one_transform_each_way_per_explicit_evaluation(dim, scheme, fields,
                                                         transforms):
    # every explicit evaluation transforms the state and its derivative
    # fields (with the viscous term formed on the coefficients) back in
    # d + 4 groups, none larger than the state (grad n, each Jacobian row,
    # the viscous term, grad z with lap z), and the remainders forward in
    # one transform
    g = SpectralGrid(dim=dim, points_per_axis=16)
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=3),
                               g, params, EOS)
    solver = CompressibleSolver(g, params, EOS,
                                SolverConfig(dt=1e-3, t_end=1e-3,
                                             scheme=scheme))
    X = solver.pack(st.to_perturbation(params))
    transforms[0] = 0
    transforms[1].clear()
    transforms[2].clear()
    N = solver._explicit(X)
    assert N.shape == (dim + 3,) + g.spectral_shape
    assert dict(transforms[1]) == {"ifft": dim + 4, "fft": 1}
    assert transforms[2]["ifft"] == dim + 3
    transforms[0] = 0
    solver.step_spectral(X)
    assert transforms[0] == fields
    assert solver._stepper.op._inv.shape == (4, 4) + g.spectral_shape


def _stacked_derivatives(grid, X, a, b):
    """The fields of ``compressible._derivatives`` from one stacked inverse
    transform of the state and every derivative coefficient."""
    g, d, s = grid, grid.dim, len(X)
    ik, vhat, zhat = g.ik, X[1:1 + d], X[d + 1]
    Y = np.empty((s + d * d + 3 * d + 1,) + g.spectral_shape, dtype=X.dtype)
    Y[:s] = X
    np.multiply(ik, X[0], out=Y[s:s + d])
    jac = Y[s + d:s + d + d * d].reshape((d, d) + g.spectral_shape)
    np.multiply(ik, vhat[:, np.newaxis], out=jac)
    visc = Y[s + d + d * d:s + 2 * d + d * d]
    np.multiply(b * ik, np.trace(jac, axis1=0, axis2=1), out=visc)
    visc -= a * g.ksq * vhat
    np.multiply(ik, zhat, out=Y[s + 2 * d + d * d:-1])
    np.multiply(-g.ksq, zhat, out=Y[-1])
    x = g.ifft(Y)
    n, v, z, gg, grad_n, jac, visc, grad_z, lap_z = np.split(
        x, np.cumsum([1, d, 1, 1, d, d * d, d, d]))
    jac = jac.reshape((d, d) + g.shape)
    return (n[0], v, z[0], gg[0], grad_n, jac, visc,
            np.trace(jac, axis1=0, axis2=1), grad_z, lap_z[0])


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("form", ["velocity", "momentum"])
def test_grouped_derivatives_match_stacked_transform(dim, n, dealias, form):
    # transforming the derivative fields group by group changes no bit of
    # any returned field
    g = SpectralGrid(dim=dim, points_per_axis=n, dealias=dealias)
    pr = PhysParams.equilibrium(delta=0.1, **OFF_UNIT)
    a, b = ((pr.mu, pr.mu + pr.lam) if form == "velocity"
            else (pr.mu_bar, pr.mu_bar + pr.lam_bar))
    rng = np.random.default_rng(dim)
    X = g.mask_spectral(g.fft(rng.standard_normal((dim + 3,) + g.shape)))
    got = _derivatives(g, X, a, b)
    want = _stacked_derivatives(g, X, a, b)
    assert len(got) == len(want)
    for f, f0 in zip(got, want):
        assert f.shape == f0.shape
        assert np.array_equal(f, f0)


def test_explicit_evaluation_traced_peak_3d():
    # one explicit evaluation at 16^3 holds at most 1.8 times its point
    # values (the stacked transform held 2.17 times)
    g = SpectralGrid(dim=3, points_per_axis=16)
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=3),
                               g, params, EOS)
    solver = CompressibleSolver(g, params, EOS,
                                SolverConfig(dt=1e-3, t_end=1e-3))
    X = solver.pack(st.to_perturbation(params))
    d = g.dim
    point_bytes = (d + 3 + d * d + 3 * d + 1) * np.zeros(g.shape).nbytes
    tracemalloc.start()
    try:
        solver._explicit(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * point_bytes


def test_radiation_relaxation_against_ode_oracle(grid):
    # u = 0, uniform (dtheta, drad): the exchange subsystem collapses to a
    # 2x2 linear ODE; the run must track its matrix exponential and the
    # disequilibrium must decay monotonically
    from scipy.linalg import expm

    params = PhysParams(delta=0.1)
    z0, g0 = 1e-4, -5e-5
    pert = PerturbationState(np.zeros(grid.shape),
                             np.zeros((2,) + grid.shape),
                             np.full(grid.shape, z0), np.full(grid.shape, g0))
    dt, t_end = 1e-3, 0.3
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=dt, t_end=t_end, scheme="imex2"))
    traj = solver.run(pert, cadence=20,
                      observer=lambda X, t: (t, float(grid.ifft(X[3])[0, 0]),
                                             float(grid.ifft(X[4])[0, 0])))
    e_theta = 1.0
    A = np.array([[-4.0 / (params.rho_bar * e_theta), 1.0 / (params.rho_bar * e_theta)],
                  [4.0 / params.delta, -1.0 / params.delta]])
    # the run carries the quartic remainder the linear oracle lacks, an
    # O(z0) relative effect; the tolerance sits well above it
    zscale, gscale = abs(z0), 4.0 * abs(z0) + abs(g0)
    resid_prev = np.inf
    for (t, z, gg) in traj.records:
        zex, gex = expm(A * t) @ np.array([z0, g0])
        assert abs(z - zex) < 5e-3 * zscale
        assert abs(gg - gex) < 5e-3 * gscale
        resid = abs(4.0 * z - gg)
        assert resid <= resid_prev + 1e-15
        resid_prev = resid


def test_run_aborts_and_reports_last_valid_time(grid):
    # invariant violations end the run with an aborted report carrying the
    # last valid time instead of raising
    params = PhysParams(delta=0.5)
    x = grid.grid_points()
    u = np.stack([50.0 + 0.1 * np.sin(x[0]), np.zeros(grid.shape)])
    pert = PerturbationState(np.zeros(grid.shape), u,
                             np.zeros(grid.shape), np.zeros(grid.shape))
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=0.05, t_end=1.0,
                                             positivity_interval=1))
    traj = solver.run(pert, cadence=1)
    assert traj.status == "aborted"
    assert traj.abort_time is not None
    assert "advective" in traj.abort_reason


def test_negative_radiation_points_counts_observations_below_zero():
    # a radiation dip below -n_bar fills in under diffusion and exchange;
    # the run counts the observations whose radiation n_bar + drad has a
    # negative point, checked or not, as an oracle on the observed state does
    grid = SpectralGrid(dim=2, points_per_axis=16)
    params = PhysParams(delta=0.1)
    x = grid.grid_points()
    bump = np.exp(np.cos(x[0]) + np.cos(x[1]) - 2.0)
    zero = np.zeros(grid.shape)
    pert = PerturbationState(zero, np.zeros((2,) + grid.shape), zero,
                             -1.3 * bump)
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=0.3))
    traj = solver.run(pert, cadence=1, observer=lambda X, t: bool(
        np.min(params.n_bar + grid.ifft(X[grid.dim + 2])) < 0.0))
    assert traj.status == "ok" and len(traj.records) == 301
    assert traj.negative_radiation_points == sum(traj.records)
    assert 0 < traj.negative_radiation_points < len(traj.records)


def test_run_unpacks_each_state_once(grid):
    # checking and observing the same step share one unpacked state, and the
    # final state reuses the last one
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=2),
                               grid, params, EOS)
    nsteps = 5
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=nsteps * 1e-3,
                                             positivity_interval=1))
    calls = [0]
    unpack = solver.unpack

    def counted(X, time):
        calls[0] += 1
        return unpack(X, time)

    solver.unpack = counted
    traj = solver.run(st, cadence=1)
    assert traj.status == "ok"
    assert len(traj.times) == nsteps + 1
    assert calls[0] == nsteps + 1
    assert traj.final_state.time == pytest.approx(nsteps * 1e-3)


def test_run_observes_checked_state_without_transforms(grid, transforms):
    # at cadence 1 with a check every step, observing reuses the checked
    # state: outside the steps, run transforms only to pack the datum and
    # to unpack each state once
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=2),
                               grid, params, EOS)
    nsteps, fields = 4, grid.dim + 3
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=nsteps * 1e-3,
                                             positivity_interval=1))
    in_steps = [0]
    step = solver.step_spectral

    def counted_step(X):
        before = transforms[0]
        out = step(X)
        in_steps[0] += transforms[0] - before
        return out

    solver.step_spectral = counted_step
    transforms[0] = 0
    traj = solver.run(st, cadence=1)
    assert traj.status == "ok" and len(traj.times) == nsteps + 1
    assert transforms[0] - in_steps[0] == fields * (nsteps + 2)


def test_run_takes_no_parseval_sum(grid, monkeypatch):
    # every norm of a run comes from its observer: the loop itself sums no
    # squared coefficients
    calls = []
    for name in ("norm_sq", "parseval_density"):
        def counted(self, *args, _name=name, _method=getattr(SpectralGrid, name),
                    **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(SpectralGrid, name, counted)
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=2),
                               grid, params, EOS)
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=4e-3))
    calls.clear()
    traj = solver.run(st, cadence=1, observer=None)
    assert traj.status == "ok" and len(traj.times) == 5
    assert calls == []


def test_bundle_stays_bounded_by_initial(grid):
    # small well-prepared data at delta = 0.1, T = 1: the scaled norm
    # bundle never exceeds a modest multiple of its initial value, and the
    # measured multiple is resolution-stable
    from rhdlab.diagnostics import Collector

    params = PhysParams(delta=0.1)
    cs = {}
    for n in (32, 64):
        g = SpectralGrid(dim=2, points_per_axis=n)
        st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=13),
                                   g, params, EOS)
        solver = CompressibleSolver(g, params, EOS,
                                    SolverConfig(dt=1e-3, t_end=1.0))
        coll = Collector(g, params, EOS)
        traj = solver.run(st, cadence=20, observer=coll.observe)
        assert traj.status == "ok"
        cs[n] = (max(r.bundle_sup for r in traj.records)
                 / traj.records[0].bundle_sup)
        assert cs[n] <= 10.0
    assert abs(cs[64] - cs[32]) < 0.5 * max(cs[64], cs[32])


def test_default_dt(grid):
    u = np.zeros((2,) + grid.shape)
    assert default_dt(grid, u) == pytest.approx(0.25 * grid.dx)
    u[0] += 4.0
    assert default_dt(grid, u) == pytest.approx(0.25 * grid.dx / 4.0)
