import tracemalloc
from itertools import product

import numpy as np
import pytest

from rhdlab import compressible, fields, model
from rhdlab.compressible import (CompressibleSolver, CompressibleState,
                                 _derivatives, default_dt, rhs_momentum_form,
                                 rhs_perturbation, rhs_primitive)
from rhdlab.fields import SpectralGrid
from rhdlab.initial import InitSpec, make_well_prepared, random_band_scalar
from rhdlab.model import Background, DomainError, IdealGasEOS, PhysParams
from rhdlab.steppers import pack_state, split_symbol, unpack_state


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


def primitive(params, drho, u, dtheta, drad):
    """The primitive state at the given deviations from the background."""
    return CompressibleState(params.rho_bar + drho, u,
                             params.theta_bar + dtheta, params.n_bar + drad)


def smooth_state(grid, params, seed, amp=1e-3):
    rng = np.random.default_rng(seed)
    f = lambda: amp * random_band_scalar(grid, rng, 3.0)
    drho = params.rho_bar * f()
    dth = params.theta_bar * f()
    drad = f()
    u = np.stack([f() for _ in range(grid.dim)])
    return primitive(params, drho, u, dth, drad)


def test_solver_config_validation():
    # the step and the scheme are refused by the stepper the solver builds,
    # with the one error that lists the schemes
    g = SpectralGrid(dim=2, points_per_axis=8)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    with pytest.raises(ValueError, match="imex1"):
        CompressibleSolver(g, bg, -1.0)
    with pytest.raises(ValueError, match="imex1"):
        CompressibleSolver(g, bg, 0.1, scheme="rk4")


def test_state_validation(grid):
    params = PhysParams()
    st = equilibrium_state(grid, params)
    st.validate(grid)
    bad = CompressibleState(st.rho * 0.0, st.u, st.theta, st.rad)
    with pytest.raises(DomainError):
        bad.validate(grid)


@pytest.mark.parametrize("field, bad, reason", [
    ("rho", lambda f: f[:-1], r"^rho has shape \(63, 64\), expected \(64, 64\)$"),
    ("u", lambda f: f[:1], r"^u has wrong shape$"),
    ("u", lambda f: np.where(f == f[0, 3, 5], np.inf, f),
     r"^u contains non-finite values$"),
    ("theta", lambda f: np.where(f == f[7, 2], -0.5, f),
     r"^min theta = -0\.5 <= 0$"),
], ids=["rho-shape", "u-shape", "u-inf", "theta-negative"])
def test_state_validation_refuses_each_bad_field(grid, field, bad, reason):
    # each refusal names its field, the others being valid
    st = smooth_state(grid, PhysParams(), seed=5)
    st.validate(grid)
    broken = CompressibleState(**{**vars(st), field: bad(getattr(st, field))})
    with pytest.raises(DomainError, match=reason):
        broken.validate(grid)


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
    bg = Background.of(PhysParams(delta=0.1), EOS)
    zero, u = np.zeros(grid.shape), np.zeros((2,) + grid.shape)
    for f in rhs_perturbation(grid, zero, u, zero, zero, bg):
        assert np.max(np.abs(f)) == 0.0
    # uniform small dtheta only: leading tendency is -4*dtheta
    eps = 1e-8
    _, _, th_t, _ = rhs_perturbation(grid, zero, u, np.full(grid.shape, eps),
                                     zero, bg)
    assert np.allclose(th_t, -4.0 * eps, rtol=1e-6)


@pytest.mark.parametrize("background", [dict(), OFF_UNIT])
def test_reformulation_equivalences(grid, background):
    params = PhysParams(delta=0.1, **background)
    eos = OFF_UNIT_EOS if background else EOS
    bg = Background.of(params, eos)
    for seed in range(3):
        st = smooth_state(grid, params, seed)
        drho, dtheta = st.rho - params.rho_bar, st.theta - params.theta_bar
        drad = st.rad - params.n_bar
        rho_t, u_t, th_t, n_t = rhs_primitive(grid, st, params, eos)
        mapped = [grid.mask(rho_t), grid.mask(u_t), grid.mask(th_t), grid.mask(n_t)]
        assembled = rhs_perturbation(grid, drho, st.u, dtheta, drad, bg)
        for a, b in zip(mapped, assembled):
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))
        nrel = drho / params.rho_bar
        mom = st.rho * st.u / params.rho_bar
        mapped_m = [grid.mask(rho_t / params.rho_bar),
                    grid.mask((rho_t * st.u + st.rho * u_t) / params.rho_bar),
                    grid.mask(th_t), grid.mask(n_t)]
        assembled_m = rhs_momentum_form(grid, nrel, mom, dtheta, drad, bg)
        for a, b in zip(mapped_m, assembled_m):
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def test_momentum_form_remainders_complete_the_symbol():
    # the relative-density symbol plus model.momentum_form_remainders, and
    # nothing else, is the momentum form: every viscous term on u = m/(1 +
    # nrel) beyond the symbol's is in the remainders
    g = SpectralGrid(dim=2, points_per_axis=32)
    params = PhysParams(delta=0.1, **OFF_UNIT)
    bg = Background.of(params, OFF_UNIT_EOS)
    for seed in range(3):
        st = smooth_state(g, params, seed)
        nrel = (st.rho - params.rho_bar) / params.rho_bar
        mom = st.rho * st.u / params.rho_bar
        X = pack_state(g, nrel, mom, st.theta - params.theta_bar,
                       st.rad - params.n_bar)
        r_mom, r_temp, r_rad = model.momentum_form_remainders(
            *_derivatives(g, X, params.mu_bar, params.mu_bar + params.lam_bar),
            g.jacobian(g.ik * X[0]), bg)
        assembled = unpack_state(g, split_symbol(
            g, bg, relative_density=True).apply(X) + pack_state(
            g, np.zeros_like(r_temp), r_mom, r_temp, r_rad / params.delta))
        rho_t, u_t, th_t, n_t = rhs_primitive(g, st, params, OFF_UNIT_EOS)
        mapped = (rho_t / params.rho_bar,
                  (rho_t * st.u + st.rho * u_t) / params.rho_bar, th_t, n_t)
        for a, b in zip(mapped, assembled):
            a = g.mask(a)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


@pytest.mark.parametrize("scheme", ["imex1", "imex2"])
def test_equilibrium_fixed_point(grid, scheme):
    params = PhysParams(delta=0.05)
    bg = Background.of(params, EOS)
    solver = CompressibleSolver(grid, bg, 0.01, scheme)
    traj = solver.run(solver.pack(equilibrium_state(grid, params)), 1.0,
                      cadence=100)
    assert traj.status == "ok"
    worst = max(np.max(np.abs(f)) for f in traj.final_state)
    assert worst < 1e-12


def test_mass_conservation(grid):
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=5),
                               grid, bg)
    mass0 = np.mean(st.rho) * grid.volume
    solver = CompressibleSolver(grid, bg, 1e-3)
    traj = solver.run(solver.pack(st), 0.05, cadence=10)
    mass1 = np.mean(params.rho_bar + traj.final_state[0]) * grid.volume
    assert abs(mass1 - mass0) < 1e-12 * mass0


def test_delta_uniform_stability(grid):
    # same grid and dt across the Mach sweep: every run completes
    st_cache = {}
    for delta in (0.2, 0.1, 0.05, 0.025):
        bg = Background.of(PhysParams(delta=delta), EOS)
        st, _ = make_well_prepared(InitSpec(budget=0.5, seed=7),
                                   grid, bg)
        solver = CompressibleSolver(grid, bg, 1e-3)
        traj = solver.run(solver.pack(st), 0.05, cadence=50)
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
    # 4x4 longitudinal update of any mode, read column by column off the
    # solves of the four longitudinal unit states (n, k^, z, g), nor the
    # transverse factor the operator spreads onto the modes
    params = PhysParams(delta=0.05)
    bg = Background.of(params, EOS)
    dt = 10.0 * params.delta * grid.dx
    op = CompressibleSolver(grid, bg, dt)._stepper.op
    d, khat = grid.dim, split_symbol(grid, bg).khat
    update = np.empty((4, 4) + grid.spectral_shape, complex)
    for j in range(4):
        X = np.zeros((d + 3,) + grid.spectral_shape, complex)
        if j == 1:
            X[1:1 + d] = khat
        else:
            X[(0, None, d + 1, d + 2)[j]] = 1.0
        Y = op.solve(X)
        update[:, j] = (Y[0], np.sum(khat * Y[1:1 + d], axis=0), Y[d + 1],
                        Y[d + 2])
    eigs = np.linalg.eigvals(np.moveaxis(update, (0, 1), (-2, -1)))
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-12
    assert np.max(np.abs(op._scale)) <= 1.0 + 1e-12


def test_imex_stepper_releases_symbol(grid):
    # the stepper keeps the factor only: no array of s^2 entries per mode,
    # and the symbol it was built from is freed once the caller drops it
    import weakref
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
    from rhdlab.steppers import ARS_GAMMA, ImexStepper, split_symbol

    g = SpectralGrid(dim=2, points_per_axis=16)
    params = PhysParams(delta=delta, **OFF_UNIT)
    bg = Background.of(params, OFF_UNIT_EOS)
    dt = 1e-2
    stepper = ImexStepper("imex2", split_symbol(g, bg), dt)
    M = dense_symbol(g, bg)
    rng = np.random.default_rng(5)
    X = (rng.standard_normal((g.dim + 3,) + g.spectral_shape)
         + 1j * rng.standard_normal((g.dim + 3,) + g.spectral_shape))
    got = stepper.step(X, np.zeros_like)

    # indices on the 11 x 6 box (|k_i| <= 5): (8, 2) and (6, 5) are the
    # stored conjugates of the modes (3, -2) and (5, -5), which the half
    # layout leaves out; (5, 5) and (6, 5) are corners of the box
    A = np.eye(g.dim + 3) - ARS_GAMMA * dt * M.transpose(2, 3, 0, 1)
    for mode in [(0, 0), (1, 0), (0, 1), (8, 2), (5, 5), (7, 2), (6, 5),
                 (10, 3), (10, 0)]:
        Mk, Ak, Xk = M[(...,) + mode], A[mode], X[(...,) + mode]
        y = np.linalg.solve(Ak, Xk)
        want = np.linalg.solve(Ak, Xk + (1.0 - ARS_GAMMA) * dt * (Mk @ y))
        err = np.linalg.norm(got[(...,) + mode] - want)
        assert err <= 1e-10 * np.linalg.norm(want), mode


def test_linearized_operator_matches_momentum_form(grid, monkeypatch):
    # the symbol the linearized probe factors is the linear part of the
    # momentum form: on data of size 1e-7 the remainders are 1e-7 relative
    from rhdlab import linearized, steppers

    params = PhysParams(delta=0.1, **OFF_UNIT)
    bg = Background.of(params, OFF_UNIT_EOS)
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
        (0.0,), nrel, mom, dth, drad,
        horizon=0.0)
    linearized.solve_linearized(grid, problem, bg, dt=1e-3)

    d = grid.dim
    X = np.concatenate([grid.fft(nrel)[None], grid.fft(mom),
                        grid.fft(dth)[None], grid.fft(drad)[None]])
    LX = ops[0].apply(X)
    linear = (grid.ifft(LX[0]), grid.ifft(LX[1:1 + d]), grid.ifft(LX[d + 1]),
              grid.ifft(LX[d + 2]))
    full = rhs_momentum_form(grid, nrel, mom, dth, drad, bg)
    for a, b in zip(full, linear):
        assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(a))


@pytest.mark.parametrize("dim,scheme,limit", [
    (2, "imex1", 17), (2, "imex2", 34), (3, "imex1", 21), (3, "imex2", 42)])
def test_transforms_per_step(dim, scheme, limit, transforms):
    # field transforms in one perturbation step, at most the ones a step
    # makes: 3 d + 6 inverse and d + 3 forward per explicit evaluation
    g = SpectralGrid(dim=dim, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3),
                               g, bg)
    solver = CompressibleSolver(g, bg, 1e-3, scheme)
    X = solver.pack(st)
    transforms[0] = 0
    solver.step_spectral(X)
    assert 0 < transforms[0] <= limit


@pytest.mark.parametrize("dim,scheme,fields", [
    (2, "imex1", 17), (2, "imex2", 34), (3, "imex1", 21), (3, "imex2", 42)])
def test_one_transform_each_way_per_explicit_evaluation(dim, scheme, fields,
                                                         transforms):
    # every explicit evaluation runs the x_0 pass of the state and of its
    # derivative fields in 3 groups, none larger than the state (the state,
    # the viscous term, formed on the coefficients, with lap z, and the
    # derivatives along x_0 of n, v and z), 3 d + 6 fields, not the (d +
    # 2)^2 derivative fields: the derivatives along the other axes are
    # formed on the partials.  The x_0 pass of the remainders runs in one
    # call; the other passes run slab by slab
    g = SpectralGrid(dim=dim, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3),
                               g, bg)
    solver = CompressibleSolver(g, bg, 1e-3, scheme)
    X = solver.pack(st)
    transforms[0] = 0
    transforms[1].clear()
    transforms[2].clear()
    transforms[3].clear()
    N = solver._explicit(X)
    assert N.shape == (dim + 3,) + g.spectral_shape
    assert dict(transforms[1]) == {"ifft": 3, "fft": 1}
    assert transforms[2]["ifft"] == dim + 3
    assert dict(transforms[3]) == {"ifft": 3 * dim + 6, "fft": dim + 3}
    transforms[0] = 0
    solver.step_spectral(X)
    assert transforms[0] == fields
    assert all(np.shape(f) in ((), g.spectral_shape)
               for f in solver._stepper.op._factors)


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


def _assert_close(got, want):
    """Every field of ``got`` within 8 eps of the largest ``|value|`` of
    its field of ``want``: a derivative formed on partials differs from
    the transform of its coefficients by round-off, at most 2.5 eps over
    2D grids of 8 to 128 points and 3D ones of 8 to 48, dealiased or not,
    at extent 2 pi and 3."""
    assert len(got) == len(want)
    for f, f0 in zip(got, want):
        assert f.shape == f0.shape
        scale = np.max(np.abs(f0))
        assert np.max(np.abs(f - f0)) <= 8 * np.finfo(float).eps * scale


@pytest.mark.parametrize("dim,n,extent", [
    pytest.param(2, 16, 2 * np.pi, id="2-16"),
    pytest.param(3, 8, 2 * np.pi, id="3-8"),
    pytest.param(2, 16, 3.0, id="2-16-extent3"),
    pytest.param(3, 8, 3.0, id="3-8-extent3"),
    pytest.param(3, 48, 3.0, id="3-48-extent3")])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("form", ["velocity", "momentum"])
def test_grouped_derivatives_match_stacked_transform(dim, n, extent, dealias,
                                                     form):
    # transforming the derivative fields group by group, and forming those
    # along x_1, ..., x_{d-1} on the partials, moves no field beyond
    # round-off (at 48^3 in 16 slabs of 3 rows), and no bit of a field
    # that is transformed: the state, the viscous term, lap z and every
    # derivative along x_0
    g = SpectralGrid(dim=dim, points_per_axis=n, extent=extent,
                     dealias=dealias)
    pr = PhysParams(delta=0.1, **OFF_UNIT)
    a, b = ((pr.mu, pr.mu + pr.lam) if form == "velocity"
            else (pr.mu_bar, pr.mu_bar + pr.lam_bar))
    rng = np.random.default_rng(dim)
    X = g.fft(rng.standard_normal((dim + 3,) + g.shape))
    got = _derivatives(g, X, a, b)
    want = _stacked_derivatives(g, X, a, b)
    _assert_close(got, want)
    for i in (0, 1, 2, 3, 6, 9):
        assert np.array_equal(got[i], want[i])
    for i in (4, 8):
        assert np.array_equal(got[i][0], want[i][0])
    assert np.array_equal(got[5][:, 0], want[5][:, 0])


def _full_array_evaluation(grid, X, bg):
    """The explicit evaluation over whole fields, the oracle of the slab
    one: every derivative point value at once, from one stacked inverse
    transform (:func:`_stacked_derivatives`, which :func:`_derivatives`
    matches to round-off), the remainders of the whole
    grid, the radiation row given its weight, and one forward transform of
    the block."""
    pr, d = bg.params, grid.dim
    block = np.empty((d + 3,) + grid.shape)
    model.velocity_form_remainders(
        *_stacked_derivatives(grid, X, pr.mu, pr.mu + pr.lam), bg, out=block)
    block[-1] /= bg.delta
    return grid.fft(block)


@pytest.mark.parametrize("dim,n,dealias,extent,ragged", [
    (2, 16, True, 2 * np.pi, False), (2, 16, False, 2 * np.pi, False),
    (2, 16, True, 3.0, False), (2, 16, True, 2 * np.pi, True),
    (3, 16, True, 2 * np.pi, False), (3, 16, False, 2 * np.pi, False),
    (3, 16, True, 3.0, False), (3, 16, True, 2 * np.pi, True)])
def test_slab_evaluation_matches_full_array_oracle(monkeypatch, dim, n,
                                                   dealias, extent, ragged):
    # the evaluation slab by slab between the transforms' passes along x_0,
    # with the derivatives along x_1, ..., x_{d-1} formed on the partials,
    # moves each row of the remainders' coefficients by round-off only: in
    # d + 1 slabs, and ragged, in slabs of 3 rows and a last one of 1
    if ragged:
        monkeypatch.setattr(fields, "_SLAB_POINTS", 3 * n ** (dim - 1))
    g = SpectralGrid(dim=dim, points_per_axis=n, extent=extent,
                     dealias=dealias)
    rows = g._slab
    assert (rows, n % rows) == (3, 1) if ragged else -(-n // rows) == dim + 1
    bg = Background.of(PhysParams(delta=0.1, **OFF_UNIT), OFF_UNIT_EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3), g, bg)
    solver = CompressibleSolver(g, bg, 1e-3)
    X = solver.pack(st)
    _assert_close(solver._explicit(X), _full_array_evaluation(g, X, bg))


@pytest.mark.parametrize("dim", [2, 3])
def test_slab_evaluation_does_not_depend_on_the_slab_size(dim):
    # one whole slab, the grid's d + 1 slabs and slabs of 3 rows with a
    # last one of 1 give the same remainders, bit for bit
    g = SpectralGrid(dim=dim, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1, **OFF_UNIT), OFF_UNIT_EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3), g, bg)
    solver = CompressibleSolver(g, bg, 1e-3)
    X = solver.pack(st)
    assert -(-g.n // g._slab) == dim + 1
    want = solver._explicit(X)
    for rows in (g.n, 3):
        g._slab = rows
        assert np.array_equal(solver._explicit(X), want), rows


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("field", ["rho", "theta"])
def test_slab_evaluation_refuses_a_nonpositive_point_in_the_last_slab(dim,
                                                                      field):
    # one nonpositive point of rho or theta, on the last row along x_0 and
    # so in the last slab, raises the full-array evaluation's DomainError
    g = SpectralGrid(dim=dim, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1, **OFF_UNIT), OFF_UNIT_EOS)
    pr, d, n = bg.params, dim, g.n
    # a smooth well, 1 at the node (n - 1, 0, ...) and at most 0.962 at
    # every other node, sunk to 1.01 times the background value
    well = np.prod([0.5 * (1.0 + np.cos(x - c)) for x, c in
                    zip(g.grid_points(), [(n - 1) * g.dx] + [0.0] * (d - 1))],
                   axis=0)
    zero = np.zeros(g.shape)
    deviation = {"rho": (-1.01 * pr.rho_bar * well, zero),
                 "theta": (zero, -1.01 * pr.theta_bar * well)}[field]
    X = pack_state(g, deviation[0], np.zeros((d,) + g.shape), deviation[1],
                   zero)
    p = unpack_state(g, X)
    value = {"rho": pr.rho_bar + p[0], "theta": pr.theta_bar + p[2]}[field]
    bad = np.argwhere(value <= 0.0)
    assert len(bad) == 1 and bad[0][0] == n - 1
    with pytest.raises(DomainError) as want:
        _full_array_evaluation(g, X, bg)
    with pytest.raises(DomainError) as got:
        CompressibleSolver(g, bg, 1e-3)._explicit(X)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"{field} must be positive and finite"


def _evaluation_peak(dim, n, dealias=True):
    """Traced peak of one explicit evaluation, in units of its ``(d +
    2)^2`` fields of point values."""
    bg = Background.of(PhysParams(delta=0.1), EOS)
    g = SpectralGrid(dim=dim, points_per_axis=n, dealias=dealias)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3), g, bg)
    solver = CompressibleSolver(g, bg, 1e-3)
    X = solver.pack(st)
    point_bytes = (dim + 2) ** 2 * np.zeros(g.shape).nbytes
    tracemalloc.start()
    try:
        solver._explicit(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / point_bytes


def test_explicit_evaluation_traced_peak_3d():
    # one explicit evaluation holds the x_0 partials of its 3 d + 6
    # transformed fields (0.29 times the point values of its (d + 2)^2
    # derivative fields at 48^3), which the remainders' partials take over
    # row by row, and one slab of the rest: 0.93 times the point values at
    # 16^3 (4 slabs) and 0.45 times at 48^3 (16 slabs), bounded at the
    # peak plus 0.1
    for n, bound in ((16, 1.05), (48, 0.55)):
        assert _evaluation_peak(3, n) < bound, n


def test_explicit_evaluation_holds_no_partials_of_derivatives_along_x1():
    # the derivatives along x_1, ..., x_{d-1} are formed on partials and
    # hold none of their own: at 32^3 the evaluation holds 0.86 times its
    # derivative point values (1.08 when every derivative field had its
    # partials), and 1.40 times at 16^3 undealiased, whose partials keep
    # the whole half spectrum (1.71)
    assert _evaluation_peak(3, 32) < 1.0
    assert _evaluation_peak(3, 16, dealias=False) < 1.6


@pytest.mark.parametrize("dim,n", [(2, 64), (3, 24)])
def test_partials_phase_holds_one_coefficient_group(dim, n):
    # while the x_0 passes fill the partials, a coefficient group is dropped
    # once passed and the viscous term once its group is formed: above the
    # partials the phase holds at most two state-sized stacks, one group and
    # the temporaries that form the next (8.1 at 64^2, 10.0 at 24^3 fields
    # of coefficients; 13.2 and 15.1 when the last group and the viscous
    # term lived on)
    g = SpectralGrid(dim=dim, points_per_axis=n)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((dim + 3,) + g.spectral_shape) + 0j
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        p = g._partials(compressible._derivative_coefficients(g, X, 0.1, 0.2),
                        3 * dim + 6)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak - p.nbytes <= 2 * X.nbytes


def test_explicit_evaluation_traced_peak_2d():
    # at 128^2 (3 slabs) the evaluation holds 1.22 times its point values
    assert _evaluation_peak(2, 128) < 1.35


def test_run_holds_no_point_values_across_a_step(monkeypatch):
    # the point values of an invariant check are dropped before the next
    # step: at each step's entry the run holds less than one (d + 3)-field
    # stack of them above its start
    g = SpectralGrid(dim=3, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3), g, bg)
    monkeypatch.setattr(compressible, "CHECK_EVERY", 1)
    solver = CompressibleSolver(g, bg, 1e-3)
    stack = (g.dim + 3) * np.zeros(g.shape).nbytes
    held, step = [], solver.step_spectral

    def traced_step(X):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return step(X)

    solver.step_spectral = traced_step
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = solver.run(solver.pack(st), 3e-3)
    finally:
        tracemalloc.stop()
    assert traj.status == "ok" and len(held) == 3
    assert max(held) < stack, (held, stack)


def test_radiation_relaxation_against_ode_oracle(grid):
    # u = 0, uniform (dtheta, drad): the exchange subsystem collapses to a
    # 2x2 linear ODE; the run must track its matrix exponential and the
    # disequilibrium must decay monotonically
    from scipy.linalg import expm

    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    z0, g0 = 1e-4, -5e-5
    st = primitive(params, np.zeros(grid.shape), np.zeros((2,) + grid.shape),
                   np.full(grid.shape, z0), np.full(grid.shape, g0))
    dt, t_end = 1e-3, 0.3
    solver = CompressibleSolver(grid, bg, dt, "imex2")
    traj = solver.run(solver.pack(st), t_end, cadence=20,
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


def test_run_aborts_and_reports_last_valid_time(grid, monkeypatch):
    # invariant violations end the run with an aborted report carrying the
    # last valid time instead of raising
    params = PhysParams(delta=0.5)
    bg = Background.of(params, EOS)
    x = grid.grid_points()
    u = np.stack([50.0 + 0.1 * np.sin(x[0]), np.zeros(grid.shape)])
    zero = np.zeros(grid.shape)
    st = primitive(params, zero, u, zero, zero)
    monkeypatch.setattr(compressible, "CHECK_EVERY", 1)
    solver = CompressibleSolver(grid, bg, 0.05)
    traj = solver.run(solver.pack(st), 1.0, cadence=1)
    assert traj.status == "aborted"
    assert traj.abort_time is not None
    assert "advective" in traj.abort_reason


def test_negative_radiation_points_counts_observations_below_zero():
    # a radiation dip below -n_bar fills in under diffusion and exchange;
    # the run counts the observations whose radiation n_bar + drad has a
    # negative point, checked or not, as an oracle on the observed state does
    grid = SpectralGrid(dim=2, points_per_axis=16)
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    x = grid.grid_points()
    bump = np.exp(np.cos(x[0]) + np.cos(x[1]) - 2.0)
    zero = np.zeros(grid.shape)
    st = primitive(params, zero, np.zeros((2,) + grid.shape), zero,
                   -1.3 * bump)
    solver = CompressibleSolver(grid, bg, 1e-3)
    traj = solver.run(solver.pack(st), 0.3, cadence=1,
                      observer=lambda X, t: bool(np.min(
                          params.n_bar + grid.ifft(X[grid.dim + 2])) < 0.0))
    assert traj.status == "ok" and len(traj.records) == 301
    assert traj.negative_radiation_points == sum(traj.records)
    assert 0 < traj.negative_radiation_points < len(traj.records)


@pytest.mark.parametrize("dim", [2, 3])
def test_pack_transforms_the_deviations_in_one_stack(dim):
    # the deviations, transformed one field at a time, are bit for bit the
    # one stacked transform of the differences from the background, where
    # a group holds many fields (16^2, 16^3) and one (48^3), dealiased or
    # not
    bg = Background.of(PhysParams(delta=0.1), EOS)
    pr = bg.params
    for n, dealias in product((16, 48) if dim == 3 else (16,),
                              (True, False)):
        g = SpectralGrid(dim=dim, points_per_axis=n, dealias=dealias)
        st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2), g, bg)
        want = g.fft(np.stack([st.rho - pr.rho_bar, *st.u,
                               st.theta - pr.theta_bar, st.rad - pr.n_bar]))
        got = CompressibleSolver(g, bg, 1e-3).pack(st)
        assert np.array_equal(got, want), (n, dealias)


def test_run_unpacks_each_state_once(grid, monkeypatch):
    # checking and observing the same step share one unpacked state, and the
    # final state reuses the last one
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               grid, bg)
    nsteps = 5
    monkeypatch.setattr(compressible, "CHECK_EVERY", 1)
    solver = CompressibleSolver(grid, bg, 1e-3)
    calls = [0]

    def counted(grid, X):
        calls[0] += 1
        return unpack_state(grid, X)

    monkeypatch.setattr(compressible, "unpack_state", counted)
    traj = solver.run(solver.pack(st), nsteps * 1e-3, cadence=1)
    assert traj.status == "ok"
    assert len(traj.times) == nsteps + 1
    assert calls[0] == nsteps + 1
    assert traj.times[-1] == pytest.approx(nsteps * 1e-3)


def test_run_validates_once_on_entry_and_once_per_check(monkeypatch):
    # the entry check of the datum in pack, then one per invariant check of
    # the run: at t = 0, every CHECK_EVERY steps and after the last step
    g = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               g, bg)
    calls = [0]
    validate = CompressibleState.validate

    def counted(self, grid):
        calls[0] += 1
        validate(self, grid)

    monkeypatch.setattr(CompressibleState, "validate", counted)
    for nsteps, interval, checks in ((10, 3, 5), (9, 3, 4), (4, 1, 5),
                                     (3, 10, 2), (0, 2, 1)):
        monkeypatch.setattr(compressible, "CHECK_EVERY", interval)
        solver = CompressibleSolver(g, bg, 1e-3)
        calls[0] = 0
        X = solver.pack(st)
        assert calls[0] == 1
        traj = solver.run(X, nsteps * 1e-3, cadence=2)
        assert traj.status == "ok"
        assert calls[0] == 1 + checks, (nsteps, interval)


@pytest.mark.parametrize("fail_at", [None, 4])
def test_final_state_is_the_unpacked_stepped_state(monkeypatch, fail_at):
    # a finished run ends on the point values of its last state; a run whose
    # check fails ends on the state that failed, not on the one checked
    # before it
    g = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               g, bg)
    nsteps, interval = 6, 2
    monkeypatch.setattr(compressible, "CHECK_EVERY", interval)
    solver = CompressibleSolver(g, bg, 1e-3)
    # validate runs in pack, at t = 0 and then at steps 2, 4, 6
    calls = [0]
    validate = CompressibleState.validate

    def failing(self, grid):
        calls[0] += 1
        if fail_at is not None and calls[0] == 2 + fail_at // interval:
            raise DomainError("injected")
        validate(self, grid)

    monkeypatch.setattr(CompressibleState, "validate", failing)
    traj = solver.run(solver.pack(st), nsteps * 1e-3, cadence=1)
    stepped = fail_at if fail_at is not None else nsteps
    if fail_at is None:
        assert traj.status == "ok"
    else:
        assert traj.status == "aborted" and traj.abort_reason == "injected"
        assert traj.abort_time == pytest.approx((fail_at - 1) * 1e-3)
    X = solver.pack(st)
    for _ in range(stepped):
        X = solver.step_spectral(X)
    want = unpack_state(g, X)
    assert len(traj.final_state) == len(want) == 4
    for got, f in zip(traj.final_state, want):
        assert np.array_equal(got, f)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", [1, 3, 7])
def test_non_finite_coefficient_aborts_on_the_failed_state(monkeypatch, at,
                                                           value):
    # one coefficient of the stepped state turned non-finite ends the run
    # with a reason, no traceback, within one check interval and on the
    # poisoned state; warnings are errors here
    from rhdlab.diagnostics import Collector
    g = SpectralGrid(dim=2, points_per_axis=16)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               g, bg)
    dt, interval = 1e-3, 5
    monkeypatch.setattr(compressible, "CHECK_EVERY", interval)
    solver = CompressibleSolver(g, bg, dt)
    step, steps = solver.step_spectral, []

    def poisoning(X):
        steps.append(step(X))
        if len(steps) == at:
            steps[-1][0, 2, 1] = value
        return steps[-1]

    monkeypatch.setattr(solver, "step_spectral", poisoning)
    for cadence in (1, 100):
        steps.clear()
        traj = solver.run(solver.pack(st), 12 * dt, cadence=cadence,
                          observer=Collector(g, bg).observe)
        assert traj.status == "aborted", cadence
        assert "finite" in traj.abort_reason, traj.abort_reason
        assert len(steps) < at + interval
        assert traj.abort_time < len(steps) * dt
        for got, f in zip(traj.final_state, unpack_state(g, steps[at - 1])):
            assert np.array_equal(got, f, equal_nan=True)
        assert not np.all(np.isfinite(traj.final_state[0]))


def test_run_observes_checked_state_without_transforms(grid, transforms,
                                                        monkeypatch):
    # at cadence 1 with a check every step, observing reuses the checked
    # state: outside the steps, the datum is transformed once, to pack it,
    # and each state once, to unpack it
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               grid, bg)
    nsteps, fields = 4, grid.dim + 3
    monkeypatch.setattr(compressible, "CHECK_EVERY", 1)
    solver = CompressibleSolver(grid, bg, 1e-3)
    in_steps = [0]
    step = solver.step_spectral

    def counted_step(X):
        before = transforms[0]
        out = step(X)
        in_steps[0] += transforms[0] - before
        return out

    solver.step_spectral = counted_step
    transforms[0] = 0
    traj = solver.run(solver.pack(st), nsteps * 1e-3, cadence=1)
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
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, _ = make_well_prepared(InitSpec(budget=0.5, seed=2),
                               grid, bg)
    solver = CompressibleSolver(grid, bg, 1e-3)
    calls.clear()
    traj = solver.run(solver.pack(st), 4e-3, cadence=1, observer=None)
    assert traj.status == "ok" and len(traj.times) == 5
    assert calls == []


def test_bundle_stays_bounded_by_initial(grid):
    # small well-prepared data at delta = 0.1, T = 1: the scaled norm
    # bundle never exceeds a modest multiple of its initial value, and the
    # measured multiple is resolution-stable
    from rhdlab.diagnostics import Collector

    bg = Background.of(PhysParams(delta=0.1), EOS)
    cs = {}
    for n in (32, 64):
        g = SpectralGrid(dim=2, points_per_axis=n)
        st, _ = make_well_prepared(InitSpec(budget=0.5, seed=13),
                                   g, bg)
        solver = CompressibleSolver(g, bg, 1e-3)
        coll = Collector(g, bg)
        traj = solver.run(solver.pack(st), 1.0, cadence=20,
                          observer=coll.observe)
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
