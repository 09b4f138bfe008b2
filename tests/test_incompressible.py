import numpy as np
import pytest

from rhdlab.fields import SpectralGrid
from rhdlab.incompressible import (IncompressibleSolver, taylor_green_pressure,
                                   taylor_green_velocity)
from rhdlab.initial import random_band_scalar


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=2, points_per_axis=64)


def random_divfree(grid, seed, amp=1.0):
    """Coefficients of a random masked divergence-free velocity."""
    rng = np.random.default_rng(seed)
    v = np.stack([rng.standard_normal(grid.shape) for _ in range(grid.dim)])
    return amp * grid.leray(grid.fft(v))


def divergence(grid, uhat):
    return grid.ifft(np.sum(grid.ik * uhat, axis=0))


def test_zero_velocity_is_fixed(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    u = np.zeros((2,) + grid.shape)
    out = ns.step(grid.fft(u), 1e-2)
    assert np.max(np.abs(out)) == 0.0


def test_taylor_green_decay(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    traj = ns.run(taylor_green_velocity(grid, 0.1, 0.0), dt=1e-3, t_end=0.25,
                  cadence=250)
    exact = taylor_green_velocity(grid, 0.1, 0.25)
    assert np.max(np.abs(grid.ifft(traj.uhats[-1]) - exact)) < 1e-7


def test_taylor_green_pressure(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1, rho_bar=1.3)
    u = taylor_green_velocity(grid, 0.1, 0.0)
    P = ns.pressure_recover(u)
    Pex = taylor_green_pressure(grid, 1.3, 0.1, 0.0)
    assert np.max(np.abs(P - Pex)) < 1e-11
    assert abs(np.mean(P) * grid.volume) < 1e-12


def test_pressure_of_zero_velocity(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    P = ns.pressure_recover(np.zeros((2,) + grid.shape))
    assert np.max(np.abs(P)) == 0.0


def test_pressure_cancels_gradient_part_of_advection(grid):
    # grad P + rho_bar*(u.grad)u retains no gradient part: it equals its
    # own Leray projection
    ns = IncompressibleSolver(grid, mu_bar=0.1, rho_bar=0.9)
    uhat = random_divfree(grid, 1, amp=0.5)
    P = ns.pressure_recover(grid.ifft(uhat))
    conv = -ns._advection(uhat)  # +(u.grad)u, dealiased as in the solver
    what = grid.ik * grid.fft(P)[np.newaxis] + 0.9 * conv
    w = grid.ifft(what)
    resid = grid.ifft(what - grid.leray(what))
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(w)))


# the id names the reference's one update, Crank-Nicolson
@pytest.mark.parametrize("scheme", ["cn"])
def test_step_solves_helmholtz(grid, scheme):
    # the implicit update solves (I - b*laplacian) unew = rhs, with
    # b = dt*mu_bar/2 and rhs = u + dt*P(adv) + b*laplacian(u); residual in
    # point values
    dt, mu = 2e-3, 0.3
    ns = IncompressibleSolver(grid, mu_bar=mu)
    uhat = random_divfree(grid, 9, amp=0.5)
    unew = ns.step(uhat, dt)
    b = 0.5 * dt * mu
    rhs = (uhat + dt * grid.leray(ns._advection(uhat))
           - b * grid.ksq * uhat)
    resid = grid.ifft(unew + b * grid.ksq * unew - rhs)
    assert np.max(np.abs(resid)) < 1e-13 * np.max(np.abs(grid.ifft(rhs)))
    # zero viscosity leaves only the projected advection
    ns0 = IncompressibleSolver(grid, mu_bar=0.0)
    np.testing.assert_allclose(ns0.step(uhat, dt),
                               uhat + dt * grid.leray(ns._advection(uhat)),
                               rtol=0, atol=1e-13 * np.max(np.abs(uhat)))


def test_divergence_free_preservation(grid):
    # the stepped coefficients stay divergence-free and masked
    ns = IncompressibleSolver(grid, mu_bar=0.05)
    uhat = random_divfree(grid, 2)
    for _ in range(20):
        uhat = ns.step(uhat, 2e-3)
        assert np.max(np.abs(divergence(grid, uhat))) < 1e-11
        assert uhat.shape == (2, 43, 22)  # the 2/3-rule box at 64^2


def test_run_holds_masked_projected_coefficients(grid, monkeypatch):
    # run masks and projects its datum once and keeps the coefficients it
    # steps at every observation
    ns = IncompressibleSolver(grid, mu_bar=0.05)
    rng = np.random.default_rng(5)
    u0 = np.stack([rng.standard_normal(grid.shape) for _ in range(2)])
    steps = []
    step = ns.step

    def recorded(uhat, dt):
        steps.append(uhat)
        return step(uhat, dt)

    monkeypatch.setattr(ns, "step", recorded)
    traj = ns.run(u0, dt=2e-3, t_end=6e-3, cadence=1)
    assert len(steps) == 3
    for uhat in steps + traj.uhats:
        assert uhat.shape == (2, 43, 22)  # the 2/3-rule box at 64^2
        assert np.max(np.abs(divergence(grid, uhat))) < 1e-11
    expected = grid.leray(grid.fft(u0))
    np.testing.assert_array_equal(steps[0], expected)
    assert traj.times == pytest.approx([0.0, 2e-3, 4e-3, 6e-3])
    assert len(traj.uhats) == 4
    for kept, stepped in zip(traj.uhats, steps):
        np.testing.assert_array_equal(kept, stepped)
    np.testing.assert_array_equal(traj.uhats[-1], step(steps[-1], 2e-3))


@pytest.mark.parametrize("dim", [2, 3])
def test_run_transforms_only_the_datum(dim, transforms, monkeypatch):
    # outside its steps, run makes one transform: the forward transform of
    # the datum's d components; the observations keep coefficients
    g = SpectralGrid(dim=dim, points_per_axis=16)
    ns = IncompressibleSolver(g, mu_bar=0.1)
    in_steps = [0]
    step = ns.step

    def counted(uhat, dt):
        before = transforms[0]
        out = step(uhat, dt)
        in_steps[0] += transforms[0] - before
        return out

    monkeypatch.setattr(ns, "step", counted)
    u0 = g.ifft(random_divfree(g, 7))
    transforms[0] = 0
    traj = ns.run(u0, dt=1e-3, t_end=5e-3, cadence=1)
    assert len(traj.uhats) == 6
    assert transforms[0] - in_steps[0] == dim


@pytest.mark.parametrize("dim,expected", [(2, 8), (3, 15)])
# the id names the reference's one update, Crank-Nicolson
@pytest.mark.parametrize("scheme", ["cn"])
def test_step_transforms(dim, expected, scheme, transforms):
    # inverse transforms of u and its Jacobian, forward transform of the
    # advection: d + d^2 + d field transforms per step
    g = SpectralGrid(dim=dim, points_per_axis=16)
    ns = IncompressibleSolver(g, mu_bar=0.1)
    uhat = random_divfree(g, 6)
    transforms[0] = 0
    ns.step(uhat, 1e-3)
    assert transforms[0] == expected


def test_kinetic_energy_non_increasing(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    u = (taylor_green_velocity(grid, 0.1, 0.0)
         + grid.ifft(random_divfree(grid, 3, amp=0.1)))
    uhat = grid.leray(grid.fft(u))
    ke = np.sum(grid.norm_sq(uhat))
    for _ in range(100):
        uhat = ns.step(uhat, 1e-3)
        ke_new = np.sum(grid.norm_sq(uhat))
        assert ke_new <= ke * (1.0 + 1e-14)
        ke = ke_new


def test_mean_velocity_conserved(grid):
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    u = (grid.ifft(random_divfree(grid, 4))
         + np.array([0.3, -0.2])[:, None, None])
    mean0 = np.array([np.mean(u[0]), np.mean(u[1])])
    uhat = grid.fft(u)
    for _ in range(50):
        uhat = ns.step(uhat, 1e-3)
    u1 = grid.ifft(uhat)
    mean1 = np.array([np.mean(u1[0]), np.mean(u1[1])])
    assert np.max(np.abs(mean1 - mean0)) < 1e-12


def test_reference_is_second_order():
    # Crank-Nicolson diffusion: the Taylor-Green error at t_end falls
    # fourfold per halving of dt (the vortex's advection is a gradient,
    # which the projection removes, so the diffusion sets the error; with
    # advection the step is first order, as the next test pins)
    grid = SpectralGrid(dim=2, points_per_axis=32)
    exact = taylor_green_velocity(grid, 0.1, 0.4)
    errors = []
    dts = [0.04, 0.02, 0.01, 0.005]
    for dt in dts:
        ns = IncompressibleSolver(grid, mu_bar=0.1)
        traj = ns.run(taylor_green_velocity(grid, 0.1, 0.0), dt=dt,
                      t_end=0.4, cadence=10 ** 6)
        errors.append(np.max(np.abs(grid.ifft(traj.uhats[-1]) - exact)))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope >= 1.9


def test_reference_is_first_order_with_advection():
    # the advection is explicit Euler: on a band-limited, Leray-projected
    # field, whose advection the projection does not remove, the error at
    # t_end against a T/640 run halves per halving of dt (0.488, 0.482 and
    # 0.466 from T/10 to T/80)
    grid = SpectralGrid(dim=2, points_per_axis=32)
    rng = np.random.default_rng(0)
    u = np.stack([random_band_scalar(grid, rng, 2.0) for _ in range(2)])
    u = grid.ifft(grid.leray(grid.fft(u)))
    u /= np.max(np.abs(u))
    ns = IncompressibleSolver(grid, mu_bar=0.1)

    def final(steps):
        return ns.run(u, dt=0.4 / steps, t_end=0.4,
                      cadence=10 ** 6).uhats[-1]
    ref = final(640)
    errors = [np.max(np.abs(grid.ifft(final(s) - ref)))
              for s in (10, 20, 40, 80)]
    ratios = np.array(errors[1:]) / errors[:-1]
    assert np.all((0.4 <= ratios) & (ratios <= 0.6)), ratios


def test_scheme_validation(grid):
    # a NaN fails the checks as a negative value does
    for mu_bar in (-0.1, np.nan):
        with pytest.raises(ValueError):
            IncompressibleSolver(grid, mu_bar=mu_bar)
    ns = IncompressibleSolver(grid, mu_bar=0.1)
    for dt in (-1e-3, np.nan):
        with pytest.raises(ValueError):
            ns.step(np.zeros((2,) + grid.shape, dtype=complex), dt)


def test_taylor_green_helpers_refuse_3d():
    grid3 = SpectralGrid(dim=3, points_per_axis=8)
    with pytest.raises(ValueError, match="Taylor-Green reference solution is 2D"):
        taylor_green_velocity(grid3, 0.1, 0.0)
    with pytest.raises(ValueError, match="Taylor-Green reference solution is 2D"):
        taylor_green_pressure(grid3, 1.0, 0.1, 0.0)
