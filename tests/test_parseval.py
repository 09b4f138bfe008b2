"""Diagnostics as Parseval sums over Fourier coefficients.

The references below are the point-value definitions the spectral forms
replaced: each transforms its own fields over the whole spectrum with
``numpy.fft`` and sums ``|fftn(f)/n^dim|^2`` against a multiplier rebuilt
on the spot, or pairs point values of derivatives on the nodes.  The
spectral forms, which keep only the half spectrum of each real field, must
match them to round-off, with energy at the Nyquist mode, in 2D and 3D.
"""

from collections import namedtuple

import numpy as np
import pytest

from rhdlab import diagnostics as diag
from rhdlab.fields import SpectralGrid
from rhdlab.linearized import LinearizedProblem, solve_linearized
from rhdlab.model import Background, IdealGasEOS, PhysParams
from rhdlab.steppers import pack_state

EOS = IdealGasEOS(R=1.2, c_v=0.8)
PARAMS = PhysParams(delta=0.07, rho_bar=1.37, theta_bar=0.9, sigma_a=1.3,
                                sigma_tilde=0.8, mu=0.13, lam=0.05,
                                kappa=0.17, nu=0.11)
RTOL = 1e-12


# -- point-value references ---------------------------------------------------

def full_wavenumbers(g):
    """Whole-spectrum ``(k, kd)`` in ``fftn`` layout; ``kd`` zeroes the
    Nyquist mode of each axis, as first derivatives do."""
    ints = np.fft.fftfreq(g.n, d=1.0 / g.n)
    k = (2.0 * np.pi / g.extent) * np.stack(
        np.meshgrid(*([ints] * g.dim), indexing="ij"))
    kd = np.stack([np.where(a == -(g.n // 2), 0.0, kk) for a, kk in zip(
        np.meshgrid(*([ints] * g.dim), indexing="ij"), k)])
    return k, kd


def full_fft(g, f):
    return np.fft.fftn(f, axes=tuple(range(-g.dim, 0)))


def deriv(g, f, axis):
    """Point values of ``d f / d x_axis`` through the whole spectrum."""
    kd = full_wavenumbers(g)[1]
    return np.fft.ifftn(1j * kd[axis] * full_fft(g, f),
                        axes=tuple(range(-g.dim, 0))).real


def ref_sobolev_sq(g, f, order):
    k = full_wavenumbers(g)[0]
    chat = full_fft(g, f) / float(g.n ** g.dim)
    w = (1.0 + np.sum(k * k, axis=0)) ** order
    return g.volume * np.sum(w * np.abs(chat) ** 2)


def ref_grad_sq(g, f, order):
    # sum_i |d_i f|^2 in H^order, from the point values of each derivative
    return sum(ref_sobolev_sq(g, deriv(g, f, i), order) for i in range(g.dim))


def ref_cross(g, u, drho, order):
    # sum_{k<order} <grad^k u, grad^k grad drho>: node quadrature of the
    # products of point-value derivatives, every index pair contracted
    a = list(u)
    b = [deriv(g, drho, i) for i in range(g.dim)]
    total = 0.0
    for _ in range(order):
        total += sum(np.sum(x * y) for x, y in zip(a, b)) * g.dx ** g.dim
        a = [deriv(g, x, j) for x in a for j in range(g.dim)]
        b = [deriv(g, y, j) for y in b for j in range(g.dim)]
    return total


def ref_exchange_sq(g, dtheta, drad, order, pr):
    linear = (4.0 * pr.sigma_tilde * pr.theta_bar ** 3 * dtheta
              - pr.sigma_a * drad)
    return ref_sobolev_sq(g, linear, order)


def ref_bundle(g, u, drho, dtheta, drad, delta, order):
    n = lambda f: ref_sobolev_sq(g, f, order)
    return n(u) + (n(drho) + n(dtheta)) / delta ** 2 + n(drad) / delta


def ref_energy(g, u, drho, dtheta, drad, delta, beta, order, pr, eos):
    bg = Background.of(pr, eos)
    n = lambda f: ref_sobolev_sq(g, f, order)
    return (n(u) + beta * ref_cross(g, u, drho, order)
            + bg.p_rho / (pr.rho_bar ** 2 * delta ** 2) * n(drho)
            + bg.e_theta / (pr.theta_bar * delta ** 2) * n(dtheta)
            + pr.sigma_a / (4.0 * pr.sigma_tilde * delta * pr.rho_bar
                            * pr.theta_bar ** 4) * n(drad))


def ref_extras(g, p, order, pr):
    lm1 = max(order - 1, 0)
    s3 = lambda f: np.sqrt(ref_sobolev_sq(g, f, 3))
    s0 = lambda f: np.sqrt(ref_sobolev_sq(g, f, 0))
    return {
        "cross": ref_cross(g, p.u, p.drho, order),
        "grad_u_sq": ref_grad_sq(g, p.u, order),
        "grad_drho_sq_lm1": ref_grad_sq(g, p.drho, lm1),
        "grad_dtheta_sq_lm1": ref_grad_sq(g, p.dtheta, lm1),
        "grad_dtheta_sq": ref_grad_sq(g, p.dtheta, order),
        "grad_drad_sq": ref_grad_sq(g, p.drad, order),
        "exchange_sq": ref_exchange_sq(g, p.dtheta, p.drad, order, pr),
        "smallness": (s3(p.u) + (s3(p.drho) + s3(p.dtheta)) / pr.delta
                      + s3(p.drad) / np.sqrt(pr.delta)),
        "l2_density_temperature": s0(p.drho) + s0(p.dtheta),
        "l2_radiation": s0(p.drad),
        "l2_velocity": s0(p.u),
    }


def close(a, b, scale=None):
    return abs(a - b) <= RTOL * (abs(b) if scale is None else scale)


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(params=[(2, 16), (3, 8)], ids=["2d", "3d"])
def grid(request):
    # no dealiasing: white-noise fields keep their Nyquist content
    dim, n = request.param
    return SpectralGrid(dim=dim, points_per_axis=n, dealias=False)


# deviations from the background, in the order of pack_state, and a time
State = namedtuple("State", "drho u dtheta drad time")


def random_state(g, seed, time=0.0):
    rng = np.random.default_rng(seed)
    f = lambda: rng.standard_normal(g.shape)
    return State(f(), np.stack([f() for _ in range(g.dim)]), f(), f(), time)


def packed(g, p):
    return pack_state(g, p.drho, p.u, p.dtheta, p.drad)


# -- point-value norm ---------------------------------------------------------

@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_sobolev_norm_matches_reference(grid, order):
    p = random_state(grid, order)
    chat = np.abs(grid.fft(p.drho))
    assert chat[(grid.n // 2,) + (0,) * (grid.dim - 1)] > 1e-3 * np.max(chat)
    for f in (p.drho, p.u):
        got = grid.sobolev_norm(f, order) ** 2
        assert close(got, ref_sobolev_sq(grid, f, order))
    if order == 0:
        # L2 is also the exact quadrature of f^2 on the nodes
        quad = grid.volume * np.mean(p.drho ** 2)
        assert close(grid.sobolev_norm(p.drho, 0) ** 2, quad)


def test_norm_sq_counts_the_half_spectrum(grid):
    # energy on the k_last = 0 and k_last = n/2 planes, which hold their own
    # conjugates, and on modes in between, whose conjugates are not stored
    rng = np.random.default_rng(40)
    x = grid.grid_points()
    f = (rng.standard_normal(grid.shape) + 3.0 * np.cos(3.0 * x[0])
         + 2.0 * np.cos(grid.n / 2 * x[-1]) + np.sin(x[0] + 2.0 * x[-1]))
    fhat = grid.fft(f)
    assert fhat.shape == grid.spectral_shape
    for plane in (0, -1):
        assert np.max(np.abs(fhat[..., plane])) > 0.1 * np.max(np.abs(fhat))
    # point-value L2, the exact quadrature of f^2 on the nodes
    assert close(float(grid.norm_sq(fhat)), grid.volume * np.mean(f ** 2))
    # a vector field keeps its component axis; weights count by |k|^2
    v = np.stack([f, 2.0 * f])
    got = grid.norm_sq(grid.fft(v), grid.ksq_full)
    assert got.shape == (2,)
    want = ref_sobolev_sq(grid, f, 1) - ref_sobolev_sq(grid, f, 0)
    assert close(got[0], want) and close(got[1], 4.0 * want)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_cross_matches_point_value_oracle(grid, order):
    p = random_state(grid, 50 + order)
    coll = diag.Collector(grid, Background.of(PARAMS, EOS), order=order)
    got = coll.observe(packed(grid, p), p.time).extras["cross"]
    want = ref_cross(grid, p.u, p.drho, order)
    scale = np.sqrt(ref_sobolev_sq(grid, np.stack(list(p.u)), order)
                    * ref_sobolev_sq(grid, p.drho, order + 1))
    assert close(got, want, scale)


# -- Collector ------------------------------------------------------------------

@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_collector_matches_reference(grid, order):
    pr, beta = PARAMS, 0.3
    coll = diag.Collector(grid, Background.of(pr, EOS), order=order,
                          beta=beta)
    states = [random_state(grid, 20 + i, time=0.1 * i) for i in range(2)]
    recs = [coll.observe(packed(grid, p), p.time) for p in states]
    for p, rec in zip(states, recs):
        ref = ref_extras(grid, p, order, pr)
        assert set(rec.extras) == set(ref)
        scale = np.sqrt(ref_sobolev_sq(grid, p.u, order)
                        * ref_sobolev_sq(grid, p.drho, order + 1))
        assert close(rec.extras["cross"], ref["cross"], scale)
        for key in set(ref) - {"cross"}:
            assert close(rec.extras[key], ref[key]), key
        assert close(rec.bundle_sup, ref_bundle(grid, p.u, p.drho, p.dtheta,
                                                p.drad, pr.delta, order))
        assert close(rec.energy_E, ref_energy(grid, p.u, p.drho, p.dtheta,
                                              p.drad, pr.delta, beta, order,
                                              pr, EOS))
        assert close(rec.exchange_residual ** 2, ref["exchange_sq"])
    # trapezoid of the weighted gradient norms between the two observations
    tb4, d2 = pr.theta_bar ** 4, pr.delta ** 2
    rates = [np.array([
        pr.mu / pr.rho_bar * ref_extras(grid, p, order, pr)["grad_u_sq"],
        pr.kappa / (pr.rho_bar * pr.theta_bar * d2)
        * ref_grad_sq(grid, p.dtheta, order),
        pr.nu * pr.sigma_a / (4.0 * pr.sigma_tilde * pr.rho_bar * tb4 * d2)
        * ref_grad_sq(grid, p.drad, order)]) for p in states]
    cum = 0.5 * 0.1 * (rates[0] + rates[1])
    got = [recs[1].diss_u, recs[1].diss_theta, recs[1].diss_G]
    assert all(close(a, b) for a, b in zip(got, cum))


def test_observe_transforms_each_field_once(grid, transforms):
    # the observer reads the solver's coefficients and transforms nothing
    coll = diag.Collector(grid, Background.of(PARAMS, EOS))
    p = random_state(grid, 30)
    X = packed(grid, p)
    transforms[0] = 0
    coll.observe(X, p.time)
    assert transforms[0] == 0


def test_reference_rows_match_point_value_oracle(tmp_path, monkeypatch):
    # reference.csv: squared H^order norms of each kept velocity and
    # the trapezoid of mu_bar * sum_i |d_i u|^2 in H^order between them
    from rhdlab import sweep
    from rhdlab.config import default_config
    runs = []

    class Recorded(sweep.IncompressibleSolver):
        def run(self, *args, **kwargs):
            runs.append(super().run(*args, **kwargs))
            return runs[-1]

    monkeypatch.setattr(sweep, "IncompressibleSolver", Recorded)
    cfg = default_config()
    cfg.raw["grid"]["points_per_axis"] = "32"
    cfg.raw["solver"].update(dt="0.002", t_end="0.02")
    cfg.raw["output"]["cadence"] = "2"
    cfg.raw["diagnostics"]["order"] = "2"
    sweep.run_reference(cfg, tmp_path)
    (traj,) = runs
    g, params = cfg.build_grid(), cfg.build_background().params
    lines = (tmp_path / "reference.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(",")))
            for line in lines[2:]]
    assert len(rows) == len(traj.times) == 6

    velocities = [g.ifft(uhat) for uhat in traj.uhats]
    norms = [ref_sobolev_sq(g, u, 2) for u in velocities]
    rates = [params.mu_bar * ref_grad_sq(g, u, 2) for u in velocities]
    cum = np.concatenate([[0.0], np.cumsum(
        [0.5 * (t1 - t0) * (a + b) for t0, t1, a, b in zip(
            traj.times, traj.times[1:], rates, rates[1:])])])
    for row, t, nsq, want in zip(rows, traj.times, norms, cum):
        assert float(row["time"]) == t
        assert close(float(row["bundle_sup"]), nsq)
        assert close(float(row["energy_E"]), nsq)
        assert close(float(row["diss_u"]), want, scale=cum[-1])
        for key in ("diss_theta", "diss_G", "exchange_residual"):
            assert float(row[key]) == 0.0
        assert (row["delta"], row["seed"], row["kind"]) == (
            "%.17g" % params.delta, "0", "reference")


# -- linearized probe -----------------------------------------------------------

def linearized_problem(g, wave, horizon, seed=0):
    rng = np.random.default_rng(seed)
    f = lambda: g.mask(rng.standard_normal(g.shape)) * 1e-2
    return LinearizedProblem(
        waves=(wave,), init_nrel=f(),
        init_mom=np.stack([f() for _ in range(g.dim)]), init_dtheta=f(),
        init_drad=f(), horizon=horizon)


def test_linearized_integrals_match_kept_states():
    # bundles and the dissipation integral against the point-value
    # definitions evaluated on the kept states
    g = SpectralGrid(dim=2, points_per_axis=16)
    pr, dt = PARAMS, 2e-3
    problem = linearized_problem(g, 0.5, horizon=10 * dt)
    no = problem.norm_order
    bg, d2 = Background.of(pr, EOS), pr.delta ** 2
    [traj] = solve_linearized(g, problem, bg, dt=dt, keep_states=True)
    assert len(traj.states) == 11

    def diss(state):
        nrel, mom, dth, dG = state
        exch = bg.emission * dth - pr.sigma_a * dG
        return (ref_grad_sq(g, nrel, max(no - 1, 0)) / d2
                + sum(ref_grad_sq(g, m, no) for m in mom)
                + (ref_grad_sq(g, dth, no) + ref_grad_sq(g, dG, no)
                   + ref_sobolev_sq(g, exch, no)) / d2)

    rates = [diss(s) for s in traj.states]
    cum = np.concatenate([[0.0], np.cumsum(
        [0.5 * dt * (a + b) for a, b in zip(rates, rates[1:])])])
    for state, bundle, got, want in zip(traj.states, traj.bundles,
                                        traj.cum_dissipation, cum):
        nrel, mom, dth, dG = state
        assert close(bundle, ref_bundle(g, mom, nrel, dth, dG, pr.delta, no))
        assert close(got, want, scale=cum[-1])


def test_linearized_constant_step_transforms(transforms):
    # a constant-coefficient step transforms nothing: the coefficient load
    # of a constant family is computed once
    g = SpectralGrid(dim=2, points_per_axis=16)
    counts = []
    for nsteps in (2, 5):
        problem = linearized_problem(g, 0.0, horizon=nsteps * 1e-3)
        transforms[0] = 0
        solve_linearized(g, problem, Background.of(PARAMS, EOS), dt=1e-3)
        counts.append(transforms[0])
    assert counts[1] - counts[0] == 0


def test_sobolev_norm_takes_modes_outside_the_box():
    # products of point values hold modes outside the 2/3-rule box:
    # sobolev_norm takes the whole spectrum, as the momentum norm of the
    # initial-data report and the local-thm scaling need; the box alone
    # misses a share of it far above the tolerance
    from rhdlab.initial import InitSpec, make_well_prepared
    g = SpectralGrid(dim=2, points_per_axis=16)
    st, _ = make_well_prepared(InitSpec(mode="local-thm"),
                               g, Background.of(PARAMS, EOS))
    m = st.rho * st.u
    want = np.sqrt(ref_sobolev_sq(g, m, 3))
    assert abs(g.sobolev_norm(m, 3) - want) <= 1e-13 * want
    box = np.sqrt(np.sum(g.norm_sq(g.fft(m), g.sobolev_weight(3))))
    assert want - box > 1e-11 * want
