"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The Mach sweep (criteria 5-7 and the
run-level sandwich of criterion 8) is executed once and shared.
"""

import time

import numpy as np
import pytest

from rhdlab import diagnostics as diag
from rhdlab.compressible import (CompressibleSolver, CompressibleState,
                                 rhs_momentum_form, rhs_perturbation,
                                 rhs_primitive)
from rhdlab.config import default_config
from rhdlab.fields import SpectralGrid
from rhdlab.incompressible import (IncompressibleSolver,
                                   taylor_green_pressure,
                                   taylor_green_velocity)
from rhdlab.initial import InitSpec, make_well_prepared, random_band_scalar
from rhdlab.linearized import (LinearizedProblem, check_estimate,
                               solve_linearized)
from rhdlab.model import Background, IdealGasEOS, PhysParams

EOS = IdealGasEOS()


def report(num, name, passed, detail=""):
    line = f"ACCEPT {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def grid64():
    return SpectralGrid(dim=2, points_per_axis=64)


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    """Shared Mach sweep: delta in {0.2, 0.1, 0.05, 0.025}, T = 0.5, 64^2."""
    cfg = default_config()
    cfg.raw["sweep"]["deltas"] = "0.2,0.1,0.05,0.025"
    cfg.raw["solver"]["dt"] = "0.001"
    cfg.raw["solver"]["t_end"] = "0.5"
    out = tmp_path_factory.mktemp("sweep")
    from rhdlab.sweep import run_sweep
    start = time.time()
    report_ = run_sweep(cfg, out)
    report_["wall_seconds"] = time.time() - start
    return report_


def test_criterion_01_reformulation_equivalence(grid64):
    start = time.time()
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = lambda: 1e-3 * random_band_scalar(grid64, rng, 3.0)
        drho, dth, drad = f(), f(), f()
        u = np.stack([f(), f()])
        state = CompressibleState(params.rho_bar + drho, u,
                                  params.theta_bar + dth, params.n_bar + drad)
        rho_t, u_t, th_t, n_t = rhs_primitive(grid64, state, params, EOS)
        mapped_v = [grid64.mask(rho_t), grid64.mask(u_t), grid64.mask(th_t),
                    grid64.mask(n_t)]
        assembled_v = rhs_perturbation(grid64, drho, u, dth, drad, bg)
        for a, b in zip(mapped_v, assembled_v):
            worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
        nrel = drho / params.rho_bar
        mom = state.rho * u / params.rho_bar
        mapped_m = [grid64.mask(rho_t / params.rho_bar),
                    grid64.mask((rho_t * u + state.rho * u_t) / params.rho_bar),
                    grid64.mask(th_t), grid64.mask(n_t)]
        assembled_m = rhs_momentum_form(grid64, nrel, mom, dth, drad, bg)
        for a, b in zip(mapped_m, assembled_m):
            worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
    wall = time.time() - start
    report(1, "reformulation-equivalence", worst < 1e-10 and wall < 10.0,
           f"max rel {worst:.2e}, {wall:.1f}s")


def test_criterion_02_planck_identities():
    start = time.time()
    from rhdlab.model import planck_cubic, planck_linear
    params = PhysParams(theta_bar=1.3, sigma_a=0.7,
                                    sigma_tilde=1.1)
    rng = np.random.default_rng(0)
    z = 0.9 * params.theta_bar * (2 * rng.random(10000) - 1)
    gg = 3.0 * (2 * rng.random(10000) - 1)
    lin = planck_linear(z, gg, Background.of(params, EOS))
    rem = planck_cubic(z, params) * z
    direct = (params.sigma_tilde * (params.theta_bar + z) ** 4
              - params.sigma_a * (params.n_bar + gg))
    scale = params.sigma_tilde * params.theta_bar ** 4
    err_split = np.max(np.abs(lin + rem - direct)) / scale
    quartic = (params.sigma_tilde * (params.theta_bar + z) ** 4
               - params.sigma_tilde * params.theta_bar ** 4
               - 4 * params.sigma_tilde * params.theta_bar ** 3 * z)
    err_quartic = np.max(np.abs(planck_cubic(z, params) * z - quartic)) / scale
    wall = time.time() - start
    report(2, "planck-decomposition",
           err_split < 1e-13 and err_quartic < 1e-13 and wall < 1.0,
           f"split {err_split:.2e}, quartic {err_quartic:.2e}, {wall:.2f}s")


def test_criterion_03_equilibrium_fixed_point(grid64):
    start = time.time()
    params = PhysParams(delta=0.1)
    solver = CompressibleSolver(grid64, Background.of(params, EOS), 1e-3)
    state = CompressibleState(np.full(grid64.shape, params.rho_bar),
                              np.zeros((2,) + grid64.shape),
                              np.full(grid64.shape, params.theta_bar),
                              np.full(grid64.shape, params.n_bar))
    traj = solver.run(solver.pack(state), 1.0, cadence=200)  # 1000 steps
    worst = max(np.max(np.abs(f)) for f in traj.final_state)
    wall = time.time() - start
    report(3, "equilibrium-fixed-point",
           traj.status == "ok" and worst < 1e-10 and wall < 30.0,
           f"max drift {worst:.2e} after 1000 steps, {wall:.1f}s")


def test_criterion_04_taylor_green(grid64):
    start = time.time()
    ns = IncompressibleSolver(grid64, mu_bar=0.1, rho_bar=1.0)
    traj = ns.run(taylor_green_velocity(grid64, 0.1, 0.0), dt=1e-3, t_end=1.0,
                  cadence=1000)
    u = grid64.ifft(traj.uhats[-1])
    u_err = np.max(np.abs(u - taylor_green_velocity(grid64, 0.1, 1.0)))
    P = ns.pressure_recover(u)
    p_err = np.max(np.abs(P - taylor_green_pressure(grid64, 1.0, 0.1, 1.0)))
    wall = time.time() - start
    report(4, "taylor-green-reference",
           u_err < 1e-6 and p_err < 1e-5 and wall < 60.0,
           f"u {u_err:.2e}, P {p_err:.2e}, {wall:.1f}s")


def test_criterion_05_delta_scaling(sweep_report):
    s_dt = sweep_report["fit_density_temperature"]["slope"]
    s_rad = sweep_report["fit_radiation"]["slope"]
    wall = sweep_report["wall_seconds"]
    report(5, "delta-scaling-slopes",
           0.7 <= s_dt <= 1.3 and 0.35 <= s_rad <= 0.8 and wall < 900.0,
           f"density/temperature {s_dt:.3f}, radiation {s_rad:.3f}, "
           f"{wall:.0f}s")


def test_criterion_06_low_mach_limit(sweep_report):
    ratios = sweep_report["ref_error_ratios"]
    report(6, "low-mach-limit-monotone",
           all(r < 1.0 for r in ratios),
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_07_delta_uniform_stability(sweep_report):
    ok = (not sweep_report["incomplete"]
          and all(m["status"] == "ok" for m in sweep_report["members"])
          and len({m["dt"] for m in sweep_report["members"]}) == 1)
    report(7, "delta-uniform-stability", ok,
           f"shared dt {sweep_report['dt']}")


def test_criterion_08_energy_sandwich(sweep_report):
    lo = min(m["energy_bundle_ratio"]["min"] for m in sweep_report["members"])
    hi = max(m["energy_bundle_ratio"]["max"] for m in sweep_report["members"])
    report(8, "energy-bundle-sandwich", 0.5 <= lo and hi <= 2.0,
           f"E/bundle in [{lo:.3f}, {hi:.3f}] across all accepted runs")


def test_criterion_09_dissipation_probes():
    start = time.time()
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    consts = {}
    for n in (64, 128):
        grid = SpectralGrid(dim=2, points_per_axis=n)
        st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3),
                                   grid, bg)
        solver = CompressibleSolver(grid, bg, 1e-3)
        coll = diag.Collector(grid, bg)
        traj = solver.run(solver.pack(st), 0.25, cadence=5,
                          observer=coll.observe)
        assert traj.status == "ok"
        p1 = diag.energy_dissipation_probe(traj.records, params)
        p2 = diag.cross_term_probe(traj.records, bg)
        consts[n] = (p1, p2)

    def stable(a, b):
        if not (np.isfinite(a) and np.isfinite(b)):
            return False
        if a == 0.0 and b == 0.0:
            return True  # inequality holds with slack at both resolutions
        if min(a, b) <= 0.0:
            return False
        return max(a, b) / min(a, b) < 2.0

    ok = stable(consts[64][0], consts[128][0]) and \
        stable(consts[64][1], consts[128][1])
    wall = time.time() - start
    report(9, "dissipation-probe-stability", ok and wall < 300.0,
           f"diss {consts[64][0]:.3g}/{consts[128][0]:.3g}, "
           f"cross {consts[64][1]:.3g}/{consts[128][1]:.3g}, {wall:.0f}s")


def test_criterion_10_linearized_uniformity(grid64):
    start = time.time()
    rng = np.random.default_rng(0)
    shapes = [random_band_scalar(grid64, rng, 2.0) for _ in range(5)]
    ok = True
    detail = []
    for label, wave in (("constant", 0.0), ("standing-wave", 0.5)):
        consts = []
        for delta in (0.2, 0.1, 0.05):
            bg = Background.of(PhysParams(delta=delta), EOS)
            problem = LinearizedProblem(
                waves=(wave,),
                init_nrel=delta * 0.05 * shapes[0],
                init_mom=0.05 * np.stack(shapes[1:3]),
                init_dtheta=delta * 0.05 * shapes[3],
                init_drad=np.sqrt(delta) * 0.05 * shapes[4],
                horizon=0.5, norm_order=2)
            [traj] = solve_linearized(grid64, problem, bg, dt=1e-3)
            consts.append(check_estimate(traj).constant)
        spread = max(consts) / min(consts)
        ok = ok and spread < 4.0
        detail.append(f"{label} {spread:.2f}")
    wall = time.time() - start
    report(10, "linearized-estimate-uniformity", ok and wall < 300.0,
           ", ".join(detail) + f", {wall:.0f}s")
