import numpy as np
import pytest

from rhdlab import diagnostics as diag
from rhdlab.compressible import CompressibleSolver, SolverConfig
from rhdlab.fields import SpectralGrid
from rhdlab.incompressible import IncompressibleSolver
from rhdlab.initial import InitSpec, make_well_prepared
from rhdlab.model import DomainError, IdealGasEOS, PhysParams
from rhdlab.steppers import pack_state


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=2, points_per_axis=64)


EOS = IdealGasEOS()


def zeros(grid):
    return (np.zeros((2,) + grid.shape), np.zeros(grid.shape),
            np.zeros(grid.shape), np.zeros(grid.shape))


def observe(grid, params, u, drho, dtheta, drad, order=3, beta=0.05):
    """Record of one point-value state, observed at t = 0."""
    coll = diag.Collector(grid, params, EOS, order=order, beta=beta)
    return coll.observe(pack_state(grid, drho, u, dtheta, drad), 0.0)


def test_bundle_zero_at_equilibrium(grid):
    u, a, b, c = zeros(grid)
    assert observe(grid, PhysParams(delta=0.1), u, a, b, c).bundle_sup == 0.0


def test_bundle_weight_cancellation(grid):
    # dtheta = delta*sin(x): L2 norm pi*sqrt(2)*delta, squared and weighted
    # by 1/delta^2 gives 2*pi^2 independent of delta
    x = grid.grid_points()
    for delta in (0.2, 0.05):
        u, drho, _, drad = zeros(grid)
        dtheta = delta * np.sin(x[0])
        val = observe(grid, PhysParams(delta=delta), u, drho, dtheta, drad,
                      order=0).bundle_sup
        assert val == pytest.approx(2 * np.pi ** 2, rel=1e-12)


def test_bundle_invariant_under_generator_rescaling(grid):
    vals = []
    for delta in (0.2, 0.1):
        params = PhysParams(delta=delta)
        st, _ = make_well_prepared(InitSpec(budget=0.5, delta=delta, seed=8),
                                   grid, params, EOS)
        p = st.to_perturbation(params)
        vals.append(observe(grid, params, p.u, p.drho, p.dtheta,
                            p.drad).bundle_sup)
    # velocity and radiation components are delta-independent by
    # construction; density/temperature weights cancel the delta scaling
    assert vals[1] == pytest.approx(vals[0], rel=1e-10)


@pytest.mark.parametrize("order", [0, 2, 3])
def test_grad_sobolev_sq_is_sum_of_derivative_norms(order):
    # Nyquist content included: the weight must match sobolev_norm's
    g = SpectralGrid(dim=2, points_per_axis=16, dealias=False)
    f = np.random.default_rng(order).standard_normal(g.shape)
    expected = sum(g.sobolev_norm(g.ifft(g.ik[i] * g.fft(f)), order) ** 2
                   for i in range(g.dim))
    u, drho, _, drad = zeros(g)
    rec = observe(g, PhysParams(), u, drho, f, drad, order=order)
    assert rec.extras["grad_dtheta_sq"] == pytest.approx(expected, rel=1e-12)


def test_exchange_residual_values(grid):
    params = PhysParams()
    x = grid.grid_points()
    u, drho, _, zero = zeros(grid)
    dtheta = np.sin(x[0])
    # slaved pair: residual vanishes
    drad = 4.0 * dtheta
    rec = observe(grid, params, u, drho, dtheta, drad, order=0)
    assert rec.exchange_residual < 1e-12
    # dtheta = sin x alone: |4 sin x|_L2 = 4*pi*sqrt(2)
    val = observe(grid, params, u, drho, dtheta, zero,
                  order=0).exchange_residual
    assert val == pytest.approx(4 * np.pi * np.sqrt(2), rel=1e-12)


def test_energy_zero_beta_is_weighted_norm_sum(grid):
    params = PhysParams()
    rng = np.random.default_rng(0)
    u = grid.mask(np.stack([rng.standard_normal(grid.shape) for _ in range(2)]))
    drho = grid.mask(rng.standard_normal(grid.shape))
    dtheta = grid.mask(rng.standard_normal(grid.shape))
    drad = grid.mask(rng.standard_normal(grid.shape))
    delta, el = params.delta, 2
    e0 = observe(grid, params, u, drho, dtheta, drad, order=el,
                 beta=0.0).energy_E
    n = grid.sobolev_norm
    expected = (n(u, el) ** 2 + n(drho, el) ** 2 / delta ** 2
                + n(dtheta, el) ** 2 / delta ** 2
                + n(drad, el) ** 2 / (4 * delta))
    assert e0 == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        observe(grid, params, u, drho, dtheta, drad, order=el, beta=1.5)


@pytest.mark.parametrize("beta, ok", [(0.0, True), (1.0, True),
                                      (-1e-3, False), (1.0 + 1e-3, False)])
def test_collector_beta_must_lie_in_unit_interval(grid, beta, ok):
    # the energy functional is defined only for beta in [0, 1]
    if ok:
        diag.Collector(grid, PhysParams(), EOS, beta=beta)
    else:
        with pytest.raises(DomainError, match="beta"):
            diag.Collector(grid, PhysParams(), EOS, beta=beta)


def test_energy_zero_iff_zero_state(grid):
    u, a, b, c = zeros(grid)
    assert observe(grid, PhysParams(), u, a, b, c).energy_E == 0.0


def test_energy_bundle_sandwich_on_random_states(grid):
    # 1000 seeded generator states: 0.5*bundle <= E <= 2*bundle at beta=0.05
    eos = EOS
    collectors = {}
    lo, hi = np.inf, 0.0
    for seed in range(1000):
        delta = float(np.random.default_rng(seed + 10 ** 6).choice([0.2, 0.1, 0.05]))
        params = PhysParams(delta=delta)
        st, _ = make_well_prepared(InitSpec(budget=0.5, delta=delta, seed=seed),
                                   grid, params, eos)
        p = st.to_perturbation(params)
        if delta not in collectors:
            collectors[delta] = diag.Collector(grid, params, eos, order=3,
                                               beta=0.05)
        rec = collectors[delta].observe(
            pack_state(grid, p.drho, p.u, p.dtheta, p.drad), 0.0)
        ratio = rec.energy_E / rec.bundle_sup
        lo, hi = min(lo, ratio), max(hi, ratio)
    assert lo >= 0.5 and hi <= 2.0, (lo, hi)


def test_collector_and_probe_shapes(grid):
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=5),
                               grid, params, EOS)
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=0.05))
    coll = diag.Collector(grid, params, EOS, seed=5)
    traj = solver.run(st, cadence=5, observer=coll.observe)
    recs = traj.records
    assert all(r.diss_u >= 0 and r.diss_theta >= 0 and r.diss_G >= 0
               for r in recs)
    assert all(np.isfinite(r.bundle_sup) and np.isfinite(r.energy_E)
               for r in recs)
    # cumulative integrals are nondecreasing
    for a, b in zip(recs, recs[1:]):
        assert b.diss_u >= a.diss_u
    p1 = diag.energy_dissipation_probe(recs, params)
    p2 = diag.cross_term_probe(recs, params, EOS)
    assert np.isfinite(p1.constant) and np.isfinite(p2.constant)


def test_collector_reference_errors_and_mismatch(grid):
    # with a reference, each row carries the L2 and H1 norms of the
    # velocity minus the reference's: 0 against itself, the point-value
    # oracle norm_sq(fft(uc - ur)) against a compressible run, and a
    # cadence the reference does not share raises
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=4),
                               grid, params, EOS)
    ns = IncompressibleSolver(grid, mu_bar=params.mu_bar)
    ref = ns.run(st.u, 1e-3, 0.02, cadence=5)
    assert len(ref.times) == 5

    X = np.zeros((5,) + grid.spectral_shape, dtype=complex)
    coll = diag.Collector(grid, params, EOS, reference=ref)
    for t, uhat in zip(ref.times, ref.uhats):
        X[1:3] = uhat
        rec = coll.observe(X, t)
        assert rec.ref_error_L2 == 0.0 and rec.ref_error_H1 == 0.0
    with pytest.raises(diag.CadenceMismatchError):
        coll.observe(X, ref.times[-1] + 5e-3)  # past the reference's end

    velocities = []

    def observer(X, t):
        velocities.append(grid.ifft(X[1:3]))
        return coll.observe(X, t)

    coll = diag.Collector(grid, params, EOS, reference=ref)
    solver = CompressibleSolver(grid, params, EOS,
                                SolverConfig(dt=1e-3, t_end=0.02))
    traj = solver.run(st, cadence=5, observer=observer)
    assert traj.status == "ok" and len(traj.records) == 5
    w1 = grid.sobolev_weight(1)
    want = []
    for u, uhat in zip(velocities, ref.uhats):
        diff = grid.fft(u - grid.ifft(uhat))
        want.append((np.sqrt(np.sum(grid.norm_sq(diff))),
                     np.sqrt(np.sum(grid.norm_sq(diff, w1)))))
    want = np.array(want)
    got = np.array([(r.ref_error_L2, r.ref_error_H1) for r in traj.records])
    assert np.all(want[1:] > 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=0))

    sparse = ns.run(st.u, 1e-3, 0.02, cadence=7)
    coll = diag.Collector(grid, params, EOS, reference=sparse)
    coll.observe(X, 0.0)
    with pytest.raises(diag.CadenceMismatchError):
        coll.observe(X, 5e-3)


def test_bundle_and_energy_positive_off_equilibrium(grid):
    params = PhysParams(delta=0.1)
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=21),
                               grid, params, EOS)
    p = st.to_perturbation(params)
    rec = observe(grid, params, p.u, p.drho, p.dtheta, p.drad)
    assert rec.bundle_sup > 0
    assert rec.energy_E > 0


def test_ref_error_grid_converged():
    # at fixed delta the limit error is a property of the flow, not the
    # mesh: doubling resolution moves it by < 10%
    from rhdlab.config import default_config
    from rhdlab.sweep import run_single
    sups = {}
    for n in (64, 128):
        cfg = default_config()
        cfg.raw["grid"]["points_per_axis"] = str(n)
        cfg.raw["solver"]["dt"] = "0.001"
        cfg.raw["solver"]["t_end"] = "0.25"
        cfg.raw["solver"]["with_reference"] = "true"
        import tempfile
        with tempfile.TemporaryDirectory() as td:
            summary = run_single(cfg, td)
        sups[n] = summary["ref_error"]["sup_L2"]
    assert abs(sups[128] - sups[64]) < 0.1 * sups[64]


def test_csv_row_layout():
    rec = diag.DiagnosticsRecord(time=0.5, bundle_sup=1.0, energy_E=0.9,
                                 diss_u=0.1, diss_theta=0.2, diss_G=0.3,
                                 exchange_residual=0.4, delta=0.1, seed=7,
                                 kind="run")
    row = rec.csv_row()
    assert len(row) == len(diag.CSV_COLUMNS)
    assert row[-1] == "run" and row[-2] == "7"
