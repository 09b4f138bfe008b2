import tracemalloc

import numpy as np
import pytest

from rhdlab.fields import SpectralGrid
from rhdlab.initial import (InitError, InitSpec, make_well_prepared,
                            random_band_scalar)
from rhdlab.model import (Background, IdealGasEOS, ParameterError,
                          PhysParams)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(dim=2, points_per_axis=64)


EOS = IdealGasEOS()


def test_spec_validation():
    with pytest.raises(InitError):
        InitSpec(budget=-1.0)
    with pytest.raises(InitError):
        InitSpec(mode="both")
    # the spec's own refusals, which the configuration schema shadows
    with pytest.raises(InitError, match="spectrum_peak must be positive"):
        InitSpec(spectrum_peak=0.0)
    with pytest.raises(InitError, match="norm_order must be >= 0"):
        InitSpec(norm_order=-1)


def test_budget_zero_gives_equilibrium(grid):
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    state, rep = make_well_prepared(InitSpec(budget=0.0), grid, bg)
    assert np.all(state.rho == params.rho_bar)
    assert np.all(state.u == 0.0)
    assert np.all(state.theta == params.theta_bar)
    assert np.all(state.rad == params.n_bar)
    assert rep["bundle"] == 0.0


def test_determinism(grid):
    bg = Background.of(PhysParams(delta=0.1), EOS)
    spec = InitSpec(budget=0.5, seed=42)
    a, _ = make_well_prepared(spec, grid, bg)
    b, _ = make_well_prepared(spec, grid, bg)
    np.testing.assert_array_equal(a.rho, b.rho)
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.rad, b.rad)


@pytest.mark.parametrize("mode", ["global-thm", "local-thm"])
def test_bundle_within_budget_window(grid, mode):
    for delta in (0.2, 0.1):
        bg = Background.of(PhysParams(delta=delta), EOS)
        spec = InitSpec(budget=0.5, seed=1, mode=mode)
        state, rep = make_well_prepared(spec, grid, bg)
        assert 0.5 * 0.5 <= rep["bundle"] <= 1.0 * 0.5
        assert rep["div_u"] < 1e-12


def test_density_scaling_is_delta_independent(grid):
    # same seed: |rho0 - rho_bar|_H3 / delta identical across the sweep
    vals = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        params = PhysParams(delta=delta)
        bg = Background.of(params, EOS)
        state, _ = make_well_prepared(InitSpec(budget=0.5, seed=9),
                                      grid, bg)
        vals.append(grid.sobolev_norm(state.rho - params.rho_bar, 3) / delta)
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)


def test_positivity_margins(grid):
    params = PhysParams(delta=0.2)
    bg = Background.of(params, EOS)
    state, rep = make_well_prepared(InitSpec(budget=1.0, seed=2),
                                    grid, bg)
    assert rep["min_rho"] >= 0.5 * params.rho_bar
    assert rep["min_theta"] >= 0.5 * params.theta_bar


def test_unreachable_budget_raises(grid):
    bg = Background.of(PhysParams(delta=1.0), EOS)
    with pytest.raises(InitError):
        make_well_prepared(InitSpec(budget=500.0, seed=0),
                           grid, bg)
    # an independent temperature on a cold background reaches the clamp
    # while the density stays clear of it
    bg = Background.of(PhysParams(delta=1.0, theta_bar=0.2), EOS)
    with pytest.raises(InitError, match="temperature perturbation would push "
                                        "min theta") as exc:
        make_well_prepared(InitSpec(budget=20.0, balanced_pressure=False),
                           SpectralGrid(dim=2, points_per_axis=16), bg)
    assert exc.value.key == "budget"


def test_missed_share_blames_its_cause():
    # at a steep order the weight shrinks every shape into the round-off of
    # its background: the norm order is at fault; with theta_bar = 1e10 the
    # radiation perturbation is below the round-off of n_bar = 1e40 at any
    # order: the parameters are
    grid = SpectralGrid(dim=2, points_per_axis=16)
    with pytest.raises(InitError, match="density .* for 0.1") as exc:
        make_well_prepared(InitSpec(budget=0.5, norm_order=20),
                           grid, Background.of(PhysParams(delta=0.1), EOS))
    assert exc.value.key == "norm_order"
    bg = Background.of(PhysParams(delta=0.1, theta_bar=1e10), EOS)
    with pytest.raises(ParameterError, match=r"radiation perturbation is "
                                             "below the round-off of the "
                                             "background radiation "
                                             r"sigma_tilde\*theta_bar\^4/"
                                             r"sigma_a = 1e\+40"):
        make_well_prepared(InitSpec(budget=0.5), grid, bg)


def test_spectrum_peak_must_fit_dealiased_band(grid):
    bg = Background.of(PhysParams(delta=0.1), EOS)
    with pytest.raises(InitError):
        make_well_prepared(InitSpec(budget=0.5, spectrum_peak=20.0),
                           grid, bg)


def test_slaved_radiation(grid):
    params = PhysParams(delta=0.1)
    bg = Background.of(params, EOS)
    spec = InitSpec(budget=0.5, seed=3, slaved_radiation=True)
    state, _ = make_well_prepared(spec, grid, bg)
    drad = state.rad - params.n_bar
    slaved = (4.0 * params.sigma_tilde * params.theta_bar ** 3
              / params.sigma_a) * (state.theta - params.theta_bar)
    np.testing.assert_allclose(drad, slaved, atol=1e-15)


def test_balanced_pressure_kills_linearized_pressure(grid):
    params = PhysParams(delta=0.1)
    eos = IdealGasEOS(R=1.4, c_v=0.9)
    bg = Background.of(params, eos)
    state, _ = make_well_prepared(InitSpec(budget=0.5, seed=4),
                                  grid, bg)
    p_lin = (float(eos.p_rho(params.rho_bar, params.theta_bar))
             * (state.rho - params.rho_bar)
             + float(eos.p_theta(params.rho_bar, params.theta_bar))
             * (state.theta - params.theta_bar))
    assert np.max(np.abs(p_lin)) < 1e-15
    # the unbalanced variant draws temperature independently
    spec = InitSpec(budget=0.5, seed=4, balanced_pressure=False)
    state2, _ = make_well_prepared(spec, grid, bg)
    p_lin2 = (float(eos.p_rho(params.rho_bar, params.theta_bar))
              * (state2.rho - params.rho_bar)
              + float(eos.p_theta(params.rho_bar, params.theta_bar))
              * (state2.theta - params.theta_bar))
    assert np.max(np.abs(p_lin2)) > 1e-6


def test_random_band_scalar_keeps_modes_outside_the_box():
    # the envelope filters white noise over the whole half spectrum, as on
    # the grid without the 2/3 rule, and leaves modes outside the box
    g = SpectralGrid(dim=2, points_per_axis=16)
    f = random_band_scalar(g, np.random.default_rng(3), 2.0)
    whole = random_band_scalar(g.whole(), np.random.default_rng(3), 2.0)
    assert np.array_equal(f, whole)
    assert np.max(np.abs(g.mask(f) - f)) > 1e-9 * np.max(np.abs(f))


def test_datum_transforms_each_field_once(transforms):
    # each drawn shape is transformed forward once and each state field
    # back once; the report transforms the state's point values and takes
    # the velocity norm and div u from one transform of u: at 16^3 14
    # forward and 6 inverse field transforms (27 and 10 when the shapes
    # were point values)
    bg = Background.of(PhysParams(delta=0.1), EOS)
    make_well_prepared(InitSpec(budget=0.5, seed=3),
                       SpectralGrid(dim=3, points_per_axis=16), bg)
    assert transforms[3]["fft"] <= 15 and transforms[3]["ifft"] <= 7, \
        transforms[3]


def test_datum_traced_peak_3d():
    # the datum holds the whole grid, its weight, the state and the
    # perturbations, and one stack of velocity coefficients at a time:
    # 3.42 times the state's point values at 48^3 (6.10 when every shape
    # was drawn as point values), bounded at 3.8
    bg = Background.of(PhysParams(delta=0.1), EOS)
    g = SpectralGrid(dim=3, points_per_axis=48)
    tracemalloc.start()
    try:
        st, _ = make_well_prepared(InitSpec(budget=0.5, seed=3), g, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = sum(f.nbytes for f in (st.rho, st.u, st.theta, st.rad))
    assert peak < 3.8 * state, peak / state
