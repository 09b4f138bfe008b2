"""Three-dimensional support at small resolution."""

import numpy as np
import pytest

from rhdlab.compressible import (CompressibleSolver, CompressibleState,
                                 rhs_perturbation, rhs_primitive)
from rhdlab.fields import SpectralGrid
from rhdlab.initial import InitSpec, make_well_prepared, random_band_scalar
from rhdlab.model import Background, IdealGasEOS, PhysParams

EOS = IdealGasEOS()


@pytest.fixture(scope="module")
def grid3():
    return SpectralGrid(dim=3, points_per_axis=16)


def test_equilibrium_fixed_point_3d(grid3):
    params = PhysParams(delta=0.1)
    solver = CompressibleSolver(grid3, Background.of(params, EOS), 5e-3)
    state = CompressibleState(np.full(grid3.shape, params.rho_bar),
                              np.zeros((3,) + grid3.shape),
                              np.full(grid3.shape, params.theta_bar),
                              np.full(grid3.shape, params.n_bar))
    traj = solver.run(solver.pack(state), 0.05, cadence=5)
    assert traj.status == "ok"
    assert np.max(np.abs(traj.final_state[1])) < 1e-12


def test_reformulation_equivalence_3d(grid3):
    params = PhysParams(delta=0.1)
    rng = np.random.default_rng(0)
    f = lambda: 1e-3 * random_band_scalar(grid3, rng, 2.0)
    drho, dth, drad = f(), f(), f()
    u = np.stack([f(), f(), f()])
    state = CompressibleState(params.rho_bar + drho, u,
                              params.theta_bar + dth, params.n_bar + drad)
    rho_t, u_t, th_t, n_t = rhs_primitive(grid3, state, params, EOS)
    assembled = rhs_perturbation(grid3, drho, u, dth, drad,
                                 Background.of(params, EOS))
    mapped = [grid3.mask(rho_t), grid3.mask(u_t), grid3.mask(th_t),
              grid3.mask(n_t)]
    for a, b in zip(mapped, assembled):
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def test_well_prepared_run_3d(grid3):
    bg = Background.of(PhysParams(delta=0.1), EOS)
    st, rep = make_well_prepared(InitSpec(budget=0.3, seed=1),
                                 grid3, bg)
    assert rep["div_u"] < 1e-12
    solver = CompressibleSolver(grid3, bg, 2e-3)
    traj = solver.run(solver.pack(st), 0.02, cadence=5)
    assert traj.status == "ok"
