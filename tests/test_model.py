import numpy as np
import pytest

from rhdlab import model
from rhdlab.model import (Background, CallableEOS, DomainError,
                          IdealGasEOS, ParameterError, PhysParams)

UNIT = PhysParams()  # all constants 1 except viscosities/diffusivities


def test_params_validation():
    with pytest.raises(ParameterError):
        PhysParams(mu=-1.0)
    with pytest.raises(ParameterError):
        PhysParams(mu=0.1, lam=-1.0)  # 3*lam + 2*mu < 0
    with pytest.raises(ParameterError):
        PhysParams(delta=0.0)
    with pytest.raises(ParameterError):
        PhysParams(delta=1.5)
    with pytest.raises(ParameterError, match="nonzero square"):
        PhysParams(delta=1e-300)  # delta**2 underflows to 0
    with pytest.raises(ParameterError):
        PhysParams(n_bar=2.0)  # breaks radiative equilibrium
    p = PhysParams.equilibrium(theta_bar=2.0, sigma_a=2.0, sigma_tilde=1.0)
    assert p.n_bar == pytest.approx(8.0)


def test_equilibrium_radiation_examples():
    assert model.equilibrium_radiation(1.0, 1.0, 1.0) == 1.0
    assert model.equilibrium_radiation(2.0, 2.0, 1.0) == 8.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        tb, sa, st = rng.random(3) + 0.1
        nb = model.equilibrium_radiation(tb, sa, st)
        assert sa * nb - st * tb ** 4 == pytest.approx(0.0, abs=1e-13 * st * tb ** 4)
    with pytest.raises(DomainError):
        model.equilibrium_radiation(-1.0, 1.0, 1.0)


def test_radiation_source_examples():
    p = UNIT
    assert model.radiation_source(p.theta_bar, p.n_bar, p) == 0.0
    assert model.radiation_source(1.0, 2.0, p) == -1.0
    assert model.radiation_source(2.0, 0.0, p) == 16.0
    with pytest.raises(DomainError):
        model.radiation_source(-1.0, 0.0, p)


def test_planck_split_examples():
    lin, rem = model.planck_split(0.0, 0.0, UNIT)
    assert lin == 0.0 and rem == 0.0
    lin, rem = model.planck_split(1.0, 0.0, UNIT)
    assert lin == 4.0 and rem == 11.0 and lin + rem == 2 ** 4 - 1


def test_planck_split_matches_direct_quartic():
    p = PhysParams.equilibrium(theta_bar=1.7, sigma_a=0.6, sigma_tilde=1.3)
    rng = np.random.default_rng(1)
    z = 0.8 * p.theta_bar * (2 * rng.random(10000) - 1)
    gg = 2.0 * (2 * rng.random(10000) - 1)
    lin, rem = model.planck_split(z, gg, p)
    direct = (p.sigma_tilde * (p.theta_bar + z) ** 4
              - p.sigma_a * (p.n_bar + gg))
    scale = p.sigma_tilde * p.theta_bar ** 4
    assert np.max(np.abs(lin + rem - direct)) < 1e-13 * scale


def test_quartic_factor_identity():
    p = PhysParams.equilibrium(theta_bar=0.9, sigma_tilde=2.0)
    rng = np.random.default_rng(2)
    z = 2.0 * rng.standard_normal(10000)
    lhs = model.planck_cubic(z, p) * z
    rhs = (p.sigma_tilde * (p.theta_bar + z) ** 4 - p.sigma_tilde * p.theta_bar ** 4
           - 4 * p.sigma_tilde * p.theta_bar ** 3 * z)
    scale = np.max(np.abs(rhs)) + p.sigma_tilde * p.theta_bar ** 4
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale


def zero_fields(shape, dim=2):
    """Zero scalar, vector and Jacobian-shaped point values."""
    return (np.zeros(shape), np.zeros((dim,) + shape),
            np.zeros((dim, dim) + shape))


def test_coefficient_gap_values():
    # planck_cubic at dtheta=1 with unit constants
    assert model.planck_cubic(1.0, UNIT) == 11.0
    # inverse-density gap 1/rho_bar - 1/rho = 0.5 at rho=2: with u = 0 and
    # lap u = 1, so a viscous term mu, it is the whole velocity remainder,
    # -0.5*mu
    z, zv, zj = zero_fields((3, 3))
    bg = Background.of(UNIT, IdealGasEOS())
    out = model.velocity_form_remainders(z + 1.0, zv, z, z, zv, zj,
                                         zv + UNIT.mu, z, zv, z, bg,
                                         IdealGasEOS())
    assert np.all(out[1] == -0.5 * UNIT.mu)


def assert_remainders_vanish(bg, eos):
    z, zv, zj = zero_fields((4, 4))
    out = model.velocity_form_remainders(z, zv, z, z, zv, zj, zv, z, zv, z,
                                         bg, eos)
    assert all(np.all(o == 0.0) for o in out)
    out = model.momentum_form_remainders(z, zv, z, z, zv, zj, zj, z, zv, z,
                                         bg, eos)
    assert all(np.all(o == 0.0) for o in out)


def test_all_gaps_vanish_at_background():
    # every coefficient gap is a Background value minus the gas law at the
    # state; at the background state each one is exactly zero
    p = PhysParams.equilibrium(rho_bar=1.4, theta_bar=0.8)
    eos = IdealGasEOS(R=1.1, c_v=0.7)
    bg = Background.of(p, eos)
    rho, theta = p.rho_bar, p.theta_bar
    p_rho, p_theta = eos.p_rho(rho, theta), eos.p_theta(rho, theta)
    e_theta = eos.e_theta(rho, theta)
    gaps = (bg.p_rho - p_rho, bg.p_theta - p_theta,
            bg.recip - 1.0 / (rho * e_theta),
            bg.p_rho / p.rho_bar - p_rho / rho,
            bg.p_theta / p.rho_bar - p_theta / rho,
            p.theta_bar * bg.p_theta / (p.rho_bar * bg.e_theta)
            - theta * p_theta / (rho * e_theta),
            bg.emission - 4.0 * p.sigma_tilde * theta ** 3)
    assert max(abs(float(gv)) for gv in gaps) == 0.0
    assert_remainders_vanish(bg, eos)


def test_remainders_vanish_at_background():
    eos = IdealGasEOS()
    bg = Background.of(PhysParams.equilibrium(rho_bar=1.2, theta_bar=1.1), eos)
    assert_remainders_vanish(bg, eos)


class CountingEOS(IdealGasEOS):
    """Ideal gas that records the name and argument shape of every
    ``p_rho``, ``p_theta`` and ``e_theta`` call."""

    def __init__(self):
        super().__init__(R=1.1, c_v=0.7)
        self.calls = []

    def p_rho(self, rho, theta):
        self.calls.append(("p_rho", np.shape(rho)))
        return super().p_rho(rho, theta)

    def p_theta(self, rho, theta):
        self.calls.append(("p_theta", np.shape(rho)))
        return super().p_theta(rho, theta)

    def e_theta(self, rho, theta):
        self.calls.append(("e_theta", np.shape(rho)))
        return super().e_theta(rho, theta)


def test_remainders_evaluate_gas_law_once_at_state():
    # the background coefficients come from the Background alone: no call
    # at the scalar (rho_bar, theta_bar), one call of each at the state
    p = PhysParams.equilibrium(rho_bar=1.4, theta_bar=0.8)
    eos = CountingEOS()
    bg = Background.of(p, eos)
    shape = (4, 4)
    z, zv, zj = zero_fields(shape)
    pert = 0.01 * np.ones(shape)
    expected = sorted((name, shape) for name in ("p_rho", "p_theta", "e_theta"))
    eos.calls.clear()
    model.velocity_form_remainders(pert, zv, pert, z, zv, zj, zv, z, zv, z,
                                   bg, eos)
    assert sorted(eos.calls) == expected
    eos.calls.clear()
    model.momentum_form_remainders(pert, zv, pert, z, zv, zj, zj, z, zv, z,
                                   bg, eos)
    assert sorted(eos.calls) == expected


def test_velocity_remainder_point_values():
    # r_radiation = planck_cubic(dtheta)*dtheta; 11 at dtheta=1, unit constants
    shape = (3, 3)
    z, zv, zj = zero_fields(shape)
    ones = np.ones(shape)
    bg = Background.of(UNIT, IdealGasEOS())
    out = model.velocity_form_remainders(z, zv, ones, z, zv, zj, zv, z, zv,
                                         z, bg, IdealGasEOS())
    assert np.allclose(out[3], 11.0)
    # constant u, constant drho: mass remainder vanishes (all derivatives zero)
    out = model.velocity_form_remainders(0.1 * ones, 0.2 + zv, z, z, zv, zj,
                                         zv, z, zv, z, bg, IdealGasEOS())
    assert np.all(out[0] == 0.0)


def test_domain_errors_on_nonpositive_state():
    eos = IdealGasEOS()
    bg = Background.of(UNIT, eos)
    shape = (2, 2)
    z, zv, zj = zero_fields(shape)
    with pytest.raises(DomainError):
        # drho = -rho_bar: rho = 0
        model.velocity_form_remainders(-np.ones(shape), zv, z, z, zv, zj, zv,
                                       z, zv, z, bg, eos)
    with pytest.raises(DomainError):
        model.thermo_consistency_residual(eos, 1.0, 0.0)
    with pytest.raises(DomainError):
        model.momentum_form_remainders(-2.0 * np.ones(shape), zv, z, z, zv, zj,
                                       zj, z, zv, z, bg, eos)


def test_thermo_relation_ideal_gas():
    eos = IdealGasEOS(R=1.3, c_v=0.9)
    rng = np.random.default_rng(3)
    rho = 0.5 + 2 * rng.random(10000)
    th = 0.5 + 2 * rng.random(10000)
    res = model.thermo_consistency_residual(eos, rho, th)
    assert np.max(np.abs(res)) == 0.0
    assert model.thermo_consistency_residual(eos, 2.0, 3.0) == 0.0


def test_thermo_relation_counterexample():
    # e = c_v*theta + 1/rho with P = R*rho*theta: residual is exactly 1 at rho=1
    bad = CallableEOS(
        p=lambda r, t: r * t,
        e=lambda r, t: t + 1.0 / r,
        validate=False)
    res = model.thermo_consistency_residual(bad, 1.0, 1.0)
    assert float(res) == pytest.approx(1.0, rel=1e-6)  # FD partials
    with pytest.raises(ParameterError):
        CallableEOS(p=lambda r, t: r * t, e=lambda r, t: t + 1.0 / r)


def test_callable_eos_fd_partials_match_ideal():
    eos = CallableEOS(p=lambda r, t: 1.2 * r * t, e=lambda r, t: 0.8 * t + 0 * r,
                      tag="fd-ideal")
    assert float(eos.p_rho(2.0, 3.0)) == pytest.approx(3.6, rel=1e-9)
    assert float(eos.p_theta(2.0, 3.0)) == pytest.approx(2.4, rel=1e-9)
    assert float(eos.e_theta(2.0, 3.0)) == pytest.approx(0.8, rel=1e-9)


def test_eos_admissibility_lattice():
    # P_rho > 0 and e_theta > 0 over a state lattice for the shipped family
    eos = IdealGasEOS(R=0.7, c_v=1.3)
    rho = np.linspace(0.2, 3.0, 40)[:, None]
    th = np.linspace(0.2, 3.0, 40)[None, :]
    assert np.all(eos.p_rho(rho, th) > 0)
    assert np.all(eos.e_theta(rho + 0 * th, th + 0 * rho) > 0)
