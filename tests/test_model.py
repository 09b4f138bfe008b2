from types import SimpleNamespace

import numpy as np
import pytest

from rhdlab import model
from rhdlab.model import (Background, DomainError, IdealGasEOS,
                          ParameterError, PhysParams)

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
    for name in ("mu", "sigma_tilde", "theta_bar"):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            PhysParams(**{name: np.inf})
    # sigma_tilde*theta_bar^4 overflows, so the derived n_bar is inf: the
    # emission is named, and not a NaN comparison let through
    with pytest.raises(ParameterError, match=r"sigma_tilde\*theta_bar\^4 "
                                             "must be finite"):
        PhysParams(sigma_tilde=1e300, theta_bar=1e10)
    # a finite emission over a subnormal absorption overflows n_bar: the
    # absorption is named
    with pytest.raises(ParameterError, match=r"sigma_a = 1e-310 leaves the "
                                             "background radiation"):
        PhysParams(sigma_a=1e-310)
    p = PhysParams(theta_bar=2.0, sigma_a=2.0, sigma_tilde=1.0)
    assert p.n_bar == pytest.approx(8.0)


def test_equilibrium_radiation_examples():
    assert PhysParams(theta_bar=1.0, sigma_a=1.0, sigma_tilde=1.0).n_bar == 1.0
    assert PhysParams(theta_bar=2.0, sigma_a=2.0, sigma_tilde=1.0).n_bar == 8.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        tb, sa, st = rng.random(3) + 0.1
        nb = PhysParams(theta_bar=tb, sigma_a=sa, sigma_tilde=st).n_bar
        assert sa * nb - st * tb ** 4 == pytest.approx(0.0, abs=1e-13 * st * tb ** 4)
    with pytest.raises(ParameterError):
        PhysParams(theta_bar=-1.0)


def test_radiation_source_examples():
    p = UNIT
    assert model.radiation_source(p.theta_bar, p.n_bar, p) == 0.0
    assert model.radiation_source(1.0, 2.0, p) == -1.0
    assert model.radiation_source(2.0, 0.0, p) == 16.0
    with pytest.raises(DomainError):
        model.radiation_source(-1.0, 0.0, p)


@pytest.mark.parametrize("constants", [dict(R=0.0), dict(c_v=-1.0)])
def test_ideal_gas_refuses_nonpositive_constants(constants):
    # the schema refuses these values first; the gas law refuses them too
    with pytest.raises(ParameterError, match="R and c_v must be positive"):
        IdealGasEOS(**constants)


def test_planck_split_examples():
    bg = Background.of(UNIT, IdealGasEOS())
    lin = model.planck_linear(0.0, 0.0, bg)
    rem = model.planck_cubic(0.0, UNIT) * 0.0
    assert lin == 0.0 and rem == 0.0
    lin = model.planck_linear(1.0, 0.0, bg)
    rem = model.planck_cubic(1.0, UNIT) * 1.0
    assert lin == 4.0 and rem == 11.0 and lin + rem == 2 ** 4 - 1


def test_planck_split_matches_direct_quartic():
    p = PhysParams(theta_bar=1.7, sigma_a=0.6, sigma_tilde=1.3)
    rng = np.random.default_rng(1)
    z = 0.8 * p.theta_bar * (2 * rng.random(10000) - 1)
    gg = 2.0 * (2 * rng.random(10000) - 1)
    lin = model.planck_linear(z, gg, Background.of(p, IdealGasEOS()))
    rem = model.planck_cubic(z, p) * z
    direct = (p.sigma_tilde * (p.theta_bar + z) ** 4
              - p.sigma_a * (p.n_bar + gg))
    scale = p.sigma_tilde * p.theta_bar ** 4
    assert np.max(np.abs(lin + rem - direct)) < 1e-13 * scale


def test_quartic_factor_identity():
    p = PhysParams(theta_bar=0.9, sigma_tilde=2.0)
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
                                         zv + UNIT.mu, z, zv, z, bg)
    assert np.all(out[1] == -0.5 * UNIT.mu)


def assert_remainders_vanish(bg):
    z, zv, zj = zero_fields((4, 4))
    out = model.velocity_form_remainders(z, zv, z, z, zv, zj, zv, z, zv, z, bg)
    assert all(np.all(o == 0.0) for o in out)
    out = model.momentum_form_remainders(z, zv, z, z, zv, zj, zv, z, zv, z, zj,
                                         bg)
    assert all(np.all(o == 0.0) for o in out)


def test_all_gaps_vanish_at_background():
    # every coefficient gap is a Background value minus the gas law at the
    # state; at the background state each one is exactly zero
    p = PhysParams(rho_bar=1.4, theta_bar=0.8)
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
    assert_remainders_vanish(bg)


def test_remainders_vanish_at_background():
    eos = IdealGasEOS()
    bg = Background.of(PhysParams(rho_bar=1.2, theta_bar=1.1), eos)
    assert_remainders_vanish(bg)


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
    # at the scalar (rho_bar, theta_bar).  The velocity form makes one call
    # of each at the state; the momentum form makes one more of P_rho and
    # P_theta for its momentum row, and takes its temperature row from the
    # velocity form
    p = PhysParams(rho_bar=1.4, theta_bar=0.8)
    eos = CountingEOS()
    bg = Background.of(p, eos)
    shape = (4, 4)
    z, zv, zj = zero_fields(shape)
    pert = 0.01 * np.ones(shape)
    expected = sorted((name, shape) for name in ("p_rho", "p_theta", "e_theta"))
    eos.calls.clear()
    model.velocity_form_remainders(pert, zv, pert, z, zv, zj, zv, z, zv, z, bg)
    assert sorted(eos.calls) == expected
    eos.calls.clear()
    model.momentum_form_remainders(pert, zv, pert, z, zv, zj, zv, z, zv, z,
                                   zj, bg)
    assert sorted(eos.calls) == sorted(
        (name, shape) for name in ("p_rho", "p_rho", "p_theta", "p_theta",
                                   "e_theta"))


def _velocity_remainders_oracle(drho, u, dtheta, drad, grad_drho, jac_u,
                                visc_u, div_u, grad_dtheta, lap_dtheta, bg, eos):
    """The velocity-form remainders written term by term, with temporaries,
    the cubic by powers and D:D from the full symmetric part."""
    p = bg.params
    rho, theta = p.rho_bar + drho, p.theta_bar + dtheta
    d2 = p.delta ** 2
    p_theta, e_theta = eos.p_theta(rho, theta), eos.e_theta(rho, theta)
    r_mass = -drho * div_u - np.sum(u * grad_drho, axis=0)
    h6 = bg.p_rho / p.rho_bar - eos.p_rho(rho, theta) / rho
    h7 = bg.p_theta / p.rho_bar - p_theta / rho
    h8 = 1.0 / p.rho_bar - 1.0 / rho
    r_velocity = (-np.einsum("j...,ij...->i...", u, jac_u)
                  + (h6 / d2) * grad_drho + (h7 / d2) * grad_dtheta
                  - h8 * visc_u)
    recip = 1.0 / (rho * e_theta)
    h9 = bg.recip - recip
    h10 = (p.theta_bar * bg.p_theta / (p.rho_bar * bg.e_theta)
           - theta * p_theta / (rho * e_theta))
    st, tb = p.sigma_tilde, p.theta_bar
    quartic = (6.0 * st * tb ** 2 * dtheta + 4.0 * st * tb * dtheta ** 2
               + st * dtheta ** 3) * dtheta
    linear = 4.0 * st * tb ** 3 * dtheta - p.sigma_a * drad
    sym = 0.5 * (jac_u + np.swapaxes(jac_u, 0, 1))
    dd = np.sum(sym * sym, axis=(0, 1))
    r_temperature = (-np.sum(u * grad_dtheta, axis=0)
                     - p.kappa * h9 * lap_dtheta
                     + d2 * (2.0 * p.mu * dd + p.lam * div_u ** 2) * recip
                     + h10 * div_u + h9 * linear - quartic * recip)
    return r_mass, r_velocity, r_temperature, quartic


# P = rho*theta + 0.3 rho^2 and e = 0.7 theta + 0.3 rho satisfy the thermodynamic
# relation; p_theta hands back its rho argument itself
DENSE_GAS = SimpleNamespace(p=lambda r, t: r * t + 0.3 * r * r,
                            e=lambda r, t: 0.7 * t + 0.3 * r,
                            p_rho=lambda r, t: t + 0.6 * r,
                            p_theta=lambda r, t: r,
                            e_rho=lambda r, t: 0.3 + 0.0 * r,
                            e_theta=lambda r, t: 0.7 + 0.0 * r)


def random_remainder_args(rng, shape, amp):
    """Random point values for ``velocity_form_remainders``: perturbations
    and their derivatives of size ``amp``, the viscous term of size 1."""
    d = len(shape)
    field = lambda *lead: amp * rng.standard_normal(lead + shape)
    return (field(), field(d), field(), field(), field(d), field(d, d),
            rng.standard_normal((d,) + shape), field(), field(d), field())


@pytest.mark.parametrize("shape", [(16, 12), (6, 8, 10)])
@pytest.mark.parametrize("eos", [IdealGasEOS(R=1.1, c_v=0.7), DENSE_GAS],
                         ids=["ideal", "dense"])
@pytest.mark.parametrize("delta", [0.1, 0.0125])
@pytest.mark.parametrize("amp", [0.1, 1e-4])
def test_velocity_remainders_match_term_by_term_oracle(shape, eos, delta, amp):
    # at amp = 1e-4 the pressure gaps, weighted by 1/delta^2, lead the
    # velocity row, so their cancellation has to round as in the oracle
    p = PhysParams(delta=delta, lam=0.05, rho_bar=1.3,
                               theta_bar=0.9, sigma_tilde=1.2)
    bg = Background.of(p, eos)
    args = random_remainder_args(np.random.default_rng(len(shape)), shape, amp)
    got = model.velocity_form_remainders(*args, bg)
    want = _velocity_remainders_oracle(*args, bg, eos)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


@pytest.mark.parametrize("dim", [2, 3])
def test_deformation_contraction_matches_symmetric_part(dim):
    jac = np.random.default_rng(dim).standard_normal((dim, dim, 5, 7))
    sym = 0.5 * (jac + np.swapaxes(jac, 0, 1))
    want = np.sum(sym * sym, axis=(0, 1))
    got = model.deformation_contraction(jac)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_velocity_remainder_point_values():
    # r_radiation = planck_cubic(dtheta)*dtheta; 11 at dtheta=1, unit constants
    shape = (3, 3)
    z, zv, zj = zero_fields(shape)
    ones = np.ones(shape)
    bg = Background.of(UNIT, IdealGasEOS())
    out = model.velocity_form_remainders(z, zv, ones, z, zv, zj, zv, z, zv,
                                         z, bg)
    assert np.allclose(out[3], 11.0)
    # constant u, constant drho: mass remainder vanishes (all derivatives zero)
    out = model.velocity_form_remainders(0.1 * ones, 0.2 + zv, z, z, zv, zj,
                                         zv, z, zv, z, bg)
    assert np.all(out[0] == 0.0)


def test_domain_errors_on_nonpositive_state():
    # one bad point in rho or theta, by either remainder function: NaN,
    # +-inf, zero and negative values are all refused
    eos = IdealGasEOS()
    bg = Background.of(UNIT, eos)
    shape = (2, 2)
    z, zv, zj = zero_fields(shape)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.5):
        for which in (0, 1):  # drho (nrel) or dtheta
            # rho_bar = theta_bar = 1: a perturbation of bad - 1 puts bad at
            # one point of rho or theta, and so does nrel = rho/rho_bar - 1
            pair = [z.copy(), z.copy()]
            pair[which][1, 0] = bad - 1.0
            with pytest.raises(DomainError):
                model.velocity_form_remainders(pair[0], zv, pair[1], z, zv, zj,
                                               zv, z, zv, z, bg)
            with pytest.raises(DomainError):
                model.momentum_form_remainders(pair[0], zv, pair[1], z, zv, zj,
                                               zv, z, zv, z, zj, bg)
    with pytest.raises(DomainError):
        model.thermo_consistency_residual(eos, 1.0, 0.0)


@pytest.mark.parametrize("shape, rows", [((16, 12), 5), ((7, 6, 5), 3)])
def test_velocity_remainders_bit_identical_over_row_ranges_and_out(shape,
                                                                   rows):
    # the remainders of ragged ranges of rows of the arguments, each with
    # one gas-law call, are those rows of the whole-field remainders, bit
    # for bit; writing into a caller's block changes no bit either, and the
    # results are views of the block's rows
    bg = Background.of(PhysParams(delta=0.05, lam=0.05), CountingEOS())
    args = random_remainder_args(np.random.default_rng(7), shape, 0.1)
    d = len(shape)
    want = model.velocity_form_remainders(*args, bg)
    assert shape[0] % rows  # ragged: the last range is shorter
    for lo in range(0, shape[0], rows):
        at = (..., slice(lo, lo + rows)) + (slice(None),) * (d - 1)
        bg.eos.calls.clear()
        got = model.velocity_form_remainders(*(a[at] for a in args), bg)
        assert sorted(bg.eos.calls) == sorted(
            (name, args[0][at].shape) for name in ("p_rho", "p_theta",
                                                   "e_theta"))
        for g, w in zip(got, want):
            assert g.tobytes() == w[at].tobytes()
    out = np.full((d + 3,) + shape, np.nan)
    got = model.velocity_form_remainders(*args, bg, out=out)
    block_rows = (out[0], out[1:1 + d], out[d + 1], out[d + 2])
    for g, r, w in zip(got, block_rows, want):
        assert g.shape == r.shape and g.ctypes.data == r.ctypes.data
        assert g.tobytes() == w.tobytes()


def test_planck_cubic_into_out_is_bit_identical():
    p = PhysParams(theta_bar=0.9, sigma_tilde=1.2)
    z = np.random.default_rng(4).standard_normal((5, 6))
    out = np.empty_like(z)
    assert model.planck_cubic(z, p, out=out) is out
    assert out.tobytes() == model.planck_cubic(z, p).tobytes()


def test_domain_error_before_the_first_pass():
    # rho and theta are checked before any other arithmetic: a non-positive
    # theta on the last row is a DomainError even when the first row
    # overflows under errstate(raise)
    bg = Background.of(UNIT, IdealGasEOS())
    z, zv, zj = zero_fields((6, 4))
    big = zv.copy()
    big[0, 0, 0] = 1e200                      # u . grad(drho) overflows
    bad = z.copy()
    bad[-1, -1] = -2.0                        # theta = -1
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            model.velocity_form_remainders(z, big, z, z, big, zj, zv, z, zv,
                                           z, bg)
        with pytest.raises(DomainError, match="theta must be positive"):
            model.velocity_form_remainders(z, big, bad, z, big, zj, zv, z,
                                           zv, z, bg)


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
    bad = SimpleNamespace(p=lambda r, t: r * t, e=lambda r, t: t + 1.0 / r,
                          p_theta=lambda r, t: r,
                          e_rho=lambda r, t: -1.0 / r ** 2)
    res = model.thermo_consistency_residual(bad, 1.0, 1.0)
    assert float(res) == 1.0


def test_eos_admissibility_lattice():
    # P_rho > 0 and e_theta > 0 over a state lattice for the shipped family
    eos = IdealGasEOS(R=0.7, c_v=1.3)
    rho = np.linspace(0.2, 3.0, 40)[:, None]
    th = np.linspace(0.2, 3.0, 40)[None, :]
    assert np.all(eos.p_rho(rho, th) > 0)
    assert np.all(eos.e_theta(rho + 0 * th, th + 0 * rho) > 0)
