import numpy as np
import pytest
from scipy.linalg import expm

from rhdlab.fields import SpectralGrid
from rhdlab.model import Background, IdealGasEOS, PhysParams
from rhdlab.steppers import (ARS_GAMMA, MAX_STEPS, ImexOperator, SolverError,
                             SplitSymbol, ars222_step, schedule, split_symbol)

# A background away from rho_bar = 1, where a misplaced rho_bar factor shows.
OFF_UNIT = dict(rho_bar=1.37, theta_bar=0.9, sigma_a=1.3, sigma_tilde=0.8,
                mu=0.13, lam=0.05, kappa=0.17, nu=0.11)
OFF_UNIT_EOS = IdealGasEOS(R=1.2, c_v=0.8)


@pytest.mark.parametrize("relative_density", [False, True])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_split_symbol_matches_dense_oracle(dim, n, relative_density,
                                           dense_symbol):
    # on every mode (k = 0, the Nyquist planes and the modes outside the
    # dealias band included) the split apply is M @ X and the split solve
    # is the dense solve with I - c M, at both implicit coefficients
    g = SpectralGrid(dim=dim, points_per_axis=n, dealias=False)
    bg = Background.of(PhysParams(delta=0.05, **OFF_UNIT),
                       OFF_UNIT_EOS)
    dt, s = 1e-2, dim + 3
    symbol = split_symbol(g, bg, relative_density=relative_density)
    M = np.moveaxis(dense_symbol(g, bg, relative_density=relative_density),
                    (0, 1), (-2, -1))
    rng = np.random.default_rng(11)
    X = (rng.standard_normal((s,) + g.spectral_shape)
         + 1j * rng.standard_normal((s,) + g.spectral_shape))
    Xm = np.moveaxis(X, 0, -1)[..., np.newaxis]

    def mode_err(got, want):
        return np.max(np.linalg.norm(np.moveaxis(got, 0, -1) - want, axis=-1)
                      / np.linalg.norm(want, axis=-1))

    assert mode_err(symbol.apply(X), (M @ Xm)[..., 0]) <= 1e-12
    for coeff in (dt, ARS_GAMMA * dt):
        want = np.linalg.solve(np.eye(s) - coeff * M, Xm)[..., 0]
        assert mode_err(ImexOperator(symbol, coeff).solve(X), want) <= 1e-12


def test_ars222_is_second_order_with_explicit_part(dense_symbol):
    # one mode, explicit part b*X: the imex2 step must converge at second
    # order to expm((M_k + b I) T) X; a wrong explicit weight (ARS_DHAT off
    # by 1e-3) reads 1.90 and 1.73 over the last two halvings
    g = SpectralGrid(dim=2, points_per_axis=8)
    bg = Background.of(PhysParams(delta=1.0, **OFF_UNIT),
                       OFF_UNIT_EOS)
    symbol = split_symbol(g, bg)
    mode, b, T, s = (1, 1), 1.5j, 1.0, g.dim + 3
    Mk = dense_symbol(g, bg)[(...,) + mode]
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    want = expm((Mk + b * np.eye(s)) * T) @ x0
    errs = []
    for steps in (20, 40, 80, 160, 320, 640):
        dt = T / steps
        op = ImexOperator(symbol, ARS_GAMMA * dt)
        X = np.zeros((s,) + g.spectral_shape, dtype=complex)
        X[(...,) + mode] = x0
        for _ in range(steps):
            X = ars222_step(op, X, dt, lambda Y: b * Y)
        errs.append(np.linalg.norm(X[(...,) + mode] - want))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders[-2:] >= 1.9), orders


def test_schedule_times_and_observations():
    # 7 steps of 0.1 to 0.7 (round-off in 0.7/0.1 does not add an eighth),
    # observed every 3 steps and at the last
    steps = list(schedule(0.7, 0.1, 3))
    assert [t for t, _, _ in steps] == [i * 0.1 for i in range(1, 8)]
    assert [i for i, (_, seen, _) in enumerate(steps, 1) if seen] == [3, 6, 7]
    assert [last for _, _, last in steps] == [False] * 6 + [True]
    # a cadence that divides the count observes the last step once
    assert [seen for _, seen, _ in schedule(0.4, 0.1, 2)] == [
        False, True, False, True]
    assert all(seen for _, seen, _ in schedule(0.3, 0.1))
    assert list(schedule(0.0, 0.1, 5)) == []


@pytest.mark.parametrize("t_end, dt, cadence, match", [
    (1.0, 0.0, 1, "dt"), (1.0, -1e-3, 1, "dt"), (1.0, float("nan"), 1, "dt"),
    (1.0, 0.1, 0, "cadence"),
    (1.0, 1e-30, 1, "steps"), (1e300, 1e-300, 1, "steps"),
    (float("nan"), 0.1, 1, "steps"),
    (-1.0, 0.1, 1, "t_end"), (float("nan"), 0.1, 1, "t_end")])
def test_schedule_refuses_before_any_step(t_end, dt, cadence, match):
    with pytest.raises(ValueError, match=match):
        schedule(t_end, dt, cadence)


def test_schedule_admits_its_ceiling():
    # exactly MAX_STEPS steps pass; one more is refused (neither is iterated)
    schedule(MAX_STEPS * 1e-3, 1e-3)
    with pytest.raises(ValueError, match="steps"):
        schedule((MAX_STEPS + 1) * 1e-3, 1e-3)


def test_singular_implicit_operator_is_refused():
    # a shell whose block is I / c, factored at the coefficient c, leaves
    # I - c*M exactly zero: the inversion fails and the error names c
    c = 0.25
    symbol = SplitSymbol(blocks=np.eye(4)[np.newaxis] / c,
                         transverse=np.zeros(1),
                         shell=np.zeros((3, 2), dtype=np.int32),
                         khat=np.zeros((2, 3, 2)))
    with pytest.raises(SolverError,
                       match=r"^implicit operator I - 0\.25\*M is singular$"):
        ImexOperator(symbol, c)
