import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rhdlab.cli import main as cli_main
from rhdlab.config import ConfigError, default_config, load_config
from rhdlab.identities import _remainder_checks, run_identity_suite
from rhdlab.model import Background, CallableEOS, IdealGasEOS, PhysParams
from rhdlab.fields import SpectralGrid
from rhdlab.sweep import RunError, fit_rate, run_single


def write_config(path, body):
    Path(path).write_text(body)
    return str(path)


SMALL_RUN = """
[solver]
dt = 0.002
t_end = 0.02

[output]
cadence = 2
"""


def test_fit_rate_examples():
    fit = fit_rate([(1, 1), (0.5, 0.5), (0.25, 0.25)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit = fit_rate([(1, 1), (0.5, 0.25), (0.25, 0.0625)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    scaled = fit_rate([(1, 3), (0.5, 1.5), (0.25, 0.75)])
    assert scaled.slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RunError):
        fit_rate([(1, 1), (0.5, 0.5)])
    with pytest.raises(RunError):
        fit_rate([(1, 1), (0.5, -0.5), (0.25, 0.25)])


def test_config_defaults_and_errors(tmp_path):
    cfg = default_config()
    assert cfg.get("grid", "points_per_axis") == 64
    with pytest.raises(ConfigError, match="sweep.deltas"):
        cfg.get("sweep", "deltas")
    bad = write_config(tmp_path / "bad.ini", "[grid]\nresolution = 3\n")
    with pytest.raises(ConfigError, match="grid.resolution"):
        load_config(bad)
    worse = write_config(tmp_path / "worse.ini", "[gridd]\ndim = 2\n")
    with pytest.raises(ConfigError, match="gridd"):
        load_config(worse)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    sweep = write_config(tmp_path / "s.ini", "[sweep]\ndeltas = 0.1,0.2\n")
    with pytest.raises(ConfigError, match="sweep.deltas: .*decreasing"):
        load_config(sweep)


def test_effective_config_roundtrip(tmp_path):
    from rhdlab.config import dump_config_text
    cfgfile = write_config(tmp_path / "run.ini", SMALL_RUN)
    cfg = load_config(cfgfile)
    run_single(cfg, tmp_path / "out")
    dumped = tmp_path / "out" / "effective_config.ini"
    assert dumped.exists()
    back = load_config(dumped)
    assert back.raw == cfg.raw
    assert dump_config_text(back) == dump_config_text(cfg)


def test_cadence_must_be_positive(tmp_path):
    # refused at load, whichever command would read it
    cfgfile = write_config(tmp_path / "c.ini", "[output]\ncadence = 0\n")
    with pytest.raises(ConfigError, match="output.cadence"):
        load_config(cfgfile)


def test_budget_zero_run(tmp_path):
    cfgfile = write_config(tmp_path / "zero.ini", SMALL_RUN + "\n[init]\nbudget = 0.0\n")
    cfg = load_config(cfgfile)
    summary = run_single(cfg, tmp_path / "out")
    assert summary["status"] == "ok"
    assert summary["sup_l2_density_temperature"] < 1e-10
    assert summary["sup_l2_radiation"] < 1e-10
    assert summary["sup_l2_velocity"] < 1e-10
    assert (tmp_path / "out" / "diagnostics.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_summary_sups_match_point_value_oracle():
    # the summary's sups in time against the L2 norms of the point values
    # of every observed state, and against the rows' bundles
    from rhdlab.compressible import CompressibleSolver, SolverConfig
    from rhdlab.diagnostics import Collector
    from rhdlab.initial import InitSpec, make_well_prepared
    from rhdlab.sweep import _traj_summary

    grid, params, eos = SpectralGrid(2, 16), PhysParams(delta=0.1), IdealGasEOS()
    d = grid.dim
    st, _ = make_well_prepared(InitSpec(budget=0.5, delta=0.1, seed=3),
                               grid, params, eos)
    cfg = SolverConfig(dt=2e-3, t_end=0.012)
    coll, norms = Collector(grid, params, eos), []

    def observer(X, t):
        x = grid.ifft(X)
        l2 = lambda f: grid.sobolev_norm(f, 0)
        norms.append((l2(x[0]) + l2(x[d + 1]), l2(x[d + 2]), l2(x[1:1 + d])))
        return coll.observe(X, t)

    traj = CompressibleSolver(grid, params, eos, cfg).run(
        st, cadence=1, observer=observer)
    assert traj.status == "ok" and len(traj.records) >= 5
    summary = _traj_summary(traj, None, cfg)
    want = np.max(norms, axis=0)
    for key, value in zip(("density_temperature", "radiation", "velocity"),
                          want):
        assert value > 0.0
        assert summary["sup_l2_" + key] == pytest.approx(value, rel=1e-12)
    assert summary["sup_bundle"] == pytest.approx(
        max(r.bundle_sup for r in traj.records), rel=1e-12)


def test_csv_determinism(tmp_path):
    cfgfile = write_config(tmp_path / "run.ini", SMALL_RUN)
    cfg = load_config(cfgfile)
    run_single(cfg, tmp_path / "a")
    run_single(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()
    b = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
    assert a[0].startswith("#") and b[0].startswith("#")
    assert a[1:] == b[1:]
    header = a[1].split(",")
    assert header == ["time", "bundle_sup", "energy_E", "diss_u", "diss_theta",
                      "diss_G", "exchange_residual", "ref_error_L2",
                      "ref_error_H1", "delta", "seed", "kind"]


def test_run_with_reference_fills_error_columns(tmp_path):
    body = """
[solver]
dt = 0.002
t_end = 0.02
with_reference = true

[output]
cadence = 2
"""
    cfgfile = write_config(tmp_path / "ref.ini", body)
    cfg = load_config(cfgfile)
    summary = run_single(cfg, tmp_path / "out")
    assert "ref_error" in summary
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[2:]
    last = rows[-1].split(",")
    assert np.isfinite(float(last[7])) and np.isfinite(float(last[8]))


def test_aborted_run_with_reference_writes_outputs(tmp_path, capsys):
    # the reference is observed with the run, so an abort keeps its rows
    # and reports cleanly instead of failing to compare cadences
    cfgfile = write_config(tmp_path / "abort.ini", """
[grid]
points_per_axis = 16

[solver]
dt = 5
t_end = 10
with_reference = true
""")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", cfgfile, "--out", str(out)]) == 1
    assert "error: run aborted" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "aborted" and "ref_error" not in summary
    assert (out / "diagnostics.csv").exists()


def test_snapshots_flag(tmp_path):
    body = """
[solver]
dt = 0.002
t_end = 0.02

[output]
cadence = 2
snapshots = true
"""
    cfgfile = write_config(tmp_path / "snap.ini", body)
    summary = run_single(load_config(cfgfile), tmp_path / "out")
    assert summary["status"] == "ok"
    assert (tmp_path / "out" / "final_velocity.dat").exists()
    assert (tmp_path / "out" / "final_density_pert.dat").exists()


def test_identity_suite_fault_injection():
    grid = SpectralGrid(dim=2, points_per_axis=32)
    params, eos = PhysParams(), IdealGasEOS()
    clean = run_identity_suite(grid, params, eos, seed=0, n_fields=2)
    assert all(r.passed for r in clean)
    faulty = run_identity_suite(grid, params, eos, seed=0, n_fields=2,
                                fault="planck-cubic-coeff")
    failed = {r.name for r in faulty if not r.passed}
    assert "planck-split" in failed and "quartic-factor" in failed
    faulty = run_identity_suite(grid, params, eos, seed=0, n_fields=2,
                                fault="exchange-gap-sign")
    failed = {r.name for r in faulty if not r.passed}
    assert "velocity-form-rhs" in failed
    faulty = run_identity_suite(grid, params, eos, seed=0, n_fields=2,
                                fault="background-coefficient")
    assert {r.name for r in faulty if not r.passed} == {"remainders-quadratic"}
    with pytest.raises(ValueError):
        run_identity_suite(grid, params, eos, fault="no-such-fault")


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_suite_passes_at_16_points(dim):
    # the random fields peak at |k| = 2 on 16 points per axis, so both
    # reformulations hold at the 1e-10 tolerance there, and every injected
    # fault still fails its identities
    grid = SpectralGrid(dim=dim, points_per_axis=16)
    params, eos = PhysParams(), IdealGasEOS()
    assert all(r.passed for r in run_identity_suite(grid, params, eos))
    for fault, names in (("planck-cubic-coeff", {"planck-split",
                                                 "quartic-factor"}),
                         ("exchange-gap-sign", {"velocity-form-rhs"}),
                         ("background-coefficient",
                          {"remainders-quadratic"})):
        faulty = run_identity_suite(grid, params, eos, fault=fault)
        assert names <= {r.name for r in faulty if not r.passed}, fault


@pytest.mark.parametrize("changes", [
    {"p_rho": 5.0, "recip": 3.0, "e_theta": 9.0},
    "p_rho", "p_theta", "e_theta", "recip"])
def test_remainders_quadratic_catches_wrong_background(changes):
    # at the background every gap multiplies a zero field, so
    # background-zero reads 0 whatever the Background holds; with eps-small
    # inputs a wrong coefficient leaves a part linear in eps, which
    # remainders-quadratic sees (a string names a coefficient off by 1 %)
    grid = SpectralGrid(dim=2, points_per_axis=16)
    params, eos = PhysParams.equilibrium(delta=0.1, lam=0.05), IdealGasEOS()
    bg = Background.of(params, eos)
    zero, quadratic = _remainder_checks(grid, bg, eos,
                                        np.random.default_rng(0))
    assert zero.passed and quadratic.passed
    if isinstance(changes, str):
        changes = {changes: 1.01 * getattr(bg, changes)}
    zero, quadratic = _remainder_checks(grid, replace(bg, **changes), eos,
                                        np.random.default_rng(0))
    assert zero.max_rel_err == 0.0
    assert not quadratic.passed


def test_identity_suite_catches_broken_eos():
    grid = SpectralGrid(dim=2, points_per_axis=32)
    params = PhysParams()
    broken = CallableEOS(p=lambda r, t: r * t, e=lambda r, t: t + 1.0 / r,
                         validate=False)
    results = run_identity_suite(grid, params, broken, seed=0, n_fields=1)
    failed = {r.name for r in results if not r.passed}
    assert "thermo-relation" in failed


def test_cli_exit_codes_and_commands(tmp_path, capsys):
    # config-reference lists every section
    assert cli_main(["config-reference"]) == 0
    out = capsys.readouterr().out
    for section in ("[grid]", "[params]", "[eos]", "[init]", "[solver]",
                    "[diagnostics]", "[sweep]", "[output]"):
        assert section in out

    # verify-identities on the defaults passes
    assert cli_main(["verify-identities"]) == 0
    assert "PASS velocity-form-rhs" in capsys.readouterr().out

    # missing config file is a usage error
    assert cli_main(["run", "--config", str(tmp_path / "nope.ini")]) == 2

    # malformed key reports exit code 2 with the key path
    bad = write_config(tmp_path / "bad.ini", "[solver]\ndt = soon\n")
    assert cli_main(["run", "--config", bad]) == 2
    assert "solver.dt" in capsys.readouterr().err

    # out-of-range solver and probe values are usage errors naming the key
    for command, body, key in [
            ("run", "[solver]\nscheme = rk4\n", "solver.scheme"),
            ("run", "[solver]\ndt = -1\n", "solver.dt"),
            ("run", "[solver]\nt_end = 0.004\nwith_reference = true\n"
                    "ns_scheme = rk4\n", "solver.ns_scheme"),
            ("run", "[solver]\nt_end = -1\n", "solver.t_end"),
            ("run", "[diagnostics]\norder = -1\n", "diagnostics.order"),
            ("run", "[diagnostics]\nbeta = nan\n", "diagnostics.beta"),
            ("run", "[init]\nbudget = nan\n", "init.budget"),
            ("run", "[solver]\ndt = inf\n", "solver.dt"),
            ("run", "[diagnostics]\nbeta = 1.5\n", "diagnostics.beta"),
            ("run", "[eos]\ngas_constant = 0\n", "eos.gas_constant"),
            ("run", "[eos]\nheat_capacity = -1\n", "eos.heat_capacity"),
            ("linearized", "[linearized]\ndt = -1\n", "linearized.dt"),
            ("linearized", "[linearized]\nnorm_order = -1\n",
             "linearized.norm_order"),
            ("linearized", "[linearized]\nt_end = -1\n", "linearized.t_end"),
            # keys a command does not read are checked all the same
            ("linearized", "[output]\ncadence = 0\n", "output.cadence"),
            ("linearized", "[linearized]\nforcing = 0\n",
             "linearized.forcing"),
            ("linearized", "[linearized]\ndeltas = 2\n", "linearized.deltas"),
            ("linearized", "[linearized]\ndeltas = 0.1,0.1\n",
             "linearized.deltas"),
            ("linearized", "[linearized]\nfamilies = constant,constant\n",
             "linearized.families"),
            ("linearized", "[grid]\npoints_per_axis = 16\n[linearized]\n"
                           "wave_amplitude = 1.5\n", "linearized.wave_amplitude"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\n"
                    "spectrum_peak = 9\n", "init.spectrum_peak"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nbudget = 1e6\n",
             "init.budget"),
            ("run", "[grid]\npoints_per_axis = 16\n[params]\n"
                    "theta_bar = -1\n", "params.theta_bar"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nseed = -1\n",
             "init.seed"),
            ("sweep", "[grid]\npoints_per_axis = 16\n[init]\nseed = -1\n"
                      "[sweep]\ndeltas = 0.1,0.05\n", "init.seed"),
            ("verify-identities", "[grid]\npoints_per_axis = 16\n[init]\n"
                                  "seed = -1\n", "init.seed"),
            ("sweep", "[grid]\npoints_per_axis = 16\n[init]\nbudget = 0\n"
                      "[sweep]\ndeltas = 0.1,0.05\n", "init.budget"),
            ("sweep", "[grid]\npoints_per_axis = 16\n[init]\nbudget = 0\n"
                      "[sweep]\ndeltas = 0.1,0.05,0.025\n", "init.budget"),
            ("run", "[grid]\npoints_per_axis = 16\n[params]\n"
                    "delta = 1e-300\n", "params:"),
            # the equilibrium radiation theta_bar**4 overflows
            ("run", "[grid]\npoints_per_axis = 16\n[params]\n"
                    "theta_bar = 1e100\n", "params.theta_bar"),
            # the box volume overflows, or the largest |k|^2 does
            ("run", "[grid]\npoints_per_axis = 16\nextent = 1e308\n"
                    "[solver]\nt_end = 0.01\n", "grid.extent"),
            ("run", "[grid]\npoints_per_axis = 16\nextent = 1e-300\n"
                    "[solver]\nt_end = 0.01\n", "grid.extent"),
            # the H^N weight swamps the data: the bundle misses its budget
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nnorm_order = 20\n",
             "init.norm_order"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nnorm_order = 30\n",
             "init.norm_order"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nnorm_order = 150\n",
             "init.norm_order"),
            ("run", "[grid]\npoints_per_axis = 16\n[init]\nnorm_order = 200\n",
             "init.norm_order")]:
        cfg = write_config(tmp_path / "range.ini", body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main([command, "--config", cfg,
                             "--out", str(tmp_path / "range")]) == 2, key
        assert key in capsys.readouterr().err
        assert not caught, (key, [str(w.message) for w in caught])

    # a diagnostics order whose weight overflows is refused before any output
    cfg = write_config(tmp_path / "order.ini",
                       "[grid]\npoints_per_axis = 16\n[solver]\nt_end = 0.05\n"
                       "[diagnostics]\norder = 150\n")
    assert cli_main(["run", "--config", cfg,
                     "--out", str(tmp_path / "order")]) == 2
    assert "diagnostics.order" in capsys.readouterr().err
    assert not (tmp_path / "order").exists()

    # a negative --seed is a usage error naming the flag
    for command in ("run", "sweep", "verify-identities"):
        assert cli_main([command, "--seed", "-1",
                         "--out", str(tmp_path / "neg")]) == 2, command
        assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()

    # sweep without sweep.deltas is a usage error naming the key
    empty = write_config(tmp_path / "empty.ini", "[output]\ncadence = 5\n")
    assert cli_main(["sweep", "--config", empty]) == 2
    assert "sweep.deltas" in capsys.readouterr().err

    # a tiny run succeeds end to end
    cfgfile = write_config(tmp_path / "ok.ini", SMALL_RUN)
    assert cli_main(["run", "--config", cfgfile,
                     "--out", str(tmp_path / "cliout")]) == 0
    assert (tmp_path / "cliout" / "summary.json").exists()
    capsys.readouterr()

    # fit subcommand on a points file
    pts = tmp_path / "pts.csv"
    pts.write_text("delta,value\n1,1\n0.5,0.5\n0.25,0.25\n")
    assert cli_main(["fit", str(pts)]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_failed_factorization_is_a_clean_error(tmp_path, capsys):
    # a viscosity whose symbol overflows leaves the implicit operator without
    # a finite inverse: exit 1 with the reason, in run and sweep alike
    body = ("[grid]\npoints_per_axis = 16\n[params]\nmu = 1e308\n"
            "[solver]\nt_end = 0.01\n[sweep]\ndeltas = 0.1,0.05\n")
    cfg = write_config(tmp_path / "mu.ini", body)
    for command in ("run", "sweep"):
        assert cli_main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: implicit operator"), err
        assert "no finite inverse" in err


def test_output_formats_entries_are_stripped_and_checked(tmp_path, capsys):
    # spaces around an entry still select it; an unknown entry is a usage
    # error naming the key, raised before anything is written
    spaced = write_config(tmp_path / "spaced.ini",
                          SMALL_RUN + "formats = csv, json\n")
    assert cli_main(["run", "--config", spaced,
                     "--out", str(tmp_path / "spaced")]) == 0
    assert (tmp_path / "spaced" / "diagnostics.csv").exists()
    assert (tmp_path / "spaced" / "summary.json").exists()
    capsys.readouterr()
    for value in ("xml", "csv,jsn"):
        bad = write_config(tmp_path / "bad.ini",
                           SMALL_RUN + f"formats = {value}\n")
        out = tmp_path / f"bad-{value}"
        assert cli_main(["run", "--config", bad, "--out", str(out)]) == 2
        assert "output.formats" in capsys.readouterr().err
        assert not (out / "effective_config.ini").exists()


TINY_ALL = """
[grid]
points_per_axis = 16

[solver]
dt = 0.002
t_end = 0.004

[sweep]
deltas = 0.2,0.1,0.05

[linearized]
deltas = 0.2,0.1
t_end = 0.004
dt = 0.002

[output]
cadence = 1
"""

OUTPUTS = {"run": ("diagnostics.csv", "summary.json"),
           "sweep": ("sweep_diagnostics.csv", "sweep_report.json"),
           "reference": ("reference.csv", "reference_summary.json"),
           "linearized": ("linearized.csv", "linearized_report.json")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_every_command_honours_output_formats(tmp_path, capsys, command,
                                              fmt):
    # each command writes the selected file and effective_config.ini, which
    # loads back to the configuration that ran
    cfgfile = write_config(tmp_path / "all.ini",
                           TINY_ALL + f"formats = {fmt}\n")
    out = tmp_path / "out"
    assert cli_main([command, "--config", cfgfile, "--out", str(out)]) == 0
    csv_name, json_name = OUTPUTS[command]
    selected = csv_name if fmt == "csv" else json_name
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["effective_config.ini", selected])
    back = load_config(out / "effective_config.ini")
    assert back.raw == load_config(cfgfile).raw


def test_unknown_linearized_family_fails_before_any_solve(tmp_path,
                                                          monkeypatch):
    import rhdlab.sweep as sweep
    calls = []
    monkeypatch.setattr(sweep, "solve_linearized",
                        lambda *args, **kwargs: calls.append(args))
    cfg = load_config(write_config(tmp_path / "lin.ini", TINY_ALL))
    cfg.raw["linearized"]["families"] = "constant,bogus"
    with pytest.raises(ConfigError, match="bogus"):
        sweep.run_linearized_probe(cfg, tmp_path / "out")
    assert calls == []


@pytest.mark.parametrize("key, value", [
    ("formulation", "perturbation"),
    ("imex_split", "acoustic+diffusion+exchange"),
    ("cfl_check", "true")])
def test_removed_solver_keys_are_rejected(tmp_path, capsys, key, value):
    # the stepping formulation, the implicit term set and the advective-bound
    # switch are no longer options: a file that sets one fails to load
    cfg = write_config(tmp_path / "old.ini", f"[solver]\n{key} = {value}\n")
    assert cli_main(["run", "--config", cfg]) == 2
    assert f"solver.{key}" in capsys.readouterr().err


SMALL_SWEEP = """
[grid]
points_per_axis = 32

[solver]
dt = 0.002
t_end = 0.05

[sweep]
deltas = 0.2,0.1,0.05

[output]
cadence = 5
"""


def test_sweep_isolation_under_concurrency(tmp_path):
    from rhdlab.sweep import run_sweep
    cfgfile = write_config(tmp_path / "sw.ini", SMALL_SWEEP)
    cfg = load_config(cfgfile)
    seq = run_sweep(cfg, tmp_path / "seq", threads=1)
    par = run_sweep(cfg, tmp_path / "par", threads=3)
    assert seq["fit_density_temperature"] == par["fit_density_temperature"]
    assert seq["ref_error_sup_L2"] == par["ref_error_sup_L2"]
    for a, b in zip(seq["members"], par["members"]):
        assert a["sup_bundle"] == b["sup_bundle"]
    csv_seq = (tmp_path / "seq" / "sweep_diagnostics.csv").read_text().splitlines()
    csv_par = (tmp_path / "par" / "sweep_diagnostics.csv").read_text().splitlines()
    assert csv_seq[1:] == csv_par[1:]


def test_cli_reference_and_linearized(tmp_path, capsys):
    cfgfile = write_config(tmp_path / "r.ini", SMALL_RUN)
    assert cli_main(["reference", "--config", cfgfile,
                     "--out", str(tmp_path / "ref")]) == 0
    capsys.readouterr()
    ref_csv = (tmp_path / "ref" / "reference.csv").read_text().splitlines()
    assert ref_csv[2].split(",")[-1] == "reference"

    body = """
[grid]
points_per_axis = 32

[linearized]
deltas = 0.2,0.05
t_end = 0.1
dt = 0.002
"""
    cfgfile = write_config(tmp_path / "lin.ini", body)
    assert cli_main(["linearized", "--config", cfgfile,
                     "--out", str(tmp_path / "lin")]) == 0
    spread = json.loads(capsys.readouterr().out)
    assert set(spread) == {"constant", "standing-wave"}
    lin_csv = (tmp_path / "lin" / "linearized.csv").read_text().splitlines()
    assert all(row.split(",")[-1] == "linearized" for row in lin_csv[2:])


def test_slaved_radiation_moves_the_scaling(tmp_path):
    # with radiation data slaved to temperature the radiation perturbation
    # scales like delta instead of sqrt(delta); the fitted slope follows
    from rhdlab.sweep import run_sweep
    body = SMALL_SWEEP + "\n[init]\nslaved_radiation = true\n"
    cfgfile = write_config(tmp_path / "sw.ini", body)
    rep = run_sweep(load_config(cfgfile), tmp_path / "out")
    assert rep["fit_radiation"]["slope"] == pytest.approx(1.0, abs=0.15)


def test_run_single_3d_via_config(tmp_path):
    body = """
[grid]
dim = 3
points_per_axis = 16

[solver]
dt = 0.005
t_end = 0.02

[init]
budget = 0.3

[output]
cadence = 2
"""
    cfgfile = write_config(tmp_path / "d3.ini", body)
    summary = run_single(load_config(cfgfile), tmp_path / "out")
    assert summary["status"] == "ok"
    assert summary["init"]["div_u"] < 1e-12


def test_cli_seed_override(tmp_path):
    cfgfile = write_config(tmp_path / "s.ini", SMALL_RUN)
    assert cli_main(["run", "--config", cfgfile, "--seed", "123",
                     "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seed"] == 123
    assert summary["init"]["seed"] == 123


def test_effective_config_records_seed_override(tmp_path):
    # --seed lands in effective_config.ini, and a re-run from that file
    # without --seed reproduces the run
    cfgfile = write_config(tmp_path / "s.ini", TINY_ALL)
    first = tmp_path / "first"
    assert cli_main(["run", "--config", cfgfile, "--seed", "123",
                     "--out", str(first)]) == 0
    dumped = first / "effective_config.ini"
    assert "seed = 123" in dumped.read_text().splitlines()
    assert load_config(dumped).get("init", "seed") == 123
    again = tmp_path / "again"
    assert cli_main(["run", "--config", str(dumped), "--out", str(again)]) == 0
    rows = [(d / "diagnostics.csv").read_text().splitlines()[1:]
            for d in (first, again)]
    assert rows[0] == rows[1]
    assert rows[0][1].split(",")[-2] == "123"


def count_initial_states(tmp_path, monkeypatch, mode):
    """``make_well_prepared`` calls of a run with its reference and of a
    sweep, and the sweep's member count, in init mode ``mode``."""
    import rhdlab.sweep as sweep
    calls = []
    real = sweep.make_well_prepared

    def counted(*args, **kwargs):
        calls.append(args[0].delta)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "make_well_prepared", counted)
    cfg = load_config(write_config(tmp_path / "run.ini", SMALL_RUN))
    cfg.raw["solver"]["t_end"] = "0.004"
    cfg.raw["solver"]["with_reference"] = "true"
    cfg.raw["init"]["mode"] = mode
    run_single(cfg, tmp_path / "run")
    run_calls = len(calls)
    calls.clear()
    cfg = load_config(write_config(tmp_path / "sw.ini", SMALL_SWEEP))
    cfg.raw["solver"]["t_end"] = "0.004"
    cfg.raw["init"]["mode"] = mode
    sweep.run_sweep(cfg, tmp_path / "sweep")
    return run_calls, len(calls), len(cfg.get("sweep", "deltas"))


def test_initial_state_built_once_per_member(tmp_path, monkeypatch):
    # global-thm: the reference reuses the first member's velocity, so a
    # run builds one state and a sweep one per member
    run_calls, sweep_calls, members = count_initial_states(
        tmp_path, monkeypatch, "global-thm")
    assert run_calls == 1
    assert sweep_calls == members


def test_local_thm_reference_builds_its_own_datum(tmp_path, monkeypatch):
    # local-thm budgets the momentum, so the reference's velocity-budgeted
    # datum is one more state
    run_calls, sweep_calls, members = count_initial_states(
        tmp_path, monkeypatch, "local-thm")
    assert run_calls == 2
    assert sweep_calls == 1 + members
