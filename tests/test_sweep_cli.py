import json
from pathlib import Path

import numpy as np
import pytest

from rhdlab.cli import main as cli_main
from rhdlab.config import ConfigError, default_config, load_config
from rhdlab.identities import run_identity_suite
from rhdlab.model import CallableEOS, IdealGasEOS, PhysParams
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
    assert cfg.getint("grid", "points_per_axis") == 64
    with pytest.raises(ConfigError, match="sweep.deltas"):
        cfg.sweep_deltas()
    bad = write_config(tmp_path / "bad.ini", "[grid]\nresolution = 3\n")
    with pytest.raises(ConfigError, match="grid.resolution"):
        load_config(bad)
    worse = write_config(tmp_path / "worse.ini", "[gridd]\ndim = 2\n")
    with pytest.raises(ConfigError, match="gridd"):
        load_config(worse)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    sweep = write_config(tmp_path / "s.ini", "[sweep]\ndeltas = 0.1,0.2\n")
    with pytest.raises(ConfigError, match="decreasing"):
        load_config(sweep).sweep_deltas()


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
    cfgfile = write_config(tmp_path / "c.ini", "[output]\ncadence = 0\n")
    cfg = load_config(cfgfile)
    with pytest.raises(ConfigError, match="cadence"):
        run_single(cfg, tmp_path / "out")


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
    with pytest.raises(ValueError):
        run_identity_suite(grid, params, eos, fault="no-such-fault")


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


def test_initial_state_built_once_per_member(tmp_path, monkeypatch):
    # run: one state; sweep: one per member plus the shared reference
    import rhdlab.sweep as sweep
    calls = []
    real = sweep.make_well_prepared

    def counted(*args, **kwargs):
        calls.append(args[0].delta)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "make_well_prepared", counted)
    cfg = load_config(write_config(tmp_path / "run.ini", SMALL_RUN))
    cfg.raw["solver"]["t_end"] = "0.004"
    run_single(cfg, tmp_path / "run")
    assert len(calls) == 1
    calls.clear()
    cfg = load_config(write_config(tmp_path / "sw.ini", SMALL_SWEEP))
    cfg.raw["solver"]["t_end"] = "0.004"
    sweep.run_sweep(cfg, tmp_path / "sweep")
    assert len(calls) == 1 + len(cfg.sweep_deltas())
