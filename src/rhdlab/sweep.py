"""Experiment orchestration: single runs, Mach sweeps, rate fits, reports.

Outputs are deterministic for a fixed configuration and seed: CSV files are
byte-identical save for the timestamp comment on the first line, and sweep
members may run on a thread pool without changing any reported value
(results are merged by member index).
"""

from __future__ import annotations

import json
import math
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .compressible import (CompressibleSolver, SolverConfig, Trajectory,
                           default_dt)
from .config import ConfigError, ExperimentConfig, dump_config_text
from .fields import save_field
from .incompressible import SCHEMES as NS_SCHEMES, IncompressibleSolver
from .initial import make_well_prepared, random_band_scalar
from .linearized import (LinearizedProblem, check_estimate,
                         constant_coefficient, solve_linearized, standing_wave)
from .steppers import SCHEMES

__all__ = ["RateFit", "fit_rate", "run_single", "run_reference", "run_sweep",
           "run_linearized_probe", "write_diagnostics_csv", "RunError"]


class RunError(Exception):
    """A run failed or produced an invalid report (CLI exit code 1)."""


@dataclass
class RateFit:
    """Least-squares slope of log(value) against log(delta)."""
    points: list
    slope: float
    intercept: float
    r2: float

    def to_dict(self):
        return {"points": [[d, v] for d, v in self.points],
                "slope": self.slope, "intercept": self.intercept,
                "r2": self.r2}


def fit_rate(points) -> RateFit:
    """Fit a power law through ``(delta, value)`` pairs.

    Requires at least three points with positive values.
    """
    pts = [(float(d), float(v)) for d, v in points]
    if len(pts) < 3:
        raise RunError(f"rate fit needs >= 3 points, got {len(pts)}")
    if any(d <= 0 or v <= 0 for d, v in pts):
        raise RunError("rate fit needs positive deltas and values")
    x = np.log([d for d, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(pts, float(slope), float(intercept), r2)


def write_diagnostics_csv(path, records, timestamp: bool = True) -> None:
    """Frozen CSV contract; first line is a timestamp comment."""
    lines = []
    if timestamp:
        lines.append("# generated " + _time.strftime("%Y-%m-%dT%H:%M:%S"))
    lines.append(",".join(diag.CSV_COLUMNS))
    for rec in records:
        lines.append(",".join(rec.csv_row()))
    Path(path).write_text("\n".join(lines) + "\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not serializable: {type(o)}")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     default=_json_default) + "\n")


def _resolve_dt(cfg: ExperimentConfig, grid, u0) -> float:
    if cfg.getstr("solver", "dt") == "auto":
        return default_dt(grid, u0)
    return cfg.getpositive("solver", "dt")


def _reference_velocity(cfg, grid, params, eos, seed):
    """Initial datum of the shared incompressible reference.

    Uses the velocity-budget normalization (the Mach-free variant), so in
    global-thm mode it coincides with every sweep member's initial velocity.
    The datum is divergence-free already; the reference masks and projects
    it on entry.
    """
    spec = replace(cfg.build_init_spec(delta=params.delta, seed=seed),
                   mode="global-thm")
    state, _ = make_well_prepared(spec, grid, params, eos)
    return state.u


def _prepare(cfg, grid, params, eos, seed):
    """Well-prepared initial state and its report at ``params.delta``."""
    spec = cfg.build_init_spec(delta=params.delta, seed=seed)
    return make_well_prepared(spec, grid, params, eos)


def _run_one_compressible(cfg, grid, params, eos, seed, dt, prepared,
                          kind="run"):
    state0, init_report = prepared
    solver_cfg = SolverConfig(
        dt=dt,
        t_end=cfg.getnonnegative("solver", "t_end"),
        scheme=cfg.getchoice("solver", "scheme", SCHEMES))
    solver = CompressibleSolver(grid, params, eos, solver_cfg)
    collector = diag.Collector(grid, params, eos,
                               order=cfg.getnonnegative(
                                   "diagnostics", "order", integer=True),
                               beta=cfg.getfloat("diagnostics", "beta"),
                               seed=seed, kind=kind)
    traj = solver.run(state0, cadence=cfg.output_cadence(),
                      observer=collector.observe)
    return traj, init_report, solver_cfg


def _run_reference_traj(cfg, grid, params, eos, seed, dt):
    u0 = _reference_velocity(cfg, grid, params, eos, seed)
    ns = IncompressibleSolver(grid, params.mu_bar, params.rho_bar,
                              scheme=cfg.getchoice("solver", "ns_scheme",
                                                   NS_SCHEMES))
    return ns.run(u0, dt, cfg.getnonnegative("solver", "t_end"),
                  cadence=cfg.output_cadence())


def _attach_ref_errors(traj: Trajectory, ref_traj, grid):
    errs = diag.compare_to_reference(traj, ref_traj, grid)
    for rec, l2, h1 in zip(traj.records, errs.err_l2, errs.err_h1):
        rec.ref_error_L2 = l2
        rec.ref_error_H1 = h1
    return errs


def _traj_summary(traj: Trajectory, init_report, solver_cfg):
    return {
        "status": traj.status,
        "abort_reason": traj.abort_reason,
        "abort_time": traj.abort_time,
        "dt": traj.dt,
        "delta": traj.delta,
        "final_time": traj.times[-1] if traj.times else 0.0,
        "negative_radiation_points": traj.negative_radiation_points,
        "sup_l2_density_temperature": traj.sup_l2_density_temperature,
        "sup_l2_radiation": traj.sup_l2_radiation,
        "sup_l2_velocity": traj.sup_l2_velocity,
        "sup_bundle": traj.sup_bundle,
        "init": init_report,
        # fixed values, kept because they describe the method that ran
        "solver": {"formulation": "perturbation",
                   "scheme": solver_cfg.scheme,
                   "imex_split": "acoustic+diffusion+exchange"},
    }


def run_single(cfg: ExperimentConfig, out_dir, seed=None):
    """One experiment: init, compressible run, optional reference, reports.

    Writes ``diagnostics.csv`` and ``summary.json`` into ``out_dir``;
    returns the summary dict.  Raises :class:`RunError` if the run aborts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.build_grid()
    params = cfg.build_params()
    eos = cfg.build_eos()
    seed = seed if seed is not None else cfg.getint("init", "seed")
    formats = cfg.output_formats()

    prepared = _prepare(cfg, grid, params, eos, seed)
    dt = _resolve_dt(cfg, grid, prepared[0].u)

    ref = (_run_reference_traj(cfg, grid, params, eos, seed, dt)
           if cfg.getbool("solver", "with_reference") else None)
    traj, init_report, solver_cfg = _run_one_compressible(
        cfg, grid, params, eos, seed, dt, prepared)
    summary = {"kind": "run", "seed": seed}
    if ref is not None:
        errs = _attach_ref_errors(traj, ref, grid)
        summary["ref_error"] = {"sup_L2": errs.sup_l2, "sup_H1": errs.sup_h1}
    summary.update(_traj_summary(traj, init_report, solver_cfg))

    (out / "effective_config.ini").write_text(dump_config_text(cfg))
    if "csv" in formats:
        write_diagnostics_csv(out / "diagnostics.csv", traj.records)
    if "json" in formats:
        _write_json(out / "summary.json", summary)
    if cfg.getbool("output", "snapshots") and traj.final_state is not None:
        fs = traj.final_state
        save_field(out / "final_velocity.dat", fs.u, grid)
        save_field(out / "final_density_pert.dat", fs.drho, grid)
    if traj.status != "ok":
        raise RunError(f"run aborted at t={traj.abort_time}: {traj.abort_reason}")
    return summary


def run_reference(cfg: ExperimentConfig, out_dir, seed=None):
    """Incompressible reference run alone, same CSV surface."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.build_grid()
    params = cfg.build_params()
    eos = cfg.build_eos()
    seed = seed if seed is not None else cfg.getint("init", "seed")
    u0 = _reference_velocity(cfg, grid, params, eos, seed)
    dt = _resolve_dt(cfg, grid, u0)
    ref = _run_reference_traj(cfg, grid, params, eos, seed, dt)

    order = cfg.getnonnegative("diagnostics", "order", integer=True)
    records = []
    cum = 0.0
    prev = None
    for t, u in zip(ref.times, ref.u_snapshots):
        rate = params.mu_bar * diag.grad_sobolev_sq(grid, u, order)
        if prev is not None:
            cum += 0.5 * (t - prev[0]) * (rate + prev[1])
        prev = (t, rate)
        nsq = grid.sobolev_norm(u, order) ** 2
        records.append(diag.DiagnosticsRecord(
            time=t, bundle_sup=nsq, energy_E=nsq, diss_u=cum,
            diss_theta=0.0, diss_G=0.0, exchange_residual=0.0,
            delta=params.delta, seed=seed, kind="reference"))
    write_diagnostics_csv(out / "reference.csv", records)
    summary = {"kind": "reference", "seed": seed, "dt": ref.dt,
               "final_time": ref.times[-1],
               "final_kinetic_energy": ref.kinetic_energy[-1]}
    _write_json(out / "reference_summary.json", summary)
    return summary


def run_sweep(cfg: ExperimentConfig, out_dir, seed=None, threads: int = 1):
    """Mach sweep with one shared incompressible reference.

    For each delta (same seed): scaled well-prepared data, a compressible
    run, limit errors against the shared reference; then power-law fits of
    the sup-in-time density/temperature and radiation norms and the
    monotonicity of the limit error.  Member failures leave a partial
    report flagged ``incomplete``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    deltas = cfg.sweep_deltas()
    grid = cfg.build_grid()
    eos = cfg.build_eos()
    seed = seed if seed is not None else cfg.getint("init", "seed")

    # One dt for every member: the split must absorb the 1/delta^2
    # stiffness, so no member may need a smaller step.
    params0 = cfg.build_params(delta=deltas[0])
    prepared0 = _prepare(cfg, grid, params0, eos, seed)
    dt = _resolve_dt(cfg, grid, prepared0[0].u)

    ref = _run_reference_traj(cfg, grid, params0, eos, seed, dt)

    def member(delta):
        params = cfg.build_params(delta=delta)
        prepared = (prepared0 if delta == deltas[0]
                    else _prepare(cfg, grid, params, eos, seed))
        return _run_one_compressible(cfg, grid, params, eos, seed, dt,
                                     prepared, kind="run")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(member, deltas))
    else:
        results = [member(d) for d in deltas]

    members = []
    all_records = []
    incomplete = False
    for delta, (traj, init_report, solver_cfg) in zip(deltas, results):
        entry = {"delta": delta}
        entry.update(_traj_summary(traj, init_report, solver_cfg))
        ratios = [r.energy_E / r.bundle_sup for r in traj.records
                  if r.bundle_sup > 0.0]
        if ratios:
            entry["energy_bundle_ratio"] = {"min": min(ratios),
                                            "max": max(ratios)}
        if traj.status == "ok":
            errs = _attach_ref_errors(traj, ref, grid)
            entry["ref_error"] = {"sup_L2": errs.sup_l2, "sup_H1": errs.sup_h1}
        else:
            incomplete = True
        members.append(entry)
        all_records.extend(traj.records)

    report = {"kind": "sweep", "seed": seed, "dt": dt, "deltas": deltas,
              "incomplete": incomplete, "members": members}
    ok = [m for m in members if m["status"] == "ok"]
    if len(ok) >= 3:
        report["fit_density_temperature"] = fit_rate(
            [(m["delta"], m["sup_l2_density_temperature"]) for m in ok]).to_dict()
        report["fit_radiation"] = fit_rate(
            [(m["delta"], m["sup_l2_radiation"]) for m in ok]).to_dict()
    if len(ok) == len(members):
        sups = [m["ref_error"]["sup_L2"] for m in members]
        report["ref_error_sup_L2"] = sups
        report["ref_error_ratios"] = [b / a for a, b in zip(sups, sups[1:])]
        report["ref_error_monotone"] = all(r < 1.0 for r in report["ref_error_ratios"])

    write_diagnostics_csv(out / "sweep_diagnostics.csv", all_records)
    _write_json(out / "sweep_report.json", report)
    if incomplete:
        raise RunError("sweep incomplete: at least one member run aborted")
    return report


def run_linearized_probe(cfg: ExperimentConfig, out_dir, seed=None):
    """Uniform-estimate probe over coefficient families and Mach values."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.build_grid()
    eos = cfg.build_eos()
    seed = seed if seed is not None else cfg.getint("init", "seed")
    deltas = cfg.getfloatlist("linearized", "deltas")
    amp = cfg.getfloat("linearized", "forcing")
    c0 = cfg.getfloat("linearized", "c0")
    norm_order = cfg.getnonnegative("linearized", "norm_order", integer=True)
    names = [f.strip() for f in cfg.getstr("linearized", "families").split(",")]
    dt = cfg.getpositive("linearized", "dt")

    def family(name):
        if name == "constant":
            return constant_coefficient(1.0)
        if name == "standing-wave":
            return standing_wave(cfg.getfloat("linearized", "wave_amplitude"))
        raise ConfigError(f"linearized.families: unknown family {name!r}")

    rng = np.random.default_rng(seed)
    shapes = [random_band_scalar(grid, rng, 2.0) for _ in range(3 + grid.dim)]
    records = []
    results = {}
    for name in names:
        coeff = family(name)
        constants = {}
        for delta in deltas:
            params = cfg.build_params(delta=delta)
            problem = LinearizedProblem(
                coeff=coeff,
                init_nrel=delta * amp * shapes[0],
                init_mom=amp * np.stack(shapes[1:1 + grid.dim]),
                init_dtheta=delta * amp * shapes[1 + grid.dim],
                init_drad=np.sqrt(delta) * amp * shapes[2 + grid.dim],
                horizon=cfg.getnonnegative("linearized", "t_end"),
                norm_order=norm_order)
            traj = solve_linearized(grid, problem, params, eos, dt=dt)
            rep = check_estimate(traj, c0=c0)
            constants[delta] = rep.constant
            records.append(diag.DiagnosticsRecord(
                time=traj.times[-1], bundle_sup=max(traj.bundles),
                energy_E=rep.lhs_sup, diss_u=traj.cum_dissipation[-1],
                diss_theta=0.0, diss_G=0.0,
                exchange_residual=rep.constant, delta=delta, seed=seed,
                kind="linearized"))
        vals = list(constants.values())
        results[name] = {
            "constants": {str(d): c for d, c in constants.items()},
            "max_over_min": max(vals) / min(vals) if min(vals) > 0 else math.inf,
            "c0": c0,
        }
    write_diagnostics_csv(out / "linearized.csv", records)
    _write_json(out / "linearized_report.json",
                {"kind": "linearized", "seed": seed, "families": results})
    return results
