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
from .fields import SpectralGrid, save_field
from .incompressible import IncompressibleSolver
from .initial import InitError, make_well_prepared, random_band_scalar
from .linearized import (LinearizedProblem, check_estimate,
                         constant_coefficient, solve_linearized, standing_wave)

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


def write_diagnostics_csv(path, records) -> None:
    """Frozen CSV contract; first line is a timestamp comment."""
    lines = ["# generated " + _time.strftime("%Y-%m-%dT%H:%M:%S"),
             ",".join(diag.CSV_COLUMNS)]
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


@dataclass
class _Setup:
    """What every command resolves before any work: the configuration, the
    output directory, the grid, the gas law and the seed."""
    cfg: ExperimentConfig
    out: Path
    grid: SpectralGrid
    eos: object
    seed: int

    def collector(self, params, kind, reference=None):
        """The observer of one run at ``params``; its rows carry ``kind``
        and, given the ``reference`` trajectory, the limit errors."""
        return diag.Collector(self.grid, params, self.eos,
                              order=self.cfg.get("diagnostics", "order"),
                              beta=self.cfg.get("diagnostics", "beta"),
                              seed=self.seed, kind=kind, reference=reference)

    def write(self, csv_name, records, json_name, payload):
        """``effective_config.ini``, then the CSV of ``records`` and the JSON
        of ``payload`` as ``output.formats`` selects them."""
        (self.out / "effective_config.ini").write_text(
            dump_config_text(self.cfg))
        formats = self.cfg.get("output", "formats")
        if "csv" in formats:
            write_diagnostics_csv(self.out / csv_name, records)
        if "json" in formats:
            _write_json(self.out / json_name, payload)


def _setup(cfg: ExperimentConfig, out_dir, seed) -> _Setup:
    """Build the grid and the gas law, check that the observer's weight is
    finite on the grid, resolve the seed, and create the output directory.

    A ``seed`` given here replaces ``init.seed`` in the set-up's copy of the
    configuration, so ``effective_config.ini`` reproduces the run."""
    if seed is not None:
        cfg = ExperimentConfig({sec: dict(keys) for sec, keys in cfg.raw.items()})
        cfg.raw["init"]["seed"] = str(seed)
    grid = cfg.build_grid()
    order = cfg.get("diagnostics", "order")
    with np.errstate(over="ignore"):
        weight = grid.sobolev_weight(order)
    if not np.all(np.isfinite(weight)):
        raise ConfigError(f"diagnostics.order = {order}: the weight "
                          f"(1 + |k|^2)^{order} overflows on this grid")
    setup = _Setup(cfg, Path(out_dir), grid, cfg.build_eos(),
                   cfg.get("init", "seed"))
    setup.out.mkdir(parents=True, exist_ok=True)
    return setup


def _resolve_dt(s: _Setup, u0) -> float:
    dt = s.cfg.get("solver", "dt")
    return default_dt(s.grid, u0) if dt == "auto" else dt


def _reference_velocity(s: _Setup, params, prepared=None):
    """Initial datum of the incompressible reference.

    Uses the velocity-budget normalization (the Mach-free variant), so in
    global-thm mode it coincides with every sweep member's initial velocity:
    then the velocity of ``prepared``, a :func:`_prepare` result at
    ``params``, is reused.  The datum is divergence-free already; the
    reference masks and projects it on entry.
    """
    if prepared is not None and prepared[1]["mode"] == "global-thm":
        return prepared[0].u
    return _prepare(s, params, mode="global-thm")[0].u


def _prepare(s: _Setup, params, **changes):
    """Well-prepared initial state and its report at ``params.delta``.

    ``changes`` replace fields of the configured :class:`InitSpec`.  Data
    the ``init`` settings cannot produce is a configuration error."""
    spec = replace(s.cfg.build_init_spec(delta=params.delta, seed=s.seed),
                   **changes)
    try:
        return make_well_prepared(spec, s.grid, params, s.eos)
    except InitError as exc:
        key = f"init.{exc.key}" if exc.key else "init"
        raise ConfigError(f"{key}: {exc}") from None


def _run_one_compressible(s: _Setup, params, dt, prepared, reference):
    state0, init_report = prepared
    solver_cfg = SolverConfig(
        dt=dt,
        t_end=s.cfg.get("solver", "t_end"),
        scheme=s.cfg.get("solver", "scheme"))
    solver = CompressibleSolver(s.grid, params, s.eos, solver_cfg)
    traj = solver.run(state0, cadence=s.cfg.get("output", "cadence"),
                      observer=s.collector(params, "run", reference).observe)
    return traj, init_report, solver_cfg


def _run_reference_traj(s: _Setup, params, u0, dt):
    ns = IncompressibleSolver(s.grid, params.mu_bar, params.rho_bar,
                              scheme=s.cfg.get("solver", "ns_scheme"))
    return ns.run(u0, dt, s.cfg.get("solver", "t_end"),
                  cadence=s.cfg.get("output", "cadence"))


def _ref_error(traj: Trajectory):
    """Sup in time of the limit errors in the rows of a run observed
    against a reference."""
    return {"sup_L2": max(r.ref_error_L2 for r in traj.records),
            "sup_H1": max(r.ref_error_H1 for r in traj.records)}


def _traj_summary(traj: Trajectory, init_report, solver_cfg):
    return {
        "status": traj.status,
        "abort_reason": traj.abort_reason,
        "abort_time": traj.abort_time,
        "dt": traj.dt,
        "delta": traj.delta,
        "final_time": traj.times[-1] if traj.times else 0.0,
        "negative_radiation_points": traj.negative_radiation_points,
        # sups in time over the rows, from 0.0: a NaN row never replaces one
        **{"sup_" + key: max([0.0, *(r.extras[key] for r in traj.records)])
           for key in ("l2_density_temperature", "l2_radiation",
                       "l2_velocity")},
        "sup_bundle": max([0.0, *(r.bundle_sup for r in traj.records)]),
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
    s = _setup(cfg, out_dir, seed)
    params = cfg.build_params()
    prepared = _prepare(s, params)
    dt = _resolve_dt(s, prepared[0].u)

    ref = (_run_reference_traj(s, params,
                               _reference_velocity(s, params, prepared), dt)
           if cfg.get("solver", "with_reference") else None)
    traj, init_report, solver_cfg = _run_one_compressible(s, params, dt,
                                                          prepared, ref)
    summary = {"kind": "run", "seed": s.seed}
    if ref is not None and traj.status == "ok":
        summary["ref_error"] = _ref_error(traj)
    summary.update(_traj_summary(traj, init_report, solver_cfg))

    s.write("diagnostics.csv", traj.records, "summary.json", summary)
    if cfg.get("output", "snapshots") and traj.final_state is not None:
        fs = traj.final_state
        save_field(s.out / "final_velocity.dat", fs.u, s.grid)
        save_field(s.out / "final_density_pert.dat", fs.drho, s.grid)
    if traj.status != "ok":
        raise RunError(f"run aborted at t={traj.abort_time}: {traj.abort_reason}")
    return summary


def run_reference(cfg: ExperimentConfig, out_dir, seed=None):
    """Incompressible reference run alone, same CSV surface.

    The rows come from the run observer on a state whose only non-zero
    fields are the reference velocity: ``bundle_sup`` and ``energy_E`` are
    its squared ``H^order`` norm, ``diss_u`` the trapezoid of
    ``mu_bar |grad u|^2`` in ``H^order``, and the other fields' columns 0.
    """
    s = _setup(cfg, out_dir, seed)
    params = cfg.build_params()
    u0 = _reference_velocity(s, params)
    dt = _resolve_dt(s, u0)
    ref = _run_reference_traj(s, params, u0, dt)

    collector = s.collector(params, "reference")
    d = s.grid.dim
    X = np.zeros((d + 3,) + s.grid.spectral_shape, dtype=np.complex128)
    records = []
    for t, uhat in zip(ref.times, ref.uhats):
        X[1:1 + d] = uhat
        records.append(collector.observe(X, t))
    summary = {"kind": "reference", "seed": s.seed, "dt": ref.dt,
               "final_time": ref.times[-1],
               "final_kinetic_energy": float(np.sum(
                   s.grid.norm_sq(ref.uhats[-1])))}
    s.write("reference.csv", records, "reference_summary.json", summary)
    return summary


def run_sweep(cfg: ExperimentConfig, out_dir, seed=None, threads: int = 1):
    """Mach sweep with one shared incompressible reference.

    For each delta (same seed): scaled well-prepared data, a compressible
    run, limit errors against the shared reference; then power-law fits of
    the sup-in-time density/temperature and radiation norms and the
    monotonicity of the limit error.  Member failures leave a partial
    report flagged ``incomplete``.
    """
    deltas = cfg.get("sweep", "deltas")
    budget = cfg.get("init", "budget")
    if not budget > 0.0:  # zero data leave nothing to fit
        raise ConfigError(f"init.budget must be positive, got {budget}")
    s = _setup(cfg, out_dir, seed)

    # One dt for every member: the split must absorb the 1/delta^2
    # stiffness, so no member may need a smaller step.
    params0 = cfg.build_params(delta=deltas[0])
    prepared0 = _prepare(s, params0)
    dt = _resolve_dt(s, prepared0[0].u)

    ref = _run_reference_traj(s, params0,
                              _reference_velocity(s, params0, prepared0), dt)

    def member(delta):
        params = cfg.build_params(delta=delta)
        prepared = prepared0 if delta == deltas[0] else _prepare(s, params)
        return _run_one_compressible(s, params, dt, prepared, ref)

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
            entry["ref_error"] = _ref_error(traj)
        else:
            incomplete = True
        members.append(entry)
        all_records.extend(traj.records)

    report = {"kind": "sweep", "seed": s.seed, "dt": dt, "deltas": deltas,
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

    s.write("sweep_diagnostics.csv", all_records, "sweep_report.json", report)
    if incomplete:
        raise RunError("sweep incomplete: at least one member run aborted")
    return report


def run_linearized_probe(cfg: ExperimentConfig, out_dir, seed=None):
    """Uniform-estimate probe over coefficient families and Mach values."""
    s = _setup(cfg, out_dir, seed)
    grid = s.grid
    deltas = cfg.get("linearized", "deltas")
    amp = cfg.get("linearized", "forcing")
    c0 = cfg.get("linearized", "c0")
    dt = cfg.get("linearized", "dt")
    wave = cfg.get("linearized", "wave_amplitude")
    families = [(name, standing_wave(wave) if name == "standing-wave"
                 else constant_coefficient(1.0))
                for name in cfg.get("linearized", "families")]
    rng = np.random.default_rng(s.seed)
    shapes = [random_band_scalar(grid, rng, 2.0) for _ in range(3 + grid.dim)]
    records = []
    results = {}
    for name, coeff in families:
        constants = {}
        for delta in deltas:
            params = cfg.build_params(delta=delta)
            problem = LinearizedProblem(
                coeff=coeff,
                init_nrel=delta * amp * shapes[0],
                init_mom=amp * np.stack(shapes[1:1 + grid.dim]),
                init_dtheta=delta * amp * shapes[1 + grid.dim],
                init_drad=np.sqrt(delta) * amp * shapes[2 + grid.dim],
                horizon=cfg.get("linearized", "t_end"),
                norm_order=cfg.get("linearized", "norm_order"))
            traj = solve_linearized(grid, problem, params, s.eos, dt=dt)
            rep = check_estimate(traj, c0=c0)
            constants[delta] = rep.constant
            records.append(diag.DiagnosticsRecord(
                time=traj.times[-1], bundle_sup=max(traj.bundles),
                energy_E=rep.lhs_sup, diss_u=traj.cum_dissipation[-1],
                diss_theta=0.0, diss_G=0.0,
                exchange_residual=rep.constant, delta=delta, seed=s.seed,
                kind="linearized"))
        vals = list(constants.values())
        results[name] = {
            "constants": {str(d): c for d, c in constants.items()},
            "max_over_min": max(vals) / min(vals) if min(vals) > 0 else math.inf,
            "c0": c0,
        }
    s.write("linearized.csv", records, "linearized_report.json",
            {"kind": "linearized", "seed": s.seed, "families": results})
    return results
