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
from numpy.random import default_rng

from . import diagnostics as diag
from .compressible import CompressibleSolver, Trajectory, check_dt, default_dt
from .config import ConfigError, ExperimentConfig, dump_config_text
from .fields import SpectralGrid, save_field
from .incompressible import IncompressibleSolver
from .initial import InitError, make_well_prepared, random_band_scalar
from .linearized import LinearizedProblem, check_estimate, solve_linearized
from .model import DomainError, ParameterError
from .steppers import schedule

__all__ = ["fit_rate", "run_single", "run_reference", "run_sweep",
           "run_linearized_probe", "write_diagnostics_csv", "RunError"]


class RunError(Exception):
    """A run failed or produced an invalid report (CLI exit code 1)."""


def fit_rate(points) -> dict:
    """Fit a power law through ``(delta, value)`` pairs: the least-squares
    line of log(value) against log(delta), as ``{"points", "slope",
    "intercept", "r2"}``.

    Requires at least three points with finite positive deltas and values,
    and at least two distinct deltas.
    """
    pts = [(float(d), float(v)) for d, v in points]
    if len(pts) < 3:
        raise RunError(f"rate fit needs >= 3 points, got {len(pts)}")
    # a NaN fails both comparisons
    bad = [p for p in pts if not all(0.0 < x < math.inf for x in p)]
    if bad:
        raise RunError(f"rate fit needs finite positive points, got {bad[0]}")
    if len({d for d, _ in pts}) < 2:
        raise RunError("rate fit needs >= 2 distinct deltas")
    x = np.log([d for d, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"points": [[d, v] for d, v in pts], "slope": float(slope),
            "intercept": float(intercept), "r2": r2}


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
    output directory, the grid and the seed."""
    cfg: ExperimentConfig
    out: Path
    grid: SpectralGrid
    seed: int

    def collector(self, bg, kind, reference=None):
        """The observer of one run at ``bg``; its rows carry ``kind``
        and, given the ``reference`` trajectory, the limit errors."""
        return diag.Collector(self.grid, bg,
                              order=self.cfg.get("diagnostics", "order"),
                              beta=self.cfg.get("diagnostics", "beta"),
                              seed=self.seed, kind=kind, reference=reference)

    def write(self, csv_name, records, json_name, payload):
        """Create the output directory, so that a command refused before
        its outputs leaves none, then write ``effective_config.ini``, the
        CSV of ``records`` and the JSON of ``payload`` as
        ``output.formats`` selects them."""
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "effective_config.ini").write_text(
            dump_config_text(self.cfg))
        formats = self.cfg.get("output", "formats")
        if "csv" in formats:
            write_diagnostics_csv(self.out / csv_name, records)
        if "json" in formats:
            _write_json(self.out / json_name, payload)


def _setup(cfg: ExperimentConfig, out_dir, seed) -> _Setup:
    """Build the grid, check that every Sobolev weight the configuration
    asks for is finite on the whole half spectrum of the grid (point values
    hold every mode; :meth:`rhdlab.fields.SpectralGrid.largest_sobolev_weight`,
    which builds no grid) and resolve the seed.  The output directory is
    made by :meth:`_Setup.write`.

    A ``seed`` given here replaces ``init.seed`` in the set-up's copy of the
    configuration, so ``effective_config.ini`` reproduces the run."""
    if seed is not None:
        cfg = ExperimentConfig({sec: dict(keys) for sec, keys in cfg.raw.items()})
        cfg.raw["init"]["seed"] = str(seed)
    grid = cfg.build_grid()
    with np.errstate(over="ignore"):
        for key in ("diagnostics.order", "init.norm_order",
                    "linearized.norm_order"):
            order = cfg.get(*key.split("."))
            if not np.isfinite(grid.largest_sobolev_weight(order)):
                raise ConfigError(f"{key} = {order}: the weight (1 + |k|^2)"
                                  f"^{order} overflows on this grid")
    return _Setup(cfg, Path(out_dir), grid, cfg.get("init", "seed"))


def _dt(s: _Setup, section, u0=None) -> float:
    """``section.dt``, with ``solver.dt = auto`` the default step at the
    datum ``u0``; a ``section.t_end`` that takes more steps of it than
    :func:`rhdlab.steppers.schedule` admits is a configuration error."""
    dt = s.cfg.get(section, "dt")
    dt = default_dt(s.grid, u0) if dt == "auto" else dt
    try:
        schedule(s.cfg.get(section, "t_end"), dt)
    except ValueError as exc:
        raise ConfigError(f"{section}.t_end / {section}.dt: {exc}") from None
    return dt


def _reference_velocity(s: _Setup, bg, prepared=None):
    """Initial datum of the incompressible reference.

    Uses the velocity-budget normalization (the Mach-free variant), so in
    global-thm mode it coincides with every sweep member's initial velocity:
    then the velocity of ``prepared``, a :func:`_prepare` result at
    ``bg``, is reused.  The datum is divergence-free already; the
    reference crops it to the dealias box and projects it on entry.
    """
    if prepared is not None and prepared[1]["mode"] == "global-thm":
        return prepared[0].u
    return _prepare(s, bg, mode="global-thm")[0].u


def _prepare(s: _Setup, bg, **changes):
    """Well-prepared initial state and its report at ``bg``.

    ``changes`` replace fields of the configured :class:`InitSpec`.  Data
    the ``init`` settings cannot produce is a configuration error."""
    spec = replace(s.cfg.build_init_spec(), **changes)
    try:
        return make_well_prepared(spec, s.grid, bg)
    except InitError as exc:
        key = f"init.{exc.key}" if exc.key else "init"
        if exc.key == "norm_order":
            # the H^N weight is (1 + |k|^2)^N, and |k| grows as the
            # extent shrinks
            key += " / grid.extent"
        raise ConfigError(f"{key}: {exc}") from None
    except ParameterError as exc:
        raise ConfigError(f"params: {exc}") from None


def _run_reference_traj(s: _Setup, bg, u0, dt):
    ns = IncompressibleSolver(s.grid, bg.params.mu_bar, bg.params.rho_bar)
    return ns.run(u0, dt, s.cfg.get("solver", "t_end"),
                  cadence=s.cfg.get("output", "cadence"))


def _traj_summary(traj: Trajectory, init_report, solver, delta):
    return {
        "status": traj.status,
        "abort_reason": traj.abort_reason,
        "abort_time": traj.abort_time,
        "dt": solver.dt,
        "delta": delta,
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
                   "scheme": solver.scheme,
                   "imex_split": "acoustic+diffusion+exchange"},
    }


def _members(s: _Setup, deltas, reference: bool, threads: int = 1):
    """The compressible runs of ``run`` (one delta) and ``sweep``.

    Resolves the first member's background and datum and, from them, the
    one ``dt`` of every member: the split must absorb the 1/delta^2
    stiffness, so no member may need a smaller step.  A ``solver.dt``
    above the bound of :func:`rhdlab.compressible.check_dt` at that datum,
    which every run would abort on at once, is a configuration error,
    raised before the reference takes a step.  With ``reference``,
    the incompressible reference runs from that datum first, and every
    member is observed against it.  Each member then runs its own
    background and datum (the first takes the first ones over), and packs
    its datum before it steps, so no run holds its datum's point values
    while it steps.  Returns ``dt`` and, per delta in order, ``(trajectory,
    summary)``; a summary holds ``ref_error``, the sups in time of the
    limit errors, when its run finished against a reference.  A member
    whose observation at t = 0 leaves float range is a configuration error
    (:func:`_refusing_at_entry`).  With ``threads > 1`` the members run on
    a thread pool.  One thread keeps them on the calling thread, so that
    Ctrl-C stops a ``run`` at once instead of waiting for its member.
    """
    bg0 = s.cfg.build_background(deltas[0])
    # member 0's datum, which member 0 takes out: nothing else keeps it
    first = [_prepare(s, bg0)]
    dt = _dt(s, "solver", first[0][0].u)
    try:
        check_dt(s.grid, dt, first[0][0].u)
    except DomainError as exc:
        raise ConfigError(f"solver.dt: {exc}") from None
    ref = (_run_reference_traj(s, bg0, _reference_velocity(s, bg0, first[0]),
                               dt) if reference else None)

    def member(i):
        bg = bg0 if i == 0 else s.cfg.build_background(deltas[i])
        state0, init_report = first.pop() if i == 0 else _prepare(s, bg)
        solver = CompressibleSolver(s.grid, bg, dt,
                                    s.cfg.get("solver", "scheme"))
        # the datum's point values go once packed, and the run alone holds
        # the packed datum, which it drops once stepped (from Python 3.11
        # on; before it the caller's frame holds a call's arguments)
        packed = [solver.pack(state0)]
        del state0
        traj = solver.run(packed.pop(),
                          s.cfg.get("solver", "t_end"),
                          cadence=s.cfg.get("output", "cadence"),
                          observer=_refusing_at_entry(
                              s.collector(bg, "run", ref).observe))
        summary = _traj_summary(traj, init_report, solver, deltas[i])
        if ref is not None and traj.status == "ok":
            summary["ref_error"] = {
                "sup_L2": max(r.ref_error_L2 for r in traj.records),
                "sup_H1": max(r.ref_error_H1 for r in traj.records)}
        return traj, summary

    if threads == 1:
        return dt, [member(i) for i in range(len(deltas))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return dt, list(pool.map(member, range(len(deltas))))


def _refusing_at_entry(observe):
    """``observe`` for a run whose observation at t = 0, the last of its
    set-up, refuses norms out of float range as a configuration error
    instead of aborting the run: the run raises it before any step, and
    no output is written.  A later observation that overflows aborts the
    run as any arithmetic of its steps does."""
    def checked(X, t):
        try:
            return observe(X, t)
        except FloatingPointError as exc:
            if t != 0.0:
                raise
            # the exchange rate sigma_a weighs the radiation, the weights
            # grow with the order and the norms with the box volume
            raise ConfigError(f"params / diagnostics.order / grid.extent: "
                              f"the initial state's norms leave float range "
                              f"({exc})") from None
    return checked


def run_single(cfg: ExperimentConfig, out_dir, seed=None):
    """One experiment: the one-member :func:`_members` pipeline at
    ``params.delta``, with the reference if ``solver.with_reference``.

    Writes ``diagnostics.csv`` and ``summary.json`` into ``out_dir`` (and
    the final fields if ``output.snapshots``); returns the summary dict.
    Raises :class:`RunError` if the run aborts.
    """
    s = _setup(cfg, out_dir, seed)
    _, [(traj, member)] = _members(s, [s.cfg.get("params", "delta")],
                                   s.cfg.get("solver", "with_reference"))
    summary = {"kind": "run", "seed": s.seed, **member}
    s.write("diagnostics.csv", traj.records, "summary.json", summary)
    if cfg.get("output", "snapshots") and traj.final_state is not None:
        drho, u = traj.final_state[:2]
        save_field(s.out / "final_velocity.dat", u, s.grid)
        save_field(s.out / "final_density_pert.dat", drho, s.grid)
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
    bg = s.cfg.build_background()
    u0 = _reference_velocity(s, bg)
    dt = _dt(s, "solver", u0)
    ref = _run_reference_traj(s, bg, u0, dt)

    collector = s.collector(bg, "reference")
    d = s.grid.dim
    X = np.zeros((d + 3,) + s.grid.spectral_shape, dtype=np.complex128)
    records = []
    for t, uhat in zip(ref.times, ref.uhats):
        X[1:1 + d] = uhat
        records.append(collector.observe(X, t))
    summary = {"kind": "reference", "seed": s.seed, "dt": dt,
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
    dt, results = _members(s, deltas, True, threads)
    members = [summary for _, summary in results]
    for traj, entry in results:
        ratios = [r.energy_E / r.bundle_sup for r in traj.records
                  if r.bundle_sup > 0.0]
        if ratios:
            entry["energy_bundle_ratio"] = {"min": min(ratios),
                                            "max": max(ratios)}
    all_records = [r for traj, _ in results for r in traj.records]

    ok = [m for m in members if m["status"] == "ok"]
    incomplete = len(ok) < len(members)
    report = {"kind": "sweep", "seed": s.seed, "dt": dt, "deltas": deltas,
              "incomplete": incomplete, "members": members}
    if len(ok) >= 3:
        report["fit_density_temperature"] = fit_rate(
            [(m["delta"], m["sup_l2_density_temperature"]) for m in ok])
        report["fit_radiation"] = fit_rate(
            [(m["delta"], m["sup_l2_radiation"]) for m in ok])
    if not incomplete:
        sups = [m["ref_error"]["sup_L2"] for m in members]
        report["ref_error_sup_L2"] = sups
        report["ref_error_ratios"] = [b / a for a, b in zip(sups, sups[1:])]
        report["ref_error_monotone"] = all(r < 1.0 for r in report["ref_error_ratios"])

    s.write("sweep_diagnostics.csv", all_records, "sweep_report.json", report)
    if incomplete:
        raise RunError("sweep incomplete: at least one member run aborted")
    return report


# Amplitude of the probe's random data: the probe is linear, so its
# constants do not depend on it.
_PROBE_AMPLITUDE = 0.05


def run_linearized_probe(cfg: ExperimentConfig, out_dir, seed=None):
    """Uniform-estimate probe over coefficient families and Mach values.

    Set-up builds one whole grid, for the data shapes.  The solves run
    delta by delta, one :func:`rhdlab.linearized.solve_linearized` call
    per delta for every family (:func:`_probe_delta`), so one delta's
    operator is held at a time; the rows are written family by family, in
    the order of ``linearized.deltas``."""
    s = _setup(cfg, out_dir, seed)
    grid = s.grid
    deltas = cfg.get("linearized", "deltas")
    families = cfg.get("linearized", "families")
    dt = _dt(s, "linearized")
    wave = cfg.get("linearized", "wave_amplitude")
    # the constant family is A = 1
    waves = tuple(wave if name == "standing-wave" else 0.0
                  for name in families)
    whole = grid.whole()
    rng = default_rng(s.seed)
    shapes = [random_band_scalar(whole, rng, 2.0) for _ in range(3 + grid.dim)]
    backgrounds = [s.cfg.build_background(delta) for delta in deltas]
    del whole
    by_delta = [_probe_delta(s, shapes, bg, dt, waves) for bg in backgrounds]
    records, results = [], {}
    for i, name in enumerate(families):
        constants = {}
        for delta, solved in zip(deltas, by_delta):
            constants[delta], record = solved[i]
            records.append(record)
        vals = list(constants.values())
        results[name] = {
            "constants": {str(d): c for d, c in constants.items()},
            "max_over_min": max(vals) / min(vals) if min(vals) > 0 else math.inf,
            # a fixed value, kept because it describes the estimate that ran
            "c0": 1.0,
        }
    s.write("linearized.csv", records, "linearized_report.json",
            {"kind": "linearized", "seed": s.seed, "families": results})
    return results


def _probe_delta(s: _Setup, shapes, bg, dt, waves):
    """The probe at one background: ``(constant, record)`` per amplitude of
    ``waves``, in order, from one datum of the ``shapes`` and one
    :func:`rhdlab.linearized.solve_linearized` call.

    The squared norms grow with the weights, the box volume and the
    exchange rate sigma_a, so initial norms out of the normal float range
    are refused, and so are dissipation weights that overflow; norms that
    leave it during the steps are a diverged probe, a SolverError."""
    grid, delta, amp = s.grid, bg.delta, _PROBE_AMPLITUDE
    try:
        with np.errstate(over="raise", invalid="raise"):
            problem = LinearizedProblem(
                waves=waves,
                init_nrel=delta * amp * shapes[0],
                init_mom=amp * np.stack(shapes[1:1 + grid.dim]),
                init_dtheta=delta * amp * shapes[1 + grid.dim],
                init_drad=np.sqrt(delta) * amp * shapes[2 + grid.dim],
                horizon=s.cfg.get("linearized", "t_end"),
                norm_order=s.cfg.get("linearized", "norm_order"))
            trajs = solve_linearized(grid, problem, bg, dt)
    except FloatingPointError as exc:
        raise ConfigError(f"params / linearized.norm_order / "
                          f"grid.extent: the probe's norms leave "
                          f"float range ({exc})") from None
    except DomainError as exc:
        # the weights are |k|^2 (1 + |k|^2)^norm_order / delta^2
        raise ConfigError(f"linearized.norm_order / linearized.deltas"
                          f" / grid.extent: {exc}") from None
    out = []
    for traj in trajs:
        try:
            rep = check_estimate(traj)
        except DomainError as exc:
            # the load grows with the horizon, the norm order and the box
            # volume
            raise ConfigError(f"linearized.t_end / linearized.norm_order "
                              f"/ grid.extent: {exc}") from None
        out.append((rep.constant, diag.DiagnosticsRecord(
            time=traj.times[-1], bundle_sup=max(traj.bundles),
            energy_E=rep.lhs_sup, diss_u=traj.cum_dissipation[-1],
            diss_theta=0.0, diss_G=0.0,
            exchange_residual=rep.constant, delta=delta, seed=s.seed,
            kind="linearized")))
    return out
