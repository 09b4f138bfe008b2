"""Experiment configuration: one INI file, strict keys, documented defaults.

Every key has a default except ``sweep.deltas``, which the sweep command
requires.  Unknown sections or keys, non-finite numbers and unknown
``output.formats`` entries are rejected so typos fail fast with exit code
2.  ``rhdlab config-reference`` prints the annotated defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .fields import SpectralGrid
from .initial import InitSpec
from .model import IdealGasEOS, PhysParams, equilibrium_radiation

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "default_config",
           "config_reference_text"]


class ConfigError(Exception):
    """Malformed or inconsistent configuration (CLI exit code 2)."""


# (default, help) per section/key; defaults are stored as strings exactly as
# they would appear in the file.
_SCHEMA = {
    "grid": {
        "dim": ("2", "spatial dimension, 2 or 3"),
        "points_per_axis": ("64", "even grid points per axis, >= 8"),
        "extent": ("6.283185307179586", "box period per axis"),
        "dealias": ("true", "2/3-rule filtering of nonlinear tendencies"),
    },
    "params": {
        "mu": ("0.1", "shear viscosity > 0"),
        "lam": ("0.0", "second viscosity, 3*lam + 2*mu >= 0"),
        "kappa": ("0.1", "heat conduction > 0"),
        "nu": ("0.1", "radiation diffusion > 0"),
        "sigma_a": ("1.0", "absorption > 0"),
        "sigma_tilde": ("1.0", "scaled Stefan constant > 0"),
        "delta": ("0.1", "Mach parameter in (0, 1]"),
        "rho_bar": ("1.0", "background density"),
        "theta_bar": ("1.0", "background temperature"),
        "n_bar": ("auto", "background radiation; 'auto' derives the "
                          "radiative-equilibrium value"),
    },
    "eos": {
        "kind": ("ideal", "equation of state family ('ideal')"),
        "gas_constant": ("1.0", "R in P = R*rho*theta, > 0"),
        "heat_capacity": ("1.0", "c_v in e = c_v*theta, > 0"),
    },
    "init": {
        "budget": ("0.5", "weighted-norm bundle budget (M0 / delta0)"),
        "seed": ("0", "random seed"),
        "spectrum_peak": ("2.0", "wavenumber of the random-field energy peak"),
        "mode": ("global-thm", "'global-thm' budgets |u0|, 'local-thm' "
                               "budgets |rho0 u0|"),
        "norm_order": ("3", "Sobolev order of the budgeted norms"),
        "slaved_radiation": ("false", "slave radiation data to temperature"),
        "balanced_pressure": ("true", "slave temperature data to density so "
                                      "the linearized pressure vanishes"),
    },
    "solver": {
        "dt": ("auto", "time step; 'auto' uses 0.25*dx/max(1, |u0|)"),
        "t_end": ("0.5", "final time"),
        "scheme": ("imex1", "'imex1' (first order) or 'imex2' (second order)"),
        "with_reference": ("false", "also run the incompressible reference"),
        "ns_scheme": ("cn", "reference diffusion: 'cn' or 'be'"),
    },
    "diagnostics": {
        "order": ("3", "Sobolev order of the norm bundle"),
        "beta": ("0.05", "cross-term weight in the energy functional, "
                         "in [0, 1]"),
    },
    "sweep": {
        "deltas": (None, "comma-separated, strictly decreasing, in (0, 1]"),
    },
    "linearized": {
        "deltas": ("0.2,0.1,0.05", "Mach values for the estimate probe"),
        "families": ("constant,standing-wave", "coefficient families"),
        "wave_amplitude": ("0.5", "standing-wave amplitude (|a| < 1)"),
        "t_end": ("0.5", "probe horizon"),
        "dt": ("0.001", "probe time step"),
        "norm_order": ("2", "Sobolev order of the probe norms"),
        "c0": ("1.0", "exponent constant reported with the estimate"),
        "forcing": ("0.05", "amplitude of the random probe data"),
    },
    "output": {
        "dir": ("out", "output directory"),
        "cadence": ("10", "steps between diagnostics rows"),
        "formats": ("csv,json", "csv and/or json, comma-separated: which "
                                "outputs every command writes "
                                "(effective_config.ini always)"),
        "snapshots": ("false", "write field snapshots of the final state"),
    },
}


@dataclass
class ExperimentConfig:
    """Typed view of one configuration file."""
    raw: dict

    def section(self, name) -> dict:
        return self.raw[name]

    # -- typed getters ------------------------------------------------------

    def _get(self, section, key):
        try:
            return self.raw[section][key]
        except KeyError:
            raise ConfigError(f"missing required key {section}.{key}") from None

    def getstr(self, section, key) -> str:
        return str(self._get(section, key))

    def getint(self, section, key) -> int:
        val = self._get(section, key)
        try:
            return int(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}: expected integer, got {val!r}") from None

    def getfloat(self, section, key) -> float:
        val = self._get(section, key)
        try:
            num = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}: expected number, got {val!r}") from None
        if not math.isfinite(num):
            raise ConfigError(f"{section}.{key}: expected a finite number, "
                              f"got {val!r}")
        return num

    def getpositive(self, section, key, integer: bool = False):
        val = (self.getint if integer else self.getfloat)(section, key)
        if not val > 0:
            raise ConfigError(f"{section}.{key} must be positive, got {val}")
        return val

    def getnonnegative(self, section, key, integer: bool = False):
        val = (self.getint if integer else self.getfloat)(section, key)
        if not val >= 0:
            raise ConfigError(f"{section}.{key} must be >= 0, got {val}")
        return val

    def getchoice(self, section, key, choices) -> str:
        val = self.getstr(section, key)
        if val not in choices:
            raise ConfigError(f"{section}.{key}: expected one of "
                              f"{', '.join(choices)}, got {val!r}")
        return val

    def getbool(self, section, key) -> bool:
        val = str(self._get(section, key)).strip().lower()
        if val in ("true", "1", "yes", "on"):
            return True
        if val in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}: expected boolean, got {val!r}")

    def getfloatlist(self, section, key):
        val = self.getstr(section, key)
        try:
            items = [float(x) for x in val.split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected comma-separated "
                              f"numbers, got {val!r}") from None
        if not items:
            raise ConfigError(f"{section}.{key}: empty list")
        if not all(math.isfinite(x) for x in items):
            raise ConfigError(f"{section}.{key}: expected finite numbers, "
                              f"got {val!r}")
        return items

    # -- object builders ----------------------------------------------------

    def build_grid(self) -> SpectralGrid:
        try:
            return SpectralGrid(dim=self.getint("grid", "dim"),
                                points_per_axis=self.getint("grid", "points_per_axis"),
                                extent=self.getfloat("grid", "extent"),
                                dealias=self.getbool("grid", "dealias"))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None

    def build_eos(self):
        kind = self.getstr("eos", "kind")
        if kind != "ideal":
            raise ConfigError(f"eos.kind: unknown family {kind!r}")
        return IdealGasEOS(R=self.getpositive("eos", "gas_constant"),
                           c_v=self.getpositive("eos", "heat_capacity"))

    def build_params(self, delta: Optional[float] = None) -> PhysParams:
        d = delta if delta is not None else self.getfloat("params", "delta")
        n_bar_raw = self.getstr("params", "n_bar")
        theta_bar = self.getpositive("params", "theta_bar")
        sigma_a = self.getpositive("params", "sigma_a")
        sigma_tilde = self.getpositive("params", "sigma_tilde")
        if n_bar_raw == "auto":
            n_bar = equilibrium_radiation(theta_bar, sigma_a, sigma_tilde)
        else:
            n_bar = self.getfloat("params", "n_bar")
        try:
            return PhysParams(
                mu=self.getfloat("params", "mu"),
                lam=self.getfloat("params", "lam"),
                kappa=self.getfloat("params", "kappa"),
                nu=self.getfloat("params", "nu"),
                sigma_a=sigma_a, sigma_tilde=sigma_tilde, delta=d,
                rho_bar=self.getfloat("params", "rho_bar"),
                theta_bar=theta_bar, n_bar=n_bar)
        except Exception as exc:
            raise ConfigError(f"params: {exc}") from None

    def build_init_spec(self, delta: Optional[float] = None,
                        seed: Optional[int] = None) -> InitSpec:
        try:
            return InitSpec(
                budget=self.getfloat("init", "budget"),
                delta=delta if delta is not None else self.getfloat("params", "delta"),
                seed=seed if seed is not None else self.getint("init", "seed"),
                spectrum_peak=self.getfloat("init", "spectrum_peak"),
                mode=self.getstr("init", "mode"),
                norm_order=self.getint("init", "norm_order"),
                slaved_radiation=self.getbool("init", "slaved_radiation"),
                balanced_pressure=self.getbool("init", "balanced_pressure"))
        except Exception as exc:
            raise ConfigError(f"init: {exc}") from None

    def output_cadence(self) -> int:
        return self.getpositive("output", "cadence", integer=True)

    def output_formats(self) -> set:
        """The comma-separated ``output.formats`` entries, each csv or json."""
        val = self.getstr("output", "formats")
        formats = {f.strip() for f in val.split(",") if f.strip()}
        if not formats <= {"csv", "json"}:
            raise ConfigError(f"output.formats: expected entries csv or json, "
                              f"got {val!r}")
        return formats

    def sweep_deltas(self):
        if "deltas" not in self.raw.get("sweep", {}) or \
                self.raw["sweep"]["deltas"] is None:
            raise ConfigError("missing required key sweep.deltas")
        deltas = self.getfloatlist("sweep", "deltas")
        if any(not 0.0 < d <= 1.0 for d in deltas):
            raise ConfigError("sweep.deltas: all values must lie in (0, 1]")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("sweep.deltas: values must be strictly decreasing")
        return deltas


def default_config() -> ExperimentConfig:
    raw = {sec: {k: v for k, (v, _) in keys.items() if v is not None}
           for sec, keys in _SCHEMA.items()}
    return ExperimentConfig(raw)


def load_config(path) -> ExperimentConfig:
    """Parse and validate one INI file against the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = default_config()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            cfg.raw[section][key] = value
    return cfg


def dump_config_text(cfg: ExperimentConfig) -> str:
    """Serialize the effective configuration back to INI text.

    Round-trips through :func:`load_config`; written next to run outputs so
    every experiment carries its exact parameter set.
    """
    lines = []
    for sec in _SCHEMA:
        keys = cfg.raw.get(sec, {})
        if not keys:
            continue
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def config_reference_text() -> str:
    """Annotated INI listing of every key and its default."""
    lines = ["# rhdlab configuration reference (defaults shown; all keys",
             "# optional except sweep.deltas, required by the sweep command)",
             ""]
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (default, help_text) in keys.items():
            lines.append(f"# {help_text}")
            shown = default if default is not None else "<required>"
            lines.append(f"{key} = {shown}")
        lines.append("")
    return "\n".join(lines)
