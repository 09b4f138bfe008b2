"""Experiment configuration: one INI file, strict keys, documented defaults.

Every key has a default except ``sweep.deltas``, which the sweep command
requires.  Every key's schema entry holds a parser that declares its type
and domain, and :func:`load_config` parses and range-checks every value
before any work, so an unknown section or key, or a value outside its
domain, fails with exit code 2 and the key's name whichever command reads
it.  Checks that span keys or depend on the grid stay with the objects
built from the values.  ``rhdlab config-reference`` prints the annotated
defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from . import incompressible, steppers
from .fields import SpectralGrid
from .initial import _MODES, InitSpec
from .model import (IdealGasEOS, ParameterError, PhysParams,
                    equilibrium_radiation)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "default_config",
           "config_reference_text"]


class ConfigError(Exception):
    """Malformed or inconsistent configuration (CLI exit code 2)."""


# -- value parsers: text -> value, or ValueError saying what was expected ---

def _number(domain: str, test=lambda x: True, cast=float):
    """Parser of a finite ``cast`` (float or int) for which ``test`` holds;
    ``domain`` describes the admitted values in errors."""
    def parse(text):
        try:
            value = cast(text)
            valid = math.isfinite(value) and test(value)
        except (ValueError, OverflowError):  # not a number; an int past float
            valid = False
        if not valid:
            raise ValueError(f"expected {domain}, got {text!r}")
        return value
    return parse


def _choice(*options):
    def parse(text):
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, "
                             f"got {text!r}")
        return text
    return parse


def _boolean(text):
    val = text.strip().lower()
    if val in ("true", "1", "yes", "on"):
        return True
    if val in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


def _auto_or(parse):
    return lambda text: text if text == "auto" else parse(text)


def _list(parse):
    """Parser of a non-empty comma-separated list of distinct ``parse``
    values."""
    def parse_list(text):
        items = [parse(x.strip()) for x in text.split(",") if x.strip()]
        if not items:
            raise ValueError("expected at least one entry")
        if len(set(items)) < len(items):
            raise ValueError(f"expected distinct entries, got {text!r}")
        return items
    return parse_list


def _deltas(text):
    """Mach values: in (0, 1] and strictly decreasing."""
    deltas = _list(_number("numbers in (0, 1]",
                           lambda x: 0.0 < x <= 1.0))(text)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"values must be strictly decreasing, got {text!r}")
    return deltas


_FINITE = _number("a finite number")
_POSITIVE = _number("a finite number > 0", lambda x: x > 0.0)
_NONNEGATIVE = _number("a finite number >= 0", lambda x: x >= 0.0)
_NONNEGATIVE_INT = _number("an integer >= 0", lambda x: x >= 0, int)

# (default, help, parser) per section/key; defaults are stored as strings
# exactly as they would appear in the file.
_SCHEMA = {
    "grid": {
        "dim": ("2", "spatial dimension, 2 or 3",
                _number("2 or 3", lambda x: x in (2, 3), int)),
        "points_per_axis": ("64", "even grid points per axis, >= 8",
                            _number("an even integer >= 8",
                                    lambda x: x >= 8 and x % 2 == 0, int)),
        "extent": ("6.283185307179586", "box period per axis, > 0",
                   _POSITIVE),
        "dealias": ("true", "2/3-rule filtering of nonlinear tendencies",
                    _boolean),
    },
    "params": {
        "mu": ("0.1", "shear viscosity > 0", _POSITIVE),
        "lam": ("0.0", "second viscosity, 3*lam + 2*mu >= 0", _FINITE),
        "kappa": ("0.1", "heat conduction > 0", _POSITIVE),
        "nu": ("0.1", "radiation diffusion > 0", _POSITIVE),
        "sigma_a": ("1.0", "absorption > 0", _POSITIVE),
        "sigma_tilde": ("1.0", "scaled Stefan constant > 0", _POSITIVE),
        "delta": ("0.1", "Mach parameter in (0, 1]",
                  _number("a number in (0, 1]", lambda x: 0.0 < x <= 1.0)),
        "rho_bar": ("1.0", "background density > 0", _POSITIVE),
        "theta_bar": ("1.0", "background temperature > 0, theta_bar**4 finite",
                      _number("a finite number > 0 with a finite fourth power",
                              lambda x: x > 0.0 and math.isfinite(x ** 4))),
        "n_bar": ("auto", "background radiation > 0; 'auto' derives the "
                          "radiative-equilibrium value", _auto_or(_POSITIVE)),
    },
    "eos": {
        "kind": ("ideal", "equation of state family ('ideal')",
                 _choice("ideal")),
        "gas_constant": ("1.0", "R in P = R*rho*theta, > 0", _POSITIVE),
        "heat_capacity": ("1.0", "c_v in e = c_v*theta, > 0", _POSITIVE),
    },
    "init": {
        "budget": ("0.5", "weighted-norm bundle budget (M0 / delta0), >= 0",
                   _NONNEGATIVE),
        "seed": ("0", "random seed, >= 0", _NONNEGATIVE_INT),
        "spectrum_peak": ("2.0", "wavenumber of the random-field energy "
                                 "peak, > 0", _POSITIVE),
        "mode": ("global-thm", "'global-thm' budgets |u0|, 'local-thm' "
                               "budgets |rho0 u0|", _choice(*_MODES)),
        "norm_order": ("3", "Sobolev order of the budgeted norms",
                       _NONNEGATIVE_INT),
        "slaved_radiation": ("false", "slave radiation data to temperature",
                             _boolean),
        "balanced_pressure": ("true", "slave temperature data to density so "
                                      "the linearized pressure vanishes",
                              _boolean),
    },
    "solver": {
        "dt": ("auto", "time step > 0; 'auto' uses 0.25*dx/max(1, |u0|)",
               _auto_or(_POSITIVE)),
        "t_end": ("0.5", "final time, >= 0", _NONNEGATIVE),
        "scheme": ("imex1", "'imex1' (first order) or 'imex2' (second order)",
                   _choice(*steppers.SCHEMES)),
        "with_reference": ("false", "also run the incompressible reference",
                           _boolean),
        "ns_scheme": ("cn", "reference diffusion: 'cn' or 'be'",
                      _choice(*incompressible.SCHEMES)),
    },
    "diagnostics": {
        "order": ("3", "Sobolev order of the norm bundle", _NONNEGATIVE_INT),
        "beta": ("0.05", "cross-term weight in the energy functional, "
                         "in [0, 1]",
                 _number("a number in [0, 1]", lambda x: 0.0 <= x <= 1.0)),
    },
    "sweep": {
        "deltas": (None, "comma-separated, strictly decreasing, in (0, 1]",
                   _deltas),
    },
    "linearized": {
        "deltas": ("0.2,0.1,0.05", "Mach values for the estimate probe, "
                                   "as sweep.deltas", _deltas),
        "families": ("constant,standing-wave", "coefficient families",
                     _list(_choice("constant", "standing-wave"))),
        "wave_amplitude": ("0.5", "standing-wave amplitude (|a| < 1)",
                           _number("a number in (-1, 1)",
                                   lambda x: abs(x) < 1.0)),
        "t_end": ("0.5", "probe horizon, >= 0", _NONNEGATIVE),
        "dt": ("0.001", "probe time step, > 0", _POSITIVE),
        "norm_order": ("2", "Sobolev order of the probe norms",
                       _NONNEGATIVE_INT),
        "c0": ("1.0", "exponent constant reported with the estimate",
               _FINITE),
        "forcing": ("0.05", "amplitude of the random probe data, > 0",
                    _POSITIVE),
    },
    "output": {
        "dir": ("out", "output directory", str),
        "cadence": ("10", "steps between diagnostics rows, > 0",
                    _number("an integer > 0", lambda x: x > 0, int)),
        "formats": ("csv,json", "csv and/or json, comma-separated: which "
                                "outputs every command writes "
                                "(effective_config.ini always)",
                    _list(_choice("csv", "json"))),
        "snapshots": ("false", "write field snapshots of the final state",
                      _boolean),
    },
}


@dataclass
class ExperimentConfig:
    """Typed view of one configuration file: ``raw`` holds the text of each
    value, :meth:`get` its parsed value."""
    raw: dict

    def get(self, section, key):
        """The value of ``section.key``, parsed and range-checked by its
        schema entry."""
        text = self.raw[section].get(key)
        if text is None:
            raise ConfigError(f"missing required key {section}.{key}")
        try:
            return _SCHEMA[section][key][2](text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None

    # -- object builders ----------------------------------------------------

    def build_grid(self) -> SpectralGrid:
        try:
            return SpectralGrid(**{key: self.get("grid", key)
                                   for key in _SCHEMA["grid"]})
        except ValueError as exc:
            # dim and points_per_axis passed the schema: only the extent
            # can put the volume or the largest |k|^2 out of float range
            raise ConfigError(f"grid.extent: {exc}") from None

    def build_eos(self):
        return IdealGasEOS(R=self.get("eos", "gas_constant"),
                           c_v=self.get("eos", "heat_capacity"))

    def build_params(self, delta: Optional[float] = None) -> PhysParams:
        values = {key: self.get("params", key) for key in _SCHEMA["params"]}
        if delta is not None:
            values["delta"] = delta
        try:
            if values["n_bar"] == "auto":
                values["n_bar"] = equilibrium_radiation(
                    values["theta_bar"], values["sigma_a"],
                    values["sigma_tilde"])
            return PhysParams(**values)
        except ParameterError as exc:
            raise ConfigError(f"params: {exc}") from None

    def build_init_spec(self, delta: Optional[float] = None,
                        seed: Optional[int] = None) -> InitSpec:
        values = {key: self.get("init", key) for key in _SCHEMA["init"]}
        if seed is not None:
            values["seed"] = seed
        return InitSpec(
            delta=delta if delta is not None else self.get("params", "delta"),
            **values)


def default_config() -> ExperimentConfig:
    raw = {sec: {k: v for k, (v, _, _) in keys.items() if v is not None}
           for sec, keys in _SCHEMA.items()}
    return ExperimentConfig(raw)


def load_config(path) -> ExperimentConfig:
    """Parse one INI file against the schema and range-check every value."""
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
    for section, keys in cfg.raw.items():
        for key in keys:
            cfg.get(section, key)
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
    """Annotated INI listing of every key and its default; it loads as is,
    since the one key without a default is commented out."""
    lines = ["# rhdlab configuration reference (defaults shown; all keys",
             "# optional except sweep.deltas, required by the sweep command)",
             ""]
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key, (default, help_text, _) in keys.items():
            lines.append(f"# {help_text}")
            lines.append(f"# {key} = <required>" if default is None
                         else f"{key} = {default}")
        lines.append("")
    return "\n".join(lines)
