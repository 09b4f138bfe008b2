"""Command-line entry point.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import (ConfigError, config_reference_text, default_config,
                     load_config)
from .identities import run_identity_suite
from .steppers import SolverError
from .sweep import (RunError, fit_rate, run_linearized_probe, run_reference,
                    run_single, run_sweep)

__all__ = ["main"]


def _common_flags(sp):
    sp.add_argument("--config", metavar="PATH",
                    help="experiment configuration file (INI); defaults apply "
                         "when omitted")
    sp.add_argument("--out", metavar="DIR", default=None,
                    help="output directory (overrides output.dir)")
    sp.add_argument("--threads", type=int, default=1, metavar="K",
                    help="worker threads for sweep members")
    sp.add_argument("--seed", type=int, default=None, metavar="S",
                    help="override init.seed")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rhdlab",
        description="Low-Mach radiation-hydrodynamics laboratory: scaled "
                    "compressible runs, incompressible references, Mach "
                    "sweeps, and algebra verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
            ("run", "one compressible experiment (optionally with reference)"),
            ("sweep", "Mach sweep with shared incompressible reference"),
            ("reference", "incompressible reference run alone"),
            ("verify-identities", "run the model algebra identity suite"),
            ("linearized", "uniform-estimate probe of the linearized system"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        _common_flags(sp)

    fit = sub.add_parser("fit", help="power-law fit of (delta, value) points")
    fit.add_argument("points_csv", metavar="POINTS_CSV",
                     help="CSV with two columns: delta, value (header optional)")

    sub.add_parser("config-reference",
                   help="print every configuration key with its default")
    return parser


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    out_dir = args.out if args.out else cfg.get("output", "dir")
    return cfg, Path(out_dir)


def _cmd_fit(args) -> int:
    points, header = [], False
    with open(args.points_csv, newline="") as fh:
        for i, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise RunError(f"row {i} has one column, need delta, value")
            try:
                points.append((float(row[0]), float(row[1])))
            except ValueError:
                if points or header:
                    raise RunError(f"row {i} is not two numbers: "
                                   f"{','.join(row)}") from None
                header = True  # only the first row may be a header
    print(json.dumps(fit_rate(points), indent=2))
    return 0


def _cmd_verify(args) -> int:
    cfg, _ = _load(args)
    grid = cfg.build_grid()
    bg = cfg.build_background()
    seed = args.seed if args.seed is not None else cfg.get("init", "seed")
    results = run_identity_suite(grid, bg, seed=seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    if failed:
        print(f"{len(failed)} identit{'y' if len(failed) == 1 else 'ies'} "
              f"failed: " + ", ".join(r.name for r in failed))
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "config-reference":
            print(config_reference_text())
            return 0
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "verify-identities":
            return _cmd_verify(args)

        cfg, out_dir = _load(args)
        if args.command == "run":
            summary = run_single(cfg, out_dir, seed=args.seed)
            print(json.dumps({"status": summary["status"],
                              "out": str(out_dir)}, indent=2))
        elif args.command == "reference":
            run_reference(cfg, out_dir, seed=args.seed)
            print(json.dumps({"status": "ok", "out": str(out_dir)}, indent=2))
        elif args.command == "sweep":
            report = run_sweep(cfg, out_dir, seed=args.seed,
                               threads=args.threads)
            brief = {"status": "ok", "out": str(out_dir)}
            if "fit_density_temperature" in report:
                brief["density_temperature_slope"] = \
                    report["fit_density_temperature"]["slope"]
                brief["radiation_slope"] = report["fit_radiation"]["slope"]
            print(json.dumps(brief, indent=2))
        elif args.command == "linearized":
            results = run_linearized_probe(cfg, out_dir, seed=args.seed)
            print(json.dumps({name: res["max_over_min"]
                              for name, res in results.items()}, indent=2))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RunError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
