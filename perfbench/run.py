"""Benchmark of the rhdlab CLI: end-to-end cost of three workloads, and a
traced run that splits it by module.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test       # the output check is not vacuous
    python3 perfbench/run.py --probe           # step/observe cost at four grids
    python3 perfbench/run.py --write-baseline  # perfbench/baseline.json
    python3 perfbench/run.py --write-golden    # perfbench/golden/*.json

Every ``rhdlab`` command runs in a fresh process (``child.py``) with the
BLAS/OpenMP thread variables set to 1.  With ``--trace 0`` a run times the
zero-horizon command ``SETUP_REPS`` times (``setup_s``), then the full
command until ``--seconds`` have passed and at least ``MIN_REPS`` times
(``wall_s``, ``peak_rss_mb``), and reports medians.  With ``--trace 1`` it
alternates untraced and traced full runs for ``--seconds`` and reports the
median of every per-layer metric.  Every full run's outputs are checked
(``workloads.check_outputs``); a run that exits non-zero or fails the check
counts as failed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
MIN_REPS = 3
CHILD_TIMEOUT = 150.0     # seconds; a child that takes longer has failed
RUN_DEADLINE = 170.0      # start no child that would end after this
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# ROADMAP's fixed grids, imex1, observer every step.
PROBE_GRIDS = [(2, 64, 20), (2, 256, 10), (3, 32, 10), (3, 48, 6)]


class Session:
    """Runs children and counts the runs attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._serial = 0
        WORK.mkdir(exist_ok=True)

    def child(self, workload, seed, *, setup=False, trace=False,
              config=None, check=True, keep=False):
        """Run one command in a fresh process; returns its result or None.

        ``config`` replaces the workload's INI text.  With ``check`` the
        outputs are checked and the run counted (see :meth:`record`).  With
        ``keep`` the output directory, ``result["out"]``, is left in place.
        """
        self._serial += 1
        out = WORK / f"{workload.name}-{os.getpid()}-{self._serial}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cfg = out.parent / (out.name + ".ini")
        cfg.write_text(config or wl.config_text(workload, setup))
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        cmd = [sys.executable, str(HERE / "child.py"), "--trace", str(int(trace)),
               "--", *wl.cli_argv(workload, cfg, out, seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None:
                err = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                self.problems.append(
                    f"{workload.name} seed {seed}: exit {proc.returncode}: {err[0]}")
        except subprocess.TimeoutExpired:
            result = None
            self.problems.append(f"{workload.name} seed {seed}: timed out")
        except (json.JSONDecodeError, IndexError):
            result = None
            self.problems.append(f"{workload.name} seed {seed}: no result line")
        finally:
            cfg.unlink(missing_ok=True)
        if result is not None:
            result["out"] = out
        if check:
            result = self.record(workload, seed, result, setup)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def record(self, workload, seed, result, setup=False):
        """Check one run's outputs and count it; returns None if it failed."""
        self.attempted += 1
        if result is not None:
            out = result["out"]
            problems = (wl.check_setup_outputs(workload, out) if setup
                        else wl.check_outputs(workload, out, seed))
            if problems:
                self.problems.append(f"{workload.name} seed {seed}: "
                                     + "; ".join(problems[:3]))
                result = None
        if result is None:
            self.failed += 1
        return result


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(session, workload, seed, seconds, trace):
    """One benchmark run: the contract's metrics dict and the samples."""
    start = time.monotonic()

    def time_left(last):
        return time.monotonic() + last < start + RUN_DEADLINE

    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            r = session.child(workload, seed, setup=True)
            if r is not None:
                setups.append(r["wall_s"])
        fulls, last = [], 0.0
        t0 = time.monotonic()
        while (len(fulls) < MIN_REPS or time.monotonic() - t0 < seconds) \
                and time_left(last):
            t = time.monotonic()
            r = session.child(workload, seed)
            last = time.monotonic() - t
            if r is None:
                break
            fulls.append(r)
        samples = {"wall_s": [r["wall_s"] for r in fulls], "setup_s": setups,
                   "cpu_s": [r["cpu_s"] for r in fulls],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in fulls]}
        return ({n: {"value": median(samples[n]), "unit": u}
                 for n, u in END_TO_END}, samples)

    plain, traced, last = [], [], 0.0
    t0 = time.monotonic()
    while (not traced or time.monotonic() - t0 < seconds) and time_left(last):
        t = time.monotonic()
        r = session.child(workload, seed)
        rt = session.child(workload, seed, trace=True)
        last = time.monotonic() - t
        if r is None or rt is None:
            break
        plain.append(r)
        traced.append(rt)
    samples = {name: [r["layers"][name] for r in traced if name in r["layers"]]
               for name, _, _ in LAYER_METRICS}
    samples["sweep.output_bytes"] = [r["output_bytes"] for r in traced]
    samples["untraced_wall_s"] = [r["wall_s"] for r in plain]
    samples["traced_wall_s"] = [r["wall_s"] for r in traced]
    values = {name: median(v) for name, v in samples.items()}
    values["trace_overhead_frac"] = (values["traced_wall_s"]
                                     / values["untraced_wall_s"] - 1.0)
    return ({n: {"value": values[n], "unit": u} for n, u, _ in LAYER_METRICS},
            samples)


def environment(seed):
    """What a result depends on besides the code."""
    import numpy
    import scipy

    def read(path, pattern=None):
        try:
            text = Path(path).read_text()
        except OSError:
            return None
        if pattern is None:
            return text.strip()
        found = re.search(pattern, text, re.M)
        return found.group(1).strip() if found else None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read("/proc/cpuinfo", r"^model name\s*:\s*(.*)$"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def benchmark(workload, seed, seconds, trace):
    session = Session()
    metrics, samples = measure(session, workload, seed, seconds, trace)
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return result, samples, session


def print_result(workload_name, result, samples, session, env):
    for p in session.problems:
        print("FAILED", p)
    print("env", json.dumps(env, sort_keys=True))
    print(f"{workload_name}: {result['attempted']} runs, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        n = len(samples.get(name, samples.get("traced_wall_s", ())))
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:10s} n={n}")
    print(f"  {'failed_frac':38s} {result['failed'] / result['attempted']:14.6g} 1")


# -- modes other than a benchmark run ------------------------------------------

def _tamper_csv(out, name, value):
    """Replace the bundle_sup of the last CSV row by ``value(old)``."""
    path = out / name
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = value(cells[1])
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _tamper_json(out, name):
    """Scale the first nonzero float of a JSON output by 1 + 1e-9."""
    path = out / name
    data = json.loads(path.read_text())
    for key, v in wl.leaves(data):
        if isinstance(v, float) and v != 0.0 and key[-1] not in wl.ROUNDOFF_KEYS:
            node = data
            for k in key[:-1]:
                node = node[k]
            node[key[-1]] = v * (1.0 + 1e-9)
            break
    path.write_text(json.dumps(data))


def self_test():
    """Corrupted outputs must count as failed runs; names must be valid."""
    errors = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in bench["end_to_end"] + bench["per_layer"]}
    reported = dict(END_TO_END) | {n: u for n, u, _ in LAYER_METRICS}
    reported["failed_frac"] = "1"
    for name, unit in reported.items():
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            errors.append(f"metric {name!r} unit {unit!r} is not well formed")
    for name, unit in declared.items():
        if reported.get(name) != unit:
            errors.append(f"BENCHMARK.json metric {name} [{unit}] is not "
                          f"reported with that unit")
    if [(w["name"], w["why"]) for w in bench["workloads"]] != \
            [(w.name, w.why) for w in wl.WORKLOADS.values()]:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    expected = json.loads((HERE / "expectations.json").read_text())
    for layer in expected["layers"].values():
        for name in layer["metrics"]:
            if name not in reported:
                errors.append(f"expectations.json names unknown metric {name}")
        for workload, moved in layer["moves"].items():
            if workload not in wl.WORKLOADS or not set(moved) <= set(declared):
                errors.append(f"expectations.json: bad entry {workload}: {moved}")
    other_seed = wl.DEFAULT_SEED + 1
    for workload in wl.WORKLOADS.values():
        session = Session()
        run = session.child(workload, wl.DEFAULT_SEED, keep=True)
        if run is None:
            errors.append(f"{workload.name}: clean run failed: {session.problems}")
            continue
        csv_name, json_name = workload.outputs
        cases = [
            ("clean output, golden check", wl.DEFAULT_SEED, None, False),
            ("clean output, invariant check", other_seed, None, False),
            ("one CSV value off by 1e-9", wl.DEFAULT_SEED,
             lambda o: _tamper_csv(o, csv_name,
                                   lambda c: repr(float(c) * (1 + 1e-9))), True),
            ("one JSON value off by 1e-9", wl.DEFAULT_SEED,
             lambda o: _tamper_json(o, json_name), True),
            ("one CSV value NaN, invariant check", other_seed,
             lambda o: _tamper_csv(o, csv_name, lambda c: "nan"), True),
        ]
        for label, seed, tamper, should_fail in cases:
            copy = WORK / f"selftest-{workload.name}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(run["out"], copy)
            if tamper:
                tamper(copy)
            before = session.failed
            session.record(workload, seed, dict(run, out=copy))
            counted = session.failed - before == 1
            verdict = "ok" if counted == should_fail else "WRONG"
            print(f"self-test {workload.name}: {label}: "
                  f"{'failed' if counted else 'passed'} ({verdict})")
            if counted != should_fail:
                errors.append(f"{workload.name}: {label}: "
                              f"{'failed' if counted else 'passed'}")
            shutil.rmtree(copy, ignore_errors=True)
        shutil.rmtree(run["out"], ignore_errors=True)
    for e in errors:
        print("SELF-TEST ERROR", e)
    print("self-test", "passed" if not errors else "FAILED")
    return 0 if not errors else 1


def probe():
    """Traced ``rhdlab run`` at the ROADMAP's four grids."""
    session = Session()
    workload = wl.WORKLOADS["run-3d"]
    rows = {}
    for dim, n, steps in PROBE_GRIDS:
        config = wl.ini_text({
            "grid": {"dim": dim, "points_per_axis": n},
            "solver": {"scheme": "imex1", "dt": 0.005, "t_end": steps * 0.005},
            "output": {"cadence": 1}})
        r = session.child(workload, wl.DEFAULT_SEED, trace=True,
                          config=config, check=False)
        if r is None:
            rows[f"{dim}d-{n}"] = None
            continue
        lay = r["layers"]
        rows[f"{dim}d-{n}"] = {
            "steps": steps,
            "compressible.step_ms.p50": lay["compressible.step_ms.p50"],
            "compressible.step_self_ms": lay["compressible.step_self_ms"],
            "model.remainders_ms.p50": lay["model.remainders_ms.p50"],
            "steppers.solve_ms": lay["steppers.solve_ms"],
            "diagnostics.observe_ms.p50": lay["diagnostics.observe_ms.p50"],
            "fields.transforms_per_step": lay["fields.transforms_per_step"],
            "steppers.operator_bytes": lay["steppers.operator_bytes"],
            "peak_rss_mb": r["peak_rss_mb"],
        }
    for p in session.problems:
        print("FAILED", p)
    for grid, row in rows.items():
        print(grid, json.dumps(row))
    return rows


def write_golden():
    """Store the default-seed outputs of every workload as golden values."""
    session = Session()
    for workload in wl.WORKLOADS.values():
        r = session.child(workload, wl.DEFAULT_SEED, check=False, keep=True)
        if r is None:
            print("FAILED", session.problems[-1])
            return 1
        problems = wl.check_invariants(workload, wl.read_outputs(workload, r["out"]))
        if problems:
            print("FAILED", workload.name, problems)
            return 1
        wl.write_golden(workload, r["out"])
        print(workload.name, "golden written")
        shutil.rmtree(r["out"], ignore_errors=True)
    return 0


def write_baseline(seconds):
    env = environment(wl.DEFAULT_SEED)
    baseline = {"env": env, "seconds": seconds, "workloads": {}}
    for name, workload in wl.WORKLOADS.items():
        entry = {}
        for trace in (0, 1):
            result, samples, session = benchmark(workload, wl.DEFAULT_SEED,
                                                 seconds, trace)
            print_result(name, result, samples, session, env)
            entry["per_layer" if trace else "end_to_end"] = {
                k: m["value"] for k, m in result["metrics"].items()}
            entry[f"runs_trace{trace}"] = {"attempted": result["attempted"],
                                           "failed": result["failed"]}
        baseline["workloads"][name] = entry
    baseline["probe"] = probe()
    (HERE / "baseline.json").write_text(
        json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--write-baseline", action="store_true")
    mode.add_argument("--write-golden", action="store_true")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rhdlab" / "__init__.py").is_file():
        print(f"no rhdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.probe:
        return 0 if all(row is not None for row in probe().values()) else 1
    if args.write_golden:
        return write_golden()
    if args.write_baseline:
        return write_baseline(args.seconds)
    if args.workload is None:
        ap.error("one of --workload, --self-test, --probe, --write-baseline, "
                 "--write-golden is required")

    workload = wl.WORKLOADS[args.workload]
    result, samples, session = benchmark(workload, args.seed, args.seconds,
                                         args.trace)
    env = environment(args.seed)
    print_result(workload.name, result, samples, session, env)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, samples=samples), indent=1,
                   sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
