"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``rhdlab`` CLI command with a fixed configuration; the
benchmark seed is passed as ``--seed``.  A set-up run is the same command
with a zero horizon.  ``check_outputs`` compares the outputs of the default
seed value by value against the golden files in ``golden/``, and checks the
acceptance invariants for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
# Golden comparison: |value - golden| <= REL_TOL * (largest |golden| of the
# same CSV column, or of the same JSON key across list entries).
REL_TOL = 1e-12
# JSON keys that hold round-off residuals (max |div u| of a Leray-projected
# field), whose digits carry no information; they are checked to stay at
# round-off instead.
ROUNDOFF_KEYS = {"div_u": 1e-12}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: dict           # {section: {key: value}} of the INI file
    horizon: tuple         # (section, key) set to 0 for a set-up run
    outputs: tuple         # files the command writes and the check reads
    rows: int              # CSV data rows of a full run
    why: str


WORKLOADS = {w.name: w for w in [
    Workload(
        name="sweep-2d", command="sweep", threads=2,
        config={"grid": {"dim": "2", "points_per_axis": "128"},
                "sweep": {"deltas": "0.1,0.05,0.025,0.0125"},
                "solver": {"scheme": "imex2", "dt": "0.01", "t_end": "0.2"},
                "output": {"cadence": "1"}},
        horizon=("solver", "t_end"),
        outputs=("sweep_diagnostics.csv", "sweep_report.json"),
        rows=4 * 21,
        why="the paper's Mach sweep: imex2 tendency and apply, observer every "
            "step, shared reference, 2-thread member pool"),
    Workload(
        name="run-3d", command="run", threads=1,
        config={"grid": {"dim": "3", "points_per_axis": "48"},
                "solver": {"scheme": "imex1", "dt": "0.02", "t_end": "0.24"},
                "output": {"cadence": "100"}},
        horizon=("solver", "t_end"),
        outputs=("diagnostics.csv", "summary.json"),
        rows=2,
        why="3D memory and set-up: dense per-mode operator, 3D transforms and "
            "remainders; observer runs only twice, so diagnostics is bypassed"),
    Workload(
        name="linearized-2d", command="linearized", threads=1,
        config={"grid": {"dim": "2", "points_per_axis": "64"},
                "linearized": {"t_end": "0.2"}},
        horizon=("linearized", "t_end"),
        outputs=("linearized.csv", "linearized_report.json"),
        rows=6,
        why="1200 small linear steps dominated by diagnostic transforms; no "
            "nonlinear remainder, so the compressible tendency is bypassed"),
]}


def ini_text(config: dict) -> str:
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for sec, keys in config.items())


def config_text(workload: Workload, setup: bool) -> str:
    """INI text of a full run, or of a set-up run (zero horizon)."""
    config = {sec: dict(keys) for sec, keys in workload.config.items()}
    if setup:
        section, key = workload.horizon
        config.setdefault(section, {})[key] = "0"
    return ini_text(config)


def cli_argv(workload: Workload, config: Path, out: Path, seed: int):
    return [workload.command, "--config", str(config), "--out", str(out),
            "--threads", str(workload.threads), "--seed", str(seed)]


# -- reading outputs ----------------------------------------------------------

def read_csv(path: Path):
    """Lines of a diagnostics CSV after the timestamp line."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# generated"):
        raise ValueError(f"{path.name}: missing timestamp line")
    return lines[1:]


def _table(lines):
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def read_outputs(workload: Workload, out: Path):
    """``{file name: parsed content}`` for every output the check reads."""
    parsed = {}
    for name in workload.outputs:
        path = out / name
        parsed[name] = read_csv(path) if name.endswith(".csv") \
            else json.loads(path.read_text())
    return parsed


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def write_golden(workload: Workload, out: Path) -> None:
    """Store the outputs of a default-seed run as the golden values."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(
        json.dumps(read_outputs(workload, out), indent=1, sort_keys=True) + "\n")


# -- golden comparison --------------------------------------------------------

def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(name, got, want):
    (hdr, rows), (ghdr, grows) = _table(got), _table(want)
    if hdr != ghdr:
        return [f"{name}: header {hdr} != {ghdr}"]
    if len(rows) != len(grows):
        return [f"{name}: {len(rows)} rows, golden has {len(grows)}"]
    problems = []
    for j, col in enumerate(hdr):
        gvals = [_number(r[j]) for r in grows]
        numeric = [abs(v) for v in gvals if v is not None and math.isfinite(v)]
        scale = max(numeric, default=0.0)
        for i, (row, g) in enumerate(zip(rows, gvals)):
            if g is None:
                ok = row[j] == grows[i][j]
            else:
                v = _number(row[j])
                ok = v is not None and (
                    (math.isnan(g) and math.isnan(v))
                    or abs(v - g) <= REL_TOL * scale)
            if not ok:
                problems.append(f"{name}: row {i} {col} = {row[j]}, "
                                f"golden {grows[i][j]}")
    return problems


def leaves(obj, path=()):
    """``(path, value)`` of every leaf; list indices appear as ints."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from leaves(obj[k], path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, path + (i,))
    else:
        yield path, obj


def _column(path):
    return tuple("*" if isinstance(p, int) else p for p in path)


def _compare_json(name, got, want):
    gl, wl = dict(leaves(got)), dict(leaves(want))
    if gl.keys() != wl.keys():
        return [f"{name}: keys differ: "
                f"{sorted(map(str, gl.keys() ^ wl.keys()))[:5]}"]
    scales = {}
    for path, v in wl.items():
        if isinstance(v, float) and math.isfinite(v):
            col = _column(path)
            scales[col] = max(scales.get(col, 0.0), abs(v))
    problems = []
    for path, w in wl.items():
        v = gl[path]
        if isinstance(w, float) and path[-1] in ROUNDOFF_KEYS:
            ok = isinstance(v, float) and abs(v) <= ROUNDOFF_KEYS[path[-1]]
        elif isinstance(w, float) and not isinstance(v, bool) \
                and isinstance(v, (int, float)):
            ok = (abs(v - w) <= REL_TOL * scales.get(_column(path), 0.0)
                  if math.isfinite(w) else str(v) == str(w))
        else:
            ok = type(v) is type(w) and v == w
        if not ok:
            problems.append(f"{name}: {'.'.join(map(str, path))} = {v!r}, "
                            f"golden {w!r}")
    return problems


def compare_golden(workload: Workload, parsed) -> list:
    want = json.loads(golden_path(workload).read_text())
    problems = []
    for name in workload.outputs:
        if name.endswith(".csv"):
            problems += _compare_csv(name, parsed[name], want[name])
        else:
            problems += _compare_json(name, parsed[name], want[name])
    return problems


# -- invariants that hold for every seed --------------------------------------

def _ratio_ok(lo, hi):
    return 0.5 <= lo and hi <= 2.0


def check_invariants(workload: Workload, parsed) -> list:
    """The acceptance invariants that apply to the workload's outputs."""
    csv_name, json_name = workload.outputs
    hdr, rows = _table(parsed[csv_name])
    report = parsed[json_name]
    problems = []
    if len(rows) != workload.rows:
        problems.append(f"{csv_name}: {len(rows)} rows, expected {workload.rows}")
    col = {c: i for i, c in enumerate(hdr)}
    for i, row in enumerate(rows):
        vals = [_number(row[col[c]]) for c in ("time", "bundle_sup", "energy_E")]
        if any(v is None or not math.isfinite(v) for v in vals):
            problems.append(f"{csv_name}: row {i} has a non-finite value")

    if workload.command == "linearized":
        for fam, res in report["families"].items():
            mom = res["max_over_min"]
            consts = list(res["constants"].values())
            if not (math.isfinite(mom) and 1.0 <= mom < 4.0):
                problems.append(f"{fam}: max_over_min {mom} outside [1, 4)")
            if not all(math.isfinite(c) and c > 0 for c in consts):
                problems.append(f"{fam}: constants {consts} not finite positive")
        return problems

    if workload.command == "run":
        if report["status"] != "ok":
            problems.append(f"status {report['status']}")
        ratios = [_number(r[col["energy_E"]]) / _number(r[col["bundle_sup"]])
                  for r in rows if _number(r[col["bundle_sup"]]) > 0]
        if not ratios or not _ratio_ok(min(ratios), max(ratios)):
            problems.append(f"E/bundle {ratios} outside [0.5, 2]")
        return problems

    # sweep
    members = report["members"]
    if report["incomplete"] or any(m["status"] != "ok" for m in members):
        problems.append("a sweep member did not finish")
    for m in members:
        r = m.get("energy_bundle_ratio")
        if r is None or not _ratio_ok(r["min"], r["max"]):
            problems.append(f"delta {m['delta']}: E/bundle {r} outside [0.5, 2]")
    if report.get("ref_error_monotone") is not True or \
            not all(x < 1.0 for x in report.get("ref_error_ratios", [2.0])):
        problems.append("ref_error is not monotone under delta-halving")
    s_dt = report.get("fit_density_temperature", {}).get("slope", math.nan)
    s_rad = report.get("fit_radiation", {}).get("slope", math.nan)
    if not 0.7 <= s_dt <= 1.3:
        problems.append(f"density/temperature slope {s_dt} outside [0.7, 1.3]")
    if not 0.35 <= s_rad <= 0.8:
        problems.append(f"radiation slope {s_rad} outside [0.35, 0.8]")
    return problems


def check_outputs(workload: Workload, out: Path, seed: int) -> list:
    """Problems found in a full run's outputs; empty when they are correct."""
    try:
        parsed = read_outputs(workload, out)
        problems = check_invariants(workload, parsed)
        if seed == DEFAULT_SEED:
            problems += compare_golden(workload, parsed)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def check_setup_outputs(workload: Workload, out: Path) -> list:
    """A zero-horizon run must write every output and report no abort."""
    try:
        parsed = read_outputs(workload, out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    report = parsed[workload.outputs[1]]
    statuses = [m["status"] for m in report.get("members", [report])
                if "status" in m]
    return [f"status {s}" for s in statuses if s != "ok"]
