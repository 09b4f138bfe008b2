import json
import os
import subprocess
import sys
from pathlib import Path

import rhdlab

# Imports the CLI, runs one command and reports, as the last line of its
# output, the exit code, every scipy module loaded and every numpy module
# that the command itself loaded first.
_SCRIPT = """
import json, sys
from rhdlab import cli
before = set(sys.modules)
code = cli.main(sys.argv[1:])
late = sorted(m for m in set(sys.modules) - before
              if m == "numpy" or m.startswith("numpy."))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"exit": code, "scipy": scipy, "late": late}))
"""


def test_cli_runs_on_numpy_alone_with_its_modules_loaded_at_import(tmp_path):
    # numpy is the one run-time dependency, and every numpy module the
    # package uses is loaded when it is imported, so a command's own time
    # pays for none: numpy.fft (the transforms) and numpy.random, which
    # numpy would otherwise load on the first default_rng call
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[grid]\npoints_per_axis = 16\n[linearized]\nt_end = 0\n")
    src = str(Path(rhdlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, "linearized", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"exit": 0, "scipy": [], "late": []}
