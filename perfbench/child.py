"""Run one ``rhdlab`` CLI command in a fresh process and print its cost.

Usage: ``python3 perfbench/child.py --trace 0|1 -- <rhdlab arguments>``,
from the repository root.  The package is imported from ``src/`` of the
checkout.  The last line of standard output is a JSON object with the exit
code, the wall and CPU time of the ``rhdlab.cli.main`` call, the peak RSS of
this process, the bytes written to the output directory and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rhdlab
    if Path(rhdlab.__file__).resolve().parent != src / "rhdlab":
        print(f"rhdlab imported from {rhdlab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    from rhdlab import cli

    t0, c0 = time.perf_counter(), time.process_time()
    code = cli.main(cli_args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path(cli_args[cli_args.index("--out") + 1])
    result = {"exit": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
              "output_bytes": sum(p.stat().st_size for p in out.iterdir())}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
