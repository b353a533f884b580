"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sql_oltp --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [path for path in (SRC, ROOT) if path not in sys.path]
    from perfbench.common import refused_environment
    from perfbench.report import WORKLOADS, run_workload

    refused = refused_environment()
    if refused:
        print(f"perfbench: refusing to measure with {', '.join(refused)} set "
              "(it changes the program being measured)", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order (and with it recalc order) follows the hash
        # seed; fix it so that a run depends on --seed alone.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
