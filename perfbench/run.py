"""Run one workload of the reskit benchmark and print its result.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

The engine is imported from ``src/`` of the checkout this file sits in. The
last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it carries the
trajectory digest, the environment and the figures reported beside the
metrics. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "reskit" / "__init__.py").is_file():
        print(f"perfbench: no reskit sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # needs the sources on the path

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, info = bench.run(workload, args.seed, args.seconds, bool(args.trace))
    info.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        machine=platform.machine(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
