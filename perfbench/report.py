"""Run every workload of the benchmark and print each metric by name and unit.

    python3 perfbench/report.py --seed 1 [--seconds 25] [--trace 0]

Each workload runs in its own process, so ``peak_rss_mb`` covers that
workload alone. Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=declared["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(
            f"{workload}  correct={result['correct']}  failed_frac={info['failed_frac']:g}"
            f" ({result['failed']}/{result['attempted']})  digest={info['digest']}"
        )
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
        extra = {k: v for k, v in info.items() if k not in ("digest", "failed_frac", "workload")}
        print(f"  info: {json.dumps(extra)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
