"""Fast self-test of the benchmark on a tiny size of each workload.

    python3 perfbench/selftest.py

Checks that every emitted metric name is declared in BENCHMARK.json (and
every declared one is emitted), that the traced run restores every binding
it rebinds, and that the trajectory digest repeats across untraced runs and
matches the traced run's. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs the sources on the path)
import tracing  # noqa: E402

TINY = {
    "campaign": dict(plant_seeds=(0, 1), episodes=3, units=1),
    "transfer-200x10": dict(tasks=30, resources=3, episodes=3, order_mix=(2, 1)),
    "repair-500x20": dict(tasks=40, resources=4, order_mix=(2, 1)),
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {kind: {m["name"] for m in declared[kind]} for kind in ("end_to_end", "per_layer")}
    check(
        set(TINY) == {w["name"] for w in declared["workloads"]} == set(bench.WORKLOADS),
        "workloads agree between BENCHMARK.json, bench.py and this test",
    )
    for name, shrink in TINY.items():
        w = replace(bench.WORKLOADS[name], **shrink)
        first, first_info = bench.run(w, seed=5, seconds=0, trace=False)
        again, again_info = bench.run(w, seed=5, seconds=0, trace=False)
        check(set(first["metrics"]) == names["end_to_end"], f"{name}: end-to-end metric names")
        check(first["correct"] and first["failed"] == 0, f"{name}: untraced run correct")
        check(first_info["digest"] == again_info["digest"], f"{name}: digest repeats")
        check(
            first["metrics"]["goal_rate"] == again["metrics"]["goal_rate"]
            and first["metrics"]["final_tardiness_h"] == again["metrics"]["final_tardiness_h"],
            f"{name}: quality metrics repeat",
        )

        before = tracing.bindings()
        traced, traced_info = bench.run(w, seed=5, seconds=0, trace=True)
        check(tracing.bindings() == before, f"{name}: bindings restored after the traced run")
        check(set(traced["metrics"]) == names["per_layer"], f"{name}: per-layer metric names")
        check(traced["correct"], f"{name}: traced run correct")
        if name == "transfer-200x10":
            uncalled = [
                f for f in tracing.FUNCTIONS if traced["metrics"][f"{f}.calls_per_step"]["value"] == 0
            ]
            check(not uncalled, f"{name}: every traced function recorded spans {uncalled}")
        check(
            traced_info["traced_digest"] == traced_info["digest"] == first_info["digest"],
            f"{name}: traced digest equals untraced digest",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
