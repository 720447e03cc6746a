"""Write the seeded CLI artifacts of two revisions and compare them file by file.

    python3 tools/artifact_diff.py --base HEAD~1 --head WORKTREE

Both revisions are exported with ``bench_pair.export`` into a scratch
directory, once git resolves both; an unknown one exits 2. For each one,
the CLI of its own ``src/`` generates an instance for each case (seeds 0
and 7, and seed 3 with ``--arrival 6``), trains a store on it, repairs it
with a trace and SVGs, evaluates the store on fresh orders, dumps the store
with ``inspect-q`` and renders the disrupted instance. It also repairs and
evaluates without ``--qstore``, where an empty store makes every greedy step
take the first proposal. Every file a command writes and every command's
standard output are kept: 16 files for each case.

Each file is reported as one of:

- ``identical``: the same bytes on both sides;
- ``close``: the same text once numbers are set apart, and every pair of
  numbers within 1e-12 relative; the largest relative difference is given;
- ``differs``: anything else, with the first differing token.

The exit code is 0 when no file differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import WORKTREE, check_revisions, export

REL_TOL = 1e-12
# Case -> its seed and its extra generate arguments.
CASES = {"seed0": (0, []), "seed7": (7, []), "seed3-arrival6": (3, ["--arrival", "6"])}
# Command, its arguments, and the file its standard output goes to.
COMMANDS = [
    ("train", ["--instance", "inst.json", "--qstore", "q.txt", "--report", "report.json"],
     None),
    ("repair", ["--instance", "inst.json", "--qstore", "q.txt", "--trace", "trace.json",
                "--svg-before", "before.svg", "--svg-after", "after.svg"], "repair.out"),
    ("evaluate", ["--instance", "inst.json", "--qstore", "q.txt", "--report", "eval.json"],
     "evaluate.out"),
    ("repair", ["--instance", "inst.json", "--trace", "trace-empty.json"], "repair-empty.out"),
    ("evaluate", ["--instance", "inst.json", "--report", "eval-empty.json"],
     "evaluate-empty.out"),
    ("inspect-q", ["--qstore", "q.txt"], "inspect-q.out"),
    ("render", ["--instance", "inst.json", "--disrupted", "--svg", "render.svg", "--text"],
     "render.out"),
]
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def write_artifacts(root: Path, out: Path) -> None:
    """Run every case's commands with ``root``'s sources, writing into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("RESKIT_SEED", None)
    for case, (seed, extra) in CASES.items():
        where = out / case
        where.mkdir(parents=True)
        for command, args, stdout in [("generate", ["--out", "inst.json", *extra], None),
                                      *COMMANDS]:
            seeded = [] if command in ("inspect-q", "render") else ["--seed", str(seed)]
            done = subprocess.run(
                [sys.executable, "-m", "reskit.cli", command, *args, *seeded],
                cwd=where, env=env, capture_output=True, text=True,
            )
            if done.returncode != 0:
                raise SystemExit(f"{root}: {case} {command} exited {done.returncode}: "
                                 f"{done.stderr.strip()}")
            if stdout:
                (where / stdout).write_text(done.stdout, encoding="utf-8")


def compare(a: str, b: str) -> tuple[str, str]:
    """Classify two texts as identical, close or differing, with a detail."""
    if a == b:
        return "identical", ""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb):
        return "differs", f"{len(pa) // 2} numbers against {len(pb) // 2}"
    largest = 0.0
    for k, (x, y) in enumerate(zip(pa, pb)):
        if x == y:
            continue
        if k % 2 == 0:  # text between numbers
            return "differs", f"{x[:40]!r} against {y[:40]!r}"
        fx, fy = float(x), float(y)
        rel = abs(fx - fy) / max(abs(fx), abs(fy)) if fx != fy else 0.0
        if not rel <= REL_TOL:
            return "differs", f"{x} against {y} (relative {rel:.3g})"
        largest = max(largest, rel)
    return "close", f"largest relative difference {largest:.3g}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", default=WORKTREE, help=f"git revision or {WORKTREE}")
    args = p.parse_args(argv)
    check_revisions(args.base, args.head)

    scratch = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    try:
        outs = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            commit = export(rev, scratch / side)
            print(f"{side}: {rev} ({commit})")
            outs[side] = scratch / f"{side}-artifacts"
            write_artifacts(scratch / side, outs[side])
        names = sorted(
            {str(f.relative_to(outs[side])) for side in outs for f in outs[side].rglob("*")
             if f.is_file()}
        )
        differing = 0
        for name in names:
            a, b = (outs[side] / name for side in ("base", "head"))
            if not (a.is_file() and b.is_file()):
                verdict, detail = "differs", f"only on {'base' if a.is_file() else 'head'}"
            else:
                verdict, detail = compare(a.read_text(encoding="utf-8"),
                                          b.read_text(encoding="utf-8"))
            differing += verdict == "differs"
            print(f"{name}: {verdict}" + (f" ({detail})" if detail else ""))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
