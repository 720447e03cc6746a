"""Write the seeded CLI artifacts of two revisions and compare them file by file.

    python3 tools/artifact_diff.py --base HEAD~1 --head WORKTREE

Both revisions are exported with ``bench_pair.export`` into a scratch
directory, once git resolves both; an unknown one exits 2. For each one,
the CLI of its own ``src/`` generates an instance for each of four cases
(seeds 0, 7 and 2, and seed 3 with ``--arrival 6``), trains a store on it,
repairs it with a trace and SVGs, evaluates the store on fresh orders,
dumps the store with ``inspect-q``, renders the disrupted instance and
validates it. It also repairs and evaluates without ``--qstore``, where an
empty store makes every greedy step take the first proposal. Every file a
command writes and every command's standard output are kept, and
``validate``'s standard error, where it prints its verdict: 17 files for
each case, 68 in all.

Each file is reported as one of:

- ``identical``: the same bytes on both sides;
- ``differs``: anything else, with its first differing line by number.

The exit code is 0 when no file differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

from bench_pair import WORKTREE, check_revisions, export

# Case -> its seed and its extra generate arguments.
CASES = {
    "seed0": (0, []), "seed7": (7, []), "seed3-arrival6": (3, ["--arrival", "6"]),
    "seed2": (2, []),
}
# Command, its arguments, and the file its standard output goes to (its
# standard error for a command in STDERR_KEPT).
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
    ("validate", ["--instance", "inst.json"], "validate.err"),
]
UNSEEDED = ("inspect-q", "render", "validate")
STDERR_KEPT = ("validate",)


def write_artifacts(root: Path, out: Path) -> None:
    """Run every case's commands with ``root``'s sources, writing into ``out``.

    The cases run side by side, each in its own directory.
    """
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("RESKIT_SEED", None)

    def write_case(case: str) -> None:
        seed, extra = CASES[case]
        where = out / case
        where.mkdir(parents=True)
        for command, args, outfile in [("generate", ["--out", "inst.json", *extra], None),
                                      *COMMANDS]:
            seeded = [] if command in UNSEEDED else ["--seed", str(seed)]
            done = subprocess.run(
                [sys.executable, "-m", "reskit.cli", command, *args, *seeded],
                cwd=where, env=env, capture_output=True,
            )
            if done.returncode != 0:
                raise SystemExit(f"{root}: {case} {command} exited {done.returncode}: "
                                 f"{done.stderr.decode(errors='replace').strip()}")
            if outfile:
                kept = done.stderr if command in STDERR_KEPT else done.stdout
                (where / outfile).write_bytes(kept)

    with ThreadPoolExecutor() as pool:
        list(pool.map(write_case, CASES))


def compare(a: bytes, b: bytes) -> tuple[str, str]:
    """Classify two files' bytes as identical or differing, with a detail."""
    if a == b:
        return "identical", ""
    lines = zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True),
                        fillvalue=b"")
    n, (x, y) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
    cut = max(len(os.path.commonprefix([x, y])) - 20, 0)
    x, y = (line[cut:cut + 60].decode("utf-8", "replace") for line in (x, y))
    return "differs", f"line {n}: {x!r} against {y!r}"


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
                verdict, detail = compare(a.read_bytes(), b.read_bytes())
            differing += verdict == "differs"
            print(f"{name}: {verdict}" + (f" ({detail})" if detail else ""))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
