"""Run the benchmark on two revisions, alternating, and write one JSON file.

    python3 tools/bench_pair.py --base HEAD~1 --head WORKTREE \\
        --run repair-500x20:0:10 --run campaign:1:1 --seed 21 --out BENCH_6.json

Each ``--run WORKLOAD:TRACE:PAIRS`` runs ``perfbench/run.py`` PAIRS times on
each side, a pair at a time; pair ``i`` uses seed ``--seed + i`` on both
sides, and the side that runs first alternates from pair to pair. A
``WORKLOAD:TRACE`` may be given once: the summary keys runs by it and the
pair index, so a second ``--run`` would overwrite the first's pairs. Every
run lasts ``run_seconds`` of ``BENCHMARK.json``, as the benchmark does. Both
revisions are exported with ``git archive`` into a scratch directory, so
each side runs the benchmark of its own checkout on its own sources.
A revision git cannot resolve is a usage error before anything is exported.
``WORKTREE`` stands for the working tree as it is: its tracked files and
its untracked files that ``.gitignore`` does not exclude.

The file holds every run's info line and result line as ``perfbench``
printed them, and a summary per workload and trace mode: each metric's
median on both sides, their ratio, and for every metric ``BENCHMARK.json``
gives a ``better`` direction (the end-to-end ones and the per-layer ones
of a traced run alike) the number of pairs the head side won, the
spread of the base side's runs, and ``pair_ratio_quartiles``, the inclusive
quartiles of each pair's head/base ratio over the pairs whose base is not 0.
Pair i runs seed ``--seed + i`` on both sides, so the base side's spread
holds seed-to-seed variation as well as run noise, and the ratios do not.
One traced pair cannot show a layer saving of a few per cent; several
pairs and these columns can.
Beside the metrics, an untraced group has ``passes``, each side's median
number of passes (a faster side fits more into a run, and each pass adds to
the peak RSS), and ``train_steps_per_s`` and ``repair_steps_per_s``, each
side's median step rate of training and of greedy repairs, so that a claim
on ``steps_per_s`` shows which half moved. Each of the three also gives the
ratio of the medians, and a rate is left out where a workload has no such
steps. Every group has ``digests``, the number of pairs whose trajectory
digests are equal, and ``correctness``, each side's number of runs that
perfbench judged not ``correct`` and its sum of ``failed`` operations. A
run that is not correct or that failed an operation is also named on
standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def export(rev: str, dest: Path) -> str:
    """Write ``rev``'s files into ``dest``; return the commit it names."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=REPO, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        for name in filter(None, listed):
            path = REPO / name
            if path.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, dest / name)
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=REPO, check=True, capture_output=True
        ).stdout
        tar_path = dest.parent / f"{dest.name}.tar"
        tar_path.write_bytes(archive)
        with tarfile.open(tar_path) as tar:
            tar.extractall(dest)
        tar_path.unlink()
    commit = subprocess.run(
        ["git", "rev-parse", "--short=12", "HEAD" if rev == WORKTREE else rev],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()
    return f"{commit} with working-tree changes" if rev == WORKTREE else commit


def check_revisions(base: str, head: str) -> None:
    """Exit 2 naming ``--base`` or ``--head`` if git resolves it to no commit."""
    for option, rev in (("--base", base), ("--head", head)):
        if rev == WORKTREE:
            continue
        found = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
            cwd=REPO, capture_output=True,
        )
        if found.returncode:
            print(f"error: {option} {rev}: git knows no such revision", file=sys.stderr)
            raise SystemExit(2)


def run_once(root: Path, workload: str, trace: int, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    info_line, result_line = out.strip().splitlines()[-2:]
    return {"info": json.loads(info_line)["info"], "result": json.loads(result_line)}


def quartiles(values: list[float]) -> list[float] | None:
    """The inclusive quartiles of ``values``: one value is all three, none gives None."""
    if len(values) < 2:
        return values * 3 or None
    return statistics.quantiles(values, n=4, method="inclusive")


def quartile_spread(values: list[float]) -> float:
    q = quartiles(values)
    return q[2] - q[0] if q else 0.0


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out: dict[str, dict] = {}
    infos: dict[str, dict] = {}
    checks: dict[str, dict] = {}
    for run in runs:
        key = f"{run['workload']}/trace{run['trace']}"
        group = out.setdefault(key, {})
        result = run["result"]
        check = checks.setdefault(key, {
            side: {"incorrect_runs": 0, "failed": 0} for side in ("base", "head")
        })[run["side"]]
        check["incorrect_runs"] += not result["correct"]
        check["failed"] += result["failed"]
        if not result["correct"] or result["failed"]:
            print(f"warning: {key} pair {run['pair']} {run['side']}: correct "
                  f"{result['correct']}, failed {result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            group.setdefault(name, {"base": {}, "head": {}})[run["side"]][run["pair"]] = (
                metric["value"]
            )
        infos.setdefault(key, {"base": {}, "head": {}})[run["side"]][run["pair"]] = run["info"]
    summary: dict[str, dict] = {}
    for group, metrics in out.items():
        rows = summary[group] = {}
        for name, sides in metrics.items():
            base, head = sides["base"], sides["head"]
            pairs = sorted(set(base) & set(head))
            b = statistics.median(base[i] for i in pairs)
            h = statistics.median(head[i] for i in pairs)
            row = {"base_median": b, "head_median": h, "ratio": h / b if b else None}
            if name in better:
                sign = 1 if better[name] == "higher" else -1
                row["head_better_pairs"] = sum(sign * (head[i] - base[i]) > 0 for i in pairs)
                row["pairs"] = len(pairs)
                row["base_quartile_spread"] = quartile_spread([base[i] for i in pairs])
                row["pair_ratio_quartiles"] = quartiles(
                    [head[i] / base[i] for i in pairs if base[i]]
                )
            rows[name] = row
        base, head = infos[group]["base"], infos[group]["head"]
        pairs = sorted(set(base) & set(head))
        if all("passes" in base[i] and "passes" in head[i] for i in pairs):  # not traced
            for name in ("passes", "train_steps_per_s", "repair_steps_per_s"):
                if all(side[i].get(name) is not None for side in (base, head) for i in pairs):
                    b = statistics.median(base[i][name] for i in pairs)
                    h = statistics.median(head[i][name] for i in pairs)
                    ratio = h / b if b else None
                    rows[name] = {"base_median": b, "head_median": h, "ratio": ratio}
        rows["digests"] = {
            "equal_pairs": sum(base[i]["digest"] == head[i]["digest"] for i in pairs),
            "pairs": len(pairs),
        }
        rows["correctness"] = checks[group]
    return summary


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", default=WORKTREE, help=f"git revision or {WORKTREE}")
    p.add_argument("--run", action="append", required=True, metavar="WORKLOAD:TRACE:PAIRS")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    args.config = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in args.config["workloads"]}
    args.plan = []
    for spec in args.run:
        fields = spec.split(":")
        if len(fields) != 3:
            p.error(f"--run {spec}: expected WORKLOAD:TRACE:PAIRS")
        workload, trace, pairs = fields
        try:
            trace, pairs = int(trace), int(pairs)
        except ValueError:
            p.error(f"--run {spec}: TRACE and PAIRS must be integers")
        if trace not in (0, 1):
            p.error(f"--run {spec}: TRACE must be 0 or 1")
        if pairs < 1:
            p.error(f"--run {spec}: PAIRS must be at least 1")
        if workload not in workloads:
            p.error(f"--run {spec}: BENCHMARK.json names no workload {workload!r}")
        if any((workload, trace) == (w, t) for w, t, _ in args.plan):
            p.error(f"--run {workload}:{fields[1]} is given twice")
        args.plan.append((workload, trace, pairs))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    check_revisions(args.base, args.head)
    config = args.config
    better = {m["name"]: m["better"] for m in [*config["end_to_end"], *config["per_layer"]]}
    seconds = config["run_seconds"]

    scratch = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        roots = {"base": scratch / "base", "head": scratch / "head"}
        revs = {side: export(rev, roots[side]) for side, rev in
                (("base", args.base), ("head", args.head))}
        runs = []
        for workload, trace, pairs in args.plan:
            for pair in range(pairs):
                seed = args.seed + pair
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for position, side in enumerate(order):
                    lines = run_once(roots[side], workload, trace, seed, seconds)
                    runs.append({
                        "workload": workload, "trace": trace, "pair": pair, "seed": seed,
                        "side": side, "ran": position, **lines,
                    })
                    metric = lines["result"]["metrics"].get("steps_per_s", {}).get("value")
                    print(f"{workload} trace={trace} pair={pair} seed={seed} {side}: "
                          f"digest {lines['info'].get('digest')} steps_per_s {metric} "
                          f"passes {lines['info'].get('passes')}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "base": {"rev": args.base, "commit": revs["base"]},
        "head": {"rev": args.head, "commit": revs["head"]},
        "seconds": seconds,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
