import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_refuses_a_repeated_workload_and_trace(monkeypatch, tmp_path, capsys):
    # the summary keys runs by workload, trace mode and pair index, so a
    # second spec of one workload and trace would overwrite the first's
    # pairs; it must be refused before either revision is exported
    bench_pair = load_tool("bench_pair")
    exported = []
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: exported.append(rev))
    out = tmp_path / "bench.json"
    runs = ["campaign:0:2", "repair-500x20:0:1", "campaign:00:3"]
    argv = ["--base", "HEAD", *(f"--run={run}" for run in runs), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(argv)
    assert exc.value.code == 2
    assert "--run campaign:00 is given twice" in capsys.readouterr().err
    assert exported == [] and not out.exists()


def test_bench_pair_takes_one_workload_in_both_trace_modes():
    bench_pair = load_tool("bench_pair")
    args = bench_pair.parse_args(
        ["--base", "HEAD", "--run", "campaign:0:5", "--run", "campaign:1:2", "--out", "x.json"]
    )
    assert args.plan == [("campaign", 0, 5), ("campaign", 1, 2)]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("campaign:0", "expected WORKLOAD:TRACE:PAIRS"),
        ("campaign:0:1:2", "expected WORKLOAD:TRACE:PAIRS"),
        ("campaign:x:1", "must be integers"),
        ("campaign:0:1.5", "must be integers"),
        ("campaign:2:1", "TRACE must be 0 or 1"),
        ("campaign:-1:1", "TRACE must be 0 or 1"),
        ("campaign:0:0", "PAIRS must be at least 1"),
        ("campain:0:1", "names no workload 'campain'"),
    ],
)
def test_bench_pair_refuses_a_malformed_run(monkeypatch, tmp_path, capsys, spec, message):
    # a malformed --run is a usage error, reported before either revision
    # is exported, not a traceback from the parse
    bench_pair = load_tool("bench_pair")
    exported = []
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: exported.append(rev))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--base", "HEAD", f"--run={spec}", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert exported == [] and not out.exists()


@pytest.mark.parametrize("tool", ["bench_pair", "artifact_diff"])
@pytest.mark.parametrize("option", ["--base", "--head"])
def test_an_unknown_revision_is_a_usage_error(monkeypatch, tmp_path, capsys, tool, option):
    # both revisions are resolved before either is exported, so a bad one
    # is named in a usage error, not a traceback from git archive
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # artifact_diff imports bench_pair
    module = load_tool(tool)
    exported = []
    monkeypatch.setattr(module, "export", lambda rev, dest: exported.append(rev))
    revs = {"--base": "WORKTREE", "--head": "WORKTREE", option: "nosuchrev"}
    argv = [arg for pair in revs.items() for arg in pair]
    if tool == "bench_pair":
        argv += ["--run", "campaign:0:1", "--out", str(tmp_path / "bench.json")]
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2
    assert f"{option} nosuchrev" in capsys.readouterr().err
    assert exported == [] and not (tmp_path / "bench.json").exists()


def test_bench_pair_summary_counts_incorrect_runs_and_failures(capsys):
    # a BENCH file must show, per side, the runs perfbench judged incorrect
    # and the operations they failed, and name each such run on stderr
    bench_pair = load_tool("bench_pair")

    def run(side, pair, steps, correct=True, failed=0):
        return {
            "workload": "campaign", "trace": 0, "pair": pair, "side": side,
            "info": {"digest": "d", "passes": 3},
            "result": {
                "correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"steps_per_s": {"value": steps, "unit": "1/s"}},
            },
        }

    runs = [
        run("base", 0, 100.0), run("head", 0, 110.0, failed=2),
        run("base", 1, 100.0), run("head", 1, 90.0, correct=False, failed=1),
        run("base", 2, 100.0, correct=False), run("head", 2, 120.0),
    ]
    summary = bench_pair.summarize(runs, {"steps_per_s": "higher"})
    rows = summary["campaign/trace0"]
    assert rows["correctness"] == {
        "base": {"incorrect_runs": 1, "failed": 0},
        "head": {"incorrect_runs": 1, "failed": 3},
    }
    assert rows["steps_per_s"]["head_better_pairs"] == 2
    assert rows["steps_per_s"]["head_median"] == 110.0
    assert rows["digests"] == {"equal_pairs": 3, "pairs": 3}
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["warning"] * 3
    assert "pair 1 head: correct False, failed 1" in err[1]

    clean = bench_pair.summarize([run("base", 0, 1.0), run("head", 0, 1.0)], {})
    assert clean["campaign/trace0"]["correctness"]["head"] == {"incorrect_runs": 0, "failed": 0}
    assert capsys.readouterr().err == ""
