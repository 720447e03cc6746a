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
