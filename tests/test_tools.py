import hashlib
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


def test_bench_pair_summary_gives_per_pair_ratio_quartiles():
    # pair i runs one seed on both sides, so seed-to-seed variation widens
    # the base side's spread but not the pairs' head/base ratios; a pair
    # whose base is 0 has no ratio
    bench_pair = load_tool("bench_pair")

    def run(side, pair, value):
        return {
            "workload": "transfer-200x10", "trace": 0, "pair": pair, "side": side,
            "info": {"digest": "d"},
            "result": {
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"repair_s_p50": {"value": value, "unit": "s"}},
            },
        }

    bases = [100.0, 200.0, 300.0, 400.0]
    runs = [run(side, i, v) for i, b in enumerate(bases)
            for side, v in (("base", b), ("head", b * 0.8))]
    row = bench_pair.summarize(runs, {"repair_s_p50": "lower"})["transfer-200x10/trace0"]
    assert row["repair_s_p50"]["base_quartile_spread"] == 150.0
    assert row["repair_s_p50"]["pair_ratio_quartiles"] == [0.8, 0.8, 0.8]
    assert row["repair_s_p50"]["head_better_pairs"] == 4
    one = bench_pair.summarize(runs[:2] + [run("base", 9, 0.0), run("head", 9, 5.0)],
                               {"repair_s_p50": "lower"})["transfer-200x10/trace0"]
    assert one["repair_s_p50"]["pair_ratio_quartiles"] == [0.8, 0.8, 0.8]
    none = bench_pair.summarize([run("base", 0, 0.0), run("head", 0, 1.0)],
                                {"repair_s_p50": "lower"})["transfer-200x10/trace0"]
    assert none["repair_s_p50"]["pair_ratio_quartiles"] is None


def test_bench_pair_summary_gives_the_training_and_repair_step_rates():
    # an untraced group reports both sides' median training and repair step
    # rates and their ratio, so a steps_per_s claim shows which half moved;
    # a rate a workload has no steps for is left out, and a traced group,
    # whose info has no passes, gets none of these rows
    bench_pair = load_tool("bench_pair")

    def run(workload, trace, side, pair, train, repair):
        info = {"digest": "d", "train_steps_per_s": train, "repair_steps_per_s": repair}
        if not trace:
            info["passes"] = 4 if side == "head" else 3
        return {
            "workload": workload, "trace": trace, "pair": pair, "side": side, "info": info,
            "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": {}},
        }

    runs = [
        run("campaign", 0, "base", 0, 100.0, 50.0), run("campaign", 0, "head", 0, 120.0, 50.0),
        run("campaign", 0, "base", 1, 110.0, 60.0), run("campaign", 0, "head", 1, 130.0, 58.0),
        run("campaign", 0, "base", 2, 90.0, 40.0), run("campaign", 0, "head", 2, 99.0, 44.0),
        run("repair-500x20", 0, "base", 0, None, 10.0),
        run("repair-500x20", 0, "head", 0, None, 12.0),
        run("campaign", 1, "base", 0, 80.0, 30.0), run("campaign", 1, "head", 0, 90.0, 30.0),
    ]
    summary = bench_pair.summarize(runs, {})
    rows = summary["campaign/trace0"]
    assert rows["train_steps_per_s"] == {
        "base_median": 100.0, "head_median": 120.0, "ratio": 1.2,
    }
    assert rows["repair_steps_per_s"] == {
        "base_median": 50.0, "head_median": 50.0, "ratio": 1.0,
    }
    assert rows["passes"]["base_median"] == 3 and rows["passes"]["head_median"] == 4
    repair = summary["repair-500x20/trace0"]
    assert "train_steps_per_s" not in repair
    assert repair["repair_steps_per_s"]["ratio"] == 1.2
    traced = summary["campaign/trace1"]
    assert not {"passes", "train_steps_per_s", "repair_steps_per_s"} & set(traced)


def test_seeded_artifacts_match_the_committed_table(monkeypatch, tmp_path):
    # every file artifact_diff writes for its cases, pinned by sha256; a change
    # that alters bytes on purpose pastes the printed table into the file, and
    # the table's diff then names each changed file
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # artifact_diff imports bench_pair
    load_tool("artifact_diff").write_artifacts(ROOT, tmp_path)
    digests = {
        f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in tmp_path.rglob("*") if f.is_file()
    }
    table = "".join(f"{digests[name]}  {name}\n" for name in sorted(digests))
    pinned = (ROOT / "tests" / "artifacts.sha256").read_text(encoding="utf-8")
    if table != pinned:  # pytest.fail prints the whole table at any verbosity
        pytest.fail(f"the seeded artifacts changed; their new table:\n{table}", pytrace=False)


@pytest.mark.parametrize(
    "base, head, verdict",
    [
        (b"x 1.0\ny 2\n", b"x 1.0\ny 2\n", ("identical", "")),
        (b"x 0.3\n", b"x 0.30000000000000004\n",
         ("differs", "line 1: 'x 0.3\\n' against 'x 0.30000000000000004\\n'")),
        (b"x 1.0\ny 2\n", b"x 1.0\r\ny 2\r\n",
         ("differs", "line 1: 'x 1.0\\n' against 'x 1.0\\r\\n'")),
        (b"x 1.0\ny 2\n", b"x 1.0\ny 2", ("differs", "line 2: 'y 2\\n' against 'y 2'")),
        (b"x 1.0\n", b"x 1.0\ny 2\n", ("differs", "line 2: '' against 'y 2\\n'")),
    ],
    ids=["equal", "one-ulp", "crlf", "no-final-newline", "extra-line"],
)
def test_artifact_diff_compares_bytes(monkeypatch, base, head, verdict):
    # a file is identical only byte for byte: a float one ulp away, a CRLF
    # line end and a missing final newline each differ, at their first line
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    assert load_tool("artifact_diff").compare(base, head) == verdict
