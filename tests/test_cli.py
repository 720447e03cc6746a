import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reskit import cli
from reskit.cli import main
from reskit.errors import InvalidConfig
from reskit.gantt import render_svg
from reskit.instances import (
    InstanceSpec,
    dumps_instance,
    generate_instance,
    instance_to_dict,
    save_instance,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(InstanceSpec(seed=7)), path)
    return str(path)


def test_generate_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["generate", "--out", str(out), "--seed", "42"]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert len(data["tasks"]) == 15
    assert "wrote" in capsys.readouterr().err


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--out", str(a), "--seed", "3"]) == 0
    assert main(["generate", "--out", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RESKIT_SEED", "3")
    a = tmp_path / "a.json"
    assert main(["generate", "--out", str(a)]) == 0
    b = tmp_path / "b.json"
    monkeypatch.delenv("RESKIT_SEED")
    assert main(["generate", "--out", str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--rate-min", "0", "--rate-max", "0"],
        ["--rate-min", "0.01", "--rate-max", "0.04"],
        ["--rate-min", "-5", "--rate-max", "-1"],
        ["--rate-min", "nan"],
        ["--qty-min", "0.01", "--qty-max", "0.04"],
        ["--qty-max", "inf"],
        ["--slack-min", "-5", "--slack-max", "-4"],
        ["--arrival", "nan"],
        ["--arrival", "inf"],
        ["--arrival", "-50"],
    ],
    ids=[
        "zero-rates",
        "rates-round-to-zero",
        "negative-rates",
        "nan-rate",
        "quantities-round-to-zero",
        "infinite-quantity",
        "negative-slack",
        "nan-arrival",
        "infinite-arrival",
        "negative-arrival",
    ],
)
def test_generate_writes_only_files_the_loader_reads(tmp_path, capsys, flags):
    out = tmp_path / "inst.json"
    assert main(["generate", "--out", str(out), "--seed", "3", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_validate_ok_and_violation_exit_codes(tmp_path, instance_path, capsys):
    assert main(["validate", "--instance", instance_path]) == 0
    # a well-formed file whose chain references a product the resource lacks
    inst = generate_instance(InstanceSpec(seed=7))
    inst.state.resources[0].rates.pop(
        inst.state.tasks[inst.state.resources[0].task_chain[0]].product
    )
    bad = tmp_path / "bad.json"
    save_instance(inst, bad)
    assert main(["validate", "--instance", str(bad)]) == 1
    assert "rate" in capsys.readouterr().err


def test_validate_with_nothing_to_check_is_a_usage_error(capsys):
    assert main(["validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--instance" in err
    assert "ok" not in err


def test_validate_format_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"resources": []}', encoding="utf-8")
    assert main(["validate", "--instance", str(path)]) == 2
    path2 = tmp_path / "unknown.json"
    data = json.loads(dumps_instance(generate_instance(InstanceSpec(seed=7))))
    data["extra"] = True
    path2.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--instance", str(path2)]) == 2
    assert main(["validate", "--instance", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_train_writes_store_and_report(tmp_path, instance_path, capsys):
    q = tmp_path / "q.txt"
    rep = tmp_path / "rep.json"
    code = main(
        [
            "train",
            "--instance", instance_path,
            "--qstore", str(q),
            "--report", str(rep),
            "--episodes", "20",
            "--alpha", "0.1",
            "--gamma", "0.9",
            "--lambda", "0.1",
            "--epsilon", "0.1",
            "--seed", "7",
        ]
    )
    assert code == 0
    assert q.read_text(encoding="utf-8").startswith("v1 alpha=0.1 gamma=0.9")
    report = json.loads(rep.read_text(encoding="utf-8"))
    assert report["episodes"] == 20
    assert len(report["episode_outcomes"]) == 20
    recount = sum(1 for e in report["episode_outcomes"] if e["outcome"] == "goal-reached")
    assert report["success_rate"] == pytest.approx(recount / 20)
    assert report["q_entries"] >= 1
    assert "wall_clock" not in json.dumps(report)
    assert "trained 20 episodes" in capsys.readouterr().err


def test_repair_zero_step_on_recovered_instance(tmp_path, capsys):
    # seed 4's arriving order slots in without raising tardiness
    path = tmp_path / "inst.json"
    save_instance(generate_instance(InstanceSpec(seed=4)), path)
    assert main(["repair", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "outcome goal-reached" in out
    assert "0 steps" in out
    assert "step 1:" not in out


def test_repair_emits_trace_and_svgs(tmp_path, instance_path, capsys):
    q = tmp_path / "q.txt"
    main(["train", "--instance", instance_path, "--qstore", str(q), "--seed", "7"])
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    before = tmp_path / "before.svg"
    after = tmp_path / "after.svg"
    code = main(
        [
            "repair",
            "--instance", instance_path,
            "--qstore", str(q),
            "--trace", str(trace),
            "--svg-before", str(before),
            "--svg-after", str(after),
            "--seed", "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "step 1:" in out
    payload = json.loads(trace.read_text(encoding="utf-8"))
    assert payload["outcome"] == "goal-reached"
    assert before.read_text(encoding="utf-8").startswith("<svg")
    assert after.read_text(encoding="utf-8").startswith("<svg")


def test_evaluate_success_rate_matches_recount(tmp_path, instance_path, capsys):
    q = tmp_path / "q.txt"
    main(["train", "--instance", instance_path, "--qstore", str(q), "--seed", "7"])
    capsys.readouterr()
    rep = tmp_path / "eval.json"
    code = main(
        [
            "evaluate",
            "--instance", instance_path,
            "--qstore", str(q),
            "--runs", "12",
            "--seed", "11",
            "--report", str(rep),
        ]
    )
    assert code == 0
    report = json.loads(rep.read_text(encoding="utf-8"))
    assert len(report["runs"]) == 12
    recount = sum(1 for r in report["runs"] if r["outcome"] == "goal-reached")
    assert report["success_rate"] == pytest.approx(recount / 12)
    assert f"({recount}/12" in capsys.readouterr().out


def test_render_text_and_svg(tmp_path, instance_path, capsys):
    svg = tmp_path / "chart.svg"
    assert main(["render", "--instance", instance_path, "--svg", str(svg), "--text"]) == 0
    out = capsys.readouterr().out
    assert "|" in out
    assert svg.read_text(encoding="utf-8").startswith("<svg")
    assert main(["render", "--instance", instance_path, "--disrupted"]) == 0
    assert "*" in capsys.readouterr().out  # focal marker present after insertion


def test_inspect_q(tmp_path, instance_path, capsys):
    q = tmp_path / "q.txt"
    main(["train", "--instance", instance_path, "--qstore", str(q), "--seed", "7"])
    capsys.readouterr()
    assert main(["inspect-q", "--qstore", str(q), "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out.splitlines()[0]
    assert "totTard=" in out


def test_qstore_error_exit_codes(tmp_path, instance_path, capsys):
    bad = tmp_path / "q.txt"
    bad.write_text("v9 alpha=0.1 gamma=0.9 lambda=0.1 epsilon=0.1\n", encoding="utf-8")
    assert main(["repair", "--instance", instance_path, "--qstore", str(bad)]) == 2
    capsys.readouterr()


QSTORE_HEADER = "v1 alpha=0.1 gamma=0.9 lambda=0.1 epsilon=0.1"
# total_wip, task_number, max/avg/total/init tardiness, focal; op, focal, aux; value
QSTORE_RECORD = "46.83 16 15.00 2.50 40.00 28.50 Task5 up-right-jump Task5 Task10 0.5".split()


def _record(**changed):
    fields = list(QSTORE_RECORD)
    for index, value in changed.items():
        fields[int(index[1:])] = value
    return "\t".join(fields)


@pytest.mark.parametrize("command", ["validate", "repair", "inspect-q"])
@pytest.mark.parametrize(
    "records",
    [
        [_record(f2="nan")],
        [_record(f0="inf")],
        [_record(f5="-inf")],
        [_record(f1="-3")],
        [_record(f10="nan")],
        [_record(f10="inf")],
        [_record(f7="up-up-jump")],
        [_record(f8="Task6")],
        [_record(), _record(f10="0.75")],
        [_record(f0="43.174")],
        [_record(f1="1_6")],
        [_record(f1="+16")],
        [_record(f4="40.0")],
        [_record(f10="0.50")],
        [_record(), ""],
    ],
    ids=[
        "nan-max-tardiness",
        "inf-wip",
        "minus-inf-init-tardiness",
        "negative-task-count",
        "nan-value",
        "inf-value",
        "unknown-operator",
        "operator-focal-is-not-signature-focal",
        "repeated-key",
        "three-decimal-wip",
        "underscore-in-task-count",
        "plus-sign-on-task-count",
        "one-decimal-total-tardiness",
        "trailing-zero-on-value",
        "trailing-blank-line",
    ],
)
def test_corrupt_qstore_record_exits_2(tmp_path, instance_path, capsys, command, records):
    q = tmp_path / "q.txt"
    args = {
        "validate": ["validate", "--qstore", str(q)],
        "repair": ["repair", "--instance", instance_path, "--qstore", str(q)],
        "inspect-q": ["inspect-q", "--qstore", str(q)],
    }[command]
    q.write_text(
        "\n".join([QSTORE_HEADER, _record(f6="Task9", f8="Task9")]) + "\n", encoding="utf-8"
    )
    assert main(args) == 0
    capsys.readouterr()
    q.write_text("\n".join([QSTORE_HEADER, *records]) + "\n", encoding="utf-8")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {q}:{len(records) + 1}: ")


@pytest.mark.parametrize("command", ["validate", "repair", "inspect-q"])
@pytest.mark.parametrize(
    "text",
    [
        f"v1 alpha=0.10 gamma=9e-1 lambda=+0.1 epsilon=0.1\n{_record()}\n",
        f"{QSTORE_HEADER}\r\n{_record()}\r\n",
        f"{QSTORE_HEADER}\n{_record()}",
    ],
    ids=["header-spelled-differently", "crlf-line-ends", "no-last-line-end"],
)
def test_qstore_text_save_would_not_write_exits_2(tmp_path, instance_path, capsys, command, text):
    q = tmp_path / "q.txt"
    args = {
        "validate": ["validate", "--qstore", str(q)],
        "repair": ["repair", "--instance", instance_path, "--qstore", str(q)],
        "inspect-q": ["inspect-q", "--qstore", str(q)],
    }[command]
    q.write_bytes(f"{QSTORE_HEADER}\n{_record()}\n".encode())
    assert main(args) == 0
    capsys.readouterr()
    q.write_bytes(text.encode())
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {q}")


# Bytes no loader can decode: not UTF-8, nested past the parser's recursion
# limit, or an integer past Python's digit limit.
UNREADABLE = {
    "not-utf8": b"\xff",
    "nested-too-deep": b"[" * 100_000,
    "int-past-digit-limit": b"1" * 5_000,
}
READERS = {
    "inst.json": ["validate", "repair", "train", "evaluate", "render"],
    "q.txt": ["validate", "repair", "evaluate", "inspect-q"],
}


@pytest.mark.parametrize(
    "name, command, content",
    [
        (name, command, content)
        for name, commands in READERS.items()
        for command in commands
        for content in (UNREADABLE if name == "inst.json" else ["not-utf8"])
    ],
)
def test_unreadable_file_exits_2_without_traceback(tmp_path, instance_path, name, command, content):
    bad = tmp_path / name
    if name == "q.txt":
        bad.write_bytes(f"{QSTORE_HEADER}\n{_record()}\n".encode() + UNREADABLE[content])
    else:
        bad.write_bytes(UNREADABLE[content])
    args = [command]
    if command != "inspect-q":
        args += ["--instance", str(bad) if name == "inst.json" else instance_path]
    if name == "q.txt":
        args += ["--qstore", str(bad)]
    elif command == "train":
        args += ["--qstore", str(tmp_path / "out.txt")]
    done = subprocess.run(
        [sys.executable, "-m", "reskit.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["evaluate", "--runs", "0"],
        ["evaluate", "--runs", "-3"],
        ["inspect-q", "--top", "0"],
        ["inspect-q", "--top", "-1"],
    ],
    ids=["zero-runs", "negative-runs", "zero-top", "negative-top"],
)
def test_count_below_one_exits_1(tmp_path, instance_path, capsys, args):
    q = tmp_path / "q.txt"
    assert main(["train", "--instance", instance_path, "--qstore", str(q), "--episodes", "2"]) == 0
    capsys.readouterr()
    files = {"evaluate": ["--instance", instance_path], "inspect-q": ["--qstore", str(q)]}
    assert main([args[0], *files[args[0]], *args[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be positive" in err


def _nan_quantity(data):
    data["tasks"][0]["quantity_kg"] = float("nan")


def _rate(value):
    def mutate(data):
        rates = data["resources"][0]["rates"]
        rates[sorted(rates)[0]] = value

    return mutate


def _order_id_is_task_id(data):
    data["disruption"]["order"]["id"] = data["tasks"][0]["id"]


def _duplicate_task_name(data):
    data["tasks"][1]["name"] = data["tasks"][0]["name"]


def _order_name_is_task_name(data):
    data["disruption"]["order"]["name"] = data["tasks"][0]["name"]


def _numeric_resource_id(data):
    # str() would turn 1 into "1" on both sides, and the file would load
    rid = data["resources"][0]["id"]
    data["resources"][0]["id"] = 1
    for td in data["tasks"]:
        if td["resource"] == rid:
            td["resource"] = 1


def _names_end_with(suffix):
    def mutate(data):
        for td in data["tasks"]:
            td["name"] += suffix

    return mutate


def _set(*path, value):
    def mutate(data):
        *parents, leaf = path
        for key in parents:
            data = data[key]
        data[leaf] = value

    return mutate


@pytest.mark.parametrize("command", ["validate", "repair", "train", "evaluate"])
@pytest.mark.parametrize(
    "mutate",
    [
        _nan_quantity,
        _rate(0.0),
        _rate(-3.0),
        _order_id_is_task_id,
        _duplicate_task_name,
        _order_name_is_task_name,
        _set("tasks", 0, "quantity_kg", value=-5.0),
        _set("tasks", 0, "quantity_kg", value=0),
        _set("disruption", "order", "quantity_kg", value=-5.0),
        _set("tasks", 0, "due_h", value=-5.0),
        _set("disruption", "order", "due_h", value=-5.0),
        _set("resources", 0, "release_time", value=-1.0),
        _set("disruption", "arrival_h", value=-1.0),
        _set("tasks", 0, "id", value=None),
        _set("tasks", 0, "name", value={}),
        _set("tasks", 0, "product", value=1),
        _set("resources", 0, "kind", value=5),
        _numeric_resource_id,
        _set("disruption", "order", "id", value=None),
        _set("disruption", "order", "name", value=7),
        _set("disruption", "order", "product", value=["A"]),
        _names_end_with("\tx"),
        _names_end_with("\n"),
        _names_end_with("\r\nx"),
        _names_end_with("\u2028x"),
        _set("disruption", "order", "name", value="Order\tx"),
        _set("disruption", "order", "name", value="Order\x0bx"),
    ],
    ids=[
        "nan-quantity",
        "zero-rate",
        "negative-rate",
        "order-id-is-task-id",
        "duplicate-task-name",
        "order-name-is-task-name",
        "negative-task-quantity",
        "zero-task-quantity",
        "negative-order-quantity",
        "negative-task-due",
        "negative-order-due",
        "negative-release-time",
        "negative-arrival",
        "null-task-id",
        "object-task-name",
        "number-task-product",
        "number-resource-kind",
        "number-resource-id",
        "null-order-id",
        "number-order-name",
        "list-order-product",
        "tab-in-task-names",
        "newline-ending-task-names",
        "crlf-in-task-names",
        "line-separator-in-task-names",
        "tab-in-order-name",
        "vertical-tab-in-order-name",
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, mutate, command):
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    args = {
        "validate": ["validate", "--instance", str(path)],
        "repair": ["repair", "--instance", str(path)],
        "train": ["train", "--instance", str(path), "--qstore", str(tmp_path / "q.txt")],
        "evaluate": ["evaluate", "--instance", str(path), "--runs", "2"],
    }[command]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_infinite_pre_disruption_tardiness_exits_2(tmp_path, capsys):
    # a 1e308 h release makes the base tardiness inf, which every state "reaches"
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    data["resources"][0]["release_time"] = 1e308
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for args in (
        ["validate"],
        ["repair"],
        ["train", "--qstore", str(tmp_path / "q.txt")],
        ["evaluate", "--runs", "2"],
        ["render", "--disrupted"],
    ):
        assert main([args[0], "--instance", str(path), *args[1:]]) == 2, args[0]
        assert "pre-disruption tardiness is inf" in capsys.readouterr().err
    assert not (tmp_path / "q.txt").exists()


def test_infinite_post_insertion_tardiness_exits_2(tmp_path, capsys):
    # the order's duration overflows to inf: no reward is defined after insertion
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    order = data["disruption"]["order"]
    order["quantity_kg"] = 1e308
    for rd in data["resources"]:
        if order["product"] in rd["rates"]:
            rd["rates"][order["product"]] = 0.5
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    # evaluate repairs fresh orders, not the file's, and render draws the base plant
    for args in (["evaluate", "--runs", "2"], ["render"]):
        assert main([args[0], "--instance", str(path), *args[1:]]) == 0, args[0]
    capsys.readouterr()
    for args in (
        ["validate"],
        ["repair"],
        ["train", "--qstore", str(tmp_path / "q.txt")],
        ["render", "--disrupted"],
    ):
        assert main([args[0], "--instance", str(path), *args[1:]]) == 2, args[0]
        assert "post-insertion tardiness is inf" in capsys.readouterr().err
    assert not (tmp_path / "q.txt").exists()


@pytest.mark.parametrize("command", ["validate", "repair", "train", "evaluate", "render"])
def test_task_on_incapable_resource_exits_1(tmp_path, capsys, command):
    # well-formed, but the loader's elaboration finds no rate for a chained task
    data = instance_to_dict(generate_instance(InstanceSpec(seed=7)))
    head = next(
        td for td in data["tasks"] if td["resource"] == "r1" and td["chain_position"] == 0
    )
    del data["resources"][0]["rates"][head["product"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    q = tmp_path / "q.txt"
    args = {
        "validate": [],
        "repair": [],
        "train": ["--qstore", str(q)],
        "evaluate": ["--runs", "2"],
        "render": [],
    }[command]
    assert main([command, "--instance", str(path), *args]) == 1
    err = capsys.readouterr().err
    assert "rate" in err
    assert "Traceback" not in err
    assert err.startswith(f"{path}: " if command == "validate" else "error: ")
    assert not q.exists()


@pytest.mark.parametrize("command", ["validate", "repair"])
def test_unplaceable_order_exits_1(tmp_path, capsys, command):
    # well-formed, but no resource has a rate for the arriving order's product
    data = instance_to_dict(generate_instance(InstanceSpec(seed=7)))
    data["disruption"]["order"]["product"] = "Z"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "no resource can process Z" in err
    assert err.startswith(f"{path}: " if command == "validate" else "error: ")


@pytest.mark.parametrize("resources", ["rateless", "none"])
def test_evaluate_on_a_plant_that_processes_nothing_exits_1(tmp_path, resources):
    # such a file loads, but no fresh order can be drawn for it; repair
    # refuses the file's own order the same way
    data = instance_to_dict(generate_instance(InstanceSpec(seed=7)))
    data["tasks"] = []
    if resources == "none":
        data["resources"] = []
    for rd in data["resources"]:
        rd["rates"] = {}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("evaluate", "repair"):
        done = subprocess.run(
            [sys.executable, "-m", "reskit.cli", command, "--instance", str(path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: no resource can process ")
        assert "Traceback" not in done.stderr


def test_render_row_bound_fails_before_any_file_is_written(tmp_path, capsys):
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    data["tasks"][0]["quantity_kg"] = 1e9
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    svg = tmp_path / "x.svg"
    assert main(["render", "--instance", str(path), "--svg", str(svg), "--text"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not svg.exists()
    # without --text only the SVG is drawn, and it has no row bound
    assert main(["render", "--instance", str(path), "--svg", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").startswith("<svg")
    # but it needs a finite horizon: this task takes 1e308 kg / 1e-300 kg/h = inf h
    task = data["tasks"][0]
    task["quantity_kg"] = 1e308
    rates = next(r for r in data["resources"] if r["id"] == task["resource"])["rates"]
    rates[task["product"]] = 1e-300
    path.write_text(json.dumps(data), encoding="utf-8")
    svg.unlink()
    capsys.readouterr()
    assert main(["render", "--instance", str(path), "--svg", str(svg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not svg.exists()


def _tick_lines(tmp_path, quantity):
    """Run ``render --svg`` and ``repair --svg-before`` on the seed-3 plant
    with every quantity set to ``quantity`` kg and every due date to 0, each
    in a process that a hang would time out; return each run's exit code,
    stderr and SVG tick-line count (None when no file was written)."""
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    for t in [*data["tasks"], data["disruption"]["order"]]:
        t["quantity_kg"], t["due_h"] = quantity, 0
    path = tmp_path / f"{quantity:g}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = []
    for command, flag in (("render", "--svg"), ("repair", "--svg-before")):
        svg = tmp_path / f"{quantity:g}-{command}.svg"
        done = subprocess.run(
            [sys.executable, "-m", "reskit.cli", command, "--instance", str(path), flag, str(svg)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        lines = svg.read_text(encoding="utf-8").count("<line ") if svg.exists() else None
        out.append((done.returncode, done.stderr, lines))
    return out


def test_svg_of_a_plant_far_below_a_nanosecond(tmp_path):
    # a 5.3e-21 h horizon takes a 1e-21 h tick step; an absolute slack of
    # 1e-9 h on the last tick would draw about 1e12 ticks. At about 5e-321 h
    # the width over the horizon overflows, so each coordinate is divided by
    # the horizon before it is scaled to the width. 1e-322 and 5e-323 kg give
    # horizons of 11 and 5 subnormal steps, where a power of ten underflows
    # to a tick step of 0
    normal = _tick_lines(tmp_path, 10.0)
    for quantity in (1e-20, 1e-320, 1e-322, 5e-323):
        for (code, err, lines), (_, _, most) in zip(_tick_lines(tmp_path, quantity), normal):
            assert code == 0, err
            assert 0 < lines <= most


def test_repair_that_cannot_draw_writes_no_file(instance_path, tmp_path, capsys, monkeypatch):
    # repair builds every output before it writes one: a drawing that fails
    # once the trace and the first drawing are built leaves no file behind.
    # validate admits no plant that cannot be drawn, so the failure is forced
    drawn = []

    def failing_second(state, caption=""):
        drawn.append(caption)
        if len(drawn) == 2:
            raise InvalidConfig("no scale to draw at")
        return render_svg(state, caption)

    monkeypatch.setattr(cli, "render_svg", failing_second)
    outputs = [tmp_path / name for name in ("t.json", "b.svg", "a.svg")]
    trace, before, after = map(str, outputs)
    repair = ["repair", "--instance", instance_path, "--trace", trace]
    assert main([*repair, "--svg-before", before, "--svg-after", after]) == 1
    assert capsys.readouterr().err == "error: no scale to draw at\n"
    assert len(drawn) == 2
    assert not any(path.exists() for path in outputs)


def test_train_that_cannot_build_its_report_writes_no_file(
    instance_path, tmp_path, capsys, monkeypatch
):
    # train builds the store's text and the report's before it writes
    # either: a report that fails once the store is built leaves no store
    # behind, and files already there keep their bytes. The failure is forced
    built = []

    def failing_report(data):
        built.append(data)
        raise InvalidConfig("report cannot be built")

    monkeypatch.setattr(cli, "json_text", failing_report)
    q, report = tmp_path / "q.txt", tmp_path / "report.json"
    train = ["train", "--instance", instance_path, "--qstore", str(q), "--report", str(report)]
    for old in (None, b"old store\n"):
        if old is not None:
            q.write_bytes(old)
            report.write_bytes(old + b"report\n")
        built.clear()
        assert main([*train, "--episodes", "2", "--seed", "7"]) == 1
        assert capsys.readouterr().err == "error: report cannot be built\n"
        assert len(built) == 1 and built[0]["q_entries"] > 0
        if old is None:
            assert not q.exists() and not report.exists()
        else:
            assert (q.read_bytes(), report.read_bytes()) == (old, old + b"report\n")


# sha256 of the seed-7 artifacts, written by main() in-process. The table
# in tests/artifacts.sha256 pins the same files from subprocesses, except
# eval.json: this one comes from a 30-run evaluate, the table's from 100.
GOLDEN_SHA256 = {
    "inst.json": "160299399c900695b1d5304bd550e1e898e81f5516f568a62b0deca8605b5d7c",
    "q.txt": "c5ecfa7a6d5931906ab536fad0b60e23c03150fcdd677d0b5ddab936e40bf9c0",
    "report.json": "5dfe8157687e47fecba63f980b8beac56585f16e8911365af22e1309cca12e36",
    "trace.json": "b0f9a2717d7d8572e556c6f7fb11238bab2591a2d65954d7d310ac24a92b69ec",
    "eval.json": "bd29f506d20555e2ae2aaa8ee7770d581076fc5607ad8809f34da2412448c16e",
    "before.svg": "8ad5bcf609e3c0fc7372684997e58b2fff798ba35f99d9f160b769c3c53771a6",
    "after.svg": "5cc901debbca8873ca168c95cbf7e02afce0aea413c4bfe2215479db0bb2a506",
}


def test_seed7_artifacts_match_golden_bytes(tmp_path, capsys):
    inst, q = str(tmp_path / "inst.json"), str(tmp_path / "q.txt")
    seed = ["--seed", "7"]
    assert main(["generate", "--out", inst, *seed]) == 0
    report = str(tmp_path / "report.json")
    assert main(["train", "--instance", inst, "--qstore", q, "--report", report, *seed]) == 0
    trace = str(tmp_path / "trace.json")
    svgs = [f"--svg-{when}={tmp_path / when}.svg" for when in ("before", "after")]
    assert main(["repair", "--instance", inst, "--qstore", q, "--trace", trace, *svgs, *seed]) == 0
    evaluation = str(tmp_path / "eval.json")
    evaluate = ["evaluate", "--instance", inst, "--qstore", q, "--runs", "30"]
    assert main([*evaluate, "--report", evaluation, *seed]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


FUZZ_VALUES = [-1, 0, 1e300, 1e-300, 1e308, 10**400, True, None, "x", [], {}]


def _nodes(node, path=()):
    """Every (path, value) below ``node``, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield (*path, key), child
        yield from _nodes(child, (*path, key))


def _fuzz_mutants(base):
    """(mutation, data) of 204 seeded mutations of ``base``: 200 with one
    leaf replaced or one key deleted, then every quantity scaled to 1e-310,
    1e-320, 1e-322 and 2e-323 kg with every due date at 0."""
    nodes = list(_nodes(base))
    leaves = [where for where, value in nodes if not isinstance(value, (dict, list))]
    keys = [where for where, _ in nodes if isinstance(where[-1], str)]
    # Seed 2 sets a release_time to 1e308, an infinite tardiness repair refuses.
    for rng in (random.Random(2024), random.Random(2)):
        for _ in range(100):
            data = copy.deepcopy(base)
            delete = rng.random() < 0.2
            *parents, last = rng.choice(keys if delete else leaves)
            node = data
            for key in parents:
                node = node[key]
            if delete:
                del node[last]
                yield f"delete {(*parents, last)}", data
            else:
                value = rng.choice(FUZZ_VALUES)
                node[last] = value
                yield f"{(*parents, last)} = {value!r:.20}", data
    for quantity in (1e-310, 1e-320, 1e-322, 2e-323):
        data = copy.deepcopy(base)
        for t in [*data["tasks"], data["disruption"]["order"]]:
            t["quantity_kg"], t["due_h"] = quantity, 0
        yield f"every quantity_kg = {quantity:g}, every due_h = 0", data


def test_loader_fuzz_every_command_exits_0_1_or_2(tmp_path, capsys):
    # every command must exit 0, 1 or 2 on each mutant, and never raise or
    # hang, and a file validate accepts must be one every other command
    # runs, with every output it can write; the text render is exempt, as
    # its row bound depends on --quantum
    base = instance_to_dict(generate_instance(InstanceSpec(seed=5, task_count=6)))
    path = tmp_path / "fuzz.json"
    q, trace, svg = (str(tmp_path / name) for name in ("q.txt", "trace.json", "fuzz.svg"))
    commands = {
        "validate": ["validate"],
        "repair": ["repair", "--max-steps", "5", "--trace", trace]
        + ["--svg-before", svg, "--svg-after", svg],
        "train": ["train", "--qstore", q, "--episodes", "1", "--max-steps", "5"],
        "evaluate": ["evaluate", "--runs", "1", "--max-steps", "5"],
        "render --svg": ["render", "--svg", svg],
        "render --text": ["render"],
    }
    for mutation, data in _fuzz_mutants(base):
        path.write_text(json.dumps(data), encoding="utf-8")
        codes = {}
        for name, (command, *flags) in commands.items():
            code = main([command, "--instance", str(path), *flags])
            assert code in (0, 1, 2), f"{mutation}: {name} returned {code}"
            codes[name] = code
        if codes["validate"] == 0:
            bound = [name for name in commands if name != "render --text"]
            assert {codes[name] for name in bound} == {0}, f"{mutation}: {codes}"
        capsys.readouterr()
