"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgeted criteria assert their own wall-clock limits.
"""

import json
import statistics
import time
from fractions import Fraction
from random import Random

import pytest

from reskit.cli import main
from reskit.episode import EpisodeConfig, Outcome, run_episode, train
from reskit.instances import InstanceSpec, generate_instance, inject_disruption
from reskit.operators import apply, propose
from reskit.rl import Hyperparams, QKey, QStore
from reskit.schedule import Resource, ScheduleState, Task, elaborate, validate
from reskit.stategraph import StateSignature

from helpers import derived, holder, naive_aggregates, random_state

TOL = 1e-9


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def test_criterion_1_aggregate_consistency():
    started = time.perf_counter()
    rng = Random(1234)
    checked = 0
    ok = True
    for _ in range(1000):
        raw = random_state(rng, max_resources=3, max_tasks=8)
        s = elaborate(raw)
        expect = naive_aggregates(raw)
        ok = ok and abs(s.total_tardiness - expect["total_tardiness"]) <= TOL
        ok = ok and abs(s.max_tardiness - expect["max_tardiness"]) <= TOL
        ok = ok and abs(s.avg_tardiness - expect["avg_tardiness"]) <= TOL
        ok = ok and abs(s.total_wip - expect["total_wip"]) <= TOL
        ok = ok and s.task_number == expect["task_number"]
        checked += 1

    # anchored identity: 16 tasks totalling 40 h of tardiness average to 2.5 h
    tasks = {}
    chain = []
    for k in range(1, 17):
        due = float(k) if k <= 8 else float(k) - 5.0
        tasks[f"t{k}"] = Task(id=f"t{k}", name=f"Task{k}", product="A", quantity=1.0, due_date=due)
        chain.append(f"t{k}")
    anchored = elaborate(
        ScheduleState(
            resources=[Resource(id="r1", rates={"A": 1.0}, task_chain=chain)], tasks=tasks
        )
    )
    ok = ok and abs(anchored.total_tardiness - 40.0) <= TOL
    ok = ok and anchored.task_number == 16
    ok = ok and abs(anchored.avg_tardiness - 2.5) <= TOL

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report_line(1, "aggregate consistency", ok, f"{checked} instances, {elapsed:.2f}s")
    assert ok


def test_criterion_2_operator_soundness():
    started = time.perf_counter()
    rng = Random(991)
    pairs = 0
    cap_ok = True
    seed = 0
    while pairs < 10_000:
        instance = generate_instance(InstanceSpec(seed=9000 + seed))
        seed += 1
        state = inject_disruption(instance)
        for _ in range(8):
            ops = propose(state)
            cap_ok = cap_ok and len(ops) <= 10
            if not ops:
                break
            for op in ops:
                out = apply(state, op)
                assert sorted(
                    (t.id, t.quantity, t.product, t.due_date) for t in out.tasks.values()
                ) == sorted(
                    (t.id, t.quantity, t.product, t.due_date) for t in state.tasks.values()
                )
                assert validate(out) == []
                moved, slot = out.tasks[op.focal], derived(out)[op.focal]
                rate = holder(out, op.focal).rates[moved.product]
                assert abs((slot.finish - slot.start) * rate - moved.quantity) <= TOL
                pairs += 1
            state = apply(state, ops[rng.randrange(len(ops))])
    elapsed = time.perf_counter() - started
    ok = cap_ok and elapsed < 30.0
    report_line(2, "operator soundness", ok, f"{pairs} pairs, {elapsed:.2f}s")
    assert ok


def test_criterion_3_sarsa_golden_transcript():
    # exact-arithmetic oracle for the two-step update with the first two
    # tardiness deltas (-4, +15.5)
    alpha, gamma, lam = Fraction(1, 10), Fraction(9, 10), Fraction(1, 10)
    q = {"k1": Fraction(0), "k2": Fraction(0)}
    e = {"k1": Fraction(1)}
    delta = Fraction(-4) + gamma * q["k2"] - q["k1"]
    for k in e:
        q[k] += alpha * delta * e[k]
    e = {k: v * gamma * lam for k, v in e.items()}
    e["k2"] = Fraction(1)
    delta = Fraction(31, 2) - q["k2"]
    for k in e:
        q[k] += alpha * delta * e[k]
    assert q["k1"] == Fraction(-521, 2000)
    assert q["k2"] == Fraction(31, 20)

    def sig(total):
        return StateSignature(46.83, 16, 15.0, 2.5, total, 28.5, "Task16")

    store = QStore(Hyperparams(alpha=0.1, gamma=0.9, lam=0.1, epsilon=0.1))
    k1 = QKey(sig(40.0), "up-right-jump", "Task3")
    k2 = QKey(sig(44.0), "down-right-jump", "Task2")
    store.bump_trace(k1)
    store.sarsa_update(k1, -4.0, k2)
    store.bump_trace(k2)
    store.sarsa_update(k2, 15.5, None)
    ok = (
        abs(store.entries[k1] - float(q["k1"])) <= 1e-12
        and abs(store.entries[k2] - float(q["k2"])) <= 1e-12
    )
    report_line(
        3,
        "sarsa golden transcript",
        ok,
        f"Q(k1)={store.entries[k1]!r}, Q(k2)={store.entries[k2]!r}",
    )
    assert ok


@pytest.fixture(scope="module")
def campaign():
    """Criterion-4 protocol: 30 default instances, 20 training episodes each,
    then one greedy evaluation per instance."""
    started = time.perf_counter()
    rows = []
    for seed in range(30):
        instance = generate_instance(InstanceSpec(seed=seed))
        disrupted = inject_disruption(instance)
        store = QStore(Hyperparams(alpha=0.1, gamma=0.9, lam=0.1, epsilon=0.1))
        cfg = EpisodeConfig(max_steps=50, seed=seed)
        train(disrupted, store, 20, cfg)
        greedy = run_episode(disrupted.clone(), store, cfg, learning=False)
        rows.append(
            {
                "seed": seed,
                "post": disrupted.total_tardiness,
                "init": disrupted.init_tardiness,
                "final": greedy.final_state.total_tardiness,
                "goal": greedy.outcome is Outcome.GOAL_REACHED,
                "steps": len(greedy.steps),
                "entries": len(store.entries),
            }
        )
    return {"rows": rows, "elapsed": time.perf_counter() - started}


def test_criterion_4_learning_efficacy(campaign):
    rows = campaign["rows"]
    success = sum(1 for r in rows if r["goal"])
    rate = success / len(rows)
    mean_post = statistics.mean(r["post"] for r in rows)
    mean_final = statistics.mean(r["final"] for r in rows)
    ok = rate >= 0.70 and mean_final < mean_post and campaign["elapsed"] < 300.0
    report_line(
        4,
        "learning efficacy",
        ok,
        f"goal on {success}/30 ({rate:.0%}), mean tardiness {mean_post:.2f} -> "
        f"{mean_final:.2f} h, {campaign['elapsed']:.1f}s",
    )
    assert ok


def test_criterion_5_episode_shape(campaign):
    lengths = sorted(r["steps"] for r in campaign["rows"] if r["goal"])
    median = statistics.median(lengths)
    ok = bool(lengths) and median <= 10
    report_line(
        5,
        "episode shape",
        ok,
        f"median {median:g} steps over {len(lengths)} goal-reaching runs "
        f"(max {max(lengths)})",
    )
    assert ok


def test_criterion_6_qstore_magnitude(campaign):
    counts = sorted(r["entries"] for r in campaign["rows"])
    in_bracket = sum(1 for c in counts if 100 <= c <= 10_000)
    # informational: reported, not gated
    report_line(
        6,
        "q-store magnitude, informational",
        True,
        f"entries per instance min/median/max = {counts[0]}/"
        f"{statistics.median(counts):g}/{counts[-1]}; {in_bracket}/30 within [1e2, 1e4]",
    )


def test_criterion_7_determinism(tmp_path):
    digests = []
    for attempt in ("one", "two"):
        d = tmp_path / attempt
        d.mkdir()
        inst = d / "inst.json"
        q = d / "q.txt"
        rep = d / "report.json"
        trace = d / "trace.json"
        assert main(["generate", "--out", str(inst), "--seed", "7"]) == 0
        assert (
            main(
                [
                    "train",
                    "--instance", str(inst),
                    "--qstore", str(q),
                    "--report", str(rep),
                    "--seed", "7",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "repair",
                    "--instance", str(inst),
                    "--qstore", str(q),
                    "--trace", str(trace),
                    "--seed", "7",
                ]
            )
            == 0
        )
        digests.append(
            (inst.read_bytes(), q.read_bytes(), rep.read_bytes(), trace.read_bytes())
        )
    ok = digests[0] == digests[1]
    report_line(7, "determinism", ok, "instance, q-store, report and trace bytes identical")
    assert ok
    # sanity: the artifacts carry content
    payload = json.loads((tmp_path / "one" / "report.json").read_text(encoding="utf-8"))
    assert payload["q_entries"] > 0
