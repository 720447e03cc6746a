"""Workloads, correctness checks and metrics of the reskit benchmark.

A run of a workload repeats one fixed list of *items* in *passes*. An item
is one timed piece of work: the SARSA(lambda) training on one plant, one
Q-store file round trip, or one greedy repair. The seed fixes the items: it
draws the training exploration and the fresh orders. Each pass first sets
up its plants (generation, instance file round trip, first disruption) and
then runs every item once, in a closed loop on one thread: each episode or
repair starts only after the previous one has finished. Passes repeat while
the next one should end within ``seconds``, and at least ``MIN_PASSES`` run.

Every pass follows the same trajectories, so the quality figures and the
trajectory digest come from the first pass, and every later pass is checked
against it. A shared machine can run at half its best speed for minutes at
a time, so each timed piece of work is preceded by the reference
computation of ``reference.py`` and scaled to the reference speed; the
timings take each item's median over the passes.

The plants of a workload are fixed. Plant-to-plant differences in
tardiness are large (the mean tardiness recovered by the criterion-4
campaign spreads by over 30% between sets of 30 plants), and would hide
what a change to the engine does to the same plants.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from random import Random
from time import perf_counter

from reskit import episode, instances, rl, schedule
from reskit.episode import EpisodeConfig, Outcome, trace_dict
from reskit.instances import InstanceSpec, dumps_instance
from reskit.rl import Hyperparams, QStore

import reference
from tracing import Tracer, bindings

ROOT = Path(__file__).resolve().parent.parent
MAX_STEPS = 50
HYPER = Hyperparams(alpha=0.1, gamma=0.9, lam=0.1, epsilon=0.1)
MIN_PASSES = 2
SETUP_REPEATS = 3  # set-ups per untimed pass; set-up takes milliseconds
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0)


@dataclass(frozen=True)
class Workload:
    name: str
    plant_seeds: tuple[int, ...]
    tasks: int
    resources: int
    arrival_h: float
    episodes: int  # SARSA(lambda) training episodes per plant; 0 keeps the store empty
    store_round_trip: bool  # save_qstore/load_qstore between training and repairs
    # Fresh orders repaired per plant: (orders that break the goal when
    # inserted, orders that do not). (0, 0) repairs the trained disruption.
    order_mix: tuple[int, int]
    units: int  # units per pass; each draws its own exploration and orders


WORKLOADS = {
    # Criterion 4: 30 default plants, 20 training episodes and one greedy run
    # each, four times a pass. Unit 0 of seed 0 is exactly the acceptance
    # suite's campaign. With 120 greedy runs the p90 tail falls among the
    # runs that hit the step limit, about 15% of them.
    "campaign": Workload("campaign", tuple(range(30)), 15, 3, 0.0, 20, False, (0, 0), 4),
    # arrival_h 1 freezes every chain head, so the frozen-work check has work to do.
    "transfer-200x10": Workload("transfer-200x10", (1,), 200, 10, 1.0, 20, True, (27, 13), 1),
    "repair-500x20": Workload("repair-500x20", (0,), 500, 20, 1.0, 0, False, (27, 13), 1),
}


def _chained(state) -> list[str]:
    return sorted(tid for r in state.resources for tid in r.task_chain)


def _placement(state) -> dict[str, str]:
    return {tid: r.id for r in state.resources for tid in r.task_chain}


def check_episode(start, result) -> list[str]:
    """Problems with an episode's final state, judged against its start."""
    final = result.final_state
    if final is None:
        return ["no final state"]
    problems = [str(v) for v in schedule.validate(final)]
    if _chained(start) != _chained(final) or sorted(start.tasks) != sorted(final.tasks):
        problems.append("task multiset changed")
    before, after = _placement(start), _placement(final)
    for tid, task in start.tasks.items():
        if task.executing and (
            tid not in final.tasks
            or final.tasks[tid].start != task.start
            or after.get(tid) != before[tid]
        ):
            problems.append(f"executing task {tid} moved")
    fresh = schedule.elaborate(final)
    for attr in ("total_tardiness", "max_tardiness", "avg_tardiness", "total_wip"):
        if abs(getattr(fresh, attr) - getattr(final, attr)) > schedule.AGG_TOL:
            problems.append(f"elaborate changes {attr}")
    if fresh.task_number != final.task_number:
        problems.append("elaborate changes task_number")
    return problems


@dataclass
class Pass:
    """Measurements and tallies of one pass over a workload's items."""

    setup_times: list[float] = field(default_factory=list)
    setup_refs: list[float] = field(default_factory=list)  # reference time before each set-up
    times: dict[tuple, float] = field(default_factory=dict)  # item -> seconds
    refs: dict[tuple, float] = field(default_factory=dict)  # item -> reference time before it
    train_steps: dict[tuple, int] = field(default_factory=dict)  # training item -> steps
    repair_steps: dict[tuple, int] = field(default_factory=dict)  # repair item -> steps
    goals: int = 0
    final_tardiness: float = 0.0  # summed over greedy repairs
    recovered: float = 0.0  # post-insertion minus final tardiness, summed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    episode_digests: list[str] = field(default_factory=list)
    steps: int = 0
    improving_steps: int = 0
    proposals: int = 0
    store_entries: list[int] = field(default_factory=list)

    def at_reference(self, item: tuple) -> float:
        """The item's time, scaled to the reference speed."""
        return self.times[item] * reference.REFERENCE_S / self.refs[item]

    @property
    def busy_s(self) -> float:
        """All timed work of the pass, set-up included."""
        return sum(self.setup_times) + sum(self.times.values())

    def record(self, start, result) -> None:
        """Check one episode and fold it into the tallies and the digests."""
        self.steps += len(result.steps)
        self.improving_steps += sum(1 for s in result.steps if s.reward > 0)
        self.proposals += sum(s.proposal_count for s in result.steps)
        try:
            blob = json.dumps(trace_dict(result), sort_keys=True).encode()
            self.episode_digests.append(hashlib.sha256(blob).hexdigest())
            problems = check_episode(start, result)
        except Exception as exc:  # a final state too broken to inspect
            self.episode_digests.append("unreadable")
            problems = [f"checking raised {exc!r}"]
        if problems:
            self.fail(f"{len(problems)} problems, first: {problems[0]}")

    def fail(self, problem: str, count: int = 1) -> None:
        """Note a problem; ``count`` is how many episodes or repairs it failed."""
        self.failed += count
        self.problems.append(problem)
        print(f"perfbench: {problem}", file=sys.stderr)


def _order_seed(w: Workload, seed: int, k: int, plant: int, i: int) -> str:
    return f"{w.name}:{seed}:{k}:{plant}:{i}"


def _fresh_start(loaded, order_seed: str):
    return instances.inject_disruption(instances.sample_disruption(loaded, Random(order_seed)))


def _order_mix(w: Workload, seed: int, k: int, plant: int, loaded) -> list[int]:
    """Indices of the first fresh orders of each kind that ``w.order_mix``
    asks for, in the order drawn.

    About half of all orders break the goal when inserted. Each of those
    costs a full repair (at 500 x 20, 50 steps of 5 to 10 ms) and the others
    almost nothing, so the share of breaking orders among the first few
    drawn sets both the work and the goal rate of a run. Among the first 20
    orders of repair-500x20, the share that leaves the goal intact spreads
    by 40% of its median from seed to seed. Fixed counts of each kind keep
    both steady, and with about two breaking orders to one other the median
    repair is a breaking one.
    """
    wanted = {True: w.order_mix[0], False: w.order_mix[1]}
    picked: dict[bool, list[int]] = {True: [], False: []}
    for i in range(100 * sum(w.order_mix)):
        breaks = not rl.goal_reached(_fresh_start(loaded, _order_seed(w, seed, k, plant, i)))
        if len(picked[breaks]) < wanted[breaks]:
            picked[breaks].append(i)
        if all(len(picked[kind]) == n for kind, n in wanted.items()):
            return sorted(picked[True] + picked[False])
    raise RuntimeError(f"plant {plant}: orders of one kind are too rare for the mix")


def _set_up(w: Workload, path: Path) -> list[tuple]:
    """(plant seed, generated instance, reloaded instance, first disruption) per plant."""
    plants = []
    for plant in w.plant_seeds:
        generated = instances.generate_instance(
            InstanceSpec(resource_count=w.resources, task_count=w.tasks, seed=plant)
        )
        generated.arrival_h = w.arrival_h
        instances.save_instance(generated, path)
        loaded = instances.load_instance(path)
        plants.append((plant, generated, loaded, instances.inject_disruption(loaded)))
    return plants


def plan(w: Workload, seed: int, workdir: Path) -> dict[tuple[int, int], list[int]]:
    """(unit, plant) -> the fresh orders it repairs; drawn once per run, untimed."""
    if not any(w.order_mix):
        return {(k, plant): [] for k in range(w.units) for plant in w.plant_seeds}
    plants = _set_up(w, workdir / "instance.json")
    return {
        (k, plant): _order_mix(w, seed, k, plant, loaded)
        for k in range(w.units)
        for plant, _, loaded, _ in plants
    }


def run_pass(
    w: Workload, seed: int, orders: dict, workdir: Path, setups: int, untimed=nullcontext
) -> Pass:
    """One pass over the items of ``w``; ``untimed`` wraps the code that is not measured."""
    p = Pass()
    store_path = workdir / "qstore.txt"
    for _ in range(setups):
        p.setup_refs.append(reference.seconds())
        t0 = perf_counter()
        plants = _set_up(w, workdir / "instance.json")
        p.setup_times.append(perf_counter() - t0)
    with untimed():
        for plant, generated, loaded, _ in plants:
            if dumps_instance(loaded) != dumps_instance(generated):
                p.fail(f"plant {plant}: instance file round trip changed the instance", 0)

    for k in range(w.units):
        for plant, _, loaded, disrupted in plants:
            store = QStore(HYPER)
            cfg = EpisodeConfig(max_steps=MAX_STEPS, seed=plant + 1_000_000 * (seed * 1000 + k))
            if w.episodes:
                p.attempted += w.episodes
                p.refs["train", k, plant] = reference.seconds()
                t0 = perf_counter()
                try:
                    results = episode.train(disrupted, store, w.episodes, cfg)
                except Exception:
                    traceback.print_exc()
                    results = None
                p.times["train", k, plant] = perf_counter() - t0
                with untimed():
                    if results is None:
                        p.fail(f"plant {plant}: training raised", w.episodes)
                    else:
                        for r in results:
                            p.record(disrupted, r)
                        p.train_steps["train", k, plant] = sum(len(r.steps) for r in results)

            if w.store_round_trip:
                p.refs["store", k, plant] = reference.seconds()
                t0 = perf_counter()
                rl.save_qstore(store, store_path)
                reloaded = rl.load_qstore(store_path)
                p.times["store", k, plant] = perf_counter() - t0
                with untimed():
                    if reloaded.entries != store.entries or reloaded.hyper != store.hyper:
                        p.fail(f"plant {plant}: Q-store round trip changed the store", 0)
                store = reloaded
            p.store_entries.append(len(store.entries))

            if orders[k, plant]:
                for i in orders[k, plant]:
                    start = partial(_fresh_start, loaded, _order_seed(w, seed, k, plant, i))
                    _repair(p, ("repair", k, plant, i), store, cfg, untimed, start)
            else:
                _repair(p, ("repair", k, plant, -1), store, cfg, untimed, disrupted.clone)
    return p


def _repair(p: Pass, item: tuple, store: QStore, cfg: EpisodeConfig, untimed, make_start) -> None:
    """One greedy repair, timed from drawing its start state to its final state."""
    p.attempted += 1
    p.refs[item] = reference.seconds()
    t0 = perf_counter()
    try:
        start = make_start()
        result = episode.run_episode(start, store, cfg, learning=False)
    except Exception:
        traceback.print_exc()
        result = None
    p.times[item] = perf_counter() - t0
    with untimed():
        if result is None:
            p.fail("greedy repair raised")
            return
        p.record(start, result)
        p.repair_steps[item] = len(result.steps)
        p.goals += result.outcome is Outcome.GOAL_REACHED
        p.final_tardiness += result.final_state.total_tardiness
        p.recovered += start.total_tardiness - result.final_state.total_tardiness


def check_repeats(passes: list[Pass]) -> None:
    """Fail every episode of a later pass whose trajectory differs from the first pass's."""
    first = passes[0].episode_digests
    for n, p in enumerate(passes[1:], start=1):
        differ = sum(a != b for a, b in zip(first, p.episode_digests))
        differ += abs(len(first) - len(p.episode_digests))
        if differ:
            p.fail(f"pass {n}: {differ} trajectories differ from the first pass", differ)


def digest(p: Pass) -> str:
    return hashlib.sha256("".join(p.episode_digests).encode()).hexdigest()[:16]


def tail_percentile(samples: int) -> float:
    """Highest percentile of the grid with at least ten samples beyond it."""
    fitting = [p for p in TAIL_GRID if samples * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else TAIL_GRID[0]


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(w: Workload, passes: list[Pass]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures reported beside them."""
    first = passes[0]
    at_ref = {
        item: statistics.median(p.at_reference(item) for p in passes if item in p.times)
        for item in first.times
    }
    # A repair that raised counts as attempted, with its time until it raised.
    latencies = [at_ref[item] for item in first.times if item[0] == "repair"]
    repairs = len(latencies)
    tail = tail_percentile(len(latencies))
    train_s = sum(at_ref[item] for item in first.train_steps)
    train_steps = sum(first.train_steps.values())
    repair_s = sum(latencies)
    repair_steps = sum(first.repair_steps.values())
    metrics = {
        "setup_s": (
            statistics.median(
                t * reference.REFERENCE_S / r
                for p in passes
                for t, r in zip(p.setup_times, p.setup_refs)
            ),
            "s",
        ),
        "wall_s": (sum(at_ref.values()) / w.units, "s"),
        "steps_per_s": ((train_steps + repair_steps) / (train_s + repair_s), "1/s"),
        "repair_s_p50": (percentile(latencies, 50.0), "s"),
        "repair_s_tail": (percentile(latencies, tail), "s"),
        "goal_rate": (first.goals / repairs, "fraction"),
        "final_tardiness_h": (first.final_tardiness / max(len(first.repair_steps), 1), "h"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": len(passes),
        # The timed work of each pass as measured, and the reference
        # computation's median time in it: how much the machine's speed moved.
        "pass_wall_s": [round(sum(p.times.values()), 3) for p in passes],
        "pass_reference_ms": [round(1000 * statistics.median(p.refs.values()), 3) for p in passes],
        "repair_latency_samples": repairs,
        "repair_s_tail_percentile": tail,
        "tardiness_recovered_h": first.recovered / max(len(first.repair_steps), 1),
        "train_steps_per_s": train_steps / train_s if train_s else None,
        "repair_steps_per_s": repair_steps / repair_s if repair_s else None,
        "setup_samples": sum(len(p.setup_times) for p in passes),
    }
    return metrics, info


def per_layer(p: Pass, tracer: Tracer, plain_wall: float) -> dict:
    steps = p.steps
    wall = p.busy_s
    metrics = {}
    for name, (calls, self_s) in tracer.layer_times().items():
        metrics[f"{name}.calls_per_step"] = (calls / steps, "calls/step")
        metrics[f"{name}.self_ms_per_step"] = (1000 * self_s / steps, "ms/step")
        metrics[f"{name}.share"] = (self_s / wall, "fraction")
    episodes = len(p.episode_digests)
    metrics.update(
        {
            "rl.key_hit_rate": (tracer.greedy.hit_rate, "fraction"),
            "rl.traces_per_update": (
                tracer.traces_at_update / max(tracer.updates, 1),
                "traces/update",
            ),
            "rl.q_entries": (statistics.mean(p.store_entries), "count"),
            "operators.proposals_per_step": (p.proposals / steps, "ops/step"),
            "episode.improving_step_frac": (p.improving_steps / steps, "fraction"),
            "episode.steps_per_episode": (steps / episodes, "steps/episode"),
            "trace_overhead": (wall / plain_wall, "ratio"),
        }
    )
    return metrics


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result object for the last output line, extra figures)."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        orders = plan(w, seed, workdir)
        if not trace:
            passes: list[Pass] = []
            started = last = perf_counter()
            # A pass starts only if it should end within ``seconds``, judged
            # by the previous one, so a run overruns by little.
            while len(passes) < MIN_PASSES or 2 * perf_counter() - last - started < seconds:
                last = perf_counter()
                passes.append(run_pass(w, seed, orders, workdir, SETUP_REPEATS))
            check_repeats(passes)
            metrics, info = end_to_end(w, passes)
            correct = True
        else:
            # A traced pass sets its plants up once, like the untraced pass
            # it is compared with, so instances.* report the workload's own calls.
            before = bindings()
            tracer = Tracer()
            plain = run_pass(w, seed, orders, workdir, 1)
            tracer.install()
            try:
                traced = run_pass(w, seed, orders, workdir, 1, untimed=tracer.paused)
            finally:
                tracer.restore()
            passes = [plain, traced]
            check_repeats(passes)
            restored = bindings() == before
            metrics = per_layer(traced, tracer, plain.busy_s)
            info = {
                "traced_digest": digest(traced),
                "bindings_restored": restored,
                "spans": len(tracer.spans),
                "train_key_hit_rate": tracer.training.hit_rate,
                "greedy_key_lookups": tracer.greedy.lookups,
            }
            correct = restored
    info["digest"] = digest(passes[0])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info["failed_frac"] = failed / attempted
    result = {
        "correct": correct and not any(p.problems for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, info
