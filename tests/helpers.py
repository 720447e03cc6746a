"""Shared test fixtures: independent oracles and random state builders.

The oracles here re-derive schedule figures from first principles (plain
forward sweeps and scans over chains, exactly rounded sums) and stay
independent of the package's elaboration path; property tests compare the
two.
``naive_elaborate`` fills every derived field by the same plain sweeps, and
``derived`` and ``holder`` read a task's figures and resource off the
arrays and chains, and ``finishes`` reads each slot's finish off the starts
and the chain's end. ``assert_fully_elaborated`` instead checks a state
re-timed in part against the package's own full elaboration, and
``assert_prefixes_shared`` checks what a splice shares with its input.
``disruption_oracle`` builds the disrupted state from a raw copy with
``naive_elaborate``, and ``assert_disrupted`` checks ``inject_disruption``
against it.
``quantize_oracle`` and ``sarsa_two_pass`` are the plain forms of
``quantize`` and ``QStore.sarsa_update`` that the fast ones must match bit
for bit, and ``DictQStore`` is ``QStore`` as plain dicts keyed by ``QKey``;
``traces_by_key`` reads a ``QStore``'s slot-keyed traces by ``QKey``.
``plain_episode`` is the plain form of an episode, and
``greedy_oracle`` and ``training_oracle`` use it as the plain forms of a
greedy ``run_episode`` and of ``train``.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal
from random import Random
from types import SimpleNamespace

from reskit.episode import EpisodeConfig, EpisodeResult, Outcome, StepRecord
from reskit.instances import Instance
from reskit.operators import apply, propose
from reskit.rl import TRACE_FLOOR, Hyperparams, QKey, QStore, goal_reached, reward, select
from reskit.schedule import Resource, ScheduleState, Task, elaborate
from reskit.stategraph import StateSignature, signature

PRODUCTS = ["A", "B", "C", "D"]


def naive_timing(state: ScheduleState) -> dict[str, dict[str, float]]:
    """Forward-sweep oracle: recompute per-task timing from raw fields only."""
    out: dict[str, dict[str, float]] = {}
    for r in state.resources:
        clock: float | None = None
        for tid in r.task_chain:
            t = state.tasks[tid]
            duration = t.quantity / r.rates[t.product]
            if clock is None:
                start = t.start if t.executing else max(r.release_time, 0.0)
            else:
                start = clock
            finish = start + duration
            clock = finish
            out[tid] = {
                "duration": duration,
                "start": start,
                "finish": finish,
                "tardiness": max(0.0, finish - t.due_date),
            }
    return out


def naive_aggregates(state: ScheduleState) -> dict[str, float]:
    timing = naive_timing(state)
    lateness = [v["tardiness"] for v in timing.values()]
    total = sum(lateness)
    n = len(timing)
    return {
        "total_tardiness": total,
        "max_tardiness": max(lateness, default=0.0),
        "avg_tardiness": total / n if n else 0.0,
        "total_wip": sum(v["duration"] for v in timing.values()),
        "task_number": n,
    }


def naive_holders(state: ScheduleState) -> dict[str, int]:
    """Chain-scan oracle: each chained task's resource index."""
    return {tid: i for i, r in enumerate(state.resources) for tid in r.task_chain}


def naive_elaborate(state: ScheduleState) -> ScheduleState:
    """Elaboration oracle: a deep copy of ``state`` with every derived field
    filled by a plain forward sweep of each chain (``naive_timing``), its
    running partials summed left to right, the aggregates summed over the
    chains' last partials in resource order, and the focal's resource
    index found by a chain scan. A chain's end is its last finish, or its
    anchor when it is empty. The sums run in the package's order, so its
    floats must match bit for bit."""
    s = state.clone()
    timing = naive_timing(s)
    for r in s.resources:
        r.starts = []
        r.run_tardiness, r.run_max_tardiness, r.run_wip = [], [], []
        r.end = max(r.release_time, 0.0)
        total = max_t = wip = 0.0
        for tid in r.task_chain:
            v = timing[tid]
            if v["tardiness"] > 0.0:
                total += v["tardiness"]
                max_t = max(max_t, v["tardiness"])
            wip += v["duration"]
            r.starts.append(v["start"])
            r.end = v["finish"]
            r.run_tardiness.append(total)
            r.run_max_tardiness.append(max_t)
            r.run_wip.append(wip)
    s.total_tardiness = s.max_tardiness = s.total_wip = 0.0
    for r in s.resources:
        if r.task_chain:
            s.total_tardiness += r.run_tardiness[-1]
            s.max_tardiness = max(s.max_tardiness, r.run_max_tardiness[-1])
            s.total_wip += r.run_wip[-1]
    s.focal_index = naive_holders(s).get(s.focal_task)
    return s


def finishes(r: Resource) -> list[float]:
    """Each slot's finish: the next slot's start, and the chain's end for the
    last slot."""
    return [*r.starts[1:], r.end] if r.starts else []


def derived(state: ScheduleState) -> dict[str, SimpleNamespace]:
    """Each chained task's derived figures, read off its resource's arrays:
    ``start``, ``finish``, ``duration`` (quantity over the resource's rate,
    the division ``_retime`` makes), ``resource_index`` and the running
    partials ``run_tardiness``, ``run_max_tardiness`` and ``run_wip``."""
    out = {}
    for i, r in enumerate(state.resources):
        ends = finishes(r)
        for slot, tid in enumerate(r.task_chain):
            t = state.tasks[tid]
            out[tid] = SimpleNamespace(
                start=r.starts[slot],
                finish=ends[slot],
                duration=t.quantity / r.rates[t.product],
                resource_index=i,
                run_tardiness=r.run_tardiness[slot],
                run_max_tardiness=r.run_max_tardiness[slot],
                run_wip=r.run_wip[slot],
            )
    return out


def holder(state: ScheduleState, task_id: str) -> Resource:
    """The resource whose chain holds ``task_id``, by a chain scan."""
    return state.resources[naive_holders(state)[task_id]]


def _assert_sums(holder: object, timing: list[dict[str, float]]) -> None:
    """``holder``'s total tardiness and WIP are within 1e-12 relative of
    ``math.fsum`` over ``timing``, and its max tardiness is the largest
    lateness there exactly."""
    lateness = [v["tardiness"] for v in timing]
    exact = {
        "total_tardiness": math.fsum(lateness),
        "total_wip": math.fsum(v["duration"] for v in timing),
    }
    for attr, value in exact.items():
        assert math.isclose(getattr(holder, attr), value, rel_tol=1e-12, abs_tol=0.0), attr
    assert holder.max_tardiness == max(lateness, default=0.0)


def assert_matches_oracles(state: ScheduleState) -> None:
    """``focal_index`` is the focal's holder by a chain scan, and the
    tardiness and WIP figures of the state match exact sums over its tasks'
    forward-sweep timing. Each chain's starts and finishes are the sweep's
    exactly, and each slot's running partials match exact sums over its
    chain's slots up to and including it, so a chain's last slot carries
    the chain's figures."""
    assert state.focal_index == naive_holders(state).get(state.focal_task)
    timing = naive_timing(state)
    for r in state.resources:
        chain = [timing[tid] for tid in r.task_chain]
        assert r.starts == [v["start"] for v in chain], r.id
        assert finishes(r) == [v["finish"] for v in chain], r.id
        for slot in range(len(chain)):
            running = SimpleNamespace(
                total_tardiness=r.run_tardiness[slot],
                max_tardiness=r.run_max_tardiness[slot],
                total_wip=r.run_wip[slot],
            )
            _assert_sums(running, chain[: slot + 1])
    _assert_sums(state, list(timing.values()))


AGGREGATES = ("total_tardiness", "max_tardiness", "avg_tardiness", "total_wip", "task_number")
ARRAYS = ("starts", "run_tardiness", "run_max_tardiness", "run_wip")


def assert_fully_elaborated(state: ScheduleState) -> None:
    """Every derived field equals a full re-elaboration's, floats bit for
    bit: each resource's arrays and end, the focal index and the
    aggregates."""
    fresh = elaborate(state)
    assert list(state.tasks) == list(fresh.tasks)
    for r, f in zip(state.resources, fresh.resources, strict=True):
        for attr in ARRAYS:
            assert getattr(r, attr) == getattr(f, attr), (r.id, attr)
        assert r.end == f.end, (r.id, "end")
    assert state.focal_index == fresh.focal_index
    for attr in AGGREGATES:
        assert getattr(state, attr) == getattr(fresh, attr), attr


def first_changed_slot(old: list[str], new: list[str]) -> int:
    """The first slot where two chains differ, or the shorter one's length."""
    for slot, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return slot
    return min(len(old), len(new))


def assert_prefixes_shared(before: ScheduleState, after: ScheduleState) -> int:
    """``after`` is fully elaborated, holds ``before``'s task dict itself,
    and shares with ``before`` every resource whose chain it left alone.
    Each changed chain is a new resource whose arrays keep the old values
    up to its first changed slot. Returns the number of changed chains."""
    assert_fully_elaborated(after)
    assert after.tasks is before.tasks
    changed = 0
    for old, new in zip(before.resources, after.resources):
        if new.task_chain == old.task_chain:
            assert new is old
            continue
        assert new is not old
        changed += 1
        first = first_changed_slot(old.task_chain, new.task_chain)
        for attr in ARRAYS:
            assert getattr(new, attr)[:first] == getattr(old, attr)[:first], (new.id, attr)
    return changed


def disruption_oracle(instance: Instance) -> ScheduleState:
    """The disrupted state built without ``inject_disruption`` and without the
    package's timing: on a deep copy of the plant, flag the chain heads
    started before the arrival by a forward sweep and record their starts,
    append the order to the capable chain that the sweep ends first, make it
    the focal task, fill in every derived field with ``naive_elaborate``,
    then record the pre-disruption tardiness."""
    raw = instance.state.clone()
    order = instance.order
    timing = naive_timing(raw)
    capable = [r for r in raw.resources if order.product in r.rates]
    ends = [timing[r.task_chain[-1]]["finish"] if r.task_chain else r.release_time
            for r in capable]
    for r in raw.resources:
        if r.task_chain and timing[r.task_chain[0]]["start"] < instance.arrival_h:
            head = raw.tasks[r.task_chain[0]]
            head.executing, head.start = True, timing[head.id]["start"]
    capable[ends.index(min(ends))].task_chain.append(order.id)
    raw.tasks[order.id] = order
    raw.focal_task = order.id
    s = naive_elaborate(raw)
    s.init_tardiness = instance.state.total_tardiness
    return s


def assert_disrupted(instance: Instance, s: ScheduleState) -> None:
    """``s`` equals ``disruption_oracle(instance)`` field for field, and
    shares with ``instance.state`` every resource but the order's and every
    task but the order and the heads flagged executing at the arrival."""
    oracle = disruption_oracle(instance)
    assert list(s.tasks) == list(oracle.tasks)
    for tid, t in s.tasks.items():
        assert vars(t) == vars(oracle.tasks[tid]), tid
    for r, o in zip(s.resources, oracle.resources, strict=True):
        assert vars(r) == vars(o), r.id
    for attr in (*AGGREGATES, "init_tardiness", "focal_task", "focal_index"):
        assert getattr(s, attr) == getattr(oracle, attr), attr

    base = instance.state
    timing = naive_timing(base)
    new = {instance.order.id}
    new.update(
        r.task_chain[0] for r in base.resources
        if r.task_chain and timing[r.task_chain[0]]["start"] < instance.arrival_h
    )
    target = holder(s, instance.order.id)
    for r, old in zip(s.resources, base.resources):
        assert (r is old) == (r is not target), r.id
    assert s.tasks is not base.tasks
    for tid, t in s.tasks.items():
        assert (t is base.tasks.get(tid)) == (tid not in new), tid
    assert s.tasks[instance.order.id] is not instance.order


class FrozenTask(Task):
    """A task that refuses every attribute write."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"write of {name} to input task {self.id}")


def frozen(state: ScheduleState) -> ScheduleState:
    """A copy of ``state`` whose tasks refuse writes, so that an operation
    that must leave its input alone fails loudly on a shared task."""
    s = state.clone()
    for tid, t in s.tasks.items():
        ft = object.__new__(FrozenTask)
        ft.__dict__.update(vars(t))
        s.tasks[tid] = ft
    return s


def random_state(rng: Random, max_resources: int = 3, max_tasks: int = 8) -> ScheduleState:
    """Small random instance; every task lands on a capable resource."""
    resources = []
    for i in range(rng.randint(1, max_resources)):
        rates = {p: round(rng.uniform(5.0, 20.0), 1) for p in PRODUCTS if rng.random() < 0.8}
        if not rates:
            rates = {"A": round(rng.uniform(5.0, 20.0), 1)}
        release = rng.choice([0.0, round(rng.uniform(0.0, 3.0), 1)])
        resources.append(Resource(id=f"r{i + 1}", rates=rates, release_time=release))
    tasks: dict[str, Task] = {}
    for j in range(rng.randint(0, max_tasks)):
        r = rng.choice(resources)
        product = rng.choice(sorted(r.rates))
        t = Task(
            id=f"t{j + 1}",
            name=f"Task{j + 1}",
            product=product,
            quantity=round(rng.uniform(1.0, 60.0), 1),
            due_date=round(rng.uniform(0.0, 30.0), 2),
        )
        tasks[t.id] = t
        r.task_chain.append(t.id)
    return ScheduleState(resources=resources, tasks=tasks)


def two_task_state() -> ScheduleState:
    """1 resource at 10 kg/h, T1(A, 20 kg, due 1 h) -> T2(A, 30 kg, due 10 h)."""
    r = Resource(id="r1", rates={"A": 10.0}, task_chain=["t1", "t2"])
    tasks = {
        "t1": Task(id="t1", name="Task1", product="A", quantity=20.0, due_date=1.0),
        "t2": Task(id="t2", name="Task2", product="A", quantity=30.0, due_date=10.0),
    }
    return ScheduleState(resources=[r], tasks=tasks)


def quantize_oracle(value: float) -> float:
    """Decimal round-half-even at two places on the shortest decimal form.

    From 2**52 up floats are whole and the 28-digit context cannot hold the
    largest of them; these, infinities and NaN come back as they are.
    """
    if not abs(value) < 2**52:
        return float(value)
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def sarsa_two_pass(
    store: DictQStore, key: QKey, reward_value: float, next_key: QKey | None
) -> None:
    """One TD step on a ``DictQStore`` as two passes over its traces: first
    every traced key moves by alpha * delta * trace, then every trace decays
    by gamma * lambda and those not above ``TRACE_FLOOR`` are dropped."""
    h = store.hyper
    delta = reward_value + h.gamma * store.q(next_key) - store.q(key)
    step = h.alpha * delta
    for k, e in store.traces.items():
        store.entries[k] = store.entries.get(k, 0.0) + step * e
    decay = h.gamma * h.lam
    store.traces = {k: e * decay for k, e in store.traces.items() if e * decay > TRACE_FLOOR}


def traces_by_key(store: QStore) -> dict[QKey, float]:
    """``store.traces`` keyed by ``QKey``, in the order traced: slot i is the
    i-th key entered."""
    keys = [None, *store.entries]
    return {keys[i]: e for i, e in store.traces.items()}


class DictQStore:
    """A Q-store whose entries and traces are plain dicts keyed by ``QKey``,
    with ``QStore``'s update logic written over them; ``save_qstore`` takes
    it as it takes a ``QStore``."""

    def __init__(self, hyper: Hyperparams):
        self.hyper = hyper
        self.entries: dict[QKey, float] = {}
        self.traces: dict[QKey, float] = {}

    def q(self, key: QKey | None) -> float:
        return self.entries.get(key, 0.0)

    def bump_trace(self, key: QKey) -> None:
        self.entries.setdefault(key, 0.0)
        self.traces[key] = 1.0

    def sarsa_update(self, key: QKey, reward_value: float, next_key: QKey | None) -> None:
        h = self.hyper
        delta = reward_value + h.gamma * self.q(next_key) - self.q(key)
        step = h.alpha * delta
        decay = h.gamma * h.lam
        entries = self.entries
        decayed = {}
        for k, e in self.traces.items():
            entries[k] = entries.get(k, 0.0) + step * e
            e *= decay
            if e > TRACE_FLOOR:
                decayed[k] = e
        self.traces = decayed

    def clear_traces(self) -> None:
        self.traces.clear()


class CountingStore(QStore):
    """A store that counts its ``q`` lookups and its row reads."""

    lookups = rows_read = 0

    def q(self, key: QKey | None) -> float:
        self.lookups += 1
        return super().q(key)

    def row(self, sig: StateSignature) -> dict[tuple[str, str], int] | None:
        self.rows_read += 1
        return super().row(sig)


def plain_episode(
    state: ScheduleState, store: QStore, cfg: EpisodeConfig, rng: Random | None
) -> tuple[EpisodeResult, list[list[list[str]]]]:
    """An episode as a plain propose, sign, select, apply loop: no table of
    visited states and no transition memo. With ``rng`` it learns as ``train``
    does, bumping each key's trace and making one SARSA update a step;
    without it every pick is greedy and the store is left alone. Returns
    the result and the chains of every state it visited, the start first."""
    steps: list[StepRecord] = []
    visited = [[r.task_chain for r in state.resources]]
    prev_key = gain = None
    while True:
        if goal_reached(state):
            outcome = Outcome.GOAL_REACHED
            break
        if len(steps) == cfg.max_steps:
            outcome = Outcome.STEP_LIMIT
            break
        proposals = propose(state)
        if not proposals:
            outcome = Outcome.NO_PROPOSALS
            break
        op, key = select(store, state, proposals, rng, signature(state))
        if rng is not None:
            if steps:
                store.sarsa_update(prev_key, gain, key)
            store.bump_trace(key)
        nxt = apply(state, op)
        gain = reward(state, nxt)
        steps.append(
            StepRecord(
                operator=op,
                source_resource=holder(state, op.focal).id,
                tardiness_before=state.total_tardiness,
                tardiness_after=nxt.total_tardiness,
                reward=gain,
                proposal_count=len(proposals),
            )
        )
        visited.append([r.task_chain for r in nxt.resources])
        state, prev_key = nxt, key
    if rng is not None and steps:
        store.sarsa_update(prev_key, gain, None)
        store.clear_traces()
    return EpisodeResult(outcome, steps, state), visited


def greedy_oracle(
    state: ScheduleState, store: QStore, cfg: EpisodeConfig
) -> tuple[EpisodeResult, list[list[list[str]]]]:
    """A greedy ``run_episode`` as a plain loop; see ``plain_episode``."""
    return plain_episode(state, store, cfg, None)


def training_oracle(
    disrupted: ScheduleState, store: QStore, episodes: int, cfg: EpisodeConfig
) -> tuple[list[EpisodeResult], Random]:
    """``train`` as plain learning loops, each from ``disrupted`` and driven
    by one ``Random(cfg.seed)``; returns the results and the generator."""
    rng = Random(cfg.seed)
    return [plain_episode(disrupted, store, cfg, rng)[0] for _ in range(episodes)], rng
