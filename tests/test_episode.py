import copy
import re
from collections import Counter
from itertools import islice
from random import Random

import pytest

from reskit import episode, rl
from reskit.episode import (
    EpisodeConfig,
    Outcome,
    format_trace,
    run_episode,
    trace_dict,
    train,
)
from reskit.errors import InvalidConfig
from reskit.instances import InstanceSpec, generate_instance, inject_disruption, sample_disruption
from reskit.operators import apply, propose
from reskit.rl import GOAL_BONUS, Hyperparams, QStore, goal_reached, qkey
from reskit.schedule import Resource, ScheduleState, Task, elaborate
from reskit.stategraph import quantize, signature

import helpers
from helpers import assert_fully_elaborated, greedy_oracle, random_state, training_oracle

TOL = 1e-9


def disrupted_instance(seed=2):
    return inject_disruption(generate_instance(InstanceSpec(seed=seed)))


def test_already_at_goal_halts_immediately():
    s = disrupted_instance()
    s.init_tardiness = s.total_tardiness + 1.0
    res = run_episode(s, QStore(), EpisodeConfig(seed=1), learning=False)
    assert res.outcome is Outcome.GOAL_REACHED
    assert res.steps == []
    assert res.final_state.total_tardiness <= res.final_state.init_tardiness


def test_no_proposals_outcome(monkeypatch):
    t = Task(id="t1", name="Task1", product="A", quantity=10.0, due_date=0.0)
    s = elaborate(
        ScheduleState(
            resources=[Resource(id="r1", rates={"A": 1.0}, task_chain=["t1"])],
            tasks={"t1": t},
            focal_task="t1",
        )
    )
    s.init_tardiness = 0.0  # tardy single task, nothing to repair with
    # the episode ends there with no pick, so the state is not signed
    signed = []
    monkeypatch.setattr(episode, "signature", signed.append)
    assert episode._visit({}, s, 0) == ([[["t1"]], [], None, 0, None], False)
    for learning in (False, True):
        res = run_episode(s, QStore(), EpisodeConfig(seed=1), learning=learning)
        assert res.outcome is Outcome.NO_PROPOSALS
        assert res.steps == []
    assert signed == []


def test_step_limit_bounds_episode():
    s = disrupted_instance(seed=22)  # known stubborn instance
    assert s.total_tardiness > s.init_tardiness
    res = run_episode(s, QStore(), EpisodeConfig(max_steps=3, seed=1), learning=False)
    assert len(res.steps) <= 3
    if res.outcome is Outcome.STEP_LIMIT:
        assert len(res.steps) == 3


def test_goal_outcome_iff_final_within_init():
    for seed in range(8):
        s = disrupted_instance(seed=seed)
        res = run_episode(s, QStore(), EpisodeConfig(seed=seed), learning=False)
        reached = res.final_state.total_tardiness <= res.final_state.init_tardiness + TOL
        assert (res.outcome is Outcome.GOAL_REACHED) == reached


def test_step_records_chain_consistently():
    s = disrupted_instance(seed=7)
    store = QStore()
    res = run_episode(s, store, EpisodeConfig(seed=5), learning=True)
    assert len(res.steps) >= 1
    assert res.steps[0].tardiness_before == pytest.approx(s.total_tardiness, abs=TOL)
    for a, b in zip(res.steps, res.steps[1:]):
        assert a.tardiness_after == pytest.approx(b.tardiness_before, abs=TOL)
    numbers = [step["step"] for step in trace_dict(res)["steps"]]
    assert numbers == list(range(1, len(res.steps) + 1))
    for i, rec in enumerate(res.steps):
        base = rec.tardiness_before - rec.tardiness_after
        expected = base + GOAL_BONUS if (
            i == len(res.steps) - 1 and res.outcome is Outcome.GOAL_REACHED
        ) else base
        assert rec.reward == pytest.approx(expected, abs=TOL)
        assert 1 <= rec.proposal_count <= 10
    assert res.final_state.total_tardiness == pytest.approx(
        res.steps[-1].tardiness_after, abs=TOL
    )


def test_greedy_run_is_repeatable_and_leaves_store_alone():
    s = disrupted_instance(seed=3)
    store = QStore()
    store.entries[qkey(s, propose(s)[0], signature(s))] = 0.5
    snapshot = dict(store.entries)
    r1 = run_episode(s.clone(), store, EpisodeConfig(seed=9), learning=False)
    r2 = run_episode(s.clone(), store, EpisodeConfig(seed=10), learning=False)
    assert store.entries == snapshot and store.traces == {}
    assert [st.operator for st in r1.steps] == [st.operator for st in r2.steps]
    assert r1.outcome == r2.outcome


class SpyStore(QStore):
    def __init__(self):
        super().__init__(Hyperparams())
        self.bumped = set()

    def bump_trace(self, key):
        self.bumped.add(key)
        super().bump_trace(key)


def test_lazy_entry_creation_matches_visits():
    s = disrupted_instance(seed=7)
    store = SpyStore()
    run_episode(s, store, EpisodeConfig(seed=7), learning=True)
    assert set(store.entries) == store.bumped
    assert store.traces == {}  # cleared at episode end


def test_invalid_configs():
    s = disrupted_instance()
    with pytest.raises(InvalidConfig):
        EpisodeConfig(max_steps=0)
    # a float limit would break a greedy run's cycle skip with a TypeError,
    # and a learning run would never meet it; a bool is no step count either
    for bad in (2.5, 3.0, True, "50", None):
        with pytest.raises(InvalidConfig, match="positive integer"):
            EpisodeConfig(max_steps=bad)
    with pytest.raises(InvalidConfig):
        train(s, QStore(), 0, EpisodeConfig())


def test_train_runs_twenty_episodes():
    disrupted = disrupted_instance(seed=7)
    store = QStore()
    results = train(disrupted, store, 20, EpisodeConfig(seed=7))
    assert len(results) == 20
    assert len(store.entries) > 0
    assert store.traces == {}


def test_train_zero_tardiness_instance_learns_nothing():
    r = Resource(id="r1", rates={"A": 10.0}, task_chain=["t1"])
    t = Task(id="t1", name="Task1", product="A", quantity=10.0, due_date=100.0)
    s = elaborate(ScheduleState(resources=[r], tasks={"t1": t}, focal_task="t1"))
    s.init_tardiness = s.total_tardiness
    store = QStore()
    results = train(s, store, 5, EpisodeConfig(seed=1))
    assert all(res.outcome is Outcome.GOAL_REACHED and res.steps == [] for res in results)
    assert store.entries == {}


def test_train_deterministic_under_seed():
    disrupted = disrupted_instance(seed=7)
    stores = []
    traces = []
    for _ in range(2):
        store = QStore()
        results = train(disrupted.clone(), store, 20, EpisodeConfig(seed=42))
        stores.append(store)
        traces.append([(len(r.steps), r.outcome) for r in results])
    assert stores[0].entries == stores[1].entries
    assert traces[0] == traces[1]


def test_trace_line_format():
    s = disrupted_instance(seed=7)
    store = QStore()
    train(s, store, 20, EpisodeConfig(seed=7))
    res = run_episode(s.clone(), store, EpisodeConfig(seed=7), learning=False)
    lines = format_trace(res).splitlines()
    assert len(lines) == len(res.steps)
    pattern = re.compile(
        r"^step (\d+): ([a-z]+-[a-z]+-[a-z]+)\((\S+), (\S+)\) "
        r"resource (\S+)->(\S+) totTard (\S+)->(\S+)$"
    )
    for number, (line, rec) in enumerate(zip(lines, res.steps), start=1):
        m = pattern.match(line)
        assert m, line
        assert int(m.group(1)) == number
        assert m.group(2) == rec.operator.kind.value
        assert m.group(5) == rec.source_resource
        assert m.group(6) == rec.operator.target_resource
        assert float(m.group(7)) == pytest.approx(rec.tardiness_before, rel=1e-5)


def test_trace_dict_shape():
    s = disrupted_instance(seed=7)
    res = run_episode(s, QStore(), EpisodeConfig(seed=7), learning=False)
    d = trace_dict(res)
    assert d["outcome"] == res.outcome.value
    assert d["init_tardiness"] == res.final_state.init_tardiness
    assert len(d["steps"]) == len(res.steps)
    if d["steps"]:
        first = d["steps"][0]
        assert set(first) == {
            "step",
            "kind",
            "focal",
            "aux",
            "source_resource",
            "target_resource",
            "tardiness_before",
            "tardiness_after",
            "reward",
            "proposal_count",
        }


def test_learned_policy_repairs_connected_instance():
    # end-to-end shape: train on one disruption, greedy run reaches the goal
    # in a handful of steps
    disrupted = disrupted_instance(seed=7)
    assert disrupted.total_tardiness > disrupted.init_tardiness
    store = QStore()
    train(disrupted, store, 20, EpisodeConfig(seed=7))
    res = run_episode(disrupted.clone(), store, EpisodeConfig(seed=7), learning=False)
    assert res.outcome is Outcome.GOAL_REACHED
    assert 1 <= len(res.steps) <= 10


def test_run_episode_and_train_leave_their_input_alone():
    s = disrupted_instance(seed=1)
    snapshot = copy.deepcopy(s)
    store = QStore()
    for learning in (True, False):
        res = run_episode(s, store, EpisodeConfig(seed=3), learning=learning)
        assert res.steps
        assert s == snapshot
    train(s, store, 5, EpisodeConfig(seed=3))
    assert s == snapshot


def test_stepping_back_takes_the_same_trajectories(monkeypatch):
    # a step back, or round any longer loop, to a state that training has
    # re-entered takes its successor from that state's memo, with no apply;
    # twenty training episodes and a greedy run with the trained store must
    # take the plain loop's steps, learn its floats and end on its chains
    plants = [disrupted_instance(seed) for seed in range(10)]
    plants.append(
        inject_disruption(generate_instance(InstanceSpec(seed=5, task_count=40, resource_count=5)))
    )
    calls = counting_calls(monkeypatch, (episode, "apply"))
    hits = 0
    for seed, s in enumerate(plants):
        cfg = EpisodeConfig(seed=seed)
        store, oracle_store = QStore(), QStore()
        calls.clear()
        results = train(s, store, 20, cfg)
        hits += sum(len(r.steps) for r in results) - calls["apply"]
        expected, _ = training_oracle(s, oracle_store, 20, cfg)
        results.append(run_episode(s, store, cfg, learning=False))
        expected.append(greedy_oracle(s, oracle_store, cfg)[0])
        assert [trace_dict(r) for r in results] == [trace_dict(r) for r in expected]
        assert store.entries == oracle_store.entries
        for a, b in zip(results, expected, strict=True):
            assert chains(a.final_state) == chains(b.final_state)
            assert_fully_elaborated(a.final_state)
    assert hits > 1000


def test_undo_steps_neither_apply_nor_propose(monkeypatch):
    # seed 6 trains into two-state loops: most steps step back, so the
    # memo and the table must leave apply and propose fewer calls than steps
    calls = counting_calls(monkeypatch, (episode, "apply"), (episode, "propose"))
    results = train(disrupted_instance(seed=6), QStore(), 20, EpisodeConfig(seed=6))
    steps = sum(len(r.steps) for r in results)
    assert calls["apply"] < steps
    assert calls["propose"] < steps


def counting_calls(monkeypatch, *targets):
    """Patch each ``(owner, name)`` in ``targets`` to count its calls under
    ``name``; returns the counter."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


def started_plant():
    """A 200x10 plant whose chain heads have started."""
    plant = generate_instance(InstanceSpec(seed=1, task_count=200, resource_count=10))
    plant.arrival_h = 1.0
    return plant


def plants_40x5():
    """(disrupted, seed) of ten 40x5 plants."""
    for seed in range(100, 110):
        spec = InstanceSpec(seed=seed, task_count=40, resource_count=5)
        yield inject_disruption(generate_instance(spec)), seed


def greedy_cases():
    """(start, store, seed) of greedy repairs: 15x3 plants after twenty
    training episodes, 40x5 plants with an empty store, fresh orders on a
    trained 200x10 plant whose chain heads have started, and ``random_state``
    plants after ten training episodes, each from the state training started
    at and from one a random step away."""
    for seed in range(30):
        disrupted = disrupted_instance(seed)
        store = QStore()
        train(disrupted, store, 20, EpisodeConfig(seed=seed))
        yield disrupted, store, seed
    for disrupted, seed in plants_40x5():
        yield disrupted, QStore(), seed
    plant = started_plant()
    store = QStore()
    train(inject_disruption(plant), store, 20, EpisodeConfig(seed=1))
    for order in range(12):
        yield inject_disruption(sample_disruption(plant, Random(order))), store, order
    rng = Random(331)
    made = 0
    while made < 40:
        raw = random_state(rng, max_resources=4, max_tasks=12)
        if not raw.tasks:
            continue
        raw.focal_task = rng.choice(sorted(raw.tasks))
        start = elaborate(raw)
        proposals = propose(start)
        if not proposals or goal_reached(start):
            continue
        store, seed = QStore(), rng.randrange(1000)
        train(start, store, 10, EpisodeConfig(max_steps=20, seed=seed))
        made += 1
        yield start, store, seed
        yield apply(start, rng.choice(proposals)), store, seed


def first_repeat(visited):
    """(step of the first revisit, its period), or None for a path with no revisit."""
    first = {}
    for n, chains in enumerate(visited):
        seen = first.setdefault(repr(chains), n)
        if seen < n:
            return n, n - seen
    return None


def test_greedy_repairs_match_the_plain_loop(monkeypatch):
    # a greedy run finds a repeated state in its table of visited states
    # and skips the rest of the cycle; a plain propose, select, apply loop
    # must take the same steps to the same end, with the limit on whole
    # periods and inside one. Every step the run decides calls reward once,
    # with an empty store too, where no step calls select
    calls = counting_calls(monkeypatch, (episode, "reward"))
    periods = Counter()
    for start, store, seed in greedy_cases():
        for max_steps in (7, 50, 51):
            cfg = EpisodeConfig(max_steps=max_steps, seed=seed)
            calls.clear()
            rng = Random(seed)
            res = run_episode(start, store, cfg, learning=False, rng=rng)
            oracle, visited = greedy_oracle(start, store, cfg)
            assert trace_dict(res) == trace_dict(oracle)
            assert [r.task_chain for r in res.final_state.resources] == visited[-1]
            assert_fully_elaborated(res.final_state)
            assert rng.getstate() == Random(seed).getstate()
            skipped = calls["reward"] < len(res.steps)
            repeat = first_repeat(visited)
            if repeat is None:
                assert not skipped
            else:
                # every cycle is caught at its first revisit, before a step
                # is decided on it, and skipped iff a whole period fits the limit
                n, period = repeat
                assert skipped == (max_steps - n >= period)
                periods[period] += skipped
    assert periods[2] > 0
    assert any(period > 2 for period in periods)


def test_greedy_repairs_leave_a_callers_generator_alone():
    # one caller's generator is passed to several repairs in a row, each
    # ending on the step limit inside a loop; a greedy pick draws nothing,
    # so the generator keeps its state and the steps are those of a run
    # given no generator
    disrupted = disrupted_instance(seed=6)
    store = QStore()
    train(disrupted, store, 20, EpisodeConfig(seed=6))
    rng = Random(11)
    untouched = rng.getstate()
    for max_steps in (7, 50, 51, 8):
        cfg = EpisodeConfig(max_steps=max_steps)
        res = run_episode(disrupted, store, cfg, learning=False, rng=rng)
        plain = run_episode(disrupted, store, cfg, learning=False)
        assert len(res.steps) == max_steps
        assert trace_dict(res) == trace_dict(plain)
        assert rng.getstate() == untouched


def test_greedy_loops_are_not_re_decided(monkeypatch):
    # seed 6's greedy repair falls into a two-state loop early and runs to
    # the step limit: select must run on the steps before the loop, not on
    # every step of it
    disrupted = disrupted_instance(seed=6)
    store = QStore()
    train(disrupted, store, 20, EpisodeConfig(seed=6))
    calls = counting_calls(monkeypatch, (episode, "select"))
    res = run_episode(disrupted, store, EpisodeConfig(seed=6), learning=False)
    assert res.outcome is Outcome.STEP_LIMIT
    assert calls["select"] < len(res.steps) / 2


def empty_store_cases():
    """(start, seed) of greedy repairs on an empty store: greedy_cases()'s
    40x5 plants and three fresh orders on the untrained 200x10 plant."""
    yield from plants_40x5()
    plant = started_plant()
    for order in range(3):
        yield inject_disruption(sample_disruption(plant, Random(order))), order


def test_greedy_repairs_on_an_empty_store_take_the_first_proposal(monkeypatch):
    # an empty frozen store reads 0 for every key, so a greedy run takes
    # the first proposal with no select, no signature and no key; the plain
    # loop, which selects and keys every step, must take the same steps
    calls = counting_calls(
        monkeypatch, (episode, "signature"), (episode, "select"), (rl, "qkey")
    )
    stepped = 0
    for start, seed in empty_store_cases():
        for max_steps in (7, 50, 51):
            cfg = EpisodeConfig(max_steps=max_steps, seed=seed)
            store = QStore()
            calls.clear()
            res = run_episode(start, store, cfg, learning=False)
            assert not calls
            oracle, visited = greedy_oracle(start, store, cfg)
            assert calls["qkey"] == len(oracle.steps)
            assert trace_dict(res) == trace_dict(oracle)
            assert chains(res.final_state) == visited[-1]
            assert store.entries == {}
            stepped += bool(res.steps)
    assert stepped > 20


class ReadingStore(QStore):
    """A store that records each value its ``q`` reads."""

    def __init__(self):
        super().__init__()
        self.read = []

    def q(self, key):
        value = super().q(key)
        self.read.append(value)
        return value


def test_a_greedy_pick_selects_only_where_a_key_holds_the_state_s_total(monkeypatch):
    # a key can match a state only at the state's quantized total. One entry
    # under seed 0's signature, at a total no state here reaches: the store
    # is not empty, yet no step calls select. Strangers at each state's own
    # quantized total but with another task count: every decided step calls
    # select and every key it looks up reads 0. Both runs take the steps of
    # the plain loop and of an empty store's run
    other = disrupted_instance(seed=0)
    unrelated = qkey(other, propose(other)[0], signature(other))
    calls = counting_calls(monkeypatch, (episode, "select"), (episode, "reward"))
    selected = 0
    for start, seed in empty_store_cases():
        cfg = EpisodeConfig(seed=seed)
        empty = run_episode(start, QStore(), cfg, learning=False)
        totals = {quantize(step.tardiness_before) for step in empty.steps}
        assert unrelated.sig.total_tardiness not in totals
        store = QStore()
        store.entries[unrelated] = 1.0
        calls.clear()
        res = run_episode(start, store, cfg, learning=False)
        assert calls["select"] == 0
        assert trace_dict(res) == trace_dict(greedy_oracle(start, store, cfg)[0])
        assert trace_dict(res) == trace_dict(empty)
        assert store.entries == {unrelated: 1.0}

        strangers = ReadingStore()
        for total in totals:
            sig = unrelated.sig._replace(total_tardiness=total, task_number=start.task_number + 1)
            strangers.entries[unrelated._replace(sig=sig)] = 1.0
        snapshot = dict(strangers.entries)
        calls.clear()
        res = run_episode(start, strangers, cfg, learning=False)
        assert calls["select"] == calls["reward"]
        assert len(strangers.read) >= calls["select"] and not any(strangers.read)
        selected += calls["select"]
        assert trace_dict(res) == trace_dict(greedy_oracle(start, strangers, cfg)[0])
        assert trace_dict(res) == trace_dict(empty)
        assert strangers.entries == snapshot
    assert selected > 30


def poisoned_table(start):
    """A table whose bucket at ``start``'s floats holds only a stranger:
    other chains, no proposals, no signature, first visited at step 0, no
    successor map."""
    stranger = [chain[::-1] for chain in chains(start)]
    assert stranger != chains(start)
    floats = (start.total_tardiness, start.total_wip, start.max_tardiness)
    return {floats: [[stranger, [], None, 0, None]]}


def test_equal_floats_alone_are_not_a_revisit():
    # a state's floats only pick its bucket, and only equal chains make a
    # revisit: with a stranger entered at the start's floats, greedy and
    # learning runs must still take the plain loop's steps. Nor is a state
    # an earlier greedy run entered at the step it is reached again: only
    # one first entered at a lower step count starts a cycle, so a second
    # greedy run on the same table takes the same steps
    stepped = 0
    for start, store, seed in islice(greedy_cases(), 40):
        cfg = EpisodeConfig(max_steps=20, seed=seed)
        table = poisoned_table(start)
        res = episode._run(start, store, cfg, None, table)
        oracle, _ = greedy_oracle(start, store, cfg)
        assert trace_dict(res) == trace_dict(oracle)
        assert trace_dict(episode._run(start, store, cfg, None, table)) == trace_dict(oracle)
        stepped += bool(res.steps)
    assert stepped > 20
    for disrupted, seed in islice(training_cases(), 10):
        cfg = EpisodeConfig(seed=seed)
        store, oracle_store = QStore(), QStore()
        rng, table = Random(seed), poisoned_table(disrupted)
        results = [episode._run(disrupted, store, cfg, rng, table) for _ in range(3)]
        expected, oracle_rng = training_oracle(disrupted, oracle_store, 3, cfg)
        assert [trace_dict(r) for r in results] == [trace_dict(r) for r in expected]
        assert store.entries == oracle_store.entries
        assert rng.getstate() == oracle_rng.getstate()


def training_cases():
    """(disrupted, seed) of training runs: 15x3 plants, 40x5 plants and a
    200x10 plant whose chain heads have started."""
    for seed in range(30):
        yield disrupted_instance(seed), seed
    yield from islice(plants_40x5(), 5)
    yield inject_disruption(started_plant()), 1


def chains(state):
    return [r.task_chain for r in state.resources]


def test_training_matches_the_plain_loop(monkeypatch):
    # train's episodes share one table of the states they visit, which
    # gives a state found there its proposals and signature, and a state
    # re-entered the successors of the operators taken from it; a plain
    # loop that proposes, signs and applies on every step must take the
    # same steps, learn the same floats and leave the generator in the
    # same state
    made = []

    class Recorded(Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(episode, "Random", Recorded)
    for disrupted, seed in training_cases():
        cfg = EpisodeConfig(seed=seed)
        store, oracle_store = QStore(), QStore()
        results = train(disrupted, store, 20, cfg)
        expected, rng = training_oracle(disrupted, oracle_store, 20, cfg)
        assert [trace_dict(r) for r in results] == [trace_dict(r) for r in expected]
        assert store.entries == oracle_store.entries
        for a, b in zip(results, expected, strict=True):
            assert chains(a.final_state) == chains(b.final_state)
        assert made[-1].getstate() == rng.getstate()


def test_a_train_call_leaves_no_table_to_the_next():
    # the second start has the first one's chains and floats but a lower
    # pre-disruption tardiness, so its states sign differently: a table
    # kept from the first call would hand it the first call's signatures
    for disrupted, seed in islice(training_cases(), 10):
        lowered = disrupted.clone()
        lowered.init_tardiness = disrupted.init_tardiness / 2
        cfg = EpisodeConfig(seed=seed)
        store, oracle_store = QStore(), QStore()
        for start in (disrupted, lowered):
            results = train(start, store, 20, cfg)
            expected, _ = training_oracle(start, oracle_store, 20, cfg)
            assert [trace_dict(r) for r in results] == [trace_dict(r) for r in expected]
            assert store.entries == oracle_store.entries


def test_train_proposes_once_per_distinct_state(monkeypatch):
    # a state reached again, in the same episode or a later one, takes
    # its proposals and its signature from the table: in train and in a
    # greedy run alike propose runs once for each distinct chain list, and
    # for every chain list the plain loop proposes for; signature runs once
    # for each distinct chain list a pick reaches, and for every chain list
    # the plain loop signs, except that a greedy run signs only the states
    # whose quantized total the store holds, so none on an empty store
    proposed, signed, totals = [], [], {}

    def recording(calls, fn):
        def wrapper(state, *args):
            calls.append(repr(chains(state)))
            totals[calls[-1]] = state.total_tardiness
            return fn(state, *args)

        return wrapper

    for owner in (episode, helpers):
        monkeypatch.setattr(owner, "propose", recording(proposed, owner.propose))
        monkeypatch.setattr(owner, "signature", recording(signed, owner.signature))

    def distinct_calls(run, oracle):
        """The state each propose and signature call of ``run`` got, each
        distinct; ``proposed`` and ``signed`` are left with ``oracle``'s,
        whose result is returned too."""
        proposed.clear()
        signed.clear()
        run()
        once, signed_once = proposed[:], signed[:]
        proposed.clear()
        signed.clear()
        assert len(once) == len(set(once)) and len(signed_once) == len(set(signed_once))
        return once, signed_once, oracle()

    saved = saved_signing = 0
    for disrupted, seed in islice(training_cases(), 35):
        cfg = EpisodeConfig(seed=seed)
        once, signed_once, _ = distinct_calls(
            lambda: train(disrupted, QStore(), 20, cfg),
            lambda: training_oracle(disrupted, QStore(), 20, cfg),
        )
        assert set(once) == set(proposed)
        assert set(signed_once) == set(signed)
        saved += len(proposed) - len(once)
        saved_signing += len(signed) - len(signed_once)
    assert saved > 1000 and saved_signing > 1000
    stepped_back = unsigned = some_held = some_unheld = 0
    for start, store, seed in greedy_cases():
        cfg = EpisodeConfig(seed=seed)
        once, signed_once, (_, visited) = distinct_calls(
            lambda: run_episode(start, store, cfg, learning=False),
            lambda: greedy_oracle(start, store, cfg),
        )
        assert set(once) == set(proposed)
        held = {c for c in signed if quantize(totals[c]) in store.known_totals}
        assert set(signed_once) == held
        if store.entries:
            some_held += bool(held)
            some_unheld += len(held) < len(set(signed))
        else:
            unsigned += bool(signed)
        stepped_back += any(visited[k] == visited[k + 2] for k in range(len(visited) - 2))
    assert stepped_back > 10 and unsigned > 5 and some_held > 80 and some_unheld > 15


def test_every_pick_goes_through_the_seam_with_its_state_s_entry(monkeypatch):
    # episode._pick alone chooses a step's operator: a stub that records
    # each call and delegates to it must see the table entry of the state
    # being decided, one call a step in a learning run and at most one a
    # step in a greedy run, and leave the steps as an unpatched run takes
    # them; a pick signs its state into the entry unless it is greedy on a
    # store that does not hold the state's quantized total (an empty store
    # holds none)
    cases = [*islice(training_cases(), 10), *islice(plants_40x5(), 3)]
    table, picks = {}, []

    def runs(disrupted, seed):
        cfg = EpisodeConfig(seed=seed)
        store, rng = QStore(), Random(seed)
        table.clear()
        trained = [episode._run(disrupted, store, cfg, rng, table) for _ in range(20)]
        greedy = []
        for greedy_store in (store, QStore()):
            table.clear()
            greedy.append(episode._run(disrupted, greedy_store, cfg, None, table))
        return trained, greedy

    unpatched = [runs(*case) for case in cases]
    pick = episode._pick

    def recording(store, state, known, rng):
        assert known[0] == chains(state)
        assert entry(table, state) is known
        picks.append(rng is None)
        chosen = pick(store, state, known, rng)
        assert chosen[0] in known[1]
        unheld = quantize(state.total_tardiness) not in store.known_totals
        assert (known[2] is None) == (rng is None and unheld)
        return chosen

    monkeypatch.setattr(episode, "_pick", recording)
    skipped = 0
    for case, (trained0, greedy0) in zip(cases, unpatched):
        picks.clear()
        trained, greedy = runs(*case)
        assert [trace_dict(r) for r in trained] == [trace_dict(r) for r in trained0]
        assert [trace_dict(r) for r in greedy] == [trace_dict(r) for r in greedy0]
        assert picks.count(False) == sum(len(r.steps) for r in trained)
        greedy_steps = sum(len(r.steps) for r in greedy)
        assert picks.count(True) <= greedy_steps
        skipped += greedy_steps - picks.count(True)
    assert skipped > 0


def entry(table, state):
    """``state``'s entry in an episode table, or None."""
    floats = (state.total_tardiness, state.total_wip, state.max_tardiness)
    return next((e for e in table.get(floats, ()) if e[0] == chains(state)), None)


def test_train_applies_each_transition_at_most_twice(monkeypatch):
    # a state keeps a successor map from the first time training re-enters
    # it, and a state visited once keeps none: a transition is applied on
    # the state's first visit and once more into the map, and never once
    # the map holds its operator; the steps and the store are the plain
    # loop's. A greedy run re-enters a state only to skip its cycle, so it
    # makes no map and keeps no state alive
    table = {}
    applied, visits = Counter(), Counter()

    def recording(fn):
        def wrapper(state, op):
            known = entry(table, state)
            assert known is not None and (known[4] is None or op not in known[4])
            applied[repr(chains(state)), op] += 1
            return fn(state, op)

        return wrapper

    def counting_visits(fn):
        def wrapper(table, state, *args):
            visits[repr(chains(state))] += 1
            return fn(table, state, *args)

        return wrapper

    monkeypatch.setattr(episode, "apply", recording(episode.apply))
    monkeypatch.setattr(episode, "_visit", counting_visits(episode._visit))
    twice = saved = 0
    trained = []
    for seed in range(30):
        disrupted = disrupted_instance(seed)
        cfg = EpisodeConfig(seed=seed)
        store, oracle_store = QStore(), QStore()
        table.clear()
        applied.clear()
        visits.clear()
        rng = Random(cfg.seed)
        results = [episode._run(disrupted, store, cfg, rng, table) for _ in range(20)]
        expected, oracle_rng = training_oracle(disrupted, oracle_store, 20, cfg)
        assert [trace_dict(r) for r in results] == [trace_dict(r) for r in expected]
        assert store.entries == oracle_store.entries
        assert rng.getstate() == oracle_rng.getstate()
        assert max(applied.values(), default=0) <= 2
        for bucket in table.values():
            for known, _, _, _, succ in bucket:
                assert (succ is not None) == (visits[repr(known)] > 1)
        twice += sum(n == 2 for n in applied.values())
        saved += sum(len(r.steps) for r in results) - sum(applied.values())
        trained.append((disrupted, store, cfg))
    assert twice > 0
    assert saved > 1000

    monkeypatch.undo()
    tables = []
    run = episode._run

    def recording_run(state, store, cfg, rng, table):
        tables.append(table)
        return run(state, store, cfg, rng, table)

    monkeypatch.setattr(episode, "_run", recording_run)
    looped = 0
    for disrupted, store, cfg in trained:
        for greedy_store in (store, QStore()):
            tables.clear()
            res = run_episode(disrupted, greedy_store, cfg, learning=False)
            (greedy_table,) = tables
            entries = [e for bucket in greedy_table.values() for e in bucket]
            assert all(e[4] is None for e in entries)
            looped += len(res.steps) > len(entries)  # some state was re-entered
    assert looped > 10
