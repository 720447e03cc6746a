import gc
import math
import weakref
from fractions import Fraction
from itertools import islice
from random import Random

import pytest

from reskit.episode import EpisodeConfig, train
from reskit.errors import (
    CorruptQStoreError,
    EmptyProposalSet,
    InvalidConfig,
    QStoreVersionError,
)
from reskit.instances import InstanceSpec, generate_instance, inject_disruption
from reskit.operators import apply, propose
from reskit.rl import (
    GOAL_BONUS,
    TRACE_FLOOR,
    Hyperparams,
    QKey,
    QStore,
    goal_reached,
    load_qstore,
    qkey,
    reward,
    save_qstore,
    select,
)
from reskit.schedule import Resource, ScheduleState, Task, elaborate
from reskit.stategraph import StateSignature, signature

from helpers import DictQStore, random_state, sarsa_two_pass, traces_by_key


def state_with_total(total: float, init: float) -> ScheduleState:
    # single task at rate 1, due 0: total tardiness equals the quantity
    t = Task(id="t1", name="Task1", product="A", quantity=total, due_date=0.0)
    s = elaborate(
        ScheduleState(
            resources=[Resource(id="r1", rates={"A": 1.0}, task_chain=["t1"])],
            tasks={"t1": t},
        )
    )
    s.init_tardiness = init
    return s


def test_reward_tardiness_deltas():
    assert reward(state_with_total(40.0, 28.5), state_with_total(44.0, 28.5)) == -4.0
    # landing exactly on the initial tardiness earns the terminal bonus
    assert reward(state_with_total(44.0, 28.5), state_with_total(28.5, 28.5)) == 15.5 + GOAL_BONUS
    assert reward(state_with_total(5.0, 0.0), state_with_total(5.0, 0.0)) == 0.0


def test_goal_predicate_admits_equality():
    assert goal_reached(state_with_total(28.5, 28.5))
    assert not goal_reached(state_with_total(28.500001, 28.5))
    assert goal_reached(state_with_total(10.0, 28.5))


def sig(total=40.0, focal="Task5"):
    return StateSignature(
        total_wip=46.83,
        task_number=16,
        max_tardiness=15.0,
        avg_tardiness=2.5,
        total_tardiness=total,
        init_tardiness=28.5,
        focal_task=focal,
    )


def test_bump_trace_replacing():
    store = QStore()
    k = QKey(sig(), "up-right-jump", "Task10")
    store.bump_trace(k)
    assert traces_by_key(store) == {k: 1.0}
    assert store.entries[k] == 0.0
    store.sarsa_update(k, 0.0, None)
    assert traces_by_key(store)[k] == pytest.approx(0.9 * 0.1)  # one gamma*lambda decay
    store.bump_trace(k)
    assert traces_by_key(store) == {k: 1.0}  # replaced, not accumulated


def test_sarsa_single_terminal_step():
    store = QStore(Hyperparams(alpha=0.1, gamma=0.9, lam=0.1, epsilon=0.1))
    k = QKey(sig(), "up-right-jump", "Task10")
    store.bump_trace(k)
    store.sarsa_update(k, 1.0, None)
    assert store.entries[k] == pytest.approx(0.1, abs=1e-15)


def test_sarsa_lambda_zero_touches_only_current_key():
    store = QStore(Hyperparams(alpha=0.5, gamma=0.9, lam=0.0, epsilon=0.0))
    k1 = QKey(sig(40.0), "up-right-jump", "Task10")
    k2 = QKey(sig(44.0), "down-right-jump", "Task16")
    store.bump_trace(k1)
    store.sarsa_update(k1, -4.0, k2)
    q1_after_first = store.entries[k1]
    store.bump_trace(k2)
    store.sarsa_update(k2, 15.5, None)
    assert store.entries[k1] == q1_after_first  # lambda 0: no lingering credit
    assert store.entries[k2] == pytest.approx(0.5 * 15.5)


def fraction_sarsa_transcript():
    """Independent replay of the two-step update with exact arithmetic."""
    alpha, gamma, lam = Fraction(1, 10), Fraction(9, 10), Fraction(1, 10)
    q = {}
    e = {}
    # step 1: visit k1, reward -4, bootstrap on k2 (unvisited, 0)
    e["k1"] = Fraction(1)
    delta = Fraction(-4) + gamma * q.get("k2", Fraction(0)) - q.get("k1", Fraction(0))
    for k in e:
        q[k] = q.get(k, Fraction(0)) + alpha * delta * e[k]
    e = {k: v * gamma * lam for k, v in e.items()}
    # step 2: visit k2, reward +15.5, terminal
    e["k2"] = Fraction(1)
    delta = Fraction(31, 2) + Fraction(0) - q.get("k2", Fraction(0))
    for k in e:
        q[k] = q.get(k, Fraction(0)) + alpha * delta * e[k]
    return q


def test_sarsa_two_step_golden_transcript():
    oracle = fraction_sarsa_transcript()
    assert oracle["k1"] == Fraction(-521, 2000)  # -0.2605
    assert oracle["k2"] == Fraction(31, 20)  # 1.55

    store = QStore(Hyperparams(alpha=0.1, gamma=0.9, lam=0.1, epsilon=0.1))
    k1 = QKey(sig(40.0), "up-right-jump", "Task3")
    k2 = QKey(sig(44.0), "down-right-jump", "Task16b")
    store.bump_trace(k1)
    store.sarsa_update(k1, -4.0, k2)
    store.bump_trace(k2)
    store.sarsa_update(k2, 15.5, None)
    assert store.entries[k1] == pytest.approx(float(oracle["k1"]), abs=1e-12)
    assert store.entries[k2] == pytest.approx(float(oracle["k2"]), abs=1e-12)
    assert store.entries[k1] == pytest.approx(-0.2605, abs=1e-12)
    assert store.entries[k2] == pytest.approx(1.55, abs=1e-12)


def test_traces_stay_in_unit_interval():
    rng = Random(47)
    store = QStore(Hyperparams(alpha=0.2, gamma=0.9, lam=0.8, epsilon=0.1))
    keys = [QKey(sig(float(i)), "up-right-jump", f"Task{i}") for i in range(6)]
    for _ in range(300):
        k = rng.choice(keys)
        store.bump_trace(k)
        store.sarsa_update(k, rng.uniform(-5, 5), rng.choice(keys + [None]))
        assert all(0.0 <= v <= 1.0 for v in store.traces.values())
    store.clear_traces()
    assert store.traces == {}


def test_sarsa_update_matches_two_pass_oracle():
    rng = Random(67)
    keys = [QKey(sig(float(i)), "up-right-jump", f"Task{j}") for i in range(4) for j in range(3)]
    near_floor = {True: 0, False: 0}  # decayed traces next to the floor: kept, dropped
    for _ in range(400):
        hyper = Hyperparams(
            alpha=rng.random(), gamma=rng.uniform(0.05, 1), lam=rng.uniform(0.05, 1), epsilon=0.1
        )
        decay = hyper.gamma * hyper.lam
        store = QStore(hyper)
        for k in rng.sample(keys, rng.randint(0, len(keys))):
            store.entries[k] = rng.uniform(-3, 3)
        for k in rng.sample(keys, rng.randint(0, len(keys))):
            e = rng.random()
            if rng.random() < 0.5:
                # A trace whose decayed value lands within a few ulps of the floor.
                e = TRACE_FLOOR / decay
                for _ in range(rng.randint(0, 3)):
                    e = math.nextafter(e, rng.choice([0.0, 1.0]))
                near_floor[e * decay > TRACE_FLOOR] += 1
            store.traces[store.entries.slot(k)] = e
        key = rng.choice(keys)
        if rng.random() < 0.8:
            store.bump_trace(key)
        oracle = DictQStore(hyper)
        oracle.entries, oracle.traces = dict(store.entries), traces_by_key(store)
        args = (key, rng.uniform(-5, 5), rng.choice([*keys, None]))
        store.sarsa_update(*args)
        sarsa_two_pass(oracle, *args)
        for got, want in ((store.entries, oracle.entries), (traces_by_key(store), oracle.traces)):
            assert [(k, v.hex()) for k, v in got.items()] == [
                (k, v.hex()) for k, v in want.items()
            ]
    assert near_floor[True] > 20 and near_floor[False] > 20


def test_slot_store_matches_the_dict_store(tmp_path):
    # One random sequence of bumps, updates (with a next key and at an
    # episode's end), trace clears, assignments, traces given to keys with
    # no entry and save/load round trips, driven on the slot store and on
    # the dict store alike: both must hold the same items in the same order,
    # with the same bits, and save the same bytes.
    rng = Random(73)
    hyper = Hyperparams(alpha=0.3, gamma=0.9, lam=0.5, epsilon=0.1)
    store, oracle = QStore(hyper), DictQStore(hyper)
    keys: list[QKey] = []

    def new_key():
        n = len(keys)
        keys.append(QKey(sig(float(n % 7), f"Task{n % 5}"), "up-right-jump", f"Task{n}"))
        return keys[-1]

    def some_key():
        return new_key() if not keys or rng.random() < 0.1 else rng.choice(keys)

    def items(mapping):
        return [(k, v.hex()) for k, v in mapping.items()]

    done = dict.fromkeys(["bump", "update", "end", "clear", "assign", "trace", "reload"], 0)
    for _ in range(2000):
        op = rng.choices(list(done), weights=[30, 30, 5, 4, 10, 8, 2])[0]
        done[op] += 1
        if op == "bump":
            key = some_key()
            store.bump_trace(key)
            oracle.bump_trace(key)
        elif op in ("update", "end"):
            args = (some_key(), rng.uniform(-5, 5), some_key() if op == "update" else None)
            store.sarsa_update(*args)
            oracle.sarsa_update(*args)
        elif op == "clear":
            store.clear_traces()
            oracle.clear_traces()
        elif op == "assign":
            key, value = some_key(), rng.uniform(-3, 3)
            store.entries[key] = value
            oracle.entries[key] = value
        elif op == "trace":
            key, e = new_key(), rng.random()
            store.traces[store.entries.slot(key)] = e
            oracle.traces[key] = e
            # A trace is set by slot, and taking a slot gives the key its
            # entry; the dict store gave it one at the next update. In a run
            # a trace comes only from a bump, which makes the entry itself.
            oracle.entries[key] = 0.0
        else:
            saved = [tmp_path / "slots.tsv", tmp_path / "dicts.tsv"]
            assert save_qstore(store, saved[0]) == save_qstore(oracle, saved[1])
            assert saved[0].read_bytes() == saved[1].read_bytes()
            store = load_qstore(saved[0])
            oracle = DictQStore(hyper)
            oracle.entries = dict(load_qstore(saved[1]).entries)
        assert items(store.entries) == items(oracle.entries)
        assert items(traces_by_key(store)) == items(oracle.traces)
        assert len(store.entries) == len(oracle.entries)
        assert len(store.traces) == len(oracle.traces)
    assert min(done.values()) >= 20, done
    assert len(store.entries) > 100


def test_a_dropped_store_is_freed_at_once():
    # The table and the trace dict hold nothing of the store: a store in a
    # reference cycle would wait for the cycle collector, so a run that makes
    # one store per plant would hold every store it dropped until then.
    k1, k2 = QKey(sig(1.0), "up-right-jump", "Task1"), QKey(sig(2.0), "up-right-jump", "Task2")
    store = QStore()
    store.bump_trace(k1)
    store.sarsa_update(k1, 1.0, k2)
    store.entries[k2] = 0.5
    entries, traces = store.entries, store.traces
    dropped = weakref.ref(store)
    gc.disable()
    try:
        del store
        assert dropped() is None
    finally:
        gc.enable()
    assert dict(entries) == {k1: 0.1, k2: 0.5} and traces == {entries.slot(k1): 0.9 * 0.1}


def test_the_table_and_the_traces_cannot_be_rebound():
    # ``q`` reads the table's value list and ``sarsa_update`` walks the trace
    # dict in place, so a rebound attribute would split the store in two.
    # So would a rebound index of totals: ``select`` reads it for every pick.
    store = QStore()
    store.bump_trace(QKey(sig(), "up-right-jump", "Task10"))
    assert store.entries is store.entries and store.traces is store.traces
    assert store.known_totals is store.known_totals
    assert type(store.traces) is dict
    for name in ("entries", "traces", "known_totals"):
        with pytest.raises(AttributeError):
            setattr(store, name, {})
    assert dict(store.entries) == {QKey(sig(), "up-right-jump", "Task10"): 0.0}
    assert store.traces == {1: 1.0}
    assert store.known_totals == {40.0}


def test_known_totals_index_every_key_s_total(tmp_path):
    # the index is the set of its keys' totals after each way a key enters:
    # training, an assignment, a trace bump and a load
    def assert_indexed(store):
        assert store.known_totals == {k.sig.total_tardiness for k in store.entries}

    empty = QStore()
    assert_indexed(empty)
    assert empty.known_totals == set()
    for seed in (3, 7, 8):
        spec = InstanceSpec(seed=seed, task_count=15, resource_count=3)
        store = QStore()
        train(inject_disruption(generate_instance(spec)), store, 20, EpisodeConfig(seed=seed))
        assert_indexed(store)
        assert store.entries
        before = set(store.known_totals)
        store.entries[QKey(sig(total=-1.25), "up-right-jump", "Task10")] = 1.0
        assert_indexed(store)
        store.bump_trace(QKey(sig(total=1e6), "same-left-jump", "Task3"))
        assert_indexed(store)
        assert store.known_totals == before | {-1.25, 1e6}
        path = tmp_path / f"store{seed}.txt"
        save_qstore(store, path)
        loaded = load_qstore(path)
        assert_indexed(loaded)
        assert loaded.known_totals == store.known_totals


def selection_state():
    resources = [
        Resource(id="r1", rates={"A": 10.0}, release_time=4.0, task_chain=["a1", "a2"]),
        Resource(id="r2", rates={"A": 10.0}, task_chain=["f"]),
        Resource(id="r3", rates={"A": 10.0}, release_time=6.0, task_chain=["c1"]),
    ]
    tasks = {
        "a1": Task(id="a1", name="TaskA1", product="A", quantity=10.0, due_date=30.0),
        "a2": Task(id="a2", name="TaskA2", product="A", quantity=10.0, due_date=30.0),
        "f": Task(id="f", name="TaskF", product="A", quantity=10.0, due_date=30.0),
        "c1": Task(id="c1", name="TaskC1", product="A", quantity=10.0, due_date=30.0),
    }
    return elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))


def test_select_pure_argmax():
    s = selection_state()
    proposals = propose(s)
    sig = signature(s)
    assert len(proposals) >= 3
    store = QStore(Hyperparams(epsilon=0.0))
    store.entries[qkey(s, proposals[1], sig)] = 0.2
    store.entries[qkey(s, proposals[0], sig)] = -0.1
    rng = Random(1)
    for _ in range(100):
        assert select(store, s, proposals, rng, sig) == (proposals[1], qkey(s, proposals[1], sig))


def test_select_zero_ties_break_to_first():
    s = selection_state()
    proposals = propose(s)
    sig = signature(s)
    store = QStore(Hyperparams(epsilon=0.0))
    assert select(store, s, proposals, Random(2), sig) == (proposals[0], qkey(s, proposals[0], sig))


def test_select_uniform_when_fully_exploring():
    s = selection_state()
    proposals = propose(s)
    sig = signature(s)
    n = len(proposals)
    store = QStore(Hyperparams(epsilon=1.0))
    rng = Random(3)
    counts = {i: 0 for i in range(n)}
    draws = 10_000
    for _ in range(draws):
        op, key = select(store, s, proposals, rng, sig)
        assert key == qkey(s, op, sig)
        counts[proposals.index(op)] += 1
    expected = draws / n
    sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


def test_select_without_a_generator_is_greedy_and_refuses_empty():
    s = selection_state()
    proposals = propose(s)
    sig = signature(s)
    store = QStore(Hyperparams(epsilon=1.0))
    store.entries[qkey(s, proposals[2], sig)] = 5.0
    # no generator: greedy despite the stored epsilon of 1
    for _ in range(20):
        assert select(store, s, proposals, None, sig) == (proposals[2], qkey(s, proposals[2], sig))
    with pytest.raises(EmptyProposalSet):
        select(store, s, [], Random(5), sig)
    with pytest.raises(EmptyProposalSet):
        select(store, s, [], None, sig)


def test_uniform_shift_leaves_argmax_unchanged():
    s = selection_state()
    proposals = propose(s)
    sig = signature(s)
    rng = Random(6)
    for trial in range(20):
        store = QStore(Hyperparams(epsilon=0.0))
        for op in proposals:
            store.entries[qkey(s, op, sig)] = rng.uniform(-2, 2)
        baseline = select(store, s, proposals, Random(7), sig)
        shift = rng.uniform(-10, 10)
        for k in store.entries:
            store.entries[k] += shift
        assert select(store, s, proposals, Random(7), sig) == baseline


class CountingStore(QStore):
    """A store that counts its ``q`` lookups."""

    lookups = 0

    def q(self, key):
        self.lookups += 1
        return super().q(key)


def selection_cases():
    """(state, proposals) on disrupted random plants, up to three steps in."""
    rng = Random(53)
    for seed in range(12):
        spec = InstanceSpec(
            seed=seed, resource_count=rng.randint(2, 5), task_count=rng.randint(6, 25)
        )
        s = inject_disruption(generate_instance(spec))
        for _ in range(4):
            proposals = propose(s)
            if not proposals:
                break
            yield s, proposals
            s = apply(s, rng.choice(proposals))


def test_greedy_select_matches_first_maximum_oracle():
    rng = Random(59)
    draws = {
        "empty": None,
        "ties": lambda: rng.choice([-0.5, 0.0, 0.5]),
        "negative": lambda: -rng.random(),
        "uniform": lambda: rng.uniform(-2, 2),
    }
    cases = tied = 0
    for state, proposals in selection_cases():
        sig = signature(state)
        keys = [qkey(state, op, sig) for op in proposals]
        for kind, draw in draws.items():
            store = CountingStore(Hyperparams(epsilon=1.0))
            if draw is not None:
                for key in keys:
                    if rng.random() < 0.8:
                        store.entries[key] = draw()
                # A key of another signature: it must not count for this state.
                other = keys[0].sig._replace(task_number=keys[0].sig.task_number + 1)
                store.entries[QKey(other, keys[0].op_name, keys[0].op_aux)] = 99.0
            values = [store.q(qkey(state, op, sig)) for op in proposals]
            best = values.index(max(values))
            tied += values.count(max(values)) > 1 and best > 0
            store.lookups = 0
            op, key = select(store, state, proposals, None, sig)
            # a key can match only at the state's total: where the store holds
            # none there, select takes the first proposal with no lookup
            held = sig.total_tardiness in store.known_totals
            assert store.lookups == (len(proposals) if held else 0)
            assert op is proposals[best]
            assert key == keys[best] and type(key) is QKey
            cases += 1
    assert cases > 100 and tied > 10


def test_greedy_select_on_an_empty_store_keeps_the_first_proposal():
    # a greedy run on an empty store takes proposals[0] without calling
    # select; that holds only while an all-zero greedy pick keeps the first
    rng = Random(61)
    picked = 0
    for _ in range(300):
        raw = random_state(rng, max_resources=4, max_tasks=12)
        if not raw.tasks:
            continue
        raw.focal_task = rng.choice(sorted(raw.tasks))
        s = elaborate(raw)
        proposals = propose(s)
        if not proposals:
            continue
        sig = signature(s)
        op, key = select(QStore(), s, proposals, None, sig)
        assert op is proposals[0]
        assert key == qkey(s, proposals[0], sig)
        picked += len(proposals) > 1
    assert picked > 100


def test_select_draws_the_same_random_numbers():
    """A call draws one ``random()``; an exploratory call then draws one
    ``randrange`` over the proposal count, and returns that proposal."""
    for state, proposals in islice(selection_cases(), 10):
        sig = signature(state)
        store = QStore(Hyperparams(epsilon=0.5))
        store.entries[qkey(state, proposals[-1], sig)] = 1.0
        rng, replay = Random(61), Random(61)
        for _ in range(50):
            op, key = select(store, state, proposals, rng, sig)
            if replay.random() < 0.5:
                expected = proposals[replay.randrange(len(proposals))]
            else:
                expected = proposals[-1]
            assert op is expected
            assert key == qkey(state, expected, sig) and type(key) is QKey
            assert rng.getstate() == replay.getstate()


def test_a_learning_pick_draws_the_same_whether_or_not_the_store_holds_the_total():
    # the greedy shortcut comes after the epsilon draw: a store that lacks
    # the state's total and the same store with a stranger at that total
    # leave the generator in the same state and give the same pick and key;
    # only an exploiting pick on the second store looks its keys up
    explored = exploited = 0
    for state, proposals in islice(selection_cases(), 20):
        sig = signature(state)
        aux = state.tasks[proposals[0].aux].name
        for seed in range(10):
            greedy = Random(seed).random() >= 0.3
            store = CountingStore(Hyperparams(epsilon=0.3))
            store.entries[QKey(sig._replace(total_tardiness=-1.0), "up-right-jump", aux)] = 1.0
            assert sig.total_tardiness not in store.known_totals
            rng = Random(seed)
            unheld = select(store, state, proposals, rng, sig)
            after = rng.getstate()
            assert store.lookups == 0
            stranger = sig._replace(task_number=sig.task_number + 1)
            store.entries[QKey(stranger, "up-right-jump", aux)] = 1.0
            assert sig.total_tardiness in store.known_totals
            rng = Random(seed)
            held = select(store, state, proposals, rng, sig)
            assert rng.getstate() == after
            assert held[0] is unheld[0] and held[1] == unheld[1]
            assert store.lookups == (len(proposals) if greedy else 0)
            exploited += greedy
            explored += not greedy
    assert explored > 20 and exploited > 100


def test_hyperparams_range_check():
    with pytest.raises(InvalidConfig):
        Hyperparams(alpha=1.5)
    with pytest.raises(InvalidConfig):
        Hyperparams(epsilon=-0.1)


def test_qstore_roundtrip_empty(tmp_path):
    path = tmp_path / "q.txt"
    store = QStore(Hyperparams(alpha=0.2, gamma=0.8, lam=0.3, epsilon=0.05))
    assert save_qstore(store, path) == 0
    loaded = load_qstore(path)
    assert loaded.entries == {}
    assert loaded.hyper == store.hyper


def test_qstore_roundtrip_many_entries(tmp_path):
    path = tmp_path / "q.txt"
    store = QStore()
    rng = Random(53)
    for i in range(2520):
        k = QKey(sig(float(i % 97), focal=f"Task{i % 17}"), "up-right-jump", f"Task{i}")
        store.entries[k] = rng.uniform(-3, 3)
    assert save_qstore(store, path) == 2520
    loaded = load_qstore(path)
    assert len(loaded.entries) == 2520
    assert loaded.entries == store.entries  # full-precision values survive


@pytest.mark.parametrize("seed, tasks, resources", [(3, 15, 3), (7, 15, 3), (8, 15, 3), (19, 200, 10)])
def test_trained_store_resaves_byte_for_byte(tmp_path, seed, tasks, resources):
    spec = InstanceSpec(seed=seed, task_count=tasks, resource_count=resources)
    store = QStore()
    train(inject_disruption(generate_instance(spec)), store, 20, EpisodeConfig(seed=seed))
    assert store.entries
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_qstore(store, first)
    loaded = load_qstore(first)
    assert loaded.entries == store.entries and loaded.hyper == store.hyper
    save_qstore(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_keys_are_values_built_by_position_or_keyword(tmp_path):
    fields = (46.83, 16, 15.0, 2.5, 40.0, 28.5, "Task5")
    by_position = StateSignature(*fields)
    assert by_position == sig() and hash(by_position) == hash(sig())
    assert StateSignature._fields == (
        "total_wip",
        "task_number",
        "max_tardiness",
        "avg_tardiness",
        "total_tardiness",
        "init_tardiness",
        "focal_task",
    )
    k = QKey(by_position, "up-right-jump", "Task10")
    by_keyword = QKey(sig=sig(), op_name="up-right-jump", op_aux="Task10")
    assert k == by_keyword and hash(k) == hash(by_keyword)
    assert QKey._fields == ("sig", "op_name", "op_aux")
    assert k != QKey(sig(41.0), "up-right-jump", "Task10")
    store = QStore()
    store.entries[k] = 0.5
    assert store.q(by_keyword) == 0.5
    store.entries[QKey(sig(41.0), "down-left-swap", "Task9")] = -1.25
    path = tmp_path / "q.txt"
    save_qstore(store, path)
    assert load_qstore(path).entries == store.entries


def test_qstore_hand_edited_value(tmp_path):
    path = tmp_path / "q.txt"
    store = QStore()
    k = QKey(sig(), "up-right-jump", "Task10")
    store.entries[k] = -0.25
    save_qstore(store, path)
    text = path.read_text(encoding="utf-8").replace("-0.25", "-0.1498")
    path.write_text(text, encoding="utf-8")
    assert load_qstore(path).entries[k] == -0.1498


def test_qstore_version_mismatch(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("v2 alpha=0.1 gamma=0.9 lambda=0.1 epsilon=0.1\n", encoding="utf-8")
    with pytest.raises(QStoreVersionError):
        load_qstore(path)


def test_qstore_corrupt_files(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("what is this\n", encoding="utf-8")
    with pytest.raises(CorruptQStoreError):
        load_qstore(bad_header)
    bad_record = tmp_path / "b.txt"
    bad_record.write_text(
        "v1 alpha=0.1 gamma=0.9 lambda=0.1 epsilon=0.1\nnot\tenough\tfields\n",
        encoding="utf-8",
    )
    with pytest.raises(CorruptQStoreError):
        load_qstore(bad_record)
    empty = tmp_path / "c.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CorruptQStoreError):
        load_qstore(empty)


def test_qstore_loads_only_the_header_and_line_ends_it_saves(tmp_path):
    path = tmp_path / "q.txt"
    store = QStore(Hyperparams(alpha=1, gamma=0, lam=0.25, epsilon=0.5))
    store.entries[QKey(sig(), "up-right-jump", "Task10")] = -0.25
    save_qstore(store, path)
    saved = path.read_text(encoding="utf-8")
    assert saved.startswith("v1 alpha=1.0 gamma=0.0 lambda=0.25 epsilon=0.5\n")
    loaded = load_qstore(path)
    assert (loaded.hyper, loaded.entries) == (store.hyper, store.entries)
    header, rest = saved.split("\n", 1)
    for text in [
        header.replace("alpha=1.0", "alpha=1") + "\n" + rest,
        header.replace("lambda=0.25", "lambda=+0.25") + "\n" + rest,
        header.replace("epsilon=0.5", "epsilon=5e-1") + "\n" + rest,
        header.replace(" gamma", "  gamma") + "\n" + rest,
        saved.replace("\n", "\r\n"),
        saved.replace("\n", "\r\n", 1),
        saved[:-1],
        saved + "\n",
    ]:
        path.write_bytes(text.encode())
        with pytest.raises(CorruptQStoreError):
            load_qstore(path)


def test_signature_quantization_survives_roundtrip(tmp_path):
    # stored at 2 decimals; a key built from a quantized signature must come
    # back exactly equal
    path = tmp_path / "q.txt"
    store = QStore()
    messy = StateSignature(
        total_wip=46.83,
        task_number=16,
        max_tardiness=15.0,
        avg_tardiness=2.5,
        total_tardiness=40.0,
        init_tardiness=28.5,
        focal_task="Task5",
    )
    k = QKey(messy, "down-left-swap", "Task7")
    store.entries[k] = 1.0 / 3.0
    save_qstore(store, path)
    loaded = load_qstore(path)
    assert loaded.entries == {k: 1.0 / 3.0}
