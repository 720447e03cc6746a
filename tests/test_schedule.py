import copy
import dataclasses
import gc
import math
import sys
from random import Random

import pytest

from reskit.errors import BrokenChain, UnprocessableProduct
from reskit.episode import EpisodeConfig, run_episode
from reskit.instances import (
    Instance,
    InstanceSpec,
    generate_instance,
    inject_disruption,
    load_instance,
    sample_disruption,
    save_instance,
)
from reskit.rl import Hyperparams, QStore
from reskit.schedule import (
    Resource,
    ScheduleState,
    Task,
    _copy_resource,
    _copy_state,
    _copy_task,
    _splice,
    elaborate,
    validate,
)

from helpers import (
    PRODUCTS,
    assert_disrupted,
    assert_prefixes_shared,
    derived,
    finishes,
    first_changed_slot,
    frozen,
    naive_aggregates,
    naive_timing,
    random_state,
    two_task_state,
)

TOL = 1e-9


def test_two_task_chain_timing():
    s = elaborate(two_task_state())
    r = s.resources[0]
    oracle = naive_timing(two_task_state())
    assert (r.starts, r.end) == ([0.0, 2.0], 5.0)
    assert (r.run_tardiness, r.run_max_tardiness, r.run_wip) == ([1.0, 1.0], [1.0, 1.0], [2.0, 5.0])
    assert s.total_tardiness == 1.0
    timing = derived(s)
    assert (timing["t1"].duration, timing["t2"].duration) == (2.0, 3.0)
    for tid in ("t1", "t2"):
        assert timing[tid].start == pytest.approx(oracle[tid]["start"], abs=TOL)
        assert timing[tid].finish == pytest.approx(oracle[tid]["finish"], abs=TOL)


def test_empty_schedule_zeroes():
    s = elaborate(ScheduleState(resources=[Resource(id="r1", rates={"A": 1.0})]))
    assert s.total_tardiness == 0.0
    assert s.max_tardiness == 0.0
    assert s.avg_tardiness == 0.0
    assert s.total_wip == 0.0
    assert s.task_number == 0


def test_avg_tardiness_identity():
    # 16 unit tasks at rate 1: finishes 1..16; dues chosen so the last eight
    # are 5 h late each -> total 40, avg 40/16 = 2.5.
    tasks = {}
    chain = []
    for k in range(1, 17):
        due = float(k) if k <= 8 else float(k) - 5.0
        tasks[f"t{k}"] = Task(id=f"t{k}", name=f"Task{k}", product="A", quantity=1.0, due_date=due)
        chain.append(f"t{k}")
    s = elaborate(
        ScheduleState(resources=[Resource(id="r1", rates={"A": 1.0}, task_chain=chain)], tasks=tasks)
    )
    assert s.total_tardiness == pytest.approx(40.0, abs=TOL)
    assert s.task_number == 16
    assert s.avg_tardiness == pytest.approx(2.5, abs=TOL)
    assert abs(s.avg_tardiness * s.task_number - s.total_tardiness) < TOL
    # both are read off ``tasks``, so they follow an inserted order and a splice
    disrupted = inject_disruption(Instance(s, order(id="t17", due=0.0)))
    spliced = _splice(disrupted, {0: (["t17", *chain], 0)}, 0)
    for out in (disrupted, spliced):
        assert out.task_number == len(out.tasks) == 17
        assert out.avg_tardiness == out.total_tardiness / 17
    assert spliced.total_tardiness != disrupted.total_tardiness
    for attr in ("task_number", "avg_tardiness"):
        with pytest.raises(AttributeError):
            setattr(spliced, attr, 0)


def test_slot_tardiness_formula():
    # a slot is max(0, finish - due) late: 5 h against due 4 h, 3 h against
    # 10 h and 7 h against 7 h, each the only task at 1 kg/h
    for quantity, due, late in ((5.0, 4.0, 1.0), (3.0, 10.0, 0.0), (7.0, 7.0, 0.0)):
        t = Task(id="t", name="t", product="A", quantity=quantity, due_date=due)
        r = Resource(id="r1", rates={"A": 1.0}, task_chain=["t"])
        s = elaborate(ScheduleState(resources=[r], tasks={"t": t}))
        r = s.resources[0]
        assert r.end == quantity
        assert r.run_tardiness == r.run_max_tardiness == [late]
        assert s.total_tardiness == s.max_tardiness == late


def test_elaborate_idempotent():
    rng = Random(11)
    for _ in range(50):
        s1 = elaborate(random_state(rng))
        s2 = elaborate(s1)
        assert s1 == s2


def test_elaborate_unprocessable_product():
    r = Resource(id="r1", rates={"B": 5.0}, task_chain=["t1"])
    t = Task(id="t1", name="Task1", product="A", quantity=10.0, due_date=1.0)
    with pytest.raises(UnprocessableProduct):
        elaborate(ScheduleState(resources=[r], tasks={"t1": t}))


def test_elaborate_broken_chain_variants():
    t = Task(id="t1", name="Task1", product="A", quantity=10.0, due_date=1.0)
    # duplicate assignment
    dup = ScheduleState(
        resources=[
            Resource(id="r1", rates={"A": 5.0}, task_chain=["t1"]),
            Resource(id="r2", rates={"A": 5.0}, task_chain=["t1"]),
        ],
        tasks={"t1": t},
    )
    with pytest.raises(BrokenChain):
        elaborate(dup)
    # chain references a task that does not exist
    ghost = ScheduleState(
        resources=[Resource(id="r1", rates={"A": 5.0}, task_chain=["t1", "tX"])],
        tasks={"t1": t},
    )
    with pytest.raises(BrokenChain):
        elaborate(ghost)
    # task in no chain
    orphan = ScheduleState(resources=[Resource(id="r1", rates={"A": 5.0})], tasks={"t1": t})
    with pytest.raises(BrokenChain):
        elaborate(orphan)


def order(id="t9", product="A", quantity=10.0, due=50.0):
    return Task(id=id, name="Order9", product=product, quantity=quantity, due_date=due)


def test_insert_order_into_empty_resource():
    # the arrival is after the release, but the order is no started head
    base = elaborate(
        ScheduleState(resources=[Resource(id="r1", rates={"A": 10.0}, release_time=1.5)])
    )
    s = inject_disruption(Instance(base, order(), arrival_h=2.0))
    assert s.resources[0].task_chain == ["t9"]
    assert s.focal_task == "t9" and s.focal_index == 0
    assert s.resources[0].starts == [1.5]
    assert not s.tasks["t9"].executing
    assert s.init_tardiness == 0.0


def test_insert_order_at_end_keeps_upstream_timing():
    base = elaborate(two_task_state())
    before = naive_timing(base)
    s = inject_disruption(Instance(base, order()))
    assert s.resources[0].task_chain == ["t1", "t2", "t9"]
    timing = derived(s)
    for tid in ("t1", "t2"):
        assert timing[tid].start == pytest.approx(before[tid]["start"], abs=TOL)
        assert timing[tid].finish == pytest.approx(before[tid]["finish"], abs=TOL)
    assert s.init_tardiness == 1.0  # the pre-insertion total


def test_insert_order_snapshot_then_rise():
    # the pre-insertion total stays recorded while the post-insertion total grows
    s = inject_disruption(Instance(elaborate(two_task_state()), order(due=0.0)))
    assert s.init_tardiness == 1.0
    assert s.total_tardiness > s.init_tardiness


def test_elaborate_shares_nothing_with_its_input():
    # inject_disruption flags tasks of elaborate's result as executing, and
    # callers archive states, so a result may not alias any part of its input
    base = elaborate(two_task_state())
    snapshot = copy.deepcopy(base)
    out = elaborate(base)
    for t in out.tasks.values():
        t.executing = True
        t.start = -1.0
    for r in out.resources:
        r.rates["Z"] = 1.0
        r.task_chain.reverse()
        for values in (r.starts, r.run_tardiness, r.run_max_tardiness, r.run_wip):
            values.append(-1.0)
        r.end = -1.0
    assert base == snapshot


def test_splice_takes_any_edit_with_its_first_changed_slots():
    # ``_splice`` reads no focal: two tasks other than the focal move to
    # random capable slots, on states with no focal or another task as
    # focal, and each changed chain comes with its first changed slot; a
    # rule taking the slot from the focal's positions would miss many
    rng = Random(25)
    spliced = focal_rule_misses = 0
    for _ in range(300):
        raw = random_state(rng, max_resources=4, max_tasks=12)
        if len(raw.tasks) < 3:
            continue
        raw.focal_task = rng.choice([None, *sorted(raw.tasks)])
        base = frozen(elaborate(raw))  # re-timing a shared task would raise
        snapshot = copy.deepcopy(base)
        chains = [list(r.task_chain) for r in base.resources]
        movers = rng.sample(sorted(set(base.tasks) - {base.focal_task}), 2)
        for tid in movers:
            for chain in chains:
                if tid in chain:
                    chain.remove(tid)
            product = base.tasks[tid].product
            to = rng.choice([c for c, r in zip(chains, base.resources) if product in r.rates])
            to.insert(rng.randint(0, len(to)), tid)
        edits = {
            i: (chain, first_changed_slot(r.task_chain, chain))
            for i, (r, chain) in enumerate(zip(base.resources, chains))
            if chain != r.task_chain
        }
        out = _splice(base, edits, base.focal_index)
        assert assert_prefixes_shared(base, out) == len(edits)
        assert out.focal_task == base.focal_task
        assert base == snapshot
        spliced += bool(edits)
        focal = base.focal_task
        for i, (chain, first) in edits.items():
            old = base.resources[i].task_chain
            focal_rule_misses += first != min(
                old.index(focal) if focal in old else len(old),
                chain.index(focal) if focal in chain else len(chain),
            )
    assert spliced > 200 and focal_rule_misses > 200


def test_insert_order_equals_full_elaboration_and_leaves_input_alone():
    # random states, some with an executing head that anchors its chain, at
    # arrivals before and after chain heads start
    rng = Random(13)
    checked = refused = 0
    for _ in range(100):
        raw = random_state(rng)
        for r in raw.resources:
            if r.task_chain and rng.random() < 0.3:
                head = raw.tasks[r.task_chain[0]]
                head.executing, head.start = True, round(rng.uniform(0.0, 5.0), 1)
        # the input's tasks refuse writes, so re-timing a shared task raises
        base = frozen(elaborate(raw))
        the_order = order(
            product=rng.choice(PRODUCTS),
            quantity=round(rng.uniform(1.0, 60.0), 1),
            due=round(rng.uniform(0.0, 30.0), 2),
        )
        snapshot, order_snapshot = copy.deepcopy(base), copy.deepcopy(the_order)
        for arrival in (0.0, *(round(rng.uniform(0.0, 8.0), 1) for _ in range(4))):
            inst = Instance(base, the_order, arrival)
            if not any(the_order.product in r.rates for r in base.resources):
                with pytest.raises(UnprocessableProduct):
                    inject_disruption(inst)
                refused += 1
                continue
            out = inject_disruption(inst)
            assert_disrupted(inst, out)
            assert out.tasks[the_order.id] is not the_order
            checked += 1
        assert base == snapshot
        assert the_order == order_snapshot
    assert checked > 400 and refused > 0


def test_insert_order_errors():
    base = elaborate(two_task_state())
    with pytest.raises(UnprocessableProduct, match="no resource can process Z"):
        inject_disruption(Instance(base, order(product="Z")))
    with pytest.raises(ValueError, match="task id t1 already present"):
        inject_disruption(Instance(base, order(id="t1")))


def test_validate_clean_state():
    assert validate(elaborate(two_task_state())) == []


def test_validate_duplicate_assignment():
    s = elaborate(two_task_state())
    s.resources.append(Resource(id="r2", rates={"A": 10.0}, task_chain=["t1"]))
    codes = {v.code for v in validate(s)}
    assert "DuplicateAssignment" in codes


def test_validate_unassigned_task():
    s = elaborate(two_task_state())
    s.tasks["t9"] = order()
    assert any(v.code == "UnassignedTask" and v.subject == "t9" for v in validate(s))


def split_state() -> ScheduleState:
    """``two_task_state`` with T2 moved to a second resource, elaborated."""
    s = two_task_state()
    s.resources.append(Resource(id="r2", rates={"A": 10.0}, task_chain=["t2"]))
    s.resources[0].task_chain.remove("t2")
    return elaborate(s)


def test_validate_flags_a_stale_focal_index():
    s = split_state()
    s.focal_task = "t2"
    s = elaborate(s)
    assert s.focal_index == 1 and s.resources[s.focal_index].task_chain == ["t2"]
    for stale_index in (0, None, 2):
        stale = s.clone()
        stale.focal_index = stale_index
        assert [(v.code, v.subject) for v in validate(stale)] == [("StaleFocalIndex", "t2")]


def test_validate_flags_stale_starts():
    s = split_state()
    assert [r.starts for r in s.resources] == [[0.0], [0.0]]
    for starts in ([0.5], [], [0.0, 2.0], [math.nan]):
        stale = s.clone()
        stale.resources[0].starts = starts
        hits = [(v.code, v.subject, v.detail.split()[0]) for v in validate(stale)]
        assert hits == [("StaleTiming", "r1", "starts")]


def test_validate_flags_a_stale_running_partial():
    s = split_state()
    # t1 finishes at 2 h, due 1 h; t2 on r2 finishes at 3 h, due 10 h
    assert [
        (r.end, r.run_tardiness, r.run_max_tardiness, r.run_wip) for r in s.resources
    ] == [(2.0, [1.0], [1.0], [2.0]), (3.0, [0.0], [0.0], [3.0])]
    for i, attr, value in [
        (0, "run_tardiness", [0.0]),
        (1, "run_max_tardiness", [1.0]),
        (1, "run_wip", [3.0 + 1e-6]),
        (0, "end", 2.0 + 1e-6),
    ]:
        stale = s.clone()
        setattr(stale.resources[i], attr, value)
        hits = [(v.code, v.subject, v.detail.split()[0]) for v in validate(stale)]
        assert hits == [("StaleTiming", s.resources[i].id, attr)]
    within = s.clone()
    within.resources[0].run_wip = [2.0 + 1e-12]  # inside AGG_TOL, as for the other sums
    assert validate(within) == []


def test_focal_index_is_derived_by_elaboration():
    raw = split_state()
    assert raw.focal_index is None  # no focal
    raw.focal_task = "t2"
    assert raw.focal_index is None  # not elaborated since
    assert elaborate(raw).focal_index == 1
    raw.focal_task = "t1"
    assert elaborate(raw).focal_index == 0
    raw.focal_task = "t9"  # no such task: validate flags it, and there is no index
    assert elaborate(raw).focal_index is None


def test_validate_flags_a_moved_executing_task():
    # a step never writes a task, so an executing task that moved shows only
    # in the chains and their arrays; validate flags both ways it can
    raw = two_task_state()
    raw.tasks["t1"].executing, raw.tasks["t1"].start = True, 0.5
    s = elaborate(raw)
    assert s.resources[0].starts == [0.5, 2.5] and validate(s) == []
    # off its chain's head, arrays and all
    behind = s.clone()
    behind.resources[0].task_chain.reverse()
    assert [(v.code, v.subject) for v in validate(behind)] == [("ExecutingNotHead", "t1")]
    # still the head, but its chain timed as if it had not started: the
    # derived start (release 0) differs from the recorded one (0.5 h)
    restarted = s.clone()
    unfrozen = two_task_state()
    restarted.resources = elaborate(unfrozen).resources
    assert restarted.resources[0].starts[0] == 0.0 != restarted.tasks["t1"].start
    hits = [(v.code, v.subject, v.detail.split()[0]) for v in validate(restarted)]
    assert ("StaleTiming", "r1", "starts") in hits


def test_validate_flags_each_stale_derived_field():
    aggregates = [
        ("totTard", "total_tardiness"),
        ("maxTard", "max_tardiness"),
        ("totalWIP", "total_wip"),
    ]
    rng = Random(43)
    for _ in range(200):
        raw = random_state(rng)
        raw.focal_task = rng.choice(sorted(raw.tasks)) if raw.tasks else None
        s = elaborate(raw)
        assert validate(s) == []
        if s.tasks:
            i = rng.choice([i for i, r in enumerate(s.resources) if r.task_chain])
            attr = rng.choice(["starts", "end", "run_tardiness", "run_wip"])
            stale = s.clone()
            if attr == "end":
                stale.resources[i].end += 0.5
            else:
                values = getattr(stale.resources[i], attr)
                values[rng.randrange(len(values))] += 0.5
            assert any(v.subject == s.resources[i].id and attr in v.detail for v in validate(stale))
            stale = s.clone()
            stale.focal_index = rng.choice([None, len(s.resources)])
            assert [(v.code, v.subject) for v in validate(stale)] == [
                ("StaleFocalIndex", s.focal_task)
            ]
        subject, attr = rng.choice(aggregates)
        stale = s.clone()
        setattr(stale, attr, getattr(stale, attr) + 1)
        assert [(v.code, v.subject) for v in validate(stale)] == [("StaleAggregate", subject)]


def test_validate_accepts_an_overflowed_total():
    # both tasks finish near 1e308 h, so the tardiness sum overflows to inf
    s = two_task_state()
    s.resources[0].release_time = 1e308
    s = elaborate(s)
    assert s.total_tardiness == math.inf
    assert validate(s) == []


def test_validate_flags_a_nan_release_as_a_domain_violation():
    # a NaN release passes a ``< 0`` check, and re-elaborating cannot make
    # the timings it yields fresh, so it must be reported as itself
    s = generate_instance(InstanceSpec(seed=0, task_count=15, resource_count=3)).state
    s.resources[0].release_time = math.nan
    assert [(v.code, v.subject) for v in validate(s)] == [
        ("NegativeRelease", s.resources[0].id)
    ]


def test_aggregates_match_bruteforce_oracle():
    rng = Random(7)
    for _ in range(300):
        raw = random_state(rng)
        s = elaborate(raw)
        expect = naive_aggregates(raw)
        assert s.total_tardiness == pytest.approx(expect["total_tardiness"], abs=TOL)
        assert s.max_tardiness == pytest.approx(expect["max_tardiness"], abs=TOL)
        assert s.avg_tardiness == pytest.approx(expect["avg_tardiness"], abs=TOL)
        assert s.total_wip == pytest.approx(expect["total_wip"], abs=TOL)
        assert s.task_number == expect["task_number"]
        assert validate(s) == []


def test_three_way_tardiness_agreement():
    rng = Random(13)
    for _ in range(200):
        s = elaborate(random_state(rng))
        by_resource = sum(
            sum(max(0.0, f - s.tasks[tid].due_date) for tid, f in zip(r.task_chain, finishes(r)))
            for r in s.resources
        )
        timing = derived(s)
        by_task = sum(max(0.0, timing[tid].finish - t.due_date) for tid, t in s.tasks.items())
        assert abs(s.total_tardiness - by_resource) < TOL
        assert abs(s.total_tardiness - by_task) < TOL


def test_chain_timing_exact():
    rng = Random(17)
    for _ in range(200):
        s = elaborate(random_state(rng))
        timing = naive_timing(s)
        for r in s.resources:
            assert len(r.starts) == len(r.task_chain)
            assert finishes(r) == [timing[tid]["finish"] for tid in r.task_chain]


def test_quantity_monotonicity():
    rng = Random(19)
    for _ in range(200):
        raw = random_state(rng)
        if not raw.tasks:
            continue
        s = elaborate(raw)
        victim = rng.choice(sorted(raw.tasks))
        bumped = raw.clone()
        bumped.tasks[victim].quantity *= 1.0 + rng.uniform(0.01, 1.0)
        s2 = elaborate(bumped)
        assert s2.total_tardiness >= s.total_tardiness - TOL


def test_executing_head_keeps_start():
    raw = two_task_state()
    raw.tasks["t1"].executing = True
    raw.tasks["t1"].start = 0.75
    s = elaborate(raw)
    assert (s.resources[0].starts, s.resources[0].end) == ([0.75, 2.75], 5.75)
    assert s.tasks["t1"].start == 0.75
    assert elaborate(s) == s


def _defaults(cls: type) -> dict:
    return {
        f.name: f.default if f.default is not dataclasses.MISSING else f.default_factory()
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    }


@pytest.mark.parametrize(
    "copy_of, obj",
    [
        (_copy_task, Task("t1", "Task1", "B", 40.0, 7.5, True, 1.0)),
        (
            _copy_resource,
            Resource("r1", "mixer", {"A": 10.0}, ["t1"], 0.5, [0.5], 4.5, [1.0], [0.5], [4.0]),
        ),
        (
            _copy_state,
            ScheduleState(
                [Resource("r1")], {"t1": Task("t1", "Task1", "A", 1.0, 2.0)},
                "t1", 1.0, 2.0, 1.5, 3.0, 0,
            ),
        ),
    ],
    ids=["task", "resource", "state"],
)
def test_copier_keeps_every_field(copy_of, obj):
    # every field that has a default is set to something else, so a field
    # the copier dropped would come back at its default and fail the ==
    for name, default in _defaults(type(obj)).items():
        assert getattr(obj, name) != default, name
    out = copy_of(obj)
    assert out == obj
    assert out is not obj
    assert type(out) is type(obj)


def test_retime_keeps_every_input_field():
    # a Task holds inputs alone, each listed here and, where it has a
    # default, set to something else; elaborate copies every task with all
    # of them, and a splice re-times from the slot it is given, here the
    # head, onto arrays of its resource, writing no task and sharing them all
    inputs = dict(
        id="t1", name="Task1", product="B", quantity=40.0, due_date=7.5, executing=True, start=1.25
    )
    assert set(inputs) == {f.name for f in dataclasses.fields(Task)}
    for name, default in _defaults(Task).items():
        assert inputs[name] != default, name
    raw = ScheduleState(
        resources=[Resource("r1", rates={"B": 10.0}, task_chain=["t1"])],
        tasks={"t1": Task(**inputs)},
        focal_task="t1",
    )
    s = elaborate(frozen(raw))
    spliced = _splice(s, {0: (["t1"], 0)}, 0)
    for out in (s, spliced):
        t = out.tasks["t1"]
        assert type(t) is Task and t is not raw.tasks["t1"]
        assert {name: getattr(t, name) for name in inputs} == inputs
        r = out.resources[0]
        assert (r.starts, r.end) == ([1.25], 5.25)  # an executing head keeps its start
    assert spliced.tasks is s.tasks
    assert spliced.resources[0] is not s.resources[0]


def test_copier_turns_a_frozen_task_into_a_plain_one():
    src = frozen(elaborate(two_task_state())).tasks["t1"]
    out = _copy_task(src)
    assert type(src) is not Task and type(out) is Task
    assert dataclasses.astuple(out) == dataclasses.astuple(src)
    out.executing = True  # a FrozenTask would refuse this write


def _has_attribute_dict(obj: object) -> bool:
    # Since CPython 3.11 an instance keeps its attributes inline until
    # something asks for its __dict__; only then does a dict appear among
    # its referents. No Task field holds a dict.
    return any(type(ref) is dict for ref in gc.get_referents(obj))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="attributes are inline from 3.11 on")
def test_repairs_build_no_attribute_dict_on_any_task(tmp_path):
    # a built dict slows every later read and write of the task, and the
    # loaded plant's tasks are shared by every state a repair builds
    path = tmp_path / "plant.json"
    save_instance(generate_instance(InstanceSpec(resource_count=5, task_count=40, seed=4)), path)
    loaded = load_instance(path)
    store, cfg = QStore(Hyperparams()), EpisodeConfig()
    for i in range(10):
        start = inject_disruption(sample_disruption(loaded, Random(i)))
        final = run_episode(start, store, cfg, learning=False).final_state
    assert final is not start
    with_dict = [
        tid for s in (loaded.state, final) for tid, t in s.tasks.items() if _has_attribute_dict(t)
    ]
    assert with_dict == []
    # the check sees a dict once one is built
    probe = final.tasks[final.focal_task]
    vars(probe)
    assert _has_attribute_dict(probe)
