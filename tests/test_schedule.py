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
    task_tardiness,
    validate,
)

from helpers import (
    PRODUCTS,
    assert_disrupted,
    assert_prefixes_shared,
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
    t1, t2 = s.tasks["t1"], s.tasks["t2"]
    oracle = naive_timing(two_task_state())
    assert (t1.duration, t2.duration) == (2.0, 3.0)
    assert (t1.start, t2.start) == (0.0, 2.0)
    assert (t1.finish, t2.finish) == (2.0, 5.0)
    assert task_tardiness(t1) == 1.0
    assert task_tardiness(t2) == 0.0
    assert s.total_tardiness == 1.0
    for tid in ("t1", "t2"):
        assert s.tasks[tid].start == pytest.approx(oracle[tid]["start"], abs=TOL)
        assert s.tasks[tid].finish == pytest.approx(oracle[tid]["finish"], abs=TOL)


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
    spliced = _splice(disrupted, {0: (["t17", *chain], 0)})
    for out in (disrupted, spliced):
        assert out.task_number == len(out.tasks) == 17
        assert out.avg_tardiness == out.total_tardiness / 17
    assert spliced.total_tardiness != disrupted.total_tardiness
    for attr in ("task_number", "avg_tardiness"):
        with pytest.raises(AttributeError):
            setattr(spliced, attr, 0)


def test_task_tardiness_formula():
    t = Task(id="t", name="t", product="A", quantity=1.0, due_date=4.0, finish=5.0)
    assert task_tardiness(t) == 1.0
    t.due_date, t.finish = 10.0, 3.0
    assert task_tardiness(t) == 0.0
    t.due_date = t.finish = 7.0
    assert task_tardiness(t) == 0.0


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
    assert s.focal_task == "t9"
    assert s.tasks["t9"].start == 1.5
    assert not s.tasks["t9"].executing
    assert s.init_tardiness == 0.0


def test_insert_order_at_end_keeps_upstream_timing():
    base = elaborate(two_task_state())
    before = naive_timing(base)
    s = inject_disruption(Instance(base, order()))
    assert s.resources[0].task_chain == ["t1", "t2", "t9"]
    for tid in ("t1", "t2"):
        assert s.tasks[tid].start == pytest.approx(before[tid]["start"], abs=TOL)
        assert s.tasks[tid].finish == pytest.approx(before[tid]["finish"], abs=TOL)
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
        out = _splice(base, edits)
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


def test_validate_flags_a_stale_resource_index():
    s = split_state()
    assert [s.tasks[tid].resource_index for tid in ("t1", "t2")] == [0, 1]
    assert s.resource_of("t2") is s.resources[1]
    for stale_index in (0, None, 2):
        stale = s.clone()
        stale.tasks["t2"].resource_index = stale_index
        assert [(v.code, v.subject) for v in validate(stale)] == [("StaleResourceIndex", "t2")]


def test_validate_flags_stale_starts():
    s = split_state()
    assert [r.starts for r in s.resources] == [[0.0], [0.0]]
    for starts in ([0.5], [], [0.0, 2.0], [math.nan]):
        stale = s.clone()
        stale.resources[0].starts = starts
        assert [(v.code, v.subject) for v in validate(stale)] == [("StaleStarts", "r1")]


def test_validate_flags_a_stale_running_partial():
    s = split_state()
    # t1 finishes at 2 h, due 1 h; t2 on r2 finishes at 3 h, due 10 h
    assert [
        (t.run_tardiness, t.run_max_tardiness, t.run_wip) for t in s.tasks.values()
    ] == [(1.0, 1.0, 2.0), (0.0, 0.0, 3.0)]
    for tid, attr, value in [
        ("t1", "run_tardiness", 0.0),
        ("t2", "run_max_tardiness", 1.0),
        ("t2", "run_wip", 3.0 + 1e-6),
    ]:
        stale = s.clone()
        setattr(stale.tasks[tid], attr, value)
        hits = [(v.code, v.subject, v.detail.split()[0]) for v in validate(stale)]
        assert hits == [("StaleTiming", tid, attr)]
    within = s.clone()
    within.tasks["t1"].run_wip += 1e-12  # inside AGG_TOL, as for the other sums
    assert validate(within) == []


def test_resource_of_fails_on_a_task_never_elaborated():
    raw = two_task_state()
    with pytest.raises(TypeError):
        raw.resource_of("t1")
    with pytest.raises(KeyError):
        elaborate(raw).resource_of("t9")


def test_validate_flags_each_stale_derived_field():
    aggregates = [
        ("totTard", "total_tardiness"),
        ("maxTard", "max_tardiness"),
        ("totalWIP", "total_wip"),
    ]
    rng = Random(43)
    for _ in range(200):
        s = elaborate(random_state(rng))
        assert validate(s) == []
        if s.tasks:
            tid = rng.choice(sorted(s.tasks))
            attr = rng.choice(["duration", "start", "finish"])
            stale = s.clone()
            setattr(stale.tasks[tid], attr, getattr(stale.tasks[tid], attr) + 0.5)
            assert any(v.subject == tid and attr in v.detail for v in validate(stale))
            stale = s.clone()
            stale.tasks[tid].resource_index = rng.choice([None, len(s.resources)])
            assert [(v.code, v.subject) for v in validate(stale)] == [
                ("StaleResourceIndex", tid)
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
            sum(task_tardiness(s.tasks[tid]) for tid in r.task_chain) for r in s.resources
        )
        by_task = sum(task_tardiness(t) for t in s.tasks.values())
        assert abs(s.total_tardiness - by_resource) < TOL
        assert abs(s.total_tardiness - by_task) < TOL


def test_chain_timing_exact():
    rng = Random(17)
    for _ in range(200):
        s = elaborate(random_state(rng))
        for r in s.resources:
            for a, b in zip(r.task_chain, r.task_chain[1:]):
                assert s.tasks[b].start == s.tasks[a].finish


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
    assert s.tasks["t1"].start == 0.75
    assert s.tasks["t2"].start == s.tasks["t1"].finish
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
        (_copy_task, Task("t1", "Task1", "B", 40.0, 7.5, 2.5, 1.0, 3.5, True, 2, 0.5, 0.25, 4.0)),
        (
            _copy_resource,
            Resource("r1", "mixer", {"A": 10.0}, ["t1"], 0.5, [0.5]),
        ),
        (
            _copy_state,
            ScheduleState(
                [Resource("r1")], {"t1": Task("t1", "Task1", "A", 1.0, 2.0)},
                "t1", 1.0, 2.0, 1.5, 3.0,
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


# Fields ``_retime`` computes; every other Task field is an input it must carry.
DERIVED_TASK_FIELDS = {
    "duration", "start", "finish", "resource_index",
    "run_tardiness", "run_max_tardiness", "run_wip",
}


def test_retime_keeps_every_input_field():
    # every input field is listed and, where it has a default, set to
    # something else, so a field the ``Task(...)`` call in ``_retime`` left
    # out would come back at its default; a field added later fails the
    # first assert until it is listed here
    inputs = dict(id="t1", name="Task1", product="B", quantity=40.0, due_date=7.5, executing=True)
    assert set(inputs) == {f.name for f in dataclasses.fields(Task)} - DERIVED_TASK_FIELDS
    for name, default in _defaults(Task).items():
        if name in inputs:
            assert inputs[name] != default, name
    raw = ScheduleState(
        resources=[Resource("r1", rates={"B": 10.0}, task_chain=["t1"])],
        tasks={"t1": Task(**inputs, start=1.25)},
        focal_task="t1",
    )
    s = elaborate(raw)
    # a splice re-times from the slot it is given, here the head
    spliced = _splice(s, {0: (["t1"], 0)})
    for out in (s, spliced):
        t = out.tasks["t1"]
        assert type(t) is Task and t is not raw.tasks["t1"]
        assert {name: getattr(t, name) for name in inputs} == inputs
        assert (t.start, t.finish) == (1.25, 5.25)  # an executing head keeps its start
    assert spliced.tasks["t1"] is not s.tasks["t1"]


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
