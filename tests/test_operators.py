import copy
from random import Random

import pytest

from reskit.errors import NoFocalTask, OperatorNotApplicable
from reskit import operators, schedule
from reskit.instances import (
    Instance,
    InstanceSpec,
    generate_instance,
    inject_disruption,
    sample_disruption,
)
from reskit.operators import (
    PROPOSAL_CAP,
    OperatorKind,
    RepairOperator,
    apply,
    propose,
)
from reskit.schedule import Resource, ScheduleState, Task, elaborate, validate

from helpers import (
    PRODUCTS,
    assert_fully_elaborated,
    assert_matches_oracles,
    assert_prefixes_shared,
    derived,
    first_changed_slot,
    frozen,
    holder,
    naive_holders,
    naive_timing,
    random_state,
)

TOL = 1e-9


def test_operator_kinds():
    catalog = list(OperatorKind)
    labels = [k.value for k in catalog]
    assert len(catalog) == 10
    assert "up-right-jump" in labels
    assert "down-left-swap" in labels
    assert not any(k.vertical == "same" and k.action == "swap" for k in catalog)
    # enumerated cross product: 8 cross-resource kinds + 2 same-resource jumps
    cross = [k for k in catalog if k.vertical in ("up", "down")]
    same = [k for k in catalog if k.vertical == "same"]
    assert len(cross) == 8 and len(same) == 2


def mk(tid, product, qty, due, name=None):
    return Task(id=tid, name=name or tid.upper(), product=product, quantity=qty, due_date=due)


def test_propose_no_auxiliary():
    s = elaborate(
        ScheduleState(
            resources=[Resource(id="r1", rates={"A": 10.0}, task_chain=["f"])],
            tasks={"f": mk("f", "A", 10.0, 5.0)},
            focal_task="f",
        )
    )
    assert propose(s) == []


def test_propose_requires_focal():
    s = elaborate(ScheduleState(resources=[Resource(id="r1", rates={"A": 1.0})]))
    with pytest.raises(NoFocalTask):
        propose(s)


def test_propose_up_right_jump_to_earlier_resource():
    # focal on r2; r1 holds an aux that starts later and r1 can process A
    s = elaborate(
        ScheduleState(
            resources=[
                Resource(id="r1", rates={"A": 10.0, "B": 10.0}, release_time=5.0, task_chain=["x"]),
                Resource(id="r2", rates={"A": 10.0}, task_chain=["f"]),
            ],
            tasks={"x": mk("x", "B", 10.0, 20.0), "f": mk("f", "A", 10.0, 20.0)},
            focal_task="f",
        )
    )
    ops = propose(s)
    assert RepairOperator(OperatorKind.UP_RIGHT_JUMP, "f", "x", "r1") in ops
    # r2 cannot process B, so no swap with x
    assert not any(op.kind.action == "swap" for op in ops)


def oracle_enumerate(state):
    """Independent full enumeration of valid operators plus the ranking rule."""
    focal = state.tasks[state.focal_task]
    focal_res = next(r for r in state.resources if focal.id in r.task_chain)
    fi = state.resources.index(focal_res)
    start = {tid: t.start for tid, t in derived(state).items()}
    matches = []
    if focal.executing:
        return []
    for ri, r in enumerate(state.resources):
        for tid in r.task_chain:
            aux = state.tasks[tid]
            if aux.id == focal.id or aux.executing or start[tid] == start[focal.id]:
                continue
            horiz = "right" if start[tid] > start[focal.id] else "left"
            if ri == fi:
                matches.append(("same", horiz, "jump", tid, r.id))
            else:
                vert = "up" if ri < fi else "down"
                if focal.product in r.rates:
                    matches.append((vert, horiz, "jump", tid, r.id))
                    if aux.product in focal_res.rates:
                        matches.append((vert, horiz, "swap", tid, r.id))
    ops = [
        RepairOperator(OperatorKind(f"{v}-{h}-{a}"), focal.id, tid, rid)
        for v, h, a, tid, rid in matches
    ]
    ops.sort(key=lambda op: (abs(start[op.aux] - start[focal.id]), op.aux, op.kind.value))
    return ops


def busy_state():
    """Three resources, cross-compatible products, focal mid-chain on r2."""
    resources = [
        Resource(id="r1", rates={"A": 10.0, "B": 10.0}, task_chain=["a1", "a2", "a3"]),
        Resource(id="r2", rates={"A": 10.0, "B": 10.0}, task_chain=["b1", "f", "b2"]),
        Resource(id="r3", rates={"A": 10.0, "B": 10.0}, task_chain=["c1", "c2", "c3"]),
    ]
    tasks = {}
    for tid, qty in (
        ("a1", 10.0), ("a2", 30.0), ("a3", 40.0),
        ("b1", 15.0), ("f", 20.0), ("b2", 30.0),
        ("c1", 25.0), ("c2", 20.0), ("c3", 35.0),
    ):
        tasks[tid] = mk(tid, "A" if tid[0] in "af" else "B", qty, 50.0)
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    return s


def test_propose_cap_and_ranking_against_oracle():
    s = busy_state()
    raw = oracle_enumerate(s)
    assert len(raw) == 14  # 6 cross auxes x (jump + swap) + 2 same-resource auxes
    got = propose(s)
    assert len(got) == 10
    assert got == raw[:10]


def test_propose_uncapped_matches_oracle_on_random_states():
    rng = Random(43)
    for seed in range(15):
        inst = generate_instance(InstanceSpec(seed=seed, task_count=8))
        s = inject_disruption(inst)
        assert propose(s, cap=10_000) == oracle_enumerate(s)
        assert len(propose(s)) <= 10


def test_propose_orders_equal_distances_by_id():
    # At a release time of 1e17 a 0.1 h duration vanishes in the float sum,
    # so tasks along one chain share a start; their ids run backwards, and
    # another chain holds a task at the same distance whose id sorts between.
    big = 1e17
    resources = [
        # far left of the focal: 0, 0.1 and 0.2 h all lie 1e17 + 48 h away
        Resource(id="r0", rates={"A": 10.0, "B": 10.0}, task_chain=["u3", "u2", "u1"]),
        # starts 1e17 (t9..t6) and 1e17 + 96 (t5..t3), each 48 h from f
        Resource(
            id="r1",
            rates={"A": 10.0, "B": 10.0},
            release_time=big,
            task_chain=["t9", "t8", "t7", "t6", "t5", "t4", "t3"],
        ),
        # f, then s2 and s1 at one start 96 h to the right
        Resource(
            id="r2",
            rates={"A": 10.0, "B": 10.0},
            release_time=big + 48,
            task_chain=["f", "s2", "s1"],
        ),
        # cannot take the focal's product A: pairs with nothing
        Resource(id="r3", rates={"B": 10.0}, release_time=big, task_chain=["b2", "b1"]),
        # one task 48 h right of f, its id between t5 and t6
        Resource(id="r4", rates={"A": 10.0}, release_time=big + 96, task_chain=["t55"]),
    ]
    quantity = {"t6": 1000.0, "f": 1000.0, "u3": 1.0, "u2": 1.0}
    tasks = {
        tid: mk(tid, "B" if tid[0] in "bs" else "A", quantity.get(tid, 1.0), 50.0)
        for r in resources
        for tid in r.task_chain
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    starts = s.resources[1].starts
    assert len(set(starts)) == 2 and starts == sorted(starts)
    timing = derived(s)
    assert timing["s2"].start == timing["s1"].start > timing["f"].start
    raw = oracle_enumerate(s)
    assert len(raw) > PROPOSAL_CAP
    assert [op.aux for op in raw[:4]] == ["t3", "t3", "t4", "t4"]
    assert propose(s) == raw[:PROPOSAL_CAP]
    assert propose(s, cap=10_000) == raw


def test_propose_orders_equal_distance_runs_next_to_the_focal_by_id():
    # the nearest slot on each side of the focal opens a run of equal
    # distances whose ids run backwards, and another chain holds a task at
    # that distance whose id sorts inside the run: the whole run must be in
    # the heap before its first pop
    big = 1e17
    resources = [
        # left: 0 and 0.1 h both lie 1e17 + 48 h from f
        Resource(id="r0", rates={"A": 10.0, "B": 10.0}, task_chain=["u1", "u3"]),
        Resource(id="r1", rates={"A": 10.0, "B": 10.0}, task_chain=["u2"]),
        # right: f runs 100 h, then s3 and s1 share a start
        Resource(
            id="r2",
            rates={"A": 10.0, "B": 10.0},
            release_time=big + 48,
            task_chain=["f", "s3", "s1"],
        ),
        Resource(id="r3", rates={"A": 10.0, "B": 10.0}, release_time=big + 148, task_chain=["s2"]),
    ]
    tasks = {
        tid: mk(tid, "A", 1000.0 if tid == "f" else 1.0, 50.0)
        for r in resources
        for tid in r.task_chain
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    timing = derived(s)
    assert timing["s3"].start == timing["s1"].start == timing["s2"].start
    raw = oracle_enumerate(s)
    assert list(dict.fromkeys(op.aux for op in raw)) == ["s1", "s2", "s3", "u1", "u2", "u3"]
    for cap in range(len(raw) + 2):
        assert propose(s, cap) == raw[:cap]


def test_capped_propose_matches_oracle_on_500x20_plants():
    # fresh orders on three 500 x 20 plants, then random repair steps; the
    # sparse capabilities leave chains the focal cannot move to
    rng = Random(29)
    checked = unreachable = 0
    for seed in range(3):
        spec = InstanceSpec(seed=500 + seed, task_count=500, resource_count=20)
        inst = generate_instance(spec)
        for _ in range(4):
            s = inject_disruption(sample_disruption(inst, rng))
            assert propose(s, cap=10_000) == oracle_enumerate(s)
            for _ in range(8):
                ops = propose(s)
                assert ops == oracle_enumerate(s)[:PROPOSAL_CAP]
                focal = s.tasks[s.focal_task]
                unreachable += sum(focal.product not in r.rates for r in s.resources)
                checked += 1
                if not ops:
                    break
                s = apply(s, ops[rng.randrange(len(ops))])
    assert checked > 60
    assert unreachable > 0


def tied_state(rng):
    """A random plant whose distances tie across chains and within sides.

    Every resource takes A and B at one rate, or B alone, and every
    quantity is 10 or 20 kg, so starts fall on whole hours and tie across
    chains. Some chains start near 1e17, where an hour vanishes in the
    float sum, so starts tie along them, and the distance from such a start
    to one near 0 rounds to one value for unequal starts. Ids are shuffled
    so that they do not follow chain order.
    """
    names = [f"t{n:02d}" for n in range(rng.randint(6, 18))]
    rng.shuffle(names)
    resources = [
        Resource(
            id=f"r{ri}",
            rates={"B": 10.0} if ri and rng.random() < 0.2 else {"A": 10.0, "B": 10.0},
            release_time=rng.choice([0.0, 0.0, 1.0, 1e17, 1e17 + 48]),
        )
        for ri in range(rng.randint(2, 5))
    ]
    tasks = {}
    for tid in names:
        r = rng.choice(resources)
        product = "A" if "A" in r.rates and rng.random() < 0.7 else "B"
        tasks[tid] = mk(tid, product, rng.choice([10.0, 20.0]), 1e17 * rng.random())
        r.task_chain.append(tid)
    focal = rng.choice([tid for tid in names if tasks[tid].product == "A"] or names)
    return elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task=focal))


def test_propose_cap_sweep_matches_the_oracle():
    # every cap from -1 to 12, and none, on states after random steps: the
    # loop stops on the cap, so caps that cut a jump from its swap, or a
    # tie of equal distances, are swept too
    rng = Random(31)
    states = []
    for _ in range(60):
        s = tied_state(rng)
        for _ in range(3):
            states.append(s)
            ops = propose(s)
            if not ops:
                break
            s = apply(s, ops[rng.randrange(len(ops))])
    for seed, (tasks, resources) in enumerate([(15, 3)] * 6 + [(40, 5)] * 4):
        spec = InstanceSpec(seed=700 + seed, task_count=tasks, resource_count=resources)
        s = inject_disruption(generate_instance(spec))
        for _ in range(6):
            states.append(s)
            ops = propose(s)
            if not ops:
                break
            s = apply(s, ops[rng.randrange(len(ops))])
    inst = generate_instance(InstanceSpec(seed=509, task_count=500, resource_count=20))
    states.append(inject_disruption(sample_disruption(inst, rng)))
    splits = ties = rounded = 0
    for s in states:
        raw = oracle_enumerate(s)
        assert propose(s, 10_000) == raw
        for cap in range(-1, 13):
            assert propose(s, cap) == raw[: max(cap, 0)]
            splits += 0 < cap < len(raw) and raw[cap - 1].aux == raw[cap].aux
        timing = derived(s)
        at = timing[s.focal_task].start
        auxes = [timing[tid] for tid in dict.fromkeys(op.aux for op in raw)]
        for a, b in zip(auxes, auxes[1:]):
            if abs(a.start - at) == abs(b.start - at):
                ties += 1
                rounded += a.start != b.start and (a.start > at) == (b.start > at)
    assert len(states) > 200
    assert splits > 20
    assert ties > 300
    assert rounded > 30


def test_propose_pairs_nothing_for_an_executing_focal(monkeypatch):
    # a frozen focal pairs with nothing, so no task is even looked at
    resources = [
        Resource(id="r1", rates={"A": 10.0, "B": 10.0}, task_chain=["f", "a1", "a2"]),
        Resource(id="r2", rates={"A": 10.0, "B": 10.0}, task_chain=["b1", "b2"]),
    ]
    tasks = {tid: mk(tid, "A", 20.0, 50.0) for tid in ("f", "a1", "a2", "b1", "b2")}
    tasks["f"].executing, tasks["f"].start = True, 1.0
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    calls = []
    pairings = operators._pairings
    monkeypatch.setattr(
        operators, "_pairings", lambda *args: calls.append(args) or pairings(*args)
    )
    assert oracle_enumerate(s) == []
    assert propose(s) == [] and propose(s, cap=10_000) == []
    assert calls == []
    s.focal_task = "a1"  # the counter sees the calls of a focal that can move
    s = elaborate(s)
    assert propose(s) == oracle_enumerate(s) != []
    assert calls


def fig2_state():
    # R1 = [P, F, Q] from release 0; R2 = [A, B] from release 10, so A starts
    # after F and a down-right-jump of F behind A is applicable.
    resources = [
        Resource(id="r1", rates={"A": 10.0}, task_chain=["p", "f", "q"]),
        Resource(id="r2", rates={"A": 8.0}, release_time=10.0, task_chain=["a", "b"]),
    ]
    tasks = {
        "p": mk("p", "A", 20.0, 30.0),
        "f": mk("f", "A", 16.0, 30.0),
        "q": mk("q", "A", 10.0, 30.0),
        "a": mk("a", "A", 24.0, 30.0),
        "b": mk("b", "A", 8.0, 30.0),
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    return s


def test_apply_down_right_jump_splice():
    s = fig2_state()
    op = RepairOperator(OperatorKind.DOWN_RIGHT_JUMP, "f", "a", "r2")
    assert op in propose(s, cap=10_000)
    out = apply(s, op)
    assert out.resources[0].task_chain == ["p", "q"]
    assert out.resources[1].task_chain == ["a", "f", "b"]
    # timed at the target resource's rate
    f = derived(out)["f"]
    assert f.finish - f.start == pytest.approx(16.0 / 8.0, abs=TOL)
    assert validate(out) == []


def test_jump_then_mirror_jump_restores_chains():
    # focal f on r2; x sits alone on r1 which releases later, g follows f
    resources = [
        Resource(id="r1", rates={"A": 10.0}, release_time=5.0, task_chain=["x"]),
        Resource(id="r2", rates={"A": 10.0}, task_chain=["f", "g"]),
    ]
    tasks = {
        "x": mk("x", "A", 20.0, 30.0),
        "f": mk("f", "A", 10.0, 30.0),
        "g": mk("g", "A", 10.0, 30.0),
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    up = RepairOperator(OperatorKind.UP_RIGHT_JUMP, "f", "x", "r1")
    mid = apply(s, up)
    assert mid.resources[0].task_chain == ["x", "f"]
    assert mid.resources[1].task_chain == ["g"]
    down = RepairOperator(OperatorKind.DOWN_LEFT_JUMP, "f", "g", "r2")
    back = apply(mid, down)
    assert back.resources[0].task_chain == s.resources[0].task_chain
    assert back.resources[1].task_chain == s.resources[1].task_chain


def test_apply_down_left_swap_exchanges_slots():
    resources = [
        Resource(id="r1", rates={"A": 10.0, "B": 10.0}, release_time=6.0, task_chain=["f", "z"]),
        Resource(id="r3", rates={"A": 5.0, "B": 5.0}, task_chain=["t7", "t8"]),
    ]
    tasks = {
        "f": mk("f", "A", 20.0, 30.0),
        "z": mk("z", "A", 10.0, 30.0),
        "t7": mk("t7", "B", 10.0, 30.0, name="Task7"),
        "t8": mk("t8", "B", 10.0, 30.0),
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    op = RepairOperator(OperatorKind.DOWN_LEFT_SWAP, "f", "t7", "r3")
    assert op in propose(s, cap=10_000)
    out = apply(s, op)
    assert out.resources[0].task_chain == ["t7", "z"]
    assert out.resources[1].task_chain == ["f", "t8"]
    timing = derived(out)
    assert timing["f"].finish - timing["f"].start == pytest.approx(20.0 / 5.0, abs=TOL)
    assert timing["t7"].finish - timing["t7"].start == pytest.approx(10.0 / 10.0, abs=TOL)
    assert validate(out) == []


def test_same_resource_jumps():
    resources = [Resource(id="r1", rates={"A": 10.0}, task_chain=["u", "f", "v"])]
    tasks = {
        "u": mk("u", "A", 10.0, 30.0),
        "f": mk("f", "A", 10.0, 30.0),
        "v": mk("v", "A", 10.0, 30.0),
    }
    s = elaborate(ScheduleState(resources=resources, tasks=tasks, focal_task="f"))
    left = RepairOperator(OperatorKind.SAME_LEFT_JUMP, "f", "u", "r1")
    right = RepairOperator(OperatorKind.SAME_RIGHT_JUMP, "f", "v", "r1")
    assert apply(s, left).resources[0].task_chain == ["f", "u", "v"]
    assert apply(s, right).resources[0].task_chain == ["u", "v", "f"]


def test_executing_tasks_are_frozen():
    s = fig2_state()
    s.tasks["a"].executing = True
    s = elaborate(s)
    ops = propose(s, cap=10_000)
    assert all(op.aux != "a" for op in ops)
    s2 = s.clone()
    s2.tasks["f"].executing = True
    assert propose(elaborate(s2)) == []


def test_apply_rejects_stale_operator():
    s = fig2_state()
    op = RepairOperator(OperatorKind.DOWN_RIGHT_JUMP, "f", "a", "r2")
    moved = apply(s, op)
    # after the move f sits behind a, so the same operator no longer applies
    with pytest.raises(OperatorNotApplicable):
        apply(moved, op)
    with pytest.raises(OperatorNotApplicable):
        apply(s, RepairOperator(OperatorKind.UP_RIGHT_JUMP, "f", "a", "r2"))
    with pytest.raises(OperatorNotApplicable):
        apply(s, RepairOperator(OperatorKind.DOWN_RIGHT_JUMP, "q", "a", "r2"))


def test_repair_operator_is_a_hashable_immutable_value():
    op = RepairOperator(OperatorKind.DOWN_RIGHT_JUMP, "f", "a", "r2")
    same = RepairOperator(OperatorKind("down-right-jump"), "f", "a", "r2")
    assert op == same and op is not same
    assert hash(op) == hash(same)
    assert {op: 1}[same] == 1 and len({op, same}) == 1
    assert op != op._replace(target_resource="r1")
    assert op != op._replace(kind=OperatorKind.DOWN_RIGHT_SWAP)
    for name in RepairOperator._fields:
        with pytest.raises(AttributeError):
            setattr(op, name, None)
    assert op == same


def test_apply_refuses_each_proposal_with_its_side_flipped():
    # the side of an aux follows from the starts, so each proposal with the
    # other horizontal is one that propose would never offer
    flipped = {"left": "right", "right": "left"}
    tried = 0
    for seed in range(10):
        s = inject_disruption(generate_instance(InstanceSpec(seed=seed, task_count=12)))
        for op in propose(s):
            k = op.kind
            bad = op._replace(kind=OperatorKind(f"{k.vertical}-{flipped[k.horizontal]}-{k.action}"))
            with pytest.raises(OperatorNotApplicable):
                apply(s, bad)
            apply(s, op)
            tried += 1
    assert tried == 92


def test_apply_accepts_exactly_the_oracle_operators():
    # every kind x aux (each task plus an unknown id) x target resource
    tried = accepted = 0
    for seed in range(15):
        s = inject_disruption(generate_instance(InstanceSpec(seed=seed, task_count=8)))
        valid = oracle_enumerate(s)
        for kind in OperatorKind:
            for aux in [*s.tasks, "no-such-task"]:
                for r in s.resources:
                    op = RepairOperator(kind, s.focal_task, aux, r.id)
                    tried += 1
                    if op in valid:
                        apply(s, op)
                        accepted += 1
                    else:
                        with pytest.raises(OperatorNotApplicable):
                            apply(s, op)
    assert tried == 4500
    assert accepted == 137


def multiset(state):
    return sorted((t.id, t.quantity, t.product, t.due_date) for t in state.tasks.values())


def test_apply_properties_on_random_instances():
    # conservation, chain integrity, precondition soundness, duration law
    checked = 0
    for seed in range(25):
        inst = generate_instance(InstanceSpec(seed=100 + seed))
        s = inject_disruption(inst)
        for op in propose(s):
            out = apply(s, op)  # soundness: must not raise
            assert multiset(out) == multiset(s)
            assert validate(out) == []
            timing, before = derived(out), derived(s)
            moved, slot = out.tasks[op.focal], timing[op.focal]
            rate = holder(out, op.focal).rates[moved.product]
            assert abs((slot.finish - slot.start) * rate - moved.quantity) < TOL
            if op.kind.action == "swap":
                aux, slot = out.tasks[op.aux], timing[op.aux]
                aux_rate = holder(out, op.aux).rates[aux.product]
                assert abs((slot.finish - slot.start) * aux_rate - aux.quantity) < TOL
            for t in out.tasks.values():
                if t.executing:
                    assert timing[t.id].start == before[t.id].start == t.start
                    assert timing[t.id].resource_index == before[t.id].resource_index
            checked += 1
    assert checked > 100


def focal_states():
    """Random small states with a focal task and some executing heads, then
    disrupted generated plants up to 60 tasks x 5 resources."""
    rng = Random(11)
    for _ in range(120):
        raw = random_state(rng, max_resources=4, max_tasks=12)
        if not raw.tasks:
            continue
        for r in raw.resources:
            if r.task_chain and rng.random() < 0.3:
                head = raw.tasks[r.task_chain[0]]
                head.executing = True
                head.start = round(rng.uniform(0.0, 5.0), 1)
        raw.focal_task = rng.choice(sorted(raw.tasks))
        yield elaborate(raw)
    for seed in range(12):
        tasks, resources = [(15, 3), (30, 4), (60, 5)][seed % 3]
        spec = InstanceSpec(seed=200 + seed, task_count=tasks, resource_count=resources)
        yield inject_disruption(generate_instance(spec))


def test_apply_equals_full_elaboration_and_leaves_input_alone():
    checked = 0
    for s in focal_states():
        # the input's tasks refuse writes, so re-timing a shared task raises
        s = frozen(s)
        before = copy.deepcopy(s)
        ops = propose(s)
        assert ops == oracle_enumerate(s)[:PROPOSAL_CAP]
        for op in ops:
            out = apply(s, op)
            # only the spliced chains get new objects, and of those only the
            # tasks from their first changed slot on
            spliced = {holder(out, op.focal).id, holder(s, op.focal).id}
            assert assert_prefixes_shared(s, out) == len(spliced)
            checked += 1
        assert s == before
    assert checked > 500


def test_successive_applies_leave_every_earlier_state_alone():
    rng = Random(5)
    steps = 0
    for seed in range(6):
        spec = InstanceSpec(seed=300 + seed, task_count=40, resource_count=4)
        s = inject_disruption(generate_instance(spec))
        history = [(s, copy.deepcopy(s))]
        for _ in range(20):
            ops = propose(s)
            if not ops:
                break
            s = apply(s, ops[rng.randrange(len(ops))])
            assert_fully_elaborated(s)
            history.append((s, copy.deepcopy(s)))
            steps += 1
        for state, snapshot in history:
            assert state == snapshot
    assert steps > 60


def test_splice_retimes_from_the_first_changed_slot(monkeypatch):
    # ``apply`` and ``inject_disruption`` name each chain's slot from their
    # own edits; on every proposal of random plants up to 40 x 5 and on
    # every disruption it must be the first slot where the old and new
    # chains differ
    recorded: list[dict[int, int]] = []
    retime = schedule._retime

    def recording_retime(s: ScheduleState, chains: dict[int, int]) -> None:
        recorded.append(dict(chains))
        retime(s, chains)

    monkeypatch.setattr(schedule, "_retime", recording_retime)

    def check(before: ScheduleState, after: ScheduleState) -> None:
        (firsts,) = recorded
        recorded.clear()
        assert firsts == {
            i: first_changed_slot(old.task_chain, new.task_chain)
            for i, (old, new) in enumerate(zip(before.resources, after.resources))
            if old.task_chain != new.task_chain
        }

    rng = Random(17)
    splices = 0
    for _ in range(150):
        raw = random_state(rng, max_resources=5, max_tasks=40)
        if not raw.tasks:
            continue
        raw.focal_task = rng.choice(sorted(raw.tasks))
        s = elaborate(raw)
        recorded.clear()
        for op in propose(s, cap=2 * len(s.tasks)):
            check(s, apply(s, op))
            splices += 1
    for seed in range(40):
        spec = InstanceSpec(
            seed=900 + seed, task_count=rng.randint(0, 40), resource_count=rng.randint(1, 5)
        )
        inst = generate_instance(spec)
        recorded.clear()
        arrival = rng.uniform(0.0, 10.0)
        fresh = Instance(inst.state, sample_disruption(inst, rng).order, arrival)
        check(inst.state, inject_disruption(fresh))
        splices += 1
    assert splices > 3000


def oracle_starts():
    """Random small states with an order inserted at a random capable slot,
    then fresh orders on two 500 x 20 plants."""
    rng = Random(31)
    for _ in range(150):
        raw = random_state(rng, max_resources=4, max_tasks=12)
        order = Task(
            id="t99",
            name="Task99",
            product=rng.choice(PRODUCTS),
            quantity=round(rng.uniform(1.0, 60.0), 1),
            due_date=round(rng.uniform(0.0, 30.0), 2),
        )
        capable = [r for r in raw.resources if order.product in r.rates]
        if capable:
            target = rng.choice(capable)
            target.task_chain.insert(rng.randint(0, len(target.task_chain)), order.id)
            raw.tasks[order.id] = order
            raw.focal_task = order.id
            yield elaborate(raw)
    for seed in range(2):
        inst = generate_instance(InstanceSpec(seed=700 + seed, task_count=500, resource_count=20))
        for _ in range(3):
            yield inject_disruption(sample_disruption(inst, rng))


def test_steps_match_independent_oracles():
    # after every order placement and every random apply: each task's resource
    # slot is its holder by a chain scan, and the aggregates match exact sums
    rng = Random(37)
    steps = across = 0
    for s in oracle_starts():
        assert_matches_oracles(s)
        for _ in range(12):
            ops = propose(s)
            if not ops:
                break
            op = ops[rng.randrange(len(ops))]
            s = apply(s, op)
            assert_matches_oracles(s)
            steps += 1
            across += op.kind.vertical != "same"  # two chains spliced
    assert steps > 1500
    assert across > 600


def walk_starts():
    """Random small states with a focal and some executing heads, then
    fresh orders on generated plants from 15 x 3 up to 2 000 x 40."""
    rng = Random(53)
    for _ in range(80):
        raw = random_state(rng, max_resources=4, max_tasks=12)
        if not raw.tasks:
            continue
        for r in raw.resources:
            if r.task_chain and rng.random() < 0.3:
                head = raw.tasks[r.task_chain[0]]
                head.executing, head.start = True, round(rng.uniform(0.0, 5.0), 1)
        raw.focal_task = rng.choice(sorted(raw.tasks))
        yield elaborate(raw), 10
    for seed, (tasks, resources) in enumerate([(15, 3), (60, 5), (200, 10), (500, 20), (2000, 40)]):
        spec = InstanceSpec(seed=1100 + seed, task_count=tasks, resource_count=resources)
        inst = generate_instance(spec)
        for _ in range(2):
            yield inject_disruption(sample_disruption(inst, rng)), 12


def test_random_walks_keep_a_full_elaboration_and_share_the_rest():
    # at every step of a random walk over propose's operators, the arrays,
    # the focal index and the aggregates equal elaborate's exactly, the
    # step holds its parent's task dict itself, and every resource apply
    # did not splice is its parent's
    rng = Random(59)
    steps = large = 0
    for s, length in walk_starts():
        for _ in range(length):
            ops = propose(s)
            if not ops:
                break
            op = ops[rng.randrange(len(ops))]
            nxt = apply(s, op)
            assert_fully_elaborated(nxt)
            assert nxt.focal_index == naive_holders(nxt)[op.focal]
            assert nxt.tasks is s.tasks
            spliced = {s.focal_index, [r.id for r in s.resources].index(op.target_resource)}
            for i, (r, old) in enumerate(zip(nxt.resources, s.resources)):
                assert (r is old) == (i not in spliced), r.id
            steps += 1
            large += len(s.tasks) > 1000
            s = nxt
    assert steps == 700
    assert large == 24
