import copy
import json
from random import Random

import pytest

from helpers import AGGREGATES, assert_disrupted, assert_fully_elaborated, frozen
from reskit import instances, schedule
from reskit.errors import InfeasibleSpec, InstanceFormatError
from reskit.instances import (
    Instance,
    InstanceSpec,
    dumps_instance,
    generate_instance,
    inject_disruption,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    sample_disruption,
    save_instance,
)
from reskit.schedule import Resource, ScheduleState, Task, elaborate, validate


def test_default_spec_generates_valid_instance():
    inst = generate_instance(InstanceSpec(seed=42))
    assert len(inst.state.resources) == 3
    assert len(inst.state.tasks) == 15
    assert validate(elaborate(inst.state)) == []
    assert inst.order.id not in inst.state.tasks
    products = {p for r in inst.state.resources for p in r.rates}
    assert inst.order.product in products


def test_full_capability_density():
    inst = generate_instance(InstanceSpec(seed=1, capability_density=1.0))
    for r in inst.state.resources:
        assert set(r.rates) == {"A", "B", "C", "D"}


def test_zero_density_is_infeasible():
    with pytest.raises(InfeasibleSpec):
        generate_instance(InstanceSpec(seed=1, capability_density=0.0))


def test_same_seed_same_bytes():
    a = dumps_instance(generate_instance(InstanceSpec(seed=9)))
    b = dumps_instance(generate_instance(InstanceSpec(seed=9)))
    assert a == b
    c = dumps_instance(generate_instance(InstanceSpec(seed=10)))
    assert a != c


def test_edd_round_robin_chains_are_due_sorted():
    inst = generate_instance(InstanceSpec(seed=4))
    for r in inst.state.resources:
        dues = [inst.state.tasks[tid].due_date for tid in r.task_chain]
        assert dues == sorted(dues)


def test_file_round_trip(tmp_path):
    inst = generate_instance(InstanceSpec(seed=5))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert instance_to_dict(loaded) == instance_to_dict(inst)
    assert dumps_instance(loaded) == dumps_instance(inst)


def test_unknown_field_rejected():
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    data["surprise"] = 1
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    data["tasks"][0]["color"] = "red"
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    data["disruption"]["order"]["resource"] = "r1"
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_missing_field_rejected():
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    del data["tasks"][0]["due_h"]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_bad_chain_positions_rejected():
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    data["tasks"][0]["chain_position"] = 99
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_chain_positions_define_order():
    data = instance_to_dict(generate_instance(InstanceSpec(seed=7)))
    shuffled = dict(data)
    shuffled["tasks"] = list(reversed(data["tasks"]))
    a = instance_from_dict(data)
    b = instance_from_dict(shuffled)
    assert [r.task_chain for r in a.state.resources] == [r.task_chain for r in b.state.resources]


def test_inject_disruption_snapshots_and_focal():
    inst = generate_instance(InstanceSpec(seed=7))
    base = elaborate(inst.state)
    s = inject_disruption(inst)
    assert s.init_tardiness == pytest.approx(base.total_tardiness, abs=1e-9)
    assert s.focal_task == inst.order.id
    assert s.tasks[inst.order.id].name == inst.order.name
    assert validate(s) == []
    # appended at the end of some capable resource
    holder = s.resource_of(inst.order.id)
    assert holder.task_chain[-1] == inst.order.id
    assert inst.order.product in holder.rates


def test_inject_flags_executing_heads():
    inst = generate_instance(InstanceSpec(seed=8))
    inst.arrival_h = 2.0
    s = inject_disruption(inst)
    for r in s.resources:
        chain = [tid for tid in r.task_chain if tid != inst.order.id]
        if not chain:
            continue
        head = s.tasks[chain[0]]
        if head.start < 2.0:
            assert head.executing
        for tid in chain[1:]:
            assert not s.tasks[tid].executing


def test_inject_disruption_matches_a_full_copy_and_shares_what_it_leaves():
    for seed in range(40):
        generated = generate_instance(InstanceSpec(seed=seed))
        for arrival in (0.0, 1.0, 2.0, 6.0):
            inst = Instance(frozen(generated.state), generated.order, arrival)
            snapshot = copy.deepcopy(inst)
            s = inject_disruption(inst)
            assert inst == snapshot, (seed, arrival)
            assert_disrupted(inst, s)


def test_inject_disruption_neither_copies_nor_elaborates_the_plant(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(InstanceSpec(seed=2, resource_count=10, task_count=200)), path)
    inst = load_instance(path)
    inst.arrival_h = 1.0

    def refuse(*_):
        raise AssertionError("inject_disruption copied or elaborated the whole plant")

    monkeypatch.setattr(ScheduleState, "clone", refuse)
    monkeypatch.setattr(schedule, "elaborate", refuse)
    monkeypatch.setattr(instances, "elaborate", refuse)
    monkeypatch.setattr(instances, "_elaborate_in_place", refuse)
    rng = Random(5)
    for _ in range(5):
        fresh = sample_disruption(inst, rng)
        s = inject_disruption(fresh)
        assert s.focal_task == fresh.order.id
        assert any(t.executing for t in s.tasks.values())


def raw_state(data: dict) -> ScheduleState:
    """The state a file-format dict describes, built field by field and not
    elaborated: only the fields the file holds are set."""
    chains: dict[str, list[tuple[int, str]]] = {rd["id"]: [] for rd in data["resources"]}
    tasks = {}
    for td in data["tasks"]:
        chains[td["resource"]].append((td["chain_position"], td["id"]))
        tasks[td["id"]] = Task(
            id=td["id"], name=td["name"], product=td["product"],
            quantity=td["quantity_kg"], due_date=td["due_h"],
        )
    resources = [
        Resource(
            id=rd["id"], kind=rd["kind"], rates=dict(rd["rates"]),
            task_chain=[tid for _, tid in sorted(chains[rd["id"]])],
            release_time=rd["release_time"],
        )
        for rd in data["resources"]
    ]
    return ScheduleState(resources=resources, tasks=tasks)


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_loaded_state_equals_elaboration_of_its_raw_state(seed):
    data = instance_to_dict(
        generate_instance(InstanceSpec(seed=seed, resource_count=4, task_count=30))
    )
    data["resources"][seed % 4]["release_time"] = 2.5
    loaded = instance_from_dict(data).state
    fresh = elaborate(raw_state(data))
    assert list(loaded.tasks) == list(fresh.tasks)
    for tid, t in loaded.tasks.items():
        assert type(t) is Task and vars(t) == vars(fresh.tasks[tid]), tid
    for r, f in zip(loaded.resources, fresh.resources, strict=True):
        assert type(r) is Resource and vars(r) == vars(f), r.id
    for attr in ("focal_task", "init_tardiness", *AGGREGATES):
        assert getattr(loaded, attr) == getattr(fresh, attr), attr


@pytest.mark.parametrize("seed", [0, 3, 7, 11, 19])
def test_loaded_state_is_elaborated(tmp_path, seed):
    path = tmp_path / "inst.json"
    save_instance(generate_instance(InstanceSpec(seed=seed, resource_count=4, task_count=30)), path)
    state = load_instance(path).state
    assert_fully_elaborated(state)
    assert validate(state) == []


def test_sample_disruption_is_plausible_and_deterministic():
    inst = generate_instance(InstanceSpec(seed=11))
    rng = Random(3)
    fresh = sample_disruption(inst, rng)
    assert fresh.order.id not in inst.state.tasks
    products = {p for r in inst.state.resources for p in r.rates}
    assert fresh.order.product in products
    quantities = [t.quantity for t in inst.state.tasks.values()]
    assert min(quantities) <= fresh.order.quantity <= max(quantities)
    again = sample_disruption(inst, Random(3))
    assert again.order == fresh.order
    # keeps drawing fresh orders as the generator advances
    third = sample_disruption(inst, rng)
    assert third.order != fresh.order


def test_sample_disruption_names_the_order_after_no_plant_task():
    # a loaded plant may pair ids and names differently from a generated one
    data = instance_to_dict(generate_instance(InstanceSpec(seed=3)))
    data["tasks"][0]["name"] = "Task16"
    data["disruption"]["order"].update(id="t99", name="Order99")
    plant = instance_from_dict(data)
    assert "t16" not in plant.state.tasks
    fresh = sample_disruption(plant, Random(0))
    assert (fresh.order.id, fresh.order.name) == ("t17", "Task17")
    # the file it makes loads, as the loader refuses two tasks with one name
    assert instance_from_dict(instance_to_dict(fresh)).order == fresh.order
    # a generated plant pairs t{k} with Task{k}, so its orders keep their ids
    generated = generate_instance(InstanceSpec(seed=3))
    assert sample_disruption(generated, Random(0)).order.id == "t16"


def test_instance_json_schema_field_names():
    data = instance_to_dict(generate_instance(InstanceSpec(seed=12)))
    assert set(data) == {"resources", "tasks", "disruption"}
    assert set(data["resources"][0]) == {"id", "kind", "rates", "release_time"}
    assert set(data["tasks"][0]) == {
        "id", "name", "product", "quantity_kg", "due_h", "resource", "chain_position",
    }
    assert set(data["disruption"]) == {"order", "arrival_h"}
    assert set(data["disruption"]["order"]) == {"id", "name", "product", "quantity_kg", "due_h"}
    json.dumps(data)  # serializable
