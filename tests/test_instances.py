import copy
import json
from collections import OrderedDict
from random import Random

import pytest

from helpers import AGGREGATES, assert_disrupted, assert_fully_elaborated, frozen, holder
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
    target = holder(s, inst.order.id)
    assert target.task_chain[-1] == inst.order.id
    assert inst.order.product in target.rates
    assert s.resources[s.focal_index] is target


def test_inject_flags_executing_heads():
    inst = generate_instance(InstanceSpec(seed=8))
    inst.arrival_h = 2.0
    s = inject_disruption(inst)
    for r in s.resources:
        chain = [tid for tid in r.task_chain if tid != inst.order.id]
        if not chain:
            continue
        head = s.tasks[chain[0]]
        if r.starts[0] < 2.0:
            assert head.executing and head.start == r.starts[0]
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


_MISSING = object()


def _loader_case(path, value, message):
    name = ".".join(str(p) for p in path)
    if value is _MISSING:
        return pytest.param(path, value, message, id=f"{name}-missing")
    return pytest.param(path, value, message, id=f"{name}={value!r}"[:60])


@pytest.mark.parametrize(
    "path, value, message",
    [
        _loader_case(("surprise",), 1, "top level: unknown fields ['surprise']"),
        _loader_case(("tasks",), _MISSING, "top level: missing fields ['tasks']"),
        # a resource
        _loader_case(("resources", 1), "r2", "resources[1]: expected an object"),
        _loader_case(("resources", 1, "color"), "red", "resources[1]: unknown fields ['color']"),
        _loader_case(("resources", 1, "kind"), _MISSING, "resources[1]: missing fields ['kind']"),
        _loader_case(("resources", 1, "id"), 5, "resources[1].id: expected a string, got 5"),
        _loader_case(
            ("resources", 1, "kind"), None, "resources[1].kind: expected a string, got None"
        ),
        _loader_case(("resources", 1, "rates"), ["A"], "resources[1]: rates must be an object"),
        _loader_case(
            ("resources", 1, "rates", "B"), "fast",
            "resources[1].rates.B: expected a finite number, got 'fast'",
        ),
        _loader_case(
            ("resources", 1, "rates", "B"), True,
            "resources[1].rates.B: expected a finite number, got True",
        ),
        _loader_case(
            ("resources", 1, "rates", "B"), float("nan"),
            "resources[1].rates.B: expected a finite number, got nan",
        ),
        _loader_case(
            ("resources", 1, "rates", "B"), 10**400,
            f"resources[1].rates.B: expected a finite number, got {10**400!r}",
        ),
        _loader_case(
            ("resources", 1, "rates", "B"), 0, "resources[1].rates.B: must be positive, got 0.0"
        ),
        _loader_case(
            ("resources", 1, "rates", "B"), -2.5,
            "resources[1].rates.B: must be positive, got -2.5",
        ),
        _loader_case(
            ("resources", 1, "release_time"), "0",
            "resources[1].release_time: expected a finite number, got '0'",
        ),
        _loader_case(
            ("resources", 1, "release_time"), float("inf"),
            "resources[1].release_time: expected a finite number, got inf",
        ),
        _loader_case(
            ("resources", 1, "release_time"), -1,
            "resources[1].release_time: must not be negative, got -1.0",
        ),
        # a task
        _loader_case(("tasks", 3), 3, "tasks[3]: expected an object"),
        _loader_case(("tasks", 3, "color"), "red", "tasks[3]: unknown fields ['color']"),
        _loader_case(("tasks", 3, "due_h"), _MISSING, "tasks[3]: missing fields ['due_h']"),
        _loader_case(("tasks", 3, "id"), 7, "tasks[3].id: expected a string, got 7"),
        _loader_case(("tasks", 3, "name"), None, "tasks[3].name: expected a string, got None"),
        _loader_case(
            ("tasks", 3, "product"), ["D"], "tasks[3].product: expected a string, got ['D']"
        ),
        _loader_case(
            ("tasks", 3, "quantity_kg"), "22.2",
            "tasks[3].quantity_kg: expected a finite number, got '22.2'",
        ),
        _loader_case(
            ("tasks", 3, "quantity_kg"), float("-inf"),
            "tasks[3].quantity_kg: expected a finite number, got -inf",
        ),
        _loader_case(
            ("tasks", 3, "quantity_kg"), -5, "tasks[3].quantity_kg: must be positive, got -5.0"
        ),
        _loader_case(
            ("tasks", 3, "quantity_kg"), 0.0, "tasks[3].quantity_kg: must be positive, got 0.0"
        ),
        _loader_case(
            ("tasks", 3, "due_h"), False, "tasks[3].due_h: expected a finite number, got False"
        ),
        _loader_case(
            ("tasks", 3, "due_h"), float("nan"),
            "tasks[3].due_h: expected a finite number, got nan",
        ),
        _loader_case(
            ("tasks", 3, "due_h"), -0.5, "tasks[3].due_h: must not be negative, got -0.5"
        ),
        _loader_case(("tasks", 3, "resource"), 1, "tasks[3].resource: expected a string, got 1"),
        _loader_case(("tasks", 3, "resource"), "r9", "tasks[3]: unknown resource r9"),
        *(
            _loader_case(
                ("tasks", 3, "chain_position"), bad,
                "tasks[3]: chain_position must be a non-negative integer",
            )
            for bad in (-1, 1.0, True, "3")
        ),
        # the order
        _loader_case(("disruption", "note"), "x", "disruption: unknown fields ['note']"),
        _loader_case(
            ("disruption", "arrival_h"), _MISSING, "disruption: missing fields ['arrival_h']"
        ),
        _loader_case(("disruption", "order"), [], "disruption.order: expected an object"),
        _loader_case(
            ("disruption", "order", "resource"), "r1",
            "disruption.order: unknown fields ['resource']",
        ),
        _loader_case(
            ("disruption", "order", "name"), _MISSING, "disruption.order: missing fields ['name']"
        ),
        _loader_case(
            ("disruption", "order", "id"), 16, "disruption.order.id: expected a string, got 16"
        ),
        _loader_case(
            ("disruption", "order", "name"), 1.5,
            "disruption.order.name: expected a string, got 1.5",
        ),
        _loader_case(
            ("disruption", "order", "product"), None,
            "disruption.order.product: expected a string, got None",
        ),
        _loader_case(
            ("disruption", "order", "quantity_kg"), float("nan"),
            "disruption.order.quantity_kg: expected a finite number, got nan",
        ),
        _loader_case(
            ("disruption", "order", "quantity_kg"), 0,
            "disruption.order.quantity_kg: must be positive, got 0.0",
        ),
        _loader_case(
            ("disruption", "order", "due_h"), "soon",
            "disruption.order.due_h: expected a finite number, got 'soon'",
        ),
        _loader_case(
            ("disruption", "order", "due_h"), -3,
            "disruption.order.due_h: must not be negative, got -3.0",
        ),
        _loader_case(
            ("disruption", "arrival_h"), "x",
            "disruption.arrival_h: expected a finite number, got 'x'",
        ),
        _loader_case(
            ("disruption", "arrival_h"), float("inf"),
            "disruption.arrival_h: expected a finite number, got inf",
        ),
        _loader_case(
            ("disruption", "arrival_h"), -1, "disruption.arrival_h: must not be negative, got -1.0"
        ),
    ],
)
def test_loader_names_the_bad_field_exactly(path, value, message):
    data = instance_to_dict(generate_instance(InstanceSpec(seed=6)))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if value is _MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(InstanceFormatError) as info:
        instance_from_dict(data)
    assert str(info.value) == message


_FUZZ_CHARS = 'ab"\\/\n\t\r\x00\x1f\x7fé€😀{}[],: '
_FUZZ_STRINGS = ["", "},\n{", '": {', '": [', "{}", "[]", '\n"', "\\n", " "]
_FUZZ_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2e-308, 1.7976931348623157e308,
]


def _fuzz_scalar(rng: Random):
    kind = rng.randrange(6)
    if kind == 0:
        if rng.random() < 0.3:
            return rng.choice(_FUZZ_STRINGS)
        return "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(2**64), True, False])
    if kind == 2:
        return rng.choice(_FUZZ_FLOATS)
    if kind == 3:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randrange(-30, 30)
    if kind == 4:
        return None
    return round(rng.uniform(0, 100), rng.randrange(4))


def _fuzz_key(rng: Random):
    if rng.random() < 0.85:
        return _fuzz_scalar(rng) if rng.random() < 0.3 else rng.choice("abcdefg")
    return rng.choice([1, -2, 1.5, float("nan"), -0.0, True, False, None])


def _fuzz_value(rng: Random, depth: int):
    kind = rng.randrange(8)
    if depth > 2 or kind < 2:
        return _fuzz_scalar(rng)
    if kind == 2:
        return {_fuzz_key(rng): _fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4))}
    if kind == 3:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    # a list of records, now and then with an empty, a nested or a dict-subclass one
    records = [
        {_fuzz_key(rng): _fuzz_scalar(rng) for _ in range(rng.randrange(1, 5))}
        for _ in range(rng.randrange(1, 5))
    ]
    if rng.random() < 0.2:
        records.insert(rng.randrange(len(records) + 1), {})
    if rng.random() < 0.2:
        rng.choice(records)[rng.choice("xyz")] = _fuzz_value(rng, depth + 1)
    if rng.random() < 0.05:
        records[0] = OrderedDict(records[0])
    return records


def test_json_text_writes_what_indented_json_dumps_writes():
    rng = Random(30)
    for _ in range(20_000):
        data = {_fuzz_key(rng): _fuzz_value(rng, 0) for _ in range(rng.randrange(4))}
        assert instances.json_text(data) == json.dumps(data, indent=2) + "\n", data


@pytest.mark.parametrize("tasks, resources", [(0, 3), (15, 3), (200, 10), (500, 20)])
def test_json_text_writes_a_plant_as_json_dumps_does(tasks, resources):
    data = instance_to_dict(
        generate_instance(InstanceSpec(resource_count=resources, task_count=tasks, seed=tasks))
    )
    assert instances.json_text(data) == json.dumps(data, indent=2) + "\n"
    assert dumps_instance(instance_from_dict(data)) == json.dumps(data, indent=2) + "\n"


def test_json_text_writes_reports_and_traces_as_json_dumps_does(tmp_path):
    from reskit.cli import main

    inst, store = str(tmp_path / "inst.json"), str(tmp_path / "q.txt")
    assert main(["generate", "--out", inst, "--seed", "7"]) == 0
    written = {
        "train": ["--qstore", store, "--episodes", "5", "--report"],
        "evaluate": ["--qstore", store, "--runs", "5", "--report"],
        "repair": ["--qstore", store, "--trace"],
    }
    for command, flags in written.items():
        out = tmp_path / f"{command}.json"
        assert main([command, "--instance", inst, *flags, str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        data = json.loads(text)
        records = {"train": "episode_outcomes", "evaluate": "runs", "repair": "steps"}[command]
        assert data[records], f"{command} wrote no {records}"
        assert text == json.dumps(data, indent=2) + "\n"


def test_json_text_encodes_a_plant_s_tasks_in_one_c_call(monkeypatch):
    data = instance_to_dict(
        generate_instance(InstanceSpec(resource_count=20, task_count=500, seed=5))
    )
    encoded, dumped = [], []
    encode, dumps = instances._encode_lines, json.dumps
    monkeypatch.setattr(instances, "_encode_lines", lambda o: encoded.append(o) or encode(o))
    monkeypatch.setattr(json, "dumps", lambda o, **kw: dumped.append(o) or dumps(o, **kw))
    text = instances.json_text(data)
    assert any(o is data["tasks"] for o in encoded)
    assert dumped == [data["resources"], data["disruption"]]
    monkeypatch.undo()
    assert text == json.dumps(data, indent=2) + "\n"
