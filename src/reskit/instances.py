"""Instance generation, the JSON instance format, and disruption injection.

Generated instances mimic a small batch plant: a few extruders with
per-product rates (not every extruder handles every product), an
earliest-due-date round-robin base schedule, and one arriving order as the
disruption. Everything is driven by a single seeded generator so equal seeds
give byte-identical files.

Every JSON file reskit writes goes through ``json_text``. It writes the
bytes of ``json.dumps(data, indent=2)`` and a final line break, but where
the stdlib leaves its C encoder whenever ``indent`` is set, ``json_text``
keeps the long lists of flat records (tasks, trace steps, report runs) in C.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .errors import InfeasibleSpec, InstanceFormatError, UnprocessableProduct
from .schedule import (
    Resource,
    ScheduleState,
    Task,
    _copy_state,
    _copy_task,
    _elaborate_in_place,
    _splice,
    elaborate,
)

_CAPABILITY_REDRAWS = 32
# Order ready times scatter over this fraction of the expected makespan;
# dues are ready + slack * ideal duration.
_READY_SPREAD = 0.95


@dataclass
class InstanceSpec:
    resource_count: int = 3
    products: tuple[str, ...] = ("A", "B", "C", "D")
    task_count: int = 15
    rate_range: tuple[float, float] = (6.0, 24.0)
    quantity_range: tuple[float, float] = (20.0, 60.0)
    slack_range: tuple[float, float] = (1.0, 2.5)
    capability_density: float = 0.75
    seed: int = 0

    def ready_cap(self) -> float:
        mid_qty = (self.quantity_range[0] + self.quantity_range[1]) / 2
        mid_rate = (self.rate_range[0] + self.rate_range[1]) / 2
        makespan = self.task_count * mid_qty / (mid_rate * self.resource_count)
        return _READY_SPREAD * makespan


@dataclass
class Instance:
    """A base schedule plus its disruption: one arriving order.

    ``state`` is elaborated: ``generate_instance`` and the loader both
    return it so, and ``inject_disruption`` relies on it. Re-elaborate it
    after editing it.
    """

    state: ScheduleState
    order: Task
    arrival_h: float = 0.0


def _draw_capabilities(spec: InstanceSpec, rng: Random) -> list[set[str]]:
    for _ in range(_CAPABILITY_REDRAWS):
        caps = [
            {p for p in spec.products if rng.random() < spec.capability_density}
            for _ in range(spec.resource_count)
        ]
        if all(any(p in c for c in caps) for p in spec.products):
            return caps
    raise InfeasibleSpec(
        f"capability density {spec.capability_density} leaves some product unprocessable"
    )


def _draw_order(
    spec: InstanceSpec, rng: Random, best_rate: dict[str, float], ready_cap: float, index: int
) -> Task:
    product = rng.choice(spec.products)
    quantity = round(rng.uniform(*spec.quantity_range), 1)
    slack = rng.uniform(*spec.slack_range)
    ready = rng.uniform(0.0, ready_cap)
    due = round(ready + slack * quantity / best_rate[product], 2)
    return Task(id=f"t{index}", name=f"Task{index}", product=product, quantity=quantity, due_date=due)


def generate_instance(spec: InstanceSpec) -> Instance:
    """Deterministic instance from the spec; the base schedule validates clean.

    Tasks are assigned round-robin in earliest-due-date order, skipping
    resources that cannot process a task's product.
    """
    if spec.resource_count <= 0 or spec.task_count < 0:
        raise InfeasibleSpec("need at least one resource and a non-negative task count")
    if len(set(spec.products)) != len(spec.products) or not spec.products:
        raise InfeasibleSpec("product codes must be unique and non-empty")
    # Drawn rates and quantities are rounded to 0.1, and the loader takes
    # only finite positive ones.
    for what, (lo, hi) in (("rate", spec.rate_range), ("quantity", spec.quantity_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)) or round(min(lo, hi), 1) <= 0:
            raise InfeasibleSpec(
                f"{what} range {lo:g}..{hi:g}: draws must be finite and round above 0"
            )
    rng = Random(spec.seed)

    caps = _draw_capabilities(spec, rng)
    resources = []
    for i, cap in enumerate(caps):
        rates = {p: round(rng.uniform(*spec.rate_range), 1) for p in sorted(cap)}
        resources.append(Resource(id=f"r{i + 1}", kind="extruder", rates=rates))
    best_rate = {
        p: max(r.rates[p] for r in resources if p in r.rates) for p in spec.products
    }

    ready_cap = spec.ready_cap()
    tasks = [_draw_order(spec, rng, best_rate, ready_cap, i + 1) for i in range(spec.task_count)]
    tasks.sort(key=lambda t: (t.due_date, t.id))
    cursor = 0
    n = len(resources)
    for t in tasks:
        for off in range(n):
            r = resources[(cursor + off) % n]
            if t.product in r.rates:
                r.task_chain.append(t.id)
                cursor = (cursor + off + 1) % n
                break

    order = _draw_order(spec, rng, best_rate, ready_cap, spec.task_count + 1)
    state = elaborate(ScheduleState(resources=resources, tasks={t.id: t for t in tasks}))
    return Instance(state=state, order=order, arrival_h=0.0)


def inject_disruption(instance: Instance) -> ScheduleState:
    """Snapshot pre-disruption tardiness, freeze running work, append the order.

    Chain heads already started at the arrival time are flagged executing.
    The order goes at the end of the capable resource whose chain ends
    earliest by ``Resource.end`` (an empty chain ends at its anchor; ties go
    to the earlier resource, as ``min`` keeps the first of equal keys) and
    becomes the focal task. With no capable resource it raises
    ``UnprocessableProduct``, and an order id already in the plant raises
    ``ValueError``. A pre-disruption or post-insertion tardiness that is not
    finite raises ``InstanceFormatError``: every state would reach the one,
    and no reward is defined from the other.

    ``instance.state`` must be elaborated, and is left untouched. The result
    has a task dict of its own, the one copy per order: it holds a copy of
    the order, and a copy of each flagged head that records the head's
    start. The state is one ``schedule._splice`` of the target chain from
    the slot the order is appended at, as ``operators.apply`` builds a step
    from the slots it edits: the order starts at the chain's old end, and
    the chain's starts, running partials and end are extended from there.
    So only the order's resource is new, and every other ``Resource`` and
    ``Task`` is shared with the instance: besides the shallow task-dict
    copy, a fresh order costs O(resources), not a plant copy.
    """
    base, order = instance.state, instance.order
    if not math.isfinite(base.total_tardiness):
        raise InstanceFormatError(
            f"pre-disruption tardiness is {base.total_tardiness}, not a finite number"
        )
    capable = [i for i, r in enumerate(base.resources) if order.product in r.rates]
    if not capable:
        raise UnprocessableProduct(f"no resource can process {order.product}")
    if order.id in base.tasks:
        raise ValueError(f"task id {order.id} already present")

    tasks = dict(base.tasks)
    for r in base.resources:
        if r.task_chain and r.starts[0] < instance.arrival_h:
            head = _copy_task(tasks[r.task_chain[0]])
            head.executing, head.start = True, r.starts[0]
            tasks[head.id] = head
    tasks[order.id] = _copy_task(order)
    target = min(capable, key=lambda i: base.resources[i].end)
    shallow = _copy_state(base)
    shallow.tasks, shallow.focal_task = tasks, order.id
    shallow.init_tardiness = base.total_tardiness
    chain = base.resources[target].task_chain
    disrupted = _splice(shallow, {target: ([*chain, order.id], len(chain))}, target)
    if not math.isfinite(disrupted.total_tardiness):
        raise InstanceFormatError(
            f"post-insertion tardiness is {disrupted.total_tardiness}, not a finite number"
        )
    return disrupted


def sample_disruption(instance: Instance, rng: Random) -> Instance:
    """Fresh arriving order drawn from ranges observed in the instance.

    A plant where no resource has a rate raises ``UnprocessableProduct``
    before any number is drawn.
    """
    products = sorted({p for r in instance.state.resources for p in r.rates})
    if not products:
        raise UnprocessableProduct("no resource can process any product")
    quantities = [t.quantity for t in instance.state.tasks.values()]
    qlo, qhi = (min(quantities), max(quantities)) if quantities else (20.0, 60.0)
    product = products[rng.randrange(len(products))]
    quantity = round(rng.uniform(qlo, qhi), 1)
    best = max(r.rates[product] for r in instance.state.resources if product in r.rates)
    # Ready offset scattered over the observed due-date span (the file carries
    # no generator spec, so ranges are inferred from the instance itself).
    ready = rng.uniform(0.0, max((t.due_date for t in instance.state.tasks.values()), default=0.0))
    due = round(instance.arrival_h + ready + rng.uniform(1.0, 2.5) * quantity / best, 2)
    # Q keys name tasks, so the order's name must be free as well as its id.
    names = {t.name for t in instance.state.tasks.values()}
    index = len(instance.state.tasks) + 1
    while f"t{index}" in instance.state.tasks or f"Task{index}" in names:
        index += 1
    order = Task(
        id=f"t{index}", name=f"Task{index}", product=product, quantity=quantity, due_date=due
    )
    return Instance(state=instance.state, order=order, arrival_h=instance.arrival_h)


# --- instance file format ---------------------------------------------------

_RESOURCE_FIELDS = {"id", "kind", "rates", "release_time"}
_ORDER_FIELDS = {"id", "name", "product", "quantity_kg", "due_h"}
_TASK_FIELDS = _ORDER_FIELDS | {"resource", "chain_position"}


def _require(obj: dict, allowed: set[str], where: str) -> None:
    if isinstance(obj, dict) and obj.keys() == allowed:
        return
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceFormatError(f"{where}: unknown fields {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise InstanceFormatError(f"{where}: missing fields {sorted(missing)}")


# Each check below names the bad value ``{where}.{field}``, and formats that
# text only when it raises: a 500-task file has thousands of good fields.
def _string(value, where: str, field: str) -> str:
    if not isinstance(value, str):
        raise InstanceFormatError(f"{where}.{field}: expected a string, got {value!r}")
    return value


def _number(value, where: str, field: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise InstanceFormatError(f"{where}.{field}: expected a finite number, got {value!r}")


def _positive(value, where: str, field: str) -> float:
    number = _number(value, where, field)
    if not number > 0:
        raise InstanceFormatError(f"{where}.{field}: must be positive, got {number!r}")
    return number


def _non_negative(value, where: str, field: str) -> float:
    number = _number(value, where, field)
    if number < 0:
        raise InstanceFormatError(f"{where}.{field}: must not be negative, got {number!r}")
    return number


def _order_to_dict(t: Task) -> dict:
    return {
        "id": t.id,
        "name": t.name,
        "product": t.product,
        "quantity_kg": t.quantity,
        "due_h": t.due_date,
    }


def _order_from_dict(d: dict, fields: set[str], where: str) -> Task:
    """The order (or task) fields of ``d``, which holds exactly ``fields``."""
    _require(d, fields, where)
    # Positional: id, name, product, quantity, due date.
    return Task(
        _string(d["id"], where, "id"),
        _string(d["name"], where, "name"),
        _string(d["product"], where, "product"),
        _positive(d["quantity_kg"], where, "quantity_kg"),
        _non_negative(d["due_h"], where, "due_h"),
    )


def instance_to_dict(instance: Instance) -> dict:
    placement: dict[str, tuple[str, int]] = {}
    for r in instance.state.resources:
        for pos, tid in enumerate(r.task_chain):
            placement[tid] = (r.id, pos)
    return {
        "resources": [
            {
                "id": r.id,
                "kind": r.kind,
                "rates": {p: r.rates[p] for p in sorted(r.rates)},
                "release_time": r.release_time,
            }
            for r in instance.state.resources
        ],
        "tasks": [
            {
                **_order_to_dict(t),
                "resource": placement[t.id][0],
                "chain_position": placement[t.id][1],
            }
            for t in sorted(instance.state.tasks.values(), key=lambda t: t.id)
        ],
        "disruption": {"order": _order_to_dict(instance.order), "arrival_h": instance.arrival_h},
    }


def instance_from_dict(data: dict) -> Instance:
    """The instance a dict in the file format describes, its state elaborated.

    Malformed data raises ``InstanceFormatError``; a task on a resource with
    no rate for its product raises ``UnprocessableProduct`` from the
    elaboration. Re-elaborate the state after editing it.
    """
    _require(data, {"resources", "tasks", "disruption"}, "top level")
    if not isinstance(data["resources"], list) or not isinstance(data["tasks"], list):
        raise InstanceFormatError("resources and tasks must be arrays")

    resources: list[Resource] = []
    for i, rd in enumerate(data["resources"]):
        where = f"resources[{i}]"
        _require(rd, _RESOURCE_FIELDS, where)
        if not isinstance(rd["rates"], dict):
            raise InstanceFormatError(f"{where}: rates must be an object")
        rates = {p: _positive(v, f"{where}.rates", p) for p, v in rd["rates"].items()}
        resources.append(
            Resource(
                id=_string(rd["id"], where, "id"),
                kind=_string(rd["kind"], where, "kind"),
                rates=rates,
                release_time=_non_negative(rd["release_time"], where, "release_time"),
            )
        )
    ids = [r.id for r in resources]
    if len(set(ids)) != len(ids):
        raise InstanceFormatError("duplicate resource ids")

    by_resource: dict[str, list[tuple[int, str]]] = {r.id: [] for r in resources}
    tasks: dict[str, Task] = {}
    for i, td in enumerate(data["tasks"]):
        where = f"tasks[{i}]"
        t = _order_from_dict(td, _TASK_FIELDS, where)
        if t.id in tasks:
            raise InstanceFormatError(f"{where}: duplicate task id {t.id}")
        rid = _string(td["resource"], where, "resource")
        if rid not in by_resource:
            raise InstanceFormatError(f"{where}: unknown resource {rid}")
        pos = td["chain_position"]
        if not isinstance(pos, int) or isinstance(pos, bool) or pos < 0:
            raise InstanceFormatError(f"{where}: chain_position must be a non-negative integer")
        tasks[t.id] = t
        by_resource[rid].append((pos, t.id))

    for r in resources:
        entries = sorted(by_resource[r.id])
        positions = [pos for pos, _ in entries]
        if positions != list(range(len(positions))):
            raise InstanceFormatError(
                f"resource {r.id}: chain_position values must be 0..{len(positions) - 1}"
            )
        r.task_chain = [tid for _, tid in entries]

    _require(data["disruption"], {"order", "arrival_h"}, "disruption")
    order = _order_from_dict(data["disruption"]["order"], _ORDER_FIELDS, "disruption.order")
    if order.id in tasks:
        raise InstanceFormatError(f"disruption.order: id {order.id} is already a task id")
    # Q keys name tasks, so two tasks with one name would share preferences,
    # and a tab or a line break in a name would split a Q-store record.
    names: set[str] = set()
    for t in [*tasks.values(), order]:
        if t.name in names:
            raise InstanceFormatError(f"duplicate task name {t.name}")
        if "\t" in t.name or "".join(t.name.splitlines()) != t.name:
            raise InstanceFormatError(f"task name {t.name!r} holds a tab or a line break")
        names.add(t.name)
    arrival = _non_negative(data["disruption"]["arrival_h"], "disruption", "arrival_h")

    state = ScheduleState(resources=resources, tasks=tasks)
    _elaborate_in_place(state)
    return Instance(state=state, order=order, arrival_h=arrival)


# One item per line and no indent: ``json`` encodes this in C.
_encode_lines = json.JSONEncoder(separators=(",\n", ": ")).encode


def json_text(data: dict) -> str:
    r"""``json.dumps(data, indent=2) + "\n"``, byte for byte, mostly in C.

    The stdlib leaves its C encoder for a pure-Python one whenever
    ``indent`` is set, which made writing a plant file take about three
    times as long as encoding it in C. Here a top-level value that is a list
    of flat records (the plant's tasks, a trace's steps, a report's runs)
    is encoded in one C call with a line break between items. Strings
    escape their line breaks, so each raw one is such a break: before a
    key's quote it parts two fields of a record, and before a ``{`` two
    records, and two ``str.replace`` calls indent them. Any other value, and
    any list the check cannot vouch for (a dict subclass, an empty record,
    or ``": {"``, ``": ["`` or ``{}`` anywhere in its text, even inside a
    string), is written by ``json.dumps(value, indent=2)`` with its lines
    indented one level. A false alarm costs speed and never changes a byte.
    """
    if not data:
        return "{}\n"
    # Each key as the encoder writes it, with its ": ".
    items = [_encode_lines({key: 0})[1:-2] + _indented(value) for key, value in data.items()]
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def _indented(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it one level deep."""
    if type(value) is list and value and all(type(r) is dict for r in value):
        text = _encode_lines(value)
        if '": {' not in text and '": [' not in text and "{}" not in text:
            text = text[2:-2].replace('\n"', '\n      "')
            text = text.replace("},\n{", "\n    },\n    {\n      ")
            return f"[\n    {{\n      {text}\n    }}\n  ]"
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def dumps_instance(instance: Instance) -> str:
    return json_text(instance_to_dict(instance))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def load_instance(path: str | Path) -> Instance:
    # ValueError: bad syntax, non-UTF-8 bytes, an int past the digit limit.
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc
    return instance_from_dict(data)
