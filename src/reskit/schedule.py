"""Schedule domain model: resources, task chains, timing and tardiness.

A schedule is a set of unary-capacity resources (extruders), each holding an
ordered chain of tasks. Products are plain string codes. All timing is
derived: a task's duration follows from its quantity and the assigned
resource's rate for its product, starts follow from chain order, and the
aggregate figures (total/max/avg tardiness, work in process) follow from the
task fields in two levels. Each resource carries its chain's partials,
summed left to right in chain order; the state's totals are the sums of
those partials in resource order, and its max tardiness is their max. So a
repair step re-sums only the chains it splices, plus one pass over the
resources. ``elaborate`` recomputes every derived field the same way and is
idempotent.

States are values: every operation returns a new state and leaves its input
untouched, so states can be archived for episode rollback and compared after
the fact. A returned state never changes, but ``_splice``, which
``operators.apply`` and ``instances.inject_disruption`` build their states
with, copies only the chains it splices, and of those only the tasks from
the first changed slot on: unchanged chain prefixes and every other ``Task``
and ``Resource`` are shared, so ``clone()`` a state before mutating it.
``elaborate`` returns a state that shares nothing with its input.
``Resource.task_chain`` is the only record of task order.

Every copy of a ``Task``, ``Resource`` or ``ScheduleState`` is a call of
its class's constructor, through the copier built for the class from its
dataclass fields (``_copy_task``, ``_copy_resource``, ``_copy_state``): a
field added later is copied without editing them, and the copy is always
of the base class. No copy goes through the source's attribute dict, as
``vars``, a dict update or the ``copy`` module would. On CPython 3.11 that
builds the dict, and from then on every read and write of the object is
several times slower; the sources are the plant's shared tasks, which
every later step reads. The ``dataclasses`` ``replace`` helper is left out
too: it costs several constructor calls.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .errors import BrokenChain, UnprocessableProduct

# Absolute tolerance for aggregate float comparisons.
AGG_TOL = 1e-9


@dataclass
class Task:
    """An order operation: what to make, how much, and by when.

    ``duration``, ``start``, ``finish`` and ``resource_index`` (the index in
    ``ScheduleState.resources`` of the resource whose chain holds the task)
    are derived; they are only meaningful after :func:`elaborate`.
    """

    id: str
    name: str
    product: str
    quantity: float
    due_date: float
    duration: float = 0.0
    start: float = 0.0
    finish: float = 0.0
    executing: bool = False
    resource_index: int | None = None


@dataclass
class Resource:
    """A semi-continuous machine processing one task at a time.

    ``rates`` maps product code to kg/h; a missing key means the resource
    cannot process that product. ``release_time`` is the earliest start for
    movable (non-executing) work. ``total_tardiness``, ``total_wip`` and
    ``max_tardiness`` are derived: the chain's partials of the state's
    aggregates, only meaningful after :func:`elaborate`.
    """

    id: str
    kind: str = "extruder"
    rates: dict[str, float] = field(default_factory=dict)
    task_chain: list[str] = field(default_factory=list)
    release_time: float = 0.0
    total_tardiness: float = 0.0
    total_wip: float = 0.0
    max_tardiness: float = 0.0


@dataclass
class ScheduleState:
    resources: list[Resource] = field(default_factory=list)
    tasks: dict[str, Task] = field(default_factory=dict)
    focal_task: str | None = None
    init_tardiness: float = 0.0
    total_tardiness: float = 0.0
    max_tardiness: float = 0.0
    avg_tardiness: float = 0.0
    total_wip: float = 0.0
    task_number: int = 0

    def clone(self) -> "ScheduleState":
        """Deep copy: the result shares no object with this state."""
        s = _copy_state(self)
        s.resources = [_copy_resource(r) for r in self.resources]
        for r in s.resources:
            r.rates, r.task_chain = dict(r.rates), list(r.task_chain)
        s.tasks = {tid: _copy_task(t) for tid, t in self.tasks.items()}
        return s

    def resource_of(self, task_id: str) -> Resource:
        """Resource whose chain holds ``task_id``; the state must be elaborated."""
        return self.resources[self.tasks[task_id].resource_index]


def _copier(cls: type) -> Callable:
    """A function copying a ``cls`` through ``cls(*fields)``, positionally.

    The field list is read once from ``dataclasses.fields``. The copy is a
    plain ``cls`` even when the source is of a subclass, and it shares each
    field's value with the source.
    """
    values = attrgetter(*(f.name for f in fields(cls)))
    return lambda obj: cls(*values(obj))


_copy_task = _copier(Task)
_copy_resource = _copier(Resource)
_copy_state = _copier(ScheduleState)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which rule, on what, and why."""

    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.detail}"


def task_tardiness(task: Task) -> float:
    """Lateness of an elaborated task: max(0, finish - due_date)."""
    return max(0.0, task.finish - task.due_date)


def _structure_defects(state: ScheduleState) -> Iterator[Violation]:
    """Tasks that are unknown, in two chain slots, or in none.

    Every task must sit in exactly one chain slot. A well-formed state
    yields nothing and builds no message.
    """
    chained: set[str] = set()
    for r in state.resources:
        for tid in r.task_chain:
            if tid not in state.tasks:
                yield Violation("UnknownTask", tid, f"chain of {r.id} references it")
            elif tid in chained:
                first = next(q.id for q in state.resources if tid in q.task_chain)
                yield Violation("DuplicateAssignment", tid, f"in chains of {first} and {r.id}")
            else:
                chained.add(tid)
    if len(chained) != len(state.tasks):
        for tid in state.tasks:
            if tid not in chained:
                yield Violation("UnassignedTask", tid, "not in any resource chain")


def elaborate(state: ScheduleState) -> ScheduleState:
    """Recompute every derived field and return the elaborated state.

    Chain timing: the head task starts at max(release_time, 0) unless it is
    executing, in which case its recorded start is kept (a frozen task
    anchors its chain); each later task starts when its predecessor
    finishes. Durations are quantity / rate on the current resource.
    Every chain's partials are summed in chain order, then the aggregates
    over the partials in resource order, exactly as ``_retime`` does after
    a splice, so a state re-timed in part equals its elaboration.
    """
    s = state.clone()
    _elaborate_in_place(s)
    return s


def _elaborate_in_place(s: ScheduleState) -> None:
    """``elaborate`` without the copy, for a state the caller owns outright.

    The instance loader builds every ``Task``, ``Resource``, chain and rate
    table of its state itself, so it re-times the state in place.
    """
    for defect in _structure_defects(s):
        raise BrokenChain(str(defect))
    _retime(s, dict.fromkeys(range(len(s.resources)), 0))


def _retime(s: ScheduleState, chains: dict[int, int]) -> None:
    """Re-time each chain at ``chains``' resource indices from its slot on.

    ``chains`` maps a resource index to the first slot to re-time; the task
    before that slot must already carry its final timing. The re-timed
    resources and tasks must be ``s``'s own copies. Each re-timed task
    records the index of its resource, and each re-timed chain's partials
    are summed anew over the whole chain, left to right; every other task
    and resource keeps what it carries. The aggregates are then summed over
    the partials in resource order, so a step costs the spliced chains plus
    O(resources), and a state re-timed in part carries the same floats as
    one elaborated in full.
    """
    tasks = s.tasks
    for i, first in chains.items():
        r = s.resources[i]
        chain = r.task_chain
        prev_task: Task | None = tasks[chain[first - 1]] if first else None
        for tid in chain[first:]:
            t = tasks[tid]
            rate = r.rates.get(t.product)
            if rate is None:
                raise UnprocessableProduct(
                    f"resource {r.id} has no rate for product {t.product} (task {tid})"
                )
            t.duration = t.quantity / rate
            if prev_task is None:
                if not t.executing:
                    t.start = max(r.release_time, 0.0)
            else:
                t.start = prev_task.finish
            t.finish = t.start + t.duration
            t.resource_index = i
            prev_task = t

        total = max_t = wip = 0.0
        for tid in chain:
            t = tasks[tid]
            # task_tardiness, inlined; adding a zero lateness would change nothing.
            lateness = t.finish - t.due_date
            if lateness > 0.0:
                total += lateness
                if lateness > max_t:
                    max_t = lateness
            wip += t.duration
        r.total_tardiness, r.max_tardiness, r.total_wip = total, max_t, wip

    total = max_t = wip = 0.0
    for r in s.resources:
        total += r.total_tardiness
        if r.max_tardiness > max_t:
            max_t = r.max_tardiness
        wip += r.total_wip
    s.total_tardiness = total
    s.max_tardiness = max_t
    s.task_number = len(tasks)
    s.avg_tardiness = total / s.task_number if s.task_number else 0.0
    s.total_wip = wip


def _splice(state: ScheduleState, chains: dict[int, list[str]]) -> ScheduleState:
    """``state`` with the chains at those resource indices replaced and re-timed.

    ``state`` must be elaborated. A spliced chain keeps the ``Task`` objects
    of its unchanged prefix: up to the first slot where it differs from the
    old chain, each task has the same resource, predecessor and inputs, so
    its timing is already final. Only the tasks from that slot on are copied
    and re-timed; every other chain and task is shared with ``state``.
    """
    s = _copy_state(state)
    s.resources, s.tasks = list(state.resources), dict(state.tasks)
    firsts: dict[int, int] = {}
    for i, chain in chains.items():
        old = s.resources[i].task_chain
        first, n = 0, min(len(old), len(chain))
        while first < n and old[first] == chain[first]:
            first += 1
        firsts[i] = first
        r = _copy_resource(s.resources[i])
        r.task_chain = chain
        s.resources[i] = r
        for tid in chain[first:]:
            s.tasks[tid] = _copy_task(s.tasks[tid])
    _retime(s, firsts)
    return s


def validate(state: ScheduleState) -> list[Violation]:
    """Check every state/task/resource invariant; return violations as data.

    Never raises: a broken state yields violations describing what is wrong.
    Structure and domain rules come first; a state that passes both must
    equal its own elaboration. An empty list means the state is well-formed
    and its derived fields are fresh.
    """
    out = list(_structure_defects(state))

    if state.focal_task is not None and state.focal_task not in state.tasks:
        out.append(Violation("UnknownFocal", state.focal_task, "focal id has no task"))
    for r in state.resources:
        if r.release_time < 0:
            out.append(Violation("NegativeRelease", r.id, f"release_time {r.release_time}"))
        for p, rate in r.rates.items():
            if not rate > 0:
                out.append(Violation("NonPositiveRate", r.id, f"rate for {p} is {rate}"))
        for i, tid in enumerate(r.task_chain):
            t = state.tasks.get(tid)
            if t is None:
                continue
            if t.product not in r.rates:
                out.append(
                    Violation("UnprocessableProduct", tid, f"no rate on {r.id} for {t.product}")
                )
            if t.executing and i > 0:
                out.append(Violation("ExecutingNotHead", tid, f"position {i} on {r.id}"))
    for t in state.tasks.values():
        if not t.quantity > 0:
            out.append(Violation("NonPositiveQuantity", t.id, f"quantity {t.quantity}"))
        if not t.due_date >= 0:
            out.append(Violation("NegativeDueDate", t.id, f"due {t.due_date}"))
    if out:
        return out

    # Starts are compared exactly: elaborate assigns start(k+1) = finish(k)
    # rather than recomputing it. ``not <=`` counts a NaN as a difference;
    # equal values, an infinite sum of finite inputs included, are fresh.
    fresh = elaborate(state)
    for tid, t in state.tasks.items():
        for attr, tol in (("start", 0.0), ("duration", AGG_TOL), ("finish", AGG_TOL)):
            stored, derived = getattr(t, attr), getattr(fresh.tasks[tid], attr)
            if stored != derived and not abs(stored - derived) <= tol:
                out.append(Violation("StaleTiming", tid, f"{attr} {stored} != {derived}"))
        stored, derived = t.resource_index, fresh.tasks[tid].resource_index
        if stored != derived:
            out.append(Violation("StaleResourceIndex", tid, f"{stored} != {derived}"))
    for r, f in zip(state.resources, fresh.resources):
        for attr in ("total_tardiness", "max_tardiness", "total_wip"):
            stored, derived = getattr(r, attr), getattr(f, attr)
            if stored != derived and not abs(stored - derived) <= AGG_TOL:
                out.append(Violation("StalePartial", r.id, f"{attr} {stored} != {derived}"))
    for subject, attr in [
        ("totTard", "total_tardiness"),
        ("maxTard", "max_tardiness"),
        ("avgTard", "avg_tardiness"),
        ("totalWIP", "total_wip"),
        ("taskNumber", "task_number"),
    ]:
        stored, derived = getattr(state, attr), getattr(fresh, attr)
        if stored != derived and not abs(stored - derived) <= AGG_TOL:
            out.append(Violation("StaleAggregate", subject, f"{stored} != {derived}"))
    return out
