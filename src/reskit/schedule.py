"""Schedule domain model: resources, task chains, timing and tardiness.

A schedule is a set of unary-capacity resources (extruders), each holding an
ordered chain of tasks. Products are plain string codes. All timing is
derived: a task's duration follows from its quantity and the assigned
resource's rate for its product, starts follow from chain order, and the
aggregate figures (total/max tardiness, work in process) follow from the
task fields. Each task carries its chain's running partials, summed left to
right in chain order up to and including it; the state's totals are the
sums of the chain ends' partials in resource order, and its max tardiness
is their max. The average tardiness and the task count are read off the
total and the task dict. Each resource also carries the start of every slot
of its chain, in chain order (``Resource.starts``). So a repair step
re-times and re-sums only the spliced chains from their first changed slot
on, resuming from the running partials of the task before it, plus one pass
over the chain ends. ``elaborate`` recomputes every derived field the same
way and is idempotent.

States are values: every operation returns a new state and leaves its input
untouched, so states can be archived for episode rollback and compared after
the fact. A returned state never changes, but ``_splice``, which
``operators.apply`` and ``instances.inject_disruption`` build their states
with, copies only the chains it splices, and of those only the tasks from
the first changed slot on, which its caller names: unchanged chain prefixes
and every other ``Task`` and ``Resource`` are shared, so ``clone()`` a state
before mutating it.
``elaborate`` returns a state that shares nothing with its input.
``Resource.task_chain`` is the only record of task order.

Every copy of a ``Task``, ``Resource`` or ``ScheduleState`` is a call of
its class's constructor, through the copier built for the class from its
dataclass fields (``_copy_task``, ``_copy_resource``, ``_copy_state``): a
field added later is copied without editing them, and the copy is always
of the base class. A re-timed task is not copied and then written: ``_retime``
builds it with one ``Task(...)`` call from its input fields and its new
timing and partials. No copy goes through the source's attribute dict, as
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

    ``duration``, ``start``, ``finish``, ``resource_index`` (the index in
    ``ScheduleState.resources`` of the resource whose chain holds the task)
    and the ``run_*`` fields (the chain's total tardiness, max tardiness and
    WIP over the slots up to and including this task) are derived; they are
    only meaningful after :func:`elaborate`.
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
    run_tardiness: float = 0.0
    run_max_tardiness: float = 0.0
    run_wip: float = 0.0


@dataclass
class Resource:
    """A semi-continuous machine processing one task at a time.

    ``rates`` maps product code to kg/h; a missing key means the resource
    cannot process that product. ``release_time`` is the earliest start for
    movable (non-executing) work. ``starts`` is derived: the start of each
    task of ``task_chain``, slot for slot, only meaningful after
    :func:`elaborate`. The chain's tardiness and WIP partials are not stored
    here: they are its last task's ``run_*`` fields.
    """

    id: str
    kind: str = "extruder"
    rates: dict[str, float] = field(default_factory=dict)
    task_chain: list[str] = field(default_factory=list)
    release_time: float = 0.0
    starts: list[float] = field(default_factory=list)


@dataclass
class ScheduleState:
    resources: list[Resource] = field(default_factory=list)
    tasks: dict[str, Task] = field(default_factory=dict)
    focal_task: str | None = None
    init_tardiness: float = 0.0
    total_tardiness: float = 0.0
    max_tardiness: float = 0.0
    total_wip: float = 0.0

    @property
    def task_number(self) -> int:
        return len(self.tasks)

    @property
    def avg_tardiness(self) -> float:
        return self.total_tardiness / len(self.tasks) if self.tasks else 0.0

    def clone(self) -> "ScheduleState":
        """Deep copy: the result shares no object with this state."""
        s = _copy_state(self)
        s.resources = [_copy_resource(r) for r in self.resources]
        for r in s.resources:
            r.rates, r.task_chain, r.starts = dict(r.rates), list(r.task_chain), list(r.starts)
        s.tasks = {tid: _copy_task(t) for tid, t in self.tasks.items()}
        return s

    def resource_of(self, task_id: str) -> Resource:
        """Resource whose chain holds ``task_id``; the state must be elaborated."""
        return self.resources[self.tasks[task_id].resource_index]


def _copier(cls: type) -> Callable:
    """A function copying a ``cls`` through ``cls(*fields)``, positionally.

    The field list is read once from ``dataclasses.fields``. The copy is a
    plain ``cls`` even when the source is of a subclass, and it shares each
    field's value with the source. A task that is re-timed is not copied:
    ``_retime`` builds its successor with one ``Task(...)`` call.
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
    Each task's running partials are summed in chain order, then the
    aggregates over the chain ends' partials in resource order, exactly as
    ``_retime`` does after a splice, so a state re-timed in part equals its
    elaboration.
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
    before that slot must already carry its final timing and running
    partials. The re-timed resources must be ``s``'s own copies, and
    ``s.tasks`` its own dict. Each re-timed task is replaced in ``s.tasks``
    by one ``Task(...)`` built from its input fields, its new timing, the
    index of its resource and its running partials, summed on from the task
    before the slot in the same loop; every other task and resource keeps
    what it carries. A chain's ``starts`` keeps its slice before the slot.
    The aggregates are then summed over each non-empty chain's last task's
    running partials in resource order, so a step costs the re-timed slots
    plus O(resources), and a state re-timed in part carries the same floats
    as one elaborated in full.
    """
    tasks = s.tasks
    for i, first in chains.items():
        r = s.resources[i]
        chain, rates = r.task_chain, r.rates
        starts = r.starts[:first]
        if first:
            prev = tasks[chain[first - 1]]
            finish = prev.finish
            total, max_t, wip = prev.run_tardiness, prev.run_max_tardiness, prev.run_wip
        else:
            finish = None
            total = max_t = wip = 0.0
        for tid in chain[first:]:
            t = tasks[tid]
            rate = rates.get(t.product)
            if rate is None:
                raise UnprocessableProduct(
                    f"resource {r.id} has no rate for product {t.product} (task {tid})"
                )
            duration = t.quantity / rate
            if finish is not None:
                start = finish
            elif t.executing:  # a frozen head anchors its chain
                start = t.start
            else:
                start = max(r.release_time, 0.0)
            finish = start + duration
            # task_tardiness, inlined; adding a zero lateness would change nothing.
            lateness = finish - t.due_date
            if lateness > 0.0:
                total += lateness
                if lateness > max_t:
                    max_t = lateness
            wip += duration
            starts.append(start)
            tasks[tid] = Task(
                tid, t.name, t.product, t.quantity, t.due_date, duration, start, finish,
                t.executing, i, total, max_t, wip,
            )
        r.starts = starts

    total = max_t = wip = 0.0
    for r in s.resources:
        chain = r.task_chain
        if chain:
            last = tasks[chain[-1]]
            total += last.run_tardiness
            if last.run_max_tardiness > max_t:
                max_t = last.run_max_tardiness
            wip += last.run_wip
    s.total_tardiness = total
    s.max_tardiness = max_t
    s.total_wip = wip


def _splice(state: ScheduleState, edits: dict[int, tuple[list[str], int]]) -> ScheduleState:
    """``state`` with each edited chain replaced and re-timed from its slot on.

    ``edits`` maps a resource index to its new chain and the first slot where
    that chain differs from the old one, which the caller knows from its own
    edit: ``operators.apply`` names the slots it removes, inserts or swaps
    at, and ``instances.inject_disruption`` the slot it appends at. Up to
    that slot each task has the same resource, predecessor and inputs, so
    its timing is already final and its ``Task`` is kept; from it on,
    ``_retime`` builds new ones. ``state`` must be elaborated, and every
    other chain and task is shared with it.
    """
    s = _copy_state(state)
    s.resources, s.tasks = list(state.resources), dict(state.tasks)
    for i, (chain, _) in edits.items():
        r = _copy_resource(s.resources[i])
        r.task_chain = chain
        s.resources[i] = r
    _retime(s, {i: first for i, (_, first) in edits.items()})
    return s


# A task's derived floats and how far each may stray from a fresh
# elaboration's; the running partials are sums, like the aggregates.
_TIMING_TOLERANCES = (
    ("start", 0.0),
    ("duration", AGG_TOL),
    ("finish", AGG_TOL),
    ("run_tardiness", AGG_TOL),
    ("run_max_tardiness", AGG_TOL),
    ("run_wip", AGG_TOL),
)


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
        if not r.release_time >= 0:
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

    # Starts, of tasks and of ``Resource.starts``, are compared exactly:
    # elaborate assigns start(k+1) = finish(k) rather than recomputing it.
    # ``not <=`` counts a NaN as a difference; equal values, an infinite sum
    # of finite inputs included, are fresh.
    fresh = elaborate(state)
    for tid, t in state.tasks.items():
        for attr, tol in _TIMING_TOLERANCES:
            stored, derived = getattr(t, attr), getattr(fresh.tasks[tid], attr)
            if stored != derived and not abs(stored - derived) <= tol:
                out.append(Violation("StaleTiming", tid, f"{attr} {stored} != {derived}"))
        stored, derived = t.resource_index, fresh.tasks[tid].resource_index
        if stored != derived:
            out.append(Violation("StaleResourceIndex", tid, f"{stored} != {derived}"))
    for r, f in zip(state.resources, fresh.resources):
        if len(r.starts) != len(f.starts) or any(a != b for a, b in zip(r.starts, f.starts)):
            out.append(Violation("StaleStarts", r.id, f"{r.starts} != {f.starts}"))
    for subject, attr in [
        ("totTard", "total_tardiness"), ("maxTard", "max_tardiness"), ("totalWIP", "total_wip")
    ]:
        stored, derived = getattr(state, attr), getattr(fresh, attr)
        if stored != derived and not abs(stored - derived) <= AGG_TOL:
            out.append(Violation("StaleAggregate", subject, f"{stored} != {derived}"))
    return out
