"""Schedule domain model: resources, task chains, timing and tardiness.

A schedule is a set of unary-capacity resources (extruders), each holding an
ordered chain of tasks. Products are plain string codes. A ``Task`` holds
only inputs. Every figure derived from a slot lives on the resource: the
starts and the running partials (total tardiness, max tardiness and WIP
over the slots up to and including this one, summed left to right), in
arrays that run slot for slot with ``Resource.task_chain``, and the
chain's end. A slot finishes where the next one starts, or at the end, so
each start is stored once. A duration, quantity over rate, is not stored:
``_retime`` alone divides, and a reader takes a slot's finish less its
start. The state's totals are the sums of each chain's last partials in
resource order, and its max tardiness is their max. The average tardiness
and the task count are read off the total and the task dict. The state
also keeps ``focal_index``, the index of the resource whose chain holds
the focal task. So a repair step re-times and re-sums only the spliced
chains from their first changed slot on, resuming from the old chain's
start there (or its end) and the partials before it, plus one pass over
the chain ends. ``elaborate`` recomputes every derived field the same way
and is idempotent.

States are values: every operation returns a new state and leaves its input
untouched, so states can be archived for episode rollback and compared after
the fact. A returned state never changes, but ``_splice``, which
``operators.apply`` and ``instances.inject_disruption`` build their states
with, copies only the resources it splices, and of their arrays only the
slice before the first changed slot, which its caller names. Every other
``Resource`` is shared, and so is the task dict, whole: no step changes an
input. So ``clone()`` a state before mutating it.
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

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .errors import BrokenChain, UnprocessableProduct

# Absolute tolerance for aggregate float comparisons, read by perfbench's
# check_episode; ``validate`` compares every derived field exactly.
AGG_TOL = 1e-9


@dataclass
class Task:
    """An order operation: what to make, how much, and by when.

    Every field is an input; nothing here is derived. ``start`` is read only
    when ``executing`` is set: it is the recorded start of work already
    running, which anchors the task's chain. A task's timing and partials
    live on its resource (``Resource.starts`` and the arrays beside it).
    """

    id: str
    name: str
    product: str
    quantity: float
    due_date: float
    executing: bool = False
    start: float = 0.0


@dataclass
class Resource:
    """A semi-continuous machine processing one task at a time.

    ``rates`` maps product code to kg/h; a missing key means the resource
    cannot process that product. ``release_time`` is the earliest start for
    movable (non-executing) work. The rest is derived, and only meaningful
    after :func:`elaborate`: slot for slot with ``task_chain``, each task's
    start and the chain's running total tardiness, max tardiness and WIP
    over the slots up to and including it, and ``end``, the last slot's
    finish or, for an empty chain, its anchor. A slot's finish is the next
    slot's start, or ``end``. A chain's last partials are its figures. The
    arrays are replaced, never written in place, so a state may share them
    with the state it was spliced from.
    """

    id: str
    kind: str = "extruder"
    rates: dict[str, float] = field(default_factory=dict)
    task_chain: list[str] = field(default_factory=list)
    release_time: float = 0.0
    starts: list[float] = field(default_factory=list)
    end: float = 0.0
    run_tardiness: list[float] = field(default_factory=list)
    run_max_tardiness: list[float] = field(default_factory=list)
    run_wip: list[float] = field(default_factory=list)


@dataclass
class ScheduleState:
    """Resources, tasks and the focal, with the aggregates derived from them.

    ``focal_index`` is derived: the index in ``resources`` of the resource
    whose chain holds ``focal_task``, or None without one.
    """

    resources: list[Resource] = field(default_factory=list)
    tasks: dict[str, Task] = field(default_factory=dict)
    focal_task: str | None = None
    init_tardiness: float = 0.0
    total_tardiness: float = 0.0
    max_tardiness: float = 0.0
    total_wip: float = 0.0
    focal_index: int | None = None

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
            r.rates, r.task_chain = dict(r.rates), list(r.task_chain)
            r.starts = list(r.starts)
            r.run_tardiness, r.run_max_tardiness, r.run_wip = (
                list(r.run_tardiness), list(r.run_max_tardiness), list(r.run_wip)
            )
        s.tasks = {tid: _copy_task(t) for tid, t in self.tasks.items()}
        return s


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

    Chain timing: the head task starts at its chain's anchor, which is
    max(release_time, 0) unless the head is executing and keeps its
    recorded start (a frozen task anchors its chain); each later task
    starts when its predecessor finishes, and the last finish is the
    chain's end. Durations are quantity / rate on the current resource.
    Each chain's running partials are summed in chain order, then the
    aggregates over the chains' last partials in resource order, exactly
    as ``_retime`` does after a splice, so a state re-timed in part equals
    its elaboration. ``focal_index`` is found by a scan of the chains.
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
    s.focal_index = next(
        (i for i, r in enumerate(s.resources) if s.focal_task in r.task_chain), None
    )
    _retime(s, dict.fromkeys(range(len(s.resources)), 0))


def _retime(s: ScheduleState, chains: dict[int, int]) -> None:
    """Re-time each chain at ``chains``' resource indices from its slot on.

    ``chains`` maps a resource index to the first slot to re-time; the
    slots before it must already carry their final timing and partials.
    The re-timed resources must be ``s``'s own copies, still holding the
    old chain's arrays and end. Each array is replaced by its slice before
    the slot, extended from there: the clock resumes at the old chain's
    start of that slot, or its old end past its last slot (the anchor at
    slot 0), and one loop appends each later slot's start and running
    partials, summed on from the slot before; the last finish is the new
    end. No task is built or written. The aggregates are then summed over
    each non-empty chain's last partials in resource order, so a step costs
    the re-timed slots plus O(resources), and a state re-timed in part
    carries the same floats as one elaborated in full.
    """
    tasks = s.tasks
    for i, first in chains.items():
        r = s.resources[i]
        chain, rates = r.task_chain, r.rates
        starts, totals = r.starts[:first], r.run_tardiness[:first]
        maxes, wips = r.run_max_tardiness[:first], r.run_wip[:first]
        if first:
            finish = r.starts[first] if first < len(r.starts) else r.end
            total, max_t, wip = totals[-1], maxes[-1], wips[-1]
        else:
            # The head's start, which the loop takes as the finish before it.
            finish = max(r.release_time, 0.0)
            if chain and tasks[chain[0]].executing:  # a frozen head anchors its chain
                finish = tasks[chain[0]].start
            total = max_t = wip = 0.0
        for tid in chain[first:]:
            t = tasks[tid]
            rate = rates.get(t.product)
            if rate is None:
                raise UnprocessableProduct(
                    f"resource {r.id} has no rate for product {t.product} (task {tid})"
                )
            duration = t.quantity / rate
            starts.append(finish)
            finish += duration
            # max(0, finish - due), inlined; adding a zero lateness would change nothing.
            lateness = finish - t.due_date
            if lateness > 0.0:
                total += lateness
                if lateness > max_t:
                    max_t = lateness
            wip += duration
            totals.append(total)
            maxes.append(max_t)
            wips.append(wip)
        r.starts, r.end = starts, finish
        r.run_tardiness, r.run_max_tardiness, r.run_wip = totals, maxes, wips

    total = max_t = wip = 0.0
    for r in s.resources:
        wips = r.run_wip
        if wips:
            total += r.run_tardiness[-1]
            worst = r.run_max_tardiness[-1]
            if worst > max_t:
                max_t = worst
            wip += wips[-1]
    s.total_tardiness = total
    s.max_tardiness = max_t
    s.total_wip = wip


def _splice(
    state: ScheduleState, edits: dict[int, tuple[list[str], int]], focal_index: int | None
) -> ScheduleState:
    """``state`` with each edited chain replaced and re-timed from its slot on.

    ``edits`` maps a resource index to its new chain and the first slot where
    that chain differs from the old one, which the caller knows from its own
    edit: ``operators.apply`` names the slots it removes, inserts or swaps
    at, and ``instances.inject_disruption`` the slot it appends at. Up to
    that slot each task has the same resource, predecessor and inputs, so
    its timing is already final and the arrays' slices are kept; from it
    on, ``_retime`` appends new figures. ``focal_index`` is the focal's
    resource index in the new state, which the caller also knows. ``state``
    must be elaborated. The new state shares every other resource, and the
    task dict itself, with it.
    """
    s = _copy_state(state)
    resources = s.resources = list(state.resources)
    s.focal_index = focal_index
    firsts = {}
    for i, (chain, first) in edits.items():
        r = resources[i] = _copy_resource(resources[i])
        r.task_chain = chain
        firsts[i] = first
    _retime(s, firsts)
    return s


def validate(state: ScheduleState) -> list[Violation]:
    """Check every state/task/resource invariant; return violations as data.

    Never raises: a broken state yields violations describing what is wrong.
    Structure and domain rules come first; a state that passes both must
    equal its own elaboration bit for bit. An empty list means the state is
    well-formed and its derived fields are fresh. So an executing task off
    its chain's head is flagged as such, and a head whose start differs
    from its recorded ``Task.start`` as stale timing.
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
    for tid, t in state.tasks.items():
        if t.id != tid:  # operators name a task by its id, chains by its key
            out.append(Violation("MismatchedTaskId", tid, f"key holds task {t.id}"))
        if not t.quantity > 0:
            out.append(Violation("NonPositiveQuantity", t.id, f"quantity {t.quantity}"))
        if not t.due_date >= 0:
            out.append(Violation("NegativeDueDate", t.id, f"due {t.due_date}"))
        if t.executing and not math.isfinite(t.start):
            out.append(Violation("NonFiniteStart", t.id, f"start {t.start}"))
    if out:
        return out

    # Every derived field must equal its elaboration's by ``!=``, element by
    # element, so a NaN counts as a difference and equal infinities are fresh.
    fresh = elaborate(state)
    if state.focal_index != fresh.focal_index:
        out.append(Violation(
            "StaleFocalIndex", str(state.focal_task), f"{state.focal_index} != {fresh.focal_index}"
        ))
    for r, f in zip(state.resources, fresh.resources):
        for attr in ("starts", "run_tardiness", "run_max_tardiness", "run_wip"):
            stored, derived = getattr(r, attr), getattr(f, attr)
            if len(stored) != len(derived) or any(a != b for a, b in zip(stored, derived)):
                out.append(Violation("StaleTiming", r.id, f"{attr} {stored} != {derived}"))
        if r.end != f.end:
            out.append(Violation("StaleTiming", r.id, f"end {r.end} != {f.end}"))
    for subject, attr in [
        ("totTard", "total_tardiness"), ("maxTard", "max_tardiness"), ("totalWIP", "total_wip")
    ]:
        stored, derived = getattr(state, attr), getattr(fresh, attr)
        if stored != derived:
            out.append(Violation("StaleAggregate", subject, f"{stored} != {derived}"))
    return out
