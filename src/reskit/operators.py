"""Deictic repair operators: propose applicable moves/swaps, apply the splice.

Every operator is anchored on the state's focal task and parameterized by an
auxiliary task. Naming encodes three axes: vertical (up = a resource earlier
in the resource list, down = later, same = the focal's own resource),
horizontal (right = the auxiliary starts after the focal, left = before,
measured pre-move), and action (jump = re-insert the focal next to the
auxiliary, swap = exchange chain slots with it across resources).

The applicability rule is written once, in ``_pairings``: ``propose`` offers
its result for every chained task, and ``apply`` accepts only what it yields.
The exceptions are two shortcuts, where ``_pairings`` would return nothing
for every task: ``propose`` offers nothing for an executing focal, and does
not visit a chain, other than the focal's own, whose resource lacks the
focal's product.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from heapq import heapify, heappop, heapreplace
from typing import NamedTuple

from . import schedule
from .errors import NoFocalTask, OperatorNotApplicable
from .schedule import ScheduleState, Task

PROPOSAL_CAP = 10


class OperatorKind(str, Enum):
    UP_LEFT_JUMP = ("up", "left", "jump")
    UP_RIGHT_JUMP = ("up", "right", "jump")
    DOWN_LEFT_JUMP = ("down", "left", "jump")
    DOWN_RIGHT_JUMP = ("down", "right", "jump")
    SAME_LEFT_JUMP = ("same", "left", "jump")
    SAME_RIGHT_JUMP = ("same", "right", "jump")
    UP_LEFT_SWAP = ("up", "left", "swap")
    UP_RIGHT_SWAP = ("up", "right", "swap")
    DOWN_LEFT_SWAP = ("down", "left", "swap")
    DOWN_RIGHT_SWAP = ("down", "right", "swap")

    def __new__(cls, vertical: str, horizontal: str, action: str) -> "OperatorKind":
        label = f"{vertical}-{horizontal}-{action}"
        kind = str.__new__(cls, label)
        # ``label`` is ``value`` as a plain attribute: the Enum property costs
        # a descriptor call, and Q keys read it for every proposal.
        kind._value_ = kind.label = label
        kind.vertical, kind.horizontal, kind.action = vertical, horizontal, action
        return kind


_KIND = {(k.vertical, k.horizontal, k.action): k for k in OperatorKind}


class RepairOperator(NamedTuple):
    kind: OperatorKind
    focal: str
    aux: str
    target_resource: str


# ``_pairings`` builds each operator as ``_new(RepairOperator, fields)``: the
# same tuple, without the Python-level ``__new__`` that ``NamedTuple``
# writes, which takes more than twice as long and runs for every proposal.
_new = tuple.__new__


def _pairings(
    state: ScheduleState, focal: Task, fi: int, aux: Task, ai: int
) -> list[RepairOperator]:
    """The operators pairing ``focal`` on resource ``fi`` with ``aux`` on ``ai``.

    Executing tasks are frozen, and an aux starting with the focal has no side.
    Across resources the target must process the focal's product; a swap, also
    the reverse. A jump comes before its swap, as their kind labels sort.
    """
    if focal.executing or aux.executing or aux.start == focal.start:
        return []
    horizontal = "right" if aux.start > focal.start else "left"
    target = state.resources[ai]
    if ai == fi:
        kind = _KIND["same", horizontal, "jump"]
        return [_new(RepairOperator, (kind, focal.id, aux.id, target.id))]
    if focal.product not in target.rates:  # ``propose`` skips such chains
        return []
    vertical = "up" if ai < fi else "down"
    kind = _KIND[vertical, horizontal, "jump"]
    ops = [_new(RepairOperator, (kind, focal.id, aux.id, target.id))]
    if aux.product in state.resources[fi].rates:
        kind = _KIND[vertical, horizontal, "swap"]
        ops.append(_new(RepairOperator, (kind, focal.id, aux.id, target.id)))
    return ops


def propose(state: ScheduleState, cap: int = PROPOSAL_CAP) -> list[RepairOperator]:
    """Enumerate applicable operators for the current focal task.

    Returns at most ``cap`` operators in a deterministic order: ascending
    distance between the auxiliary's and the focal's start times, ties broken
    by auxiliary task id, then kind label. When more instantiations match
    than the cap allows, the closest-start ones survive.

    ``state`` must be elaborated, so starts never decrease along a chain.
    An executing focal is frozen and pairs with nothing, so it gets ``[]``
    at once. Otherwise each chain's ``Resource.starts`` is bisected at the
    focal's start, in C and with no key function, into a left and a right
    side, each ordered by distance, and one heap merges the sides. A chain
    other than the focal's own whose resource lacks the focal's product
    pairs with nothing and is skipped. A heap entry is ``(distance, task
    id, resource index, slot, step)``, with step -1 on the left and 1 on
    the right; the heap starts with each side's nearest slot, and each pop
    moves its side on by one slot. Distances never fall along a side, so
    the pops come in order of distance, but a move may enter an id below
    one already popped at the same distance. So entries tied on distance,
    judged by the distance read from ``starts`` (far from zero, unequal
    starts can round to one distance), are collected until the heap's top
    lies further, and then paired in id order; an entry tied with nothing
    is paired at once. Pairing stops once the cap is met, so no more
    operators are built than are returned, give or take one swap and the
    rest of a tie. The cost is O(R log n + popped x log R) for R resources,
    chains of length n and the entries popped, plus a sort of each tie.
    """
    if state.focal_task is None:
        raise NoFocalTask("propose requires a focal task")
    tasks = state.tasks
    focal = tasks[state.focal_task]
    if focal.executing:
        return []
    fi = focal.resource_index
    at = focal.start
    product = focal.product
    resources = state.resources

    heap = []
    for ai, r in enumerate(resources):
        if ai != fi and product not in r.rates:
            continue
        starts, chain = r.starts, r.task_chain
        k = bisect_left(starts, at)
        if k:
            heap.append((at - starts[k - 1], chain[k - 1], ai, k - 1, -1))
        if k < len(starts):
            heap.append((starts[k] - at, chain[k], ai, k, 1))
    heapify(heap)

    found: list[RepairOperator] = []
    tied: list[tuple[str, int]] = []
    while heap and len(found) < cap:
        d, tid, ai, i, step = heap[0]
        r = resources[ai]
        i += step
        if 0 <= i < len(r.starts):
            heapreplace(heap, (abs(r.starts[i] - at), r.task_chain[i], ai, i, step))
        else:
            heappop(heap)
        if heap and heap[0][0] == d:
            tied.append((tid, ai))
        elif tied:
            tied.append((tid, ai))
            tied.sort()
            for tid, ai in tied:
                found += _pairings(state, focal, fi, tasks[tid], ai)
            tied = []
        else:
            found += _pairings(state, focal, fi, tasks[tid], ai)
    return found[:cap]


def apply(state: ScheduleState, op: RepairOperator) -> ScheduleState:
    """Apply an operator ``propose`` would offer; return the re-timed state.

    Jump: the focal leaves its slot (its neighbours link up) and re-enters
    next to the auxiliary, after it for right kinds, before it for left.
    Swap: focal and auxiliary exchange chain slots across their resources.
    Durations follow from the new resources; the task multiset is unchanged.

    ``state`` must be elaborated. Only the one or two spliced chains are
    copied, and re-timed from the first changed slot on, which the edit
    names: the focal's old slot on its chain and the slot it enters on the
    aux's, or the nearer of the two when a jump stays on one chain. The new
    state shares every other ``Task`` and ``Resource`` with ``state`` and
    equals ``elaborate`` of itself.
    """
    if op.focal != state.focal_task:
        raise OperatorNotApplicable(f"{op.focal} is not the focal task")
    if op.aux not in state.tasks:
        raise OperatorNotApplicable(f"unknown auxiliary task {op.aux}")
    focal, aux = state.tasks[op.focal], state.tasks[op.aux]
    fi, ai = focal.resource_index, aux.resource_index
    if op not in _pairings(state, focal, fi, aux, ai):
        raise OperatorNotApplicable(f"{op.kind.value}({op.focal}, {op.aux}, {op.target_resource})")

    src = list(state.resources[fi].task_chain)
    dst = src if ai == fi else list(state.resources[ai].task_chain)
    k = src.index(op.focal)
    if op.kind.action == "jump":
        del src[k]
        at = dst.index(op.aux)
        if op.kind.horizontal == "right":
            at += 1
        dst.insert(at, op.focal)
    else:
        at = dst.index(op.aux)
        src[k], dst[at] = op.aux, op.focal
    if ai == fi:
        return schedule._splice(state, {fi: (src, min(k, at))})
    return schedule._splice(state, {fi: (src, k), ai: (dst, at)})

