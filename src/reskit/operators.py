"""Deictic repair operators: propose applicable moves/swaps, apply the splice.

Every operator is anchored on the state's focal task and parameterized by an
auxiliary task. Naming encodes three axes: vertical (up = a resource earlier
in the resource list, down = later, same = the focal's own resource),
horizontal (right = the auxiliary starts after the focal, left = before,
measured pre-move), and action (jump = re-insert the focal next to the
auxiliary, swap = exchange chain slots with it across resources).

The applicability rule is written once, in ``_pairings``: ``propose`` offers
its result for every chained task, and ``apply`` accepts only what it yields.
The one exception is a shortcut: ``propose`` does not visit a chain, other
than the focal's own, whose resource lacks the focal's product, because
``_pairings`` returns nothing for any task on it.

``undoes`` tells, without applying anything, whether a step ``apply`` would
take returns to the state before the last one, so that a repair loop can
step back to that state instead of splicing it again.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from enum import Enum
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
        return [RepairOperator(_KIND["same", horizontal, "jump"], focal.id, aux.id, target.id)]
    if focal.product not in target.rates:  # ``propose`` skips such chains
        return []
    vertical = "up" if ai < fi else "down"
    ops = [RepairOperator(_KIND[vertical, horizontal, "jump"], focal.id, aux.id, target.id)]
    if aux.product in state.resources[fi].rates:
        ops.append(RepairOperator(_KIND[vertical, horizontal, "swap"], focal.id, aux.id, target.id))
    return ops


def propose(state: ScheduleState, cap: int = PROPOSAL_CAP) -> list[RepairOperator]:
    """Enumerate applicable operators for the current focal task.

    Returns at most ``cap`` operators in a deterministic order: ascending
    distance between the auxiliary's and the focal's start times, ties broken
    by auxiliary task id, then kind label. When more instantiations match
    than the cap allows, the closest-start ones survive.

    ``state`` must be elaborated, so starts never decrease along a chain.
    Each chain's ``Resource.starts`` is bisected at the focal's start, in C
    and with no key function, into a left and a right run, each ordered by
    distance, and a heap merges those cursors; every distance is read from
    ``starts``. A chain other than the focal's own whose resource lacks the
    focal's product pairs with nothing and is skipped. Auxiliaries are
    paired in merged order until the cap is met, so no more operators are
    built than are returned, give or take one swap. The cost is O(R log n +
    visited x log R) for R resources, chains of length n and the tasks
    visited.
    """
    if state.focal_task is None:
        raise NoFocalTask("propose requires a focal task")
    tasks = state.tasks
    focal = tasks[state.focal_task]
    fi = focal.resource_index
    at = focal.start

    # Cursors walk outward from each chain's split point. A heap entry is
    # (distance, task id, resource index, next slot, its distance, step,
    # chain, starts); task ids are unique, so the fields after the id never
    # break a tie, and the merge yields the global ranking order.
    pending = []
    for ai, r in enumerate(state.resources):
        if ai != fi and focal.product not in r.rates:
            continue
        starts = r.starts
        k = bisect_left(starts, at)
        if k:
            pending.append((k - 1, at - starts[k - 1], ai, -1, r.task_chain, starts))
        if k < len(starts):
            pending.append((k, starts[k] - at, ai, 1, r.task_chain, starts))

    heap: list = []
    found: list[RepairOperator] = []
    while True:
        # Push each pending cursor's next task. Tasks at an equal distance
        # further along (starts a float sum left unchanged) are pushed with
        # it, so that ids order them; the first carries the cursor on.
        for i, d, ai, step, chain, starts in pending:
            j, dj = i + step, 0.0
            while 0 <= j < len(chain):
                dj = abs(starts[j] - at)
                if dj != d:
                    break
                heapq.heappush(heap, (d, chain[j], ai, -1, 0.0, step, chain, starts))
                j += step
            heapq.heappush(heap, (d, chain[i], ai, j, dj, step, chain, starts))
        if not heap or len(found) >= cap:
            break
        _, tid, ai, j, dj, step, chain, starts = heapq.heappop(heap)
        found += _pairings(state, focal, fi, tasks[tid], ai)
        pending = [(j, dj, ai, step, chain, starts)] if 0 <= j < len(chain) else []
    return found[:cap]


def apply(state: ScheduleState, op: RepairOperator) -> ScheduleState:
    """Apply an operator ``propose`` would offer; return the re-timed state.

    Jump: the focal leaves its slot (its neighbours link up) and re-enters
    next to the auxiliary, after it for right kinds, before it for left.
    Swap: focal and auxiliary exchange chain slots across their resources.
    Durations follow from the new resources; the task multiset is unchanged.

    ``state`` must be elaborated. Only the one or two spliced chains are
    copied, and their tasks are rebuilt only from the first changed slot
    on, which ``_splice`` finds from the focal's slots and is also where
    re-timing starts; the new state shares every other ``Task`` and
    ``Resource`` with ``state`` and equals ``elaborate`` of itself.
    """
    if op.focal != state.focal_task:
        raise OperatorNotApplicable(f"{op.focal} is not the focal task")
    if op.aux not in state.tasks:
        raise OperatorNotApplicable(f"unknown auxiliary task {op.aux}")
    focal, aux = state.tasks[op.focal], state.tasks[op.aux]
    fi, ai = focal.resource_index, aux.resource_index
    if op not in _pairings(state, focal, fi, aux, ai):
        raise OperatorNotApplicable(f"{op.kind.value}({op.focal}, {op.aux}, {op.target_resource})")

    chains = {i: list(state.resources[i].task_chain) for i in (fi, ai)}
    src, dst = chains[fi], chains[ai]
    if op.kind.action == "jump":
        src.remove(op.focal)
        at = dst.index(op.aux)
        if op.kind.horizontal == "right":
            at += 1
        dst.insert(at, op.focal)
    else:
        src[src.index(op.focal)] = op.aux
        dst[dst.index(op.aux)] = op.focal
    return schedule._splice(state, chains)


def undoes(
    prev: ScheduleState, prev_op: RepairOperator, state: ScheduleState, op: RepairOperator
) -> bool:
    """Whether ``apply(state, op)`` has ``prev``'s chains.

    ``state`` must be ``apply(prev, prev_op)`` and ``op`` an operator that
    ``apply`` accepts on ``state``; the focal is then the same task in all
    three states. ``apply`` changes only chains, and every derived field is
    a function of the chains and of inputs it leaves alone, so a true
    result means ``apply(state, op)`` equals ``prev``. No chain is copied
    and ``_pairings`` is not called.

    Proof, from what ``apply`` moves: a jump moves only the focal, and a
    swap exchanges the focal and the aux across two resources.

    - A jump after a swap leaves ``prev_op.aux`` on the focal's old
      resource; a swap after a jump moves ``op.aux``, which ``prev_op``
      left where it was in ``prev``, to another resource. Neither undoes.
    - After a swap, ``op.aux`` other than ``prev_op.aux`` sits where it did
      in ``prev``, and a swap moves it to another resource. With the same
      aux, the swap puts both tasks back in their slots in ``prev``.
    - Two jumps keep every task but the focal in its order, so they undo
      each other iff the focal lands in its slot in ``prev``: on the aux's
      resource in ``state``, which must be the focal's in ``prev``, at
      ``dst.index(op.aux)`` after the focal left, plus 1 for a right jump.
      On the focal's own chain the focal sits before the aux iff the jump
      is right (starts rise along a chain, and the aux's differs from the
      focal's), so the -1 for its removal and the +1 cancel.
    """
    if op.kind.action != prev_op.kind.action:
        return False
    if op.kind.action == "swap":
        return op.aux == prev_op.aux
    home = prev.tasks[op.focal].resource_index
    if state.tasks[op.aux].resource_index != home:
        return False
    at = state.resources[home].task_chain.index(op.aux)
    if op.kind.horizontal == "right" and op.kind.vertical != "same":
        at += 1
    return at == prev.resources[home].task_chain.index(op.focal)
