"""Deictic repair operators: propose applicable moves/swaps, apply the splice.

Every operator is anchored on the state's focal task and parameterized by an
auxiliary task. Naming encodes three axes: vertical (up = a resource earlier
in the resource list, down = later, same = the focal's own resource),
horizontal (right = the auxiliary starts after the focal, left = before,
measured pre-move), and action (jump = re-insert the focal next to the
auxiliary, swap = exchange chain slots with it across resources).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NoFocalTask, OperatorNotApplicable
from .schedule import ScheduleState, elaborate

PROPOSAL_CAP = 10


class OperatorKind(str, Enum):
    UP_LEFT_JUMP = "up-left-jump"
    UP_RIGHT_JUMP = "up-right-jump"
    DOWN_LEFT_JUMP = "down-left-jump"
    DOWN_RIGHT_JUMP = "down-right-jump"
    SAME_LEFT_JUMP = "same-left-jump"
    SAME_RIGHT_JUMP = "same-right-jump"
    UP_LEFT_SWAP = "up-left-swap"
    UP_RIGHT_SWAP = "up-right-swap"
    DOWN_LEFT_SWAP = "down-left-swap"
    DOWN_RIGHT_SWAP = "down-right-swap"

    @property
    def vertical(self) -> str:
        return self.value.split("-")[0]

    @property
    def horizontal(self) -> str:
        return self.value.split("-")[1]

    @property
    def action(self) -> str:
        return self.value.split("-")[2]


@dataclass(frozen=True)
class RepairOperator:
    kind: OperatorKind
    focal: str
    aux: str
    target_resource: str


def propose(state: ScheduleState, cap: int = PROPOSAL_CAP) -> list[RepairOperator]:
    """Enumerate applicable operators for the current focal task.

    Returns at most ``cap`` operators in a deterministic order: ascending
    distance between the auxiliary's and the focal's start times, ties broken
    by auxiliary task id, then kind label. When more instantiations match
    than the cap allows, the closest-start ones survive.
    """
    if state.focal_task is None:
        raise NoFocalTask("propose requires a focal task")
    focal = state.tasks[state.focal_task]
    if focal.executing:
        return []
    focal_res = state.resource_of(focal.id)
    focal_idx = state.resource_index(focal_res.id)

    found: list[RepairOperator] = []
    for ri, r in enumerate(state.resources):
        for tid in r.task_chain:
            if tid == focal.id:
                continue
            aux = state.tasks[tid]
            if aux.executing:
                continue
            if aux.start > focal.start:
                horizontal = "right"
            elif aux.start < focal.start:
                horizontal = "left"
            else:
                continue
            if ri == focal_idx:
                found.append(
                    RepairOperator(OperatorKind(f"same-{horizontal}-jump"), focal.id, tid, r.id)
                )
                continue
            vertical = "up" if ri < focal_idx else "down"
            if focal.product in r.rates:
                found.append(
                    RepairOperator(
                        OperatorKind(f"{vertical}-{horizontal}-jump"), focal.id, tid, r.id
                    )
                )
                if aux.product in focal_res.rates:
                    found.append(
                        RepairOperator(
                            OperatorKind(f"{vertical}-{horizontal}-swap"), focal.id, tid, r.id
                        )
                    )
    found.sort(
        key=lambda op: (abs(state.tasks[op.aux].start - focal.start), op.aux, op.kind.value)
    )
    return found[:cap]


def _check_applicable(state: ScheduleState, op: RepairOperator) -> None:
    if op.focal != state.focal_task:
        raise OperatorNotApplicable(f"{op.focal} is not the focal task")
    if op.focal == op.aux:
        raise OperatorNotApplicable("focal and auxiliary must differ")
    focal = state.tasks.get(op.focal)
    aux = state.tasks.get(op.aux)
    if focal is None or aux is None:
        raise OperatorNotApplicable("focal or auxiliary task missing")
    if focal.executing or aux.executing:
        raise OperatorNotApplicable("executing tasks are frozen")

    focal_res = state.resource_of(focal.id)
    aux_res = state.resource_of(aux.id)
    if aux_res.id != op.target_resource:
        raise OperatorNotApplicable(f"auxiliary {op.aux} is not on {op.target_resource}")

    vertical = op.kind.vertical
    if vertical == "same":
        if aux_res.id != focal_res.id:
            raise OperatorNotApplicable("same-resource operator across resources")
    else:
        fi = state.resource_index(focal_res.id)
        ai = state.resource_index(aux_res.id)
        if aux_res.id == focal_res.id:
            raise OperatorNotApplicable("cross-resource operator within one resource")
        if vertical == "up" and not ai < fi:
            raise OperatorNotApplicable("up requires an earlier target resource")
        if vertical == "down" and not ai > fi:
            raise OperatorNotApplicable("down requires a later target resource")

    if op.kind.horizontal == "right" and not aux.start > focal.start:
        raise OperatorNotApplicable("right requires the auxiliary to start later")
    if op.kind.horizontal == "left" and not aux.start < focal.start:
        raise OperatorNotApplicable("left requires the auxiliary to start earlier")

    if vertical != "same" and focal.product not in aux_res.rates:
        raise OperatorNotApplicable(
            f"{aux_res.id} cannot process {focal.product}"
        )
    if op.kind.action == "swap" and aux.product not in focal_res.rates:
        raise OperatorNotApplicable(
            f"{focal_res.id} cannot process {aux.product}"
        )


def apply(state: ScheduleState, op: RepairOperator) -> ScheduleState:
    """Apply the operator's splice and return the re-elaborated state.

    Jump: the focal leaves its slot (its neighbours link up) and re-enters
    next to the auxiliary, after it for right kinds, before it for left.
    Swap: focal and auxiliary exchange chain slots across their resources.
    Durations follow from the new resources on re-elaboration; the task
    multiset is unchanged.
    """
    _check_applicable(state, op)
    s = state.clone()
    src = s.resource_of(op.focal)
    dst = s.resource_by_id(op.target_resource)

    if op.kind.action == "jump":
        src.task_chain.remove(op.focal)
        at = dst.task_chain.index(op.aux)
        if op.kind.horizontal == "right":
            at += 1
        dst.task_chain.insert(at, op.focal)
    else:
        i = src.task_chain.index(op.focal)
        j = dst.task_chain.index(op.aux)
        src.task_chain[i] = op.aux
        dst.task_chain[j] = op.focal

    return elaborate(s)
