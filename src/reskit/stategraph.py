"""The learned-key signature: a quantized feature tuple of a schedule state.

The signature is what learning sees of a state: the aggregate figures, the
pre-disruption tardiness and the focal task's name. Quantization is decimal
round-half-even at two places, applied to the float's shortest round-trip
decimal form.

Everything here is a pure function of the state.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal
from typing import NamedTuple

from .errors import NoFocalTask
from .schedule import ScheduleState


class StateSignature(NamedTuple):
    """The abstracted features that identify a state for learning.

    All hour-valued fields are quantized to 2 decimals; two states with the
    same signature are indistinguishable to the preference store. A tuple,
    so it hashes and compares in C.
    """

    total_wip: float
    task_number: int
    max_tardiness: float
    avg_tardiness: float
    total_tardiness: float
    init_tardiness: float
    focal_task: str


def quantize(value: float) -> float:
    """Round to 2 decimals, half-even, on the shortest decimal form."""
    # From 2**52 up floats are whole, and the 28-digit context cannot hold the
    # largest of them; these, infinities and NaN are returned as they are.
    if not abs(value) < 2**52:
        return float(value)
    return float(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def signature(state: ScheduleState) -> StateSignature:
    if state.focal_task is None:
        raise NoFocalTask("signature requires a focal task")
    focal = state.tasks[state.focal_task]
    return StateSignature(
        total_wip=quantize(state.total_wip),
        task_number=state.task_number,
        max_tardiness=quantize(state.max_tardiness),
        avg_tardiness=quantize(state.avg_tardiness),
        total_tardiness=quantize(state.total_tardiness),
        init_tardiness=quantize(state.init_tardiness),
        focal_task=focal.name,
    )

