"""The learned-key signature: a quantized feature tuple of a schedule state.

The signature is what learning sees of a state: the aggregate figures, the
pre-disruption tardiness and the focal task's name. Quantization is decimal
round-half-even at two places, applied to the float's shortest round-trip
decimal form. ``quantize`` rounds ``value * 100.0`` to an integer, which it
divides by 100, when the value is below 2**30 in magnitude and the product
lies farther than 1e-4 from a rounding midpoint. There the exact value and
the shortest decimal form lie too close together for a midpoint to fall
between them, so both round to the same two places. Every other value is
rounded on its shortest decimal form with ``Decimal``.

Everything here is a pure function of the state.
"""

from __future__ import annotations

import math
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


# ``quantize``'s fast path: the magnitude it takes values below, and how
# near (in hundredths) to a rounding midpoint it hands them to ``Decimal``.
FAST_BOUND = 2.0**30
MIDPOINT_GUARD = 1e-4


def quantize(value: float) -> float:
    """Round a float to 2 decimals, half-even, on its shortest decimal form.

    For ``abs(value) < FAST_BOUND`` it takes the fast path unless ``scaled =
    value * 100.0`` lies within ``MIDPOINT_GUARD`` of a half. The shortest
    decimal form differs from the exact binary value by at most half an
    ulp, about 6e-6 hundredths below the bound; with the 8e-6 error of the
    product, neither can cross a midpoint that lies farther away than the
    guard, so ``round(scaled)`` is the integer n that both round to. The
    fast path returns ``copysign(n / 100, value)``, the float that
    ``round(value, 2)`` gives: n is exact, IEEE division gives the double
    nearest n/100, and ``copysign`` keeps the sign of a zero. Every other
    value takes the ``Decimal`` path below.
    """
    if -FAST_BOUND < value < FAST_BOUND:
        scaled = value * 100.0
        if abs(scaled - math.floor(scaled) - 0.5) > MIDPOINT_GUARD:
            return math.copysign(round(scaled) / 100, value)
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
        quantize(state.total_wip),
        state.task_number,
        quantize(state.max_tardiness),
        quantize(state.avg_tardiness),
        quantize(state.total_tardiness),
        quantize(state.init_tardiness),
        focal.name,
    )
