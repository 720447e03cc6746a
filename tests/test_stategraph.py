import math
from decimal import ROUND_HALF_EVEN, Decimal
from random import Random

import pytest

from reskit.errors import NoFocalTask
from reskit.schedule import Resource, ScheduleState, Task, elaborate
from reskit.stategraph import StateSignature, quantize, signature

from helpers import random_state, two_task_state


def paper_like_state() -> ScheduleState:
    """16 tasks on one unit-rate resource shaped to hit the aggregate tuple
    (totalWIP 46.83, taskNumber 16, maxTard 15, avgTard 2.5, totTard 40,
    initTardiness 28.5) with focal Task5."""
    tasks = {}
    chain = []
    for k in range(1, 17):
        qty = 3.33 if k == 16 else 2.9
        tasks[f"t{k}"] = Task(
            id=f"t{k}", name=f"Task{k}", product="A", quantity=qty, due_date=1000.0
        )
        chain.append(f"t{k}")
    s = elaborate(
        ScheduleState(
            resources=[Resource(id="r1", rates={"A": 1.0}, task_chain=chain)], tasks=tasks
        )
    )
    # dial in tardiness 15, 15, 10 on the last three tasks
    for tid, target in (("t14", 10.0), ("t15", 15.0), ("t16", 15.0)):
        s.tasks[tid].due_date = s.tasks[tid].finish - target
    s = elaborate(s)
    s.init_tardiness = 28.5
    s.focal_task = "t5"
    return s


def test_signature_matches_reference_tuple():
    sig = signature(paper_like_state())
    assert sig == StateSignature(
        total_wip=46.83,
        task_number=16,
        max_tardiness=15.0,
        avg_tardiness=2.5,
        total_tardiness=40.0,
        init_tardiness=28.5,
        focal_task="Task5",
    )


def test_signature_requires_focal():
    with pytest.raises(NoFocalTask):
        signature(elaborate(two_task_state()))


def test_signature_projects_away_non_signature_fields():
    a = paper_like_state()
    b = a.clone()
    b.tasks["t7"].name = "Renamed"  # not the focal, not an aggregate
    assert signature(a) == signature(b)


def test_signature_invariant_under_resource_reordering():
    rng = Random(23)
    for _ in range(30):
        raw = random_state(rng)
        if not raw.tasks:
            continue
        focal = sorted(raw.tasks)[0]
        s1 = elaborate(raw)
        s1.focal_task = focal
        flipped = raw.clone()
        flipped.resources = list(reversed(flipped.resources))
        s2 = elaborate(flipped)
        s2.focal_task = focal
        assert signature(s1) == signature(s2)


def test_quantize_round_half_even():
    assert quantize(40.004999) == 40.00
    assert quantize(0.125) == 0.12
    assert quantize(0.135) == 0.14
    assert quantize(2.675) == 2.68
    assert quantize(2.5) == 2.5
    assert quantize(-0.125) == -0.12


def test_quantize_keeps_huge_values():
    # whole floats beyond the 28-digit decimal context come back unchanged
    for value in (2.0**52, 1e30, -1e300, math.inf):
        assert quantize(value) == value
    assert math.isnan(quantize(math.nan))


def test_quantize_agrees_with_decimal_oracle():
    rng = Random(29)
    for _ in range(500):
        text = f"{rng.uniform(-100, 100):.6f}"
        expected = float(Decimal(text).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))
        assert quantize(float(text)) == expected


def test_quantize_stable_within_bucket():
    rng = Random(31)
    for _ in range(500):
        bucket = rng.randint(-5000, 5000) / 100.0
        x = bucket + rng.uniform(-0.004, 0.004)
        y = bucket + rng.uniform(-0.004, 0.004)
        assert quantize(x) == quantize(y) == quantize(bucket)

