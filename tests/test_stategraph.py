import math
from decimal import ROUND_HALF_EVEN, Decimal
from random import Random

import pytest

from reskit.errors import NoFocalTask
from reskit.schedule import Resource, ScheduleState, Task, elaborate
from reskit.stategraph import (
    FAST_BOUND,
    MIDPOINT_GUARD,
    StateSignature,
    quantize,
    signature,
)

from helpers import quantize_oracle, random_state, two_task_state


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



def assert_quantize_matches_oracle(values) -> None:
    """``quantize`` returns the oracle's float, its sign included, for every
    value; NaN gives NaN."""
    bad = []
    for v in values:
        got, want = quantize(v), quantize_oracle(v)
        if got != want or math.copysign(1.0, got) != math.copysign(1.0, want):
            if not (math.isnan(got) and math.isnan(want)):
                bad.append((v.hex(), got, want))
        elif type(got) is not float:
            bad.append((v.hex(), got, want))
    assert not bad, bad[:5]


def with_neighbours(values):
    """Each value, its two float neighbours, and the negatives of all three."""
    for x in values:
        for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            yield v
            yield -v


def test_quantize_matches_decimal_form_on_every_thousandth():
    # Every k/1000 below 200 holds one two-place midpoint in ten, 2.675 among them.
    assert_quantize_matches_oracle(with_neighbours(k / 1000 for k in range(200_000)))


def test_quantize_matches_decimal_form_in_every_binade():
    rng = Random(37)
    values = []
    for e in range(-20, 53):
        lo, hi = 2.0**e, 2.0 ** (e + 1)
        values += [rng.uniform(lo, hi) for _ in range(200)]
        # Two-place midpoints in the binade, where the fast path must step aside.
        if hi >= 0.005:
            first, last = math.ceil(lo * 100 - 0.5), math.floor(hi * 100 - 0.5)
            values += [(rng.randint(first, last) + 0.5) / 100 for _ in range(200)]
    assert_quantize_matches_oracle(with_neighbours(values))


def test_quantize_matches_decimal_form_at_the_edges():
    edges = [
        FAST_BOUND, FAST_BOUND - 0.005, FAST_BOUND + 0.005, FAST_BOUND - 0.01,
        2.0**52, 2.0**53, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 0.005, 0.015,
    ]
    assert_quantize_matches_oracle(with_neighbours(edges))
    assert_quantize_matches_oracle([math.inf, -math.inf, math.nan])
    assert math.copysign(1.0, quantize(-0.0)) == math.copysign(1.0, quantize(-0.004)) == -1.0


def test_quantize_fast_path_returns_what_round_to_two_places_returns():
    # The fast path divides the rounded product by 100 where ``round(value,
    # 2)`` once stood; both must give the same float, the sign of a zero
    # included (``.hex()`` spells the sign out).
    rng = Random(43)
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, -1e-3, -0.004, -0.0049, 0.004]
    for _ in range(4000):
        values.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 9))
    for _ in range(2000):
        # Products just past the guard, on either side of a midpoint.
        n = rng.randint(-10**6, 10**6)
        for offset in (-MIDPOINT_GUARD, MIDPOINT_GUARD):
            edge = (n + 0.5 + offset) / 100
            values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    fast = near_guard = 0
    for v in values:
        scaled = v * 100.0
        gap = abs(scaled - math.floor(scaled) - 0.5)
        if not (abs(v) < FAST_BOUND and gap > MIDPOINT_GUARD):
            continue
        fast += 1
        near_guard += gap < 2 * MIDPOINT_GUARD
        assert quantize(v).hex() == round(v, 2).hex(), v.hex()
    assert fast > 9000 and near_guard > 3000
    assert quantize(-0.001).hex() == quantize(-0.0).hex() == "-0x0.0p+0"
