"""A fixed reference computation that tells how fast the machine runs now.

On a shared machine the speed of a CPU can drop to between 1/1.3 and 1/2
of its best, for periods from seconds to minutes, because of work outside
the benchmark. The benchmark times this computation just before each piece
of work it measures, and scales the work's time by ``REFERENCE_S`` over the
computation's time. The scaled time is what the work would take at the
speed where the computation takes ``REFERENCE_S``.

The computation does what the engine's hot path does: it deep-copies a
schedule of dataclass tasks, re-times every chain and sums the tardiness,
then compares task pairs as a proposal scan does. So a busy machine slows it
about as much as it slows the engine: on a 2-vCPU x86_64 VM, a slow period
took it 1.85 times as long and the engine's repairs 1.75 to 1.81 times,
where a plain integer loop took 1.45 times. It uses nothing from ``reskit``,
so a change to the engine leaves it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from time import perf_counter

# The computation's time on a quiet 2-vCPU x86_64 VM with Python 3.11.
REFERENCE_S = 0.0028


@dataclass
class _Task:
    id: str
    quantity: float
    due: float
    duration: float = 0.0
    start: float = 0.0
    finish: float = 0.0
    prev: str | None = None


@dataclass
class _Resource:
    id: str
    rates: dict[str, float]
    chain: list[str] = field(default_factory=list)


def _schedule() -> tuple[dict[str, _Task], list[_Resource]]:
    rng = Random(3)
    tasks = {f"t{i}": _Task(f"t{i}", rng.uniform(20, 60), rng.uniform(0, 200)) for i in range(300)}
    resources = [
        _Resource(f"r{j}", {"p": rng.uniform(5, 15)}, [f"t{i}" for i in range(j, 300, 12)])
        for j in range(12)
    ]
    return tasks, resources


_TASKS, _RESOURCES = _schedule()


def _compute() -> float:
    total = 0.0
    for _ in range(4):
        tasks = {tid: replace(t) for tid, t in _TASKS.items()}
        resources = [replace(r, rates=dict(r.rates), chain=list(r.chain)) for r in _RESOURCES]
        for r in resources:
            prev = None
            for tid in r.chain:
                t = tasks[tid]
                t.duration = t.quantity / r.rates["p"]
                t.start = prev.finish if prev else 0.0
                t.finish = t.start + t.duration
                t.prev = prev.id if prev else None
                total += max(0.0, t.finish - t.due)
                prev = t
        for r in resources[:4]:
            for a in r.chain[:6]:
                for b in r.chain[:6]:
                    if a != b and tasks[a].due < tasks[b].due:
                        total += 1.0
    return total


def seconds() -> float:
    """Run the reference computation once and return how long it took."""
    t0 = perf_counter()
    _compute()
    return perf_counter() - t0
