"""Span tracing of reskit's layers, installed from outside the package.

``Tracer.install`` rebinds every traced function wherever reskit looks it
up: the module globals of ``episode``, ``operators``, ``instances``,
``schedule``, ``rl`` and ``stategraph``, and the methods on
``ScheduleState`` and ``QStore``. Each wrapper records one span (name,
start, end, parent) in memory. The wrappers read only the clock, never a
random number generator, so a traced run follows the same trajectories as
an untraced one. ``Tracer.restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from reskit import episode, instances, operators, rl, schedule, stategraph
from reskit.rl import QStore
from reskit.schedule import ScheduleState

OWNERS = (episode, operators, instances, schedule, rl, stategraph, ScheduleState, QStore)

# Span name -> the function object, as defined in its own module or class.
FUNCTIONS = {
    "schedule.clone": ScheduleState.clone,
    "schedule.elaborate": schedule.elaborate,
    "operators.propose": operators.propose,
    "operators.apply": operators.apply,
    "stategraph.signature": stategraph.signature,
    "rl.qkey": rl.qkey,
    "rl.select": rl.select,
    "rl.sarsa_update": QStore.sarsa_update,
    "rl.bump_trace": QStore.bump_trace,
    "rl.save_qstore": rl.save_qstore,
    "rl.load_qstore": rl.load_qstore,
    "episode.run_episode": episode.run_episode,
    "instances.generate_instance": instances.generate_instance,
    "instances.inject_disruption": instances.inject_disruption,
    "instances.sample_disruption": instances.sample_disruption,
    "instances.load_instance": instances.load_instance,
}


def bindings() -> dict[tuple[str, str], object]:
    """Every callable attribute of the traced owners, to check a restore."""
    return {
        (owner.__name__, attr): value
        for owner in OWNERS
        for attr, value in vars(owner).items()
        if callable(value)
    }


@dataclass
class Lookups:
    """``QStore.q`` lookups of real keys, and how many found an entry."""

    lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._paused = False
        self._saved: list[tuple[object, str, object]] = []
        # Lookups made inside greedy repairs (run_episode with learning off)
        # and inside training. A training update reads the key its trace
        # bump has just created, so only the greedy ones show key transfer.
        self.greedy = Lookups()
        self.training = Lookups()
        self._learning = True
        self.updates = 0
        self.traces_at_update = 0

    @contextmanager
    def paused(self):
        """Calls made inside pass straight through (the benchmark's checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)

        return wrapper

    def _observe_update(self, store, *_):
        self.updates += 1
        self.traces_at_update += len(store.traces)

    def _counting_q(self, fn):
        @functools.wraps(fn)
        def q(store, key):
            if not self._paused and key is not None:
                tally = self.training if self._learning else self.greedy
                tally.lookups += 1
                tally.hits += key in store.entries
            return fn(store, key)

        return q

    def _noting_mode(self, fn):
        """run_episode, noting whether lookups inside it are greedy."""

        @functools.wraps(fn)
        def run_episode(state, store, cfg, learning=True, rng=None):
            outer, self._learning = self._learning, learning
            try:
                return fn(state, store, cfg, learning, rng)
            finally:
                self._learning = outer

        return run_episode

    def install(self) -> None:
        wrappers = {}
        for name, fn in FUNCTIONS.items():
            observe = self._observe_update if name == "rl.sarsa_update" else None
            inner = self._noting_mode(fn) if name == "episode.run_episode" else fn
            wrappers[id(fn)] = self._span(name, inner, observe)
        wrappers[id(QStore.q)] = self._counting_q(QStore.q)
        for owner in OWNERS:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: (0, 0.0) for name in FUNCTIONS}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = out[name]
            out[name] = (calls + 1, self_s + (end - start) - inner)
        return out
