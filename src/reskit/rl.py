"""Tabular SARSA(lambda) over (state signature, operator) keys.

Preferences live in a lazily grown table keyed by the quantized state
signature plus the operator's name and its auxiliary task's name (its focal
is the one the signature names), the in-memory analogue of per-situation
preference rules. The table interns each key once into an integer slot and
keeps the values in a list by slot and the set of its keys' quantized
total tardiness, so a greedy pick can pass over a state that no key can
match. The eligibility traces are one dict that maps a slot to its trace,
in the order traced, so an update walks them without hashing a key; they
are replacing (bumped to 1 on visit), decay by gamma*lambda per step, and
are cleared between episodes. Neither the table, its set of totals nor the
trace dict can be rebound.

A Q-store file holds one ``_record`` line per entry, and the loader takes a
line only if ``_record`` writes it back unchanged.

Rewards are hours of tardiness removed (negative when a step makes things
worse), plus a +1 terminal bonus when a step lands at or below the
pre-disruption tardiness, so goal states beat tardiness-equal non-goals.
"""

from __future__ import annotations

import math
import re
from collections.abc import ItemsView, Iterator, Mapping
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import NamedTuple

from .errors import (
    CorruptQStoreError,
    EmptyProposalSet,
    InvalidConfig,
    QStoreVersionError,
)
from .operators import OperatorKind, RepairOperator
from .schedule import ScheduleState
from .stategraph import StateSignature

GOAL_TOLERANCE = 1e-9
GOAL_BONUS = 1.0

# Traces below this are dropped; their remaining contribution to any update
# is orders of magnitude under every tolerance in use.
TRACE_FLOOR = 1e-16

QSTORE_VERSION = "v1"


def goal_reached(state: ScheduleState) -> bool:
    """True when total tardiness is back at or below the pre-disruption level."""
    return state.total_tardiness <= state.init_tardiness + GOAL_TOLERANCE


def reward(before: ScheduleState, after: ScheduleState) -> float:
    """Tardiness reduced by the step, plus the terminal goal bonus."""
    value = before.total_tardiness - after.total_tardiness
    if goal_reached(after):
        value += GOAL_BONUS
    return value


@dataclass(frozen=True)
class Hyperparams:
    alpha: float = 0.1
    gamma: float = 0.9
    lam: float = 0.1
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "lam", "epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0, 1], got {v}")


class QKey(NamedTuple):
    """A preference-table key: signature, operator name and aux task name.

    Every operator moves the focal the signature names, so the key holds it
    once. A tuple, so it hashes and compares in C.
    """

    sig: StateSignature
    op_name: str
    op_aux: str


def qkey(state: ScheduleState, op: RepairOperator, sig: StateSignature) -> QKey:
    """``op``'s key in ``state``, whose ``signature(state)`` is ``sig``."""
    return QKey(sig, op.kind.label, state.tasks[op.aux].name)


class QStore:
    """Preference table plus eligibility traces and hyperparameters.

    Each key is interned once into an integer slot: ``entries`` maps it to
    its slot and keeps the Q values in a list by slot. Slot 0 is no key's;
    it holds the 0.0 that a key with no entry reads. A key gets its slot,
    and so an entry worth 0.0, the first time it is bumped, assigned or
    loaded. Keys are never removed, so slots are only appended: slot i is
    the i-th key entered.

    ``entries`` is a ``QKey``-keyed mapping over the slots, in
    first-insertion order as a dict gives it: ``in`` and ``len`` cost O(1)
    and copy nothing, and an assignment interns its key. ``known_totals``
    is the set of ``sig.total_tardiness`` over the keys of ``entries``,
    kept by ``entries`` as it gives a key its slot: a key can match a
    state only if its total is the state's quantized total, so where that
    is not in the set every key of the state reads 0. ``traces`` is a
    plain dict that maps a slot to its trace, in the order traced, so an
    update walks it without hashing a key. None of the three can be
    rebound, so ``q`` always reads ``entries``. Single writer during
    training; reads are safe to share.
    """

    def __init__(self, hyper: Hyperparams | None = None):
        self.hyper = hyper or Hyperparams()
        self._entries = _Entries()
        self._slots, self._values = self._entries._slots, self._entries._values
        self._traces: dict[int, float] = {}

    # C-level getters: perfbench reads ``entries`` on every ``q`` and ``traces`` on every update.
    entries = property(attrgetter("_entries"))
    known_totals = property(attrgetter("_entries._totals"))
    traces = property(attrgetter("_traces"))

    def q(self, key: QKey | None) -> float:
        """``key``'s value: 0.0 for a key with no entry, ``None`` (past an episode's end) too."""
        return self._values[self._slots.get(key, 0)]

    def bump_trace(self, key: QKey) -> None:
        """Replacing traces: the visited key's trace becomes exactly 1."""
        self._traces[self._entries.slot(key)] = 1.0

    def sarsa_update(self, key: QKey, reward_value: float, next_key: QKey | None) -> None:
        """One TD step: every traced key moves by alpha * delta * trace.

        ``next_key`` is None at episode end, bootstrapping 0. The current
        key's trace must have been bumped for this visit. A trace that
        decays to ``TRACE_FLOOR`` or below is dropped; the others keep
        their order.
        """
        h = self.hyper
        delta = reward_value + h.gamma * self.q(next_key) - self.q(key)
        step = h.alpha * delta
        decay = h.gamma * h.lam
        values, traces = self._values, self._traces
        dropped = []
        for i, e in traces.items():
            values[i] += step * e
            e *= decay
            if e > TRACE_FLOOR:
                traces[i] = e
            else:
                dropped.append(i)
        for i in dropped:
            del traces[i]

    def clear_traces(self) -> None:
        self._traces.clear()


class _Entries(Mapping):
    """``QStore.entries``: each interned key's value, in slot order.

    ``slot`` is the one place a key enters, so it alone keeps ``_totals``,
    the set of the keys' ``sig.total_tardiness``.
    """

    def __init__(self) -> None:
        self._slots: dict[QKey, int] = {}
        self._values: list[float] = [0.0]
        self._totals: set[float] = set()

    def slot(self, key: QKey) -> int:
        """``key``'s slot, appended with the value 0.0, and its total entered,
        if it has none."""
        values = self._values
        i = self._slots.setdefault(key, len(values))
        if i == len(values):
            values.append(0.0)
            self._totals.add(key.sig.total_tardiness)
        return i

    def __getitem__(self, key: QKey) -> float:
        return self._values[self._slots[key]]

    def __setitem__(self, key: QKey, value: float) -> None:
        self._values[self.slot(key)] = value

    def __contains__(self, key: object) -> bool:
        return key in self._slots

    def __iter__(self) -> Iterator[QKey]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def items(self) -> ItemsView[QKey, float]:
        return _EntryItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _EntryItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[QKey, float]]:
        entries = self._mapping
        return zip(entries._slots, islice(entries._values, 1, None))


def select(
    store: QStore,
    state: ScheduleState,
    proposals: list[RepairOperator],
    rng: Random | None,
    sig: StateSignature,
) -> tuple[RepairOperator, QKey]:
    """Pick from the proposal list; returns the pick with its key.

    With ``rng`` the pick is epsilon-greedy at the store's epsilon: one
    ``random()``, then one ``randrange`` over the proposals when it
    explores. With ``rng`` None the pick is greedy and draws nothing.
    Greedy ties resolve to the earliest proposal in the list's
    deterministic order; unseen keys read as 0.

    A greedy pick makes one ``QStore.q`` lookup per proposal, with a plain
    tuple that hashes and compares equal to its ``QKey``; it builds one
    ``QKey``, the winner's. Either pick keys its operator with
    ``qkey(state, op, sig)``; ``sig`` must be ``signature(state)``.
    ``episode._pick`` bypasses it only for a pick with no ``rng`` on a
    store that does not hold the state's quantized total, and takes the
    first proposal unsigned.
    """
    if not proposals:
        raise EmptyProposalSet("no proposals to select from")
    if rng is not None and rng.random() < store.hyper.epsilon:
        op = proposals[rng.randrange(len(proposals))]
        return op, qkey(state, op, sig)
    tasks = state.tasks
    q = store.q
    best = proposals[0]
    best_q = q((sig, best.kind.label, tasks[best.aux].name))
    for op in proposals[1:]:
        value = q((sig, op.kind.label, tasks[op.aux].name))
        if value > best_q:
            best, best_q = op, value
    return best, qkey(state, best, sig)


def _sig_to_fields(sig: StateSignature) -> list[str]:
    return [
        f"{sig.total_wip:.2f}",
        str(sig.task_number),
        f"{sig.max_tardiness:.2f}",
        f"{sig.avg_tardiness:.2f}",
        f"{sig.total_tardiness:.2f}",
        f"{sig.init_tardiness:.2f}",
        sig.focal_task,
    ]


def _record(key: QKey, value: float) -> str:
    """An entry's one Q-store line; ``load_qstore`` takes only what this writes."""
    fields = [*_sig_to_fields(key.sig), key.op_name, key.sig.focal_task, key.op_aux, repr(value)]
    return "\t".join(fields)


def _header(hyper: Hyperparams) -> str:
    """A Q-store's first line; ``load_qstore`` takes only what this writes.

    Each figure is written as a float, as the loader reads it back.
    """
    return (
        f"{QSTORE_VERSION} alpha={float(hyper.alpha)!r} gamma={float(hyper.gamma)!r} "
        f"lambda={float(hyper.lam)!r} epsilon={float(hyper.epsilon)!r}"
    )


def qstore_text(store: QStore) -> str:
    """The store as versioned line-oriented text, as ``save_qstore`` writes it.

    Records are sorted for byte-stable output. Traces are transient and not
    persisted. The ``_header`` line comes first, then one ``_record`` line
    per entry, each ended by ``"\\n"``.
    """
    records = sorted(_record(key, value) for key, value in store.entries.items())
    return "\n".join([_header(store.hyper), *records]) + "\n"


def save_qstore(store: QStore, path: str | Path) -> int:
    """Write ``qstore_text(store)`` to ``path``; returns the entry count."""
    Path(path).write_text(qstore_text(store), encoding="utf-8")
    return len(store.entries)


_HEADER_RE = re.compile(
    r"^(v\d+) alpha=(\S+) gamma=(\S+) lambda=(\S+) epsilon=(\S+)$"
)
_OPERATOR_NAMES = frozenset(kind.value for kind in OperatorKind)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def load_qstore(path: str | Path) -> QStore:
    """Read a store ``save_qstore`` wrote; raise ``CorruptQStoreError`` on
    anything it would not write.

    The header loads only if ``_header`` gives back the very line read from
    its parsed hyperparameters, and a record only if ``_record`` does from
    its parsed key and value, so each figure is spelled as the saver spells
    it and the two focal columns agree. Lines end at ``"\\n"`` alone, as
    the saver ends them, so a ``"\\r"`` before it fails the round trip.
    What a round trip cannot catch is checked on its own: text that is not
    UTF-8, a last line with no line end, the version, the field count, a
    number that is not finite, a negative task count, an unknown operator
    and a key given twice."""
    try:
        # Bytes, then decoded: text mode would turn "\r\n" into "\n".
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptQStoreError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.split("\n")
    if lines.pop():
        raise CorruptQStoreError(f"{path}:{len(lines) + 1}: no line end")
    if not lines:
        raise CorruptQStoreError(f"{path}: empty file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise CorruptQStoreError(f"{path}: bad header {lines[0]!r}")
    if m.group(1) != QSTORE_VERSION:
        raise QStoreVersionError(f"{path}: version {m.group(1)}, expected {QSTORE_VERSION}")
    try:
        hyper = Hyperparams(*map(float, m.group(2, 3, 4, 5)))  # alpha, gamma, lambda, epsilon
    except (ValueError, InvalidConfig) as exc:
        raise CorruptQStoreError(f"{path}: bad hyperparameters: {exc}") from exc
    if _header(hyper) != lines[0]:
        raise CorruptQStoreError(f"{path}:1: save_qstore would write {_header(hyper)!r}")

    store = QStore(hyper)
    entries = store.entries
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 11:
            raise CorruptQStoreError(f"{path}:{lineno}: expected 11 fields, got {len(fields)}")
        try:
            # Columns 0-6 in ``StateSignature`` order, as ``_sig_to_fields`` writes them.
            sig = StateSignature(
                _finite(fields[0]), int(fields[1]), *map(_finite, fields[2:6]), fields[6]
            )
            value = _finite(fields[10])
        except ValueError as exc:
            raise CorruptQStoreError(f"{path}:{lineno}: {exc}") from exc
        if sig.task_number < 0:
            raise CorruptQStoreError(f"{path}:{lineno}: negative task count {sig.task_number}")
        if fields[7] not in _OPERATOR_NAMES:
            raise CorruptQStoreError(f"{path}:{lineno}: unknown operator {fields[7]!r}")
        key = QKey(sig, fields[7], fields[9])
        record = _record(key, value)
        if record != line:
            raise CorruptQStoreError(f"{path}:{lineno}: save_qstore would write {record!r}")
        if key in entries:
            raise CorruptQStoreError(f"{path}:{lineno}: key repeated from an earlier line")
        entries[key] = value
    return store


def top_preferences(store: QStore, per_signature: int = 5) -> list[tuple[QKey, float]]:
    """Best-valued entries grouped per signature, for inspection output."""
    if per_signature < 1:
        raise InvalidConfig(f"per_signature must be positive, got {per_signature}")
    by_sig: dict[StateSignature, list[tuple[QKey, float]]] = {}
    for key, value in store.entries.items():
        by_sig.setdefault(key.sig, []).append((key, value))
    out: list[tuple[QKey, float]] = []
    for sig in sorted(by_sig, key=lambda s: _sig_to_fields(s)):
        ranked = sorted(by_sig[sig], key=lambda kv: (-kv[1], kv[0].op_name, kv[0].op_aux))
        out.extend(ranked[:per_signature])
    return out
