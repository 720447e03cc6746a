"""The repair loop: check goal, propose, select, apply, learn.

An episode starts from an elaborated state (focal task set, pre-disruption
tardiness snapshotted) and runs repair steps until the goal is reached, the
step limit hits, or nothing is proposable. With learning on, each step
makes an epsilon-greedy pick, bumps the visited key's trace and applies one
SARSA update; traces are cleared when the episode ends. With learning off
each pick is greedy and the store is left untouched.

The loop records the states it visits in one table, fresh for
``run_episode`` and shared by all of ``train``'s episodes, which start from
the same state with the same focal and ``init_tardiness``. States are
values and every derived field is a function of the chains and those fixed
inputs (a state re-timed in part carries the floats of its full
elaboration), so a state found in the table takes its proposals and
signature from there, with no ``propose`` and no ``signature``. The table
is keyed by the exact ``(total_tardiness, total_wip, max_tardiness)``; each
key holds a short list of entries, each the list ``[chains, proposals,
signature, first, succ]``, where ``first`` is the step count at the state's
first visit, and a state finds its own by ``==`` on the chain lists, so
equal chains are the only revisit and the floats only pick the bucket (a
NaN total misses). Its keys and chain lists hold no ``ScheduleState``;
``succ`` is the one field that does.

``_pick`` alone chooses a step's operator. A greedy pick on a frozen store
that is empty, or whose ``known_totals`` lacks the state's quantized total
tardiness, takes the first proposal, as no key can match the state, every
key reads 0 and ``select`` keeps the first of equal values: it signs no
state and builds no key. Any other pick signs the state once, into the
entry's ``signature``, and calls ``select``. Unless it explores, ``select``
makes the same verdict on the signature itself: it reads the store's row
for it once, and where there is none it takes the first proposal with no
lookup, so a learning pick pays for no lookup at a state no key matches.

``succ`` is a transition memo: None until a learning run re-enters the
state, then a dict from operator to the successor state that ``apply``
built for it. An operator found there takes that successor with no
``apply``; one not found is applied and entered. A state visited once keeps
nothing, so training keeps successors only where its loops pass again.

A greedy run draws no random number, so with the store frozen its picks are
functions of the state: a state whose ``first`` is below the step count
starts a cycle, the steps since repeat until the episode ends (a goal or a
state with no proposals ends it, so neither lies on a cycle), and whole
periods of their records, the same record objects again, are appended up to
the step limit. The ordinary loop takes the fewer steps that remain, so the
final state and the outcome come out as a step-by-step run leaves them. A
greedy run makes no memo: a re-entry starts its cycle skip, which needs
none. A learning run never reads ``first``: its store changes every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random

from .errors import InvalidConfig
from .operators import RepairOperator, apply, propose
from .rl import QKey, QStore, goal_reached, reward, select
from .schedule import ScheduleState
from .stategraph import quantize, signature


class Outcome(str, Enum):
    GOAL_REACHED = "goal-reached"
    STEP_LIMIT = "step-limit"
    NO_PROPOSALS = "no-proposals"


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.max_steps) is not int or self.max_steps <= 0:  # a bool is no count
            raise InvalidConfig(f"max_steps must be a positive integer, got {self.max_steps!r}")


@dataclass
class StepRecord:
    """One step of an episode; read-only, as a greedy cycle's copied
    period shares its records with the period before."""

    operator: RepairOperator
    source_resource: str
    tardiness_before: float
    tardiness_after: float
    reward: float
    proposal_count: int


@dataclass
class EpisodeResult:
    outcome: Outcome
    steps: list[StepRecord]
    final_state: ScheduleState


def run_episode(
    state: ScheduleState,
    store: QStore,
    cfg: EpisodeConfig,
    learning: bool = True,
    rng: Random | None = None,
) -> EpisodeResult:
    """Run one repair episode from ``state``; mutates ``store`` iff learning.

    ``state`` must be elaborated and is left as it is. The result's
    ``final_state`` is ``state`` itself when no step is taken; in a
    learning run it may be a state object that an earlier step reached,
    or, under ``train``, an earlier episode, taken from the transition memo.

    With ``learning`` on, ``rng`` drives the epsilon-greedy picks; when it
    is None a ``Random(cfg.seed)`` does. With ``learning`` off every pick
    is greedy, ``rng`` is ignored and left as it is, and a state whose
    chains equal an earlier one's starts a cycle whose records are
    already in ``steps``: whole periods of them are appended up to
    ``cfg.max_steps``. Greedy picks are exact functions of the state
    under a frozen store, so the records, the outcome and the final chains
    are those of a step-by-step run. A frozen store reads 0 for every key
    of a state whose quantized total none of its keys holds, an empty one
    everywhere, so there each pick is the first proposal and the state is
    not signed.
    """
    if not learning:
        rng = None  # a greedy pick draws nothing
    elif rng is None:
        rng = Random(cfg.seed)
    return _run(state, store, cfg, rng, {})


# A state's (total_tardiness, total_wip, max_tardiness) -> its entries, each
# [chains, proposals, signature or None, first visit's step, successor map or None].
_Entry = list
_Table = dict[tuple[float, float, float], list[_Entry]]


def _run(
    state: ScheduleState,
    store: QStore,
    cfg: EpisodeConfig,
    rng: Random | None,
    table: _Table,
) -> EpisodeResult:
    """``run_episode``'s loop, learning iff ``rng`` is given; ``table``
    holds the states visited before, and gains the ones this run visits."""
    steps: list[StepRecord] = []
    prev_key = r = None  # the last step's key and reward
    while True:
        if goal_reached(state):
            outcome = Outcome.GOAL_REACHED
            break
        n = len(steps)
        if n == cfg.max_steps:
            outcome = Outcome.STEP_LIMIT
            break
        entry, known = _visit(table, state, n)
        _, proposals, _, first, succ = entry
        if not proposals:
            outcome = Outcome.NO_PROPOSALS
            break
        if rng is None and first < n:
            # This state is the one after step first: steps[first:] repeat from here.
            periods = (cfg.max_steps - n) // (n - first)
            if periods:
                steps += steps[first:] * periods
                continue
        elif known and rng is not None and succ is None:
            succ = entry[4] = {}  # a learning run re-enters the state: open its map
        op, key = _pick(store, state, entry, rng)
        if rng is not None:
            if steps:
                store.sarsa_update(prev_key, r, key)
            store.bump_trace(key)
        source = state.resources[state.focal_index].id
        nxt = succ.get(op) if succ is not None else None
        if nxt is None:
            nxt = apply(state, op)
            if succ is not None:
                succ[op] = nxt
        r = reward(state, nxt)
        steps.append(
            StepRecord(
                operator=op,
                source_resource=source,
                tardiness_before=state.total_tardiness,
                tardiness_after=nxt.total_tardiness,
                reward=r,
                proposal_count=len(proposals),
            )
        )
        state, prev_key = nxt, key

    # An episode that took a step ends the same way: bootstrap 0, drop traces.
    if rng is not None and steps:
        store.sarsa_update(prev_key, r, None)
        store.clear_traces()
    return EpisodeResult(outcome, steps, state)


def _visit(table: _Table, state: ScheduleState, n: int) -> tuple[_Entry, bool]:
    """``state``'s entry, made unsigned at step ``n`` if new, and whether ``table`` held it."""
    chains = [r.task_chain for r in state.resources]
    bucket = table.setdefault((state.total_tardiness, state.total_wip, state.max_tardiness), [])
    for entry in bucket:
        if entry[0] == chains:
            return entry, True
    entry = [chains, propose(state), None, n, None]
    bucket.append(entry)
    return entry, False


def _pick(
    store: QStore, state: ScheduleState, entry: _Entry, rng: Random | None
) -> tuple[RepairOperator, QKey | None]:
    """The step's operator and key: the first proposal and None if the pick is greedy
    and the store is empty or lacks ``state``'s quantized total, else ``select``'s,
    with ``state`` signed once into ``entry``."""
    if rng is None:
        totals = store.known_totals
        if not totals or quantize(state.total_tardiness) not in totals:
            return entry[1][0], None
    if entry[2] is None:
        entry[2] = signature(state)
    return select(store, state, entry[1], rng, entry[2])


def train(
    disrupted: ScheduleState,
    store: QStore,
    episodes: int,
    cfg: EpisodeConfig,
) -> list[EpisodeResult]:
    """Run learning episodes, each from the disrupted state.

    Fully deterministic under ``cfg.seed``: one generator drives all
    episodes in order. Where ``run_episode`` gives each episode a table
    of its own, these episodes share one, made for this call and dropped
    when it returns, so a state an earlier episode reached is neither
    proposed nor signed again, and a transition out of a re-entered state
    is applied again at most once; each episode takes the steps
    ``run_episode`` would take from the same generator.
    """
    if episodes <= 0:
        raise InvalidConfig(f"episodes must be positive, got {episodes}")
    rng = Random(cfg.seed)
    table: _Table = {}
    return [_run(disrupted, store, cfg, rng, table) for _ in range(episodes)]


def format_trace(result: EpisodeResult) -> str:
    """Line-oriented operator trace, one ``step k: ...`` line per step."""
    return "\n".join(
        f"step {step['step']}: {step['kind']}({step['focal']}, {step['aux']})"
        f" resource {step['source_resource']}->{step['target_resource']}"
        f" totTard {step['tardiness_before']:g}->{step['tardiness_after']:g}"
        for step in trace_dict(result)["steps"]
    )


def trace_dict(result: EpisodeResult) -> dict:
    """Structured episode trace for JSON output and the renderer."""
    final = result.final_state
    return {
        "outcome": result.outcome.value,
        "init_tardiness": final.init_tardiness,
        "final_tardiness": final.total_tardiness,
        "steps": [
            {
                "step": i,
                "kind": s.operator.kind.value,
                "focal": final.tasks[s.operator.focal].name,
                "aux": final.tasks[s.operator.aux].name,
                "source_resource": s.source_resource,
                "target_resource": s.operator.target_resource,
                "tardiness_before": s.tardiness_before,
                "tardiness_after": s.tardiness_after,
                "reward": s.reward,
                "proposal_count": s.proposal_count,
            }
            for i, s in enumerate(result.steps, start=1)
        ],
    }
