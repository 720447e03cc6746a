"""The repair loop: check goal, propose, select, apply, learn.

An episode starts from an elaborated state (focal task set, pre-disruption
tardiness snapshotted) and runs repair steps until the goal is reached, the
step limit hits, or nothing is proposable. With learning on, each step
makes an epsilon-greedy pick, bumps the visited key's trace and applies one
SARSA update; traces are cleared when the episode ends. With learning off
each pick is greedy and the store is left untouched.

The loop keeps one step of history: the state before the current one, its
proposal list and the operator that left it. A step that ``undoes`` the
last one goes back to that state and reuses its proposals, with no
``apply`` and no ``propose``; the state just left becomes the history, so a
loop between two states costs neither on any later step. States are
values, and every derived field is a function of the chains, so the
episode takes the same choices and yields the same floats either way.

A greedy run draws no random number: ``select`` gets no generator, so
with the store frozen the pick, the next state and the step's record are
functions of the state. The loop uses this to skip the rest of a greedy
cycle: once a state repeats, the steps since its first visit repeat until
the episode ends (a goal or a state with no proposals ends it, so neither
lies on a cycle). An index from each state's ``QKey`` (its signature and
its pick) to the step count at its first visit and its ``resources`` list
finds the repeat with one dict lookup a step; the chains of two states are
compared only when their keys are equal. Chains and the episode's fixed
inputs determine a state, so equal chains are the same state. The pick in
the key keeps apart states that share a signature but not a move, which
could otherwise hold a cycle state's entry and hide the cycle. Whole
periods of the cycle's records, the same record objects again, are
appended up to the step limit and the ordinary loop takes the fewer steps
that remain, so the final state, the outcome and the undo history come out
as a step-by-step run leaves them. The index keeps each greedy state's
``resources`` list alive until the episode ends. Training never builds it:
its store changes every step.

``train`` instead keeps a table of the states its episodes reach, shared by
all of them: every episode starts from the same state, with the same focal
and ``init_tardiness``, so later episodes walk much of the ground of earlier
ones. A state's proposals and signature are functions of its chains and
those fixed inputs, and a state re-timed in part carries the floats of its
full elaboration, so a state whose chains are in the table takes its
proposals and signature from there, with no ``propose`` and no
``signature``. The table is keyed by the exact ``(total_tardiness,
total_wip, max_tardiness)``; each key holds a short list of ``(chains,
proposals, signature)`` entries, and a state finds its own by ``==`` on
the chain lists, so the floats only pick the bucket (a NaN total misses).
It holds no ``ScheduleState`` and no ``Resource``, only the chain lists the
states share, and it lives as long as the ``train`` call. Greedy runs keep
the ``QKey`` index above instead: it is keyed on the ``QKey`` that
``select`` returns anyway, so a greedy step builds no chain list to find
its repeat, and the index is dropped when the episode ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random

from .errors import InvalidConfig
from .operators import RepairOperator, apply, propose, undoes
from .rl import QStore, goal_reached, reward, select
from .schedule import ScheduleState
from .stategraph import StateSignature, signature


class Outcome(str, Enum):
    GOAL_REACHED = "goal-reached"
    STEP_LIMIT = "step-limit"
    NO_PROPOSALS = "no-proposals"


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise InvalidConfig(f"max_steps must be positive, got {self.max_steps}")


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
    ``final_state`` may be an earlier state object of the episode: a step
    that undoes the last one returns to the state before it, and that may
    be ``state`` itself, as it is when no step is taken.

    With ``learning`` on, ``rng`` drives the epsilon-greedy picks; when it
    is None a ``Random(cfg.seed)`` does. With ``learning`` off every pick
    is greedy, ``rng`` is ignored and left as it is, and a state that
    repeats an earlier one (equal ``QKey``, then equal chains) starts a
    cycle whose records are already in ``steps``: whole periods of them are
    appended up to ``cfg.max_steps``. Greedy picks are exact functions of
    the state under a frozen store, so the records, the outcome and the
    final chains are those of a step-by-step run.
    """
    if not learning:
        rng = None  # a greedy pick draws nothing
    elif rng is None:
        rng = Random(cfg.seed)
    return _run(state, store, cfg, learning, rng, None)


# A state's (total_tardiness, total_wip, max_tardiness) -> its entries.
_Table = dict[tuple[float, float, float], list[tuple[list, list, StateSignature]]]


def _run(
    state: ScheduleState,
    store: QStore,
    cfg: EpisodeConfig,
    learning: bool,
    rng: Random | None,
    table: _Table | None,
) -> EpisodeResult:
    """``run_episode``'s loop; ``table``, a learning run's only, holds the
    proposals and signatures of states reached before."""
    steps: list[StepRecord] = []
    prev_key = r = None  # the last step's key and reward
    # The current state's proposals, when known, and with a table its signature.
    proposals = sig = None
    # One step of history: the state before the current one, the operator
    # that left it, its proposals and its signature.
    before = before_op = before_proposals = before_sig = None
    # Greedy only: a state's key -> (steps taken at its first visit, resources).
    seen = None if learning else {}
    while True:
        if goal_reached(state):
            outcome = Outcome.GOAL_REACHED
            break
        if len(steps) == cfg.max_steps:
            outcome = Outcome.STEP_LIMIT
            break
        if proposals is None:
            if table is None:
                proposals = propose(state)
            else:
                proposals, sig = _visit(table, state)
        if not proposals:
            outcome = Outcome.NO_PROPOSALS
            break
        op, key = select(store, state, proposals, rng, sig)
        if learning:
            if steps:
                store.sarsa_update(prev_key, r, key)
            store.bump_trace(key)
        elif seen is not None:
            n = len(steps)
            j, resources = seen.setdefault(key, (n, state.resources))
            if j < n and _chains(resources) == _chains(state.resources):
                # This state is the one after step j: steps[j:] repeat from here.
                seen = None
                cycle = steps[j:]
                periods = (cfg.max_steps - n) // len(cycle)
                if periods:
                    steps += cycle * periods
                    continue
        source = state.resource_of(op.focal).id
        if before_op is not None and undoes(before, before_op, state, op):
            nxt, nxt_proposals, nxt_sig = before, before_proposals, before_sig
        else:
            nxt, nxt_proposals, nxt_sig = apply(state, op), None, None
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
        before, before_op, before_proposals, before_sig = state, op, proposals, sig
        state, proposals, sig, prev_key = nxt, nxt_proposals, nxt_sig, key

    # An episode that took a step ends the same way: bootstrap 0, drop traces.
    if learning and steps:
        store.sarsa_update(prev_key, r, None)
        store.clear_traces()
    return EpisodeResult(outcome, steps, state)


def _chains(resources: list) -> list[list[str]]:
    return [r.task_chain for r in resources]


def _visit(
    table: _Table, state: ScheduleState
) -> tuple[list[RepairOperator], StateSignature]:
    """The state's proposals and signature: its entry's, or made and entered."""
    chains = _chains(state.resources)
    bucket = table.setdefault((state.total_tardiness, state.total_wip, state.max_tardiness), [])
    for known, proposals, sig in bucket:
        if known == chains:
            return proposals, sig
    proposals = propose(state)
    sig = signature(state)
    bucket.append((chains, proposals, sig))
    return proposals, sig


def train(
    disrupted: ScheduleState,
    store: QStore,
    episodes: int,
    cfg: EpisodeConfig,
) -> list[EpisodeResult]:
    """Run learning episodes, each from the disrupted state.

    Fully deterministic under ``cfg.seed``: one generator drives all
    episodes in order. The episodes share one table of the states they
    reach, made for this call and dropped when it returns; each episode
    takes the steps ``run_episode`` would take from the same generator.
    """
    if episodes <= 0:
        raise InvalidConfig(f"episodes must be positive, got {episodes}")
    rng = Random(cfg.seed)
    table: _Table = {}
    return [_run(disrupted, store, cfg, True, rng, table) for _ in range(episodes)]


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
