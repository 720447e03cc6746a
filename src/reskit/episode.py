"""The repair loop: elaborate, check goal, propose, select, apply, learn.

An episode starts from a disrupted state (focal task set, pre-disruption
tardiness snapshotted) and runs repair steps until the goal is reached, the
step limit hits, or nothing is proposable. With learning on, each step bumps
the visited key's trace and applies one SARSA update; traces are cleared
when the episode ends. With learning off the run is pure greedy (epsilon 0)
and the store is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from random import Random

from .errors import InvalidConfig
from .operators import RepairOperator, apply, propose
from .rl import QStore, goal_reached, reward, select
from .schedule import ScheduleState, elaborate


class Outcome(str, Enum):
    GOAL_REACHED = "goal-reached"
    STEP_LIMIT = "step-limit"
    NO_PROPOSALS = "no-proposals"


@dataclass
class EpisodeConfig:
    max_steps: int = 50
    seed: int = 0

    def check(self) -> None:
        if self.max_steps <= 0:
            raise InvalidConfig(f"max_steps must be positive, got {self.max_steps}")


@dataclass
class StepRecord:
    index: int  # 1-based step number
    operator: RepairOperator
    source_resource: str
    tardiness_before: float
    tardiness_after: float
    reward: float
    proposal_count: int


@dataclass
class EpisodeResult:
    outcome: Outcome
    steps: list[StepRecord] = field(default_factory=list)
    final_state: ScheduleState | None = None


def run_episode(
    state: ScheduleState,
    store: QStore,
    cfg: EpisodeConfig,
    learning: bool = True,
    rng: Random | None = None,
) -> EpisodeResult:
    """Run one repair episode from ``state``; mutates ``store`` iff learning.

    ``state`` itself is left as it is: the episode starts from its
    elaboration.
    """
    cfg.check()
    if rng is None:
        rng = Random(cfg.seed)
    eps_override = None if learning else 0.0

    state = elaborate(state)
    steps: list[StepRecord] = []
    if goal_reached(state):
        return EpisodeResult(Outcome.GOAL_REACHED, steps, state)
    proposals = propose(state)
    if not proposals:
        return EpisodeResult(Outcome.NO_PROPOSALS, steps, state)
    op, key = select(store, state, proposals, rng, epsilon=eps_override)

    for step_index in range(1, cfg.max_steps + 1):
        if learning:
            store.bump_trace(key)
        source = state.resource_of(op.focal).id
        nxt = apply(state, op)
        r = reward(state, nxt)
        steps.append(
            StepRecord(
                index=step_index,
                operator=op,
                source_resource=source,
                tardiness_before=state.total_tardiness,
                tardiness_after=nxt.total_tardiness,
                reward=r,
                proposal_count=len(proposals),
            )
        )
        if goal_reached(nxt):
            outcome = Outcome.GOAL_REACHED
            break
        if step_index == cfg.max_steps:
            outcome = Outcome.STEP_LIMIT
            break
        next_proposals = propose(nxt)
        if not next_proposals:
            outcome = Outcome.NO_PROPOSALS
            break
        next_op, next_key = select(store, nxt, next_proposals, rng, epsilon=eps_override)
        if learning:
            store.sarsa_update(key, r, next_key)
        state, op, key, proposals = nxt, next_op, next_key, next_proposals

    # Every outcome ends the episode the same way: bootstrap 0, drop traces.
    if learning:
        store.sarsa_update(key, r, None)
        store.clear_traces()
    return EpisodeResult(outcome, steps, nxt)


def train(
    disrupted: ScheduleState,
    store: QStore,
    episodes: int,
    cfg: EpisodeConfig,
) -> list[EpisodeResult]:
    """Run learning episodes, each from the disrupted state.

    Fully deterministic under ``cfg.seed``: one generator drives all
    episodes in order.
    """
    if episodes <= 0:
        raise InvalidConfig(f"episodes must be positive, got {episodes}")
    cfg.check()
    rng = Random(cfg.seed)
    results: list[EpisodeResult] = []
    for _ in range(episodes):
        results.append(run_episode(disrupted, store, cfg, learning=True, rng=rng))
    return results


def format_trace(result: EpisodeResult) -> str:
    """Line-oriented operator trace, one ``step k: ...`` line per step."""
    if result.final_state is None:
        return ""
    tasks = result.final_state.tasks
    lines = []
    for s in result.steps:
        lines.append(
            f"step {s.index}: {s.operator.kind.value}"
            f"({tasks[s.operator.focal].name}, {tasks[s.operator.aux].name})"
            f" resource {s.source_resource}->{s.operator.target_resource}"
            f" totTard {s.tardiness_before:g}->{s.tardiness_after:g}"
        )
    return "\n".join(lines)


def trace_dict(result: EpisodeResult) -> dict:
    """Structured episode trace for JSON output and the renderer."""
    final = result.final_state
    tasks = final.tasks if final is not None else {}
    return {
        "outcome": result.outcome.value,
        "init_tardiness": final.init_tardiness if final is not None else None,
        "final_tardiness": final.total_tardiness if final is not None else None,
        "steps": [
            {
                "step": s.index,
                "kind": s.operator.kind.value,
                "focal": tasks[s.operator.focal].name,
                "aux": tasks[s.operator.aux].name,
                "source_resource": s.source_resource,
                "target_resource": s.operator.target_resource,
                "tardiness_before": s.tardiness_before,
                "tardiness_after": s.tardiness_after,
                "reward": s.reward,
                "proposal_count": s.proposal_count,
            }
            for s in result.steps
        ],
    }
