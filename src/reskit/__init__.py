"""Schedule-repair engine: absorb new-order arrivals into a batch schedule
via learned local repair operators (tabular SARSA(lambda) keyed by a
quantized state signature)."""

from .episode import EpisodeConfig, EpisodeResult, Outcome, StepRecord, run_episode, train
from .errors import ReskitError
from .instances import (
    Instance,
    InstanceSpec,
    generate_instance,
    inject_disruption,
    load_instance,
    save_instance,
)
from .operators import OperatorKind, RepairOperator, apply, propose
from .rl import Hyperparams, QKey, QStore, load_qstore, qkey, reward, save_qstore, select
from .schedule import (
    Resource,
    ScheduleState,
    Task,
    Violation,
    elaborate,
    validate,
)
from .stategraph import StateSignature, signature

__version__ = "0.1.0"

__all__ = [
    "EpisodeConfig",
    "EpisodeResult",
    "Hyperparams",
    "Instance",
    "InstanceSpec",
    "OperatorKind",
    "Outcome",
    "QKey",
    "QStore",
    "RepairOperator",
    "ReskitError",
    "Resource",
    "ScheduleState",
    "StateSignature",
    "StepRecord",
    "Task",
    "Violation",
    "apply",
    "elaborate",
    "generate_instance",
    "inject_disruption",
    "load_instance",
    "load_qstore",
    "propose",
    "qkey",
    "reward",
    "run_episode",
    "save_instance",
    "save_qstore",
    "select",
    "signature",
    "train",
    "validate",
]
