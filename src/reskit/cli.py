"""Command-line surface: generate, train, repair, evaluate, render, validate,
inspect-q.

Exit codes: 0 success, 1 validation failure, 2 usage and file/format
errors. Status messages go to stderr; command output (traces, charts,
tables) to stdout. Artifacts written by seeded commands are
byte-reproducible: reports embed no paths, timestamps or wall-clock figures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from random import Random

from .episode import EpisodeConfig, EpisodeResult, Outcome, format_trace, run_episode, trace_dict, train
from .errors import (
    CorruptQStoreError,
    InfeasibleSpec,
    InstanceFormatError,
    InvalidConfig,
    QStoreVersionError,
    ReskitError,
    UnprocessableProduct,
)
from .gantt import render_svg, render_text
from .instances import (
    Instance,
    InstanceSpec,
    generate_instance,
    inject_disruption,
    instance_from_dict,
    instance_to_dict,
    json_text,
    load_instance,
    sample_disruption,
    save_instance,
)
from .rl import Hyperparams, QStore, load_qstore, save_qstore, top_preferences
from .schedule import validate


def _episode_summary(index: int, result: EpisodeResult) -> dict:
    return {
        "episode": index,
        "outcome": result.outcome.value,
        "steps": len(result.steps),
        "final_tardiness": result.final_state.total_tardiness,
    }


def _write_json(path: str, data: dict) -> None:
    Path(path).write_text(json_text(data), encoding="utf-8")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RESKIT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InstanceFormatError(f"RESKIT_SEED must be an integer, got {env!r}")
    return 0


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    spec = InstanceSpec(
        resource_count=args.resources,
        products=tuple(args.products.split(",")),
        task_count=args.tasks,
        rate_range=(args.rate_min, args.rate_max),
        quantity_range=(args.qty_min, args.qty_max),
        slack_range=(args.slack_min, args.slack_max),
        capability_density=args.density,
        seed=seed,
    )
    instance = generate_instance(spec)
    instance.arrival_h = args.arrival
    # The loader defines a valid file: write only what it reads back.
    instance = instance_from_dict(instance_to_dict(instance))
    save_instance(instance, args.out)
    print(
        f"wrote {args.out}: {len(instance.state.resources)} resources, "
        f"{len(instance.state.tasks)} tasks, disruption {instance.order.name} "
        f"({instance.order.product}, {instance.order.quantity:g} kg)",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    instance = load_instance(args.instance)
    disrupted = inject_disruption(instance)
    hyper = Hyperparams(alpha=args.alpha, gamma=args.gamma, lam=args.lam, epsilon=args.epsilon)
    store = QStore(hyper)
    cfg = EpisodeConfig(max_steps=args.max_steps, seed=seed)

    t0 = time.perf_counter()
    results = train(disrupted, store, args.episodes, cfg)
    wall = time.perf_counter() - t0

    greedy = run_episode(disrupted, store, cfg, learning=False)
    goal_count = sum(1 for r in results if r.outcome is Outcome.GOAL_REACHED)
    # The report holds no wall-clock figure, so equal seeds yield equal bytes.
    report = {
        "seed": seed,
        "episodes": args.episodes,
        "hyper": {
            "alpha": hyper.alpha,
            "gamma": hyper.gamma,
            "lambda": hyper.lam,
            "epsilon": hyper.epsilon,
        },
        "max_steps": args.max_steps,
        "init_tardiness": disrupted.init_tardiness,
        "post_insertion_tardiness": disrupted.total_tardiness,
        "episode_outcomes": [_episode_summary(i + 1, r) for i, r in enumerate(results)],
        "success_rate": goal_count / len(results),
        "greedy_evaluation": {
            "outcome": greedy.outcome.value,
            "steps": len(greedy.steps),
            "final_tardiness": greedy.final_state.total_tardiness,
        },
        "q_entries": len(store.entries),
    }
    save_qstore(store, args.qstore)
    if args.report:
        _write_json(args.report, report)
    print(
        f"trained {args.episodes} episodes in {wall:.2f}s: success rate "
        f"{report['success_rate']:.2f}, {report['q_entries']} q-entries, greedy final "
        f"{greedy.final_state.total_tardiness:g} h (init {disrupted.init_tardiness:g} h)",
        file=sys.stderr,
    )
    return 0


def cmd_repair(args) -> int:
    seed = _resolve_seed(args)
    instance = load_instance(args.instance)
    store = load_qstore(args.qstore) if args.qstore else QStore()
    disrupted = inject_disruption(instance)
    cfg = EpisodeConfig(max_steps=args.max_steps, seed=seed)
    result = run_episode(disrupted, store, cfg, learning=False)

    trace = format_trace(result)
    if trace:
        print(trace)
    print(
        f"outcome {result.outcome.value}: totTard {disrupted.total_tardiness:g} -> "
        f"{result.final_state.total_tardiness:g} h (init {disrupted.init_tardiness:g} h, "
        f"{len(result.steps)} steps)"
    )
    # Every output is built before any is written: one that cannot be drawn
    # leaves no file behind.
    outputs = {}
    if args.trace:
        outputs[args.trace] = json_text(trace_dict(result))
    if args.svg_before:
        caption = (
            f"after insertion: totTard {disrupted.total_tardiness:g} h "
            f"(init {disrupted.init_tardiness:g} h)"
        )
        outputs[args.svg_before] = render_svg(disrupted, caption)
    if args.svg_after:
        caption = f"after repair: totTard {result.final_state.total_tardiness:g} h"
        outputs[args.svg_after] = render_svg(result.final_state, caption)
    for path, text in outputs.items():
        Path(path).write_text(text, encoding="utf-8")
    return 0


def cmd_evaluate(args) -> int:
    if args.runs < 1:
        raise InvalidConfig(f"runs must be positive, got {args.runs}")
    seed = _resolve_seed(args)
    instance = load_instance(args.instance)
    store = load_qstore(args.qstore) if args.qstore else QStore()
    cfg = EpisodeConfig(max_steps=args.max_steps, seed=seed)
    rng = Random(seed)

    runs = []
    for i in range(args.runs):
        fresh = sample_disruption(instance, rng)
        disrupted = inject_disruption(fresh)
        result = run_episode(disrupted, store, cfg, learning=False)
        runs.append(
            {
                "run": i + 1,
                "order": fresh.order.name,
                "product": fresh.order.product,
                "outcome": result.outcome.value,
                "steps": len(result.steps),
                "init_tardiness": disrupted.init_tardiness,
                "post_insertion_tardiness": disrupted.total_tardiness,
                "final_tardiness": result.final_state.total_tardiness,
            }
        )
    success = sum(1 for r in runs if r["outcome"] == Outcome.GOAL_REACHED.value)
    rate = success / len(runs)
    if args.report:
        _write_json(args.report, {"runs": runs, "success_rate": rate})
    print(f"success rate {rate:.3f} ({success}/{len(runs)} greedy runs reached the goal)")
    return 0


def cmd_render(args) -> int:
    instance = load_instance(args.instance)
    state = inject_disruption(instance) if args.disrupted else instance.state
    # The text is drawn first: a row bound it fails leaves no file behind.
    text = render_text(state, quantum=args.quantum) if args.text or not args.svg else None
    if args.svg:
        Path(args.svg).write_text(render_svg(state), encoding="utf-8")
        print(f"wrote {args.svg}", file=sys.stderr)
    if text is not None:
        print(text)
    return 0


def cmd_validate(args) -> int:
    if args.instance is None and args.qstore is None:
        print("error: validate needs --instance, --qstore or both", file=sys.stderr)
        return 2
    failures = 0
    if args.instance is not None:
        # Check the state repair starts from, not the base plant: a file then
        # validates only if repair can run it, and the order's placement and
        # the executing flags set at its arrival are checked with the rest.
        try:
            disrupted = inject_disruption(load_instance(args.instance))
        except UnprocessableProduct as exc:
            print(f"{args.instance}: {exc}", file=sys.stderr)
            return 1
        for v in validate(disrupted):
            print(f"{args.instance}: {v}", file=sys.stderr)
            failures += 1
    if args.qstore is not None:
        store = load_qstore(args.qstore)
        print(f"{args.qstore}: {len(store.entries)} entries", file=sys.stderr)
    if failures:
        return 1
    print("ok", file=sys.stderr)
    return 0


def cmd_inspect_q(args) -> int:
    store = load_qstore(args.qstore)
    top = top_preferences(store, per_signature=args.top)
    print(
        f"# {len(store.entries)} entries, alpha={store.hyper.alpha:g} "
        f"gamma={store.hyper.gamma:g} lambda={store.hyper.lam:g} "
        f"epsilon={store.hyper.epsilon:g}"
    )
    for key, value in top:
        sig = key.sig
        print(
            f"totTard={sig.total_tardiness:.2f} init={sig.init_tardiness:.2f} "
            f"wip={sig.total_wip:.2f} n={sig.task_number} focal={sig.focal_task}  "
            f"{key.op_name}(aux={key.op_aux}) = {value:.6g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reskit",
        description="Schedule-repair engine: absorb order arrivals via learned local repairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="default: $RESKIT_SEED or 0")

    no_store = "default: an empty store, whose greedy pick is always the nearest proposal"

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--out", required=True)
    p.add_argument("--resources", type=int, default=3)
    p.add_argument("--tasks", type=int, default=15)
    p.add_argument("--products", default="A,B,C,D")
    p.add_argument("--rate-min", type=float, default=6.0)
    p.add_argument("--rate-max", type=float, default=24.0)
    p.add_argument("--qty-min", type=float, default=20.0)
    p.add_argument("--qty-max", type=float, default=60.0)
    p.add_argument("--slack-min", type=float, default=1.0)
    p.add_argument("--slack-max", type=float, default=2.5)
    p.add_argument("--density", type=float, default=0.75)
    p.add_argument("--arrival", type=float, default=0.0)
    add_seed(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a preference store on an instance's disruption")
    p.add_argument("--instance", required=True)
    p.add_argument("--qstore", required=True, help="output preference store path")
    p.add_argument("--report", default=None, help="optional campaign report JSON")
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--max-steps", type=int, default=50)
    add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("repair", help="run one greedy repair episode, print the trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--qstore", default=None, help=no_store)
    p.add_argument("--trace", default=None, help="optional JSON trace path")
    p.add_argument("--svg-before", default=None)
    p.add_argument("--svg-after", default=None)
    p.add_argument("--max-steps", type=int, default=50)
    add_seed(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("evaluate", help="greedy runs over fresh disruptions, report success rate")
    p.add_argument("--instance", required=True)
    p.add_argument("--qstore", default=None, help=no_store)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--report", default=None)
    p.add_argument("--max-steps", type=int, default=50)
    add_seed(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="draw an instance as a Gantt chart")
    p.add_argument("--instance", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--text", action="store_true")
    p.add_argument("--quantum", type=float, default=0.5, help="hours per character")
    p.add_argument("--disrupted", action="store_true", help="render after order insertion")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("validate", help="check instance and store files")
    p.add_argument("--instance", default=None)
    p.add_argument("--qstore", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("inspect-q", help="dump top preferences per state signature")
    p.add_argument("--qstore", required=True)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_inspect_q)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceFormatError, CorruptQStoreError, QStoreVersionError, InfeasibleSpec, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
