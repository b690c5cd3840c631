"""Command-line interface.

Subcommands: gen-problems, collect-data, train, eval-cbf, plan, bench,
eval-controller, replay. Global flags: --seed, --config <json>, --out <dir>.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .cbf import Dataset, DatasetCounts, collect_dataset, evaluate_constraints, train
from .config import (
    checkpoint_hyper,
    cloud_widths,
    load_config,
    make_arm,
    make_env_gen,
    make_hyper,
    make_planner_limits,
    make_policy,
    make_schedule,
    seed_stream,
    state_widths,
)
from .jsonio import dump_json, load_json
from .neural import Mlp, PointSetEncoder, load_checkpoint, save_checkpoint
from .planner import PlanProblem, PlanResult, rrt_plan


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cbfsteer", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="root seed for all sub-streams")
    parser.add_argument("--config", type=str, default=None, help="JSON config overriding defaults")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-problems", help="generate (and tag) planning problems")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--obstacles", type=int, default=None)
    p.add_argument("--obstacle-speed", type=float, default=None)
    p.add_argument("--split", action="store_true", help="tag easy/hard with the RRT proxy")
    p.add_argument("--out-file", type=str, default="problems.json")

    p = sub.add_parser("collect-data", help="collect a labeled training dataset")
    p.add_argument("--kind", choices=["state", "cloud"], default="state")
    p.add_argument("--rollout-trajs", type=int, default=None)
    p.add_argument("--uniform-samples", type=int, default=None)
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("train", help="train a barrier network on a dataset")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out-file", type=str, default=None)
    p.add_argument("--report", type=str, default=None)
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("eval-cbf", help="audit constraint satisfaction of a checkpoint")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("plan", help="plan one problem with one method")
    p.add_argument("--problems", type=str, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--method", type=str, default="straight")
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--out-file", type=str, default="plan.json")

    p = sub.add_parser("bench", help="compare steering methods over a problem file")
    p.add_argument("--problems", type=str, required=True)
    p.add_argument("--methods", type=str, default="straight",
                   help="comma-separated: straight,cbf-state,cbf-cloud,hand-cbf,filter-lqr")
    p.add_argument("--checkpoint-state", type=str, default=None)
    p.add_argument("--checkpoint-cloud", type=str, default=None)
    p.add_argument("--activation-after", type=int, default=None,
                   help="filter-lqr switch point in tree nodes (default or -1: half the "
                        "node budget)")
    p.add_argument("--no-timing", action="store_true",
                   help="zero timing fields for byte-reproducible outputs")
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("eval-controller", help="unroll a controller end to end")
    p.add_argument("--problems", type=str, required=True)
    p.add_argument("--method", type=str, default="cbf-cloud")
    p.add_argument("--checkpoint", type=str, default=None)
    p.add_argument("--setting", choices=[s.replace("_", "-") for s in bench_mod.SETTINGS],
                   default="static-full")
    p.add_argument("--obstacle-speed", type=float, default=0.05)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("replay", help="re-validate a stored plan geometrically")
    p.add_argument("--problems", type=str, required=True)
    p.add_argument("--plan", type=str, required=True)
    p.add_argument("--index", type=int, default=0)
    return parser


def _method_spec(name: str, args) -> dict:
    name = name.strip()
    if name in ("straight", "hand-cbf"):
        return {"name": name}
    if name in ("cbf-state", "cbf-cloud"):
        kind = name.removeprefix("cbf-")
        ckpt = getattr(args, f"checkpoint_{kind}")
        if not ckpt:
            raise _UsageError(f"method {name} needs --checkpoint-{kind}")
        return {"name": name, "checkpoint": ckpt}
    if name == "filter-lqr":
        ckpt = args.checkpoint_state or args.checkpoint_cloud
        if not ckpt:
            raise _UsageError("method filter-lqr needs a checkpoint flag")
        spec = {"name": "filter-lqr", "checkpoint": ckpt}
        if args.activation_after is not None:
            spec["activation_after"] = args.activation_after
        return spec
    raise _UsageError(f"unknown method {name!r}")


def _single_checkpoint_method(args) -> dict:
    """Method spec for the commands that take one --checkpoint for any method."""
    return _method_spec(args.method, argparse.Namespace(
        checkpoint_state=args.checkpoint, checkpoint_cloud=args.checkpoint, activation_after=None))


def _cmd_gen_problems(args, cfg, out_dir):
    arm = make_arm(cfg)
    overrides = {}
    if args.obstacles is not None:
        overrides["num_obstacles"] = args.obstacles
    if args.obstacle_speed is not None:
        overrides["obstacle_speed"] = args.obstacle_speed
    gen_cfg = make_env_gen(cfg, **overrides)
    count = args.count if args.count is not None else 2 * cfg["bench"]["problems_per_class"]
    clearance = cfg["hyper"]["r_thres"] * cfg["bench"]["clearance_factor"]
    rng = seed_stream(args.seed, "problem-gen")
    problems = bench_mod.gen_problems(gen_cfg, count, rng, arm, clearance)
    if args.split:
        split_rng = seed_stream(args.seed, "difficulty")
        problems = bench_mod.difficulty_split(
            problems, cfg["bench"]["proxy_runs"], split_rng, arm,
            make_planner_limits(cfg), r_goal=cfg["controller"]["r_goal"])
    path = out_dir / args.out_file
    bench_mod.save_problems(path, problems)
    tags = {d: sum(1 for p in problems if p.difficulty == d) for d in ("easy", "hard", "untagged")}
    print(f"wrote {len(problems)} problems to {path} (easy={tags['easy']} "
          f"hard={tags['hard']} untagged={tags['untagged']})")
    return 0


def _cmd_collect_data(args, cfg, out_dir):
    arm = make_arm(cfg)
    data_cfg = cfg["data"]
    counts = DatasetCounts(
        rollout_trajs=args.rollout_trajs if args.rollout_trajs is not None
        else data_cfg["rollout_trajs"],
        uniform_samples=args.uniform_samples if args.uniform_samples is not None
        else data_cfg["uniform_samples"],
    )
    rng = seed_stream(args.seed, "data")
    dataset = collect_dataset(
        arm, make_env_gen(cfg), counts, make_policy(cfg), rng,
        observation_kind=args.kind,
        r_thres=cfg["hyper"]["r_thres"],
        cloud_points=cfg["cloud"]["num_points"],
        rollout_ticks=data_cfg["rollout_ticks"],
        ctrl_hz=cfg["controller"]["ctrl_hz"],
        uniform_samples_per_env=data_cfg["uniform_samples_per_env"],
        r_goal=cfg["controller"]["r_goal"],
    )
    path = out_dir / (args.out_file or f"dataset-{args.kind}.jsonl")
    dataset.save(path)
    print(f"wrote {len(dataset)} samples ({args.kind}) to {path}")
    return 0


def _cmd_train(args, cfg, out_dir):
    dataset = Dataset.load(args.data)
    arm = dataset.arm
    hyper = make_hyper(cfg, dataset.kind)
    schedule = make_schedule(cfg, dataset.kind)
    if args.epochs is not None:
        schedule = replace(schedule, epochs=args.epochs)
    rng = seed_stream(args.seed, "training")
    if dataset.kind == "state":
        net = Mlp.create(state_widths(cfg, arm), rng)
    else:
        pw, tw = cloud_widths(cfg, arm)
        net = PointSetEncoder.create(arm.n_links, pw, tw, rng)
    net, report = train(dataset, net, hyper, schedule, rng)
    ckpt = out_dir / (args.out_file or f"checkpoint-{dataset.kind}.json")
    save_checkpoint(ckpt, dataset.kind, net, hyper.to_json())
    report_path = out_dir / (args.report or f"train-report-{dataset.kind}.json")
    dump_json(report_path, report.to_json())
    last = report.epochs[-1] if report.epochs else {}
    print(f"trained {dataset.kind} barrier for {len(report.epochs)} epochs "
          f"({report.wall_seconds:.1f}s); final val rates: "
          f"safe={last.get('val_safe_rate', float('nan')):.3f} "
          f"unsafe={last.get('val_unsafe_rate', float('nan')):.3f} "
          f"deriv={last.get('val_deriv_rate', float('nan')):.3f}; wrote {ckpt}")
    if report.aborted:
        raise RuntimeError("training diverged (non-finite loss); report saved")
    return 0


def _cmd_eval_cbf(args, cfg, out_dir):
    dataset = Dataset.load(args.data)
    variant, net, hyper_doc = load_checkpoint(args.checkpoint)
    if variant != dataset.kind:
        raise RuntimeError(f"checkpoint variant {variant!r} does not match dataset "
                           f"kind {dataset.kind!r}")
    hyper = checkpoint_hyper(cfg, hyper_doc)
    rates = evaluate_constraints(net, dataset, hyper=hyper)
    out = {"checkpoint": str(args.checkpoint), "data": str(args.data), **rates}
    print(f"safe={rates['safe_rate']:.4f} unsafe={rates['unsafe_rate']:.4f} "
          f"deriv={rates['deriv_rate']:.4f} "
          f"(n={rates['n_total']})")
    if args.out_file:
        dump_json(out_dir / args.out_file, out)
    return 0


def _cmd_plan(args, cfg, out_dir):
    arm = make_arm(cfg)
    problems = bench_mod.load_problems(args.problems)
    if not 0 <= args.index < len(problems):
        raise _UsageError(f"problem index {args.index} out of range (0..{len(problems) - 1})")
    prob = problems[args.index]
    method = _single_checkpoint_method(args)
    steer = bench_mod.build_steer(method, arm, prob, cfg, args.seed, {})
    rng = seed_stream(args.seed, "planner", prob.id, 0)
    result = rrt_plan(
        PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg,
                    r_goal=cfg["controller"]["r_goal"]),
        steer, make_planner_limits(cfg), rng, seed=args.seed)
    path = out_dir / args.out_file
    dump_json(path, {"problem_id": prob.id, "method": args.method, "plan": result.to_json()})
    print(f"{result.status}: explored={result.explored_nodes} "
          f"time={result.planning_seconds:.3f}s -> {path}")
    return 0


def _cmd_bench(args, cfg, out_dir):
    arm = make_arm(cfg)
    problems = bench_mod.load_problems(args.problems)
    methods = [_method_spec(m, args) for m in args.methods.split(",") if m.strip()]
    report_timing = cfg["bench"]["report_timing"] and not args.no_timing
    rows = bench_mod.run_bench(
        problems, methods, list(cfg["bench"]["seeds"]), arm, cfg, out_dir,
        root_seed=args.seed, report_timing=report_timing, svg=args.svg)
    for r in rows:
        print(f"{r.method:12s} {r.difficulty:8s} sr={r.sr:.3f} nodes={r.nodes_mean:.1f} "
              f"time={r.time_s_mean:.3f}s n={r.n_runs}")
    print(f"wrote {out_dir / 'metrics.csv'}")
    return 0


def _cmd_eval_controller(args, cfg, out_dir):
    arm = make_arm(cfg)
    problems = bench_mod.load_problems(args.problems)
    setting = args.setting.replace("-", "_")
    if setting == "dynamic_partial" and not any(
            p.environment.is_dynamic for p in problems):
        dyn_rng = seed_stream(args.seed, "dynamics")
        problems = bench_mod.dynamicize_problems(problems, args.obstacle_speed, dyn_rng)
    method = _single_checkpoint_method(args)
    row, records = bench_mod.eval_controller(
        problems, method, setting, arm, cfg, root_seed=args.seed, horizon_s=args.horizon)
    print(f"{row.method} [{row.setting}] goal={row.goal_reaching_rate:.3f} "
          f"safety={row.safety_rate:.4f} makespan={row.mean_makespan}")
    out = {"row": row.to_json(), "records": records}
    path = out_dir / (args.out_file or f"controller-{row.method}-{setting}.json")
    dump_json(path, out)
    return 0


def _cmd_replay(args, cfg, out_dir):
    arm = make_arm(cfg)
    check_resolution = make_planner_limits(cfg).check_resolution
    problems = bench_mod.load_problems(args.problems)
    doc = load_json(args.plan)
    plan_doc = doc["plan"] if "plan" in doc else doc
    plan = PlanResult.from_json(plan_doc)
    pid = doc.get("problem_id", args.index)
    prob = next((p for p in problems if p.id == pid), None)
    if prob is None:
        raise _UsageError(f"problem id {pid} not found in {args.problems}")
    if plan.status != "solved":
        print(f"plan for problem {pid}: not solved (status {plan.status})")
        raise RuntimeError(f"plan not solved (status {plan.status}); there is no path to "
                           "re-validate")
    ok = bench_mod.validate_plan(prob, plan, arm, check_resolution, cfg["controller"]["r_goal"])
    print(f"plan for problem {pid}: {'valid (collision-free, reaches goal)' if ok else 'INVALID'}")
    if not ok:
        raise RuntimeError("stored plan failed geometric re-validation")
    return 0


_COMMANDS = {
    "gen-problems": _cmd_gen_problems,
    "collect-data": _cmd_collect_data,
    "train": _cmd_train,
    "eval-cbf": _cmd_eval_cbf,
    "plan": _cmd_plan,
    "bench": _cmd_bench,
    "eval-controller": _cmd_eval_controller,
    "replay": _cmd_replay,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, cfg, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
