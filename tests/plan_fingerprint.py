"""sha256 fingerprints of RRT plans: one over every stored tree edge's
configs and controls, one over each plan's status, explored nodes, tree
size, path and controls; and of controller rollouts: one over each
rollout's outcome (reached_goal, collided, qp_infeasible_count), configs
and controls.

Two builds that plan the same queries bit for bit print the same digests.
For the queries of a problem file (paths relative to the working
directory; `--checkpoint` for the network methods):

    PYTHONPATH=src python tests/plan_fingerprint.py --problems out/problems.json \\
        --method cbf-cloud --checkpoint out/checkpoint-cloud.json --seed 0

or for the queries one pass of a benchmark plan workload runs at a seed, its
inputs rebuilt from the seed as `perfbench/run.py` builds them (this trains
the cloud checkpoint into a temporary directory), on the benchmark's one
BLAS thread. The workload's own copy of the query then plans each of them
too, and the script exits 1 if a PlanResult, timing aside, differs from
`bench.plan_query`'s:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/plan_fingerprint.py \\
        --workload plan-cloud --seed 1

With `--workload control-dynamic` it digests the rollouts of one pass of
that workload (cloud barrier, moving obstacles, `bench.control_query`), and
those of the hand-crafted barrier on the same problems, which the workload
does not run. It exits 1 if the workload's own call, `eval_controller` on
one problem, records an outcome that its rollout does not have.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from cbfsteer import bench, config

ROOT = Path(__file__).resolve().parent.parent


def plan_queries(problems, method: dict, cfg: dict, root_seed: int, barriers: dict,
                 arm=None) -> list:
    """(PlanResult, SearchTree) of each problem, planned as `plan` with
    seed `root_seed` plans it (`bench.plan_query` on stream 0; `barriers`
    maps a checkpoint path to its barrier, loaded into it if missing)."""
    arm = config.make_arm(cfg) if arm is None else arm
    return [bench.plan_query(prob, method, arm, cfg, root_seed, 0, barriers, root_seed)
            for prob in problems]


def hash_arrays(h, arrays) -> None:
    """Feed a list of arrays, and its length, to the hash `h`."""
    h.update(len(arrays).to_bytes(8, "little"))
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def fingerprint(runs) -> dict:
    """{"edges": digest, "plans": digest} of (PlanResult, SearchTree) pairs,
    in order: each tree's nodes after the root (parent, edge configs and
    controls), and every plan."""
    edges, plans = hashlib.sha256(), hashlib.sha256()
    for result, tree in runs:
        for node in tree.nodes[1:]:
            edges.update(node.parent.to_bytes(8, "little"))
            hash_arrays(edges, node.edge.configs)
            hash_arrays(edges, node.edge.controls)
        plans.update(f"{result.status} {result.explored_nodes} {result.tree_size};".encode())
        hash_arrays(plans, result.path)
        hash_arrays(plans, result.controls)
    return {"edges": edges.hexdigest(), "plans": plans.hexdigest()}


# what `bench.eval_controller` records of a rollout, besides the problem id
OUTCOMES = ("reached_goal", "collided", "steps_used", "qp_infeasible_count", "safety_ratio")


def rollout_fingerprint(records) -> str:
    """sha256 of RolloutRecords, in order: each one's outcome, configs and
    controls."""
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.reached_goal} {rec.collided} {rec.qp_infeasible_count};".encode())
        hash_arrays(h, rec.configs)
        hash_arrays(h, rec.controls)
    return h.hexdigest()


def benchmark_workloads():
    """The benchmark's `workloads` module, from `perfbench/`."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def workload_runs(name: str, seed: int, workdir: Path) -> tuple[list, list]:
    """The runs of one pass of the benchmark plan workload `name` at `seed`,
    planned by `plan_queries`, and the ids of the problems whose PlanResult
    (timing zeroed) the workload's own query, `workloads._plan_query`,
    plans otherwise."""
    workloads = benchmark_workloads()
    method = {"plan-hand": "hand-cbf", "plan-cloud": "cbf-cloud"}[name]
    inputs = workloads.setup_plan(method, seed, workdir)
    runs = plan_queries(inputs.problems, inputs.method, inputs.cfg, inputs.seed,
                        inputs.barriers, inputs.arm)
    untimed = [dict(r.to_json(), planning_seconds=0.0) for r, _ in runs]
    differ = [p.id for p, ours in zip(inputs.problems, untimed)
              if dict(workloads._plan_query(inputs, p).to_json(), planning_seconds=0.0) != ours]
    return runs, differ


def workload_rollouts(seed: int, workdir: Path) -> tuple[dict, list]:
    """The digests of the control-dynamic workload's rollouts at `seed`, its
    cloud barrier's (one pass) and the hand-crafted barrier's, with their
    counts, and the ids of the problems whose record from the workload's own
    call (`bench.eval_controller` on that problem alone) differs."""
    workloads = benchmark_workloads()
    inputs = workloads.setup_control(seed, workdir)
    setting, horizon = bench.Setting.DYNAMIC_PARTIAL, workloads.CTRL_HORIZON_S
    problems = bench.setting_worlds(inputs.problems, setting, inputs.seed)
    cache = {}
    runs = {name: [bench.control_query(p, method, inputs.arm, inputs.cfg, inputs.seed, setting,
                                       cache, horizon) for p in problems]
            for name, method in (("rollouts", inputs.method),
                                 ("hand-cbf-rollouts", {"name": "hand-cbf"}))}
    digests = {}
    for name, records in runs.items():
        digests[name] = rollout_fingerprint(records)
        digests[f"{name}-counts"] = (f"{len(records)} ticks {sum(r.steps_used for r in records)} "
                                     f"reached {sum(r.reached_goal for r in records)} "
                                     f"collided {sum(r.collided for r in records)}")
    differ = [p.id for p, rec in zip(problems, runs["rollouts"])
              if bench.eval_controller([p], inputs.method, setting, inputs.arm, inputs.cfg,
                                       root_seed=inputs.seed, horizon_s=horizon)[1][0]
              != {"problem_id": p.id, **{k: getattr(rec, k) for k in OUTCOMES}}]
    return digests, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["plan-hand", "plan-cloud", "control-dynamic"])
    ap.add_argument("--problems")
    ap.add_argument("--method", default="cbf-cloud")
    ap.add_argument("--checkpoint")
    ap.add_argument("--config", help="config file, as the CLI's --config")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.problems is None):
        ap.error("give one of --workload and --problems")
    differ = []
    if args.workload == "control-dynamic":
        with tempfile.TemporaryDirectory() as tmp:
            digests, differ = workload_rollouts(args.seed, Path(tmp))
        for key, value in digests.items():
            print(f"{key} {value}")
        if differ:
            print(f"eval_controller records problems {differ} otherwise than "
                  "bench.control_query rolls them out", file=sys.stderr)
        return 1 if differ else 0
    if args.workload:
        with tempfile.TemporaryDirectory() as tmp:
            runs, differ = workload_runs(args.workload, args.seed, Path(tmp))
    else:
        cfg = config.load_config(args.config)
        method = {"name": args.method}
        if args.checkpoint:
            method["checkpoint"] = args.checkpoint
        runs = plan_queries(bench.load_problems(args.problems), method, cfg, args.seed, {})
    for key, value in fingerprint(runs).items():
        print(f"{key} {value}")
    print(f"queries {len(runs)} solved {sum(r.status == 'solved' for r, _ in runs)}")
    if differ:
        print(f"the workload's own query plans problems {differ} otherwise than "
              "bench.plan_query", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
