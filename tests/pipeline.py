"""The whole-pipeline check: the command-line pipeline on a miniature config,
with `--no-timing`, once, into one output directory.

It makes problems, data and both nets, plans, replays and benches with every
method, re-validates every solved bench run, runs eval-controller in both
settings and among moving obstacles, and runs hand-cbf under a second config
with the strict safety QP. With `--links 7` both configs take a 7-link arm of
the default's reach (`arms.ARMS`). `fingerprints.json` holds `plan_fingerprint`'s
edge and plan digests of each problem's bench query, so tree edges and the
controls of unsolved plans are compared too, and a digest of each problem's
rollout controls and configs for every eval-controller run, so a change to
what a controller computes shows where the run's records, which hold only
outcomes, do not. Each command runs in a fresh interpreter, so output that
depends on the per-process hash seed shows. Two
runs into one `--out` (so the paths written into the artifacts agree), the
first moved aside, must match byte for byte; with another checkout's `src/`
on `PYTHONPATH` for one of them, they compare two builds:

    PYTHONPATH=src python tests/pipeline.py --out work/out
    mv work/out work/first
    PYTHONPATH=src python tests/pipeline.py --out work/out
    diff -r work/first work/out
    PYTHONPATH=src python tests/pipeline.py --links 7 --out work/seven
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

import plan_fingerprint
import revalidate_bench
from arms import ARMS, config_overrides
from cbfsteer import bench, config
from cbfsteer.jsonio import dump_json, load_json, load_jsonl

# the miniature config: desk-scale but tiny, so the pipeline runs in seconds
CONFIG = {"data": {"rollout_trajs": 2, "uniform_samples": 300},
          "train": {"state": {"epochs": 3, "batch_size": 64, "lr": 3e-3},
                    "cloud": {"epochs": 1, "batch_size": 32, "lr": 2e-3}},
          "cloud": {"num_points": 16}, "planner": {"max_nodes": 60},
          "bench": {"seeds": [0], "proxy_runs": 1, "problems_per_class": 2}}
# and the same config with the strict safety QP
STRICT_CONFIG = {**CONFIG, "controller": {"mode": "strict"}}
SEED = 3
METHODS = ("straight", "hand-cbf", "cbf-state", "cbf-cloud", "filter-lqr")
CONTROLLED = METHODS[1:4]  # the methods with a controller of their own
HORIZON = "2.0"  # eval-controller's --horizon


def run_pipeline(out: Path, run, links: int = 3) -> None:
    """The check, once, into `out`: the two configs, with the arm of `links`
    links, every command's artifacts and the fingerprints. `run(argv)` runs
    the command line `cbfsteer argv` and returns its exit code. A command
    that fails and a solved bench run that fails re-validation raise
    RuntimeError."""
    out.mkdir(parents=True, exist_ok=True)
    main_config, strict_config = out / "config.json", out / "config-strict.json"
    dump_json(main_config, config.deep_merge(CONFIG, config_overrides(links)))
    dump_json(strict_config, config.deep_merge(STRICT_CONFIG, config_overrides(links)))
    problems = out / "problems.json"
    checkpoint = {m: str(out / f"checkpoint-{'state' if m == 'cbf-state' else 'cloud'}.json")
                  for m in METHODS}

    def cli(*args, cfg=main_config):
        code = run(["--seed", str(SEED), "--config", str(cfg), "--out", str(out), "--no-timing",
                    *args])
        if code != 0:
            raise RuntimeError(f"cbfsteer {' '.join(args)} exited {code}")

    cli("gen-problems", "--split")
    for kind in ("state", "cloud"):
        data = str(out / f"dataset-{kind}.jsonl")
        cli("collect-data", "--kind", kind)
        cli("train", "--data", data)
        cli("eval-cbf", "--checkpoint", str(out / f"checkpoint-{kind}.json"), "--data", data,
            "--out-file", f"eval-cbf-{kind}.json")
    for method in METHODS:
        cli("plan", "--problems", str(problems), "--index", "1", "--method", method,
            "--checkpoint", checkpoint[method], "--out-file", f"plan-{method}.json")
    for method in METHODS:  # an unsolved plan has no path, and replay exits 2 on it
        plan = out / f"plan-{method}.json"
        if load_json(plan)["plan"]["status"] == "solved":
            cli("replay", "--problems", str(problems), "--plan", str(plan))
    cli("bench", "--problems", str(problems), "--methods", ",".join(METHODS),
        "--checkpoint-state", checkpoint["cbf-state"],
        "--checkpoint-cloud", checkpoint["cbf-cloud"], "--svg")
    # rollout steers leave out the ticks their barrier proves free; stored
    # paths must pass the full check ladder without that proof
    cfg, planned = config.load_config(main_config), bench.load_problems(problems)
    _, bad = revalidate_bench.invalid_runs(planned, load_jsonl(out / "runs.jsonl"), cfg)
    if bad:
        raise RuntimeError(f"bench runs (method, problem id, seed) failed re-validation: {bad}")
    for setting in bench.Setting:
        for method in CONTROLLED:
            cli("eval-controller", "--problems", str(problems), "--method", method,
                "--checkpoint", checkpoint[method], "--setting", setting.cli, "--horizon", HORIZON)
    cli("gen-problems", "--count", "2", "--obstacle-speed", "0.05",
        "--out-file", "problems-moving.json")
    cli("eval-controller", "--problems", str(out / "problems-moving.json"), "--method",
        "cbf-cloud", "--checkpoint", checkpoint["cbf-cloud"], "--setting",
        bench.Setting.DYNAMIC_PARTIAL.cli, "--horizon", HORIZON,
        "--out-file", "controller-cbf-cloud-moving.json")
    # problem 2's hand-cbf steers meet infeasible QPs
    cli("plan", "--problems", str(problems), "--index", "2", "--method", "hand-cbf",
        "--out-file", "plan-hand-cbf-strict.json", cfg=strict_config)
    for setting in bench.Setting:
        cli("eval-controller", "--problems", str(problems), "--method", "hand-cbf",
            "--setting", setting.cli, "--horizon", HORIZON,
            "--out-file", f"controller-hand-cbf-{setting.cli}-strict.json", cfg=strict_config)

    specs = {m: {"name": m, "checkpoint": checkpoint[m]} if bench.METHODS[m] else {"name": m}
             for m in METHODS}  # as `bench` builds them
    strict = config.load_config(strict_config)
    plans = {m: plan_digests(planned, specs[m], cfg) for m in METHODS}
    plans["hand-cbf-strict"] = plan_digests(planned, specs["hand-cbf"], strict)
    # the eval-controller runs above, each in the worlds its setting rolls out in
    worlds = {s: bench.setting_worlds(planned, s, SEED) for s in bench.Setting}
    rollouts = {f"{m} {s.cli}": rollout_digests(
        worlds[s], specs[m], s, cfg, out / f"controller-{m}-{s.value}.json")
        for s in bench.Setting for m in CONTROLLED}
    rollouts["cbf-cloud moving"] = rollout_digests(
        bench.load_problems(out / "problems-moving.json"), specs["cbf-cloud"],
        bench.Setting.DYNAMIC_PARTIAL, cfg, out / "controller-cbf-cloud-moving.json")
    for s in bench.Setting:
        rollouts[f"hand-cbf {s.cli} strict"] = rollout_digests(
            worlds[s], specs["hand-cbf"], s, strict,
            out / f"controller-hand-cbf-{s.cli}-strict.json")
    dump_json(out / "fingerprints.json", {"plans": plans, "rollouts": rollouts})


def plan_digests(problems: list, method: dict, cfg: dict) -> dict:
    """`plan_fingerprint`'s digests of each problem's query, as a `bench` run
    at the pipeline's seed plans it, by problem id."""
    runs = plan_fingerprint.plan_queries(problems, method, cfg, SEED, {})
    return {str(p.id): plan_fingerprint.fingerprint([r]) for p, r in zip(problems, runs)}


OUTCOMES = ("reached_goal", "collided", "steps_used", "qp_infeasible_count")


def rollout_digests(problems: list, method: dict, setting: bench.Setting, cfg: dict,
                    written=None) -> dict:
    """sha256 of each problem's rollout controls and configs, by problem id,
    as an eval-controller run at the pipeline's seed and horizon rolls it
    out: `bench.control_query`. With `written`, the run's output file, each
    rollout's outcome must be the one it records, else RuntimeError."""
    arm, barriers = config.make_arm(cfg), {}
    records = {} if written is None else {r["problem_id"]: r for r in load_json(written)["records"]}
    digests = {}
    for prob in problems:
        rec = bench.control_query(prob, method, arm, cfg, SEED, setting, barriers, float(HORIZON))
        if written is not None and any(getattr(rec, k) != records[prob.id][k] for k in OUTCOMES):
            raise RuntimeError(f"{written}: problem {prob.id}'s rollout is not the one recorded")
        h = hashlib.sha256()
        plan_fingerprint.hash_arrays(h, rec.controls)
        plan_fingerprint.hash_arrays(h, rec.configs)
        digests[str(prob.id)] = h.hexdigest()
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--links", type=int, choices=sorted(ARMS), default=3,
                    help="the arm's link count (default 3, the default arm)")
    args = ap.parse_args(argv)
    run_pipeline(Path(args.out), lambda cli_argv: subprocess.run(
        [sys.executable, "-m", "cbfsteer.cli", *cli_argv]).returncode, args.links)
    return 0


if __name__ == "__main__":
    sys.exit(main())
