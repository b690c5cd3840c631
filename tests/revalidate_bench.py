"""Re-validate every solved run of a bench `runs.jsonl` with
`bench.validate_plan`: each stored path must start at its problem's start,
pass the full check ladder at the config's resolution, and end in the goal
ball of the config's `r_goal`. Rollout steers leave out the ticks that their
barrier's clearance readings prove free; this checks every stored path
without that proof.

    PYTHONPATH=src python tests/revalidate_bench.py --config config.json \\
        --problems out/problems.json --runs out/runs.jsonl

prints the number of solved runs and exits 1 if any of them is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys

from cbfsteer import bench, config
from cbfsteer.planner import PlanResult


def invalid_runs(problems: list, runs: list, cfg: dict) -> tuple[int, list]:
    """(number of solved runs, the (method, problem id, seed) of each solved
    run that fails re-validation)."""
    arm = config.make_arm(cfg)
    check_resolution = config.make_planner_limits(cfg).check_resolution
    by_id = {p.id: p for p in problems}
    solved = [r for r in runs if r["result"]["status"] == "solved"]
    bad = [(r["method"], r["problem_id"], r["seed"]) for r in solved
           if not bench.validate_plan(by_id[r["problem_id"]], PlanResult.from_json(r["result"]),
                                      arm, check_resolution, cfg["controller"]["r_goal"])]
    return len(solved), bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="config file, as the CLI's --config")
    ap.add_argument("--problems", required=True)
    ap.add_argument("--runs", required=True)
    args = ap.parse_args(argv)
    with open(args.runs) as f:
        runs = [json.loads(line) for line in f]
    n_solved, bad = invalid_runs(bench.load_problems(args.problems), runs,
                                 config.load_config(args.config))
    print(f"{n_solved} solved runs re-validated, {len(bad)} invalid")
    for method, pid, seed in bad:
        print(f"INVALID: method {method}, problem {pid}, seed {seed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
