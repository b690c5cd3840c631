"""Run one workload over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload plan-hand --seeds 1-10
    python3 perfbench/spread.py --workload plan-hand --seeds 1-10 \
        --baseline perfbench/baseline.json

For every metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median, checked against the
metric's bound in BENCHMARK.json. Runs are sequential, one process at a
time, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def _merge_baseline(path: Path, workload: str, trace: int, summary: dict, runs: list) -> None:
    """Baseline layout: host of the last run, then per workload the end-to-end
    summary, the medians of the workload-named figures, the work
    fingerprints by seed and, from traced runs, the per-layer medians."""
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["host"] = runs[-1]["details"]["host"]
    entry = doc["workloads"].setdefault(workload, {})
    if trace:
        entry["per_layer"] = {k: v["median"] for k, v in summary.items()}
        entry["per_layer_seeds"] = [r["seed"] for r in runs]
    else:
        entry["end_to_end"] = summary
        figures = [r["details"]["figures"] for r in runs]
        entry["figures"] = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
        entry["fingerprints"] = {str(r["seed"]): {"inputs": r["details"]["fingerprint"]["inputs"],
                                                  "work": r["details"]["fingerprint"]["work"]}
                                 for r in runs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", default=None,
                   help="merge the medians into this baseline file under the workload's name")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "details": json.loads(lines[0])})
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {vals}",
              flush=True)
    names = runs[0]["result"]["metrics"]
    summary = {}
    for name in names:
        s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = s
        bound = bounds.get(name)
        verdict = ("" if bound is None
                   else f" bound={bound} {'ok' if s['spread'] <= bound else 'OVER'}")
        print(f"{name}: median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"spread={s['spread']:.4f}{verdict}")
    if args.baseline:
        _merge_baseline(Path(args.baseline), args.workload, args.trace, summary, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
