"""The package's executable lines that no run reaches.

Under `sys.settrace` it runs the command-line pipeline of CI's
whole-pipeline step, with that step's miniature config and its strict-QP
variant, and one set-up and one pass of each benchmark workload at a seed.
For each module of
`src/cbfsteer/` it then prints the executable lines that no run reached, as
ranges over the module's executable lines:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/traffic_lines.py --seed 1

A line is executable when the compiled module has an instruction starting
on it. What is left unreached is either code no run needs (error branches,
tracer-only functions, modes and inputs the runs do not use) or code with no
user at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbfsteer"

# the config of CI's whole-pipeline step (.github/workflows/tests.yml)
CI_CONFIG = {"data": {"rollout_trajs": 2, "uniform_samples": 300},
             "train": {"state": {"epochs": 3, "batch_size": 64, "lr": 3e-3},
                       "cloud": {"epochs": 1, "batch_size": 32, "lr": 2e-3}},
             "cloud": {"num_points": 16}, "planner": {"max_nodes": 60},
             "bench": {"seeds": [0], "proxy_runs": 1, "problems_per_class": 2}}
# and the second config of that step, with the strict safety QP
STRICT_CONFIG = {**CI_CONFIG, "controller": {"mode": "strict"}}
METHODS = ("straight", "hand-cbf", "cbf-state", "cbf-cloud", "filter-lqr")
WORKLOADS = ("plan-hand", "plan-cloud", "control-dynamic", "learn")


def executable_lines(path: Path) -> set:
    """Lines on which some instruction of the module's code starts."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list, missed: set) -> list:
    """Runs of consecutive entries of the sorted `lines` that are all in
    `missed`, as "a-b" (or "a")."""
    out, start, prev = [], None, None
    for line in lines + [None]:
        if line in missed:
            start = line if start is None else start
            prev = line
        elif start is not None:
            out.append(f"{start}-{prev}" if prev != start else f"{start}")
            start = None
    return out


class LineTracer:
    """Records every line event, and each call's first line, in the package's files."""

    def __init__(self, files):
        self.hit = {str(f): set() for f in files}
        self._local = {name: self._local_tracer(lines) for name, lines in self.hit.items()}

    @staticmethod
    def _local_tracer(lines):
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def __call__(self, frame, event, arg):
        local = self._local.get(frame.f_code.co_filename)
        if local is None:
            return None
        return local(frame, event, arg)

    @contextlib.contextmanager
    def running(self):
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)


def run_pipeline(work: Path) -> None:
    """CI's whole-pipeline step, once, into `work`."""
    from cbfsteer import cli

    work.mkdir()
    (work / "config.json").write_text(json.dumps(CI_CONFIG))
    (work / "config-strict.json").write_text(json.dumps(STRICT_CONFIG))
    out = work / "out"

    def run(*args, config="config.json"):
        argv = ["--seed", "3", "--config", str(work / config), "--out", str(out),
                "--no-timing", *args]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cbfsteer {' '.join(args)} exited {code}")

    run("gen-problems", "--split")
    for kind in ("state", "cloud"):
        run("collect-data", "--kind", kind)
        run("train", "--data", str(out / f"dataset-{kind}.jsonl"))
        run("eval-cbf", "--checkpoint", str(out / f"checkpoint-{kind}.json"),
            "--data", str(out / f"dataset-{kind}.jsonl"), "--out-file", f"eval-cbf-{kind}.json")
    checkpoint = {m: str(out / f"checkpoint-{'state' if m == 'cbf-state' else 'cloud'}.json")
                  for m in METHODS}
    for method in METHODS:
        run("plan", "--problems", str(out / "problems.json"), "--index", "1", "--method", method,
            "--checkpoint", checkpoint[method], "--out-file", f"plan-{method}.json")
    for method in METHODS:
        plan = out / f"plan-{method}.json"
        if json.loads(plan.read_text())["plan"]["status"] == "solved":
            run("replay", "--problems", str(out / "problems.json"), "--plan", str(plan))
    run("bench", "--problems", str(out / "problems.json"), "--methods", ",".join(METHODS),
        "--checkpoint-state", checkpoint["cbf-state"], "--checkpoint-cloud",
        checkpoint["cbf-cloud"], "--svg")
    for setting in ("static-full", "dynamic-partial"):
        for method in ("hand-cbf", "cbf-state", "cbf-cloud", "filter-lqr"):
            run("eval-controller", "--problems", str(out / "problems.json"), "--method", method,
                "--checkpoint", checkpoint[method], "--setting", setting, "--horizon", "2.0")
    run("gen-problems", "--count", "2", "--obstacle-speed", "0.05",
        "--out-file", "problems-moving.json")
    run("eval-controller", "--problems", str(out / "problems-moving.json"), "--method",
        "cbf-cloud", "--checkpoint", checkpoint["cbf-cloud"], "--setting", "dynamic-partial",
        "--horizon", "2.0", "--out-file", "controller-cbf-cloud-moving.json")
    strict = "config-strict.json"
    run("plan", "--problems", str(out / "problems.json"), "--index", "2", "--method", "hand-cbf",
        "--out-file", "plan-hand-cbf-strict.json", config=strict)
    for setting in ("static-full", "dynamic-partial"):
        run("eval-controller", "--problems", str(out / "problems.json"), "--method", "hand-cbf",
            "--setting", setting, "--horizon", "2.0",
            "--out-file", f"controller-hand-cbf-{setting}-strict.json", config=strict)


def run_workload(name: str, seed: int, work: Path) -> None:
    """One set-up and one untraced-benchmark pass of workload `name`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    setup, run_pass, _ = workloads.WORKLOADS[name]
    work.mkdir()
    meter = workloads.Meter()
    run_pass(setup(seed, work), meter)
    if meter.failed:
        raise RuntimeError(f"{name}: {meter.failed} of {meter.attempted} operations failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="the workloads' seed")
    args = ap.parse_args(argv)
    files = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(files)
    with tempfile.TemporaryDirectory() as tmp, tracer.running():
        run_pipeline(Path(tmp) / "pipeline")
        for name in WORKLOADS:
            run_workload(name, args.seed, Path(tmp) / name)
    total_exec = total_missed = 0
    for path in files:
        lines = sorted(executable_lines(path))
        missed = set(lines) - tracer.hit[str(path)]
        total_exec += len(lines)
        total_missed += len(missed)
        print(f"{path.stem}: {len(missed)} of {len(lines)} unreached: "
              f"{', '.join(ranges(lines, missed)) or '-'}")
    print(f"total: {total_missed} of {total_exec} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
