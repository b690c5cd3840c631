"""The package's executable lines that no run reaches.

Under `sys.settrace` it runs the whole-pipeline check of `tests/pipeline.py`
(its commands in this process rather than each in a fresh interpreter), and
one set-up and one pass of each benchmark workload at a seed. For each module
of `src/cbfsteer/` it then prints the executable lines that no run reached, as
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
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbfsteer"

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


def run_workload(name: str, seed: int, work: Path) -> None:
    """One set-up and one untraced-benchmark pass of workload `name`."""
    import plan_fingerprint

    workloads = plan_fingerprint.benchmark_workloads()
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
        import pipeline  # under the tracer, so the package's module-level lines count
        from cbfsteer import cli

        with contextlib.redirect_stdout(io.StringIO()):
            pipeline.run_pipeline(Path(tmp) / "pipeline", cli.main)
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
