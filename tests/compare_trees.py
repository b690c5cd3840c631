"""Bit-identity of two source trees: this one and OTHER_TREE, each a
checkout of the repository (for example the parent commit, unpacked with
`git archive`).

For each tree in turn it runs the whole-pipeline check (`tests/pipeline.py`)
at 3 and at 7 links, each time into one `--out` path that the run is then
moved away from, so the paths written into the artifacts agree; and it
prints `plan_fingerprint.py`'s digests of the plan-hand and plan-cloud
workloads' plans and of the control-dynamic workload's rollouts at seed 1,
on one BLAS thread. Each tree runs its own pipeline check on its own
`src/`; the digests come from this tree's `plan_fingerprint.py` and
benchmark workloads on each tree's `src/`, so that they digest the same
things in both. It prints `identical` or `different` for every file of the
pipeline runs (and names a file only one tree wrote) and for each workload's
digests, and exits 1 on any difference, 2 if a run fails:

    python tests/compare_trees.py ../parent --work ../compare

Without `--work` the runs go to a temporary directory that is removed at
the end. The whole comparison takes a few minutes.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINKS = (3, 7)
WORKLOADS = ("plan-hand", "plan-cloud", "control-dynamic")


class RunFailed(RuntimeError):
    pass


def run_script(tree: Path, argv: list, log: Path, env: dict | None = None,
               scripts: Path | None = None) -> str:
    """Run `python <scripts>/tests/<argv...>` (the tree's own by default)
    with the tree's `src/` on the path, in the tree; its stderr goes to
    `log`. Returns its stdout."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(tree / "src")}
    with open(log, "a") as err:
        done = subprocess.run([sys.executable, str((scripts or tree) / "tests" / argv[0]),
                               *argv[1:]],
                              cwd=tree, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{argv[0]} in {tree} exited {done.returncode}; see {log}")
    return done.stdout


def pipeline_runs(trees: dict, work: Path) -> dict:
    """Run the pipeline check of each tree at each link count into
    work/out, moved to work/<tree name>-<links>; returns those directories
    by (links, tree name)."""
    dirs = {}
    for links in LINKS:
        for name, tree in trees.items():
            out = work / "out"
            run_script(tree, ["pipeline.py", "--links", str(links), "--out", str(out)],
                       work / f"{name}.log")
            dirs[links, name] = out.rename(work / f"{name}-{links}")
    return dirs


def compare_dirs(a: Path, b: Path) -> list:
    """(relative path, verdict) of every file under a or b, sorted."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    verdicts = []
    for rel in sorted(files):
        if not (a / rel).is_file() or not (b / rel).is_file():
            verdicts.append((rel, f"only in {a.name if (a / rel).is_file() else b.name}"))
        else:
            same = filecmp.cmp(a / rel, b / rel, shallow=False)
            verdicts.append((rel, "identical" if same else "different"))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_tree", type=Path, help="the other checkout's root")
    ap.add_argument("--work", type=Path, help="keep the runs here (default: a temporary "
                                              "directory, removed at the end)")
    args = ap.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "tests" / "pipeline.py").is_file():
        ap.error(f"{other} is not a checkout of this repository")
    if other == ROOT:
        ap.error("OTHER_TREE is this tree")
    trees = {"this": ROOT, "other": other}
    temp = None
    if args.work is None:
        temp = tempfile.TemporaryDirectory()
        work = Path(temp.name)
    else:
        work = args.work.resolve()
        if work.exists() and any(work.iterdir()):
            ap.error(f"--work {work} is not empty")
        work.mkdir(parents=True, exist_ok=True)
    differ = 0
    try:
        dirs = pipeline_runs(trees, work)
        for links in LINKS:
            for rel, verdict in compare_dirs(dirs[links, "this"], dirs[links, "other"]):
                print(f"pipeline {links} links: {rel} {verdict}")
                differ += verdict != "identical"
        for workload in WORKLOADS:
            digests = {name: run_script(tree, ["plan_fingerprint.py", "--workload", workload,
                                               "--seed", "1"], work / f"{name}.log",
                                        {"OPENBLAS_NUM_THREADS": "1"}, ROOT)
                       for name, tree in trees.items()}
            same = digests["this"] == digests["other"]
            print(f"fingerprints {workload} seed 1: {'identical' if same else 'different'}")
            for name, text in digests.items():
                for line in text.splitlines():
                    print(f"  {name}: {line}")
            differ += not same
    except RunFailed as exc:
        print(f"error: {exc}" + (" (rerun with --work to keep it)" if temp else ""),
              file=sys.stderr)
        return 2
    finally:
        if temp is not None:
            temp.cleanup()
    print(f"{differ} difference(s)" if differ else "the trees are identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
