"""cbfsteer benchmark: one closed-loop workload, timed from outside.

    python3 perfbench/run.py --workload plan-hand --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. Set-up generates every input from the seed,
three times, and reports the median as `setup_s`. The run then repeats a
fixed pass of operations until `--seconds` have gone by, checks every
output outside the timed windows, and prints one line per metric followed
by the result as one JSON object on the last line.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json. With
`--trace 1` the run alternates an untraced pass with a traced one and
reports the per-layer metrics per traced pass; the spans are written to
`.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: multi-threaded BLAS on the small matrices here makes run
# times noisier without making them shorter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 3
MIN_PASSES = 3  # each operation's median over at least three repeats


def host_record() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
    }


def _blas_threads(np) -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    t_import = time.perf_counter()
    if not (ROOT / "src" / "cbfsteer" / "__init__.py").is_file():
        print(f"cbfsteer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (imports the package)
    import_s = time.perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, import_s, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, import_s, workdir, out_dir) -> int:
    setup, run_pass, summarize = workloads.WORKLOADS[args.workload]
    setup_times = []
    digests = set()
    setups_ok = []

    def set_up():
        inputs, dt, speed = workloads.timed(lambda: setup(args.seed, workdir))
        setup_times.append((import_s + dt) * speed)
        digests.add(inputs.digest)
        setups_ok.append(inputs.ok)
        return inputs

    inputs = set_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced, span_ranges = [], [], []
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(workloads.Meter())
        run_pass(inputs, plain[-1])
        if tracer:
            lo = len(tracer.spans)
            traced.append(workloads.Meter(tracer=tracer))
            run_pass(inputs, traced[-1])
            span_ranges.append((lo, len(tracer.spans)))
        measured += time.perf_counter() - t0
        # the remaining set-ups run between passes, so one slow spell of the
        # host does not hit all of them
        if len(setup_times) < SETUPS:
            set_up()
        # stop before a pass that would end past the time budget
        per_pass = measured / len(plain)
        if measured + per_pass > args.seconds and len(plain) >= (1 if tracer else MIN_PASSES):
            break
    while len(setup_times) < SETUPS:
        set_up()

    meters = plain + traced
    same_work = all(m.work == plain[0].work for m in meters)
    attempted = sum(m.attempted for m in meters)
    failed = (sum(m.failed for m in meters) + (not same_work) + (len(digests) != 1)
              + setups_ok.count(False))
    e2e, named = summarize(plain)
    e2e = {"setup_s": statistics.median(setup_times),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, **e2e}
    units = {"setup_s": "s", "peak_rss_mb": "MB", "op_s_p50": "s", "work_per_s": "1/s"}
    if tracer:
        best = min(range(len(traced)), key=lambda k: traced[k].timed_s)
        layer = tracer.metrics(traced[best].wall_s, *span_ranges[best])
        layer["trace.overhead_frac"] = (statistics.median(m.timed_s for m in traced)
                                        / statistics.median(m.timed_s for m in plain) - 1.0)
        tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(meters),
        "operations_per_pass": len(plain[0].op_s),
        "pass_wall_s": [m.wall_s for m in meters],
        "pass_scaled_s": [m.timed_s for m in meters],
        "fail_frac": failed / max(attempted, 1),
        "setup_runs_s": setup_times,
        "fingerprint": {"inputs": sorted(digests),
                        "work": workloads.digest(json.dumps(plain[0].work).encode()),
                        "work_counts": plain[0].work},
        "figures": named,
        "host": host_record(),
    }
    print(json.dumps(details, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
