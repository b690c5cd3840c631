"""The four closed-loop workloads.

Each workload has a `setup(seed, workdir)` that generates every input from
the seed (problems, checkpoints) and a `run_pass(inputs, meter)` that issues
one fixed list of operations, one after another, through the package's
public functions. A pass does the same work every time it runs on the same
inputs, so a run repeats passes until its time is up and checks that each
pass reproduces the work counts of the first.

Planner and controller settings are shrunk from the package defaults so that
one run holds enough operations for a steady median: a 16-node RRT budget
with 30-tick steers, and 3-second rollouts.
"""

from __future__ import annotations

import copy
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cbfsteer import bench, cbf, config, neural, planner
from cbfsteer.jsonio import canonical_dumps

PLAN_QUERIES = 24  # hard-tagged queries per pass: 2x this many problems are generated
CTRL_ROLLOUTS = 24
CTRL_HORIZON_S = 3.0
OBSTACLE_SPEED = 0.05
CLOUD_CKPT = {"rollout_trajs": 3, "uniform_samples": 300, "epochs": 2}
LEARN = {
    "state": {"rollout_trajs": 20, "uniform_samples": 3000, "epochs": 4},
    "cloud": {"rollout_trajs": 4, "uniform_samples": 600, "epochs": 2},
}


def bench_config() -> dict:
    cfg = config.load_config()
    cfg["env_gen"].update(num_obstacles=8, shapes=["rect", "circle"])
    cfg["planner"].update(max_nodes=16, max_ctrl_steps=30)
    cfg["bench"].update(workers=1, proxy_runs=1)
    return cfg


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


# Reference kernel for host speed: small-array numpy calls with Python in
# between, the same mix the package spends its time on. On a shared host the
# speed of everything drifts together by up to half over tens of seconds, so
# every timed call is scaled by REF_S over the kernel's time measured right
# before and after it. REF_S is the kernel's time on a quiet host.
_REF_X = np.random.default_rng(0).standard_normal((16, 32))
_REF_W = np.random.default_rng(1).standard_normal((32, 32)) / 8.0
REF_S = 0.006


def reference_kernel() -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    t0 = time.perf_counter()
    for i in range(1000):
        y = np.tanh(_REF_X @ _REF_W)
        float(np.minimum(y, 0.5).sum(axis=1)[i % 16])
    return time.perf_counter() - t0


def timed(fn):
    """(result, seconds, host-speed factor) of `fn()`."""
    before = reference_kernel()
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        dt = time.perf_counter() - t0
    return out, dt, 2.0 * REF_S / (before + reference_kernel())


@dataclass
class Meter:
    """Times the operations of one pass from outside and counts their work."""

    tracer: object = None
    op_s: list = field(default_factory=list)  # scaled time of each operation
    op_work: list = field(default_factory=list)  # work units of each operation
    timed_s: float = 0.0  # scaled time of every timed call of the pass together
    wall_s: float = 0.0  # the same, as measured
    phase_s: dict = field(default_factory=dict)  # scaled time grouped by phase
    attempted: int = 0
    failed: int = 0
    work: list = field(default_factory=list)  # exact work counts, per operation
    sums: dict = field(default_factory=dict)  # outcome counters

    def call(self, fn, phase: str = ""):
        """Run `fn()` inside the timed (and, if tracing, traced) window and
        return (result, scaled seconds). `fn` looks the package's functions
        up when it runs, after the tracer has patched them."""
        def run():
            if self.tracer:
                self.tracer.install()
            try:
                return fn()
            finally:
                if self.tracer:
                    self.tracer.uninstall()

        out, dt, speed = timed(run)
        self.wall_s += dt
        self.timed_s += dt * speed
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + dt * speed
        return out, dt * speed

    def add(self, key: str, value) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def op(self, body) -> None:
        """Count one operation; it fails if it raises or a check returns False."""
        self.attempted += 1
        try:
            ok = body()
        except Exception:  # noqa: BLE001 - any error is a failed operation, reported below
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1


def steady(meters: list, attr: str = "op_s") -> np.ndarray:
    """Each operation's median scaled time over the passes, which repeat
    identical work."""
    return np.median(np.array([getattr(m, attr) for m in meters], dtype=float), axis=0)


def steady_phase(meters: list, phase: str) -> float:
    return float(np.median([m.phase_s[phase] for m in meters]))


@dataclass
class Inputs:
    seed: int
    cfg: dict
    arm: object
    digest: str
    problems: list = field(default_factory=list)
    method: dict | None = None
    barriers: dict = field(default_factory=dict)
    workdir: Path | None = None
    extra: dict = field(default_factory=dict)
    ok: bool = True


def _gen_problems(cfg, arm, seed: int, count: int) -> list:
    clearance = cfg["hyper"]["r_thres"] * cfg["bench"]["clearance_factor"]
    return bench.gen_problems(config.make_env_gen(cfg), count,
                              config.seed_stream(seed, "problem-gen"), arm, clearance)


def _problems_bytes(problems) -> bytes:
    return canonical_dumps([p.to_json() for p in problems]).encode()


def _collect(cfg, arm, seed: int, kind: str, counts: dict):
    return cbf.collect_dataset(
        arm, config.make_env_gen(cfg),
        cbf.DatasetCounts(counts["rollout_trajs"], counts["uniform_samples"]),
        config.make_policy(cfg), config.seed_stream(seed, "data", kind == "cloud"),
        observation_kind=kind, r_thres=cfg["hyper"]["r_thres"],
        cloud_points=cfg["cloud"]["num_points"], rollout_ticks=cfg["data"]["rollout_ticks"],
        ctrl_hz=cfg["controller"]["ctrl_hz"],
        uniform_samples_per_env=cfg["data"]["uniform_samples_per_env"],
        r_goal=cfg["controller"]["r_goal"])


def _init_net(cfg, arm, seed: int, kind: str):
    rng = config.seed_stream(seed, "training", kind == "cloud")
    if kind == "state":
        return neural.Mlp.create(config.state_widths(cfg, arm), rng)
    pw, tw = config.cloud_widths(cfg, arm)
    return neural.PointSetEncoder.create(arm.n_links, pw, tw, rng)


def _probe_h(net, dataset, arm, hyper) -> np.ndarray:
    """Barrier values on the first samples of a dataset, for the reload check."""
    barrier = cbf.NeuralBarrier(net, arm, hyper)
    return np.array([barrier.value_and_grad(s.q, s.observation, dataset.environments[s.env_id])[0]
                     for s in dataset.samples[:8]])


def reload_matches(path, net, dataset, arm, hyper) -> bool:
    """A saved checkpoint must reload to bit-identical barrier values."""
    _, loaded, _ = neural.load_checkpoint(path)
    return bool(np.array_equal(_probe_h(net, dataset, arm, hyper),
                               _probe_h(loaded, dataset, arm, hyper)))


def _cloud_checkpoint(cfg, arm, seed: int, workdir: Path) -> tuple[Path, bool]:
    ds = _collect(cfg, arm, seed, "cloud", CLOUD_CKPT)
    hyper = config.make_hyper(cfg, "cloud")
    schedule = config.make_schedule(cfg, "cloud")
    schedule = cbf.TrainSchedule(epochs=CLOUD_CKPT["epochs"], batch_size=schedule.batch_size,
                                 lr=schedule.lr)
    net, report = cbf.train(ds, _init_net(cfg, arm, seed, "cloud"), hyper, schedule,
                            config.seed_stream(seed, "training"))
    path = workdir / "checkpoint-cloud.json"
    neural.save_checkpoint(path, "cloud", net, hyper.to_json())
    return path, (not report.aborted) and reload_matches(path, net, ds, arm, hyper)


# -- planning ---------------------------------------------------------------

def setup_plan(method: str, seed: int, workdir: Path) -> Inputs:
    cfg = bench_config()
    arm = config.make_arm(cfg)
    problems = _gen_problems(cfg, arm, seed, 2 * PLAN_QUERIES)
    tagged = bench.difficulty_split(problems, cfg["bench"]["proxy_runs"],
                                    config.seed_stream(seed, "difficulty"), arm,
                                    config.make_planner_limits(cfg),
                                    r_goal=cfg["controller"]["r_goal"])
    hard = [p for p in tagged if p.difficulty == "hard"]
    parts = [_problems_bytes(hard)]
    ok = True
    spec = {"name": method}
    if method == "cbf-cloud":
        path, ok = _cloud_checkpoint(cfg, arm, seed, workdir)
        spec["checkpoint"] = str(path)
        parts.append(path.read_bytes())
    inputs = Inputs(seed=seed, cfg=cfg, arm=arm, digest=digest(*parts), problems=hard,
                    method=spec, ok=ok)
    # load the barrier into the steer cache now, so no query pays for it
    bench.build_steer(spec, arm, hard[0], cfg, seed, inputs.barriers)
    return inputs


def _plan_query(inputs: Inputs, prob):
    cfg = inputs.cfg
    steer = bench.build_steer(inputs.method, inputs.arm, prob, cfg, inputs.seed, inputs.barriers)
    problem = planner.PlanProblem(arm=inputs.arm, env=prob.environment, q0=prob.q0, qg=prob.qg,
                                  r_goal=cfg["controller"]["r_goal"])
    rng = config.seed_stream(inputs.seed, "planner", prob.id, 0)
    return planner.rrt_plan(problem, steer, config.make_planner_limits(cfg), rng, seed=inputs.seed)


def run_plan_pass(inputs: Inputs, meter: Meter) -> None:
    cfg = inputs.cfg
    for prob in inputs.problems:
        def body(prob=prob):
            res, dt = meter.call(lambda: _plan_query(inputs, prob))
            meter.op_s.append(dt)
            meter.op_work.append(res.explored_nodes)
            meter.add("solved", res.status == "solved")
            meter.work.append((prob.id, res.status, res.explored_nodes, res.tree_size))
            if res.status != "solved":
                return True
            return (np.array_equal(res.path[0], prob.q0)
                    and bench.validate_plan(prob, res, inputs.arm,
                                            cfg["planner"]["check_resolution"],
                                            cfg["controller"]["r_goal"]))
        meter.op(body)


def plan_metrics(meters: list) -> tuple[dict, dict]:
    """(end-to-end metrics, figures under the workload's own names)."""
    t = steady(meters)
    p50 = float(np.median(t))
    steers = sum(meters[0].op_work) / float(t.sum())
    named = {"plan_s_p50": p50, "steers_per_s": steers,
             "solved_frac": meters[0].sums.get("solved", 0) / len(t), "queries": len(t)}
    return {"op_s_p50": p50, "work_per_s": steers}, named


# -- dynamic-obstacle control ---------------------------------------------

def setup_control(seed: int, workdir: Path) -> Inputs:
    cfg = bench_config()
    arm = config.make_arm(cfg)
    problems = _gen_problems(cfg, arm, seed, CTRL_ROLLOUTS)
    moving = bench.dynamicize_problems(problems, OBSTACLE_SPEED,
                                       config.seed_stream(seed, "dynamics"))
    path, ok = _cloud_checkpoint(cfg, arm, seed, workdir)
    return Inputs(seed=seed, cfg=cfg, arm=arm, problems=moving, ok=ok,
                  method={"name": "cbf-cloud", "checkpoint": str(path)},
                  digest=digest(_problems_bytes(moving), path.read_bytes()))


def run_control_pass(inputs: Inputs, meter: Meter) -> None:
    max_ticks = int(round(CTRL_HORIZON_S * inputs.cfg["controller"]["ctrl_hz"]))
    for prob in inputs.problems:
        def body(prob=prob):
            (row, records), dt = meter.call(lambda: bench.eval_controller(
                [prob], inputs.method, "dynamic_partial", inputs.arm, inputs.cfg,
                root_seed=inputs.seed, horizon_s=CTRL_HORIZON_S))
            rec = records[0]
            meter.op_s.append(dt)
            meter.op_work.append(rec["steps_used"])
            meter.add("goal", row.goal_reaching_rate)
            meter.add("safe_state_frac", rec["safety_ratio"])
            meter.work.append((prob.id, rec["steps_used"], rec["reached_goal"], rec["collided"],
                               rec["qp_infeasible_count"]))
            return (row.n_problems == 1 and 0 <= rec["steps_used"] <= max_ticks
                    and 0.0 <= rec["safety_ratio"] <= 1.0)
        meter.op(body)


def control_metrics(meters: list) -> tuple[dict, dict]:
    t = steady(meters)
    ticks = np.array(meters[0].op_work, dtype=float)
    n = len(t)
    tick_s = float(np.median(t / np.maximum(ticks, 1.0)))
    ticks_per_s = ticks.sum() / float(t.sum())
    named = {"rollout_s_p50": float(np.median(t)), "tick_s_p50": tick_s,
             "ctrl_ticks_per_s": ticks_per_s,
             "goal_frac": meters[0].sums.get("goal", 0) / n,
             "safe_state_frac": meters[0].sums.get("safe_state_frac", 0) / n, "rollouts": n}
    return {"op_s_p50": tick_s, "work_per_s": ticks_per_s}, named


# -- learning -------------------------------------------------------------

def setup_learn(seed: int, workdir: Path) -> Inputs:
    cfg = bench_config()
    arm = config.make_arm(cfg)
    inits = {kind: _init_net(cfg, arm, seed, kind) for kind in LEARN}
    raw = canonical_dumps({kind: [[w.tolist(), b.tolist()] for w, b in
                                  (net.params if kind == "state" else net.all_params())]
                           for kind, net in inits.items()}).encode()
    # warm-up: one small collection and one epoch per kind
    for kind in LEARN:
        ds = _collect(cfg, arm, seed, kind, {"rollout_trajs": 1, "uniform_samples": 50})
        cbf.train(ds, copy.deepcopy(inits[kind]), config.make_hyper(cfg, kind),
                  cbf.TrainSchedule(epochs=1), config.seed_stream(seed, "warm-up"))
    return Inputs(seed=seed, cfg=cfg, arm=arm, digest=digest(raw), workdir=workdir,
                  extra={"inits": inits})


def run_learn_pass(inputs: Inputs, meter: Meter) -> None:
    """One operation: collect, train, audit and save a barrier of each kind."""
    cfg, arm, seed = inputs.cfg, inputs.arm, inputs.seed

    def job(kind: str, counts: dict) -> bool:
        hyper = config.make_hyper(cfg, kind)
        base = config.make_schedule(cfg, kind)
        schedule = cbf.TrainSchedule(epochs=counts["epochs"], batch_size=base.batch_size,
                                     lr=base.lr)
        ds, _ = meter.call(lambda: _collect(cfg, arm, seed, kind, counts), "collect")
        net0 = copy.deepcopy(inputs.extra["inits"][kind])
        rng = config.seed_stream(seed, "training", 2)
        (net, report), _ = meter.call(lambda: cbf.train(ds, net0, hyper, schedule, rng),
                                      f"train_{kind}")
        rates, _ = meter.call(lambda: cbf.evaluate_constraints(net, ds, hyper=hyper), "audit")
        path = inputs.workdir / f"learn-{kind}.json"
        meter.call(lambda: neural.save_checkpoint(path, kind, net, hyper.to_json()), "audit")
        n = len(ds)
        labels = [sum(s.label.value == lab for s in ds.samples)
                  for lab in ("safe", "unsafe", "boundary")]
        meter.add("collect_samples", n)
        meter.add(f"train_{kind}_samples", n * len(report.epochs))
        meter.add("audit_samples", rates["n_total"])
        last = report.epochs[-1] if report.epochs else {}
        val = [last.get(k, 0.0) for k in ("val_safe_rate", "val_unsafe_rate", "val_deriv_rate")]
        meter.sums["val_rate_min"] = min(meter.sums.get("val_rate_min", 1.0), *val)
        meter.work.append((kind, n, *labels, len(report.epochs), rates["n_safe"],
                           rates["n_unsafe"], rates["n_total"]))
        losses = [e["loss"] for e in report.epochs]
        return (not report.aborted and len(report.epochs) == counts["epochs"]
                and all(math.isfinite(v) for v in losses)
                and reload_matches(path, net, ds, arm, hyper))

    meter.op(lambda: all([job(kind, counts) for kind, counts in LEARN.items()]))
    meter.op_s.append(meter.timed_s)


def learn_metrics(meters: list) -> tuple[dict, dict]:
    s = meters[0].sums
    job_s = float(steady(meters)[0])
    samples = (s["collect_samples"] + s["train_state_samples"] + s["train_cloud_samples"]
               + s["audit_samples"])
    named = {
        "job_s": job_s,
        "collect_samples_per_s": s["collect_samples"] / steady_phase(meters, "collect"),
        "train_state_samples_per_s": s["train_state_samples"] / steady_phase(meters,
                                                                                "train_state"),
        "train_cloud_samples_per_s": s["train_cloud_samples"] / steady_phase(meters,
                                                                                "train_cloud"),
        "val_rate_min": s.get("val_rate_min", 0.0),
    }
    return {"op_s_p50": job_s, "work_per_s": samples / job_s}, named


WORKLOADS = {
    "plan-hand": (lambda seed, wd: setup_plan("hand-cbf", seed, wd), run_plan_pass,
                  plan_metrics),
    "plan-cloud": (lambda seed, wd: setup_plan("cbf-cloud", seed, wd), run_plan_pass,
                   plan_metrics),
    "control-dynamic": (setup_control, run_control_pass, control_metrics),
    "learn": (setup_learn, run_learn_pass, learn_metrics),
}
