"""Experiment harness: problem generation, difficulty tagging, planner
comparison tables, end-to-end controller evaluation, and artifact export.

Every emitted table is a pure aggregation of the per-run JSONL records written
next to it, and all randomness derives from one root seed through named
streams, so reruns with the same seed and config reproduce every artifact
byte for byte (timing fields can be zeroed with report_timing=False for
byte-stable outputs).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cbf import HandcraftedBarrier, NeuralBarrier
from .config import (
    checkpoint_hyper,
    make_planner_limits,
    make_policy,
    make_qp_cfg,
    make_rollout_limits,
    make_scan_spec,
    seed_stream,
)
from .controller import ControllerBundle, safe_rollout
from .environment import (
    Environment,
    EnvGenConfig,
    GenerationError,
    random_environment,
    ray_cast_scan,
    sample_surface_points,
    signed_distance,
)
from .jsonio import Record, canonical_dumps, dump_json, load_json
from .kinematics import ArmModel, sample_config
from .neural import load_checkpoint
from .planner import (
    PlannerLimits,
    PlanProblem,
    PlanResult,
    SteerRollout,
    SteerStraightLine,
    rrt_plan,
    validate_and_truncate,
)

DIFFICULTIES = ("easy", "hard", "untagged")
SETTINGS = ("static_full", "dynamic_partial")


@dataclass
class ProblemSpec(Record):
    id: int
    environment: Environment
    q0: np.ndarray
    qg: np.ndarray
    difficulty: str = "untagged"


def save_problems(path, problems: list) -> None:
    dump_json(path, [p.to_json() for p in problems])


def load_problems(path) -> list:
    return [ProblemSpec.from_json(doc) for doc in load_json(path)]


@dataclass
class MetricsRow(Record):
    method: str
    difficulty: str
    sr: float
    nodes_mean: float
    time_s_mean: float
    n_runs: int


@dataclass
class ControllerMetricsRow(Record):
    method: str
    setting: str
    goal_reaching_rate: float
    safety_rate: float
    mean_makespan: float | None
    n_problems: int


MAX_ENDPOINT_ATTEMPTS = 10_000


def gen_problems(gen_cfg: EnvGenConfig, count: int, rng: np.random.Generator,
                 arm: ArmModel, clearance: float) -> list:
    """Random worlds plus rejection-sampled start/goal pairs with clearance."""
    if count < 1:
        raise ValueError("count must be >= 1")
    problems = []
    for pid in range(count):
        env = random_environment(gen_cfg, rng, base_position=arm.base_position)
        endpoints = []
        for _ in range(2):
            for attempt in range(MAX_ENDPOINT_ATTEMPTS):
                q = sample_config(arm, rng)
                if signed_distance(env, arm, q) >= clearance:
                    endpoints.append(q)
                    break
            else:
                raise GenerationError(
                    f"problem {pid}: no endpoint with clearance {clearance} in "
                    f"environment {env.to_json()}"
                )
        problems.append(ProblemSpec(id=pid, environment=env, q0=endpoints[0], qg=endpoints[1]))
    return problems


def difficulty_split(problems: list, proxy_runs: int, rng: np.random.Generator,
                     arm: ArmModel, limits: PlannerLimits, r_goal: float = 0.1) -> list:
    """Tag problems by a vanilla-RRT hardness proxy.

    Score = median explored nodes over proxy_runs straight-line RRT runs
    (failures count max_nodes + 1); the top half by score is Hard, the bottom
    half Easy. Deterministic given the generator.
    """
    if proxy_runs < 1:
        raise ValueError("proxy_runs must be >= 1")
    root = int(rng.integers(2 ** 32))
    scores = []
    for prob in problems:
        counts = []
        for r in range(proxy_runs):
            run_rng = np.random.default_rng(np.random.SeedSequence([root, prob.id, r]))
            res = rrt_plan(
                PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg, r_goal=r_goal),
                SteerStraightLine(), limits, run_rng)
            counts.append(res.explored_nodes if res.status == "solved" else limits.max_nodes + 1)
        scores.append(float(np.median(counts)))
    order = sorted(range(len(problems)), key=lambda i: (scores[i], problems[i].id))
    n_easy = len(problems) - len(problems) // 2
    tagged = []
    for rank, i in enumerate(order):
        tag = "easy" if rank < n_easy else "hard"
        tagged.append(replace(problems[i], difficulty=tag))
    tagged.sort(key=lambda p: p.id)
    return tagged


def _controller(method: dict, arm: ArmModel, cfg: dict, barrier_cache: dict,
                **limit_overrides) -> ControllerBundle:
    """The method's controller from the config's `controller` section, with
    no observer yet. Its barrier is the hand-crafted one (with the neural
    barriers' finite-difference step) or the method's network, loaded once
    per checkpoint path; a network's training alpha_h must be the QP's
    alpha, since it was trained to satisfy the barrier condition with it."""
    if method["name"] == "hand-cbf":
        barrier = HandcraftedBarrier(arm, margin=cfg["controller"]["hand_margin"],
                                     fd_step=cfg["hyper"]["fd_step"])
    else:
        path = method["checkpoint"]
        if path not in barrier_cache:
            _, net, hyper_doc = load_checkpoint(path)
            hyper = checkpoint_hyper(cfg, hyper_doc)
            alpha = cfg["controller"]["alpha"]
            if hyper.alpha_h != alpha:
                raise ValueError(f"checkpoint {path} was trained with alpha_h="
                                 f"{hyper.alpha_h}, but controller.alpha is {alpha}")
            barrier_cache[path] = NeuralBarrier(net, arm, hyper)
        barrier = barrier_cache[path]
    return ControllerBundle(barrier=barrier, observe=None, policy=make_policy(cfg),
                            qp_cfg=make_qp_cfg(cfg),
                            limits=make_rollout_limits(cfg, **limit_overrides))


def _observer(barrier, problem: ProblemSpec, setting: str, cfg: dict, root_seed: int):
    """What a barrier sees: nothing unless it reads observations; else in
    "static_full" the problem's surface cloud (seeded by problem id), in
    "dynamic_partial" ray-cast fans of the world it is given."""
    if not barrier.needs_observation:
        return None
    if setting == "dynamic_partial":
        spec = make_scan_spec(cfg)
        return lambda env, arm, q: ray_cast_scan(env, arm, q, spec)
    cloud_rng = seed_stream(root_seed, "problem-cloud", problem.id)
    cloud = sample_surface_points(problem.environment, cfg["cloud"]["num_points"], cloud_rng)
    return lambda env, arm, q: cloud


def build_steer(method: dict, arm: ArmModel, problem: ProblemSpec, cfg: dict,
                root_seed: int, barrier_cache: dict):
    """Instantiate a steer kind for one problem; planning worlds are static
    and fully observed, so cloud methods see the problem's surface cloud."""
    name = method["name"]
    if name == "straight":
        return SteerStraightLine()
    if name not in ("hand-cbf", "cbf-state", "cbf-cloud", "filter-lqr"):
        raise ValueError(f"unknown method {name!r}")
    bundle = _controller(method, arm, cfg, barrier_cache)
    bundle = replace(bundle, observe=_observer(bundle.barrier, problem, "static_full", cfg,
                                               root_seed))
    act = None
    if name == "filter-lqr":
        # a spec without a switch point (or with a negative one) switches to
        # the discard-style steer halfway through the node budget
        act = int(method.get("activation_after", -1))
        if act < 0:
            act = int(cfg["planner"]["max_nodes"]) // 2
    return SteerRollout(bundle=bundle, activation_after=act)


_WORKER_STATE: dict = {}


def _init_worker(cfg, arm_doc, root_seed):
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["arm"] = ArmModel.from_json(arm_doc)
    _WORKER_STATE["root_seed"] = root_seed
    _WORKER_STATE["barriers"] = {}


def _run_task(task):
    problem_doc, method, seed = task
    cfg = _WORKER_STATE["cfg"]
    arm = _WORKER_STATE["arm"]
    root_seed = _WORKER_STATE["root_seed"]
    prob = ProblemSpec.from_json(problem_doc)
    steer = build_steer(method, arm, prob, cfg, root_seed, _WORKER_STATE["barriers"])
    limits = make_planner_limits(cfg)
    rng = seed_stream(root_seed, "planner", prob.id, seed)
    res = rrt_plan(
        PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg,
                    r_goal=cfg["controller"]["r_goal"]),
        steer, limits, rng, seed=seed)
    return prob.id, prob.difficulty, method["name"], seed, res.to_json()


def run_bench(problems: list, methods: list, seeds: list, arm: ArmModel, cfg: dict,
              out_dir, root_seed: int = 0, report_timing: bool = True,
              svg: bool = False) -> list:
    """Run every (problem, method, seed) plan and aggregate per method and
    difficulty. Writes metrics.csv, metrics.json, runs.jsonl and optionally a
    bar-chart SVG into out_dir; returns the MetricsRow list."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # fail early on missing checkpoints, and load each one once
    cache: dict = {}
    for method in methods:
        if "checkpoint" in method:
            path = Path(method["checkpoint"])
            if not path.exists():
                raise FileNotFoundError(f"checkpoint for {method['name']} not found: {path}")
            _controller(method, arm, cfg, cache)

    tasks = [(p.to_json(), m, s) for m in methods for p in problems for s in seeds]
    workers = int(cfg["bench"].get("workers", 1))
    if workers > 1:
        with multiprocessing.Pool(workers, initializer=_init_worker,
                                  initargs=(cfg, arm.to_json(), root_seed)) as pool:
            results = list(pool.imap(_run_task, tasks, chunksize=4))
    else:
        _init_worker(cfg, arm.to_json(), root_seed)
        _WORKER_STATE["barriers"] = cache
        results = [_run_task(t) for t in tasks]

    results.sort(key=lambda r: (r[2], r[0], r[3]))  # canonical order: method, problem, seed
    run_rows = []
    for pid, difficulty, name, seed, res in results:
        if not report_timing:
            res = dict(res, planning_seconds=0.0)
        run_rows.append({
            "problem_id": pid,
            "difficulty": difficulty,
            "method": name,
            "seed": seed,
            "result": res,
        })
    with open(out_dir / "runs.jsonl", "w") as f:
        for row in run_rows:
            f.write(canonical_dumps(row) + "\n")

    rows = []
    present = [d for d in DIFFICULTIES if any(p.difficulty == d for p in problems)]
    for name in [m["name"] for m in methods]:
        for diff in present:
            sel = [r for r in run_rows if r["method"] == name and r["difficulty"] == diff]
            if not sel:
                continue
            solved = [1.0 if r["result"]["status"] == "solved" else 0.0 for r in sel]
            nodes = [r["result"]["explored_nodes"] for r in sel]
            times = [r["result"]["planning_seconds"] for r in sel]
            rows.append(MetricsRow(
                method=name,
                difficulty=diff,
                sr=float(np.mean(solved)),
                nodes_mean=float(np.mean(nodes)),
                time_s_mean=float(np.mean(times)),
                n_runs=len(sel),
            ))
    write_metrics_csv(out_dir / "metrics.csv", rows)
    dump_json(out_dir / "metrics.json", [r.to_json() for r in rows])
    if svg:
        render_bar_chart_svg(out_dir / "metrics.svg", rows)
    return rows


def write_metrics_csv(path, rows: list) -> None:
    lines = ["method,difficulty,sr,nodes_mean,time_s_mean,n_runs"]
    for r in rows:
        lines.append(f"{r.method},{r.difficulty},{r.sr!r},{r.nodes_mean!r},"
                     f"{r.time_s_mean!r},{r.n_runs}")
    Path(path).write_text("\n".join(lines) + "\n")


def render_bar_chart_svg(path, rows: list) -> None:
    """Minimal deterministic grouped bar chart: SR (top) and explored nodes
    (bottom) per method and difficulty."""
    width, height = 640, 400
    panel_h = 170
    groups = [(r.method, r.difficulty, r.sr, r.nodes_mean) for r in rows]
    n = max(1, len(groups))
    bar_w = max(10.0, (width - 80) / n - 10)
    max_nodes = max((g[3] for g in groups), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text{font-family:sans-serif;font-size:10px}</style>',
        '<text x="10" y="15">success rate</text>',
        f'<text x="10" y="{15 + panel_h + 40}">mean explored nodes</text>',
    ]
    for i, (method, diff, sr, nodes) in enumerate(groups):
        x = 40 + i * (bar_w + 10)
        h1 = sr * (panel_h - 30)
        parts.append(
            f'<rect x="{x:.1f}" y="{20 + (panel_h - 30) - h1:.1f}" width="{bar_w:.1f}" '
            f'height="{h1:.1f}" fill="#4878cf"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{20 + panel_h - 5}">{method}/{diff} {sr:.2f}</text>')
        h2 = nodes / max_nodes * (panel_h - 30)
        y2 = 60 + panel_h
        parts.append(
            f'<rect x="{x:.1f}" y="{y2 + (panel_h - 30) - h2:.1f}" width="{bar_w:.1f}" '
            f'height="{h2:.1f}" fill="#d65f5f"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{y2 + panel_h - 5}">{method}/{diff} {nodes:.1f}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def dynamicize_problems(problems: list, speed: float, rng: np.random.Generator) -> list:
    """Give every obstacle a constant random-direction velocity of the given speed."""
    out = []
    for prob in problems:
        obstacles = []
        for o in prob.environment.obstacles:
            ang = rng.uniform(0.0, 2.0 * np.pi)
            obstacles.append(replace(o, velocity=(speed * np.cos(ang), speed * np.sin(ang))))
        env = Environment(obstacles=tuple(obstacles), workspace=prob.environment.workspace,
                          time=prob.environment.time)
        out.append(replace(prob, environment=env))
    return out


def eval_controller(problems: list, method: dict, setting: str, arm: ArmModel, cfg: dict,
                    root_seed: int = 0, horizon_s: float | None = None,
                    barrier_cache: dict | None = None) -> tuple:
    """Unroll the controller end to end on every problem (no planner).

    The setting, one of SETTINGS, picks what the barrier sees (`_observer`).
    Calls may share a `barrier_cache` of loaded checkpoints, as a caller
    evaluating one problem per call would; the benchmark's control-dynamic
    pass passes none, so it loads the checkpoint on every call. Returns
    (ControllerMetricsRow, per-problem records).
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    bundle = _controller(method, arm, cfg, {} if barrier_cache is None else barrier_cache,
                         **({} if horizon_s is None else {"horizon_s": horizon_s}))
    records = []
    reached = []
    safety = []
    makespans = []
    for prob in problems:
        observe = _observer(bundle.barrier, prob, setting, cfg, root_seed)
        rec = safe_rollout(replace(bundle, observe=observe), prob.q0, prob.qg, prob.environment)
        ok_states = float(np.mean(np.asarray(rec.min_signed_distance) >= 0.0))
        reached.append(1.0 if rec.reached_goal and not rec.collided else 0.0)
        safety.append(ok_states)
        if rec.reached_goal and not rec.collided:
            makespans.append(rec.steps_used)
        records.append({
            "problem_id": prob.id,
            "reached_goal": rec.reached_goal,
            "collided": rec.collided,
            "safety_ratio": ok_states,
            "steps_used": rec.steps_used,
            "qp_infeasible_count": rec.qp_infeasible_count,
        })
    row = ControllerMetricsRow(
        method=method["name"],
        setting=setting,
        goal_reaching_rate=float(np.mean(reached)) if reached else 0.0,
        safety_rate=float(np.mean(safety)) if safety else 1.0,
        mean_makespan=float(np.mean(makespans)) if makespans else None,
        n_problems=len(problems),
    )
    return row, records


def validate_plan(problem: ProblemSpec, plan: PlanResult, arm: ArmModel,
                  check_resolution: float, r_goal: float) -> bool:
    """Re-validate a stored plan geometrically: the whole path must check out
    collision-free at the given resolution and end in the goal ball."""
    if plan.status != "solved":
        return False
    kept = validate_and_truncate(problem.environment, arm, plan.path, check_resolution)
    if len(kept) != len(plan.path):
        return False
    return bool(np.linalg.norm(np.asarray(plan.path[-1]) - np.asarray(problem.qg)) <= r_goal)
