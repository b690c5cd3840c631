"""Experiment harness: problem generation, difficulty tagging, planner
comparison tables, end-to-end controller evaluation, and artifact export.

Every emitted table is a pure aggregation of the per-run JSONL records written
next to it, and all randomness derives from one root seed through named
streams, so reruns with the same seed and config reproduce every artifact
byte for byte (timing fields can be zeroed with report_timing=False for
byte-stable outputs).
"""

from __future__ import annotations

import enum
import math
import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cbf import HandcraftedBarrier, NeuralBarrier
from .config import (
    checkpoint_hyper,
    is_int_at_least,
    make_hyper,
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
    random_environment,
    random_velocity,
    ray_cast_scan,
    sample_free_config,
    sample_surface_points,
)
from .jsonio import Record, dump_json, dump_jsonl, load_json
from .kinematics import ArmModel, check_endpoints, within
from .neural import load_checkpoint
from .planner import (
    PlannerLimits,
    PlanProblem,
    PlanResult,
    SteerRollout,
    SteerStraightLine,
    rrt_plan,
    rrt_plan_with_tree,
    validate_and_truncate,
)

DIFFICULTIES = ("easy", "hard", "untagged")
DYNAMIC_PARTIAL_SPEED = 0.05  # the speed dynamic_partial gives static problems' obstacles
# each steering method and the checkpoint variant it steers with ("any": either)
METHODS = {"straight": None, "cbf-state": "state", "cbf-cloud": "cloud", "hand-cbf": None,
           "filter-lqr": "any"}


class Setting(str, enum.Enum):
    """A controller run's setting: records hold its value, the command line its `cli`."""
    STATIC_FULL = "static_full"
    DYNAMIC_PARTIAL = "dynamic_partial"
    cli = property(lambda self: self.value.replace("_", "-"))


@dataclass
class ProblemSpec(Record):
    id: int
    environment: Environment
    q0: np.ndarray
    qg: np.ndarray
    difficulty: str = "untagged"

    def __post_init__(self):
        if self.difficulty not in DIFFICULTIES:
            raise ValueError(f"problem {self.id}: unknown difficulty {self.difficulty!r}")


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
    setting: Setting
    goal_reaching_rate: float
    safety_rate: float
    mean_makespan: float | None
    n_problems: int


def gen_problems(gen_cfg: EnvGenConfig, count: int, rng: np.random.Generator,
                 arm: ArmModel, clearance: float) -> list:
    """Random worlds plus rejection-sampled start/goal pairs with clearance,
    which must be non-negative: endpoints must be collision-free."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= clearance < math.inf:
        raise ValueError("problem clearance must be non-negative and finite")
    problems = []
    for pid in range(count):
        env = random_environment(gen_cfg, rng, base_position=arm.base_position)
        q0 = sample_free_config(env, arm, rng, clearance)
        qg = sample_free_config(env, arm, rng, clearance)
        problems.append(ProblemSpec(id=pid, environment=env, q0=q0, qg=qg))
    return problems


def difficulty_split(problems: list, proxy_runs: int, rng: np.random.Generator,
                     arm: ArmModel, limits: PlannerLimits, r_goal: float) -> list:
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


def _controller(method: dict, arm: ArmModel, problem: ProblemSpec, setting: Setting, cfg: dict,
                root_seed: int, barrier_cache: dict, **limit_overrides) -> ControllerBundle:
    """The method's controller for one problem in `setting`, a `Setting` or
    its value (another name raises ValueError), from the config's
    `controller` section: the hand-crafted barrier with the config's `hyper`
    block, or the method's network of its `METHODS` variant, loaded once per
    checkpoint path, with the hyperparameters it was trained with. What the
    barrier sees: nothing unless it is a cloud net; a cloud net in
    STATIC_FULL sees the problem's surface cloud (seeded by problem id), in
    DYNAMIC_PARTIAL ray-cast fans of the world it is given."""
    setting, name = Setting(setting), method["name"]
    if name == "hand-cbf":
        barrier = HandcraftedBarrier(arm, cfg["controller"]["hand_margin"], make_hyper(cfg))
    elif not METHODS.get(name) or "checkpoint" not in method:
        raise ValueError(f"method {name} has no controller")
    else:
        variant, path = METHODS[name], method["checkpoint"]
        if path not in barrier_cache:
            _, net, hyper_doc = load_checkpoint(path)
            barrier_cache[path] = NeuralBarrier(net, arm, checkpoint_hyper(cfg, hyper_doc))
        barrier = barrier_cache[path]
        if variant not in ("any", barrier.kind):
            raise ValueError(f"method {name} needs a {variant} checkpoint, "
                             f"but {path} holds a {barrier.kind} net")
    observe = None
    if barrier.kind == "cloud" and setting is Setting.DYNAMIC_PARTIAL:
        spec = make_scan_spec(cfg)
        observe = lambda env, arm, q: ray_cast_scan(env, arm, q, spec)
    elif barrier.kind == "cloud":
        cloud_rng = seed_stream(root_seed, "problem-cloud", problem.id)
        cloud = sample_surface_points(problem.environment, cfg["cloud"]["num_points"], cloud_rng)
        observe = lambda env, arm, q: cloud
    return ControllerBundle(barrier=barrier, observe=observe, policy=make_policy(cfg),
                            qp_cfg=make_qp_cfg(cfg),
                            limits=make_rollout_limits(cfg, **limit_overrides))


def build_steer(method: dict, arm: ArmModel, problem: ProblemSpec, cfg: dict,
                root_seed: int, barrier_cache: dict):
    """Instantiate a steer kind for one problem; planning worlds are static
    and fully observed, so cloud methods see the problem's surface cloud."""
    name = method["name"]
    if name == "straight":
        return SteerStraightLine()
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    bundle = _controller(method, arm, problem, Setting.STATIC_FULL, cfg, root_seed, barrier_cache)
    act = None
    if name == "filter-lqr":
        # a spec without a switch point, or with -1, switches to the
        # discard-style steer halfway through the node budget
        act = method.get("activation_after", -1)
        if not is_int_at_least(act, -1):
            raise ValueError("filter-lqr activation_after must be an integer >= 0, or -1 for "
                             f"half the node budget, not {act!r}")
        if act == -1:
            act = int(cfg["planner"]["max_nodes"]) // 2
    return SteerRollout(bundle=bundle, activation_after=act)


def plan_query(prob: ProblemSpec, method: dict, arm: ArmModel, cfg: dict, root_seed: int,
               stream: int, barrier_cache: dict, seed: int) -> tuple:
    """Plan one problem with one method: its `build_steer` steer and the
    planner stream (root_seed, problem id, stream); the result records
    `seed`. Returns (PlanResult, SearchTree)."""
    steer = build_steer(method, arm, prob, cfg, root_seed, barrier_cache)
    problem = PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg,
                          r_goal=cfg["controller"]["r_goal"])
    rng = seed_stream(root_seed, "planner", prob.id, stream)
    return rrt_plan_with_tree(problem, steer, make_planner_limits(cfg), rng, seed=seed)


_WORKER_STATE: list = []  # a pool worker's (arm, cfg, root_seed, barrier cache)


def _init_worker(*state):
    _WORKER_STATE[:] = state


def _run_task(task, state=None):
    """A bench run's row: `plan_query` on planner stream `seed`."""
    (prob, method, seed), (arm, cfg, root_seed, barriers) = task, state or _WORKER_STATE
    res, _ = plan_query(prob, method, arm, cfg, root_seed, seed, barriers, seed)
    return {"problem_id": prob.id, "difficulty": prob.difficulty, "method": method["name"],
            "seed": seed, "result": res.to_json()}


def _check_each_once(what: str, items: list) -> None:
    """Refuse an empty list and a repeated item: a table of runs needs one
    run at least and counts each run once."""
    if not items:
        raise ValueError(f"no {what} to run")
    if len(set(items)) < len(items):
        raise ValueError(f"each {what} runs once: {items} repeats one")


def run_bench(problems: list, methods: list, seeds: list, arm: ArmModel, cfg: dict,
              out_dir, root_seed: int = 0, report_timing: bool = True,
              svg: bool = False) -> list:
    """Run every (problem, method, seed) plan and aggregate per method and
    difficulty. Writes metrics.csv, metrics.json, runs.jsonl and optionally a
    bar-chart SVG into out_dir; returns the MetricsRow list."""
    names = [m["name"] for m in methods]
    for what, items in (("problem", [p.id for p in problems]), ("method", names),
                        ("seed", seeds)):
        _check_each_once(what, items)
    if not all(is_int_at_least(s, 0) for s in seeds):
        raise ValueError(f"bench seeds must be non-negative integers: {seeds!r}")
    for p in problems:
        check_endpoints(arm, p.q0, p.qg, f"problem {p.id}: ")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # fail early on missing checkpoints, and load each one once
    cache: dict = {}
    for method in methods:
        if "checkpoint" in method:
            path = Path(method["checkpoint"])
            if not path.exists():
                raise FileNotFoundError(f"checkpoint for {method['name']} not found: {path}")
            _controller(method, arm, problems[0], Setting.STATIC_FULL, cfg, root_seed, cache)

    tasks = [(p, m, s) for m in methods for p in problems for s in seeds]
    workers = cfg["bench"]["workers"]
    if workers > 1:
        with multiprocessing.Pool(workers, initializer=_init_worker,
                                  initargs=(arm, cfg, root_seed, {})) as pool:
            results = list(pool.imap(_run_task, tasks, chunksize=4))
    else:
        results = [_run_task(t, (arm, cfg, root_seed, cache)) for t in tasks]

    # canonical order: method, problem, seed
    run_rows = sorted(results, key=lambda r: (r["method"], r["problem_id"], r["seed"]))
    if not report_timing:
        for r in run_rows:
            r["result"]["planning_seconds"] = 0.0
    dump_jsonl(out_dir / "runs.jsonl", run_rows)

    rows = []
    present = [d for d in DIFFICULTIES if any(p.difficulty == d for p in problems)]
    for name in names:
        for diff in present:
            sel = [r for r in run_rows if r["method"] == name and r["difficulty"] == diff]
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
    if not 0 <= speed < np.inf:
        raise ValueError("obstacle_speed must be non-negative and finite")
    out = []
    for prob in problems:
        obstacles = tuple(replace(o, velocity=random_velocity(speed, rng))
                          for o in prob.environment.obstacles)
        out.append(replace(prob, environment=replace(prob.environment, obstacles=obstacles)))
    return out


def setting_worlds(problems: list, setting: Setting, root_seed: int,
                   obstacle_speed: float | None = None) -> list:
    """The worlds a controller run in `setting` (a `Setting` or its value;
    another name raises ValueError) rolls out in: under DYNAMIC_PARTIAL
    static problems' obstacles move at `obstacle_speed` (default
    DYNAMIC_PARTIAL_SPEED) on the stream "dynamics". A list of moving
    problems, and a list of static ones under STATIC_FULL, comes back as
    given and refuses a speed. STATIC_FULL refuses a moving problem, and
    DYNAMIC_PARTIAL a list that mixes moving and static ones."""
    setting, moved = Setting(setting), [p.id for p in problems if p.environment.is_dynamic]
    if obstacle_speed is not None and (moved or setting is Setting.STATIC_FULL):
        why = "the problems' obstacles already move" if moved else "static-full moves no obstacle"
        raise ValueError(f"an obstacle speed is refused: {why}")
    if moved and setting is Setting.STATIC_FULL:
        raise ValueError(f"static-full moves no obstacle, but those of problems {moved} move")
    if moved and len(moved) < len(problems):
        raise ValueError("dynamic-partial takes moving or static problems, not both: only "
                         f"problems {moved} of {len(problems)} move")
    if setting is Setting.STATIC_FULL or moved:
        return problems
    speed = DYNAMIC_PARTIAL_SPEED if obstacle_speed is None else obstacle_speed
    return dynamicize_problems(problems, speed, seed_stream(root_seed, "dynamics"))


def control_query(prob: ProblemSpec, method: dict, arm: ArmModel, cfg: dict, root_seed: int,
                  setting: Setting, barrier_cache: dict, horizon_s: float | None = None):
    """Roll one problem out with the method's controller in `setting`
    (`_controller`; `horizon_s` overrides the config's horizon). The problem
    is already in its setting's world (`setting_worlds`). It refuses unusable
    endpoints, and filter-lqr, whose discard switch lives only in the
    planner's steer: its rollout is its checkpoint's cbf method."""
    check_endpoints(arm, prob.q0, prob.qg, f"problem {prob.id}: ")
    if method["name"] == "filter-lqr":
        raise ValueError("method filter-lqr has no controller of its own: outside the planner "
                         "it is cbf-state or cbf-cloud")
    bundle = _controller(method, arm, prob, setting, cfg, root_seed, barrier_cache,
                         **({} if horizon_s is None else {"horizon_s": horizon_s}))
    return safe_rollout(bundle, prob.q0, prob.qg, prob.environment)


def eval_controller(problems: list, method: dict, setting: Setting, arm: ArmModel, cfg: dict,
                    root_seed: int = 0, horizon_s: float | None = None,
                    barrier_cache: dict | None = None,
                    obstacle_speed: float | None = None) -> tuple:
    """Unroll the controller end to end on every problem (no planner), in
    the setting's worlds (`setting_worlds`, with `obstacle_speed`), one
    `control_query` per problem.

    The setting, a `Setting` or its value (another name raises ValueError
    before any rollout), also picks what the barrier sees. Calls may share
    a `barrier_cache` of loaded checkpoints; the benchmark's control-dynamic
    pass passes none, so it loads the checkpoint on every call. Returns
    (ControllerMetricsRow, per-problem records).
    """
    setting = Setting(setting)
    _check_each_once("problem", [p.id for p in problems])
    for p in problems:  # every problem's endpoints, before any rollout
        check_endpoints(arm, p.q0, p.qg, f"problem {p.id}: ")
    problems = setting_worlds(problems, setting, root_seed, obstacle_speed)
    cache = {} if barrier_cache is None else barrier_cache
    rollouts = [control_query(p, method, arm, cfg, root_seed, setting, cache, horizon_s)
                for p in problems]
    reached = [1.0 if r.reached_goal and not r.collided else 0.0 for r in rollouts]
    makespans = [r.steps_used for r, ok in zip(rollouts, reached) if ok]
    records = [{"problem_id": p.id, "reached_goal": r.reached_goal, "collided": r.collided,
                "safety_ratio": r.safety_ratio, "steps_used": r.steps_used,
                "qp_infeasible_count": r.qp_infeasible_count}
               for p, r in zip(problems, rollouts)]
    row = ControllerMetricsRow(
        method=method["name"],
        setting=setting,
        goal_reaching_rate=float(np.mean(reached)),
        safety_rate=float(np.mean([r.safety_ratio for r in rollouts])),
        mean_makespan=float(np.mean(makespans)) if makespans else None,
        n_problems=len(problems),
    )
    return row, records


def validate_plan(problem: ProblemSpec, plan: PlanResult, arm: ArmModel,
                  check_resolution: float, r_goal: float) -> bool:
    """Re-validate a stored plan geometrically: the path must start at the
    problem's start exactly, check out collision-free at the given resolution
    and end in the goal ball."""
    if plan.status != "solved" or not plan.path or not np.array_equal(plan.path[0], problem.q0):
        return False
    kept = validate_and_truncate(problem.environment, arm, plan.path, check_resolution)
    return len(kept) == len(plan.path) and within(plan.path[-1], problem.qg, r_goal)
