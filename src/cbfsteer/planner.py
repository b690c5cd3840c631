"""RRT with pluggable steer functions: straight-line, and barrier-filtered
rollout steering (learned or hand-crafted barrier) with its
completeness-preserving filtered-LQR variant.

Tree edges always pass geometric collision validation at the configured
resolution before they are stored; the learned barrier is never trusted for
the safety of stored edges. The sampling order is part of the contract: each
iteration draws the goal-bias coin first and only on failure draws a uniform
configuration.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerBundle, control_tick
from .environment import Environment, signed_distance, signed_distance_batch
from .jsonio import Record
from .kinematics import ArmModel, hold


@dataclass
class Edge:
    """Executed trajectory between tree nodes; configs[0] is the parent config."""

    configs: list = field(default_factory=list)
    controls: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return len(self.configs) <= 1

    @property
    def endpoint(self) -> np.ndarray:
        return self.configs[-1]


@dataclass
class TreeNode:
    config: np.ndarray
    parent: int  # -1 for the root
    edge: Edge | None


class SearchTree:
    def __init__(self, root: np.ndarray):
        self.nodes: list[TreeNode] = [TreeNode(config=np.asarray(root, float), parent=-1, edge=None)]

    def __len__(self) -> int:
        return len(self.nodes)

    def nearest(self, q: np.ndarray) -> int:
        configs = np.stack([n.config for n in self.nodes])
        return int(np.argmin(np.linalg.norm(configs - np.asarray(q, float), axis=1)))

    def add(self, config: np.ndarray, parent: int, edge: Edge) -> int:
        self.nodes.append(TreeNode(config=np.asarray(config, float), parent=parent, edge=edge))
        return len(self.nodes) - 1


@dataclass(frozen=True)
class SteerStraightLine:
    """Straight joint-space segments, truncated before the first collision."""


@dataclass(frozen=True)
class SteerRollout:
    """Barrier-filtered rollout steering (CBF-INC) with the bundle's barrier,
    learned or hand-crafted. Once the tree holds `activation_after` nodes
    (never if None) it discards instead: the filtered-LQR steer, which ends
    the edge at the first unsafe nominal action instead of modifying it."""

    bundle: ControllerBundle
    activation_after: int | None = None

    def __post_init__(self):
        if self.activation_after is not None and self.activation_after < 0:
            raise ValueError("activation threshold must be >= 0")


SteerKind = SteerStraightLine | SteerRollout


@dataclass(frozen=True)
class PlannerLimits(Record):
    max_nodes: int = 200
    goal_bias: float = 0.1
    step_size: float = 0.5
    check_resolution: float = 0.02
    connect_radius: float = 1.0
    max_ctrl_steps: int = 90
    stall_threshold: float = 1e-3
    stall_ticks: int = 5

    def __post_init__(self):
        for name in ("step_size", "check_resolution"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"planner {name} must be positive and finite")
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("planner goal_bias must be in [0, 1]")
        if self.stall_ticks < 1:
            raise ValueError("planner stall_ticks must be >= 1")
        if self.max_nodes < 0 or self.max_ctrl_steps < 0:
            raise ValueError("planner max_nodes and max_ctrl_steps must be >= 0")


@dataclass(frozen=True)
class PlanProblem:
    arm: ArmModel
    env: Environment
    q0: np.ndarray
    qg: np.ndarray
    r_goal: float = 0.1


@dataclass
class PlanResult(Record):
    status: str  # "solved" | "node_limit"
    path: list[np.ndarray]
    controls: list[np.ndarray]
    explored_nodes: int
    planning_seconds: float
    seed: int | None
    tree_size: int = 0


def validate_and_truncate(env: Environment, arm: ArmModel, configs: list,
                          check_resolution: float) -> list:
    """Longest collision-free prefix of a waypoint list, checked at the given
    resolution along every inter-waypoint segment (endpoints included)."""
    if not configs:
        return []
    # The check-point ladder in one set of array expressions: segment w
    # (waypoint w-1 to w) gets the points prev + seg * (k / n_w), k = 1..n_w.
    # Row 0 of the one batched geometry query is the start.
    pts = np.asarray(configs, dtype=float)
    prev = pts[:-1]
    seg = pts[1:] - prev
    dist = np.sqrt(np.vecdot(seg, seg))  # np.linalg.norm of each segment, bit for bit
    if not np.all(np.isfinite(dist)):
        raise ValueError("waypoints must be finite")
    n_checks = np.maximum(1, np.ceil(dist / check_resolution).astype(np.int64))
    owner = np.repeat(np.arange(1, pts.shape[0]), n_checks)  # waypoint w of each ladder point
    k = np.arange(1, owner.size + 1) - np.repeat(np.cumsum(n_checks) - n_checks, n_checks)
    w = owner - 1
    ladder = prev[w] + seg[w] * (k / n_checks[w])[:, None]
    d = signed_distance_batch(env, arm, np.concatenate([pts[:1], ladder]))
    bad = np.flatnonzero(d < 0.0)
    if bad.size == 0:
        return list(configs)
    first_bad_waypoint = int(owner[bad[0] - 1]) if bad[0] > 0 else 0
    return list(configs[:first_bad_waypoint])


def steer_straight(arm: ArmModel, env: Environment, q_from: np.ndarray, q_toward: np.ndarray,
                   step_size: float, check_resolution: float) -> Edge:
    """Advance along the joint-space segment up to step_size, truncating at the
    last valid sample before the first colliding one."""
    q_from = np.asarray(q_from, dtype=float)
    q_toward = np.asarray(q_toward, dtype=float)
    delta = q_toward - q_from
    dist = float(np.linalg.norm(delta))
    if dist == 0.0:
        return Edge(configs=[q_from])
    frac = min(1.0, step_size / dist)
    target = q_from + frac * delta
    seg_len = dist * frac
    n_checks = max(1, int(np.ceil(seg_len / check_resolution)))
    ts = np.arange(1, n_checks + 1) / n_checks
    samples = q_from[None, :] + ts[:, None] * (target - q_from)[None, :]
    d = signed_distance_batch(env, arm, samples)
    bad = np.nonzero(d < 0.0)[0]
    last_ok = n_checks - 1 if bad.size == 0 else int(bad[0]) - 1
    if last_ok < 0:
        return Edge(configs=[q_from])
    return Edge(configs=[q_from, samples[last_ok]], controls=[])


def steer_cbf_inc(env: Environment, q_from: np.ndarray, q_toward: np.ndarray,
                  bundle: ControllerBundle, limits: PlannerLimits, r_goal: float,
                  discard: bool = False) -> Edge:
    """Roll the filtered controller toward the sampled point for at most
    `limits.max_ctrl_steps` ticks at the bundle's rates; the visited
    trajectory, truncated at the last collision-free state, is the edge.
    Stalls cut the edge short so QP-pinned states do not burn the budget.

    With `discard` (the filtered-LQR steer) the edge keeps nominal actions
    only while the barrier's sign and derivative condition both hold (h <= 0
    and an inactive safety constraint): the first rejection, or the first
    stalled nominal action once kept, ends it.

    The rollout is not checked tick by tick (the barrier does that job
    online); one batched validation pass truncates it and keeps the controls
    of the ticks it reaches.
    """
    arm = bundle.barrier.arm
    substeps = bundle.limits.sim_hz // bundle.limits.ctrl_hz
    dt_sim = 1.0 / bundle.limits.sim_hz
    q = np.asarray(q_from, dtype=float).copy()
    configs = [q]
    controls: list = []
    stalled = 0
    for _ in range(limits.max_ctrl_steps):
        dq = q - q_toward
        if math.sqrt(dq @ dq) <= r_goal:
            break
        u, u_nom, h, diag = control_tick(bundle, env, q, q_toward)
        if discard:
            if h > 0.0 or diag.constraint_active:
                break
            u = u_nom
        else:
            stalled = stalled + 1 if math.sqrt(u @ u) < limits.stall_threshold else 0
            if stalled >= limits.stall_ticks:
                break
        controls.append(u)
        states = hold(arm, q, u, substeps, dt_sim)
        configs.extend(states)
        q = states[-1]
        if discard and math.sqrt(u @ u) < limits.stall_threshold:
            break
    kept = validate_and_truncate(env, arm, configs, limits.check_resolution) or configs[:1]
    n_ticks_kept = (len(kept) - 1 + substeps - 1) // substeps  # ticks the kept states reach
    return Edge(configs=kept, controls=controls[:n_ticks_kept])


# the filtered-LQR steer on its own, by the name the benchmark tracer times
steer_filter_lqr = functools.partial(steer_cbf_inc, discard=True)


def _dispatch_steer(steer: SteerKind, arm: ArmModel, env: Environment, q_from: np.ndarray,
                    q_toward: np.ndarray, limits: PlannerLimits, r_goal: float,
                    tree_size: int) -> Edge:
    if isinstance(steer, SteerStraightLine):
        return steer_straight(arm, env, q_from, q_toward, limits.step_size,
                              limits.check_resolution)
    if isinstance(steer, SteerRollout):
        discard = steer.activation_after is not None and tree_size >= steer.activation_after
        return steer_cbf_inc(env, q_from, q_toward, steer.bundle, limits, r_goal, discard=discard)
    raise TypeError(f"unknown steer kind {type(steer).__name__}")


def rrt_plan(problem: PlanProblem, steer: SteerKind, limits: PlannerLimits,
             rng: np.random.Generator, seed: int | None = None) -> PlanResult:
    """Grow a tree from q0 until some node lands in the goal ball or the
    attempt budget (max_nodes) runs out. Every steer attempt, successful or
    not, counts as one explored node.

    Sampling-order contract (fixed so determinism tests are portable): each
    iteration first draws the goal-bias coin (rng.random() < goal_bias selects
    the goal); only on failure does it draw one uniform configuration in the
    joint limits. The nearest node is the Euclidean argmin (lowest index on
    ties). After a successful expansion whose endpoint is within
    connect_radius of the goal, one direct steer to the goal is attempted
    (also counted); a node within r_goal of the goal solves the problem.
    """
    result, _ = rrt_plan_with_tree(problem, steer, limits, rng, seed=seed)
    return result


def rrt_plan_with_tree(problem: PlanProblem, steer: SteerKind, limits: PlannerLimits,
                       rng: np.random.Generator, seed: int | None = None
                       ) -> tuple[PlanResult, SearchTree]:
    """rrt_plan, additionally returning the search tree for edge audits."""
    arm = problem.arm
    env = problem.env
    q0 = np.asarray(problem.q0, dtype=float)
    qg = np.asarray(problem.qg, dtype=float)
    if signed_distance(env, arm, q0) < 0.0:
        raise ValueError("start configuration is in collision")
    if signed_distance(env, arm, qg) < 0.0:
        raise ValueError("goal configuration is in collision")

    t0 = time.perf_counter()
    tree = SearchTree(q0)
    explored = 0
    goal_node = 0 if np.linalg.norm(q0 - qg) <= problem.r_goal else None

    def try_add(parent: int, q_toward: np.ndarray) -> int | None:
        nonlocal explored
        edge = _dispatch_steer(steer, arm, env, tree.nodes[parent].config, q_toward,
                               limits, problem.r_goal, len(tree))
        explored += 1
        if edge.empty:
            return None
        return tree.add(edge.endpoint, parent, edge)

    while goal_node is None and explored < limits.max_nodes:
        if rng.random() < limits.goal_bias:
            q_rand = qg
        else:
            q_rand = rng.uniform(arm.lower, arm.upper)
        parent = tree.nearest(q_rand)
        new_idx = try_add(parent, q_rand)
        if new_idx is None:
            continue
        if np.linalg.norm(tree.nodes[new_idx].config - qg) <= problem.r_goal:
            goal_node = new_idx
            break
        # goal connection: direct steer when the new node is close enough
        if (np.linalg.norm(tree.nodes[new_idx].config - qg) <= limits.connect_radius
                and explored < limits.max_nodes):
            conn_idx = try_add(new_idx, qg)
            if conn_idx is not None and np.linalg.norm(
                    tree.nodes[conn_idx].config - qg) <= problem.r_goal:
                goal_node = conn_idx
                break

    elapsed = time.perf_counter() - t0
    if goal_node is None:
        return PlanResult(status="node_limit", path=[], controls=[],
                          explored_nodes=explored, planning_seconds=elapsed,
                          seed=seed, tree_size=len(tree)), tree
    path = [tree.nodes[0].config]
    controls: list = []
    chain = []
    idx = goal_node
    while idx != 0:
        chain.append(idx)
        idx = tree.nodes[idx].parent
    for idx in reversed(chain):
        edge = tree.nodes[idx].edge
        path.extend(edge.configs[1:])
        controls.extend(edge.controls)
    return PlanResult(status="solved", path=path, controls=controls,
                      explored_nodes=explored, planning_seconds=elapsed,
                      seed=seed, tree_size=len(tree)), tree
