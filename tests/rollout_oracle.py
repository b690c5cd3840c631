"""Reference control and rollout code for the tests.

Integration: one clamped Euler step of q_dot = u (`integrate`), the
per-step reference that `kinematics.hold`, and through it every rollout and
rollout steer, is held to; `iterated_hold` takes a control tick's substeps
with it.

Dynamic worlds: the per-step forms that the array-stepped code replaced:
obstacles advanced one `dataclasses.replace` at a time, a ray fan built ray
by ray and cast with the pairwise kernels of `geometry_oracle`, and a rollout
that integrates, steps the world and checks the clearance once per
simulation substep.

Control ticks: the hand-written loops that `controller.control_tick`,
`kinematics.hold` and the one tick loop `controller.rollout_ticks` replaced
(the static-world rollout, the barrier-filtered rollout steer and the
filtered-LQR steer, which `controller.safe_rollout` and
`planner.steer_cbf_inc` now run through that loop), the two breakpoint walks
(strict projection, relaxed penalty) that `controller._breakpoint_walk`
merges, and the safety QP and its walk as numpy array code, before their
scalar steps moved to Python floats.

Ground truth: both rollouts here check every state's clearance and keep it
(`CheckedRollout.distances`), where `controller.safe_rollout` checks only
the ticks its loop does not prove and keeps no distances.

Cloud barriers: the one-sample route that `NeuralBarrier` took before it
had its own inference path, the training forward pass on a one-sample
`_Prepared` with nothing kept between calls (`OneSampleBarrier`).

They are slow and simple, and the tests hold the fast paths to them bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from cbfsteer.cbf import CbfHyper, _forward_stencil, _Prepared, _stencil_configs
from cbfsteer.controller import QpDiagnostics, QpMode, RolloutRecord, solve_safety_qp
from cbfsteer.environment import (
    CloudObservation,
    CloudSource,
    Environment,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import ArmModel, _check_config, joint_positions
from cbfsteer.planner import Edge, validate_and_truncate

import geometry_oracle


def clamp_to_limits(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """Clamp each joint into its limit interval (idempotent)."""
    q = _check_config(arm, q)
    return np.clip(q, arm.lower, arm.upper)


def integrate(arm: ArmModel, q: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, bool]:
    """One exact Euler step of q_dot = u, clamped to joint limits.

    Controls outside the action box are clipped; the returned flag reports
    whether clipping happened. Raises on non-finite u.
    """
    q = _check_config(arm, q)
    u = np.asarray(u, dtype=float)
    if u.shape != (arm.n_links,):
        raise ValueError(f"control has shape {u.shape}, expected ({arm.n_links},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite control input")
    u_clipped = np.clip(u, arm.action_lower, arm.action_upper)
    clipped = bool(np.any(u_clipped != u))
    return clamp_to_limits(arm, q + u_clipped * dt), clipped


def iterated_hold(arm: ArmModel, q: np.ndarray, u: np.ndarray, substeps: int,
                  dt_sim: float) -> list:
    """The states after each of `substeps` `integrate` steps of one control."""
    states = []
    for _ in range(substeps):
        q, _ = integrate(arm, q, u, dt_sim)
        states.append(q)
    return states


def step_obstacles(env: Environment, dt: float) -> Environment:
    """Advance every obstacle centre by velocity*dt, one obstacle at a time."""
    moved = tuple(
        replace(o, center=(o.center[0] + o.velocity[0] * dt, o.center[1] + o.velocity[1] * dt))
        for o in env.obstacles
    )
    return Environment(obstacles=moved, workspace=env.workspace, time=env.time + dt)


def ray_cast_scan(env, arm, q, spec) -> CloudObservation:
    """Ray fans built one ray at a time, then the nearest circle or rectangle
    hit; the obstacles come from the records, not the packed arrays."""
    pts = joint_positions(arm, q)[0]
    cum = np.cumsum(np.asarray(q, dtype=float))
    origins = []
    dirs = []
    for link in spec.mount_links:
        mid = 0.5 * (pts[link] + pts[link + 1])
        angles = cum[link] + 2.0 * np.pi * np.arange(spec.rays_per_mount) / spec.rays_per_mount
        for ang in angles:
            origins.append(mid)
            dirs.append((np.cos(ang), np.sin(ang)))
    origins = np.array(origins)
    dirs = np.array(dirs)
    n_rays = origins.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_n = np.zeros((n_rays, 2))
    circles = [o for o in env.obstacles if o.kind == "circle"]
    rects = [o for o in env.obstacles if o.kind == "rect"]
    for hits, shapes, sizes in (
            (geometry_oracle.ray_circles, circles, np.array([o.radius for o in circles])),
            (geometry_oracle.ray_rects, rects, np.array([o.half_extents for o in rects]))):
        if shapes:
            centers = np.array([o.center for o in shapes])
            t, nrm = hits(origins, dirs, centers, sizes)
            idx = np.argmin(t, axis=1)
            tk = t[np.arange(n_rays), idx]
            take = tk < best_t
            best_n[take] = nrm[np.arange(n_rays), idx][take]
            best_t = np.where(take, tk, best_t)
    miss = ~(best_t <= spec.max_range)
    t_hit = np.where(miss, spec.max_range, best_t)
    points = origins + t_hit[:, None] * dirs
    normals = np.where(miss[:, None], -dirs, best_n)
    return CloudObservation(points=points, normals=normals, source=CloudSource.RAY_CAST)


@dataclass(frozen=True, eq=False)
class OneSampleBarrier:
    """A cloud barrier that runs `cbf._forward_stencil`, the training forward
    pass, on a one-sample `_Prepared` at every call: a tape, a workspace and
    the cloud's first-layer terms each time."""

    net: object
    arm: ArmModel
    hyper: CbfHyper
    kind = "cloud"

    def value_and_grad(self, q, observation, env) -> tuple[float, np.ndarray, float]:
        qs = _stencil_configs(q, self.hyper.fd_step)
        prep = _Prepared(qs=qs[None], points=observation.points[None],
                         normals=observation.normals[None], cloud=np.zeros(1, dtype=int))
        h, _ = _forward_stencil(self.net, prep, self.arm)
        return float(h[0, 0]), (h[0, 1:] - h[0, 0]) / self.hyper.fd_step, -math.inf


@dataclass
class CheckedRollout(RolloutRecord):
    """A `RolloutRecord` with the ground-truth clearance of each of its
    configs, which the rollout oracles check at every state."""

    distances: list = field(default_factory=list)


def safe_rollout(bundle, q0, q_goal, env) -> CheckedRollout:
    """Closed-loop rollout that takes every simulation substep on its own:
    `integrate`, then `step_obstacles`, then `signed_distance`."""
    barrier, observe, limits = bundle.barrier, bundle.observe, bundle.limits
    arm = barrier.arm
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    q = np.asarray(q0, dtype=float).copy()
    rec = CheckedRollout()
    rec.configs.append(q.copy())
    d0 = signed_distance(env, arm, q)
    rec.distances.append(d0)
    if d0 < 0.0:
        rec.collided = True
        return rec
    if np.linalg.norm(q - q_goal) <= limits.r_goal:
        rec.reached_goal = True
        return rec
    for _ in range(int(round(limits.horizon_s * limits.ctrl_hz))):
        obs = None if observe is None else observe(env, arm, q)
        h, grad, _ = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_goal, arm.action_lower, arm.action_upper)
        u, diag = solve_safety_qp(u_nom, grad, barrier.hyper.alpha_h * h, bundle.qp_cfg,
                                  arm.action_lower, arm.action_upper)
        if diag.infeasible:
            rec.qp_infeasible_count += 1
        rec.controls.append(u.copy())
        for _ in range(substeps):
            q, _ = integrate(arm, q, u, dt_sim)
            env = step_obstacles(env, dt_sim)
            d = signed_distance(env, arm, q)
            rec.configs.append(q.copy())
            rec.distances.append(d)
            if d < 0.0:
                rec.collided = True
                return rec
        if np.linalg.norm(q - q_goal) <= limits.r_goal:
            rec.reached_goal = True
            return rec
    return rec


def safe_rollout_static(bundle, q0, q_goal, env) -> CheckedRollout:
    """Closed-loop rollout in a static world with the tick written out:
    observe, barrier, nominal control, QP, then the tick's `integrate`
    substeps checked in one batched clearance call, every tick."""
    barrier, observe, limits = bundle.barrier, bundle.observe, bundle.limits
    arm = barrier.arm
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    q = np.asarray(q0, dtype=float).copy()
    rec = CheckedRollout()
    rec.configs.append(q.copy())
    d0 = signed_distance(env, arm, q)
    rec.distances.append(d0)
    if d0 < 0.0:
        rec.collided = True
        return rec
    if np.linalg.norm(q - q_goal) <= limits.r_goal:
        rec.reached_goal = True
        return rec
    for _ in range(int(round(limits.horizon_s * limits.ctrl_hz))):
        obs = None if observe is None else observe(env, arm, q)
        h, grad, _ = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_goal, arm.action_lower, arm.action_upper)
        u, diag = solve_safety_qp(u_nom, grad, barrier.hyper.alpha_h * h, bundle.qp_cfg,
                                  arm.action_lower, arm.action_upper)
        if diag.infeasible:
            rec.qp_infeasible_count += 1
        rec.controls.append(u.copy())
        tick_configs = iterated_hold(arm, q, u, substeps, dt_sim)
        ds = signed_distance_batch(env, arm, np.array(tick_configs))
        for qk, d in zip(tick_configs, ds):
            rec.configs.append(qk)
            rec.distances.append(float(d))
            if d < 0.0:
                rec.collided = True
                return rec
        q = tick_configs[-1].copy()
        if np.linalg.norm(q - q_goal) <= limits.r_goal:
            rec.reached_goal = True
            return rec
    return rec


def rollout_edge(env, q_from, q_toward, bundle, limits, r_goal) -> Edge:
    """Barrier-filtered rollout steer with the tick written out; the edge is
    the validated prefix of the visited trajectory."""
    barrier = bundle.barrier
    arm = barrier.arm
    substeps = bundle.limits.sim_hz // bundle.limits.ctrl_hz
    dt_sim = 1.0 / bundle.limits.sim_hz
    q = np.asarray(q_from, dtype=float).copy()
    configs = [q.copy()]
    controls = []
    stalled = 0
    for _ in range(limits.max_ctrl_steps):
        if np.linalg.norm(q - q_toward) <= r_goal:
            break
        obs = None if bundle.observe is None else bundle.observe(env, arm, q)
        h, grad, _ = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_toward, arm.action_lower, arm.action_upper)
        u, _ = solve_safety_qp(u_nom, grad, barrier.hyper.alpha_h * h, bundle.qp_cfg,
                               arm.action_lower, arm.action_upper)
        stalled = stalled + 1 if float(np.linalg.norm(u)) < limits.stall_threshold else 0
        if stalled >= limits.stall_ticks:
            break
        controls.append(u.copy())
        states = iterated_hold(arm, q, u, substeps, dt_sim)
        configs.extend(states)
        q = states[-1].copy()
    kept = validate_and_truncate(env, arm, configs, limits.check_resolution)
    if len(kept) <= 1:
        return Edge(configs=list(kept) or [np.asarray(q_from, float)])
    n_ticks_kept = (len(kept) - 1 + substeps - 1) // substeps
    return Edge(configs=list(kept), controls=controls[:n_ticks_kept])


def steer_filter_lqr(env, q_from, q_toward, bundle, limits, r_goal) -> Edge:
    """Filtered-LQR steer with its own rejection test written out: stop at
    the first tick with h > 0 or grad_h . u_nom + alpha*h > 0."""
    barrier = bundle.barrier
    arm = barrier.arm
    alpha = barrier.hyper.alpha_h
    substeps = bundle.limits.sim_hz // bundle.limits.ctrl_hz
    dt_sim = 1.0 / bundle.limits.sim_hz
    q = np.asarray(q_from, dtype=float).copy()
    configs = [q.copy()]
    controls = []
    for _ in range(limits.max_ctrl_steps):
        if np.linalg.norm(q - q_toward) <= r_goal:
            break
        obs = None if bundle.observe is None else bundle.observe(env, arm, q)
        h, grad, _ = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_toward, arm.action_lower, arm.action_upper)
        if h > 0.0 or float(grad @ u_nom) + alpha * h > 0.0:
            break
        controls.append(u_nom.copy())
        states = iterated_hold(arm, q, u_nom, substeps, dt_sim)
        configs.extend(states)
        q = states[-1].copy()
        if float(np.linalg.norm(u_nom)) < limits.stall_threshold:
            break
    kept = validate_and_truncate(env, arm, configs, limits.check_resolution)
    if len(kept) <= 1:
        return Edge(configs=list(kept) or [np.asarray(q_from, float)])
    n_ticks_kept = (len(kept) - 1 + substeps - 1) // substeps
    return Edge(configs=list(kept), controls=controls[:n_ticks_kept])


def project_halfspace_box(u_nom, a, c, lo, hi):
    """Exact projection of u_nom onto {a.u = c} intersect box: walk the
    breakpoints of lam -> a.clip(u_nom - lam*a) to the crossing. Assumes
    a.u_nom > c and a nonempty intersection."""
    n = u_nom.shape[0]
    lam_clamp = np.full(n, np.inf)
    bound_at_clamp = np.empty(n)
    for i in range(n):
        if a[i] > 0:
            lam_clamp[i] = (u_nom[i] - lo[i]) / a[i]
            bound_at_clamp[i] = lo[i]
        elif a[i] < 0:
            lam_clamp[i] = (u_nom[i] - hi[i]) / a[i]
            bound_at_clamp[i] = hi[i]
    order = np.argsort(lam_clamp)
    free = np.ones(n, dtype=bool)
    lam_prev = 0.0
    c_clamped = 0.0
    for k in range(n + 1):
        s_free = float(np.sum(a[free] ** 2))
        c_free = float(a[free] @ u_nom[free])
        lam_next = lam_clamp[order[k]] if k < n else np.inf
        if s_free > 0.0:
            lam = (c_free + c_clamped - c) / s_free
            tol = 1e-12 * max(1.0, abs(lam))
            if lam <= lam_next + tol:
                return np.clip(u_nom - max(lam, lam_prev) * a, lo, hi)
        if k == n:
            break
        i = order[k]
        lam_prev = lam_clamp[i]
        if np.isfinite(lam_prev):
            free[i] = False
            c_clamped += a[i] * bound_at_clamp[i]
    return np.clip(u_nom - lam_prev * a, lo, hi)


def relaxed_penalty_min(u_nom, a, b, rho, lo, hi):
    """Exact minimizer of ||u-u_nom||^2 + rho*[a.u+b]_+^2 over the box: walk
    the breakpoints of the fixpoint mu/rho = a.clip(u_nom - mu*a) + b.
    Assumes a.u_nom + b > 0."""
    n = u_nom.shape[0]
    mu_clamp = np.full(n, np.inf)
    bound_at_clamp = np.zeros(n)
    for i in range(n):
        if a[i] > 0:
            mu_clamp[i] = (u_nom[i] - lo[i]) / a[i]
            bound_at_clamp[i] = lo[i]
        elif a[i] < 0:
            mu_clamp[i] = (u_nom[i] - hi[i]) / a[i]
            bound_at_clamp[i] = hi[i]
    order = np.argsort(mu_clamp)
    free = np.ones(n, dtype=bool)
    mu_prev = 0.0
    c_clamped = 0.0
    for k in range(n + 1):
        s_free = float(np.sum(a[free] ** 2))
        c_free = float(a[free] @ u_nom[free])
        phi_const = c_free + c_clamped + b
        mu_next = mu_clamp[order[k]] if k < n else np.inf
        mu = rho * phi_const / (1.0 + rho * s_free)
        tol = 1e-12 * max(1.0, abs(mu))
        if mu <= mu_next + tol:
            return np.clip(u_nom - max(mu, mu_prev) * a, lo, hi)
        if k == n:
            break
        i = order[k]
        mu_prev = mu_clamp[i]
        if np.isfinite(mu_prev):
            free[i] = False
            c_clamped += a[i] * bound_at_clamp[i]
    return np.clip(u_nom - mu_prev * a, lo, hi)


def breakpoint_walk(u_nom, a, b, k, k0, lo, hi):
    """`controller._breakpoint_walk` on numpy arrays and numpy scalars."""
    n = u_nom.shape[0]
    mu_clamp = np.full(n, np.inf)
    bound_at_clamp = np.zeros(n)
    for i in range(n):
        if a[i] > 0:
            mu_clamp[i] = (u_nom[i] - lo[i]) / a[i]
            bound_at_clamp[i] = lo[i]
        elif a[i] < 0:
            mu_clamp[i] = (u_nom[i] - hi[i]) / a[i]
            bound_at_clamp[i] = hi[i]
    order = np.argsort(mu_clamp)
    free = np.ones(n, dtype=bool)
    mu_prev = 0.0
    c_clamped = 0.0
    for j in range(n + 1):
        s_free = float(np.sum(a[free] ** 2))
        phi_const = float(a[free] @ u_nom[free]) + c_clamped + b
        mu_next = mu_clamp[order[j]] if j < n else np.inf
        den = k0 + k * s_free
        if den > 0.0:
            mu = k * phi_const / den
            if mu <= mu_next + 1e-12 * max(1.0, abs(mu)):
                return np.clip(u_nom - max(mu, mu_prev) * a, lo, hi)
        if j == n:
            break
        i = order[j]
        mu_prev = mu_clamp[i]
        if np.isfinite(mu_prev):
            free[i] = False
            c_clamped += a[i] * bound_at_clamp[i]
    return np.clip(u_nom - mu_prev * a, lo, hi)


def safety_qp(u_nom, grad_h, b, cfg, lo, hi):
    """`controller.solve_safety_qp` on numpy arrays, with `breakpoint_walk`."""
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(grad_h, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.all(np.isfinite(u_nom)) and np.all(np.isfinite(a)) and math.isfinite(b)):
        raise ValueError("non-finite QP inputs")
    if np.any(lo > hi):
        raise ValueError("empty action box")
    b = float(b)
    best_u = np.where(a > 0.0, lo, np.where(a < 0.0, hi, lo))
    inf_box = float(a @ best_u)
    infeasible = inf_box + b > 0.0
    if float(a @ u_nom) + b <= 0.0:
        return u_nom, QpDiagnostics(constraint_active=False, infeasible=infeasible)
    if cfg.mode is QpMode.STRICT:
        if infeasible:
            return best_u, QpDiagnostics(constraint_active=True, infeasible=True)
        u = breakpoint_walk(u_nom, a, b, 1.0, 0.0, lo, hi)
        return u, QpDiagnostics(constraint_active=True, infeasible=False)
    if np.all(a == 0.0):
        u = u_nom
    else:
        u = breakpoint_walk(u_nom, a, b, cfg.relax_penalty, 1.0, lo, hi)
    return u, QpDiagnostics(constraint_active=True, infeasible=infeasible)
