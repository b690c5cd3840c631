"""Reference control and rollout code for the tests.

Dynamic worlds: the per-step forms that the array-stepped code replaced:
obstacles advanced one `dataclasses.replace` at a time, a ray fan built ray
by ray, and a rollout that integrates, steps the world and checks the
clearance once per simulation substep.

Control ticks: the hand-written loops that `controller.control_tick` and
`controller.hold` replaced (the static-world rollout, the barrier-filtered
rollout steer and the filtered-LQR steer), and the two breakpoint walks
(strict projection, relaxed penalty) that `controller._breakpoint_walk`
merges.

They are slow and simple, and the tests hold the fast paths to them bit for
bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cbfsteer import geometry
from cbfsteer.controller import RolloutRecord, solve_safety_qp
from cbfsteer.environment import (
    CloudObservation,
    CloudSource,
    Environment,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import integrate, joint_positions
from cbfsteer.planner import Edge, validate_and_truncate


def step_obstacles(env: Environment, dt: float) -> Environment:
    """Advance every obstacle centre by velocity*dt, one obstacle at a time."""
    moved = tuple(
        replace(o, center=(o.center[0] + o.velocity[0] * dt, o.center[1] + o.velocity[1] * dt))
        for o in env.obstacles
    )
    return Environment(obstacles=moved, workspace=env.workspace, time=env.time + dt)


def ray_cast_scan(env, arm, q, spec) -> CloudObservation:
    """Ray fans built one ray at a time, then the nearest circle or rectangle hit."""
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
    for hits, centers, sizes in ((geometry.ray_circles, env._circle_centers, env._circle_radii),
                                 (geometry.ray_rects, env._rect_centers, env._rect_halves)):
        if centers.shape[0]:
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


def safe_rollout(barrier, policy, cfg, q0, q_goal, env, limits, observe) -> RolloutRecord:
    """Closed-loop rollout that takes every simulation substep on its own:
    `integrate`, then `step_obstacles`, then `signed_distance`."""
    arm = barrier.arm
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    q = np.asarray(q0, dtype=float).copy()
    rec = RolloutRecord()
    rec.configs.append(q.copy())
    d0 = signed_distance(env, arm, q)
    rec.min_signed_distance.append(d0)
    if d0 < 0.0:
        rec.collided = True
        return rec
    if np.linalg.norm(q - q_goal) <= limits.r_goal:
        rec.reached_goal = True
        return rec
    stalled = 0
    for _ in range(int(round(limits.horizon_s * limits.ctrl_hz))):
        obs = observe(env, arm, q) if (observe is not None and barrier.needs_observation) else None
        h, grad = barrier.value_and_grad(q, obs, env)
        u_nom = policy.control(q, q_goal, arm.action_lower, arm.action_upper)
        u, diag = solve_safety_qp(u_nom, grad, h, cfg, arm.action_lower, arm.action_upper)
        if diag.infeasible:
            rec.qp_infeasible_count += 1
        if limits.stall_threshold is not None:
            stalled = stalled + 1 if float(np.linalg.norm(u)) < limits.stall_threshold else 0
            if stalled >= limits.stall_ticks:
                break
        rec.controls.append(u.copy())
        rec.steps_used += 1
        for _ in range(substeps):
            q, _ = integrate(arm, q, u, dt_sim)
            env = step_obstacles(env, dt_sim)
            d = signed_distance(env, arm, q)
            rec.configs.append(q.copy())
            rec.min_signed_distance.append(d)
            if d < 0.0:
                rec.collided = True
                return rec
        if np.linalg.norm(q - q_goal) <= limits.r_goal:
            rec.reached_goal = True
            return rec
    return rec


def safe_rollout_static(barrier, policy, cfg, q0, q_goal, env, limits, observe) -> RolloutRecord:
    """Closed-loop rollout in a static world with the tick written out:
    observe, barrier, nominal control, QP, then one-shot zero-order-hold
    substeps checked in one batched clearance call."""
    arm = barrier.arm
    substeps = limits.sim_hz // limits.ctrl_hz
    dt_sim = 1.0 / limits.sim_hz
    q = np.asarray(q0, dtype=float).copy()
    rec = RolloutRecord()
    rec.configs.append(q.copy())
    d0 = signed_distance(env, arm, q)
    rec.min_signed_distance.append(d0)
    if d0 < 0.0:
        rec.collided = True
        return rec
    if np.linalg.norm(q - q_goal) <= limits.r_goal:
        rec.reached_goal = True
        return rec
    stalled = 0
    for _ in range(int(round(limits.horizon_s * limits.ctrl_hz))):
        obs = observe(env, arm, q) if (observe is not None and barrier.needs_observation) else None
        h, grad = barrier.value_and_grad(q, obs, env)
        u_nom = policy.control(q, q_goal, arm.action_lower, arm.action_upper)
        u, diag = solve_safety_qp(u_nom, grad, h, cfg, arm.action_lower, arm.action_upper)
        if diag.infeasible:
            rec.qp_infeasible_count += 1
        if limits.stall_threshold is not None:
            stalled = stalled + 1 if float(np.linalg.norm(u)) < limits.stall_threshold else 0
            if stalled >= limits.stall_ticks:
                break
        rec.controls.append(u.copy())
        rec.steps_used += 1
        dts = (np.arange(1, substeps + 1) * dt_sim)[:, None]
        tick_configs = np.clip(q[None, :] + u[None, :] * dts, arm.lower, arm.upper)
        ds = signed_distance_batch(env, arm, tick_configs)
        for qk, d in zip(tick_configs, ds):
            rec.configs.append(qk)
            rec.min_signed_distance.append(float(d))
            if d < 0.0:
                rec.collided = True
                return rec
        q = tick_configs[-1].copy()
        if np.linalg.norm(q - q_goal) <= limits.r_goal:
            rec.reached_goal = True
            return rec
    return rec


def _substep_dts(substeps, dt_sim):
    return (np.arange(1, substeps + 1) * dt_sim)[:, None]


def rollout_edge(arm, env, q_from, q_toward, bundle, max_ctrl_steps, limits, r_goal) -> Edge:
    """Barrier-filtered rollout steer with the tick written out; the edge is
    the validated prefix of the visited trajectory."""
    barrier = bundle.barrier
    substeps = bundle.sim_hz // bundle.ctrl_hz
    dt_sim = 1.0 / bundle.sim_hz
    q = np.asarray(q_from, dtype=float).copy()
    configs = [q.copy()]
    controls = []
    stalled = 0
    for _ in range(max_ctrl_steps):
        if np.linalg.norm(q - q_toward) <= r_goal:
            break
        obs = (bundle.observe(env, arm, q)
               if bundle.observe is not None and barrier.needs_observation else None)
        h, grad = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_toward, arm.action_lower, arm.action_upper)
        u, _ = solve_safety_qp(u_nom, grad, h, bundle.qp_cfg,
                               arm.action_lower, arm.action_upper)
        stalled = stalled + 1 if float(np.linalg.norm(u)) < limits.stall_threshold else 0
        if stalled >= limits.stall_ticks:
            break
        controls.append(u.copy())
        states = np.clip(q[None, :] + u[None, :] * _substep_dts(substeps, dt_sim),
                         arm.lower, arm.upper)
        configs.extend(states)
        q = states[-1].copy()
    kept = validate_and_truncate(env, arm, configs, limits.check_resolution)
    if len(kept) <= 1:
        return Edge(configs=list(kept) or [np.asarray(q_from, float)])
    n_ticks_kept = (len(kept) - 1 + substeps - 1) // substeps
    return Edge(configs=list(kept), controls=controls[:n_ticks_kept])


def steer_filter_lqr(arm, env, q_from, q_toward, bundle, max_ctrl_steps, limits, r_goal) -> Edge:
    """Filtered-LQR steer with its own rejection test written out: stop at
    the first tick with h > 0 or grad_h . u_nom + alpha*h > 0."""
    barrier = bundle.barrier
    alpha = bundle.qp_cfg.alpha
    substeps = bundle.sim_hz // bundle.ctrl_hz
    dt_sim = 1.0 / bundle.sim_hz
    q = np.asarray(q_from, dtype=float).copy()
    configs = [q.copy()]
    controls = []
    for _ in range(max_ctrl_steps):
        if np.linalg.norm(q - q_toward) <= r_goal:
            break
        obs = (bundle.observe(env, arm, q)
               if bundle.observe is not None and barrier.needs_observation else None)
        h, grad = barrier.value_and_grad(q, obs, env)
        u_nom = bundle.policy.control(q, q_toward, arm.action_lower, arm.action_upper)
        if h > 0.0 or float(grad @ u_nom) + alpha * h > 0.0:
            break
        controls.append(u_nom.copy())
        states = np.clip(q[None, :] + u_nom[None, :] * _substep_dts(substeps, dt_sim),
                         arm.lower, arm.upper)
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
