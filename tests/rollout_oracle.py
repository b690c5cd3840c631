"""Reference dynamic-world code for the tests.

These are the per-step forms that the array-stepped code replaced: obstacles
advanced one `dataclasses.replace` at a time, a ray fan built ray by ray, and
a rollout that integrates, steps the world and checks the clearance once per
simulation substep. They are slow and simple, and the tests hold the fast
paths to them bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cbfsteer import geometry
from cbfsteer.controller import RolloutRecord, solve_safety_qp
from cbfsteer.environment import CloudObservation, CloudSource, Environment, signed_distance
from cbfsteer.kinematics import integrate, joint_positions


def step_obstacles(env: Environment, dt: float) -> Environment:
    """Advance every obstacle centre by velocity*dt, one obstacle at a time."""
    moved = tuple(
        replace(o, center=(o.center[0] + o.velocity[0] * dt, o.center[1] + o.velocity[1] * dt))
        for o in env.obstacles
    )
    return Environment(obstacles=moved, workspace=env.workspace, time=env.time + dt)


def ray_cast_scan(env, arm, q, spec) -> CloudObservation:
    """Ray fans built one ray at a time, then the nearest circle or rectangle hit."""
    pts = joint_positions(arm, q)
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
