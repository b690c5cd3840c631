"""Reference random draws for the tests: the per-obstacle and per-point loops
that `environment.sample_surface_points`, `environment.random_velocity` and
`environment.sample_free_config` replaced.

- `sample_surface_points`: one obstacle record at a time, with its own
  perimeter, and one generator call per point.
- `random_environment`, `gen_problems` and `dynamicize_problems`: world and
  problem generation with the velocity draw and the endpoint loop written
  inline.
- `sample_free_config`: the data collector's collision-free draw (d > 0).

They read obstacle records, never an `Environment`'s packed arrays, and the
tests hold the package to them bit for bit, generator state included.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cbfsteer.bench import ProblemSpec
from cbfsteer.environment import (
    CloudObservation,
    CloudSource,
    Environment,
    Obstacle,
    signed_distance,
)
from cbfsteer.kinematics import sample_config


def perimeter(obs: Obstacle) -> float:
    if obs.kind == "rect":
        return 4.0 * (obs.half_extents[0] + obs.half_extents[1])
    return 2.0 * np.pi * obs.radius


def sample_surface_points(env: Environment, n_points: int, rng: np.random.Generator
                          ) -> CloudObservation:
    """Pick obstacles by perimeter, then place each point on its own."""
    perims = np.array([perimeter(o) for o in env.obstacles])
    probs = perims / perims.sum()
    choices = rng.choice(len(env.obstacles), size=n_points, p=probs)
    points = np.empty((n_points, 2))
    normals = np.empty((n_points, 2))
    for i, idx in enumerate(choices):
        obs = env.obstacles[idx]
        c = np.array(obs.center)
        if obs.kind == "circle":
            ang = rng.uniform(0.0, 2.0 * np.pi)
            nvec = np.array([np.cos(ang), np.sin(ang)])
            points[i] = c + obs.radius * nvec
            normals[i] = nvec
        else:
            hx, hy = obs.half_extents
            s = rng.uniform(0.0, perimeter(obs))
            # walk the perimeter: bottom, right, top, left
            if s < 2 * hx:
                points[i] = c + np.array([-hx + s, -hy])
                normals[i] = (0.0, -1.0)
            elif s < 2 * hx + 2 * hy:
                points[i] = c + np.array([hx, -hy + (s - 2 * hx)])
                normals[i] = (1.0, 0.0)
            elif s < 4 * hx + 2 * hy:
                points[i] = c + np.array([hx - (s - 2 * hx - 2 * hy), hy])
                normals[i] = (0.0, 1.0)
            else:
                points[i] = c + np.array([-hx, hy - (s - 4 * hx - 2 * hy)])
                normals[i] = (-1.0, 0.0)
    return CloudObservation(points=points, normals=normals, source=CloudSource.SURFACE_SAMPLED)


def random_environment(gen_cfg, rng: np.random.Generator, base_position=(0.0, 0.0)
                       ) -> Environment:
    """Rejection-sampled obstacles, each with its velocity drawn inline."""
    ws = gen_cfg.workspace
    lo = np.array(ws.center) - np.array(ws.half_extents)
    hi = np.array(ws.center) + np.array(ws.half_extents)
    base = np.asarray(base_position, dtype=float)
    obstacles = []
    for _ in range(gen_cfg.num_obstacles):
        while True:
            center = rng.uniform(lo, hi)
            kind = gen_cfg.shapes[int(rng.integers(len(gen_cfg.shapes)))]
            size = tuple(rng.uniform(gen_cfg.size_range[0], gen_cfg.size_range[1], size=2))
            if gen_cfg.obstacle_speed > 0.0:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                vel = (gen_cfg.obstacle_speed * np.cos(ang), gen_cfg.obstacle_speed * np.sin(ang))
            else:
                vel = (0.0, 0.0)
            if kind == "circle":
                obs = Obstacle(kind="circle", center=tuple(center), radius=size[0], velocity=vel)
            else:
                obs = Obstacle(kind="rect", center=tuple(center), half_extents=size, velocity=vel)
            if obs.point_distance(base) >= gen_cfg.min_clearance_from_base:
                obstacles.append(obs)
                break
    return Environment(obstacles=tuple(obstacles), workspace=ws, time=0.0)


def gen_problems(gen_cfg, count: int, rng: np.random.Generator, arm, clearance: float) -> list:
    """Worlds, then two endpoints each drawn until d >= clearance."""
    problems = []
    for pid in range(count):
        env = random_environment(gen_cfg, rng, base_position=arm.base_position)
        endpoints = []
        for _ in range(2):
            while True:
                q = sample_config(arm, rng)
                if signed_distance(env, arm, q) >= clearance:
                    endpoints.append(q)
                    break
        problems.append(ProblemSpec(id=pid, environment=env, q0=endpoints[0], qg=endpoints[1]))
    return problems


def dynamicize_problems(problems: list, speed: float, rng: np.random.Generator) -> list:
    """One inline direction draw per obstacle, in problem and obstacle order."""
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


def sample_free_config(env: Environment, arm, rng: np.random.Generator) -> np.ndarray:
    """Draw until the configuration is collision-free (d > 0)."""
    while True:
        q = sample_config(arm, rng)
        if signed_distance(env, arm, q) > 0.0:
            return q
