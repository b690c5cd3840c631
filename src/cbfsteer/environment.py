"""Obstacle worlds: collision and signed-distance queries, safety labels, and
the two observation models (minimum signed distance; surface/ray-cast point
clouds). Environments are immutable snapshots; stepping returns a new one.
Moving obstacles advance on packed arrays: `signed_distance_stepped` checks
a run of configurations against the obstacle snapshots of successive time
steps in one clearance call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .jsonio import Record
from .kinematics import ArmModel, batch_joint_positions, joint_positions


class SafetyLabel(str, enum.Enum):
    SAFE = "safe"
    BOUNDARY = "boundary"
    UNSAFE = "unsafe"


class CloudSource(str, enum.Enum):
    SURFACE_SAMPLED = "surface"
    RAY_CAST = "raycast"


@dataclass(frozen=True)
class StateObservation:
    """Minimum signed distance between the arm and everything it can hit."""

    min_signed_distance: float


@dataclass(frozen=True)
class CloudObservation(Record):
    """Fixed-size set of (point, unit normal) records in the world frame."""

    points: np.ndarray  # (N, 2)
    normals: np.ndarray  # (N, 2)
    source: CloudSource

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "normals", np.asarray(self.normals, dtype=float))
        if self.points.shape != self.normals.shape or self.points.ndim != 2:
            raise ValueError("points and normals must both be (N, 2)")
        if self.points.shape[0] == 0:
            raise ValueError("a cloud observation needs at least one point")


@dataclass(frozen=True)
class Obstacle(Record):
    """Axis-aligned rectangle or circle, optionally drifting at constant velocity."""

    kind: str  # "rect" | "circle"
    center: tuple[float, float]
    half_extents: tuple[float, float] | None = None
    radius: float | None = None
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "velocity", tuple(float(v) for v in self.velocity))
        if not np.all(np.isfinite(self.center)):
            raise ValueError("obstacle center must be finite")
        if not np.all(np.isfinite(self.velocity)):
            raise ValueError("obstacle velocity must be finite")
        if self.kind == "rect":
            if self.half_extents is None:
                raise ValueError("rect obstacle needs half_extents")
            he = tuple(float(v) for v in self.half_extents)
            object.__setattr__(self, "half_extents", he)
            if not all(0.0 < v < np.inf for v in he):
                raise ValueError("rect half extents must be positive and finite")
        elif self.kind == "circle":
            if self.radius is None or not 0.0 < self.radius < np.inf:
                raise ValueError("circle obstacle needs a positive, finite radius")
            object.__setattr__(self, "radius", float(self.radius))
        else:
            raise ValueError(f"unknown obstacle kind {self.kind!r}")

    def _at(self, center: tuple[float, float]) -> "Obstacle":
        """This obstacle at `center` (floats), without re-validating its shape."""
        moved = object.__new__(Obstacle)
        moved.__dict__.update(self.__dict__, center=center)
        return moved

    @property
    def perimeter(self) -> float:
        if self.kind == "rect":
            return 4.0 * (self.half_extents[0] + self.half_extents[1])
        return 2.0 * np.pi * self.radius

    def point_distance(self, p: np.ndarray) -> float:
        """Signed distance from a point to this obstacle (negative inside)."""
        p = np.asarray(p, dtype=float)
        if self.kind == "rect":
            return float(geometry.point_rect_sdf(p, np.array(self.center), np.array(self.half_extents)))
        return float(np.linalg.norm(p - np.array(self.center)) - self.radius)


@dataclass(frozen=True)
class Workspace(Record):
    center: tuple[float, float] = (0.0, 0.0)
    half_extents: tuple[float, float] = (1.5, 1.5)


_CORNER_X = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def _kernel_points(circle_centers: np.ndarray, rect_cz: np.ndarray, halves: np.ndarray
                   ) -> np.ndarray:
    """Clearance-kernel points: circle centres (..., C, 2), then the four
    corners of each rectangle from complex centres (..., K) and half extents
    (K, 2); complex (..., C + 4K). Leading axes index obstacle snapshots."""
    corners = rect_cz[..., None] + (halves[:, :1] * _CORNER_X + 1j * (halves[:, 1:] * _CORNER_Y))
    return np.concatenate([circle_centers[..., 0] + 1j * circle_centers[..., 1],
                           corners.reshape(rect_cz.shape[:-1] + (4 * rect_cz.shape[-1],))],
                          axis=-1)


@dataclass(frozen=True)
class Environment(Record):
    obstacles: tuple[Obstacle, ...] = ()
    workspace: Workspace = Workspace()
    time: float = 0.0
    # cached stacked geometry, rebuilt on construction
    _rect_centers: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_halves: np.ndarray = field(init=False, repr=False, compare=False)
    _circle_centers: np.ndarray = field(init=False, repr=False, compare=False)
    _circle_radii: np.ndarray = field(init=False, repr=False, compare=False)
    # clearance-kernel packing (complex x + iy): circle centres then the four
    # corners of each rectangle, each point's circle radius (0 for corners),
    # and the rectangle centres and half extents
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _point_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_cz: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_hz: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        rects = [o for o in self.obstacles if o.kind == "rect"]
        circles = [o for o in self.obstacles if o.kind == "circle"]
        centers = np.array([o.center for o in rects]).reshape(-1, 2)
        halves = np.array([o.half_extents for o in rects]).reshape(-1, 2)
        object.__setattr__(self, "_rect_centers", centers)
        object.__setattr__(self, "_rect_halves", halves)
        object.__setattr__(
            self, "_circle_centers", np.array([o.center for o in circles]).reshape(-1, 2)
        )
        object.__setattr__(
            self, "_circle_radii", np.array([o.radius for o in circles], dtype=float)
        )
        cz = centers[:, 0] + 1j * centers[:, 1]
        object.__setattr__(self, "_rect_cz", cz)
        object.__setattr__(self, "_rect_hz", halves[:, 0] + 1j * halves[:, 1])
        object.__setattr__(self, "_points", _kernel_points(self._circle_centers, cz, halves))
        object.__setattr__(self, "_point_offsets", np.concatenate(
            [self._circle_radii, np.zeros(4 * cz.size)]))

    @property
    def is_dynamic(self) -> bool:
        return any(v != 0.0 for o in self.obstacles for v in o.velocity)

    @property
    def num_obstacles(self) -> int:
        return len(self.obstacles)


def _workspace_clearance_batch(env: Environment, joints: np.ndarray, radius: float) -> np.ndarray:
    """Clearance of the link capsules to the workspace boundary from inside.

    The rectangle SDF is convex, so its maximum along each link sits at a
    joint; clearance = -max(sdf over joints) - link radius. joints: (B, n+1)
    complex.
    """
    c = np.array(env.workspace.center)
    h = np.array(env.workspace.half_extents)
    sd = geometry.point_rect_sdf(np.stack([joints.real, joints.imag], axis=2), c, h)
    return -(sd.max(axis=1) + radius)


# Rows per kernel call. Per-row cost stops falling well before this, and wider
# temporaries only add memory.
ROW_BLOCK = 256


def _joints(arm: ArmModel, qs: np.ndarray) -> np.ndarray:
    """Joint positions (B, n+1), complex, of a batch of configurations (B, n)."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != arm.n_links:
        raise ValueError(f"configurations have shape {qs.shape}, expected (B, {arm.n_links})")
    return batch_joint_positions(arm, qs)[0]


def signed_distance_batch(env: Environment, arm: ArmModel, qs: np.ndarray) -> np.ndarray:
    """Vectorized minimum clearance for a batch of configurations (B, n).

    Minimum over (link, obstacle) capsule distances and non-adjacent link
    pairs; negative iff something penetrates. The joint positions are computed
    once and go to `geometry.capsule_world_min`, a fixed sequence of numpy
    operations whatever the overlaps: one point-to-link pass over circle
    centres, rectangle corners and the arm's own joints, a separating-axis
    overlap test, and the exact interior depth of the overlapping (link,
    rectangle) pairs, gathered. Batches run in blocks of ROW_BLOCK rows.
    """
    joints = _joints(arm, qs)
    r = arm.link_radius
    if arm.n_links < 3 and not env.obstacles:
        # 2-link arm in an empty world: report workspace-boundary clearance.
        return _workspace_clearance_batch(env, joints, r)
    world = (env._points, env._point_offsets, env._rect_cz, env._rect_hz)
    if joints.shape[0] <= ROW_BLOCK:
        return geometry.capsule_world_min(joints, r, *world)
    return np.concatenate([geometry.capsule_world_min(joints[lo:lo + ROW_BLOCK], r, *world)
                           for lo in range(0, joints.shape[0], ROW_BLOCK)])


def signed_distance_stepped(env: Environment, arm: ArmModel, qs: np.ndarray, dt: float
                            ) -> tuple[np.ndarray, Environment]:
    """Clearance of configuration k of qs (S, n) against the obstacles after
    k + 1 steps of dt, (S,), and the environment after S steps.

    Bit for bit the same as S rounds of `step_obstacles` then
    `signed_distance`, in one clearance call: each kernel row carries its own
    obstacle snapshot. Meant for the few substeps of one control tick (no row
    blocks).
    """
    joints = _joints(arm, qs)
    centers, times = _advance(env, dt, joints.shape[0])
    after = _environment_at(env, centers[-1], times[-1]) if times.size else env
    r = arm.link_radius
    if arm.n_links < 3 and not env.obstacles:
        return _workspace_clearance_batch(env, joints, r), after
    circle = np.array([o.kind == "circle" for o in env.obstacles], dtype=bool)
    rect_cz = centers[:, ~circle, 0] + 1j * centers[:, ~circle, 1]
    points = _kernel_points(centers[:, circle], rect_cz, env._rect_halves)
    return geometry.capsule_world_min(joints, r, points, env._point_offsets, rect_cz,
                                      env._rect_hz), after


def signed_distance(env: Environment, arm: ArmModel, q: np.ndarray) -> float:
    """Minimum clearance between the arm and obstacles plus non-adjacent self pairs.

    Negative iff some capsule penetrates an obstacle (or another non-adjacent
    link). With no obstacles the self pairs remain; a 2-link arm with no
    obstacles falls back to the workspace-boundary clearance.
    """
    return float(signed_distance_batch(env, arm, np.asarray(q, dtype=float)[None, :])[0])


def safety_label(d: float, r_thres: float) -> SafetyLabel:
    """Partition by signed distance d: d <= 0 unsafe, d >= r_thres safe, else boundary."""
    if r_thres <= 0:
        raise ValueError("r_thres must be positive")
    if d <= 0.0:
        return SafetyLabel.UNSAFE
    if d >= r_thres:
        return SafetyLabel.SAFE
    return SafetyLabel.BOUNDARY


def sample_surface_points(env: Environment, n_points: int, rng: np.random.Generator) -> CloudObservation:
    """Uniform sample of obstacle boundaries with outward normals.

    Each point picks an obstacle with probability proportional to perimeter,
    then a uniform position along that perimeter.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    if not env.obstacles:
        raise ValueError("cannot sample a surface cloud from an empty environment")
    perims = np.array([o.perimeter for o in env.obstacles])
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
            s = rng.uniform(0.0, obs.perimeter)
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


@dataclass(frozen=True)
class ScanSpec:
    """Ray fans cast from link midpoints, directions fixed in each link frame."""

    mount_links: tuple[int, ...] = (0, 2)
    rays_per_mount: int = 32
    max_range: float = 2.0

    def __post_init__(self):
        if not self.mount_links:
            raise ValueError("a scan needs at least one mount link")
        if self.rays_per_mount < 1:
            raise ValueError("a scan needs at least one ray per mount")
        if not 0.0 < self.max_range < np.inf:
            raise ValueError("scan max_range must be positive and finite")


def ray_cast_scan(env: Environment, arm: ArmModel, q: np.ndarray, spec: ScanSpec) -> CloudObservation:
    """Cast evenly spaced full-circle ray fans from the mounted link midpoints.

    Hits return (hit point, outward surface normal); misses return the
    max-range sentinel point with normal opposite the ray direction.
    """
    for link in spec.mount_links:
        if not 0 <= link < arm.n_links:
            raise ValueError(f"mount link {link} out of range")
    links = np.array(spec.mount_links)
    pts, cum = joint_positions(arm, q)
    fan = 2.0 * np.pi * np.arange(spec.rays_per_mount) / spec.rays_per_mount
    angles = (cum[links][:, None] + fan).ravel()
    origins = np.repeat(0.5 * (pts[links] + pts[links + 1]), spec.rays_per_mount, axis=0)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    n_rays = origins.shape[0]
    hits = []  # (t (R, K), normals (R, K, 2)), circles first so they win ties
    if env._circle_centers.shape[0]:
        hits.append(geometry.ray_circles(origins, dirs, env._circle_centers, env._circle_radii))
    if env._rect_centers.shape[0]:
        hits.append(geometry.ray_rects(origins, dirs, env._rect_centers, env._rect_halves))
    best_t = np.full(n_rays, np.inf)
    best_n = np.zeros((n_rays, 2))
    if hits:
        t = np.concatenate([h[0] for h in hits], axis=1)
        idx = np.argmin(t, axis=1)
        rows = np.arange(n_rays)
        best_t = t[rows, idx]
        best_n = np.concatenate([h[1] for h in hits], axis=1)[rows, idx]
    miss = ~(best_t <= spec.max_range)
    t_hit = np.where(miss, spec.max_range, best_t)
    points = origins + t_hit[:, None] * dirs
    normals = np.where(miss[:, None], -dirs, best_n)
    return CloudObservation(points=points, normals=normals, source=CloudSource.RAY_CAST)


def _advance(env: Environment, dt: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Obstacle centres (steps, O, 2) and clock times (steps,) after 1 to
    `steps` steps of dt. Each step adds velocity*dt to the previous centre and
    dt to the previous time, the float order of single steps taken in turn."""
    if not 0.0 <= dt < np.inf:
        raise ValueError("dt must be finite and non-negative")
    obstacles = env.obstacles
    centers = np.empty((steps + 1, len(obstacles), 2))
    centers[0] = np.reshape([o.center for o in obstacles], (-1, 2))
    centers[1:] = np.reshape([o.velocity for o in obstacles], (-1, 2)) * dt
    np.add.accumulate(centers, axis=0, out=centers)
    times = np.full(steps + 1, float(dt))
    times[0] = env.time
    np.add.accumulate(times, out=times)
    return centers[1:], times[1:]


def _environment_at(env: Environment, centers: np.ndarray, time: float) -> Environment:
    """`env` with its obstacles at `centers` (O, 2) and its clock at `time`."""
    return Environment(
        obstacles=tuple(o._at(tuple(c)) for o, c in zip(env.obstacles, centers.tolist())),
        workspace=env.workspace, time=float(time))


def step_obstacles(env: Environment, dt: float) -> Environment:
    """Advance obstacle centers by velocity*dt; shapes unchanged, time accumulates."""
    centers, times = _advance(env, dt, 1)
    return _environment_at(env, centers[0], times[0])


@dataclass(frozen=True)
class EnvGenConfig:
    """Random-world parameters: obstacle count, size range, placement rules."""

    num_obstacles: int = 4
    size_range: tuple[float, float] = (0.08, 0.16)
    workspace: Workspace = Workspace()
    min_clearance_from_base: float = 0.25
    obstacle_speed: float = 0.0
    shapes: tuple[str, ...] = ("rect",)
    fixed_size: float | None = None


MAX_GEN_ATTEMPTS = 10_000


class GenerationError(RuntimeError):
    pass


def random_environment(
    gen_cfg: EnvGenConfig, rng: np.random.Generator, base_position: tuple[float, float] = (0.0, 0.0)
) -> Environment:
    """Sample obstacles with rejection until none overlaps the base clearance disk."""
    ws = gen_cfg.workspace
    lo = np.array(ws.center) - np.array(ws.half_extents)
    hi = np.array(ws.center) + np.array(ws.half_extents)
    base = np.asarray(base_position, dtype=float)
    obstacles: list[Obstacle] = []
    for _ in range(gen_cfg.num_obstacles):
        for attempt in range(MAX_GEN_ATTEMPTS):
            center = rng.uniform(lo, hi)
            kind = gen_cfg.shapes[int(rng.integers(len(gen_cfg.shapes)))]
            if gen_cfg.fixed_size is not None:
                size = (gen_cfg.fixed_size, gen_cfg.fixed_size)
            else:
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
        else:
            raise GenerationError(
                f"could not place obstacle clear of the base after {MAX_GEN_ATTEMPTS} attempts"
            )
    return Environment(obstacles=tuple(obstacles), workspace=ws, time=0.0)
