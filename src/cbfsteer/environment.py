"""Obstacle worlds: collision and signed-distance queries, safety labels, and
point-cloud observations (surface-sampled or ray-cast). Environments are
immutable snapshots; stepping returns a new one. Moving obstacles advance on
packed arrays: `signed_distance_stepped` checks a run of configurations
against the obstacle snapshots of successive time steps in one clearance call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .jsonio import Record
from .kinematics import ArmModel, _read_only, batch_joint_positions, joint_positions, sample_config


class SafetyLabel(str, enum.Enum):
    SAFE = "safe"
    BOUNDARY = "boundary"
    UNSAFE = "unsafe"


class CloudSource(str, enum.Enum):
    SURFACE_SAMPLED = "surface"
    RAY_CAST = "raycast"


@dataclass(frozen=True)
class CloudObservation(Record):
    """Fixed-size set of (point, unit normal) records in the world frame, read-only."""

    points: np.ndarray  # (N, 2)
    normals: np.ndarray  # (N, 2)
    source: CloudSource

    def __post_init__(self):
        for name in ("points", "normals"):  # copies, so that freezing does not reach the caller's
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
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

    def __post_init__(self):
        if not np.all(np.isfinite(self.center)):
            raise ValueError("workspace center must be finite")
        if not all(0.0 < v < np.inf for v in self.half_extents):
            raise ValueError("workspace half extents must be positive and finite")


_CORNER_X = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_Y = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Environment(Record):
    obstacles: tuple[Obstacle, ...] = ()
    workspace: Workspace = Workspace()
    time: float = 0.0
    # cached arrays, rebuilt on construction: each obstacle's centre and
    # velocity (O, 2); the circles' and the rectangles' indices among them;
    # the clearance-kernel points (complex x + iy: circle centres, then four
    # corners per rectangle), each with its circle radius (0 for a corner) and
    # owning obstacle; the rectangles' complex centres and half extents; each
    # corner's offset from its rectangle's centre; and the largest rectangle
    # half extent (-inf without rectangles). These are the one per-world
    # obstacle layout: the ray casts and the surface sampler read views of them.
    # The kernel's offset tables, one per arm shape, are built on first use
    # (`_offsets`); stepped snapshots share them, as shapes do not move, and
    # the time-0 obstacle records (`_templates`), from which a stepped
    # snapshot builds its own on first read (`__getattr__`)
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    _velocities: np.ndarray = field(init=False, repr=False, compare=False)
    _circle_index: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_index: np.ndarray = field(init=False, repr=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _point_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_cz: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_hz: np.ndarray = field(init=False, repr=False, compare=False)
    _point_owner: np.ndarray = field(init=False, repr=False, compare=False)
    _corner_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _rect_reach: float = field(init=False, repr=False, compare=False)
    _offset_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _templates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = tuple(self.obstacles)
        circle = np.array([i for i, o in enumerate(obs) if o.kind == "circle"], dtype=np.intp)
        rect = np.array([i for i, o in enumerate(obs) if o.kind == "rect"], dtype=np.intp)
        halves = np.array([obs[i].half_extents for i in rect]).reshape(-1, 2)
        radii = np.array([obs[i].radius for i in circle], dtype=float)
        hz = halves[:, 0] + 1j * halves[:, 1]
        self.__dict__.update(
            obstacles=obs, _templates=obs, _circle_index=circle, _rect_index=rect, _rect_hz=hz,
            _rect_reach=float(halves.max(initial=-np.inf)),
            _velocities=np.array([o.velocity for o in obs], dtype=float).reshape(-1, 2),
            _point_offsets=np.concatenate([radii, np.zeros(4 * rect.size)]),
            _point_owner=np.concatenate([circle, np.repeat(rect, 4)]),
            _corner_offsets=(halves[:, :1] * _CORNER_X + 1j * (halves[:, 1:] * _CORNER_Y)).ravel())
        self.__dict__.update(_placed(self, np.array([o.center for o in obs],
                                                    dtype=float).reshape(-1, 2)))

    def __getattr__(self, name):
        if name != "obstacles" or "_templates" not in self.__dict__:
            raise AttributeError(name)
        obs = self.__dict__["obstacles"] = tuple(  # a stepped snapshot's, on first read
            o._at(tuple(c)) for o, c in zip(self._templates, self._centers.tolist()))
        return obs

    @property
    def is_dynamic(self) -> bool:
        return bool(np.any(self._velocities))

    @property
    def max_speed(self) -> float:
        """The fastest obstacle's speed, 0 in a static world."""
        return float(np.hypot(*self._velocities.T).max(initial=0.0))

    def _offsets(self, arm: ArmModel) -> np.ndarray:
        """The clearance kernel's `geometry.offset_table` for this world and
        an arm, built once per (n_links, link_radius)."""
        key = (arm.n_links, arm.link_radius)
        table = self._offset_tables.get(key)
        if table is None:
            table = self._offset_tables[key] = geometry.offset_table(self._point_offsets, *key)
        return table

    def _shapes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Float views of the packed arrays, no copies: the circles' centres
        (C, 2) and radii (C,), the rectangles' centres and half extents (K, 2)."""
        n_c = self._circle_index.size
        return (self._points[:n_c].view(float).reshape(-1, 2), self._point_offsets[:n_c],
                self._rect_cz.view(float).reshape(-1, 2), self._rect_hz.view(float).reshape(-1, 2))


del Environment.obstacles  # the class default would hide a stepped snapshot's from `__getattr__`


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
    rectangle) pairs, gathered, each pass skipped when the point distances
    rule it out. Batches run in blocks of ROW_BLOCK rows.
    """
    joints = _joints(arm, qs)
    r = arm.link_radius
    if arm.n_links < 3 and not env.obstacles:
        # 2-link arm in an empty world: report workspace-boundary clearance.
        return _workspace_clearance_batch(env, joints, r)
    world = (env._points, env._offsets(arm), env._rect_cz, env._rect_hz, env._rect_reach,
             arm.cross_reach)
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
    obstacle snapshot. Meant for the substeps of a control tick that a
    rollout does not prove (no row blocks); a proven tick only steps.
    """
    joints = _joints(arm, qs)
    after, rect_cz, points = _environment_at(env, dt, joints.shape[0])
    r = arm.link_radius
    if arm.n_links < 3 and not env.obstacles:
        return _workspace_clearance_batch(env, joints, r), after
    return geometry.capsule_world_min(joints, r, points, env._offsets(arm), rect_cz,
                                      env._rect_hz, env._rect_reach, arm.cross_reach), after


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


# outward normals of a rectangle's sides in perimeter-walk order
_WALK_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def sample_surface_points(env: Environment, n_points: int, rng: np.random.Generator) -> CloudObservation:
    """Uniform sample of obstacle boundaries with outward normals.

    Each point picks an obstacle with probability proportional to perimeter,
    then a uniform position along that perimeter: an angle on a circle, a
    walk along a rectangle's sides (bottom, right, top, left).
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    if not env.obstacles:
        raise ValueError("cannot sample a surface cloud from an empty environment")
    _, radii, _, halves = env._shapes()
    n = len(env.obstacles)
    circle = np.zeros(n, dtype=bool)
    circle[env._circle_index] = True
    half = np.empty((n, 2))  # a circle's radius on both axes
    half[env._circle_index] = radii[:, None]
    half[env._rect_index] = halves
    perims = np.where(circle, 2.0 * np.pi * half[:, 0], 4.0 * (half[:, 0] + half[:, 1]))
    choices = rng.choice(n, size=n_points, p=perims / perims.sum())
    on_circle = circle[choices, None]
    hx, hy = half[choices].T
    s = rng.uniform(0.0, np.where(on_circle[:, 0], 2.0 * np.pi, perims[choices]))
    ring = np.stack([np.cos(s), np.sin(s)], axis=1)  # a circle point's direction and normal
    walk = [s < 2 * hx, s < 2 * hx + 2 * hy, s < 4 * hx + 2 * hy]  # else the left side
    along = np.stack([np.select(walk, [-hx + s, hx, hx - (s - 2 * hx - 2 * hy)], -hx),
                      np.select(walk, [-hy, -hy + (s - 2 * hx), hy], hy - (s - 4 * hx - 2 * hy))],
                     axis=1)
    return CloudObservation(
        points=env._centers[choices] + np.where(on_circle, hx[:, None] * ring, along),
        normals=np.where(on_circle, ring, _WALK_NORMALS[np.select(walk, [0, 1, 2], 3)]),
        source=CloudSource.SURFACE_SAMPLED)


@dataclass(frozen=True)
class ScanSpec(Record):
    """Ray fans cast from link midpoints, directions fixed in each link frame."""

    mount_links: tuple[int, ...] = (0, 2)
    rays_per_mount: int = 32
    max_range: float = 2.0
    _fan: np.ndarray = field(init=False, repr=False, compare=False)  # ray angles in a link frame

    def __post_init__(self):
        if not self.mount_links:
            raise ValueError("a scan needs at least one mount link")
        if self.rays_per_mount < 1:
            raise ValueError("a scan needs at least one ray per mount")
        if not 0.0 < self.max_range < np.inf:
            raise ValueError("scan max_range must be positive and finite")
        object.__setattr__(self, "_fan", 2.0 * np.pi * np.arange(self.rays_per_mount)
                           / self.rays_per_mount)


def ray_cast_scan(env: Environment, arm: ArmModel, q: np.ndarray, spec: ScanSpec) -> CloudObservation:
    """Cast evenly spaced full-circle ray fans from the mounted link midpoints.

    Hits return (hit point, outward surface normal); misses return the
    max-range sentinel point with normal opposite the ray direction. Every
    (ray, obstacle) pair gets its hit parameter, circles first so that they
    win ties; only each ray's nearest hit gets a normal.
    """
    for link in spec.mount_links:
        if not 0 <= link < arm.n_links:
            raise ValueError(f"mount link {link} out of range")
    links = np.array(spec.mount_links)
    pts, cum = joint_positions(arm, q)
    angles = (cum.take(links)[:, None] + spec._fan).ravel()
    origins = np.repeat(0.5 * (pts.take(links, axis=0) + pts.take(links + 1, axis=0)),
                        spec.rays_per_mount, axis=0)
    dirs = np.empty_like(origins)
    np.cos(angles, out=dirs[:, 0])
    np.sin(angles, out=dirs[:, 1])
    circle_c, radii, rect_c, halves = env._shapes()
    ts = []
    if circle_c.shape[0]:
        ts.append(geometry.ray_circles(origins, dirs, circle_c, radii))
    if rect_c.shape[0]:
        ts.append(geometry.ray_rects(origins, dirs, rect_c, halves))
    t = np.concatenate(ts, axis=1) if ts else np.full((len(origins), 1), np.inf)
    nearest = t.argmin(axis=1)
    best_t = t[np.arange(t.shape[0]), nearest]
    miss = ~(best_t <= spec.max_range)
    points = origins + np.fmin(best_t, spec.max_range)[:, None] * dirs
    normals = geometry.hit_normals(points, origins, dirs, nearest, circle_c, rect_c, halves)
    return CloudObservation(points=points, normals=np.where(miss[:, None], -dirs, normals),
                            source=CloudSource.RAY_CAST)


def _placed(env: Environment, centers: np.ndarray) -> dict:
    """The packed fields that move with the obstacles of `env`, at centres
    (..., O, 2) in obstacle order; leading axes index snapshots. Each kernel
    point is its owner's centre, plus its offset for a rectangle corner."""
    cz = centers[..., 0] + 1j * centers[..., 1]
    points = cz.take(env._point_owner, axis=-1)
    points[..., env._circle_index.size:] += env._corner_offsets
    return {"_centers": centers, "_rect_cz": cz.take(env._rect_index, axis=-1), "_points": points}


def _environment_at(env: Environment, dt: float, steps: int, last_only: bool = False
                    ) -> tuple[Environment, np.ndarray, np.ndarray]:
    """The environment after `steps` steps of dt, and the packed obstacle
    arrays of every step (of the last alone with `last_only`): complex
    rectangle centres (steps, K) and clearance kernel points (steps, P), as
    `Environment.__post_init__` packs them.

    Each step adds velocity*dt to the previous centre and dt to the previous
    time, the float order of single steps taken in turn. The last step's
    snapshot is built from those arrays: shapes do not move, so what depends
    only on them is shared with `env`, no obstacle is re-validated, and its
    obstacle records are built on first read.
    """
    if not 0.0 <= dt < np.inf:
        raise ValueError("dt must be finite and non-negative")
    centers = np.empty((steps + 1,) + env._centers.shape)
    centers[0] = env._centers
    centers[1:] = env._velocities * dt
    np.add.accumulate(centers, axis=0, out=centers)
    placed = _placed(env, centers[steps if last_only else 1:])
    if not steps:
        return env, placed["_rect_cz"], placed["_points"]
    time = env.time
    for _ in range(steps):
        time += dt
    after = object.__new__(Environment)
    after.__dict__.update(env.__dict__, time=float(time),
                          **{name: value[-1] for name, value in placed.items()})
    after.__dict__.pop("obstacles", None)
    return after, placed["_rect_cz"], placed["_points"]


def step_obstacles(env: Environment, dt: float, steps: int = 1) -> Environment:
    """Advance obstacle centers by velocity*dt, `steps` times; shapes
    unchanged, time accumulates. Only the last snapshot is packed."""
    return _environment_at(env, dt, steps, last_only=True)[0]


@dataclass(frozen=True)
class EnvGenConfig(Record):
    """Random-world parameters: obstacle count, size range, placement rules."""

    num_obstacles: int = 4
    size_range: tuple[float, float] = (0.08, 0.16)
    workspace: Workspace = Workspace()
    min_clearance_from_base: float = 0.25
    obstacle_speed: float = 0.0
    shapes: tuple[str, ...] = ("rect",)

    def __post_init__(self):
        if not self.shapes or not set(self.shapes) <= {"rect", "circle"}:
            raise ValueError(f"shapes must be a non-empty subset of rect, circle: {self.shapes}")
        if self.num_obstacles < 0:
            raise ValueError("num_obstacles must be non-negative")
        if not 0 < self.size_range[0] <= self.size_range[1] < np.inf:
            raise ValueError("size_range must be finite with 0 < low <= high")
        if not 0 <= self.obstacle_speed < np.inf:
            raise ValueError("obstacle_speed must be non-negative and finite")
        if not np.isfinite(self.min_clearance_from_base):  # NaN fails every draw
            raise ValueError("min_clearance_from_base must be finite")


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
            size = tuple(rng.uniform(gen_cfg.size_range[0], gen_cfg.size_range[1], size=2))
            speed = gen_cfg.obstacle_speed
            vel = random_velocity(speed, rng) if speed > 0.0 else (0.0, 0.0)
            shape = {"radius": size[0]} if kind == "circle" else {"half_extents": size}
            obs = Obstacle(kind=kind, center=tuple(center), velocity=vel, **shape)
            if obs.point_distance(base) >= gen_cfg.min_clearance_from_base:
                obstacles.append(obs)
                break
        else:
            raise GenerationError(
                f"could not place obstacle clear of the base after {MAX_GEN_ATTEMPTS} attempts"
            )
    return Environment(obstacles=tuple(obstacles), workspace=ws, time=0.0)


def random_velocity(speed: float, rng: np.random.Generator) -> tuple[float, float]:
    """A velocity of the given speed in a uniform random direction (one draw)."""
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return (speed * np.cos(ang), speed * np.sin(ang))


def sample_free_config(env: Environment, arm: ArmModel, rng: np.random.Generator,
                       clearance: float = 0.0) -> np.ndarray:
    """A uniform configuration inside the joint limits whose signed distance d
    is collision-free (d > 0) and at least `clearance`, by rejection."""
    for _ in range(MAX_GEN_ATTEMPTS):
        q = sample_config(arm, rng)
        d = signed_distance(env, arm, q)
        if d > 0.0 and d >= clearance:
            return q
    raise GenerationError(f"no configuration with clearance {clearance} after "
                          f"{MAX_GEN_ATTEMPTS} draws in environment {env.to_json()}")
