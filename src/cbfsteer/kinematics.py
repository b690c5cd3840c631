"""Planar n-link serial arm: velocity-controlled kinematics and link geometry.

Joint angles are relative (cumulative-angle convention): link i points along
the direction sum(q[0..i]) measured from the +x axis. Configurations are plain
float arrays of length n. Links are capsules (segment plus radius).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsonio import Record


@dataclass(frozen=True)
class ArmModel(Record):
    """Kinematic chain with joint limits and a symmetric box action space.

    Dynamics are a pure integrator (q_dot = u), with per-joint speed bounds
    |u_i| <= action_bound[i].
    """

    link_lengths: tuple[float, ...] = (0.5, 0.4, 0.3)
    link_radius: float = 0.04
    joint_lower: tuple[float, ...] = field(default=None)  # type: ignore[assignment]
    joint_upper: tuple[float, ...] = field(default=None)  # type: ignore[assignment]
    action_bound: tuple[float, ...] = field(default=None)  # type: ignore[assignment]
    base_position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        n = len(self.link_lengths)
        object.__setattr__(self, "link_lengths", tuple(float(v) for v in self.link_lengths))
        if self.joint_lower is None:
            object.__setattr__(self, "joint_lower", tuple([-2.8] * n))
        if self.joint_upper is None:
            object.__setattr__(self, "joint_upper", tuple([2.8] * n))
        if self.action_bound is None:
            object.__setattr__(self, "action_bound", tuple([1.0] * n))
        object.__setattr__(self, "joint_lower", tuple(float(v) for v in self.joint_lower))
        object.__setattr__(self, "joint_upper", tuple(float(v) for v in self.joint_upper))
        object.__setattr__(self, "action_bound", tuple(float(v) for v in self.action_bound))
        object.__setattr__(self, "base_position", tuple(float(v) for v in self.base_position))
        if n < 2:
            raise ValueError("arm needs at least 2 links")
        if not all(0.0 < v < np.inf for v in (*self.link_lengths, self.link_radius)):
            raise ValueError("link lengths and radius must be positive and finite")
        if len(self.joint_lower) != n or len(self.joint_upper) != n or len(self.action_bound) != n:
            raise ValueError("per-joint bounds must match the number of links")
        if not np.all(np.isfinite(self.joint_lower + self.joint_upper + self.base_position)):
            raise ValueError("joint limits and base position must be finite")
        if any(lo >= hi for lo, hi in zip(self.joint_lower, self.joint_upper)):
            raise ValueError("joint_lower must be strictly below joint_upper")
        if not all(0.0 < u < np.inf for u in self.action_bound):
            raise ValueError("action box must be finite with nonempty interior")

    @property
    def n_links(self) -> int:
        return len(self.link_lengths)

    # Bounds as arrays, built on first use and read-only: rollouts read them
    # every control tick.
    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only(np.array(self.joint_lower))

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only(np.array(self.joint_upper))

    @cached_property
    def action_lower(self) -> np.ndarray:
        return _read_only(-np.array(self.action_bound))

    @cached_property
    def action_upper(self) -> np.ndarray:
        return _read_only(np.array(self.action_bound))

    @cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(np.array(self.link_lengths))

    @cached_property
    def joint_reach(self) -> tuple[float, ...]:
        """rho_i = sum of L_j over j >= i, the reach from joint i to the tip.
        Angles are cumulative, so a step dq moves any arm point, and any link
        relative to any other, by at most sum(rho_i |dq_i|): the clearance
        falls by no more than that."""
        return tuple(sum(self.link_lengths[i:]) for i in range(self.n_links))

    @cached_property
    def cross_reach(self) -> float:
        """Largest min(L_l, L_j)/2 over non-adjacent links (-inf with
        fewer than three): crossing links come this close to each other's
        endpoints, which lets the clearance kernel skip its crossing test."""
        lengths = self.link_lengths
        return max((min(lengths[l], lengths[j]) / 2 for l in range(len(lengths))
                    for j in range(l + 2, len(lengths))), default=-np.inf)

    @cached_property
    def clearance_cap(self) -> float:
        """Smallest L_l - 2 link_radius over inner links l (+inf with fewer than
        three): links l-1 and l+1 end at link l's joints, so no clearance passes it."""
        return min((L - 2 * self.link_radius for L in self.link_lengths[1:-1]), default=np.inf)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def check_endpoints(arm: ArmModel, q0, qg, who: str = "") -> tuple[np.ndarray, np.ndarray]:
    """(q0, qg) as configurations inside the joint limits (`_check_config`), else ValueError."""
    return tuple(_check_config(arm, q, f"{who}{name} configuration", in_limits=True)
                 for name, q in (("start", q0), ("goal", qg)))


def _check_config(arm: ArmModel, q: np.ndarray, what: str = "configuration",
                  in_limits: bool = False) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (arm.n_links,):
        raise ValueError(f"{what} has shape {q.shape}, expected ({arm.n_links},)")
    if in_limits and not np.all((arm.lower <= q) & (q <= arm.upper)):
        raise ValueError(f"{what} must be finite and inside the joint limits, not {q.tolist()}")
    return q


def hold(arm: ArmModel, q: np.ndarray, u: np.ndarray, substeps: int, dt_sim: float
         ) -> np.ndarray:
    """Zero-order hold of q_dot = u (u in the action box): the configurations
    (substeps, n) after 1..substeps clamped Euler steps of dt_sim.

    Equal bit for bit to iterating q <- clip(q + u*dt_sim): the first step
    brings q inside the limits, and from there each joint moves one way, so
    clamping the running sums once equals clamping every step.
    """
    configs = np.empty((substeps, arm.n_links))
    configs[0] = (q + u * dt_sim).clip(arm.lower, arm.upper)
    configs[1:] = u * dt_sim
    np.add.accumulate(configs, axis=0, out=configs)
    return configs.clip(arm.lower, arm.upper, out=configs)


def sample_config(arm: ArmModel, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw inside the joint limits."""
    return rng.uniform(arm.lower, arm.upper)


def batch_joint_positions(arm: ArmModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base, joint and tip positions (R, n+1) as complex x + iy, and the
    absolute link angles (R, n), for R configurations."""
    qs = np.asarray(qs, dtype=float)
    angles = np.add.accumulate(qs, axis=1)
    joints = np.empty((qs.shape[0], arm.n_links + 1), dtype=complex)
    xy = joints.view(float)  # x, y of joint k in columns 2k, 2k + 1
    xy[:, :2] = 0.0
    np.multiply(np.cos(angles, out=xy[:, 2::2]), arm.lengths, out=xy[:, 2::2])
    np.multiply(np.sin(angles, out=xy[:, 3::2]), arm.lengths, out=xy[:, 3::2])
    np.add.accumulate(joints, axis=1, out=joints)
    joints += complex(*arm.base_position)
    return joints, angles


def joint_positions(arm: ArmModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World positions of the base and every joint/tip (n+1, 2) and the
    absolute link angles (n,) of one configuration: the real view of one
    `batch_joint_positions` row."""
    joints, angles = batch_joint_positions(arm, _check_config(arm, q)[None])
    return joints[0].view(float).reshape(-1, 2), angles[0]


def batch_link_frames(arm: ArmModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link-frame origins (R, n, 2) and absolute angles (R, n) for R
    configurations; the origins are a real view of the joint positions."""
    joints, angles = batch_joint_positions(arm, qs)
    return joints[:, :-1].view(float).reshape(joints.shape[0], -1, 2), angles
