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
        if any(l <= 0 for l in self.link_lengths) or self.link_radius <= 0:
            raise ValueError("link lengths and radius must be positive")
        if len(self.joint_lower) != n or len(self.joint_upper) != n or len(self.action_bound) != n:
            raise ValueError("per-joint bounds must match the number of links")
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_config(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (arm.n_links,):
        raise ValueError(f"configuration has shape {q.shape}, expected ({arm.n_links},)")
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
    angles = np.cumsum(qs, axis=1)
    lengths = np.array(arm.link_lengths)
    joints = np.zeros((qs.shape[0], arm.n_links + 1), dtype=complex)
    np.multiply(lengths, np.cos(angles), out=joints.real[:, 1:])
    np.multiply(lengths, np.sin(angles), out=joints.imag[:, 1:])
    np.cumsum(joints, axis=1, out=joints)
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
