"""Defaults, JSON config overrides, and named deterministic random streams.

A config file is a JSON document whose keys deep-merge over DEFAULTS; every
named default in the package is reachable this way. All randomness flows from
one root seed through named sub-streams so reruns are bit-reproducible.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np

from .cbf import CbfHyper, TrainSchedule
from .controller import NominalPolicy, QpMode, RolloutLimits, SafeControllerConfig
from .environment import EnvGenConfig, ScanSpec, Workspace
from .jsonio import load_json
from .kinematics import ArmModel
from .planner import PlannerLimits

DEFAULTS: dict = {
    "arm": {
        "link_lengths": [0.5, 0.4, 0.3],
        "link_radius": 0.04,
        "joint_lower": [-2.8, -2.8, -2.8],
        "joint_upper": [2.8, 2.8, 2.8],
        "action_bound": [1.0, 1.0, 1.0],
        "base_position": [0.0, 0.0],
    },
    "workspace": {"center": [0.0, 0.0], "half_extents": [1.5, 1.5]},
    "env_gen": {
        "num_obstacles": 4,
        "size_range": [0.08, 0.16],
        "min_clearance_from_base": 0.25,
        "obstacle_speed": 0.0,
        "shapes": ["rect"],
        "fixed_size": None,
    },
    "cloud": {
        "num_points": 64,
        "mount_links": [0, 2],
        "rays_per_mount": 32,
        "max_range": 2.0,
    },
    "hyper": {
        "gamma": 0.05,
        "eps_margin": 0.02,
        "alpha_h": 1.0,
        "loss_weights": [1.0, 1.0, 0.5],
        "fd_step": 1e-3,
        "r_thres": 0.05,
    },
    "net": {
        "state_hidden": [64, 64],
        "point_hidden": [16],
        "feature_width": 32,
        "trunk_hidden": [48, 48],
    },
    "data": {
        "rollout_trajs": 150,
        "uniform_samples": 37000,
        "uniform_samples_per_env": 200,
        "rollout_ticks": 90,
    },
    "train": {
        "state": {"epochs": 60, "batch_size": 256, "lr": 2e-3},
        "cloud": {"epochs": 25, "batch_size": 128, "lr": 2e-3},
    },
    "controller": {
        "kp": 1.0,
        "alpha": 1.0,
        "relax_penalty": 100.0,
        "mode": "relaxed",
        "r_goal": 0.1,
        "sim_hz": 120,
        "ctrl_hz": 30,
        "horizon_s": 10.0,
        "hand_margin": 0.15,
    },
    "planner": {
        "max_nodes": 200,
        "goal_bias": 0.1,
        "step_size": 0.5,
        "check_resolution": 0.02,
        "connect_radius": 1.0,
        "max_ctrl_steps": 90,
        "stall_threshold": 1e-3,
        "stall_ticks": 5,
    },
    "bench": {
        "problems_per_class": 200,
        "seeds": [0, 1, 2],
        "proxy_runs": 3,
        "report_timing": True,
        "workers": 1,
        "clearance_factor": 0.5,
    },
}


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    return deep_merge(DEFAULTS, load_json(path))


def seed_stream(root_seed: int, name: str, *indices: int) -> np.random.Generator:
    """Named deterministic generator: the stream identity is (root, crc32(name), indices)."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), key, *map(int, indices)]))


def make_arm(cfg: dict) -> ArmModel:
    a = cfg["arm"]
    return ArmModel(
        link_lengths=tuple(a["link_lengths"]),
        link_radius=a["link_radius"],
        joint_lower=tuple(a["joint_lower"]),
        joint_upper=tuple(a["joint_upper"]),
        action_bound=tuple(a["action_bound"]),
        base_position=tuple(a["base_position"]),
    )


def make_workspace(cfg: dict) -> Workspace:
    w = cfg["workspace"]
    return Workspace(center=tuple(w["center"]), half_extents=tuple(w["half_extents"]))


def make_env_gen(cfg: dict, **overrides) -> EnvGenConfig:
    g = dict(cfg["env_gen"])
    g.update(overrides)
    return EnvGenConfig(
        num_obstacles=int(g["num_obstacles"]),
        size_range=tuple(g["size_range"]),
        workspace=make_workspace(cfg),
        min_clearance_from_base=float(g["min_clearance_from_base"]),
        obstacle_speed=float(g["obstacle_speed"]),
        shapes=tuple(g["shapes"]),
        fixed_size=g["fixed_size"],
    )


def make_hyper(cfg: dict, kind: str | None = None) -> CbfHyper:
    """The barrier hyperparameters of the config's `hyper` block, which both
    variants share. `kind` is not read; callers such as the benchmark
    workloads pass the variant, as they do to `make_schedule`."""
    h = cfg["hyper"]
    return CbfHyper(
        gamma=h["gamma"],
        eps_margin=h["eps_margin"],
        alpha_h=h["alpha_h"],
        loss_weights=tuple(h["loss_weights"]),
        fd_step=h["fd_step"],
        r_thres=h["r_thres"],
    )


def checkpoint_hyper(cfg: dict, hyper_doc: dict) -> CbfHyper:
    """A checkpoint's barrier hyperparameters; one saved without them gets
    the config's."""
    return CbfHyper.from_json(hyper_doc) if hyper_doc else make_hyper(cfg)


def make_policy(cfg: dict) -> NominalPolicy:
    return NominalPolicy(gain=cfg["controller"]["kp"])


def make_qp_cfg(cfg: dict, mode: str | None = None) -> SafeControllerConfig:
    c = cfg["controller"]
    return SafeControllerConfig(
        alpha=c["alpha"],
        relax_penalty=c["relax_penalty"],
        mode=QpMode(mode or c["mode"]),
    )


def make_rollout_limits(cfg: dict, **overrides) -> RolloutLimits:
    c = cfg["controller"]
    kw = {
        "horizon_s": c["horizon_s"],
        "sim_hz": c["sim_hz"],
        "ctrl_hz": c["ctrl_hz"],
        "r_goal": c["r_goal"],
    }
    kw.update(overrides)
    return RolloutLimits(**kw)


def make_planner_limits(cfg: dict, **overrides) -> PlannerLimits:
    p = dict(cfg["planner"])
    p.update(overrides)
    return PlannerLimits(
        max_nodes=int(p["max_nodes"]),
        goal_bias=float(p["goal_bias"]),
        step_size=float(p["step_size"]),
        check_resolution=float(p["check_resolution"]),
        connect_radius=float(p["connect_radius"]),
        max_ctrl_steps=int(p["max_ctrl_steps"]),
        stall_threshold=float(p["stall_threshold"]),
        stall_ticks=int(p["stall_ticks"]),
    )


def make_scan_spec(cfg: dict) -> ScanSpec:
    c = cfg["cloud"]
    return ScanSpec(
        mount_links=tuple(c["mount_links"]),
        rays_per_mount=int(c["rays_per_mount"]),
        max_range=float(c["max_range"]),
    )


def make_schedule(cfg: dict, kind: str) -> TrainSchedule:
    t = cfg["train"][kind]
    return TrainSchedule(epochs=int(t["epochs"]), batch_size=int(t["batch_size"]), lr=float(t["lr"]))


def state_widths(cfg: dict, arm: ArmModel) -> tuple:
    return (arm.n_links + 1, *cfg["net"]["state_hidden"], 1)


def cloud_widths(cfg: dict, arm: ArmModel) -> tuple[tuple, tuple]:
    n = arm.n_links
    f = int(cfg["net"]["feature_width"])
    per_point = (4 + n, *cfg["net"]["point_hidden"], f)
    trunk = (f + n, *cfg["net"]["trunk_hidden"], 1)
    return per_point, trunk
