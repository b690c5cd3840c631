"""Defaults, JSON config overrides, and named deterministic random streams.

A config file is a JSON document whose keys deep-merge over DEFAULTS; every
named default in the package is reachable this way. A settings record is
built from its section by `Record.from_json`, so the section's keys are the
record's field names; keys it does not own are read elsewhere. A key that
is neither in DEFAULTS nor a field of its section's record is rejected, and
so is a value the record rejects. All randomness flows from one root seed
through named sub-streams so reruns are bit-reproducible.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import zlib

import numpy as np

from .cbf import CbfHyper, HandcraftedBarrier, TrainSchedule
from .controller import NominalPolicy, RolloutLimits, SafeControllerConfig
from .environment import EnvGenConfig, ScanSpec, Workspace
from .jsonio import load_json
from .kinematics import ArmModel
from .planner import PlannerLimits

# Each record-backed section holds its record's own defaults; only the keys
# no record owns are written out here.
DEFAULTS: dict = {
    "arm": ArmModel().to_json(),
    "workspace": Workspace().to_json(),
    "env_gen": {k: v for k, v in EnvGenConfig().to_json().items() if k != "workspace"},
    "cloud": {"num_points": 64, **ScanSpec().to_json()},
    "hyper": CbfHyper().to_json(),
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
        "state": TrainSchedule().to_json(),
        "cloud": {"epochs": 25, "batch_size": 128, "lr": 2e-3},
    },
    "controller": {
        "kp": NominalPolicy.gain,
        "hand_margin": HandcraftedBarrier.margin,
        **SafeControllerConfig().to_json(),
        **RolloutLimits().to_json(),
    },
    "planner": PlannerLimits().to_json(),
    "bench": {
        "problems_per_class": 200,
        "seeds": [0, 1, 2],
        "proxy_runs": 3,
        "workers": 1,
        "clearance_factor": 0.5,
    },
}


# The records each section builds: their fields are the section's keys, with
# the literal keys DEFAULTS holds.
SECTION_RECORDS = {
    ("arm",): (ArmModel,), ("workspace",): (Workspace,), ("env_gen",): (EnvGenConfig,),
    ("cloud",): (ScanSpec,), ("hyper",): (CbfHyper,), ("planner",): (PlannerLimits,),
    ("controller",): (SafeControllerConfig, RolloutLimits),
    ("train", "state"): (TrainSchedule,), ("train", "cloud"): (TrainSchedule,),
}


# the literal keys that hold counts and widths, each an integer at least its
# low, and the `net` hidden-layer widths, each a list of integers >= 1
INT_KEYS = {("cloud", "num_points"): 1, ("net", "feature_width"): 1,
            ("data", "rollout_trajs"): 0, ("data", "uniform_samples"): 0,
            ("data", "uniform_samples_per_env"): 1, ("data", "rollout_ticks"): 1,
            ("bench", "workers"): 1, ("bench", "proxy_runs"): 1,
            ("bench", "problems_per_class"): 1}
WIDTH_LISTS = ("state_hidden", "point_hidden", "trunk_hidden")
# the literal keys that hold real numbers: each an int or a float, not a bool
FLOAT_KEYS = (("controller", "kp"), ("controller", "hand_margin"), ("bench", "clearance_factor"))


def _check_keys(doc: dict, defaults: dict = DEFAULTS, path: tuple = ()) -> None:
    """Reject, naming the key's path: a key that is neither in DEFAULTS nor a
    field of a record its section builds, a section that is not an object,
    and `env_gen.workspace`, since generated worlds take the top-level one."""
    fields = {f.name for rec in SECTION_RECORDS.get(path, ())
              for f in dataclasses.fields(rec) if f.init}
    for key, val in doc.items():
        name = ".".join(path + (key,))
        if isinstance(defaults.get(key), dict):
            if not isinstance(val, dict):
                raise ValueError(f"config key {name} must be an object, not {val!r}")
            _check_keys(val, defaults[key], path + (key,))
        elif name == "env_gen.workspace":
            raise ValueError(f"config key {name} is not read: worlds take the top-level workspace")
        elif key not in defaults and key not in fields:
            raise ValueError(f"unknown config key {name}")


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path=None) -> dict:
    """DEFAULTS with the file's overrides, after building every section's
    records, the nominal policy and the hand barrier once and checking the
    literal keys and the `bench` section, so a rejected value stops any work."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    doc = load_json(path)
    _check_keys(doc)
    cfg = deep_merge(DEFAULTS, doc)
    for keys, records in SECTION_RECORDS.items():
        section = functools.reduce(dict.__getitem__, keys, cfg)
        for rec in records:
            if rec is EnvGenConfig:
                make_env_gen(cfg)  # as commands build it, with the top-level workspace
            else:
                rec.from_json(section)
    for section, key in FLOAT_KEYS:
        value = cfg[section][key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{section}.{key} needs a number, not {value!r}")
    make_policy(cfg)
    arm = make_arm(cfg)
    HandcraftedBarrier(arm, cfg["controller"]["hand_margin"])
    for link in cfg["cloud"]["mount_links"]:
        if not 0 <= link < arm.n_links:
            raise ValueError(f"cloud.mount_links names link {link}, but the arm's links are "
                             f"0 to {arm.n_links - 1}")
    for (section, key), low in INT_KEYS.items():
        value = cfg[section][key]
        if not is_int_at_least(value, low):
            raise ValueError(f"{section}.{key} must be an integer >= {low}, not {value!r}")
    for key in WIDTH_LISTS:
        value = cfg["net"][key]
        if not isinstance(value, list) or not all(is_int_at_least(v, 1) for v in value):
            raise ValueError(f"net.{key} must be a list of integers >= 1, not {value!r}")
    bench = cfg["bench"]
    if not 0.0 <= bench["clearance_factor"] < math.inf:
        raise ValueError("bench.clearance_factor must be non-negative and finite")
    seeds = bench["seeds"]
    if not isinstance(seeds, list) or not all(is_int_at_least(s, 0) for s in seeds):
        raise ValueError(f"bench.seeds must be a list of non-negative integers: {seeds!r}")
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError("bench.seeds must name at least one seed, each once")
    return cfg


def is_int_at_least(value, low: int) -> bool:
    """Whether `value` is an int, not a bool, and at least `low`."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def seed_stream(root_seed: int, name: str, *indices: int) -> np.random.Generator:
    """Named deterministic generator: the stream identity is (root, crc32(name), indices)."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), key, *map(int, indices)]))


def make_arm(cfg: dict) -> ArmModel:
    return ArmModel.from_json(cfg["arm"])


def make_env_gen(cfg: dict, **overrides) -> EnvGenConfig:
    """The `env_gen` section with the overrides; the workspace is always the
    config's top-level one."""
    return EnvGenConfig.from_json({**cfg["env_gen"], **overrides, "workspace": cfg["workspace"]})


def make_hyper(cfg: dict, kind: str | None = None) -> CbfHyper:
    """The barrier hyperparameters of the config's `hyper` block, which both
    variants share. `kind` is not read; the benchmark workloads pass the
    variant, as they do to `make_schedule`."""
    return CbfHyper.from_json(cfg["hyper"])


def checkpoint_hyper(cfg: dict, hyper_doc: dict) -> CbfHyper:
    """A checkpoint's barrier hyperparameters; one saved without them gets
    the config's."""
    return CbfHyper.from_json(hyper_doc) if hyper_doc else make_hyper(cfg)


def make_policy(cfg: dict) -> NominalPolicy:
    return NominalPolicy(gain=cfg["controller"]["kp"])


def make_qp_cfg(cfg: dict) -> SafeControllerConfig:
    return SafeControllerConfig.from_json(cfg["controller"])


def make_rollout_limits(cfg: dict, **overrides) -> RolloutLimits:
    return RolloutLimits.from_json({**cfg["controller"], **overrides})


def make_planner_limits(cfg: dict) -> PlannerLimits:
    return PlannerLimits.from_json(cfg["planner"])


def make_scan_spec(cfg: dict) -> ScanSpec:
    return ScanSpec.from_json(cfg["cloud"])


def make_schedule(cfg: dict, kind: str) -> TrainSchedule:
    return TrainSchedule.from_json(cfg["train"][kind])


def state_widths(cfg: dict, arm: ArmModel) -> tuple:
    return (arm.n_links + 1, *cfg["net"]["state_hidden"], 1)


def cloud_widths(cfg: dict, arm: ArmModel) -> tuple[tuple, tuple]:
    n = arm.n_links
    f = cfg["net"]["feature_width"]
    per_point = (4 + n, *cfg["net"]["point_hidden"], f)
    trunk = (f + n, *cfg["net"]["trunk_hidden"], 1)
    return per_point, trunk
