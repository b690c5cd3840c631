"""Config sections and the settings records they build: every key of a
record-backed section reaches its record field through a `--config` file,
and the defaults are the records' own."""

import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from cbfsteer import cli, config
from cbfsteer.cbf import CbfHyper, TrainSchedule
from cbfsteer.controller import RolloutLimits, SafeControllerConfig
from cbfsteer.environment import EnvGenConfig, ScanSpec, Workspace
from cbfsteer.jsonio import dump_json
from cbfsteer.kinematics import ArmModel
from cbfsteer.planner import PlannerLimits

# (section path, record, factory, a valid non-default value for every key the
# record reads from the section)
SECTIONS = [
    (("arm",), ArmModel, config.make_arm, {
        "link_lengths": [0.6, 0.5, 0.4], "link_radius": 0.05,
        "joint_lower": [-2.0, -2.0, -2.0], "joint_upper": [2.5, 2.5, 2.5],
        "action_bound": [0.5, 0.5, 0.5], "base_position": [0.25, -0.5]}),
    (("workspace",), Workspace, lambda cfg: config.make_env_gen(cfg).workspace, {
        "center": [0.5, -0.25], "half_extents": [2.0, 1.0]}),
    (("env_gen",), EnvGenConfig, config.make_env_gen, {
        "num_obstacles": 7, "size_range": [0.05, 0.1], "min_clearance_from_base": 0.3,
        "obstacle_speed": 0.05, "shapes": ["rect", "circle"]}),
    (("cloud",), ScanSpec, config.make_scan_spec, {
        "mount_links": [1], "rays_per_mount": 8, "max_range": 1.5}),
    (("hyper",), CbfHyper, config.make_hyper, {
        "gamma": 0.1, "eps_margin": 0.03, "alpha_h": 2.0, "loss_weights": [1.0, 0.5, 0.25],
        "fd_step": 1e-4, "r_thres": 0.04}),
    (("controller",), SafeControllerConfig, config.make_qp_cfg, {
        "relax_penalty": 50.0, "mode": "strict"}),
    (("controller",), RolloutLimits, config.make_rollout_limits, {
        "horizon_s": 3.0, "sim_hz": 60, "ctrl_hz": 20, "r_goal": 0.05}),
    (("planner",), PlannerLimits, config.make_planner_limits, {
        "max_nodes": 60, "goal_bias": 0.2, "step_size": 0.25, "check_resolution": 0.01,
        "connect_radius": 0.5, "max_ctrl_steps": 30, "stall_threshold": 1e-4,
        "stall_ticks": 3}),
    (("train", "state"), TrainSchedule, lambda cfg: config.make_schedule(cfg, "state"), {
        "epochs": 5, "batch_size": 32, "lr": 1e-3}),
    (("train", "cloud"), TrainSchedule, lambda cfg: config.make_schedule(cfg, "cloud"), {
        "epochs": 5, "batch_size": 32, "lr": 1e-3}),
]

# keys of record-backed sections that no record reads
LITERAL_KEYS = {("cloud", "num_points"), ("controller", "kp"), ("controller", "hand_margin")}

KEY_CASES = [(path, record, build, key, value)
             for path, record, build, values in SECTIONS for key, value in values.items()]


def nested(path: tuple, doc: dict) -> dict:
    for name in reversed(path):
        doc = {name: doc}
    return doc


def section(cfg: dict, path: tuple) -> dict:
    for name in path:
        cfg = cfg[name]
    return cfg


def test_the_configurable_keys_are_the_records_fields():
    # the table holds every field of each record, except that the env_gen
    # section takes its workspace from the top-level one; every other key
    # of those sections is one no record reads
    for path, record, _, values in SECTIONS:
        fields = {f.name for f in dataclasses.fields(record) if f.init} - {"workspace"}
        assert set(values) == fields, record.__name__
    owned = {(path, key) for path, _, _, key, _ in KEY_CASES}
    for path, _, _, _ in SECTIONS:
        for key in section(config.DEFAULTS, path):
            assert (path, key) in owned or (path[0], key) in LITERAL_KEYS, (path, key)


@pytest.mark.parametrize("path, record, build, key, value", KEY_CASES,
                         ids=[".".join(c[0]) + "." + c[3] for c in KEY_CASES])
def test_a_config_file_key_reaches_its_record_field(path, record, build, key, value,
                                                   tmp_path):
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, nested(path, {key: value}))
    built = build(config.load_config(cfg_path))
    assert isinstance(built, record)
    assert built.to_json() == {**build(config.load_config()).to_json(), key: value}


@pytest.mark.parametrize("path, record, build, _values", SECTIONS,
                         ids=[r.__name__ + ":" + ".".join(p) for p, r, _, _ in SECTIONS])
def test_the_default_config_builds_the_record_defaults(path, record, build, _values):
    if path == ("train", "cloud"):  # the cloud schedule is its own literal section
        assert build(config.load_config()) == TrainSchedule(epochs=25, batch_size=128)
    else:
        assert build(config.load_config()) == record()


def test_env_gen_workspace_in_a_config_file_is_rejected(tmp_path):
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, {"env_gen": {"workspace": {"center": [1.0, 1.0],
                                                   "half_extents": [0.5, 0.5]}},
                         "workspace": {"center": [0.0, 0.5], "half_extents": [2.0, 1.5]}})
    with pytest.raises(ValueError, match=r"config key env_gen\.workspace is not read"):
        config.load_config(cfg_path)


def test_env_gen_cannot_override_the_workspace():
    cfg = config.load_config()
    cfg["workspace"] = {"center": [0.0, 0.5], "half_extents": [2.0, 1.5]}
    top = Workspace(center=(0.0, 0.5), half_extents=(2.0, 1.5))
    assert config.make_env_gen(cfg).workspace == top
    assert config.make_env_gen(cfg, workspace={"center": [1.0, 1.0]}).workspace == top


def test_factory_overrides_win_over_the_section():
    cfg = config.load_config()
    assert config.make_rollout_limits(cfg, horizon_s=3.0) == RolloutLimits(horizon_s=3.0)
    assert config.make_env_gen(cfg, num_obstacles=8).num_obstacles == 8


def load_doc(tmp_path, doc: dict) -> dict:
    cfg_path = tmp_path / "config.json"
    dump_json(cfg_path, doc)
    return config.load_config(cfg_path)


# every section path of DEFAULTS, nested sections included
SECTION_PATHS = [(name,) for name in config.DEFAULTS] + [("train", "state"), ("train", "cloud")]


@pytest.mark.parametrize("path", SECTION_PATHS, ids=[".".join(p) for p in SECTION_PATHS])
def test_a_misspelled_key_is_rejected_by_path(path, tmp_path):
    with pytest.raises(ValueError, match=r"unknown config key " + r"\.".join(path) + r"\.mistyped"):
        load_doc(tmp_path, nested(path, {"mistyped": 1}))


@pytest.mark.parametrize("doc, where", [
    ({"planner": {"max_node": 60}}, "planner.max_node"),
    ({"controller": {"horizon": 3.0}}, "controller.horizon"),
    ({"env_gen": {"shape": ["circle"]}}, "env_gen.shape"),
    ({"trian": {"state": {"epochs": 2}}}, "trian"),
])
def test_misspellings_that_used_to_be_ignored(doc, where, tmp_path):
    with pytest.raises(ValueError, match=f"unknown config key {where}$"):
        load_doc(tmp_path, doc)


@pytest.mark.parametrize("value", [5, [1, 2], "fast", None])
@pytest.mark.parametrize("path", SECTION_PATHS, ids=[".".join(p) for p in SECTION_PATHS])
def test_a_section_that_is_not_an_object_is_rejected_by_path(path, value, tmp_path):
    with pytest.raises(ValueError, match=r"config key " + r"\.".join(path) + " must be an object"):
        load_doc(tmp_path, nested(path[:-1], {path[-1]: value}))


@pytest.mark.parametrize("doc, where", [
    ({"controller": {"alpha": 2.0}}, "controller.alpha"),  # the barrier carries hyper.alpha_h
    ({"bench": {"report_timing": False}}, "bench.report_timing"),  # the --no-timing flag
    ({"env_gen": {"fixed_size": 0.125}}, "env_gen.fixed_size"),  # size_range [s, s]
], ids=["controller.alpha", "bench.report_timing", "env_gen.fixed_size"])
def test_keys_with_another_single_source_are_rejected(doc, where, tmp_path):
    with pytest.raises(ValueError, match=f"unknown config key {where}$"):
        load_doc(tmp_path, doc)


def test_every_table_key_and_every_default_key_is_accepted(tmp_path):
    doc = config.DEFAULTS
    for path, _, _, key, value in KEY_CASES:
        doc = config.deep_merge(doc, nested(path, {key: value}))
    assert load_doc(tmp_path, doc) == doc


def test_the_benchmark_config_is_accepted(tmp_path):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        cfg = workloads.bench_config()
    finally:
        del sys.modules[spec.name]
    assert load_doc(tmp_path, cfg) == cfg


# seed_stream reads 0.5 as 0, so bench planned and counted one run twice, and
# `workers` 2.5 ran as 2
BENCH_REJECTED = [
    *(({"bench": {"seeds": value}}, "bench.seeds must be a list of non-negative integers")
      for value in ([0, 0.5], [True], [-1], ["0"], 0)),
    *(({"bench": {key: value}}, f"bench.{key} must be an integer >= 1")
      for key in ("workers", "proxy_runs", "problems_per_class") for value in (0, 2.5, True)),
]
# an int field took 16.7 as 16, 0.9 as 0 and true as 1, and a float field
# true as 1.0
DECODE_REJECTED = [
    ({"planner": {"max_nodes": 16.7}}, "field max_nodes needs an integer, not 16.7"),
    ({"cloud": {"mount_links": [0.9, 2]}}, "field mount_links needs an integer, not 0.9"),
    ({"planner": {"max_ctrl_steps": True}}, "field max_ctrl_steps needs an integer, not True"),
    ({"controller": {"sim_hz": float("inf")}}, "field sim_hz needs an integer, not inf"),
    ({"train": {"state": {"epochs": float("nan")}}}, "field epochs needs an integer, not nan"),
    ({"hyper": {"gamma": True}}, "field gamma needs a number, not True"),
    ({"arm": {"link_lengths": [0.5, False, 0.3]}}, "field link_lengths needs a number, not False"),
    # a numeric string loaded, and then plan failed on "'<' not supported
    # between instances of 'float' and 'str'", gen-problems on multiplying a
    # sequence, collect-data on a division
    ({"controller": {"r_goal": "0.1"}}, "field r_goal needs a number, not '0.1'"),
    ({"hyper": {"r_thres": "0.05"}}, "field r_thres needs a number, not '0.05'"),
    ({"controller": {"ctrl_hz": "30"}}, "field ctrl_hz needs an integer, not '30'"),
    # a fixed-length tuple took any length: a one-entry base position put
    # the base at (0.3, 0), and two loss weights failed at the first batch
    ({"arm": {"base_position": [0.3]}}, "field base_position needs 2 entries, not 1"),
    ({"workspace": {"center": [0.0]}}, "field center needs 2 entries, not 1"),
    ({"hyper": {"loss_weights": [1, 1]}}, "field loss_weights needs 3 entries, not 2"),
    ({"env_gen": {"size_range": [0.1, 0.2, 0.3]}}, "field size_range needs 2 entries, not 3"),
]
# the keys no record reads: a feature width of 2.5 trained a net of width 2,
# true ran as 1 and 1.0, a cloud of 2.5 points or a hidden width of 0 failed
# mid-command, and a mount link the arm lacks failed at the first scan
LITERAL_REJECTED = [
    *(({"net": {"feature_width": value}}, "net.feature_width must be an integer >= 1")
      for value in (2.5, True, 0)),
    *(({"net": {key: value}}, f"net.{key} must be a list of integers >= 1")
      for key, value in (("state_hidden", [64.7, 64]), ("state_hidden", [0]),
                         ("point_hidden", [-4]), ("trunk_hidden", [48, "48"]),
                         ("trunk_hidden", 48))),
    *(({"cloud": {"num_points": value}}, "cloud.num_points must be an integer >= 1")
      for value in (0, 2.5, True)),
    *(({"data": {"rollout_ticks": value}}, "data.rollout_ticks must be an integer >= 1")
      for value in (0, 2.5)),
    *(({"data": {key: value}}, f"data.{key} must be an integer >= ")
      for key, value in (("rollout_trajs", 2.5), ("uniform_samples_per_env", 2.5),
                         ("uniform_samples", True))),
    # a string stopped on a comparison that named no key, and true ran as 1
    *(({section: {key: value}}, f"{section}.{key} needs a number, not {value!r}")
      for section, key in (("controller", "kp"), ("controller", "hand_margin"),
                           ("bench", "clearance_factor")) for value in (True, "2")),
    ({"cloud": {"mount_links": [5]}}, "cloud.mount_links names link 5, but the arm's links "
                                      "are 0 to 2"),
    ({"cloud": {"mount_links": [0, -1]}}, "cloud.mount_links names link -1"),
    ({"arm": {"link_lengths": [0.5, 0.4], "joint_lower": [-2.0, -2.0],
              "joint_upper": [2.0, 2.0], "action_bound": [1.0, 1.0]}},
     "cloud.mount_links names link 2, but the arm's links are 0 to 1"),
]
# (config file, the rejection's message): values a record cannot use, which
# `load_config` rejects before any command runs
REJECTED_VALUES = [
    *(({"hyper": {key: value}}, "barrier hyperparameters must be positive and finite")
      for key in ("gamma", "fd_step", "r_thres") for value in (float("nan"), float("inf"))),
    ({"hyper": {"loss_weights": [1.0, float("inf"), 0.5]}}, "must be positive and finite"),
    ({"hyper": {"fd_step": -0.001}}, "must be positive and finite"),
    ({"hyper": {"r_thres": -0.5}}, "must be positive and finite"),
    *(({"controller": {"r_goal": value}}, "r_goal must be positive and finite")
      for value in (-1.0, 0.0, float("nan"), float("inf"))),
    *(({"controller": {"kp": value}}, "controller.kp) must be positive and finite")
      for value in (-1.0, 0.0, float("nan"), float("inf"))),
    *(({"controller": {"relax_penalty": value}}, "relax_penalty must be finite")
      for value in (float("inf"), float("nan"))),
    *(({"controller": {"hand_margin": value}}, "margin must be non-negative and finite")
      for value in (-0.1, float("nan"))),
    ({"controller": {"ctrl_hz": -30, "sim_hz": -120}}, "sim_hz must be an integer multiple"),
    ({"env_gen": {"num_obstacles": -1}}, "num_obstacles must be non-negative"),
    *(({"workspace": {"half_extents": value}}, "half extents must be positive and finite")
      for value in ([0, 1], [-1, 1], [1.0, float("nan")], [float("inf"), 1.0])),
    ({"workspace": {"center": [float("nan"), 0.0]}}, "workspace center must be finite"),
    ({"train": {"cloud": {"lr": float("inf")}}}, "train lr must be positive and finite"),
    *(({"data": {"uniform_samples_per_env": value}},
       "data.uniform_samples_per_env must be an integer >= 1") for value in (0, -5)),
    ({"data": {"rollout_trajs": -1}}, "data.rollout_trajs must be an integer >= 0"),
    ({"data": {"uniform_samples": -10}}, "data.uniform_samples must be an integer >= 0"),
    *(({"bench": {"clearance_factor": value}}, "clearance_factor must be non-negative and finite")
      for value in (-10.0, -0.5, float("nan"), float("inf"))),
    ({"bench": {"seeds": []}}, "bench.seeds must name at least one seed, each once"),
    ({"bench": {"seeds": [0, 0]}}, "bench.seeds must name at least one seed, each once"),
    *BENCH_REJECTED,
    *DECODE_REJECTED,
    *(({"arm": doc}, "link lengths and radius must be positive and finite")
      for doc in ({"link_lengths": [0.5, float("nan"), 0.3]}, {"link_radius": float("nan")},
                  {"link_lengths": [0.5, 0.4, float("inf")]})),
    *(({"arm": {key: value}}, "joint limits and base position must be finite")
      for key, value in (("joint_lower", [float("nan"), -2.8, -2.8]),
                         ("joint_upper", [2.8, float("nan"), 2.8]),
                         ("joint_upper", [2.8, 2.8, float("inf")]),
                         ("base_position", [0.0, float("nan")]))),
    *LITERAL_REJECTED,
    # a NaN clearance failed every obstacle draw, 10,000 attempts per obstacle
    ({"env_gen": {"min_clearance_from_base": float("nan")}},
     "min_clearance_from_base must be finite"),
    # a NaN connect_radius turned goal connection off
    *(({"planner": {key: value}}, f"planner {key} must be non-negative")
      for key in ("connect_radius", "stall_threshold") for value in (float("nan"), -1.0)),
]


@pytest.mark.parametrize("doc, message", REJECTED_VALUES,
                         ids=[json.dumps(doc, separators=(",", ":"))
                              for doc, _ in REJECTED_VALUES])
def test_a_value_its_record_rejects_fails_at_load(doc, message, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        config.load_config(tmp_path / "config.json")


@pytest.mark.parametrize("doc, message", BENCH_REJECTED,
                         ids=[json.dumps(doc, separators=(",", ":")) for doc, _ in BENCH_REJECTED])
def test_an_unusable_bench_value_stops_bench(doc, message, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(out), "bench",
                     "--problems", "p.json"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", DECODE_REJECTED,
                         ids=[json.dumps(doc, separators=(",", ":")) for doc, _ in DECODE_REJECTED])
def test_a_value_its_field_type_refuses_stops_plan(doc, message, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(out), "plan",
                     "--problems", "p.json"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# what each command needs to parse; no file is read, since the config loads
# first
COMMAND_ARGS = {
    "gen-problems": [], "collect-data": [], "train": ["--data", "d.jsonl"],
    "eval-cbf": ["--checkpoint", "c.json", "--data", "d.jsonl"],
    "plan": ["--problems", "p.json"], "bench": ["--problems", "p.json"],
    "eval-controller": ["--problems", "p.json"],
    "replay": ["--problems", "p.json", "--plan", "plan.json"],
}


def test_the_command_table_names_every_command():
    assert set(COMMAND_ARGS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", COMMAND_ARGS)
def test_an_unusable_workspace_stops_every_command_at_load(command, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps({"workspace": {"half_extents": [0, 1]}}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(tmp_path / "config.json"), "--out", str(out), command,
                     *COMMAND_ARGS[command]]) == 2
    assert "workspace half extents must be positive and finite" in capsys.readouterr().err
    assert not out.exists()  # stopped before the output directory was made
