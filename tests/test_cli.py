"""CLI surface tests: exit codes, help, and a miniature end-to-end pipeline
(generate, collect, train, audit, plan, bench, replay)."""

import json
import re

import numpy as np
import pytest

import pipeline
from cbfsteer import bench, config
from cbfsteer.cli import main
from cbfsteer.jsonio import dump_json, load_json


def run(args):
    return main(args)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gen-problems" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 0

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_usage_error(self, capsys):
        assert run(["gen-problems", "--bogus-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_runtime_failure_exit_two(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "train", "--data",
                    str(tmp_path / "missing.jsonl")]) == 2

    @pytest.mark.parametrize("doc, key", [({"planner": 5}, "planner"),
                                          ({"train": {"state": [3]}}, "train.state")])
    def test_a_section_that_is_not_an_object_fails_by_name(self, tmp_path, capsys, doc, key):
        dump_json(tmp_path / "config.json", doc)
        assert run(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
                    "gen-problems", "--count", "1"]) == 2
        assert f"config key {key} must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out" / "problems.json").exists()

    # a numeric string loaded as its number while the commands read the
    # string: gen-problems exited 0 on r_goal "0.1" (and plan then 2 on
    # "'<' not supported between instances of 'float' and 'str'"), and 2 on
    # r_thres "0.05" by multiplying a sequence, collect-data on a division
    @pytest.mark.parametrize("doc, key, command", [
        ({"controller": {"r_goal": "0.1"}}, "r_goal", "gen-problems"),
        ({"hyper": {"r_thres": "0.05"}}, "r_thres", "gen-problems"),
        ({"controller": {"ctrl_hz": "30"}}, "ctrl_hz", "collect-data")])
    def test_a_numeric_string_fails_at_load_by_its_key(self, tmp_path, capsys, doc, key,
                                                       command):
        dump_json(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert run(["--config", str(tmp_path / "config.json"), "--out", str(out), command]) == 2
        captured = capsys.readouterr()
        assert f"field {key} needs" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("problems, message", [([], "no problem to run"),
                                                   ("twice", "repeats one")])
    def test_an_empty_or_repeated_problem_list_fails_before_writing(self, tmp_path, capsys,
                                                                    problems, message):
        # bench wrote header-only tables, or ran a repeated problem twice, and
        # eval-controller printed goal 0 and safety 1 for an empty list
        out = tmp_path / "out"
        if problems == "twice":
            assert run(["--out", str(tmp_path), "gen-problems", "--count", "1"]) == 0
            problems = load_json(tmp_path / "problems.json") * 2
        dump_json(tmp_path / "given.json", problems)
        for command in (["bench", "--methods", "straight"],
                        ["eval-controller", "--method", "hand-cbf"]):
            assert run(["--out", str(out), *command,
                        "--problems", str(tmp_path / "given.json")]) == 2
            assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("which, bad", [("qg", [0.4]), ("qg", [9.0, 0.0, 0.0]),
                                            ("q0", [0.1, 0.0])])
    def test_an_unusable_endpoint_fails_before_writing(self, tmp_path, capsys, which, bad):
        # eval-controller broadcast a one-entry goal over the joints (goal
        # 0.500) and rolled toward a goal outside the limits (goal 0.000),
        # exiting 0; plan failed on a wrong length inside the clearance call,
        # naming no endpoint; bench planned the problems before it first
        assert run(["--out", str(tmp_path), "gen-problems", "--count", "2"]) == 0
        problems = load_json(tmp_path / "problems.json")
        problems[1][which] = bad
        dump_json(tmp_path / "given.json", problems)
        out = tmp_path / "out"
        name = "start" if which == "q0" else "goal"
        for command, who in ((["eval-controller", "--method", "hand-cbf"], "problem 1: "),
                             (["bench", "--methods", "straight"], "problem 1: "),
                             (["plan", "--index", "1"], "")):
            assert run(["--out", str(out), *command,
                        "--problems", str(tmp_path / "given.json")]) == 2
            err = capsys.readouterr().err
            assert f"{who}{name} configuration " in err
            assert ("has shape" if len(bad) != 3 else "must be finite and inside") in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("moved", ["every", "one"])
    def test_an_obstacle_centre_of_three_coordinates_fails_before_writing(self, tmp_path,
                                                                           capsys, moved):
        # with every centre 3 long the file loaded, `Environment` held six
        # rows of centres for four obstacles and plan exited 0; with one, the
        # load failed on a numpy shape error
        assert run(["--out", str(tmp_path), "gen-problems", "--count", "1"]) == 0
        doc = load_json(tmp_path / "problems.json")
        obstacles = doc[0]["environment"]["obstacles"]
        for obs in obstacles if moved == "every" else obstacles[:1]:
            obs["center"].append(0.0)
        dump_json(tmp_path / "given.json", doc)
        out = tmp_path / "out"
        assert run(["--out", str(out), "plan", "--problems", str(tmp_path / "given.json")]) == 2
        assert "field center needs 2 entries, not 3" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_a_problem_of_unknown_difficulty_fails_before_writing(self, tmp_path, capsys):
        # bench planned a "medium" problem, wrote its runs and left it out of
        # the tables
        assert run(["--out", str(tmp_path), "gen-problems", "--count", "3"]) == 0
        doc = load_json(tmp_path / "problems.json")
        doc[1]["difficulty"] = "medium"
        dump_json(tmp_path / "given.json", doc)
        out = tmp_path / "out"
        assert run(["--out", str(out), "bench", "--problems", str(tmp_path / "given.json")]) == 2
        assert "problem 1: unknown difficulty 'medium'" in capsys.readouterr().err
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    """The whole-pipeline check's miniature config, so the pipeline runs in
    seconds."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    dump_json(path, pipeline.CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, mini_config):
    out = tmp_path_factory.mktemp("pipeline")
    assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                "gen-problems", "--count", "4", "--split"]) == 0
    assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                "collect-data", "--kind", "state"]) == 0
    assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                "train", "--data", str(out / "dataset-state.jsonl")]) == 0
    return out


class TestPipeline:
    def test_problem_file_written(self, pipeline_dir):
        probs = load_json(pipeline_dir / "problems.json")
        assert len(probs) == 4
        assert {p["difficulty"] for p in probs} == {"easy", "hard"}

    def test_checkpoint_and_report(self, pipeline_dir):
        ckpt = load_json(pipeline_dir / "checkpoint-state.json")
        assert ckpt["variant"] == "state"
        report = load_json(pipeline_dir / "train-report-state.json")
        assert len(report["epochs"]) == 3

    def test_eval_cbf(self, pipeline_dir, mini_config, capsys):
        assert run(["--config", mini_config, "--out", str(pipeline_dir),
                    "eval-cbf", "--checkpoint", str(pipeline_dir / "checkpoint-state.json"),
                    "--data", str(pipeline_dir / "dataset-state.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "safe=" in out and "deriv=" in out

    def test_plan_and_replay_round_trip(self, pipeline_dir, mini_config):
        rc = run(["--seed", "5", "--config", mini_config, "--out", str(pipeline_dir),
                  "plan", "--problems", str(pipeline_dir / "problems.json"),
                  "--index", "0", "--method", "straight"])
        assert rc == 0
        doc = load_json(pipeline_dir / "plan.json")
        if doc["plan"]["status"] == "solved":
            assert run(["--config", mini_config, "--out", str(pipeline_dir),
                        "replay", "--problems", str(pipeline_dir / "problems.json"),
                        "--plan", str(pipeline_dir / "plan.json")]) == 0

    def test_replay_of_unsolved_plan_reports_its_status(self, pipeline_dir, mini_config,
                                                         tmp_path, capsys):
        assert run(["--seed", "5", "--config", mini_config, "--out", str(tmp_path),
                    "plan", "--problems", str(pipeline_dir / "problems.json"),
                    "--index", "0", "--method", "straight"]) == 0
        doc = load_json(tmp_path / "plan.json")
        doc["plan"].update(status="node_limit", path=[], controls=[])
        dump_json(tmp_path / "plan.json", doc)
        capsys.readouterr()
        assert run(["--config", mini_config, "--out", str(tmp_path),
                    "replay", "--problems", str(pipeline_dir / "problems.json"),
                    "--plan", str(tmp_path / "plan.json")]) == 2
        captured = capsys.readouterr()
        assert "not solved (status node_limit)" in captured.out
        assert "not solved (status node_limit)" in captured.err
        assert "INVALID" not in captured.out and "geometric" not in captured.err

    def test_bench_deterministic_rerun(self, pipeline_dir, mini_config, tmp_path):
        csvs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run(["--seed", "7", "--config", mini_config, "--out", str(out), "--no-timing",
                      "bench", "--problems", str(pipeline_dir / "problems.json"),
                      "--methods", "straight,cbf-state",
                      "--checkpoint-state", str(pipeline_dir / "checkpoint-state.json"),
                      "--svg"])
            assert rc == 0
            csvs.append((out / "metrics.csv").read_bytes())
            assert (out / "metrics.svg").exists()
        assert csvs[0] == csvs[1]

    def test_rollout_digests_tell_the_strict_qp_from_the_relaxed(self, pipeline_dir, mini_config,
                                                                 tmp_path):
        # the whole-pipeline check's problems and seed: the strict and relaxed
        # hand-cbf runs record the same outcomes, and only the digests of
        # their controls and configs tell them apart
        dump_json(tmp_path / "strict.json", pipeline.STRICT_CONFIG)
        cfgs = {"relaxed": config.load_config(mini_config),
                "strict": config.load_config(tmp_path / "strict.json")}
        problems = bench.load_problems(pipeline_dir / "problems.json")
        worlds = {s: bench.setting_worlds(problems, s, pipeline.SEED) for s in bench.Setting}
        for setting, world in worlds.items():
            digests, records = {}, {}
            for mode, cfg in cfgs.items():
                digests[mode] = pipeline.rollout_digests(world, {"name": "hand-cbf"}, setting, cfg)
                records[mode] = bench.eval_controller(
                    world, {"name": "hand-cbf"}, setting, config.make_arm(cfg), cfg, pipeline.SEED,
                    float(pipeline.HORIZON))[1]
            assert records["relaxed"] == records["strict"]
            assert sum(digests["relaxed"][i] != digests["strict"][i] for i in digests["strict"]) >= 2

    @pytest.mark.parametrize("method", ["straight", "hand-cbf"])
    def test_plan_is_the_query_on_stream_zero(self, pipeline_dir, mini_config, tmp_path,
                                              method):
        assert run(["--seed", "5", "--config", mini_config, "--out", str(tmp_path), "--no-timing",
                    "plan", "--problems", str(pipeline_dir / "problems.json"), "--index", "1",
                    "--method", method]) == 0
        cfg = config.load_config(mini_config)
        prob = bench.load_problems(pipeline_dir / "problems.json")[1]
        result, _ = bench.plan_query(prob, {"name": method}, config.make_arm(cfg), cfg, 5, 0, {},
                                     5)
        assert load_json(tmp_path / "plan.json")["plan"] == dict(result.to_json(),
                                                                 planning_seconds=0.0)

    def test_plan_and_bench_build_the_same_filter_lqr_steer(self, pipeline_dir, mini_config,
                                                            tmp_path, monkeypatch):
        # without --activation-after both commands switch to the discard-style
        # steer halfway through the node budget (60 nodes in the mini config)
        from dataclasses import replace

        from cbfsteer import bench
        from cbfsteer.planner import SteerRollout

        built = []
        real = bench.build_steer

        def recording(method, *args):
            built.append(real(method, *args))
            return built[-1]

        monkeypatch.setattr(bench, "build_steer", recording)
        problems = str(pipeline_dir / "problems.json")
        ckpt = str(pipeline_dir / "checkpoint-state.json")
        assert run(["--config", mini_config, "--out", str(tmp_path), "plan",
                    "--problems", problems, "--index", "0", "--method", "filter-lqr",
                    "--checkpoint", ckpt]) == 0
        assert run(["--config", mini_config, "--out", str(tmp_path), "--no-timing", "bench",
                    "--problems", problems, "--methods", "filter-lqr",
                    "--checkpoint-state", ckpt]) == 0
        plan_steer, bench_steer = built[0], built[1]  # both on problem 0
        assert type(plan_steer) is type(bench_steer) is SteerRollout
        assert plan_steer.activation_after == bench_steer.activation_after == 30
        assert replace(plan_steer.bundle, barrier=None) == replace(bench_steer.bundle,
                                                                   barrier=None)
        plan_barrier, bench_barrier = plan_steer.bundle.barrier, bench_steer.bundle.barrier
        assert plan_barrier.hyper == bench_barrier.hyper
        for (w0, b0), (w1, b1) in zip(plan_barrier.net.params, bench_barrier.net.params):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_bench_switch_point(self, pipeline_dir, mini_config, tmp_path, capsys):
        # -1 asks for the default switch point; another negative ran it silently
        dump_json(tmp_path / "one.json", load_json(pipeline_dir / "problems.json")[:1])
        outs = {flag: tmp_path / f"out{flag}" for flag in ("", "-1", "-7")}
        codes = {flag: run(["--config", mini_config, "--out", str(out), "--no-timing", "bench",
                            "--problems", str(tmp_path / "one.json"), "--methods", "filter-lqr",
                            "--checkpoint-state", str(pipeline_dir / "checkpoint-state.json"),
                            *(["--activation-after", flag] if flag else [])])
                 for flag, out in outs.items()}
        assert codes == {"": 0, "-1": 0, "-7": 2}
        assert "activation_after must be an integer >= 0, or -1" in capsys.readouterr().err
        assert not (outs["-7"] / "runs.jsonl").exists()
        for name in ("runs.jsonl", "metrics.csv", "metrics.json"):
            assert (outs[""] / name).read_bytes() == (outs["-1"] / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["plan", "replay"])
    def test_a_zero_check_resolution_fails(self, pipeline_dir, mini_config, tmp_path, capsys,
                                           command):
        # at resolution 0 each segment would be checked only at its endpoint,
        # so a planner would store, and a replay accept, edges that cross
        # obstacles
        problems = str(pipeline_dir / "problems.json")
        assert run(["--config", mini_config, "--out", str(tmp_path), "plan", "--problems",
                    problems, "--index", "0", "--method", "straight",
                    "--out-file", "given.json"]) == 0
        dump_json(tmp_path / "config.json", {"planner": {"check_resolution": 0}})
        args = {"plan": ["--index", "0", "--method", "straight"],
                "replay": ["--plan", str(tmp_path / "given.json")]}[command]
        capsys.readouterr()
        assert run(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path), command,
                    "--problems", problems, *args]) == 2
        captured = capsys.readouterr()
        assert "check_resolution must be positive and finite" in captured.err
        assert captured.out == "" and not (tmp_path / "plan.json").exists()

    def test_eval_controller_dynamic_partial(self, pipeline_dir, mini_config, capsys):
        # cloud checkpoint: train a tiny one first
        out = pipeline_dir
        assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                    "collect-data", "--kind", "cloud", "--uniform-samples", "120",
                    "--rollout-trajs", "0"]) == 0
        assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                    "train", "--data", str(out / "dataset-cloud.jsonl")]) == 0
        rc = run(["--seed", "3", "--config", mini_config, "--out", str(out),
                  "eval-controller", "--problems", str(out / "problems.json"),
                  "--method", "cbf-cloud", "--checkpoint", str(out / "checkpoint-cloud.json"),
                  "--setting", "dynamic-partial", "--horizon", "1.0"])
        assert rc == 0
        row = None
        for fname in out.iterdir():
            if fname.name.startswith("controller-"):
                row = load_json(fname)
        assert row is not None
        assert 0.0 <= row["row"]["safety_rate"] <= 1.0

    def test_eval_controller_zero_horizon_fails(self, pipeline_dir, mini_config, capsys):
        rc = run(["--config", mini_config, "--out", str(pipeline_dir),
                  "eval-controller", "--problems", str(pipeline_dir / "problems.json"),
                  "--method", "hand-cbf", "--horizon", "0"])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    def test_eval_controller_horizon_without_a_tick_fails(self, pipeline_dir, mini_config,
                                                          capsys):
        # 0.01 s is under half a 30 Hz control period
        rc = run(["--config", mini_config, "--out", str(pipeline_dir),
                  "eval-controller", "--problems", str(pipeline_dir / "problems.json"),
                  "--method", "hand-cbf", "--horizon", "0.01"])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


class TestEvalControllerObstacleSpeed:
    """--obstacle-speed sets the speed static problems get in dynamic-partial;
    an unusable value, or any value for problems that already move, stops the
    command before it writes anything."""

    @pytest.fixture(scope="class")
    def moving(self, tmp_path_factory, mini_config):
        out = tmp_path_factory.mktemp("moving")
        assert run(["--seed", "5", "--config", mini_config, "--out", str(out),
                    "gen-problems", "--count", "2", "--obstacle-speed", "0.1"]) == 0
        return str(out / "problems.json")

    @staticmethod
    def eval_controller(mini_config, out, problems, *flags):
        return run(["--no-timing", "--config", mini_config, "--out", str(out),
                    "eval-controller", "--problems", problems, "--method", "hand-cbf",
                    "--setting", "dynamic-partial", "--horizon", "0.5",
                    "--out-file", "controller.json", *flags])

    @pytest.mark.parametrize("speed", ["-0.05", "inf", "nan"])
    def test_an_unusable_speed_fails(self, pipeline_dir, mini_config, tmp_path, capsys, speed):
        static = str(pipeline_dir / "problems.json")
        assert self.eval_controller(mini_config, tmp_path, static, "--obstacle-speed", speed) == 2
        assert "obstacle_speed must be non-negative and finite" in capsys.readouterr().err
        assert not (tmp_path / "controller.json").exists()

    @pytest.mark.parametrize("speed", ["0.5", "0.1", "0"])
    def test_a_speed_for_moving_problems_fails(self, moving, mini_config, tmp_path, capsys,
                                               speed):
        assert self.eval_controller(mini_config, tmp_path, moving, "--obstacle-speed", speed) == 2
        assert "obstacles already move" in capsys.readouterr().err
        assert not (tmp_path / "controller.json").exists()

    @pytest.mark.parametrize("speed", ["0.5", "0.05", "0"])
    def test_a_speed_under_static_full_fails(self, pipeline_dir, mini_config, tmp_path, capsys,
                                             speed):
        # static-full moves no obstacle, so a given speed would be ignored
        static = str(pipeline_dir / "problems.json")
        assert self.eval_controller(mini_config, tmp_path, static, "--obstacle-speed", speed,
                                    "--setting", "static-full") == 2
        assert "static-full moves no obstacle" in capsys.readouterr().err
        assert not (tmp_path / "controller.json").exists()

    def test_moving_problems_run_without_the_flag(self, moving, mini_config, tmp_path):
        assert self.eval_controller(mini_config, tmp_path, moving) == 0
        assert (tmp_path / "controller.json").exists()

    def test_static_full_of_moving_problems_fails(self, moving, mini_config, tmp_path, capsys):
        assert self.eval_controller(mini_config, tmp_path, moving, "--setting", "static-full") == 2
        assert ("static-full moves no obstacle, but those of problems [0, 1] move"
                in capsys.readouterr().err)
        assert not (tmp_path / "controller.json").exists()

    def test_dynamic_partial_of_a_mixed_file_fails(self, pipeline_dir, moving, mini_config,
                                                   tmp_path, capsys):
        from dataclasses import replace

        static = bench.load_problems(pipeline_dir / "problems.json")[:2]
        mixed = [*static, *(replace(p, id=p.id + 2) for p in bench.load_problems(moving))]
        bench.save_problems(tmp_path / "mixed.json", mixed)
        out = tmp_path / "out"
        assert self.eval_controller(mini_config, out, str(tmp_path / "mixed.json")) == 2
        assert ("dynamic-partial takes moving or static problems, not both: only problems "
                "[2, 3] of 4 move" in capsys.readouterr().err)
        assert not (out / "controller.json").exists()

    @pytest.mark.parametrize("flags", [(), ("--obstacle-speed", "2")])
    def test_the_command_writes_eval_controllers_records(self, pipeline_dir, mini_config,
                                                          tmp_path, flags):
        # the command hands its speed to eval_controller, which makes the
        # static problems move
        static = str(pipeline_dir / "problems.json")
        assert self.eval_controller(mini_config, tmp_path, static, *flags) == 0
        cfg = config.load_config(mini_config)
        row, records = bench.eval_controller(
            bench.load_problems(static), {"name": "hand-cbf"}, "dynamic_partial",
            config.make_arm(cfg), cfg, horizon_s=0.5,
            obstacle_speed=float(flags[1]) if flags else None)
        assert load_json(tmp_path / "controller.json") == {"row": row.to_json(),
                                                           "records": records}

    def test_the_default_is_005(self, pipeline_dir, mini_config, tmp_path):
        static = str(pipeline_dir / "problems.json")
        outputs = {}
        for flags in ((), ("--obstacle-speed", "0.05"), ("--obstacle-speed", "2")):
            out = tmp_path / "-".join(flags or ("default",))
            assert self.eval_controller(mini_config, out, static, *flags) == 0
            outputs[flags] = (out / "controller.json").read_bytes()
        assert outputs[()] == outputs[("--obstacle-speed", "0.05")]
        # fast enough to touch the arm within the horizon: the speed is used
        assert outputs[()] != outputs[("--obstacle-speed", "2")]


class TestCheckpointWithoutHyper:
    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_eval_cbf_and_build_steer_load_the_same_hyper(self, kind, tmp_path, monkeypatch):
        # a checkpoint saved without its hyperparameters gets the config's,
        # the same way in eval-cbf and in the planners' steer
        from cbfsteer import bench, cli
        from cbfsteer.cbf import CbfHyper, DatasetCounts, collect_dataset
        from cbfsteer.config import cloud_widths, load_config, make_arm, make_hyper, state_widths
        from cbfsteer.controller import NominalPolicy
        from cbfsteer.environment import EnvGenConfig
        from cbfsteer.neural import Mlp, PointSetEncoder, save_checkpoint
        from test_cbf import collect_settings

        cfg = load_config()
        arm = make_arm(cfg)
        rng = np.random.default_rng(0)
        dataset = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 20), NominalPolicy(), rng,
                                  observation_kind=kind, **collect_settings(cloud_points=8))
        dataset.save(tmp_path / "data.jsonl")
        if kind == "state":
            net = Mlp.create(state_widths(cfg, arm), rng)
        else:
            net = PointSetEncoder.create(arm.n_links, *cloud_widths(cfg, arm), rng=rng)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, kind, net, {})

        seen = []
        real = cli.evaluate_constraints

        def recording(net_, data, hyper):
            seen.append(hyper)
            return real(net_, data, hyper=hyper)

        monkeypatch.setattr(cli, "evaluate_constraints", recording)
        assert run(["--out", str(tmp_path), "eval-cbf", "--checkpoint", str(ckpt),
                    "--data", str(tmp_path / "data.jsonl")]) == 0
        problem = bench.gen_problems(EnvGenConfig(), 1, rng, arm, 0.025)[0]
        method = {"name": f"cbf-{kind}", "checkpoint": str(ckpt)}
        steer = bench.build_steer(method, arm, problem, cfg, 0, {})
        assert seen == [steer.bundle.barrier.hyper] == [make_hyper(cfg)]
        # the default config holds the CbfHyper defaults
        assert seen[0] == CbfHyper()


class TestReplayChecksTheStart:
    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory, mini_config):
        """A straight-line plan of an obstacle-free problem, which it solves."""
        out = tmp_path_factory.mktemp("replay")
        assert run(["--seed", "4", "--config", mini_config, "--out", str(out),
                    "gen-problems", "--count", "1", "--obstacles", "0"]) == 0
        assert run(["--seed", "4", "--config", mini_config, "--out", str(out),
                    "plan", "--problems", str(out / "problems.json"),
                    "--method", "straight"]) == 0
        doc = load_json(out / "plan.json")
        assert doc["plan"]["status"] == "solved" and len(doc["plan"]["path"]) >= 2
        return out, doc

    def replay(self, out, mini_config, doc, capsys):
        dump_json(out / "replayed.json", doc)
        capsys.readouterr()
        rc = run(["--config", mini_config, "--out", str(out), "replay",
                  "--problems", str(out / "problems.json"), "--plan", str(out / "replayed.json")])
        return rc, capsys.readouterr().out

    def test_a_genuine_plan_replays_as_valid(self, solved, mini_config, capsys):
        out, doc = solved
        assert doc["plan"]["path"][0] == load_json(out / "problems.json")[0]["q0"]
        assert self.replay(out, mini_config, doc, capsys) == (
            0, "plan for problem 0: valid (collision-free, reaches goal)\n")

    @pytest.mark.parametrize("forgery", ["moved-start", "goal-only"])
    def test_a_path_that_does_not_start_at_the_start_is_invalid(self, solved, mini_config,
                                                                capsys, forgery):
        out, doc = solved
        plan = dict(doc["plan"])
        if forgery == "moved-start":
            plan["path"] = [[plan["path"][0][0] + 0.01, *plan["path"][0][1:]],
                            *plan["path"][1:]]
        else:  # one configuration, inside the goal ball
            plan["path"], plan["controls"] = [plan["path"][-1]], []
        rc, printed = self.replay(out, mini_config, dict(doc, plan=plan), capsys)
        assert rc == 2 and "INVALID" in printed


class TestMethodNeedsItsController:
    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        """Untrained state and cloud checkpoints under the default config."""
        from cbfsteer.config import cloud_widths, load_config, make_arm, make_hyper, state_widths
        from cbfsteer.neural import Mlp, PointSetEncoder, save_checkpoint

        out = tmp_path_factory.mktemp("ckpts")
        cfg = load_config()
        arm = make_arm(cfg)
        rng = np.random.default_rng(30)
        nets = {"state": Mlp.create(state_widths(cfg, arm), rng),
                "cloud": PointSetEncoder.create(arm.n_links, *cloud_widths(cfg, arm), rng=rng)}
        for kind, net in nets.items():
            save_checkpoint(out / f"{kind}.json", kind, net, make_hyper(cfg).to_json())
        return out

    @pytest.mark.parametrize("name, other", [("cbf-state", "cloud"), ("cbf-cloud", "state")])
    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_a_checkpoint_of_the_other_variant_fails(self, pipeline_dir, checkpoints, tmp_path,
                                                     capsys, name, other, command):
        ckpt = str(checkpoints / f"{other}.json")
        args = {"plan": ["--method", name, "--checkpoint", ckpt],
                "bench": ["--methods", name, f"--checkpoint-{name[4:]}", ckpt]}
        capsys.readouterr()
        assert run(["--out", str(tmp_path), "--no-timing", command, "--problems",
                    str(pipeline_dir / "problems.json"), *args[command]]) == 2
        assert (f"error: method {name} needs a {name[4:]} checkpoint, but {ckpt} holds a "
                f"{other} net") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_checkpoint_for_another_arm_fails_by_its_link_count(self, pipeline_dir, tmp_path,
                                                                  capsys):
        # a 4-link state net under the default 3-link arm failed at its first
        # tick on the input width
        from cbfsteer.neural import Mlp, save_checkpoint

        ckpt = tmp_path / "state-4links.json"
        save_checkpoint(ckpt, "state", Mlp.create((5, 8, 1), np.random.default_rng(31)),
                        config.make_hyper(config.load_config()).to_json())
        out = tmp_path / "out"
        assert run(["--out", str(out), "--no-timing", "eval-controller", "--problems",
                    str(pipeline_dir / "problems.json"), "--method", "cbf-state",
                    "--checkpoint", str(ckpt)]) == 2
        assert ("error: the state net is built for a 4-link arm, not this 3-link one"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_eval_cbf_of_a_checkpoint_for_another_arm_fails_by_its_link_count(
            self, tmp_path, capsys, kind):
        # a 3-link checkpoint on a 4-link dataset failed on "input shape
        # (550, 5), expected (B, 4)" (state) or "index 3 is out of bounds for
        # axis 1 with size 3" (cloud)
        from cbfsteer.cbf import DatasetCounts, collect_dataset
        from cbfsteer.controller import NominalPolicy
        from cbfsteer.environment import EnvGenConfig
        from cbfsteer.kinematics import ArmModel
        from cbfsteer.neural import Mlp, PointSetEncoder, save_checkpoint

        arm4 = ArmModel(link_lengths=(0.3,) * 4)
        data = tmp_path / f"dataset-{kind}.jsonl"
        collect_dataset(arm4, EnvGenConfig(), DatasetCounts(0, 12), NominalPolicy(),
                        np.random.default_rng(54), observation_kind=kind, r_thres=0.05,
                        cloud_points=16, rollout_ticks=2, ctrl_hz=30,
                        uniform_samples_per_env=12, r_goal=0.1).save(data)
        rng = np.random.default_rng(55)
        net = (Mlp.create((4, 8, 1), rng) if kind == "state"
               else PointSetEncoder.create(3, (7, 8), (11, 8, 1), rng))
        ckpt = tmp_path / f"{kind}-3links.json"
        save_checkpoint(ckpt, kind, net, config.make_hyper(config.load_config()).to_json())
        out = tmp_path / "out"
        assert run(["--out", str(out), "eval-cbf", "--checkpoint", str(ckpt), "--data", str(data),
                    "--out-file", "audit.json"]) == 2
        captured = capsys.readouterr()
        assert (f"error: the {kind} net is built for a 3-link arm, not this 4-link one"
                in captured.err)
        assert captured.out == "" and list(out.iterdir()) == []

    def test_eval_controller_of_straight_fails_by_name(self, pipeline_dir, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "eval-controller", "--problems",
                    str(pipeline_dir / "problems.json"), "--method", "straight"]) == 2
        assert "error: method straight has no controller" in capsys.readouterr().err

    def test_eval_controller_of_filter_lqr_fails_by_name(self, pipeline_dir, tmp_path, capsys):
        # filter-lqr's rollout was cbf-state's or cbf-cloud's under another name
        assert run(["--out", str(tmp_path), "eval-controller", "--problems",
                    str(pipeline_dir / "problems.json"), "--method", "filter-lqr",
                    "--checkpoint", str(pipeline_dir / "checkpoint-state.json")]) == 2
        assert "error: method filter-lqr has no controller of its own" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class _Handed(Exception):
    """Raised by the harness stand-ins once a command hands them its specs."""


# the checkpoint each method takes in `bench` from the variants whose flag is
# given: "" for none, None for a usage error; filter-lqr prefers the state one
BENCH_TAKES = {
    "straight": {(): "", ("state",): "", ("cloud",): "", ("state", "cloud"): ""},
    "hand-cbf": {(): "", ("state",): "", ("cloud",): "", ("state", "cloud"): ""},
    "cbf-state": {(): None, ("state",): "s.json", ("cloud",): None, ("state", "cloud"): "s.json"},
    "cbf-cloud": {(): None, ("state",): None, ("cloud",): "c.json", ("state", "cloud"): "c.json"},
    "filter-lqr": {(): None, ("state",): "s.json", ("cloud",): "c.json",
                   ("state", "cloud"): "s.json"},
}
# whether a method needs `--checkpoint` in `plan` and `eval-controller`
NEEDS_CHECKPOINT = {"straight": False, "hand-cbf": False, "cbf-state": True,
                    "cbf-cloud": True, "filter-lqr": True}


class TestMethodSpecs:
    """Every method of `bench.METHODS` in each command that takes one, with
    and without checkpoint flags: an accepted line hands the harness the spec
    below, and a refused one is a usage error that names only flags of the
    command printing it. The harness is stood in for, so no path is read."""

    @pytest.fixture
    def handed(self, monkeypatch):
        from cbfsteer import bench

        specs = []

        def hand(*methods):
            specs.extend(methods)
            raise _Handed

        monkeypatch.setattr(bench, "build_steer", lambda method, *a: hand(method))
        monkeypatch.setattr(bench, "eval_controller", lambda probs, method, *a, **k: hand(method))
        monkeypatch.setattr(bench, "run_bench", lambda probs, methods, *a, **k: hand(*methods))
        return specs

    @staticmethod
    def options(command):
        """The command's flags and the argparse action of each."""
        import argparse

        from cbfsteer.cli import _build_parser

        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[command]._option_string_actions

    def check(self, command, args, expected, pipeline_dir, tmp_path, capsys, handed):
        capsys.readouterr()
        rc = run(["--out", str(tmp_path), command, "--problems",
                  str(pipeline_dir / "problems.json"), *args])
        err = capsys.readouterr().err
        if expected is None:
            assert rc == 1 and handed == []
            named = re.findall(r"--[a-z][a-z-]*", err.removeprefix("usage error: "))
            assert named and set(named) <= set(self.options(command)), err
        else:
            assert rc == 2 and "error: \n" in err  # the stand-in's exception has no text
            assert handed == [expected]

    def test_every_method_is_covered(self):
        from cbfsteer import bench

        assert set(BENCH_TAKES) == set(NEEDS_CHECKPOINT) == set(bench.METHODS)

    @pytest.mark.parametrize("given", [False, True], ids=["no-flag", "checkpoint"])
    @pytest.mark.parametrize("method", list(NEEDS_CHECKPOINT))
    @pytest.mark.parametrize("command", ["plan", "eval-controller"])
    def test_one_checkpoint_flag(self, pipeline_dir, tmp_path, capsys, handed, command, method,
                                 given):
        expected = {"name": method}
        if NEEDS_CHECKPOINT[method]:
            expected = dict(expected, checkpoint="k.json") if given else None
        self.check(command, ["--method", method, *(["--checkpoint", "k.json"] if given else [])],
                   expected, pipeline_dir, tmp_path, capsys, handed)

    @pytest.mark.parametrize("given", [(), ("state",), ("cloud",), ("state", "cloud")],
                             ids=["no-flag", "state", "cloud", "both"])
    @pytest.mark.parametrize("method", list(BENCH_TAKES))
    def test_bench_flags(self, pipeline_dir, tmp_path, capsys, handed, method, given):
        path = BENCH_TAKES[method][given]
        expected = None if path is None else {"name": method, **({"checkpoint": path} if path
                                                                  else {})}
        flags = [arg for kind in given for arg in (f"--checkpoint-{kind}", f"{kind[0]}.json")]
        self.check("bench", ["--methods", method, *flags], expected, pipeline_dir, tmp_path,
                   capsys, handed)

    @pytest.mark.parametrize("method", list(BENCH_TAKES))
    def test_only_filter_lqr_takes_a_switch_point(self, pipeline_dir, tmp_path, capsys, handed,
                                                  method):
        expected = {"name": method}
        if BENCH_TAKES[method][("state", "cloud")]:
            expected["checkpoint"] = BENCH_TAKES[method][("state", "cloud")]
        if method == "filter-lqr":
            expected["activation_after"] = 7
        self.check("bench", ["--methods", method, "--checkpoint-state", "s.json",
                             "--checkpoint-cloud", "c.json", "--activation-after", "7"],
                   expected, pipeline_dir, tmp_path, capsys, handed)

    @pytest.mark.parametrize("methods", ["straight,straight", "straight, hand-cbf,straight",
                                         ",", ""])
    def test_an_empty_or_repeated_method_list_is_refused(self, pipeline_dir, tmp_path, capsys,
                                                          handed, methods):
        capsys.readouterr()
        assert run(["--out", str(tmp_path), "bench", "--problems",
                    str(pipeline_dir / "problems.json"), "--methods", methods]) == 1
        assert (f"usage error: --methods must name at least one method, each once: {methods}"
                in capsys.readouterr().err)
        assert handed == [] and list(tmp_path.iterdir()) == []

    def test_the_help_lists_the_table(self):
        from cbfsteer import bench

        assert self.options("bench")["--methods"].help.endswith(": " + ",".join(bench.METHODS))


def test_train_with_a_fractional_feature_width_fails(tmp_path, capsys):
    # it trained a cloud net of feature width 2 and exited 0; the config
    # loads first, so the data file is never read
    dump_json(tmp_path / "config.json", {"net": {"feature_width": 2.5}})
    out = tmp_path / "out"
    assert run(["--config", str(tmp_path / "config.json"), "--out", str(out), "train",
                "--data", str(tmp_path / "dataset-cloud.jsonl")]) == 2
    assert "net.feature_width must be an integer >= 1, not 2.5" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_negative_epochs_fails(pipeline_dir, tmp_path, capsys):
    assert run(["--out", str(tmp_path), "train", "--data",
                str(pipeline_dir / "dataset-state.jsonl"), "--epochs", "-1"]) == 2
    assert "train epochs must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestNoTimingReruns:
    """`--no-timing` is global: it zeroes the train report's and the plan's
    wall-clock fields, so reruns write the same bytes."""

    def test_train_reruns_byte_identical(self, pipeline_dir, mini_config, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["--seed", "3", "--config", mini_config, "--out", str(out),
                        "--no-timing", "train", "--data",
                        str(pipeline_dir / "dataset-state.jsonl")]) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert set(outs[0]) == {"checkpoint-state.json", "train-report-state.json"}
        assert outs[0] == outs[1]
        assert load_json(tmp_path / "r1" / "train-report-state.json")["wall_seconds"] == 0.0

    @pytest.mark.parametrize("method", ["straight", "cbf-state"])
    def test_plan_reruns_byte_identical(self, pipeline_dir, mini_config, tmp_path, method):
        plans = []
        for name in ("r1", "r2"):
            assert run(["--seed", "5", "--config", mini_config, "--out", str(tmp_path),
                        "--no-timing", "plan", "--problems", str(pipeline_dir / "problems.json"),
                        "--index", "1", "--method", method, "--checkpoint",
                        str(pipeline_dir / "checkpoint-state.json"),
                        "--out-file", f"{name}.json"]) == 0
            plans.append((tmp_path / f"{name}.json").read_bytes())
        assert plans[0] == plans[1]
        assert load_json(tmp_path / "r1.json")["plan"]["planning_seconds"] == 0.0


class TestConfigValuesCheckedAtLoad:
    """A config value its record rejects stops every command before any work,
    even one the command would only have read raw."""

    @pytest.mark.parametrize("doc, command, message, written", [
        ({"hyper": {"r_thres": -0.5}}, ["gen-problems", "--count", "6"],
         "all barrier hyperparameters must be positive and finite", "problems.json"),
        ({"controller": {"ctrl_hz": -30, "sim_hz": -120}}, ["collect-data"],
         "sim_hz must be an integer multiple of ctrl_hz", "dataset-state.jsonl"),
        ({"data": {"uniform_samples_per_env": 0}},
         ["collect-data", "--uniform-samples", "10", "--rollout-trajs", "0"],
         "data.uniform_samples_per_env must be an integer >= 1", "dataset-state.jsonl"),
        ({"bench": {"clearance_factor": -10}}, ["gen-problems", "--count", "12"],
         "clearance_factor must be non-negative and finite", "problems.json"),
    ], ids=["negative-r_thres", "negative-rates", "zero-samples-per-env",
            "negative-clearance"])
    def test_rejected_value_stops_the_command(self, tmp_path, capsys, doc, command, message,
                                              written):
        dump_json(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert run(["--config", str(tmp_path / "config.json"), "--out", str(out),
                    *command]) == 2
        assert message in capsys.readouterr().err
        assert not (out / written).exists()
