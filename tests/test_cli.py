"""CLI surface tests: exit codes, help, and a miniature end-to-end pipeline
(generate, collect, train, audit, plan, bench, replay)."""

import json

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    """Desk-scale-but-tiny overrides so the pipeline runs in seconds."""
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    dump_json(path, {
        "data": {"rollout_trajs": 2, "uniform_samples": 300},
        "train": {
            "state": {"epochs": 3, "batch_size": 64, "lr": 3e-3},
            "cloud": {"epochs": 1, "batch_size": 32, "lr": 2e-3},
        },
        "cloud": {"num_points": 16},
        "planner": {"max_nodes": 60},
        "bench": {"seeds": [0], "proxy_runs": 1, "problems_per_class": 2},
    })
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
            rc = run(["--seed", "7", "--config", mini_config, "--out", str(out),
                      "bench", "--problems", str(pipeline_dir / "problems.json"),
                      "--methods", "straight,cbf-state",
                      "--checkpoint-state", str(pipeline_dir / "checkpoint-state.json"),
                      "--no-timing", "--svg"])
            assert rc == 0
            csvs.append((out / "metrics.csv").read_bytes())
            assert (out / "metrics.svg").exists()
        assert csvs[0] == csvs[1]

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
        assert run(["--config", mini_config, "--out", str(tmp_path), "bench",
                    "--problems", problems, "--methods", "filter-lqr",
                    "--checkpoint-state", ckpt, "--no-timing"]) == 0
        plan_steer, bench_steer = built[0], built[1]  # both on problem 0
        assert type(plan_steer) is type(bench_steer) is SteerRollout
        assert plan_steer.activation_after == bench_steer.activation_after == 30
        assert replace(plan_steer.bundle, barrier=None) == replace(bench_steer.bundle,
                                                                   barrier=None)
        plan_barrier, bench_barrier = plan_steer.bundle.barrier, bench_steer.bundle.barrier
        assert plan_barrier.hyper == bench_barrier.hyper
        for (w0, b0), (w1, b1) in zip(plan_barrier.net.params, bench_barrier.net.params):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

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
        assert seen == [steer.bundle.barrier.hyper] == [make_hyper(cfg, kind)]
        # the default config holds the CbfHyper defaults
        assert seen[0] == CbfHyper()
