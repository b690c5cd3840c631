"""Harness tests: problem generation, difficulty proxy, bench aggregation
determinism, and end-to-end controller evaluation."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cbfsteer import bench
from cbfsteer.config import (
    load_config,
    make_arm,
    make_env_gen,
    make_planner_limits,
    make_rollout_limits,
    seed_stream,
)
from cbfsteer.environment import EnvGenConfig, signed_distance
from cbfsteer.jsonio import load_json
from cbfsteer.kinematics import ArmModel, hold
from cbfsteer.planner import PlanProblem, rrt_plan_with_tree


@pytest.fixture
def cfg():
    return load_config()


@pytest.fixture
def arm(cfg):
    return make_arm(cfg)


class TestGenProblems:
    def test_single_problem_zero_obstacles(self, arm):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(0), arm, clearance=0.025)
        assert len(probs) == 1
        assert probs[0].difficulty == "untagged"

    def test_clearance_validator_sweep(self, cfg, arm):
        gen = make_env_gen(cfg, num_obstacles=8)
        probs = bench.gen_problems(gen, 60, np.random.default_rng(1), arm, clearance=0.025)
        for p in probs:
            assert signed_distance(p.environment, arm, p.q0) >= 0.025
            assert signed_distance(p.environment, arm, p.qg) >= 0.025

    def test_seed_determinism_bytes(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg)
        for name in ("a", "b"):
            probs = bench.gen_problems(gen, 10, np.random.default_rng(5), arm, 0.025)
            bench.save_problems(tmp_path / f"{name}.json", probs)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_round_trip(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg)
        probs = bench.gen_problems(gen, 5, np.random.default_rng(2), arm, 0.025)
        bench.save_problems(tmp_path / "p.json", probs)
        loaded = bench.load_problems(tmp_path / "p.json")
        assert len(loaded) == 5
        np.testing.assert_allclose(loaded[3].q0, probs[3].q0)


class TestDifficultySplit:
    def test_empty_environments_all_easy(self, cfg, arm):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 6,
                                   np.random.default_rng(3), arm, 0.025)
        tagged = bench.difficulty_split(probs, 2, np.random.default_rng(4), arm,
                                        make_planner_limits(cfg, max_nodes=60))
        # trivially solvable worlds: scores tie, the median split still halves them
        assert sum(1 for p in tagged if p.difficulty == "easy") == 3
        assert sum(1 for p in tagged if p.difficulty == "hard") == 3

    def test_split_sizes_differ_at_most_one(self, cfg, arm):
        gen = make_env_gen(cfg)
        probs = bench.gen_problems(gen, 11, np.random.default_rng(5), arm, 0.025)
        tagged = bench.difficulty_split(probs, 1, np.random.default_rng(6), arm,
                                        make_planner_limits(cfg, max_nodes=60))
        n_easy = sum(1 for p in tagged if p.difficulty == "easy")
        n_hard = sum(1 for p in tagged if p.difficulty == "hard")
        assert abs(n_easy - n_hard) <= 1
        assert n_easy + n_hard == 11

    def test_adding_obstacle_does_not_lower_mean_score(self, cfg, arm):
        # statistical paired check on the proxy scores
        from dataclasses import replace

        from cbfsteer.environment import Environment, Obstacle

        gen = make_env_gen(cfg, num_obstacles=3)
        probs = bench.gen_problems(gen, 16, np.random.default_rng(7), arm, 0.05)
        limits = make_planner_limits(cfg, max_nodes=80)

        def scores(problems, root):
            out = []
            for prob in problems:
                counts = []
                for r in range(2):
                    rng = np.random.default_rng(np.random.SeedSequence([root, prob.id, r]))
                    from cbfsteer.planner import PlanProblem, SteerStraightLine, rrt_plan

                    res = rrt_plan(PlanProblem(arm=arm, env=prob.environment, q0=prob.q0,
                                               qg=prob.qg), SteerStraightLine(), limits, rng)
                    counts.append(res.explored_nodes if res.status == "solved"
                                  else limits.max_nodes + 1)
                out.append(np.median(counts))
            return np.array(out)

        base = scores(probs, root=11)
        harder = []
        for p in probs:
            extra = Obstacle(kind="rect", center=(0.55, 0.55), half_extents=(0.12, 0.12))
            env2 = Environment(obstacles=p.environment.obstacles + (extra,),
                               workspace=p.environment.workspace)
            # keep endpoints valid; skip problems whose endpoints now collide
            if (signed_distance(env2, arm, p.q0) <= 0
                    or signed_distance(env2, arm, p.qg) <= 0):
                harder.append(p)
            else:
                harder.append(replace(p, environment=env2))
        augmented = scores(harder, root=11)
        assert augmented.mean() >= base.mean() - 1e-9


class TestRunBench:
    def test_row_count_and_csv_schema(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg, num_obstacles=2)
        probs = bench.gen_problems(gen, 4, np.random.default_rng(8), arm, 0.025)
        tagged = bench.difficulty_split(probs, 1, np.random.default_rng(9), arm,
                                        make_planner_limits(cfg, max_nodes=40))
        cfg2 = dict(cfg)
        rows = bench.run_bench(tagged, [{"name": "straight"}], [0, 1], arm, cfg2,
                               tmp_path, root_seed=0, report_timing=True)
        assert len(rows) == 2  # one method x two difficulty classes
        csv = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv[0] == "method,difficulty,sr,nodes_mean,time_s_mean,n_runs"
        assert len(csv) == 1 + len(rows)
        runs = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert len(runs) == 4 * 1 * 2

    def test_rows_recomputable_from_runs(self, cfg, arm, tmp_path):
        import json

        gen = make_env_gen(cfg, num_obstacles=2)
        probs = bench.gen_problems(gen, 3, np.random.default_rng(10), arm, 0.025)
        rows = bench.run_bench(probs, [{"name": "straight"}], [0], arm, cfg, tmp_path,
                               root_seed=1)
        runs = [json.loads(line) for line in (tmp_path / "runs.jsonl").open()]
        for row in rows:
            sel = [r for r in runs if r["method"] == row.method
                   and r["difficulty"] == row.difficulty]
            assert row.n_runs == len(sel)
            assert row.sr == pytest.approx(
                np.mean([r["result"]["status"] == "solved" for r in sel]))
            assert row.nodes_mean == pytest.approx(
                np.mean([r["result"]["explored_nodes"] for r in sel]))

    def test_no_timing_reruns_byte_identical(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg, num_obstacles=3)
        probs = bench.gen_problems(gen, 3, np.random.default_rng(11), arm, 0.025)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            bench.run_bench(probs, [{"name": "straight"}, {"name": "hand-cbf"}], [0], arm,
                            cfg, out, root_seed=2, report_timing=False, svg=True)
            outputs.append(out)
        for fname in ("metrics.csv", "metrics.json", "runs.jsonl", "metrics.svg"):
            assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes(), fname

    def test_worker_pool_matches_single_process_bytes(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg, num_obstacles=3)
        probs = bench.gen_problems(gen, 2, np.random.default_rng(12), arm, 0.025)
        outputs = []
        for workers in (1, 2):
            cfg_w = dict(cfg, bench=dict(cfg["bench"], workers=workers),
                         planner=dict(cfg["planner"], max_nodes=12))
            out = tmp_path / f"workers{workers}"
            bench.run_bench(probs, [{"name": "straight"}, {"name": "hand-cbf"}], [0], arm,
                            cfg_w, out, root_seed=3, report_timing=False)
            outputs.append(out)
        assert len((outputs[1] / "runs.jsonl").read_text().splitlines()) == 2 * 2
        for fname in ("runs.jsonl", "metrics.json"):
            assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes(), fname

    def test_missing_checkpoint_fails_before_running(self, cfg, arm, tmp_path):
        with pytest.raises(FileNotFoundError):
            bench.run_bench([], [{"name": "cbf-state", "checkpoint": "/nonexistent.json"}],
                            [0], arm, cfg, tmp_path)

    def test_checkpoint_shared_by_methods_loads_once(self, cfg, arm, tmp_path, monkeypatch):
        from cbfsteer.config import make_hyper
        from cbfsteer.neural import Mlp, load_checkpoint, save_checkpoint

        (tmp_path / "out").mkdir()
        net = Mlp.create((arm.n_links + 1, 4, 1), np.random.default_rng(18))
        save_checkpoint(tmp_path / "out" / "checkpoint-state.json", "state", net,
                        make_hyper(cfg, "state").to_json())
        monkeypatch.chdir(tmp_path)
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(bench, "load_checkpoint", counting_load)
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(19), arm, 0.025)
        ckpt = "./out/checkpoint-state.json"  # not the normalized form of the path
        methods = [{"name": "cbf-state", "checkpoint": ckpt},
                   {"name": "filter-lqr", "checkpoint": ckpt, "activation_after": 0}]
        small = dict(cfg, planner=dict(cfg["planner"], max_nodes=4))
        bench.run_bench(probs, methods, [0, 1], arm, small, tmp_path / "bench",
                        report_timing=False)
        assert loads == [ckpt]


class TestBarChartSvg:
    def test_two_bars_and_labels_per_row(self, tmp_path):
        # success rate on top, mean explored nodes below, each on a 140-px
        # scale: sr itself, nodes relative to the largest mean
        rows = [bench.MetricsRow("straight", "easy", 1.0, 12.0, 0.1, 4),
                bench.MetricsRow("straight", "hard", 0.25, 48.0, 0.3, 4),
                bench.MetricsRow("hand-cbf", "hard", 0.5, 30.0, 0.9, 4),
                bench.MetricsRow("hand-cbf", "easy", 0.0, 0.0, 0.0, 4)]
        bench.render_bar_chart_svg(tmp_path / "metrics.svg", rows)
        ns = "{http://www.w3.org/2000/svg}"
        svg = ET.parse(tmp_path / "metrics.svg").getroot()
        rects = svg.findall(f"{ns}rect")
        texts = [t.text for t in svg.findall(f"{ns}text")]
        assert len(rects) == 2 * len(rows)
        for row, sr_bar, nodes_bar in zip(rows, rects[0::2], rects[1::2]):
            assert float(sr_bar.get("height")) == pytest.approx(row.sr * 140, abs=0.05)
            assert float(nodes_bar.get("height")) == pytest.approx(
                row.nodes_mean / 48.0 * 140, abs=0.05)
            assert sr_bar.get("x") == nodes_bar.get("x")
            assert [t for t in texts if t.startswith(f"{row.method}/{row.difficulty} ")] == [
                f"{row.method}/{row.difficulty} {row.sr:.2f}",
                f"{row.method}/{row.difficulty} {row.nodes_mean:.1f}"]
        for bars in (rects[0::2], rects[1::2]):  # each panel's bars share a baseline
            assert len({round(float(r.get("y")) + float(r.get("height")), 1)
                        for r in bars}) == 1


class TestEvalController:
    def test_empty_environments_perfect_rates(self, cfg):
        # two links: no self pairs, so an empty world is truly unconstrained
        arm2 = ArmModel(link_lengths=(0.5, 0.4))
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 5,
                                   np.random.default_rng(12), arm2, 0.025)
        row, records = bench.eval_controller(probs, {"name": "hand-cbf"}, "static_full",
                                             arm2, cfg, horizon_s=12.0)
        assert row.goal_reaching_rate == 1.0
        assert row.safety_rate == 1.0
        assert row.mean_makespan is not None
        assert len(records) == 5

    def test_makespan_counts_successes_only(self, cfg, arm):
        gen = make_env_gen(cfg, num_obstacles=6)
        probs = bench.gen_problems(gen, 8, np.random.default_rng(13), arm, 0.025)
        row, records = bench.eval_controller(probs, {"name": "hand-cbf"}, "static_full",
                                             arm, cfg, horizon_s=4.0)
        succ = [r["steps_used"] for r in records if r["reached_goal"] and not r["collided"]]
        if succ:
            assert row.mean_makespan == pytest.approx(np.mean(succ))
        else:
            assert row.mean_makespan is None

    def test_dynamicize_assigns_speeds(self, cfg, arm):
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 2,
                                   np.random.default_rng(14), arm, 0.025)
        dyn = bench.dynamicize_problems(probs, 0.05, np.random.default_rng(15))
        for p in dyn:
            for o in p.environment.obstacles:
                assert np.hypot(*o.velocity) == pytest.approx(0.05)

    @pytest.mark.parametrize("entry", ["build_steer", "eval_controller"])
    def test_checkpoint_alpha_must_match_controller_alpha(self, cfg, arm, tmp_path, entry):
        from dataclasses import replace

        from cbfsteer.config import make_hyper
        from cbfsteer.neural import Mlp, save_checkpoint

        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(16), arm, 0.025)
        net = Mlp.create((arm.n_links + 1, 4, 1), np.random.default_rng(17))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "state", net,
                        replace(make_hyper(load_config(), "state"), alpha_h=2.0).to_json())
        method = {"name": "cbf-state", "checkpoint": str(path)}

        def run(cfg_):
            if entry == "build_steer":
                return bench.build_steer(method, arm, probs[0], cfg_, 0, {})
            return bench.eval_controller(probs, method, "static_full", arm, cfg_, horizon_s=0.2)

        assert cfg["controller"]["alpha"] == 1.0
        with pytest.raises(ValueError, match="alpha"):
            run(cfg)
        cfg["controller"]["alpha"] = 2.0
        run(cfg)  # matching alphas load

    def test_calls_sharing_a_barrier_cache_load_the_checkpoint_once(self, cfg, arm, tmp_path,
                                                                     monkeypatch):
        from cbfsteer.config import make_hyper
        from cbfsteer.neural import Mlp, load_checkpoint, save_checkpoint

        path = str(tmp_path / "checkpoint-state.json")
        save_checkpoint(path, "state", Mlp.create((arm.n_links + 1, 4, 1),
                                                  np.random.default_rng(22)),
                        make_hyper(cfg, "state").to_json())
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(bench, "load_checkpoint", counting_load)
        probs = bench.dynamicize_problems(
            bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 2,
                               np.random.default_rng(23), arm, 0.025),
            0.05, np.random.default_rng(24))
        method = {"name": "cbf-state", "checkpoint": path}
        cache = {}
        runs = [bench.eval_controller(probs, method, "dynamic_partial", arm, cfg,
                                      horizon_s=0.5, barrier_cache=cache) for _ in range(2)]
        assert loads == [path] and list(cache) == [path]
        assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
        bench.eval_controller(probs, method, "dynamic_partial", arm, cfg, horizon_s=0.5)
        assert loads == [path, path]  # without a cache, every call loads

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_horizon_rejected(self, cfg, arm, horizon):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(20), arm, 0.025)
        with pytest.raises(ValueError, match="horizon"):
            bench.eval_controller(probs, {"name": "hand-cbf"}, "static_full", arm, cfg,
                                  horizon_s=horizon)

    def test_horizon_without_a_control_tick_rejected(self, cfg, arm):
        # 0.01 s is under half a 30 Hz control period: no tick would run
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(20), arm, 0.025)
        with pytest.raises(ValueError, match="horizon"):
            bench.eval_controller(probs, {"name": "hand-cbf"}, "static_full", arm, cfg,
                                  horizon_s=0.01)

    def test_hand_cbf_uses_the_configured_fd_step(self, cfg, arm):
        from cbfsteer.cbf import handcrafted_h

        cfg["hyper"]["fd_step"] = 2.5e-4
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 1,
                                  np.random.default_rng(21), arm, 0.025)[0]
        barrier = bench.build_steer({"name": "hand-cbf"}, arm, prob, cfg, 0, {}).bundle.barrier
        assert barrier.fd_step == 2.5e-4
        h, grad = barrier.value_and_grad(prob.q0, None, prob.environment)
        h_ref, grad_ref = handcrafted_h(prob.environment, arm, prob.q0,
                                        cfg["controller"]["hand_margin"], fd_step=2.5e-4)
        assert h == h_ref
        np.testing.assert_array_equal(grad, grad_ref)
        assert not np.array_equal(grad, handcrafted_h(
            prob.environment, arm, prob.q0, cfg["controller"]["hand_margin"])[1])

    def test_unknown_setting_rejected(self, cfg, arm):
        with pytest.raises(ValueError):
            bench.eval_controller([], {"name": "hand-cbf"}, "bogus", arm, cfg)


def assert_three_substeps_per_tick(arm, configs, controls):
    """Each control is held for three 1/60 s substeps; the last tick may be
    cut short (a collision or a truncated edge)."""
    assert len(controls) == -(-(len(configs) - 1) // 3)
    for t, u in enumerate(controls):
        tick = np.asarray(configs[3 * t + 1:3 * t + 4])
        np.testing.assert_array_equal(tick, hold(arm, configs[3 * t], u, 3, 1 / 60)[:len(tick)])


class TestConfiguredRates:
    """The `controller` section's rates reach the planners' rollout steers
    and eval_controller's rollouts through the one bundle bench builds."""

    @pytest.fixture
    def problems(self, cfg, arm):
        return bench.gen_problems(make_env_gen(cfg, num_obstacles=4), 3,
                                  np.random.default_rng(28), arm, 0.025)

    @pytest.fixture
    def slow_cfg(self, cfg):
        cfg["controller"].update(sim_hz=60, ctrl_hz=20)
        return cfg

    def test_rollout_steer(self, slow_cfg, arm, problems):
        # every edge a planner stores with the steer build_steer made
        limits = make_planner_limits(slow_cfg, max_nodes=8)
        ticks = 0
        for prob in problems:
            steer = bench.build_steer({"name": "hand-cbf"}, arm, prob, slow_cfg, 0, {})
            assert steer.bundle.limits == make_rollout_limits(slow_cfg)
            _, tree = rrt_plan_with_tree(
                PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg),
                steer, limits, np.random.default_rng(prob.id))
            for node in tree.nodes[1:]:
                assert_three_substeps_per_tick(arm, node.edge.configs, node.edge.controls)
                ticks += len(node.edge.controls)
        assert ticks > len(problems)

    def test_eval_controller_rollouts(self, slow_cfg, arm, problems, monkeypatch):
        rollout = bench.safe_rollout
        seen = []

        def recording_rollout(bundle, *args):
            seen.append((bundle, rollout(bundle, *args)))
            return seen[-1][1]

        monkeypatch.setattr(bench, "safe_rollout", recording_rollout)
        bench.eval_controller(problems, {"name": "hand-cbf"}, "static_full", arm, slow_cfg,
                              horizon_s=1.0)
        assert len(seen) == len(problems)
        for bundle, rec in seen:
            assert bundle.limits == make_rollout_limits(slow_cfg, horizon_s=1.0)
            assert_three_substeps_per_tick(arm, rec.configs, rec.controls)
        assert sum(rec.steps_used for _, rec in seen) > len(problems)

    def test_build_steer_rejects_a_horizon_without_a_control_tick(self, cfg, arm, problems):
        # 0.01 s is under half a 30 Hz control period, as in eval_controller
        cfg["controller"]["horizon_s"] = 0.01
        with pytest.raises(ValueError, match="horizon"):
            bench.build_steer({"name": "hand-cbf"}, arm, problems[0], cfg, 0, {})


def cloud_bytes(cloud):
    return cloud.points.tobytes() + cloud.normals.tobytes() + cloud.source.value.encode()


class TestObserver:
    """The one observation rule, for each barrier kind in each setting."""

    @pytest.fixture
    def methods(self, cfg, arm, tmp_path):
        from cbfsteer.config import cloud_widths, make_hyper, state_widths
        from cbfsteer.neural import Mlp, PointSetEncoder, save_checkpoint

        rng = np.random.default_rng(25)
        nets = {"state": Mlp.create(state_widths(cfg, arm), rng),
                "cloud": PointSetEncoder.create(arm.n_links, *cloud_widths(cfg, arm), rng=rng)}
        for kind, net in nets.items():
            save_checkpoint(tmp_path / f"{kind}.json", kind, net, make_hyper(cfg, kind).to_json())
        return {"hand-cbf": {"name": "hand-cbf"},
                "cbf-state": {"name": "cbf-state", "checkpoint": str(tmp_path / "state.json")},
                "cbf-cloud": {"name": "cbf-cloud", "checkpoint": str(tmp_path / "cloud.json")}}

    @pytest.mark.parametrize("setting", bench.SETTINGS)
    @pytest.mark.parametrize("name", ["hand-cbf", "cbf-state", "cbf-cloud"])
    def test_observation_by_barrier_and_setting(self, cfg, arm, methods, monkeypatch,
                                                name, setting):
        from cbfsteer.config import make_scan_spec
        from cbfsteer.environment import ray_cast_scan, sample_surface_points, step_obstacles

        root_seed = 7
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=4), 2,
                                  np.random.default_rng(26), arm, 0.025)[1]
        barrier = bench._controller(methods[name], arm, cfg, {}).barrier
        observe = bench._observer(barrier, prob, setting, cfg, root_seed)

        # eval_controller hands safe_rollout the observer of the same rule
        seen = []
        rollout = bench.safe_rollout

        def recording_rollout(bundle, *args):
            seen.append(bundle.observe)
            return rollout(bundle, *args)

        monkeypatch.setattr(bench, "safe_rollout", recording_rollout)
        bench.eval_controller([prob], methods[name], setting, arm, cfg, root_seed=root_seed,
                              horizon_s=0.1)
        q = prob.q0
        if name != "cbf-cloud":
            assert observe is None and seen == [None]
            if setting == "static_full":
                assert bench.build_steer(methods[name], arm, prob, cfg, root_seed,
                                         {}).bundle.observe is None
            return
        if setting == "static_full":
            # the problem's surface cloud, seeded by problem id, whatever
            # world the rollout is in
            expected = cloud_bytes(sample_surface_points(
                prob.environment, cfg["cloud"]["num_points"],
                seed_stream(root_seed, "problem-cloud", prob.id)))
            steer = bench.build_steer(methods[name], arm, prob, cfg, root_seed, {})
            assert cloud_bytes(observe(prob.environment, arm, q)) == expected
            assert cloud_bytes(steer.bundle.observe(prob.environment, arm, q)) == expected
            assert cloud_bytes(seen[0](prob.environment, arm, q)) == expected
        else:
            # a ray-cast scan of the world it is given
            moved = step_obstacles(
                bench.dynamicize_problems([prob], 0.5, np.random.default_rng(27))[0].environment,
                1.0)
            for world in (prob.environment, moved):
                expected = cloud_bytes(ray_cast_scan(world, arm, q, make_scan_spec(cfg)))
                assert cloud_bytes(observe(world, arm, q)) == expected
                assert cloud_bytes(seen[0](world, arm, q)) == expected
            assert (cloud_bytes(observe(moved, arm, q))
                    != cloud_bytes(observe(prob.environment, arm, q)))
