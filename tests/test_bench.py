"""Harness tests: problem generation, difficulty proxy, bench aggregation
determinism, and end-to-end controller evaluation."""

import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import draw_oracle
from cbfsteer import bench
from cbfsteer.config import (
    load_config,
    make_arm,
    make_env_gen,
    make_planner_limits,
    make_rollout_limits,
    seed_stream,
)
from cbfsteer.environment import EnvGenConfig, signed_distance, signed_distance_batch
from cbfsteer.jsonio import canonical_dumps, load_json, load_jsonl
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

    @pytest.mark.parametrize("clearance", [-0.01, -0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_clearance_rejected(self, cfg, arm, clearance):
        # a negative clearance would accept endpoints in collision
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="clearance must be non-negative and finite"):
            bench.gen_problems(make_env_gen(cfg), 4, rng, arm, clearance)
        assert rng.bit_generator.state == state

    def test_zero_clearance_gives_collision_free_endpoints(self, cfg, arm):
        gen = make_env_gen(cfg, num_obstacles=8)
        for p in bench.gen_problems(gen, 12, np.random.default_rng(4), arm, 0.0):
            assert signed_distance(p.environment, arm, p.q0) >= 0.0
            assert signed_distance(p.environment, arm, p.qg) >= 0.0

    def test_round_trip(self, cfg, arm, tmp_path):
        gen = make_env_gen(cfg)
        probs = bench.gen_problems(gen, 5, np.random.default_rng(2), arm, 0.025)
        bench.save_problems(tmp_path / "p.json", probs)
        loaded = bench.load_problems(tmp_path / "p.json")
        assert len(loaded) == 5
        np.testing.assert_allclose(loaded[3].q0, probs[3].q0)


def problem_bytes(problems) -> bytes:
    return canonical_dumps([p.to_json() for p in problems]).encode() + b"".join(
        p.q0.tobytes() + p.qg.tobytes() for p in problems)


class TestSharedDraws:
    """Problem generation and dynamicization draw what the inline loops of
    `draw_oracle` draw, bit for bit, and leave the generator where they do."""

    @pytest.mark.parametrize("speed", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_gen_problems_equals_the_inline_loops(self, arm, speed, seed):
        gen = EnvGenConfig(num_obstacles=6, shapes=("rect", "circle"), obstacle_speed=speed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = bench.gen_problems(gen, 4, rng, arm, 0.05 * seed)
        ref = draw_oracle.gen_problems(gen, 4, ref_rng, arm, 0.05 * seed)
        assert problem_bytes(got) == problem_bytes(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    def test_dynamicize_equals_the_inline_loop(self, arm, seed):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=5, shapes=("rect", "circle")), 3,
                                   np.random.default_rng(seed), arm, 0.025)
        rng, ref_rng = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
        got = bench.dynamicize_problems(probs, 0.1, rng)
        ref = draw_oracle.dynamicize_problems(probs, 0.1, ref_rng)
        assert problem_bytes(got) == problem_bytes(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestDifficultySplit:
    def test_empty_environments_all_easy(self, cfg, arm):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 6,
                                   np.random.default_rng(3), arm, 0.025)
        tagged = bench.difficulty_split(probs, 2, np.random.default_rng(4), arm,
                                        replace(make_planner_limits(cfg), max_nodes=60),
                                        r_goal=cfg["controller"]["r_goal"])
        # trivially solvable worlds: scores tie, the median split still halves them
        assert sum(1 for p in tagged if p.difficulty == "easy") == 3
        assert sum(1 for p in tagged if p.difficulty == "hard") == 3

    def test_split_sizes_differ_at_most_one(self, cfg, arm):
        gen = make_env_gen(cfg)
        probs = bench.gen_problems(gen, 11, np.random.default_rng(5), arm, 0.025)
        tagged = bench.difficulty_split(probs, 1, np.random.default_rng(6), arm,
                                        replace(make_planner_limits(cfg), max_nodes=60),
                                        r_goal=cfg["controller"]["r_goal"])
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
        limits = replace(make_planner_limits(cfg), max_nodes=80)

        def scores(problems, root):
            out = []
            for prob in problems:
                counts = []
                for r in range(2):
                    rng = np.random.default_rng(np.random.SeedSequence([root, prob.id, r]))
                    from cbfsteer.planner import PlanProblem, SteerStraightLine, rrt_plan

                    res = rrt_plan(PlanProblem(arm=arm, env=prob.environment, q0=prob.q0,
                                               qg=prob.qg, r_goal=0.1),
                                   SteerStraightLine(), limits, rng)
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
                                        replace(make_planner_limits(cfg), max_nodes=40),
                                        r_goal=cfg["controller"]["r_goal"])
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

    def test_each_run_is_its_plan_query(self, cfg, arm, tmp_path):
        # run (problem, seed) is the query on planner stream `seed` that records `seed`
        cfg = dict(cfg, planner=dict(cfg["planner"], max_nodes=20))
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 2,
                                   np.random.default_rng(13), arm, 0.025)
        bench.run_bench(probs, [{"name": "hand-cbf"}], [0, 4], arm, cfg, tmp_path,
                        root_seed=5, report_timing=False)
        runs = load_jsonl(tmp_path / "runs.jsonl")
        assert [(r["problem_id"], r["seed"]) for r in runs] == [(0, 0), (0, 4), (1, 0), (1, 4)]
        for run in runs:
            res, tree = bench.plan_query(probs[run["problem_id"]], {"name": "hand-cbf"}, arm, cfg,
                                         5, run["seed"], {}, run["seed"])
            assert run["result"] == dict(res.to_json(), planning_seconds=0.0)
            assert res.seed == run["seed"] and len(tree.nodes) == res.tree_size

    @pytest.mark.parametrize("methods, seeds", [([{"name": "straight"}] * 2, [0]),
                                                ([{"name": "straight"}], [0, 0]),
                                                ([{"name": "straight"}] * 2, [0, 0])])
    def test_a_repeated_method_or_seed_fails_before_writing(self, cfg, arm, tmp_path,
                                                           methods, seeds):
        # each run would count twice in the rows
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(13), arm, 0.025)
        with pytest.raises(ValueError, match="repeats one"):
            bench.run_bench(probs, methods, seeds, arm, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [[0, 0.5], [True], [-1]])
    def test_a_seed_that_is_not_a_non_negative_int_fails_before_writing(self, cfg, arm,
                                                                        tmp_path, seeds):
        # seed_stream reads 0.5 as 0: seeds [0, 0.5] planned one run twice
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(13), arm, 0.025)
        with pytest.raises(ValueError, match="bench seeds must be non-negative integers"):
            bench.run_bench(probs, [{"name": "straight"}], seeds, arm, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["no problem", "no method", "no seed", "problem twice"])
    def test_an_empty_list_or_a_repeated_problem_fails_before_writing(self, cfg, arm, tmp_path,
                                                                     case):
        # an empty list gave header-only tables; a repeated problem id ran
        # twice from the same planner stream and counted twice in the rows
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 2,
                                   np.random.default_rng(13), arm, 0.025)
        methods, seeds = [{"name": "straight"}], [0]
        message = f"no {case.split()[1]} to run"
        if case == "no problem":
            probs = []
        elif case == "no method":
            methods = []
        elif case == "no seed":
            seeds = []
        else:
            probs = [probs[0], replace(probs[1], id=probs[0].id)]
            message = "repeats one"
        with pytest.raises(ValueError, match=message):
            bench.run_bench(probs, methods, seeds, arm, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_solved_runs_revalidate(self, cfg, arm, tmp_path, capsys):
        # the re-validation CI runs on its pipeline's bench: every solved
        # path passes the full check ladder, and one bent into an obstacle fails
        import json

        import revalidate_bench

        cfg = dict(cfg, planner=dict(cfg["planner"], max_nodes=60))
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 3,
                                   np.random.default_rng(14), arm, 0.025)
        bench.run_bench(probs, [{"name": "straight"}, {"name": "hand-cbf"}], [0, 1], arm, cfg,
                        tmp_path, report_timing=False)
        bench.save_problems(tmp_path / "problems.json", probs)
        (tmp_path / "config.json").write_text(json.dumps({"planner": {"max_nodes": 60}}))
        argv = ["--config", str(tmp_path / "config.json"), "--problems",
                str(tmp_path / "problems.json"), "--runs", str(tmp_path / "runs.jsonl")]
        assert revalidate_bench.main(argv) == 0
        runs = [json.loads(line) for line in (tmp_path / "runs.jsonl").open()]
        n_solved, bad = revalidate_bench.invalid_runs(probs, runs, cfg)
        assert n_solved >= 4 and bad == []
        assert capsys.readouterr().out.startswith(f"{n_solved} solved runs re-validated, 0")
        run = next(r for r in runs if r["result"]["status"] == "solved"
                   and len(r["result"]["path"]) > 2)
        env = probs[[p.id for p in probs].index(run["problem_id"])].environment
        rng = np.random.default_rng(15)
        hit = next(q for q in rng.uniform(arm.lower, arm.upper, (1000, arm.n_links))
                   if signed_distance(env, arm, q) < 0.0)
        run["result"]["path"][1] = hit.tolist()
        assert revalidate_bench.invalid_runs(probs, runs, cfg)[1] == [
            (run["method"], run["problem_id"], run["seed"])]

    def test_missing_checkpoint_fails_before_running(self, cfg, arm, tmp_path):
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(13), arm, 0.025)
        with pytest.raises(FileNotFoundError):
            bench.run_bench(probs, [{"name": "cbf-state", "checkpoint": "/nonexistent.json"}],
                            [0], arm, cfg, tmp_path)
        assert not (tmp_path / "runs.jsonl").exists()

    def test_checkpoint_shared_by_methods_loads_once(self, cfg, arm, tmp_path, monkeypatch):
        from cbfsteer.config import make_hyper
        from cbfsteer.neural import Mlp, load_checkpoint, save_checkpoint

        (tmp_path / "out").mkdir()
        net = Mlp.create((arm.n_links + 1, 4, 1), np.random.default_rng(18))
        save_checkpoint(tmp_path / "out" / "checkpoint-state.json", "state", net,
                        make_hyper(cfg).to_json())
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

    def test_an_empty_or_repeated_problem_list_rejected(self, cfg, arm):
        # an empty list read goal 0 and safety 1; a repeated id counts twice
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(15), arm, 0.025)
        for given, message in (([], "no problem to run"), (probs * 2, "repeats one")):
            with pytest.raises(ValueError, match=message):
                bench.eval_controller(given, {"name": "hand-cbf"}, "static_full", arm, cfg)

    @pytest.mark.parametrize("which, bad", [("qg", (0.4,)), ("qg", (9.0, 0.0, 0.0)),
                                            ("q0", (np.nan, 0.0, 0.0)), ("q0", (0.1, 0.0))])
    def test_an_unusable_endpoint_refused_before_any_rollout(self, cfg, arm, monkeypatch,
                                                             which, bad):
        # a one-entry goal broadcast over the joints and a goal outside the
        # limits were rolled out toward; the colliding start of a rollout
        # stays a run recorded as collided
        from dataclasses import replace

        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 2,
                                   np.random.default_rng(15), arm, 0.025)
        probs[1] = replace(probs[1], **{which: np.array(bad)})
        monkeypatch.setattr(bench, "safe_rollout", None)  # problem 0 must not roll out
        message = f"problem 1: {'start' if which == 'q0' else 'goal'} configuration (must|has)"
        for setting in bench.Setting:
            with pytest.raises(ValueError, match=message):
                bench.eval_controller(probs, {"name": "hand-cbf"}, setting, arm, cfg)
            with pytest.raises(ValueError, match=message):
                bench.control_query(probs[1], {"name": "hand-cbf"}, arm, cfg, 0, setting, {})

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

    @pytest.mark.parametrize("speed", [-0.05, np.inf, np.nan])
    def test_dynamicize_rejects_an_unusable_speed(self, cfg, arm, speed):
        # the rule and message of EnvGenConfig.obstacle_speed, before any draw
        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 1,
                                   np.random.default_rng(14), arm, 0.025)
        rng = np.random.default_rng(15)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="obstacle_speed must be non-negative and finite"):
            bench.dynamicize_problems(probs, speed, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", ["build_steer", "eval_controller"])
    def test_checkpoint_alpha_reaches_the_qp(self, cfg, arm, tmp_path, monkeypatch, entry):
        # the barrier carries the alpha_h its net was trained with; the QP
        # takes only the offset alpha*h
        from dataclasses import replace

        from cbfsteer.config import make_hyper
        from cbfsteer.controller import control_tick, solve_safety_qp
        from cbfsteer.neural import Mlp, save_checkpoint

        probs = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                   np.random.default_rng(16), arm, 0.025)
        net = Mlp.create((arm.n_links + 1, 4, 1), np.random.default_rng(17))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "state", net,
                        replace(make_hyper(load_config()), alpha_h=2.0).to_json())
        method = {"name": "cbf-state", "checkpoint": str(path)}
        if entry == "build_steer":
            bundle = bench.build_steer(method, arm, probs[0], cfg, 0, {}).bundle
        else:
            seen = []
            rollout = bench.safe_rollout

            def recording_rollout(bundle, *args):
                seen.append(bundle)
                return rollout(bundle, *args)

            monkeypatch.setattr(bench, "safe_rollout", recording_rollout)
            bench.eval_controller(probs, method, "static_full", arm, cfg, horizon_s=0.2)
            (bundle,) = seen
        assert bundle.barrier.hyper.alpha_h == 2.0
        q, env = probs[0].q0, probs[0].environment
        u, u_nom, h, _, diag = control_tick(bundle, env, q, probs[0].qg)
        _, grad, _ = bundle.barrier.value_and_grad(q, None, env)
        u_ref, diag_ref = solve_safety_qp(u_nom, grad, 2.0 * h, bundle.qp_cfg,
                                          arm.action_lower, arm.action_upper)
        assert u.tobytes() == u_ref.tobytes() and diag == diag_ref

    def test_hand_cbf_takes_the_configured_alpha_h(self, cfg, arm):
        cfg["hyper"]["alpha_h"] = 3.0
        prob = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                  np.random.default_rng(20), arm, 0.025)[0]
        bundle = bench._controller({"name": "hand-cbf"}, arm, prob, "static_full", cfg, 0, {})
        assert bundle.barrier.hyper.alpha_h == 3.0

    def test_straight_has_no_controller(self, cfg, arm):
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(20), arm, 0.025)
        with pytest.raises(ValueError, match="method straight has no controller"):
            bench.eval_controller(probs, {"name": "straight"}, "static_full", arm, cfg)

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_filter_lqr_has_no_controller_of_its_own(self, cfg, arm, methods, kind,
                                                     monkeypatch):
        # its discard switch lives in the planner's steer, so its rollout
        # was the checkpoint's cbf method under another name
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(20), arm, 0.025)
        method = {"name": "filter-lqr", "checkpoint": methods[f"cbf-{kind}"]["checkpoint"]}
        monkeypatch.setattr(bench, "safe_rollout", None)
        for setting in bench.Setting:
            with pytest.raises(ValueError, match="method filter-lqr has no controller of its own"):
                bench.eval_controller(probs, method, setting, arm, cfg)
            with pytest.raises(ValueError, match="method filter-lqr has no controller of its own"):
                bench.control_query(probs[0], method, arm, cfg, 0, setting, {})

    @pytest.mark.parametrize("name", ["straight", "rrt"])
    def test_a_checkpoint_gives_no_controller_to_a_method_without_a_variant(self, cfg, arm,
                                                                            name):
        # `METHODS` gives the method no network variant, so the path is never read
        probs = bench.gen_problems(EnvGenConfig(num_obstacles=0), 1,
                                   np.random.default_rng(20), arm, 0.025)
        with pytest.raises(ValueError, match=f"method {name} has no controller"):
            bench.eval_controller(probs, {"name": name, "checkpoint": "unread.json"},
                                  "static_full", arm, cfg)

    def test_calls_sharing_a_barrier_cache_load_the_checkpoint_once(self, cfg, arm, tmp_path,
                                                                     monkeypatch):
        from cbfsteer.config import make_hyper
        from cbfsteer.neural import Mlp, load_checkpoint, save_checkpoint

        path = str(tmp_path / "checkpoint-state.json")
        save_checkpoint(path, "state", Mlp.create((arm.n_links + 1, 4, 1),
                                                  np.random.default_rng(22)),
                        make_hyper(cfg).to_json())
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
        from cbfsteer.cbf import CbfHyper, HandcraftedBarrier

        cfg["hyper"]["fd_step"] = 2.5e-4
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 1,
                                  np.random.default_rng(21), arm, 0.025)[0]
        barrier = bench.build_steer({"name": "hand-cbf"}, arm, prob, cfg, 0, {}).bundle.barrier
        assert barrier.hyper.fd_step == 2.5e-4
        h, grad, _ = barrier.value_and_grad(prob.q0, None, prob.environment)
        margin = cfg["controller"]["hand_margin"]
        fine = HandcraftedBarrier(arm, margin, CbfHyper(fd_step=2.5e-4))
        h_ref, grad_ref, _ = fine.value_and_grad(prob.q0, None, prob.environment)
        assert h == h_ref
        np.testing.assert_array_equal(grad, grad_ref)
        assert not np.array_equal(grad, HandcraftedBarrier(arm, margin).value_and_grad(
            prob.q0, None, prob.environment)[1])

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
        limits = replace(make_planner_limits(slow_cfg), max_nodes=8)
        ticks = 0
        for prob in problems:
            steer = bench.build_steer({"name": "hand-cbf"}, arm, prob, slow_cfg, 0, {})
            assert steer.bundle.limits == make_rollout_limits(slow_cfg)
            _, tree = rrt_plan_with_tree(
                PlanProblem(arm=arm, env=prob.environment, q0=prob.q0, qg=prob.qg, r_goal=0.1),
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


@pytest.fixture
def methods(cfg, arm, tmp_path):
    """The controlled methods, the networks' with small random checkpoints."""
    from cbfsteer.config import cloud_widths, make_hyper, state_widths
    from cbfsteer.neural import Mlp, PointSetEncoder, save_checkpoint

    rng = np.random.default_rng(25)
    nets = {"state": Mlp.create(state_widths(cfg, arm), rng),
            "cloud": PointSetEncoder.create(arm.n_links, *cloud_widths(cfg, arm), rng=rng)}
    for kind, net in nets.items():
        save_checkpoint(tmp_path / f"{kind}.json", kind, net, make_hyper(cfg).to_json())
    return {"hand-cbf": {"name": "hand-cbf"},
            "cbf-state": {"name": "cbf-state", "checkpoint": str(tmp_path / "state.json")},
            "cbf-cloud": {"name": "cbf-cloud", "checkpoint": str(tmp_path / "cloud.json")}}


class TestObserver:
    """The one observation rule, for each barrier kind in each setting."""

    @pytest.mark.parametrize("setting", bench.Setting)
    @pytest.mark.parametrize("name", ["hand-cbf", "cbf-state", "cbf-cloud"])
    def test_observation_by_barrier_and_setting(self, cfg, arm, methods, monkeypatch,
                                                name, setting):
        from cbfsteer.config import make_scan_spec
        from cbfsteer.environment import ray_cast_scan, sample_surface_points, step_obstacles

        root_seed = 7
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=4), 2,
                                  np.random.default_rng(26), arm, 0.025)[1]
        observe = bench._controller(methods[name], arm, prob, setting, cfg, root_seed,
                                    {}).observe

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
            if setting is bench.Setting.STATIC_FULL:
                assert bench.build_steer(methods[name], arm, prob, cfg, root_seed,
                                         {}).bundle.observe is None
            return
        if setting is bench.Setting.STATIC_FULL:
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

    @pytest.mark.parametrize("setting", bench.Setting)
    @pytest.mark.parametrize("name", ["hand-cbf", "cbf-state"])
    def test_observer_is_none_unless_the_barrier_is_a_cloud_net(self, cfg, arm, methods,
                                                                 name, setting):
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                  np.random.default_rng(28), arm, 0.025)[0]
        assert bench._controller(methods[name], arm, prob, setting, cfg, 0, {}).observe is None

    @pytest.mark.parametrize("name, other", [("cbf-state", "cloud"), ("cbf-cloud", "state")])
    def test_method_rejects_the_other_variant(self, cfg, arm, methods, tmp_path, name, other):
        method = {"name": name, "checkpoint": methods[f"cbf-{other}"]["checkpoint"]}
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                  np.random.default_rng(28), arm, 0.025)[0]
        with pytest.raises(ValueError, match=f"{name} needs a {name[4:]} checkpoint.*"
                                             f"holds a {other} net"):
            bench.build_steer(method, arm, prob, cfg, 0, {})
        with pytest.raises(ValueError, match=f"holds a {other} net"):
            bench.run_bench([prob], [method], [0], arm, cfg, tmp_path / "out")

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_filter_lqr_takes_either_variant(self, cfg, arm, methods, kind):
        method = {"name": "filter-lqr", "checkpoint": methods[f"cbf-{kind}"]["checkpoint"]}
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                  np.random.default_rng(28), arm, 0.025)[0]
        steer = bench.build_steer(method, arm, prob, cfg, 0, {})
        assert steer.bundle.barrier.kind == kind and steer.activation_after is not None

    @pytest.mark.parametrize("given, expected", [(None, 30), (-1, 30), (0, 0)])
    def test_filter_lqr_switch_point(self, cfg, arm, methods, given, expected):
        # none, or -1, switches halfway through the node budget
        cfg = dict(cfg, planner=dict(cfg["planner"], max_nodes=60))
        method = {"name": "filter-lqr", "checkpoint": methods["cbf-state"]["checkpoint"]}
        if given is not None:
            method["activation_after"] = given
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                  np.random.default_rng(28), arm, 0.025)[0]
        assert bench.build_steer(method, arm, prob, cfg, 0, {}).activation_after == expected

    @pytest.mark.parametrize("given", [-7, -2, 2.5, True, "3"])
    def test_filter_lqr_refuses_another_switch_point(self, cfg, arm, methods, given):
        # a negative one ran the default switch point, and 2.5 ran as 2
        method = {"name": "filter-lqr", "checkpoint": methods["cbf-state"]["checkpoint"],
                  "activation_after": given}
        prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=2), 1,
                                  np.random.default_rng(28), arm, 0.025)[0]
        with pytest.raises(ValueError, match="activation_after must be an integer >= 0, or -1"):
            bench.build_steer(method, arm, prob, cfg, 0, {})


class TestSettingWorlds:
    """The one rule for the worlds a controller run rolls out in, which
    `eval_controller` applies: static problems move under dynamic_partial."""

    @pytest.fixture
    def static(self, cfg, arm):
        return bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 3,
                                  np.random.default_rng(29), arm, 0.025)

    def test_static_full_and_moving_problems_come_back_as_given(self, static):
        moving = bench.dynamicize_problems(static, 0.1, np.random.default_rng(30))
        assert bench.setting_worlds(static, "static_full", 4) is static
        assert bench.setting_worlds(moving, "dynamic_partial", 4) is moving

    @pytest.mark.parametrize("speed", [None, 0.0, 0.2])
    def test_dynamic_partial_moves_static_problems(self, static, speed):
        got = bench.setting_worlds(static, "dynamic_partial", 4, speed)
        ref = bench.dynamicize_problems(
            static, bench.DYNAMIC_PARTIAL_SPEED if speed is None else speed,
            seed_stream(4, "dynamics"))
        assert [p.to_json() for p in got] == [p.to_json() for p in ref]
        assert all(p.environment.is_dynamic for p in got) == (speed != 0.0)

    @pytest.mark.parametrize("setting, moves, message", [
        ("static_full", False, "static-full moves no obstacle"),
        ("static_full", True, "obstacles already move"),
        ("dynamic_partial", True, "obstacles already move"),
    ])
    @pytest.mark.parametrize("speed", [0.0, 0.05])
    def test_a_speed_is_refused_where_no_static_problem_moves(self, cfg, arm, static, setting,
                                                              moves, message, speed,
                                                              monkeypatch):
        problems = (bench.dynamicize_problems(static, 0.1, np.random.default_rng(30))
                    if moves else static)
        with pytest.raises(ValueError, match=message):
            bench.setting_worlds(problems, setting, 0, speed)
        monkeypatch.setattr(bench, "safe_rollout", None)  # refused before any rollout
        with pytest.raises(ValueError, match=message):
            bench.eval_controller(problems, {"name": "hand-cbf"}, setting, arm, cfg,
                                  obstacle_speed=speed)

    def test_static_full_refuses_a_moving_problem(self, cfg, arm, static, monkeypatch):
        # its rollouts ran among moving obstacles while a cloud net saw the
        # surface cloud of time 0
        given = [static[0], *bench.dynamicize_problems(static[1:], 0.1,
                                                       np.random.default_rng(30))]
        message = r"static-full moves no obstacle, but those of problems \[1, 2\] move"
        with pytest.raises(ValueError, match=message):
            bench.setting_worlds(given, "static_full", 0)
        monkeypatch.setattr(bench, "safe_rollout", None)  # refused before any rollout
        with pytest.raises(ValueError, match=message):
            bench.eval_controller(given, {"name": "hand-cbf"}, "static_full", arm, cfg)

    @pytest.mark.parametrize("order", ["moving first", "static first"])
    def test_dynamic_partial_refuses_a_mixed_list(self, cfg, arm, static, order, monkeypatch):
        # the static problems stayed still while the rest moved
        moving = bench.dynamicize_problems(static[:1], 0.1, np.random.default_rng(30))
        given = [*moving, *static[1:]] if order == "moving first" else [*static[1:], *moving]
        message = r"dynamic-partial takes moving or static problems, not both: only " \
                  r"problems \[0\] of 3 move"
        with pytest.raises(ValueError, match=message):
            bench.setting_worlds(given, "dynamic_partial", 0)
        monkeypatch.setattr(bench, "safe_rollout", None)
        with pytest.raises(ValueError, match=message):
            bench.eval_controller(given, {"name": "hand-cbf"}, "dynamic_partial", arm, cfg)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_the_control_workload_rolls_out_in_the_setting_worlds(self, tmp_path, seed):
        # the benchmark's control-dynamic workload keeps its own copy of the
        # rule, which must make the worlds `setting_worlds` makes
        import plan_fingerprint

        workloads = plan_fingerprint.benchmark_workloads()
        inputs = workloads.setup_control(seed, tmp_path)
        generated = workloads._gen_problems(inputs.cfg, inputs.arm, seed,
                                            workloads.CTRL_ROLLOUTS)
        expected = bench.setting_worlds(generated, "dynamic_partial", seed)
        assert [p.to_json() for p in inputs.problems] == [p.to_json() for p in expected]
        assert all(p.environment.is_dynamic for p in inputs.problems)

    @pytest.mark.parametrize("speed", [-0.05, np.inf, np.nan])
    def test_an_unusable_speed_is_refused(self, cfg, arm, static, speed):
        with pytest.raises(ValueError, match="obstacle_speed must be non-negative and finite"):
            bench.eval_controller(static, {"name": "hand-cbf"}, "dynamic_partial", arm, cfg,
                                  obstacle_speed=speed)

    @pytest.mark.parametrize("setting", bench.Setting)
    def test_eval_controller_rolls_out_in_the_setting_worlds(self, cfg, arm, static, methods,
                                                             setting, monkeypatch):
        worlds = []
        rollout = bench.safe_rollout

        def recording_rollout(bundle, q0, qg, env):
            worlds.append(env)
            return rollout(bundle, q0, qg, env)

        monkeypatch.setattr(bench, "safe_rollout", recording_rollout)
        bench.eval_controller(static, methods["cbf-cloud"], setting, arm, cfg, root_seed=4,
                              horizon_s=0.2)
        expected = bench.setting_worlds(static, setting, 4)
        assert [w.to_json() for w in worlds] == [p.environment.to_json() for p in expected]

    @pytest.mark.parametrize("name", ["hand-cbf", "cbf-cloud"])
    def test_speed_zero_rolls_out_in_the_static_worlds(self, cfg, arm, static, methods, name):
        # the rollouts eval_controller ran under dynamic_partial before it
        # applied the setting's worlds: the given static worlds, with ray casts
        _, records = bench.eval_controller(static, methods[name], "dynamic_partial", arm, cfg,
                                           root_seed=4, horizon_s=0.5, obstacle_speed=0.0)
        for prob, record in zip(static, records):
            rec = bench.control_query(prob, methods[name], arm, cfg, 4, "dynamic_partial", {},
                                      horizon_s=0.5)
            assert (record["reached_goal"], record["collided"], record["steps_used"],
                    record["qp_infeasible_count"]) == (rec.reached_goal, rec.collided,
                                                       rec.steps_used, rec.qp_infeasible_count)
            ds = signed_distance_batch(prob.environment, arm, np.array(rec.configs))
            assert record["safety_ratio"] == float(np.mean(ds >= 0.0))


def rollout_bytes(rec) -> tuple:
    """A RolloutRecord as comparable bytes and values."""
    return (np.asarray(rec.configs).tobytes(), np.asarray(rec.controls).tobytes(),
            rec.reached_goal, rec.collided, rec.qp_infeasible_count)


@pytest.mark.parametrize("entry", ["_controller", "control_query", "setting_worlds",
                                   "eval_controller"])
def test_each_entry_takes_a_setting_or_its_value_and_refuses_any_other_name(
        cfg, arm, methods, entry, monkeypatch):
    # `_controller` ran "dynamic-partial" as static_full: a cloud net saw the
    # surface cloud, and `control_query` passed the name on unchecked
    prob = bench.gen_problems(make_env_gen(cfg, num_obstacles=3), 1,
                              np.random.default_rng(31), arm, 0.025)[0]
    method, moved = methods["cbf-cloud"], bench.Setting.DYNAMIC_PARTIAL
    rollout = bench.safe_rollout

    def run(setting):
        if entry == "_controller":
            bundle = bench._controller(method, arm, prob, setting, cfg, 4, {}, horizon_s=0.3)
            return rollout(bundle, prob.q0, prob.qg, prob.environment)
        if entry == "control_query":
            return bench.control_query(prob, method, arm, cfg, 4, setting, {}, 0.3)
        if entry == "setting_worlds":
            (world,) = bench.setting_worlds([prob], setting, 4)
            return bench.control_query(world, method, arm, cfg, 4, moved, {}, 0.3)
        seen = []

        def recording_rollout(*args):
            seen.append(rollout(*args))
            return seen[-1]

        monkeypatch.setattr(bench, "safe_rollout", recording_rollout)
        bench.eval_controller([prob], method, setting, arm, cfg, 4, 0.3)
        return seen[0]

    for name in ("dynamic-partial", "bogus"):
        with pytest.raises(ValueError, match=f"'{name}' is not a valid Setting"):
            run(name)
    assert rollout_bytes(run("dynamic_partial")) == rollout_bytes(run(moved))
    assert rollout_bytes(run(moved)) != rollout_bytes(run(bench.Setting.STATIC_FULL))
