"""Planner tests: steer truncation against a bisection oracle, tree growth
invariants, edge safety audits, and node-for-node agreement with an
independent reference RRT built from the documented sampling contract."""

import math
from dataclasses import replace

import numpy as np
import pytest

import plan_fingerprint
import rollout_oracle
from arms import ARMS, HAND_MARGIN, InflatedReading, contact_pairs, over_links
from cbfsteer import bench, controller, planner
from cbfsteer.cbf import CbfHyper, HandcraftedBarrier, NeuralBarrier
from cbfsteer.config import cloud_widths, load_config, make_arm, make_env_gen, make_hyper
from cbfsteer.controller import (
    ControllerBundle,
    NominalPolicy,
    QpMode,
    RolloutLimits,
    SafeControllerConfig,
)
from cbfsteer.environment import (
    EnvGenConfig,
    Environment,
    Obstacle,
    random_environment,
    sample_surface_points,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import ArmModel, hold, sample_config
from cbfsteer.neural import Mlp, PointSetEncoder
from cbfsteer.planner import (
    PlannerLimits,
    PlanProblem,
    PlanResult,
    SteerRollout,
    SteerStraightLine,
    rrt_plan,
    rrt_plan_with_tree,
    steer_cbf_inc,
    steer_filter_lqr,
    steer_straight,
    validate_and_truncate,
)


@pytest.fixture
def arm():
    return ArmModel()


def blocked_env():
    return Environment(obstacles=(Obstacle(kind="rect", center=(1.0, 0.35),
                                           half_extents=(0.3, 0.25)),))


def distance_barrier(arm, offset=0.025):
    """State barrier h = offset - d built from explicit linear weights."""
    w = np.zeros((1, arm.n_links + 1))
    w[0, -1] = -1.0
    return NeuralBarrier(Mlp((arm.n_links + 1, 1), [(w, np.array([offset]))]), arm, CbfHyper())


def hand_bundle(arm, margin=0.08):
    return ControllerBundle(barrier=HandcraftedBarrier(arm, margin=margin), observe=None)


class TestControllerBundle:
    @pytest.mark.parametrize("sim_hz, ctrl_hz", [(100, 30), (20, 30), (0, 30), (120, 0)])
    def test_rates_must_give_whole_substeps(self, arm, sim_hz, ctrl_hz):
        # a bundle takes its rates from its RolloutLimits: the same rule, and
        # message, as safe_rollout
        with pytest.raises(ValueError, match="integer multiple"):
            ControllerBundle(barrier=HandcraftedBarrier(arm), observe=None,
                             limits=RolloutLimits(sim_hz=sim_hz, ctrl_hz=ctrl_hz))

    def test_multiple_rates_accepted(self, arm):
        # a steer holds each control for the bundle's sim_hz / ctrl_hz substeps
        bundle = ControllerBundle(barrier=HandcraftedBarrier(arm), observe=None,
                                  limits=RolloutLimits(sim_hz=90, ctrl_hz=30))
        edge = steer_cbf_inc(Environment(), np.zeros(3), np.array([0.3, 0.0, 0.0]),
                             bundle, PlannerLimits(max_ctrl_steps=2), 0.1)
        assert len(edge.configs) == 1 + 2 * 3


class TestPlannerLimits:
    @pytest.mark.parametrize("field, value", [
        *((field, value) for field in ("step_size", "check_resolution")
          for value in (0.0, -0.02, np.nan, np.inf)),
        ("goal_bias", -0.1), ("goal_bias", 1.5), ("goal_bias", np.nan),
        ("stall_ticks", 0), ("stall_ticks", -1),
        ("max_nodes", -1), ("max_ctrl_steps", -1)])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlannerLimits(**{field: value})

    def test_boundary_values_accepted(self):
        for goal_bias in (0.0, 1.0):
            PlannerLimits(goal_bias=goal_bias, stall_ticks=1, max_nodes=0, max_ctrl_steps=0)


class TestSteerRolloutSwitch:
    """`SteerRollout.activation_after`: the tree size from which the
    rollout steer discards (the filtered-LQR steer)."""

    @staticmethod
    def discard_flags(arm, monkeypatch, activation_after):
        flags = []
        real = planner.steer_cbf_inc

        def spy(*args, discard=False):
            flags.append(discard)
            return real(*args, discard=discard)

        monkeypatch.setattr(planner, "steer_cbf_inc", spy)
        env = Environment(obstacles=(Obstacle(kind="circle", center=(5.0, 5.0), radius=0.1),))
        problem = PlanProblem(arm=arm, env=env, q0=np.zeros(3), qg=np.array([2.0, -1.5, 1.0]),
                              r_goal=0.1)
        res = rrt_plan(problem, SteerRollout(bundle=hand_bundle(arm),
                                             activation_after=activation_after),
                       PlannerLimits(max_nodes=12, max_ctrl_steps=5), np.random.default_rng(1))
        # in free space every steer adds a node: call k sees k + 1 nodes
        assert len(flags) == res.explored_nodes == res.tree_size - 1 > 4
        return flags

    def test_none_never_discards(self, arm, monkeypatch):
        assert not any(self.discard_flags(arm, monkeypatch, None))

    def test_zero_always_discards(self, arm, monkeypatch):
        assert all(self.discard_flags(arm, monkeypatch, 0))

    def test_switches_at_the_tree_size(self, arm, monkeypatch):
        flags = self.discard_flags(arm, monkeypatch, 4)
        assert flags == [False] * 3 + [True] * (len(flags) - 3)

    @pytest.mark.parametrize("activation_after", [-1, -30])
    def test_negative_rejected(self, arm, activation_after):
        with pytest.raises(ValueError, match="activation"):
            SteerRollout(bundle=hand_bundle(arm), activation_after=activation_after)


class TestSteerStraight:
    def test_free_segment_full_step(self, arm):
        edge = steer_straight(arm, Environment(), np.zeros(3), np.array([1.0, 0.0, 0.0]),
                              step_size=0.5, check_resolution=0.02)
        assert not edge.empty
        np.testing.assert_allclose(edge.endpoint, [0.5, 0.0, 0.0], atol=1e-12)

    def test_same_point_empty(self, arm):
        edge = steer_straight(arm, Environment(), np.ones(3), np.ones(3), 0.5, 0.02)
        assert edge.empty

    def test_truncation_matches_bisection_oracle(self, arm):
        env = blocked_env()
        q_from = np.zeros(3)
        q_toward = np.array([0.35, 0.0, 0.0])  # sweep ends inside the rectangle
        step = 0.35
        res = 0.005
        edge = steer_straight(arm, env, q_from, q_toward, step, res)
        assert not edge.empty
        # bisection oracle: first t where the sweep collides
        def collides(t):
            return signed_distance(env, arm, q_from + t * (q_toward - q_from)) < 0
        assert collides(1.0) and not collides(0.0)
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if collides(mid):
                hi = mid
            else:
                lo = mid
        t_edge = np.linalg.norm(edge.endpoint - q_from) / np.linalg.norm(q_toward - q_from)
        # truncated at the last valid sample before the crossing
        assert t_edge <= lo + 1e-12
        assert lo - t_edge <= res / np.linalg.norm(q_toward - q_from) + 1e-9

    def test_first_substep_blocked_empty(self, arm):
        env = Environment(obstacles=(Obstacle(kind="rect", center=(1.2, 0.0),
                                              half_extents=(0.3, 0.3)),))
        # already touching: any forward motion collides
        q_from = np.array([0.0, 0.0, 0.0])
        d0 = signed_distance(env, arm, q_from)
        assert d0 < 0.02
        edge = steer_straight(arm, env, q_from, np.array([0.0, -0.4, 0.0]), 0.02, 0.02)
        # either empty or a genuinely free single sample
        if not edge.empty:
            assert signed_distance(env, arm, edge.endpoint) >= 0


class TestSteerCbfInc:
    def test_empty_env_reaches_target(self, arm):
        bundle = hand_bundle(arm)
        target = np.array([0.6, -0.4, 0.3])
        edge = steer_cbf_inc(Environment(obstacles=(
            Obstacle(kind="circle", center=(4.0, 4.0), radius=0.1),)),
            np.zeros(3), target, bundle, PlannerLimits(max_ctrl_steps=90), 0.1)
        assert not edge.empty
        assert np.linalg.norm(edge.endpoint - target) <= 0.1 + 1e-9

    def test_deterministic(self, arm):
        bundle = hand_bundle(arm)
        env = blocked_env()
        limits = PlannerLimits(max_ctrl_steps=60)
        e1 = steer_cbf_inc(env, np.zeros(3), np.array([1.5, 0.2, -0.3]), bundle, limits, 0.1)
        e2 = steer_cbf_inc(env, np.zeros(3), np.array([1.5, 0.2, -0.3]), bundle, limits, 0.1)
        assert len(e1.configs) == len(e2.configs)
        for a, b in zip(e1.configs, e2.configs):
            np.testing.assert_array_equal(a, b)

    def test_stored_states_collision_free(self, arm):
        bundle = hand_bundle(arm, margin=0.02)
        env = blocked_env()
        rng = np.random.default_rng(1)
        for _ in range(10):
            start = sample_config(arm, rng)
            if signed_distance(env, arm, start) < 0:
                continue
            edge = steer_cbf_inc(env, start, sample_config(arm, rng), bundle,
                                 PlannerLimits(max_ctrl_steps=60), 0.1)
            for q in edge.configs:
                assert signed_distance(env, arm, q) >= 0


class TestSteerFilterLqr:
    def test_behaves_like_nominal_descent_in_free_space(self, arm):
        barrier = distance_barrier(arm)
        bundle = ControllerBundle(barrier=barrier, observe=None)
        env = Environment(obstacles=(Obstacle(kind="circle", center=(5.0, 5.0), radius=0.1),))
        target = np.array([0.5, 0.3, -0.4])
        edge = steer_filter_lqr(env, np.zeros(3), target, bundle, PlannerLimits(), 0.1)
        # pure nominal rollout for comparison
        policy = NominalPolicy()
        q = np.zeros(3)
        dt = 1.0 / 120
        expected = [q.copy()]
        for _ in range(90):
            if np.linalg.norm(q - target) <= 0.1:
                break
            u = policy.control(q, target, arm.action_lower, arm.action_upper)
            for _ in range(4):
                q = np.clip(q + u * dt, arm.lower, arm.upper)
                expected.append(q.copy())
        assert len(edge.configs) == len(expected)
        np.testing.assert_allclose(edge.configs[-1], expected[-1], atol=1e-12)

    def test_rejection_terminates_edge(self, arm):
        barrier = distance_barrier(arm, offset=0.2)  # h > 0 well before contact
        bundle = ControllerBundle(barrier=barrier, observe=None)
        env = blocked_env()
        edge = steer_filter_lqr(env, np.zeros(3), np.array([1.2, 0.4, 0.0]), bundle,
                                PlannerLimits(), 0.1)
        substeps = 4
        # edge length is an exact number of accepted ticks
        assert (len(edge.configs) - 1) % substeps == 0 or edge.empty

    def test_never_stores_h_positive_states(self, arm):
        barrier = distance_barrier(arm, offset=0.02)
        bundle = ControllerBundle(barrier=barrier, observe=None)
        env = blocked_env()
        rng = np.random.default_rng(2)
        for _ in range(5):
            start = sample_config(arm, rng)
            if signed_distance(env, arm, start) < 0.05:
                continue
            edge = steer_filter_lqr(env, start, sample_config(arm, rng), bundle,
                                    PlannerLimits(max_ctrl_steps=40), 0.1)
            # audit at tick boundaries (acceptance happens per tick)
            for q in edge.configs[::4][:-1]:
                h, _, _ = barrier.value_and_grad(q, None, env)
                assert h <= 0.0 + 1e-12


def reference_straight_rrt(problem, limits, rng):
    """Independent straight-line RRT written only from the documented
    sampling-order contract; returns (status, explored, node_configs)."""
    arm = problem.arm
    env = problem.env
    nodes = [np.asarray(problem.q0, float)]
    explored = 0
    goal = np.asarray(problem.qg, float)
    if np.linalg.norm(nodes[0] - goal) <= problem.r_goal:
        return "solved", 0, nodes

    def steer(q_from, q_to):
        delta = q_to - q_from
        dist = float(np.linalg.norm(delta))
        if dist == 0.0:
            return None
        frac = min(1.0, limits.step_size / dist)
        target = q_from + frac * delta
        n_checks = max(1, int(np.ceil(dist * frac / limits.check_resolution)))
        last = None
        for k in range(1, n_checks + 1):
            qk = q_from + (target - q_from) * (k / n_checks)
            if signed_distance(env, arm, qk) < 0:
                break
            last = qk
        return last

    while explored < limits.max_nodes:
        if rng.random() < limits.goal_bias:
            q_rand = goal
        else:
            q_rand = rng.uniform(arm.lower, arm.upper)
        dists = [np.linalg.norm(n - q_rand) for n in nodes]
        parent = int(np.argmin(dists))
        new = steer(nodes[parent], q_rand)
        explored += 1
        if new is None:
            continue
        nodes.append(new)
        if np.linalg.norm(new - goal) <= problem.r_goal:
            return "solved", explored, nodes
        if np.linalg.norm(new - goal) <= limits.connect_radius and explored < limits.max_nodes:
            conn = steer(new, goal)
            explored += 1
            if conn is not None:
                nodes.append(conn)
                if np.linalg.norm(conn - goal) <= problem.r_goal:
                    return "solved", explored, nodes
    return "node_limit", explored, nodes


class TestRrtPlan:
    def test_trivial_goal_nearby(self, arm):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(5.0, 5.0), radius=0.1),))
        problem = PlanProblem(arm=arm, env=env, q0=np.zeros(3), qg=np.array([0.3, 0.0, 0.0]),
                              r_goal=0.1)
        res = rrt_plan(problem, SteerStraightLine(), PlannerLimits(),
                       np.random.default_rng(0))
        assert res.status == "solved"
        assert res.explored_nodes <= 5

    def test_goal_in_collision_rejected(self, arm):
        env = blocked_env()
        qg = np.array([0.35, 0.0, 0.0])  # reaches into the rectangle
        assert signed_distance(env, arm, qg) < 0
        problem = PlanProblem(arm=arm, env=env, q0=np.zeros(3), qg=qg, r_goal=0.1)
        with pytest.raises(ValueError):
            rrt_plan(problem, SteerStraightLine(), PlannerLimits(), np.random.default_rng(0))

    @pytest.mark.parametrize("which", ["q0", "qg"])
    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (3.5, 0.0, 0.0),
                                     (0.0, 0.0, -2.9), (0.4,), (0.1, 0.0), (0.1, 0.0, 0.0, 0.0)])
    def test_a_non_finite_or_out_of_limits_endpoint_rejected(self, arm, which, bad):
        # a NaN start passed the collision check (its clearance is NaN) and
        # failed deep in the steer; a goal outside the limits was "solved"
        # by a path that left the joint box; one of the wrong length failed
        # inside the clearance call or the broadcast, naming no endpoint
        endpoints = {"q0": np.zeros(3), "qg": np.array([0.3, 0.0, 0.0]), which: np.array(bad)}
        problem = PlanProblem(arm=arm, env=Environment(), r_goal=0.1, **endpoints)
        name = "start" if which == "q0" else "goal"
        with pytest.raises(ValueError,
                           match=f"{name} configuration (must be finite and inside|has shape)"):
            rrt_plan(problem, SteerStraightLine(), PlannerLimits(), np.random.default_rng(0))

    @pytest.mark.parametrize("r_goal", [0.0, -0.1, np.nan, np.inf])
    def test_a_non_positive_or_non_finite_goal_radius_rejected(self, arm, r_goal):
        problem = PlanProblem(arm=arm, env=Environment(), q0=np.zeros(3),
                              qg=np.array([0.3, 0.0, 0.0]), r_goal=r_goal)
        with pytest.raises(ValueError, match="r_goal must be positive and finite"):
            rrt_plan(problem, SteerStraightLine(), PlannerLimits(), np.random.default_rng(0))

    def test_seed_determinism(self, arm):
        rng = np.random.default_rng(3)
        env = random_environment(EnvGenConfig(), rng)
        problem = PlanProblem(arm=arm, env=env, q0=np.zeros(3),
                              qg=np.array([1.5, -1.0, 0.5]), r_goal=0.1)
        r1 = rrt_plan(problem, SteerStraightLine(), PlannerLimits(), np.random.default_rng(7))
        r2 = rrt_plan(problem, SteerStraightLine(), PlannerLimits(), np.random.default_rng(7))
        d1 = r1.to_json()
        d2 = r2.to_json()
        d1.pop("planning_seconds")
        d2.pop("planning_seconds")
        assert d1 == d2

    def test_matches_reference_rrt_node_for_node(self, arm):
        limits = PlannerLimits(max_nodes=120)
        rng_envs = np.random.default_rng(4)
        matched = 0
        for trial in range(6):
            env = random_environment(EnvGenConfig(), rng_envs)
            q0 = _free_config(env, arm, rng_envs)
            qg = _free_config(env, arm, rng_envs)
            problem = PlanProblem(arm=arm, env=env, q0=q0, qg=qg, r_goal=0.1)
            res, tree = rrt_plan_with_tree(problem, SteerStraightLine(), limits,
                                           np.random.default_rng(100 + trial))
            status, explored, nodes = reference_straight_rrt(
                problem, limits, np.random.default_rng(100 + trial))
            assert res.status == status
            assert res.explored_nodes == explored
            assert len(tree) == len(nodes)
            for ours, ref in zip(tree.nodes, nodes):
                np.testing.assert_allclose(ours.config, ref, atol=1e-12)
            matched += 1
        assert matched == 6

    def test_explored_at_least_nodes_minus_one(self, arm):
        rng = np.random.default_rng(5)
        env = random_environment(EnvGenConfig(num_obstacles=6), rng)
        q0 = _free_config(env, arm, rng)
        qg = _free_config(env, arm, rng)
        res, tree = rrt_plan_with_tree(
            PlanProblem(arm=arm, env=env, q0=q0, qg=qg, r_goal=0.1), SteerStraightLine(),
            PlannerLimits(max_nodes=80), np.random.default_rng(6))
        assert res.explored_nodes >= len(tree) - 1

    def test_path_concatenation_consistent(self, arm):
        rng = np.random.default_rng(8)
        env = random_environment(EnvGenConfig(), rng)
        q0 = _free_config(env, arm, rng)
        qg = _free_config(env, arm, rng)
        res = rrt_plan(PlanProblem(arm=arm, env=env, q0=q0, qg=qg, r_goal=0.1), SteerStraightLine(),
                       PlannerLimits(), np.random.default_rng(9))
        if res.status == "solved":
            np.testing.assert_allclose(res.path[0], q0)
            assert np.linalg.norm(res.path[-1] - qg) <= 0.1
            json_round = PlanResult.from_json(res.to_json())
            assert json_round.status == res.status
            np.testing.assert_allclose(np.stack(json_round.path), np.stack(res.path))


def _free_config(env, arm, rng):
    while True:
        q = sample_config(arm, rng)
        if signed_distance(env, arm, q) > 0.05:
            return q


class TestValidateAndTruncate:
    def test_one_geometry_query_per_edge(self, arm, monkeypatch):
        import cbfsteer.planner as planner

        calls = []
        real = planner.signed_distance_batch

        def counting(env, arm_, qs):
            calls.append(len(qs))
            return real(env, arm_, qs)

        monkeypatch.setattr(planner, "signed_distance_batch", counting)
        configs = [np.zeros(3), np.array([0.05, 0.0, 0.0]), np.array([0.1, 0.0, 0.0])]
        assert len(validate_and_truncate(Environment(), arm, configs, 0.02)) == 3
        assert calls == [1 + 3 + 3]  # the start plus each segment's ladder

    def test_skip_mask_needs_one_entry_per_waypoint(self, arm):
        configs = [np.zeros(3), np.array([0.05, 0.0, 0.0])]
        for skip in ([], [False], [False] * 3):
            with pytest.raises(ValueError, match="skip mask"):
                validate_and_truncate(Environment(), arm, configs, 0.02, skip=skip)

    def test_skip_mask_leaves_out_whole_segments(self, arm, monkeypatch):
        # waypoint 0 is the start row; waypoint w owns the ladder of the
        # segment that ends at it
        calls = []
        recording(monkeypatch, "signed_distance_batch", calls)
        configs = [np.zeros(3), np.array([0.05, 0.0, 0.0]), np.array([0.1, 0.0, 0.0])]
        validate_and_truncate(Environment(), arm, configs, 0.02)
        (_, _, full), _, _ = calls.pop()
        cases = [([True, False, False], full[1:]),
                 ([False, True, False], np.concatenate([full[:1], full[4:]])),
                 ([True, True, False], full[4:]),
                 ([False] * 3, full)]
        for skip, rows in cases:
            assert validate_and_truncate(Environment(), arm, configs, 0.02, skip=skip) == configs
            (_, _, got), _, _ = calls.pop()
            assert got.tobytes() == rows.tobytes()
        # nothing left to check: no geometry call
        assert validate_and_truncate(Environment(), arm, configs, 0.02, skip=[True] * 3) == configs
        assert validate_and_truncate(Environment(), arm, configs[:1], 0.02,
                                     skip=[True]) == configs[:1]
        assert calls == []

    def test_colliding_start_gives_empty_prefix(self, arm):
        env = Environment(obstacles=(
            Obstacle(kind="circle", center=(0.25, 0.0), radius=0.1),))
        configs = [np.zeros(3), np.array([0.0, 0.0, 1.0])]
        assert signed_distance(env, arm, configs[0]) < 0
        assert validate_and_truncate(env, arm, configs, 0.02) == []
        assert validate_and_truncate(env, arm, configs[:1], 0.02) == []

    def test_truncates_before_first_colliding_waypoint(self, arm):
        env = blocked_env()
        rng = np.random.default_rng(12)
        configs = [np.zeros(3)]
        for _ in range(12):
            configs.append(configs[-1] + rng.uniform(-0.2, 0.3, 3))
        kept = validate_and_truncate(env, arm, configs, 0.02)
        # the kept prefix is the longest one whose ladders are all free
        for w in range(1, len(configs)):
            seg_free = all(
                signed_distance(env, arm, configs[w - 1] + (configs[w] - configs[w - 1]) * s) >= 0
                for s in np.linspace(0.0, 1.0, 200))
            if not seg_free:
                assert len(kept) <= w
                break
        assert len(kept) >= 1


def loop_ladder(configs, check_resolution):
    """The check-point ladder built one point at a time, start included,
    with the waypoint each point belongs to."""
    check_pts = [np.asarray(configs[0], float)]
    owner = [0]
    for w, nxt in enumerate(configs[1:], start=1):
        prev = np.asarray(configs[w - 1], float)
        seg = np.asarray(nxt, float) - prev
        dist = float(np.linalg.norm(seg))
        n_checks = max(1, int(np.ceil(dist / check_resolution)))
        for k in range(1, n_checks + 1):
            check_pts.append(prev + seg * (k / n_checks))
            owner.append(w)
    return np.stack(check_pts), owner


def ladder_edges(seed, count):
    """Random waypoint lists: single waypoints, repeated (zero-length)
    segments, and on a binary grid, segments whose length is an exact
    multiple of the resolution (axis steps and 3-4-5 steps)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        grid = rng.random() < 0.4
        res = float(rng.choice([0.0625, 0.125] if grid else [0.02, 0.05]))
        configs = [rng.integers(-32, 32, n) / 16.0 if grid else rng.uniform(-2.0, 2.0, n)]
        for _ in range(int(rng.integers(0, 8))):
            step = np.zeros(n)
            i, j = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.2:
                pass  # zero length
            elif grid and rng.random() < 0.5:
                step[i] = res * int(rng.integers(1, 6)) * rng.choice([-1, 1])
            elif grid:
                step[i], step[j] = 3 * res * rng.choice([-1, 1]), 4 * res * rng.choice([-1, 1])
            else:
                step = rng.normal(scale=rng.choice([0.01, 0.1, 0.5]), size=n)
            configs.append(configs[-1] + step)
        yield configs, res


def segment_lengths(configs):
    return [float(np.linalg.norm(b - a)) for a, b in zip(configs, configs[1:])]


class TestLadderOracle:
    """The array ladder of validate_and_truncate against the loop it
    replaced: the same check points, owners and truncation, bit for bit."""

    def test_random_edges(self, monkeypatch):
        arms = {n: ArmModel(link_lengths=(0.3,) * n) for n in range(2, 6)}
        seen_zero = seen_exact = seen_single = 0
        for configs, res in ladder_edges(70, 400):
            ref_pts, ref_owner = loop_ladder(configs, res)
            lengths = segment_lengths(configs)
            seen_single += len(configs) == 1
            seen_zero += 0.0 in lengths
            seen_exact += any(d > 0 and (d / res).is_integer() and d / res > 1 for d in lengths)
            for first_bad in [None, *range(len(ref_owner))]:
                queries = []

                def fake(env, arm_, qs, first_bad=first_bad):
                    queries.append(np.array(qs))
                    d = np.ones(len(qs))
                    if first_bad is not None:
                        d[first_bad:] = -1.0
                    return d

                monkeypatch.setattr(planner, "signed_distance_batch", fake)
                kept = validate_and_truncate(Environment(), arms[len(configs[0])], configs, res)
                assert len(queries) == 1 and queries[0].tobytes() == ref_pts.tobytes()
                expect = len(configs) if first_bad is None else ref_owner[first_bad]
                assert len(kept) == expect
                assert all(k is c for k, c in zip(kept, configs))
        assert seen_zero > 20 and seen_exact > 20 and seen_single > 20

    def test_non_finite_waypoint_rejected(self, arm):
        configs = [np.zeros(3), np.array([0.1, np.nan, 0.0])]
        with pytest.raises(ValueError, match="finite"):
            validate_and_truncate(Environment(), arm, configs, 0.02)


class TestEdgeSafetyContract:
    @pytest.mark.parametrize("kind", ["straight", "hand", "cbf", "filter"])
    def test_all_stored_edges_validate(self, arm, kind):
        rng = np.random.default_rng(10)
        env = random_environment(EnvGenConfig(num_obstacles=5), rng)
        q0 = _free_config(env, arm, rng)
        qg = _free_config(env, arm, rng)
        limits = PlannerLimits(max_nodes=40)
        if kind == "straight":
            steer = SteerStraightLine()
        elif kind == "hand":
            steer = SteerRollout(bundle=hand_bundle(arm))
        elif kind == "cbf":
            steer = SteerRollout(bundle=ControllerBundle(
                barrier=distance_barrier(arm), observe=None))
        else:
            steer = SteerRollout(bundle=ControllerBundle(
                barrier=distance_barrier(arm), observe=None), activation_after=20)
        res, tree = rrt_plan_with_tree(
            PlanProblem(arm=arm, env=env, q0=q0, qg=qg, r_goal=0.1), steer, limits,
            np.random.default_rng(11))
        checked = 0
        for node in tree.nodes[1:]:
            kept = validate_and_truncate(env, arm, node.edge.configs, limits.check_resolution)
            assert len(kept) == len(node.edge.configs)
            checked += 1
        assert checked == len(tree) - 1

    def test_monotone_growth_and_acyclic(self, arm):
        rng = np.random.default_rng(12)
        env = random_environment(EnvGenConfig(), rng)
        q0 = _free_config(env, arm, rng)
        qg = _free_config(env, arm, rng)
        res, tree = rrt_plan_with_tree(
            PlanProblem(arm=arm, env=env, q0=q0, qg=qg, r_goal=0.1), SteerStraightLine(),
            PlannerLimits(max_nodes=60), np.random.default_rng(13))
        for i, node in enumerate(tree.nodes):
            assert node.parent < i  # parents precede children: acyclic


def assert_same_edge(got, ref):
    """Edges equal bit for bit: every config and every control."""
    assert len(got.configs) == len(ref.configs)
    assert len(got.controls) == len(ref.controls)
    assert np.asarray(got.configs).tobytes() == np.asarray(ref.configs).tobytes()
    assert np.asarray(got.controls).tobytes() == np.asarray(ref.controls).tobytes()


def cloud_bundle(arm, env, rng):
    w = 4 + arm.n_links
    enc = PointSetEncoder.create(arm.n_links, per_point_widths=(w, 5, 4), trunk_widths=(w, 5, 1),
                                 rng=rng)
    barrier = NeuralBarrier(enc, arm, CbfHyper())
    cloud = sample_surface_points(env, 24, rng)
    return ControllerBundle(barrier=barrier, observe=lambda env, arm, q: cloud)


class TestSteerOracle:
    """Rollout steers against the loops with the tick and the hold written
    out (`rollout_oracle`), bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_worlds(self, arm, seed):
        rng = np.random.default_rng(700 + seed)
        env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")), rng)
        bundles = {
            "hand": hand_bundle(arm, margin=0.15),
            "state": ControllerBundle(barrier=distance_barrier(arm, offset=0.05), observe=None,
                                      qp_cfg=SafeControllerConfig(mode=QpMode.STRICT)),
            "cloud": cloud_bundle(arm, env, rng),
        }
        limits = PlannerLimits(max_ctrl_steps=30)
        pairs = [(steer, ref) for steer, ref in (
            (steer_cbf_inc, rollout_oracle.rollout_edge),
            (steer_filter_lqr, rollout_oracle.steer_filter_lqr))]
        for _ in range(4):
            q_from = _free_config(env, arm, rng)
            q_toward = sample_config(arm, rng)
            for bundle in bundles.values():
                for steer, ref in pairs:
                    args = (env, q_from, q_toward, bundle, limits, 0.1)
                    assert_same_edge(steer(*args), ref(*args))

    def test_stall_exits(self, arm):
        # a tiny goal ball right next to the start: the controls fall below
        # the stall threshold before the rollout arrives
        env = Environment(obstacles=(Obstacle(kind="circle", center=(4.0, 4.0), radius=0.1),))
        limits = PlannerLimits()
        q_toward = np.full(3, 2e-4)
        for steer, ref in ((steer_cbf_inc, rollout_oracle.rollout_edge),
                           (steer_filter_lqr, rollout_oracle.steer_filter_lqr)):
            args = (env, np.zeros(3), q_toward, hand_bundle(arm), limits, 1e-5)
            edge = ref(*args)
            assert 0 < len(edge.controls) < 90
            assert np.linalg.norm(edge.endpoint - q_toward) > 1e-5
            assert_same_edge(steer(*args), edge)

    def test_rejection_and_truncation_exits(self, arm):
        env = blocked_env()
        limits = PlannerLimits()
        target = np.array([1.2, 0.4, 0.0])
        # the first tick that fails h <= 0 or the derivative condition ends it
        bundle = ControllerBundle(barrier=distance_barrier(arm, offset=0.2), observe=None)
        args = (env, np.array([-0.8, 0.0, 0.0]), target, bundle, limits, 0.1)
        edge = rollout_oracle.steer_filter_lqr(*args)
        assert 0 < len(edge.controls) < 90 and not edge.empty
        assert_same_edge(steer_filter_lqr(*args), edge)
        # a barrier that barely filters drives into the rectangle: the edge
        # is cut at the last collision-free state
        loose = ControllerBundle(barrier=HandcraftedBarrier(arm, margin=0.0), observe=None,
                                 qp_cfg=SafeControllerConfig(relax_penalty=1e-4))
        args = (env, np.zeros(3), target, loose, limits, 0.1)
        edge = rollout_oracle.rollout_edge(*args)
        # short of the target with full-speed controls: neither goal, stall
        # nor the tick budget ended it
        assert 0 < len(edge.controls) < 90
        assert np.linalg.norm(edge.controls[-1]) > 0.1
        assert np.linalg.norm(edge.endpoint - target) > 0.1
        assert_same_edge(steer_cbf_inc(*args), edge)

    def test_filter_lqr_plan_with_activation_switch(self, arm, monkeypatch):
        # whole plans, switching from filtered rollouts to discard-style
        # steering at node 3, equal those built from the reference steers
        rng = np.random.default_rng(22)
        env = random_environment(EnvGenConfig(num_obstacles=5), rng)
        problem = PlanProblem(arm=arm, env=env, q0=_free_config(env, arm, rng),
                              qg=_free_config(env, arm, rng), r_goal=0.1)
        steer = SteerRollout(bundle=hand_bundle(arm), activation_after=3)
        limits = PlannerLimits(max_nodes=30, max_ctrl_steps=30)
        res, tree = rrt_plan_with_tree(problem, steer, limits, np.random.default_rng(23))

        def reference_steer(*args, discard=False):
            ref = rollout_oracle.steer_filter_lqr if discard else rollout_oracle.rollout_edge
            return ref(*args)

        monkeypatch.setattr(planner, "steer_cbf_inc", reference_steer)
        ref, ref_tree = rrt_plan_with_tree(problem, steer, limits, np.random.default_rng(23))
        assert len(tree) > 3 + 1  # nodes added on both sides of the switch
        assert (res.status, res.explored_nodes) == (ref.status, ref.explored_nodes)
        assert len(tree) == len(ref_tree)
        for node, ref_node in zip(tree.nodes[1:], ref_tree.nodes[1:]):
            assert node.parent == ref_node.parent
            assert_same_edge(node.edge, ref_node.edge)


SUBSTEPS = 4  # the default rates: 120 Hz simulation, 30 Hz control


def rollout_into_contact(env, arm, rng):
    """A constant-control rollout from a free configuration toward a colliding
    one, held at the default rates, that ends past the first contact."""
    while True:
        q_free, q_hit = sample_config(arm, rng), sample_config(arm, rng)
        if signed_distance(env, arm, q_free) > 0.0 and signed_distance(env, arm, q_hit) < 0.0:
            break
    u = np.clip(q_hit - q_free, arm.action_lower, arm.action_upper)
    configs = [q_free]
    extra = int(rng.integers(0, 3))  # ticks past the first contact
    for _ in range(90):
        configs.extend(hold(arm, configs[-1], u, SUBSTEPS, 1.0 / 120))
        extra -= signed_distance(env, arm, configs[-1]) < 0.0
        if extra < 0:
            break
    return configs


def recording(monkeypatch, name, log, module=planner):
    """Replace module.<name> with a wrapper that logs its calls."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, spy)


class TestSplitValidation:
    """Validating a prefix, then the whole list with the prefix's waypoints
    marked known free, equals one validation of the whole list: the same kept
    prefix, from the same rows."""

    def test_every_split_point(self, arm, monkeypatch):
        rng = np.random.default_rng(31)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        lists = []
        for _ in range(12):
            configs = [_free_config(env, arm, rng)]
            for _ in range(int(rng.integers(1, 12))):
                configs.append(configs[-1] + rng.normal(scale=0.15, size=arm.n_links))
            lists.append(configs)
        lists += [rollout_into_contact(env, arm, rng) for _ in range(12)]
        calls = []
        recording(monkeypatch, "signed_distance_batch", calls)
        cut_first = cut_rest = whole = 0
        for configs in lists:
            calls.clear()
            one = validate_and_truncate(env, arm, configs, 0.02)
            (_, _, one_rows), _, _ = calls.pop()
            for s in range(1, len(configs)):
                kept = validate_and_truncate(env, arm, configs[:s + 1], 0.02)
                if len(kept) == s + 1:
                    known = [True] * (s + 1) + [False] * (len(configs) - s - 1)
                    kept = validate_and_truncate(env, arm, configs, 0.02, skip=known)
                    cut_rest += len(kept) < len(configs)
                    whole += len(kept) == len(configs)
                else:
                    cut_first += 1
                assert len(kept) == len(one) and all(k is c for k, c in zip(kept, one))
                rows = np.concatenate([qs for (_, _, qs), _, _ in calls])
                calls.clear()
                # the rows checked are the one call's, in order, the split
                # waypoint once; a cut first call checks a prefix of them
                assert rows.tobytes() == one_rows[:len(rows)].tobytes()
                assert len(rows) == len(one_rows) or len(kept) < s + 1
        assert cut_first > 20 and cut_rest > 20 and whole > 20

    def test_nothing_after_the_start(self, arm):
        configs = [np.zeros(3), np.array([0.05, 0.0, 0.0])]
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.25, 0.0), radius=0.1),))
        assert validate_and_truncate(env, arm, configs, 0.02) == []
        # every waypoint is known free already: nothing is left to check
        assert validate_and_truncate(env, arm, configs, 0.02, skip=[True, True]) == configs


def loose_bundles(arm, env, rng):
    """Barriers that let a near-contact steer collide at once, with or without
    discarding: h <= 0 at the start and a large class-K gain, so the safety
    constraint of the nominal action is rarely active."""
    loose = CbfHyper(alpha_h=1e3)
    state = distance_barrier(arm, offset=0.0)
    cloud = cloud_bundle(arm, env, rng)
    net = cloud.barrier.net  # the barrier's own copy refuses a new layer: build a shifted one
    w, b = net.trunk.params[-1]
    shifted = replace(net, trunk=replace(net.trunk, params=(*net.trunk.params[:-1], (w, b - 10.0))))
    return {
        "hand": ControllerBundle(barrier=HandcraftedBarrier(arm, margin=0.0, hyper=loose),
                                 observe=None),
        "state": ControllerBundle(barrier=NeuralBarrier(state.net, arm, loose), observe=None),
        "cloud": ControllerBundle(barrier=NeuralBarrier(shifted, arm, loose),
                                  observe=cloud.observe),
    }


def skipped_rows(checked, full):
    """The rows of `full` (one validation's rows) left out of `checked` (the
    arrays of the calls a steer made), which must be a subsequence of them."""
    checked = [row.tobytes() for qs in checked for row in qs]
    i = 0
    skipped = []
    for row in full:
        if i < len(checked) and row.tobytes() == checked[i]:
            i += 1
        else:
            skipped.append(row)
    assert i == len(checked)
    return np.array(skipped).reshape(-1, full.shape[1])


class TestEarlyStop:
    """A steer whose first tick's states already cut the edge runs no further
    tick, one that runs no tick checks nothing, and each edge equals the
    one-validation oracle's."""

    @over_links("kind, discard",
                [(k, d) for k in ("hand", "state", "cloud") for d in (False, True)])
    def test_near_contact_starts(self, monkeypatch, kind, discard, links):
        arm = ARMS[links]
        rng = np.random.default_rng(41)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        bundle = loose_bundles(arm, env, rng)[kind]
        ref_steer = rollout_oracle.steer_filter_lqr if discard else rollout_oracle.rollout_edge
        limits = PlannerLimits(max_ctrl_steps=30)
        ticks, validations, clearances, oracle_validations = [], [], [], []
        recording(monkeypatch, "control_tick", ticks, controller)  # the tick loop's lookup
        recording(monkeypatch, "validate_and_truncate", validations)
        recording(monkeypatch, "signed_distance_batch", clearances)
        recording(monkeypatch, "validate_and_truncate", oracle_validations, rollout_oracle)
        cut_at_once = no_tick = 0
        for q_from, q_toward in contact_pairs(env, arm, rng, 12):
            args = (env, q_from, q_toward, bundle, limits, 0.1)
            ref = ref_steer(*args)
            ticks.clear()
            validations.clear()
            clearances.clear()
            edge = steer_cbf_inc(*args, discard=discard)
            if len(oracle_validations[-1][0][2]) == 1:  # the oracle's rollout ran no tick
                # nor did the steer: it checked nothing and its edge is q_from
                no_tick += 1
                assert not validations and not clearances
                assert np.asarray(edge.configs).tobytes() == np.asarray([q_from], float).tobytes()
                assert_same_edge(edge, ref)
                continue
            # the steer checked the unproven rows of one validation of its
            # rollout, in order, once (a steer that checked nothing kept it all)
            steer_rows = [qs for (_, _, qs), _, _ in clearances]
            clearances.clear()
            rollout = validations[-1][0][2] if validations else edge.configs
            validate_and_truncate(env, arm, rollout, limits.check_resolution)
            skipped = skipped_rows(steer_rows, clearances[0][0][2])
            assert np.all(signed_distance_batch(env, arm, skipped) >= 0.0)
            assert kind != "cloud" or not len(skipped)  # a cloud net reads no clearance
            assert_same_edge(edge, ref)
            # (the log holds the steer's own list, as it was when the steer returned)
            (first_args, first_kwargs, first_kept), *rest = validations
            if len(first_args[2]) == SUBSTEPS + 1 and len(first_kept) <= SUBSTEPS:
                cut_at_once += 1
                assert not first_kwargs and not rest  # one validation, from waypoint 0
                assert len(ticks) == 1
                assert len(edge.configs) <= SUBSTEPS and len(edge.controls) <= 1
        assert 3 <= cut_at_once < 12  # and some steers run on past tick 1
        assert no_tick == (links == 7)  # one 7-link start lies within r_goal of its target


class TestProvenTicks:
    """Hand-barrier and state-net steers leave out the ticks their clearance
    readings prove free, and their edges still equal the one-validation
    oracles' bit for bit, in free space and near contact, at both arms of
    `ARMS`."""

    @over_links("seed", range(2))
    def test_equal_to_the_oracles(self, monkeypatch, seed, links):
        arm = ARMS[links]
        rng = np.random.default_rng(900 + seed)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        limits = PlannerLimits(max_ctrl_steps=30)
        pairs = [(_free_config(env, arm, rng), sample_config(arm, rng)) for _ in range(6)]
        pairs += contact_pairs(env, arm, rng, 6)
        validations, clearances = [], []
        recording(monkeypatch, "validate_and_truncate", validations)
        recording(monkeypatch, "signed_distance_batch", clearances)
        # steers by (barrier kind, whether they validated anything): each
        # kind proves some rollouts whole and checks others; and by kind, the
        # steers whose proofs left rows of one validation of the rollout out
        counts = dict.fromkeys([(k, v) for k in ("hand", "state") for v in (False, True)], 0)
        left_out = dict.fromkeys(("hand", "state"), 0)
        state = NeuralBarrier(Mlp.create((arm.n_links + 1, 16, 16, 1),
                                         np.random.default_rng(950 + seed)), arm, CbfHyper())
        for kind, bundle in (("hand", hand_bundle(arm, margin=0.0)),
                             ("hand", hand_bundle(arm, margin=HAND_MARGIN[links])),
                             ("state", ControllerBundle(barrier=state, observe=None))):
            for q_from, q_toward in pairs:
                for steer, ref in ((steer_cbf_inc, rollout_oracle.rollout_edge),
                                   (steer_filter_lqr, rollout_oracle.steer_filter_lqr)):
                    args = (env, q_from, q_toward, bundle, limits, 0.1)
                    validations.clear()
                    clearances.clear()
                    edge = steer(*args)
                    counts[kind, bool(validations)] += 1
                    steer_rows = [qs for (_, _, qs), _, _ in clearances]
                    rollout = validations[-1][0][2] if validations else edge.configs
                    assert_same_edge(edge, ref(*args))
                    clearances.clear()
                    validate_and_truncate(env, arm, rollout, limits.check_resolution)
                    skipped = skipped_rows(steer_rows, clearances[0][0][2])
                    assert np.all(signed_distance_batch(env, arm, skipped) >= 0.0)
                    left_out[kind] += len(skipped) > 0
        if links == 3:
            assert counts["hand", False] >= 10 and counts["hand", True] >= 10
            assert counts["state", False] >= 4 and counts["state", True] >= 4
        # a 7-link tick at full speed can move more than the arm's clearance
        # cap, so few of its rollouts are proven whole, but ticks still are
        assert left_out["hand"] >= 5 and left_out["state"] >= 2

    def test_an_inflated_reading_fails_the_oracle(self, arm):
        # slow approaches into contact move less than 1e-3 a tick, so a
        # reading 1e-3 too high proves the tick that collides, and the edge
        # keeps its states: the oracle comparison catches the unsound proof
        rng = np.random.default_rng(41)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        honest = ControllerBundle(barrier=HandcraftedBarrier(arm, 0.0, CbfHyper(alpha_h=1e3)),
                                  observe=None)
        inflated = replace(honest, barrier=InflatedReading(honest.barrier))
        limits = PlannerLimits(stall_threshold=1e-9)
        failed = 0
        for q_from, q_hit in contact_pairs(env, arm, rng, 4):
            q_toward = q_from + 0.01 * (q_hit - q_from) / np.linalg.norm(q_hit - q_from)
            ref = rollout_oracle.rollout_edge(env, q_from, q_toward, honest, limits, 1e-6)
            assert_same_edge(steer_cbf_inc(env, q_from, q_toward, honest, limits, 1e-6), ref)
            edge = steer_cbf_inc(env, q_from, q_toward, inflated, limits, 1e-6)
            try:
                assert_same_edge(edge, ref)
            except AssertionError:
                failed += 1
                assert min(signed_distance_batch(env, arm, np.array(edge.configs))) < 0.0
        assert failed >= 2

    def test_outside_start_bounded_by_its_own_motion(self, arm, monkeypatch):
        # hold's first step clamps a start outside the limits onto them, a
        # jump that tick 1's motion bound includes: the tick is proven when
        # the clearance at its start exceeds that motion, and checked otherwise
        validations = []
        recording(monkeypatch, "validate_and_truncate", validations)
        upper = arm.joint_upper[0]
        angle = upper + 0.05  # a circle that the clamp from upper + 0.3 sweeps through
        circle = Environment(obstacles=(Obstacle(kind="circle", radius=0.05, center=(
            math.cos(angle), math.sin(angle))),))
        # the largest motion of a tick without a clamp: a clearance above it
        # would prove tick 1 under a bound that left the clamp jump out
        most = SUBSTEPS / 120 * sum(arm.joint_reach)
        cases = [(Environment(), 0.1, "proven"), (Environment(), 0.3, "checked"),
                 (circle, 0.3, "cut")]
        for env, jump, expected in cases:
            q_from = np.array([upper + jump, 0.0, 0.0])
            jump_move = arm.joint_reach[0] * jump
            d = signed_distance(env, arm, q_from)
            assert (d > jump_move + most) if expected == "proven" else (most < d < jump_move)
            args = (env, q_from, np.zeros(3), hand_bundle(arm), PlannerLimits(), 0.1)
            validations.clear()
            edge = steer_cbf_inc(*args)
            assert_same_edge(edge, rollout_oracle.rollout_edge(*args))
            if expected == "proven":
                assert validations == [] and len(edge.controls) > 1
            elif expected == "checked":
                assert len(validations[0][2]) == SUBSTEPS + 1  # tick 1's states, kept
            else:  # the clamp into the circle collides: tick 1's check cuts the edge
                assert len(validations) == 1 and len(validations[0][0][2]) == SUBSTEPS + 1
                assert edge.empty


def cloud_plan_setting(seed, count=4):
    """The benchmark's plan settings (8 obstacles, a 16-node budget, 30-tick
    steers), `count` generated problems and a cloud net of the default
    widths: (config, arm, problems, barrier hyperparameters, net)."""
    cfg = load_config()
    cfg["env_gen"].update(num_obstacles=8, shapes=["rect", "circle"])
    cfg["planner"].update(max_nodes=16, max_ctrl_steps=30)
    arm = make_arm(cfg)
    clearance = cfg["hyper"]["r_thres"] * cfg["bench"]["clearance_factor"]
    rng = np.random.default_rng(seed)
    problems = bench.gen_problems(make_env_gen(cfg), count, rng, arm, clearance)
    net = PointSetEncoder.create(arm.n_links, *cloud_widths(cfg, arm), rng=rng)
    return cfg, arm, problems, make_hyper(cfg), net


class TestCloudPlanOracle:
    """RRT with a cbf-cloud steer plans the same with the cloud barrier's own
    one-sample path as with the training pass it replaced
    (`rollout_oracle.OneSampleBarrier`): status, explored nodes, and every
    stored edge and plan (`plan_fingerprint`), bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plans(self, seed):
        cfg, arm, problems, hyper, net = cloud_plan_setting(seed)
        method = {"name": "cbf-cloud", "checkpoint": "net"}
        runs = [plan_fingerprint.plan_queries(problems, method, cfg, seed, {"net": barrier}, arm)
                for barrier in (NeuralBarrier(net, arm, hyper),
                                rollout_oracle.OneSampleBarrier(net, arm, hyper))]
        for (got, _), (ref, _) in zip(*runs):
            assert (got.status, got.explored_nodes, got.tree_size) == (
                ref.status, ref.explored_nodes, ref.tree_size)
        assert plan_fingerprint.fingerprint(runs[0]) == plan_fingerprint.fingerprint(runs[1])
        assert sum(len(tree.nodes) - 1 for _, tree in runs[0]) > 2 * len(problems)

    def test_the_fingerprint_sees_one_ulp(self):
        cfg, arm, problems, hyper, net = cloud_plan_setting(2, count=2)
        runs = plan_fingerprint.plan_queries(problems, {"name": "hand-cbf"}, cfg, 0, {}, arm)
        before = plan_fingerprint.fingerprint(runs)
        edge = next(node.edge for _, tree in runs for node in tree.nodes[1:] if node.edge.controls)
        edge.controls[0] = np.nextafter(edge.controls[0], np.inf)
        after = plan_fingerprint.fingerprint(runs)
        assert after["edges"] != before["edges"] and after["plans"] == before["plans"]


class TestMovingProblems:
    """Planning keeps a problem's time-0 snapshot: a problem whose obstacles
    move plans as its still copy, every stored edge and plan bit for bit."""

    @pytest.mark.parametrize("method", ["hand-cbf", "cbf-state", "cbf-cloud", "filter-lqr"])
    def test_plans_as_its_still_copy(self, method):
        # steers stepped the world they plan in, so every tick after the
        # first read obstacles that validation never saw
        cfg, arm, still, hyper, net = cloud_plan_setting(5, count=3)
        moving = bench.dynamicize_problems(still, 0.3, np.random.default_rng(6))
        state = NeuralBarrier(Mlp.create((arm.n_links + 1, 16, 16, 1), np.random.default_rng(7)),
                              arm, hyper)
        barriers = {"cloud": NeuralBarrier(net, arm, hyper), "state": state}
        spec = {"name": method, **({} if method == "hand-cbf" else
                                   {"checkpoint": "cloud" if method == "cbf-cloud" else "state"})}
        runs = [plan_fingerprint.plan_queries(problems, spec, cfg, 0, barriers, arm)
                for problems in (still, moving)]
        assert all(p.environment.is_dynamic for p in moving)
        assert plan_fingerprint.fingerprint(runs[1]) == plan_fingerprint.fingerprint(runs[0])
        assert sum(len(tree.nodes) - 1 for _, tree in runs[0]) > len(still)
