"""The fused clearance kernel behind `signed_distance_batch`, held to the
reference composition in geometry_oracle: property tests over random worlds,
arms and batches, row blocks, and explicit edge cases (axis-parallel links,
touching and tangent contacts, a link inside a rectangle, self crossings,
empty worlds). The kernel's early-outs are held to the kernel with both
reaches at +inf, where every pass runs: bit for bit, on scenes, at their
thresholds, and through a plan and a rollout; a rollout's ladder checked in
two calls equals it checked in one; and the two lemmas get property tests of
their own."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbfsteer import bench, config, geometry, planner
from cbfsteer.cbf import HandcraftedBarrier
from cbfsteer.controller import ControllerBundle, RolloutLimits, safe_rollout
from cbfsteer.environment import (
    ROW_BLOCK,
    EnvGenConfig,
    Environment,
    Obstacle,
    Workspace,
    random_environment,
    signed_distance,
    signed_distance_batch,
    signed_distance_stepped,
)
from cbfsteer.kinematics import ArmModel, batch_joint_positions, joint_positions, sample_config

import geometry_oracle
from geometry_oracle import point_segment_distance
from test_controller import assert_same_record
from test_planner import SUBSTEPS, rollout_into_contact

HALF_PI = np.pi / 2

coords = st.floats(-1.5, 1.5, allow_nan=False)
sizes = st.floats(0.02, 0.5, allow_nan=False)
# axis-parallel angles often, so links run along x or y
angles = st.one_of(st.sampled_from([0.0, HALF_PI, -HALF_PI, np.pi]),
                   st.floats(-3.2, 3.2, allow_nan=False))


@st.composite
def obstacles(draw):
    center = (draw(coords), draw(coords))
    if draw(st.booleans()):
        return Obstacle(kind="rect", center=center, half_extents=(draw(sizes), draw(sizes)))
    return Obstacle(kind="circle", center=center, radius=draw(sizes))


@st.composite
def scenes(draw):
    lengths = draw(st.lists(st.floats(0.1, 0.6, allow_nan=False), min_size=2, max_size=5))
    arm = ArmModel(link_lengths=tuple(lengths), link_radius=draw(st.floats(0.01, 0.08)))
    env = Environment(obstacles=tuple(draw(st.lists(obstacles(), max_size=6))))
    rows = draw(st.lists(st.lists(angles, min_size=arm.n_links, max_size=arm.n_links),
                         min_size=1, max_size=6))
    return env, arm, np.array(rows, dtype=float)


def assert_matches_oracle(env, arm, qs):
    """Equal within 1e-12, and of equal sign wherever the reference is further
    than that from zero. At an exact contact the clearance is 0 and its sign
    is roundoff: the two kernels round differently and may differ by an ulp
    (see test_exact_capsule_contact)."""
    got = signed_distance_batch(env, arm, qs)
    ref = geometry_oracle.signed_distance_batch(env, arm, qs)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    clear = np.abs(ref) > 1e-12
    np.testing.assert_array_equal(np.sign(got[clear]), np.sign(ref[clear]))
    return got


@pytest.fixture
def arm():
    return ArmModel()


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenes())
    def test_random_scenes(self, scene):
        assert_matches_oracle(*scene)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_worlds_uniform_batches(self, arm, seed):
        # benchmark-like worlds: 8 mixed obstacles, a sizeable share of
        # colliding rows, so overlapping pairs take the interior-depth path
        rng = np.random.default_rng(seed)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        qs = rng.uniform(arm.lower, arm.upper, (300, arm.n_links))
        d = assert_matches_oracle(env, arm, qs)
        assert (d < 0).any() and (d > 0).any()


class TestReachBound:
    """A joint step dq lowers the clearance by at most sum(rho_i |dq_i|),
    rho = `ArmModel.joint_reach`: the bound behind the rollout steer's
    proven ticks. Obstacle pairs, self pairs (empty worlds of 3 or more
    links) and the 2-link workspace fallback (empty worlds of 2)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("shapes", [("rect",), ("circle",), ()], ids=["rect", "circle", "empty"])
    def test_random_arms_and_steps(self, n, shapes):
        rng = np.random.default_rng(n * 7 + len(shapes) + 3 * ("circle" in shapes))
        closer = 0
        for _ in range(3):
            arm = ArmModel(link_lengths=tuple(rng.uniform(0.15, 0.6, n)),
                           link_radius=float(rng.uniform(0.01, 0.08)))
            env = random_environment(EnvGenConfig(num_obstacles=len(shapes) and 6,
                                                  shapes=shapes or ("rect",)), rng)
            reach = np.array(arm.joint_reach)
            for scale in (1e-3, 1e-2, 0.1, 0.5):
                qs = rng.uniform(arm.lower, arm.upper, (200, n))
                dq = rng.uniform(-scale, scale, (200, n))
                d0 = signed_distance_batch(env, arm, qs)
                d1 = signed_distance_batch(env, arm, qs + dq)
                assert np.all(d1 >= d0 - np.abs(dq) @ reach - 1e-12)
                closer += int(np.count_nonzero(d1 < d0))
        assert closer > 500  # steps that do approach something


class TestRowBlocks:
    @pytest.mark.parametrize("b", [1, 4, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
    def test_batch_equals_per_row_calls(self, arm, b):
        rng = np.random.default_rng(b)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                              size_range=(0.08, 0.3)), rng)
        qs = rng.uniform(arm.lower, arm.upper, (b, arm.n_links))
        batch = signed_distance_batch(env, arm, qs)
        rows = np.array([signed_distance(env, arm, q) for q in qs])
        np.testing.assert_array_equal(batch, rows)

    def test_empty_batch(self, arm):
        assert signed_distance_batch(Environment(), arm, np.empty((0, 3))).shape == (0,)


class TestEdgeCases:
    def test_axis_parallel_links(self, arm):
        # joint angles 0 and +-pi/2 put every link along x or y; rectangles
        # straddle, contain and flank those axes
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.25, 0.0), half_extents=(0.05, 0.2)),
            Obstacle(kind="rect", center=(0.5, 0.45), half_extents=(0.1, 0.1)),
            Obstacle(kind="rect", center=(0.0, -0.7), half_extents=(0.3, 0.05)),
            Obstacle(kind="rect", center=(-0.6, 0.3), half_extents=(0.2, 0.3)),
        ))
        qs = np.array(list(itertools.product([0.0, HALF_PI, -HALF_PI], repeat=3)))
        d = assert_matches_oracle(env, arm, qs)
        assert (d < 0).any() and (d > 0).any()

    def test_touching_face_corner_and_tangent(self, arm):
        # the link axis touches the shape, so the capsule penetrates by its radius
        r = arm.link_radius
        face = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.25, 0.1), half_extents=(0.05, 0.1)),))
        tangent = Environment(obstacles=(
            Obstacle(kind="circle", center=(0.25, 0.2), radius=0.2),))
        for env in (face, tangent):
            d = assert_matches_oracle(env, arm, np.zeros((1, 3)))
            assert d[0] == pytest.approx(-r, abs=1e-12)
        # one corner of the box sits on the first link at 45 degrees
        corner = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.25, 0.15), half_extents=(0.05, 0.05)),))
        q = np.array([[np.pi / 4, -np.pi / 4, -HALF_PI]])
        d = assert_matches_oracle(corner, arm, q)
        assert d[0] == pytest.approx(-r, abs=1e-12)

    def test_link_fully_inside_rectangle(self, arm):
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.25, 0.0), half_extents=(0.4, 0.1)),))
        d = assert_matches_oracle(env, arm, np.zeros((1, 3)))
        # deepest point: 0.1 below the top face, plus the capsule radius
        assert d[0] == pytest.approx(-0.1 - arm.link_radius, abs=1e-12)

    def test_self_crossing_arm(self, arm):
        q = np.array([0.0, 2.5, 2.0])
        pts = joint_positions(arm, q)[0]
        assert geometry.seg_seg_distance_paired(pts[0], pts[1], pts[2], pts[3]) == 0.0
        d = assert_matches_oracle(Environment(), arm, q[None])
        assert d[0] == pytest.approx(-2 * arm.link_radius, abs=1e-12)

    def test_self_crossing_longer_arms(self):
        arm5 = ArmModel(link_lengths=(0.5, 0.4, 0.4, 0.3, 0.3))
        rng = np.random.default_rng(3)
        qs = rng.uniform(arm5.lower, arm5.upper, (400, 5))
        d = assert_matches_oracle(Environment(), arm5, qs)
        assert (d <= -2 * arm5.link_radius + 1e-12).any()  # some rows cross

    def test_exact_capsule_contact(self):
        # links 2 and 4 are parallel and joined by link 3, which is exactly
        # two capsule radii long: the capsules touch, clearance 0
        arm5 = ArmModel(link_lengths=(0.5625, 0.5, 0.5, 0.16, 0.5), link_radius=0.08)
        q = np.array([[2.0, HALF_PI, HALF_PI, -HALF_PI, 0.0]])
        assert abs(assert_matches_oracle(Environment(), arm5, q)[0]) <= 1e-12

    def test_empty_world_self_pairs_only(self, arm):
        qs = np.random.default_rng(4).uniform(arm.lower, arm.upper, (50, 3))
        assert np.isfinite(assert_matches_oracle(Environment(), arm, qs)).all()

    def test_two_link_workspace_fallback(self):
        arm2 = ArmModel(link_lengths=(0.5, 0.4))
        env = Environment(workspace=Workspace(center=(0.1, -0.2), half_extents=(1.0, 1.2)))
        qs = np.random.default_rng(5).uniform(arm2.lower, arm2.upper, (20, 2))
        assert_matches_oracle(env, arm2, qs)

    def test_two_link_with_obstacles_has_no_self_pairs(self):
        arm2 = ArmModel(link_lengths=(0.5, 0.4))
        env = Environment(obstacles=(Obstacle(kind="circle", center=(2.0, 2.0), radius=0.1),))
        q = np.array([[0.0, 2.8]])  # folded back on itself, but two links have no self pair
        d = assert_matches_oracle(env, arm2, q)
        tip = np.array([0.5 + 0.4 * np.cos(2.8), 0.4 * np.sin(2.8)])
        axis = min(point_segment_distance(np.array([2.0, 2.0]), a, b)
                   for a, b in ((np.zeros(2), np.array([0.5, 0.0])), (np.array([0.5, 0.0]), tip)))
        assert d[0] == pytest.approx(axis - 0.1 - arm2.link_radius, abs=1e-12)


# -- early-outs --------------------------------------------------------------

KERNEL = geometry.capsule_world_min
SLACK = geometry._SKIP_SLACK


def kernel(env, arm, qs, rect_reach=None, cross_reach=None):
    """The clearance kernel on env's packed arrays; the reaches default to
    the real ones."""
    return KERNEL(batch_joint_positions(arm, np.asarray(qs, dtype=float))[0], arm.link_radius,
                  env._points, env._offsets(arm), env._rect_cz, env._rect_hz,
                  env._rect_reach if rect_reach is None else rect_reach,
                  arm.cross_reach if cross_reach is None else cross_reach)


def smallest_candidate(env, arm, qs):
    """The call's smallest point or box candidate, the value both early-outs
    test: with both reaches at -inf the kernel skips both passes."""
    return kernel(env, arm, qs, -np.inf, -np.inf).min(initial=np.inf)


def every_pass(joints, radius, points, offsets, rect_c, rect_h, rect_reach, cross_reach):
    """The kernel with both early-outs off: the slow reference."""
    return KERNEL(joints, radius, points, offsets, rect_c, rect_h, np.inf, np.inf)


def without_early_outs():
    """Every clearance call in the package runs every pass."""
    return mock.patch.object(geometry, "capsule_world_min", every_pass)


def assert_early_outs_exact(env, arm, qs):
    fast = kernel(env, arm, qs)
    assert np.array_equal(fast, kernel(env, arm, qs, np.inf, np.inf))
    return fast


def ladder_rows(env, arm, configs, skip=None):
    """The rows validate_and_truncate checks, in its one clearance call."""
    rows = []

    def record(env_, arm_, qs):
        rows.append(qs)
        return np.ones(len(qs))

    with mock.patch.object(planner, "signed_distance_batch", record):
        planner.validate_and_truncate(env, arm, configs, 0.02, skip=skip)
    return rows[0]


def eight_obstacle_world(rng, speed=0.0):
    return random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                           size_range=(0.08, 0.3), obstacle_speed=speed), rng)


class TestEarlyOutsExact:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenes())
    def test_random_scenes(self, scene):
        assert_early_outs_exact(*scene)

    @pytest.mark.parametrize("b", [1, 4, 121, 300])
    @pytest.mark.parametrize("seed", range(4))
    def test_generated_worlds(self, arm, b, seed):
        rng = np.random.default_rng(100 + seed)
        env = eight_obstacle_world(rng)
        qs = rng.uniform(arm.lower, arm.upper, (b, arm.n_links))
        fast = signed_distance_batch(env, arm, qs)
        with without_early_outs():
            assert np.array_equal(fast, signed_distance_batch(env, arm, qs))

    def test_single_rows_take_both_skips(self, arm):
        # the generated worlds above exercise the early-outs: most batch-1
        # calls skip the self pass and many skip the overlap pass as well
        rng = np.random.default_rng(7)
        env = eight_obstacle_world(rng)
        lows = np.array([smallest_candidate(env, arm, q[None])
                         for q in rng.uniform(arm.lower, arm.upper, (200, 3))])
        r = arm.link_radius
        rect_skips = (lows > env._rect_reach - r + SLACK).sum()
        cross_skips = (lows > arm.cross_reach - 2 * r + SLACK).sum()
        assert 0 < rect_skips < 200 and 0 < cross_skips < 200

    @pytest.mark.parametrize("seed", range(3))
    def test_stepped_snapshots(self, arm, seed):
        rng = np.random.default_rng(200 + seed)
        env = eight_obstacle_world(rng, speed=0.5)
        qs = rng.uniform(arm.lower, arm.upper, (6, arm.n_links))
        fast, after = signed_distance_stepped(env, arm, qs, 0.05)
        assert after._rect_reach == env._rect_reach
        with without_early_outs():
            slow, _ = signed_distance_stepped(env, arm, qs, 0.05)
        assert np.array_equal(fast, slow)

    def test_empty_batch(self, arm):
        env = eight_obstacle_world(np.random.default_rng(1))
        assert kernel(env, arm, np.empty((0, 3))).shape == (0,)

    def test_a_rows_clearance_does_not_depend_on_its_call(self, arm):
        # A rollout steer checks its first tick's ladder in one call and the
        # rest in another. On rollouts that end in contact, the two calls
        # give the one call's clearances bit for bit, also where a part skips
        # a pass that the whole ladder runs.
        rng = np.random.default_rng(300)
        thresholds = {"overlap": lambda env: env._rect_reach - arm.link_radius + SLACK,
                      "straddle": lambda env: arm.cross_reach - 2 * arm.link_radius + SLACK}
        part_skips = dict.fromkeys(thresholds, 0)
        for _ in range(8):
            # the benchmark's worlds: 8 obstacles of the default sizes
            env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle")), rng)
            for _ in range(6):
                configs = rollout_into_contact(env, arm, rng)
                tick_1 = [True] * (SUBSTEPS + 1) + [False] * (len(configs) - SUBSTEPS - 1)
                parts = [ladder_rows(env, arm, configs[:SUBSTEPS + 1]),
                         ladder_rows(env, arm, configs, skip=tick_1)]
                whole = np.concatenate(parts)
                apart = np.concatenate([signed_distance_batch(env, arm, q) for q in parts])
                assert apart.tobytes() == signed_distance_batch(env, arm, whole).tobytes()
                low = smallest_candidate(env, arm, whole)
                for name, threshold in thresholds.items():
                    part_skips[name] += any(low <= threshold(env) < smallest_candidate(env, arm, q)
                                            for q in parts)
        assert part_skips["overlap"] > 10 and part_skips["straddle"] > 10

    def test_two_link_arm(self):
        arm2 = ArmModel(link_lengths=(0.5, 0.4))
        assert arm2.cross_reach == -np.inf
        rng = np.random.default_rng(8)
        env = eight_obstacle_world(rng)
        assert_early_outs_exact(env, arm2, rng.uniform(arm2.lower, arm2.upper, (50, 2)))
        assert_early_outs_exact(Environment(), arm2, rng.uniform(arm2.lower, arm2.upper, (5, 2)))

    def test_world_without_rectangles(self, arm):
        rng = np.random.default_rng(9)
        env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("circle",)), rng)
        assert env._rect_reach == -np.inf
        qs = rng.uniform(arm.lower, arm.upper, (60, arm.n_links))
        d = assert_early_outs_exact(env, arm, qs)
        assert_early_outs_exact(Environment(), arm, qs)
        np.testing.assert_allclose(d, geometry_oracle.signed_distance_batch(env, arm, qs),
                                   rtol=0.0, atol=1e-12)

    def test_reaches(self):
        # non-adjacent pairs (0,2) (0,3) (0,4) (1,3) (1,4) (2,4): the largest
        # min is 0.4; the adjacent pair (0,1) does not count
        arm5 = ArmModel(link_lengths=(0.5, 0.9, 0.4, 0.3, 0.2))
        assert arm5.cross_reach == 0.2
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(1.0, 1.0), half_extents=(0.3, 0.4)),
            Obstacle(kind="circle", center=(0.0, 1.0), radius=0.9),
            Obstacle(kind="rect", center=(-1.0, 1.0), half_extents=(0.1, 0.2))))
        assert env._rect_reach == pytest.approx(0.5, abs=1e-15)


def far_rect(half_diagonal):
    """A square far from everything, whose half-diagonal sets the world's
    rectangle reach."""
    h = half_diagonal / np.sqrt(2.0)
    return Obstacle(kind="rect", center=(50.0, 50.0), half_extents=(h, h))


class TestThresholds:
    """Worlds planted so that the call's smallest candidate sits just above
    (pass skipped) or just below (pass runs) each threshold."""

    R = 0.04
    STRAIGHT = np.zeros((1, 3))  # the default arm along +x: joints 0, 0.5, 0.9, 1.2

    def circle_at_clearance(self, clearance):
        # a circle above the first link's middle, `clearance` from its capsule
        return Obstacle(kind="circle", center=(0.25, clearance + 0.1 + self.R), radius=0.1)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_overlap_pass_threshold(self, arm, side):
        low = 0.2
        env = Environment(obstacles=(self.circle_at_clearance(low),
                                     far_rect(low + self.R - SLACK - side * 1e-7)))
        got = smallest_candidate(env, arm, self.STRAIGHT)
        threshold = env._rect_reach - self.R + SLACK
        assert (got > threshold) == (side > 0) and abs(got - threshold) < 2e-7
        assert assert_early_outs_exact(env, arm, self.STRAIGHT)[0] == pytest.approx(low, abs=1e-12)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_self_pass_threshold(self, arm, side):
        threshold = arm.cross_reach - 2 * self.R + SLACK  # 0.15 - 0.08
        env = Environment(obstacles=(self.circle_at_clearance(threshold + side * 1e-7),))
        got = smallest_candidate(env, arm, self.STRAIGHT)
        assert (got > threshold) == (side > 0) and abs(got - threshold) < 2e-7
        assert_early_outs_exact(env, arm, self.STRAIGHT)

    def test_link_across_a_thin_rectangle_is_the_tight_case(self):
        # the first link crosses a 0.4 x 0.002 rectangle at its centre: the
        # nearest corner is 0.2 away and the half-diagonal 0.2000025, so the
        # smallest candidate sits 2.5e-6 below the threshold and the overlap
        # pass must run to find the depth
        arm2 = ArmModel(link_lengths=(0.5, 0.4), link_radius=self.R)
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.0, 0.25), half_extents=(0.2, 0.001)),))
        q = np.array([[HALF_PI, 0.0]])
        low = smallest_candidate(env, arm2, q)
        assert low == pytest.approx(0.2 - self.R, abs=1e-12)
        assert low <= env._rect_reach - self.R + SLACK
        d = assert_early_outs_exact(env, arm2, q)
        assert d[0] == pytest.approx(-0.001 - self.R, abs=1e-12)
        # a reach just short of the candidate proves the pass is what finds it
        skipped = kernel(env, arm2, q, low + self.R - SLACK - 1e-7, -np.inf)
        assert skipped[0] == low

    def test_links_crossing_at_their_middles_is_the_tight_case(self):
        # links 0 and 2 (length 0.4) cross at right angles at their middles:
        # every endpoint sits exactly half a length from the other link, on
        # the threshold up to roundoff, which the slack absorbs
        length = 0.4
        arm = ArmModel(link_lengths=(length, length / np.sqrt(2.0), length), link_radius=self.R)
        q = np.array([[0.0, -0.75 * np.pi, 1.25 * np.pi]])
        pts = joint_positions(arm, q[0])[0]
        np.testing.assert_allclose(pts[2:], [[0.2, -0.2], [0.2, 0.2]], atol=1e-15)
        low = smallest_candidate(Environment(), arm, q)
        assert low == pytest.approx(arm.cross_reach - 2 * self.R, abs=1e-12)
        d = assert_early_outs_exact(Environment(), arm, q)
        assert d[0] == -2 * self.R
        skipped = kernel(Environment(), arm, q, -np.inf, low + 2 * self.R - SLACK - 1e-7)
        assert skipped[0] == low


def _offset_segment(p, direction, before, after):
    return p - before * direction, p + after * direction


unit = st.floats(0.0, 1.0, allow_nan=False)
turn = st.floats(0.0, 2.0 * np.pi, allow_nan=False)
LEMMA = settings(max_examples=400, deadline=None, derandomize=True, database=None)


class TestLemmas:
    @LEMMA
    @given(coords, coords, sizes, sizes, unit, unit, turn, st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_a_segment_meeting_a_box_passes_within_its_half_diagonal_of_a_corner(
            self, cx, cy, hx, hy, u, v, angle, before, after):
        c, h = np.array([cx, cy]), np.array([hx, hy])
        inside = c + (2.0 * np.array([u, v]) - 1.0) * h  # a point of the box
        a, b = _offset_segment(inside, np.array([np.cos(angle), np.sin(angle)]), before, after)
        corners = c + h * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        nearest = min(float(point_segment_distance(k, a, b)) for k in corners)
        assert nearest <= np.hypot(hx, hy) + 1e-12

    @LEMMA
    @given(coords, coords, turn, turn, unit, unit, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_crossing_segments_each_have_an_endpoint_within_half_their_length_of_the_other(
            self, x, y, angle1, angle2, s1, s2, len1, len2):
        cross = np.array([x, y])
        a1, b1 = _offset_segment(cross, np.array([np.cos(angle1), np.sin(angle1)]),
                                 s1 * len1, (1.0 - s1) * len1)
        a2, b2 = _offset_segment(cross, np.array([np.cos(angle2), np.sin(angle2)]),
                                 s2 * len2, (1.0 - s2) * len2)
        for (p, q, length), (s, e) in (((a1, b1, len1), (a2, b2)), ((a2, b2, len2), (a1, b1))):
            nearest = min(float(point_segment_distance(p, s, e)),
                          float(point_segment_distance(q, s, e)))
            assert nearest <= 0.5 * length + 1e-12


def hard_problem(seed):
    """The first hard-tagged problem of 8 generated with the benchmark's
    planning settings: 8 mixed obstacles, 16 nodes, 30-tick steers."""
    cfg = config.load_config()
    cfg["env_gen"].update(num_obstacles=8, shapes=["rect", "circle"])
    cfg["planner"].update(max_nodes=16, max_ctrl_steps=30)
    arm = config.make_arm(cfg)
    clearance = cfg["hyper"]["r_thres"] * cfg["bench"]["clearance_factor"]
    problems = bench.gen_problems(config.make_env_gen(cfg), 8,
                                  config.seed_stream(seed, "problem-gen"), arm, clearance)
    tagged = bench.difficulty_split(problems, 1, config.seed_stream(seed, "difficulty"), arm,
                                    config.make_planner_limits(cfg),
                                    r_goal=cfg["controller"]["r_goal"])
    return cfg, arm, next(p for p in tagged if p.difficulty == "hard")


def counting_skips(skips):
    """The kernel, counting the calls in which each early-out fires."""
    def kernel_(joints, radius, points, offsets, rect_c, rect_h, rect_reach, cross_reach):
        low = KERNEL(joints, radius, points, offsets, rect_c, rect_h, -np.inf, -np.inf).min(
            initial=np.inf)
        skips["rect"] += bool(low > rect_reach - radius + SLACK)
        skips["cross"] += bool(low > cross_reach - 2.0 * radius + SLACK)
        return KERNEL(joints, radius, points, offsets, rect_c, rect_h, rect_reach, cross_reach)
    return mock.patch.object(geometry, "capsule_world_min", kernel_)


class TestEarlyOutsEndToEnd:
    """What the benchmark measures, with and without the early-outs. Both
    passes matter here only in states that a corner or a joint has not
    already shown to collide, which these runs never reach; the kernel tests
    above are the ones that pin the thresholds."""

    def test_hand_cbf_plan(self):
        cfg, arm, prob = hard_problem(1)

        def plan():
            return bench.plan_query(prob, {"name": "hand-cbf"}, arm, cfg, 1, 0, {}, 1)[0]

        skips = {"rect": 0, "cross": 0}
        with counting_skips(skips):
            fast = plan()
        with without_early_outs():
            slow = plan()
        assert fast.explored_nodes > 1 and skips["rect"] > 100 and skips["cross"] > 100
        assert (fast.status, fast.explored_nodes, fast.tree_size) == (
            slow.status, slow.explored_nodes, slow.tree_size)
        for got, ref in ((fast.path, slow.path), (fast.controls, slow.controls)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_rollout_among_moving_obstacles(self, arm):
        rng = np.random.default_rng(21)
        env = eight_obstacle_world(rng, speed=0.3)
        q0 = sample_config(arm, rng)
        while signed_distance(env, arm, q0) <= 0.05:
            q0 = sample_config(arm, rng)
        args = (ControllerBundle(HandcraftedBarrier(arm, margin=0.05), None,
                                 limits=RolloutLimits(horizon_s=2.0)),
                q0, sample_config(arm, rng), env)
        fast = safe_rollout(*args)
        with without_early_outs():
            slow = safe_rollout(*args)
        assert fast.steps_used > 10
        assert_same_record(fast, slow)
