"""The fused clearance kernel behind `signed_distance_batch`, held to the
reference composition in geometry_oracle: property tests over random worlds,
arms and batches, row blocks, and explicit edge cases (axis-parallel links,
touching and tangent contacts, a link inside a rectangle, self crossings,
empty worlds)."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbfsteer.environment import (
    ROW_BLOCK,
    EnvGenConfig,
    Environment,
    Obstacle,
    Workspace,
    random_environment,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.geometry import point_segment_distance, segments_intersect
from cbfsteer.kinematics import ArmModel, joint_positions

import geometry_oracle

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
        assert segments_intersect(pts[0], pts[1], pts[2][None], pts[3][None])[0]
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
