"""Obstacle-world tests: signed distance against closed forms and sampling
oracles, labels, observation models, stepping and generation."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest

import draw_oracle
import rollout_oracle
from geometry_oracle import point_segment_distance
from cbfsteer import environment, geometry
from cbfsteer.environment import (
    CloudSource,
    EnvGenConfig,
    Environment,
    GenerationError,
    Obstacle,
    SafetyLabel,
    ScanSpec,
    Workspace,
    random_environment,
    ray_cast_scan,
    safety_label,
    sample_free_config,
    sample_surface_points,
    signed_distance,
    signed_distance_batch,
    signed_distance_stepped,
    step_obstacles,
)
from cbfsteer.jsonio import canonical_dumps
from cbfsteer.kinematics import (
    ArmModel,
    batch_joint_positions,
    joint_positions,
    sample_config,
)


@pytest.fixture
def arm():
    return ArmModel()


def far_circle_env(center=(1.0, 0.8), radius=0.2):
    return Environment(obstacles=(Obstacle(kind="circle", center=center, radius=radius),))


def same_bits(a, b) -> bool:
    """Exact equality, down to the sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_moving_env(seed: int) -> Environment:
    """Eight rectangles and circles; every third one stands still, the rest drift."""
    env = random_environment(
        EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"), obstacle_speed=0.4),
        np.random.default_rng(seed))
    return Environment(obstacles=tuple(
        replace(o, velocity=(0.0, 0.0)) if i % 3 == 0 else o
        for i, o in enumerate(env.obstacles)), workspace=env.workspace, time=0.25 * seed)


class TestObstacleValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        with pytest.raises(ValueError, match="center"):
            Obstacle(kind="circle", center=(0.3, bad), radius=0.1)
        with pytest.raises(ValueError, match="center"):
            Obstacle(kind="rect", center=(bad, 0.3), half_extents=(0.1, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="radius"):
            Obstacle(kind="circle", center=(0.3, 0.3), radius=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1])
    def test_bad_half_extents_rejected(self, bad):
        with pytest.raises(ValueError, match="half extents"):
            Obstacle(kind="rect", center=(0.3, 0.3), half_extents=(0.1, bad))
        with pytest.raises(ValueError, match="half extents"):
            Obstacle(kind="rect", center=(0.3, 0.3), half_extents=(bad, 0.1))

    def test_non_finite_velocity_rejected(self):
        with pytest.raises(ValueError, match="velocity"):
            Obstacle(kind="circle", center=(0.3, 0.3), radius=0.1, velocity=(np.nan, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_workspace_rejected(self, bad):
        with pytest.raises(ValueError, match="workspace half extents"):
            Workspace(half_extents=(bad, 1.0))
        with pytest.raises(ValueError, match="workspace half extents"):
            Workspace(half_extents=(1.0, bad))
        if not np.isfinite(bad):
            with pytest.raises(ValueError, match="workspace center"):
                Workspace(center=(0.0, bad))


class TestSignedDistance:
    def test_single_circle_closed_form(self, arm):
        # close enough that the circle, not a self pair, attains the minimum
        env = far_circle_env(center=(1.0, 0.3))
        q = np.zeros(3)
        pts = joint_positions(arm, q)[0]
        expected = min(
            float(point_segment_distance(np.array([1.0, 0.3]), pts[i], pts[i + 1]))
            for i in range(arm.n_links)
        ) - 0.2 - arm.link_radius
        assert expected == pytest.approx(0.3 - 0.2 - arm.link_radius)
        assert signed_distance(env, arm, q) == pytest.approx(expected, abs=1e-12)

    def test_tip_inside_rectangle_negative(self, arm):
        # rectangle parked on the zero-pose tip (1.2, 0)
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(1.2, 0.0), half_extents=(0.1, 0.1)),))
        q = np.zeros(3)
        d = signed_distance(env, arm, q)
        assert d < 0
        # dense point-sampling penetration oracle agrees on the sign
        ts = np.linspace(0, 1, 2000)
        inside = False
        joints = joint_positions(arm, q)[0]
        for a, b in zip(joints[:-1], joints[1:]):
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            q_rel = np.abs(pts - np.array([1.2, 0.0])) - np.array([0.1, 0.1])
            inside |= bool(np.any(np.maximum(q_rel, 0).sum(axis=1) == 0))
        assert inside

    def test_one_lipschitz_in_obstacle_translation(self, arm):
        rng = np.random.default_rng(0)
        for _ in range(100):
            center = rng.uniform(-1, 1, 2)
            shift = rng.normal(size=2)
            shift *= 0.1 / np.linalg.norm(shift)
            q = sample_config(arm, rng)
            if rng.random() < 0.5:
                e1 = Environment(obstacles=(
                    Obstacle(kind="circle", center=tuple(center), radius=0.2),))
                e2 = Environment(obstacles=(
                    Obstacle(kind="circle", center=tuple(center + shift), radius=0.2),))
            else:
                e1 = Environment(obstacles=(
                    Obstacle(kind="rect", center=tuple(center), half_extents=(0.2, 0.15)),))
                e2 = Environment(obstacles=(
                    Obstacle(kind="rect", center=tuple(center + shift), half_extents=(0.2, 0.15)),))
            d1 = signed_distance(e1, arm, q)
            d2 = signed_distance(e2, arm, q)
            assert abs(d2 - d1) <= 0.1 + 1e-9

    def test_no_obstacles_self_pairs_only(self, arm):
        env = Environment()
        # fold the arm back so link 0 and link 2 nearly touch
        q = np.array([0.0, 2.8, 2.8])
        d = signed_distance(env, arm, q)
        assert np.isfinite(d)
        pts = joint_positions(arm, q)[0]
        expected = (geometry.seg_seg_distance_paired(pts[0], pts[1], pts[2], pts[3])
                    - 2 * arm.link_radius)
        assert d == pytest.approx(expected, abs=1e-12)

    def test_two_link_empty_world_uses_workspace(self):
        arm2 = ArmModel(link_lengths=(0.5, 0.4))
        env = Environment(workspace=Workspace(center=(0.0, 0.0), half_extents=(1.5, 1.5)))
        d = signed_distance(env, arm2, np.zeros(2))
        assert np.isfinite(d)
        # zero pose reaches x=0.9; boundary at 1.5 -> clearance 0.6 - radius
        assert d == pytest.approx(1.5 - 0.9 - arm2.link_radius, abs=1e-12)

    def test_continuity_in_q(self, arm):
        rng = np.random.default_rng(1)
        env = random_environment(EnvGenConfig(), rng)
        lipschitz = sum(arm.link_lengths)
        for _ in range(200):
            q = sample_config(arm, rng)
            dq = rng.normal(scale=0.02, size=3)
            q2 = np.clip(q + dq, arm.lower, arm.upper)
            d1 = signed_distance(env, arm, q)
            d2 = signed_distance(env, arm, q2)
            assert abs(d2 - d1) <= lipschitz * np.linalg.norm(q2 - q, 1) + 1e-9


def classify(env, arm, q, r_thres):
    return safety_label(signed_distance(env, arm, q), r_thres)


class TestClassify:
    def test_definitions(self, arm):
        env = far_circle_env()
        assert classify(env, arm, np.zeros(3), 0.05) is SafetyLabel.SAFE
        env_hit = Environment(obstacles=(
            Obstacle(kind="circle", center=(1.2, 0.0), radius=0.1),))
        assert classify(env_hit, arm, np.zeros(3), 0.05) is SafetyLabel.UNSAFE

    def test_boundary_band(self, arm):
        # circle at (1.0, 0.8): clearance = 0.8 - radius - link_radius = 0.02
        env = far_circle_env(radius=0.8 - arm.link_radius - 0.02)
        assert signed_distance(env, arm, np.zeros(3)) == pytest.approx(0.02, abs=1e-12)
        assert classify(env, arm, np.zeros(3), 0.05) is SafetyLabel.BOUNDARY

    def test_partition_property(self, arm):
        rng = np.random.default_rng(2)
        env = random_environment(EnvGenConfig(), rng)
        for _ in range(300):
            q = sample_config(arm, rng)
            d = signed_distance(env, arm, q)
            label = classify(env, arm, q, 0.05)
            expected = (SafetyLabel.UNSAFE if d <= 0
                        else SafetyLabel.SAFE if d >= 0.05 else SafetyLabel.BOUNDARY)
            assert label is expected
        # the band edges: d = 0 is unsafe, d = r_thres is safe
        assert safety_label(0.0, 0.05) is SafetyLabel.UNSAFE
        assert safety_label(0.05, 0.05) is SafetyLabel.SAFE

    def test_requires_positive_threshold(self, arm):
        with pytest.raises(ValueError):
            classify(far_circle_env(), arm, np.zeros(3), 0.0)


class TestSurfaceSampling:
    def test_square_sides_chi_squared(self):
        from scipy.stats import chisquare

        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.0, 0.0), half_extents=(0.5, 0.5)),))
        rng = np.random.default_rng(3)
        cloud = sample_surface_points(env, 4000, rng)
        # classify points into the four sides by their normals
        keys = (cloud.normals @ np.array([[1, 0], [0, 1]])).round().astype(int)
        counts = {}
        for kx, ky in keys:
            counts[(kx, ky)] = counts.get((kx, ky), 0) + 1
        assert set(counts) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 0.01

    def test_circle_normals(self):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.3, -0.2), radius=0.4),))
        rng = np.random.default_rng(4)
        cloud = sample_surface_points(env, 200, rng)
        expected = (cloud.points - np.array([0.3, -0.2])) / 0.4
        np.testing.assert_allclose(cloud.normals, expected, atol=1e-9)
        assert cloud.source is CloudSource.SURFACE_SAMPLED

    def test_points_on_boundary(self):
        rng = np.random.default_rng(5)
        env = random_environment(EnvGenConfig(num_obstacles=5, shapes=("rect", "circle")), rng)
        cloud = sample_surface_points(env, 500, rng)
        for p in cloud.points:
            d = min(abs(o.point_distance(p)) for o in env.obstacles)
            assert d <= 1e-9

    def test_perimeter_proportional_allocation(self):
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(-1.0, 0.0), half_extents=(0.1, 0.1)),  # perimeter 0.8
            Obstacle(kind="rect", center=(1.0, 0.0), half_extents=(0.3, 0.3)),  # perimeter 2.4
        ))
        rng = np.random.default_rng(6)
        cloud = sample_surface_points(env, 4000, rng)
        near_big = (cloud.points[:, 0] > 0).mean()
        assert near_big == pytest.approx(0.75, abs=0.03)

    def test_empty_environment_error(self):
        with pytest.raises(ValueError):
            sample_surface_points(Environment(), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("shapes", [("rect",), ("circle",), ("rect", "circle")])
    @pytest.mark.parametrize("steps", [0, 3])
    def test_equals_the_per_point_oracle(self, shapes, steps):
        # bit for bit, and the generator ends where the per-point loop leaves
        # it: data collection and the bench observer keep drawing from it
        for seed in range(12):
            rng = np.random.default_rng(seed)
            env = random_environment(EnvGenConfig(num_obstacles=1 + seed % 8, shapes=shapes,
                                                  obstacle_speed=0.4), rng)
            env = environment._environment_at(env, 1.0 / 120, steps)[0]
            ref_rng = copy.deepcopy(rng)
            got = sample_surface_points(env, 64, rng)
            ref = draw_oracle.sample_surface_points(env, 64, ref_rng)
            assert same_bits(got.points, ref.points) and same_bits(got.normals, ref.normals)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRayCast:
    @pytest.mark.parametrize("kwargs", [
        {"mount_links": ()}, {"rays_per_mount": 0}, {"rays_per_mount": -3},
        {"max_range": 0.0}, {"max_range": -1.0}, {"max_range": np.nan}, {"max_range": np.inf}])
    def test_scan_spec_rejects_empty_or_degenerate_fans(self, kwargs):
        with pytest.raises(ValueError):
            ScanSpec(**kwargs)

    @pytest.mark.parametrize("links", [(3,), (0, -1)])
    def test_mount_link_out_of_range(self, arm, links):
        with pytest.raises(ValueError, match="mount link"):
            ray_cast_scan(Environment(), arm, np.zeros(3), ScanSpec(mount_links=links))

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_fan_equals_ray_by_ray_reference(self, arm, seed):
        rng = np.random.default_rng(100 + seed)
        env = mixed_moving_env(seed)
        spec = ScanSpec(mount_links=((0, 2), (1,), (2, 0, 1))[seed % 3],
                        rays_per_mount=(32, 12, 1)[seed % 3], max_range=(2.0, 0.6, 1.1)[seed % 3])
        for _ in range(20):
            q = sample_config(arm, rng)
            cloud = ray_cast_scan(env, arm, q, spec)
            ref = rollout_oracle.ray_cast_scan(env, arm, q, spec)
            assert same_bits(cloud.points, ref.points)
            assert same_bits(cloud.normals, ref.normals)

    @pytest.mark.parametrize("shapes", ["rect", "circle", "none"])
    def test_one_shape_or_empty_worlds_equal_ray_by_ray_reference(self, arm, shapes):
        rng = np.random.default_rng(200)
        mixed = mixed_moving_env(3)
        kept = tuple(o for o in mixed.obstacles if o.kind == shapes)
        assert kept or shapes == "none"
        env = Environment(obstacles=kept, workspace=mixed.workspace, time=mixed.time)
        spec = ScanSpec(mount_links=(0, 2), rays_per_mount=16, max_range=1.5)
        for _ in range(10):
            q = sample_config(arm, rng)
            cloud = ray_cast_scan(env, arm, q, spec)
            ref = rollout_oracle.ray_cast_scan(env, arm, q, spec)
            assert same_bits(cloud.points, ref.points)
            assert same_bits(cloud.normals, ref.normals)

    # Hand-made worlds scanned at q = 0 by four rays from link 0's midpoint
    # (0.25, 0): along +x exactly, then +y, -x and -y with a cross component
    # of about 1e-16, below geometry._EPS, so that slab axes are parallel.
    # Each case names a ray, and where it must hit with what normal.
    EDGE_CASES = {
        "axis rays": ((Obstacle(kind="rect", center=(0.25, 1.0), half_extents=(0.2, 0.1)),
                       Obstacle(kind="rect", center=(1.0, 0.0), half_extents=(0.1, 0.3)),
                       Obstacle(kind="circle", center=(-1.0, 0.0), radius=0.2)),
                      2.0, [(0, (0.9, 0.0), (-1.0, 0.0)), (1, (0.25, 0.9), (0.0, -1.0)),
                            (2, (-0.8, 0.0), (1.0, 0.0))]),
        "origin inside a circle": ((Obstacle(kind="circle", center=(0.25, 0.1), radius=0.3),),
                                   2.0, [(1, (0.25, 0.4), (0.0, 1.0)),
                                         (3, (0.25, -0.2), (0.0, -1.0))]),
        "origin inside a rectangle": ((Obstacle(kind="rect", center=(0.3, 0.05),
                                                half_extents=(0.3, 0.2)),),
                                      2.0, [(0, (0.6, 0.0), (-1.0, 0.0)),
                                            (3, (0.25, -0.15), (0.0, 1.0))]),
        # ray 0 (no y component) runs along the rectangle's bottom face
        "tangent": ((Obstacle(kind="circle", center=(0.75, 1.0), radius=0.5),
                     Obstacle(kind="rect", center=(1.0, 0.25), half_extents=(0.1, 0.25))),
                    2.0, [(0, (0.9, 0.0), (-1.0, 0.0)), (1, (0.25, 1.0), (-1.0, 0.0))]),
        "origin on a circle": ((Obstacle(kind="circle", center=(0.25, 0.5), radius=0.5),),
                               2.0, [(1, (0.25, 0.0), (0.0, -1.0))]),
        "origin on a rectangle face": ((Obstacle(kind="rect", center=(0.0, 0.0),
                                                 half_extents=(0.25, 0.5)),),
                                       2.0, [(0, (0.25, 0.0), (-1.0, 0.0)),
                                             (2, (0.25, 0.0), (1.0, 0.0))]),
        # both hit ray 0 at t = 0.75 exactly; the circle comes first
        "circle wins a tie": ((Obstacle(kind="rect", center=(1.25, 0.0), half_extents=(0.25, 0.25)),
                               Obstacle(kind="circle", center=(1.375, 0.5), radius=0.625)),
                              2.0, [(0, (1.0, 0.0), (-0.6, -0.8))]),
        "hit at max range": ((Obstacle(kind="circle", center=(1.375, 0.5), radius=0.625),),
                             0.75, [(0, (1.0, 0.0), (-0.6, -0.8))]),
        "every ray misses": ((Obstacle(kind="circle", center=(1.375, 0.5), radius=0.625),
                              Obstacle(kind="rect", center=(0.25, -1.0), half_extents=(0.3, 0.2))),
                             0.7, []),
        "no obstacles": ((), 1.0, []),
    }

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases_equal_the_pairwise_reference(self, arm, case):
        obstacles, max_range, hits = self.EDGE_CASES[case]
        env = Environment(obstacles=obstacles)
        spec = ScanSpec(mount_links=(0,), rays_per_mount=4, max_range=max_range)
        cloud = ray_cast_scan(env, arm, np.zeros(3), spec)
        with np.errstate(invalid="ignore"):  # the reference takes 0 * inf on a grazed face
            ref = rollout_oracle.ray_cast_scan(env, arm, np.zeros(3), spec)
        assert same_bits(cloud.points, ref.points)
        assert same_bits(cloud.normals, ref.normals)
        for ray, point, normal in hits:
            np.testing.assert_allclose(cloud.points[ray], point, atol=1e-12)
            np.testing.assert_allclose(cloud.normals[ray], normal, atol=1e-12)
        if not hits:  # every ray returns its sentinel
            rays = cloud.points - [0.25, 0.0]
            np.testing.assert_allclose(np.linalg.norm(rays, axis=1), max_range, atol=1e-12)
            np.testing.assert_allclose(cloud.normals, -rays / max_range, atol=1e-12)

    def test_edge_cases_take_the_parallel_slab_branch(self):
        # the fan of link 0 at q = 0 has cos(pi / 2), about 6e-17, as a component
        fan = ScanSpec(mount_links=(0,), rays_per_mount=4)._fan
        assert 0.0 < abs(np.cos(fan[1])) < geometry._EPS
        assert np.sin(fan[0]) == 0.0

    def test_no_obstacles_all_sentinels(self, arm):
        spec = ScanSpec(mount_links=(0, 2), rays_per_mount=8, max_range=2.0)
        cloud = ray_cast_scan(Environment(), arm, np.zeros(3), spec)
        assert cloud.points.shape == (16, 2)
        assert cloud.source is CloudSource.RAY_CAST
        # sentinel: point at max range along the ray, normal opposite the ray
        origins = np.repeat([[0.25, 0.0], [1.05, 0.0]], 8, axis=0)
        rays = cloud.points - origins
        dist = np.linalg.norm(rays, axis=1)
        np.testing.assert_allclose(dist, 2.0, atol=1e-9)
        np.testing.assert_allclose(cloud.normals, -rays / dist[:, None], atol=1e-9)

    def test_circle_dead_ahead(self, arm):
        # first ray of the mount on link 0 points along the link (+x at q=0)
        env = Environment(obstacles=(Obstacle(kind="circle", center=(1.0, 0.0), radius=0.2),))
        spec = ScanSpec(mount_links=(0,), rays_per_mount=4, max_range=3.0)
        cloud = ray_cast_scan(env, arm, np.zeros(3), spec)
        # mount at link 0 midpoint (0.25, 0); hit at x = 1.0 - 0.2
        np.testing.assert_allclose(cloud.points[0], [0.8, 0.0], atol=1e-12)
        np.testing.assert_allclose(cloud.normals[0], [-1.0, 0.0], atol=1e-12)

    def test_hits_lie_on_boundaries(self, arm):
        rng = np.random.default_rng(7)
        env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")), rng)
        spec = ScanSpec(max_range=2.0)
        q = sample_config(arm, rng)
        cloud = ray_cast_scan(env, arm, q, spec)
        mounts = _mounts(arm, q, spec)
        for i, p in enumerate(cloud.points):
            d = min(abs(o.point_distance(p)) for o in env.obstacles)
            if d > 1e-6:
                # miss sentinel: exactly max_range from its mount
                mount = mounts[i // spec.rays_per_mount]
                assert np.linalg.norm(p - mount) == pytest.approx(2.0, abs=1e-9)

    def test_base_rotation_rotates_rays(self, arm):
        env = Environment()
        spec = ScanSpec(mount_links=(0,), rays_per_mount=8, max_range=1.0)
        c0 = ray_cast_scan(env, arm, np.zeros(3), spec)
        ang = 0.7
        c1 = ray_cast_scan(env, arm, np.array([ang, 0.0, 0.0]), spec)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        m0 = np.array([0.25, 0.0])
        d0 = (c0.points - m0) / 1.0
        m1 = rot @ m0
        d1 = c1.points - m1
        np.testing.assert_allclose(d1, d0 @ rot.T, atol=1e-9)


def _mounts(arm, q, spec):
    pts = joint_positions(arm, q)[0]
    return [0.5 * (pts[l] + pts[l + 1]) for l in spec.mount_links]


class TestStepObstacles:
    def test_zero_velocity_only_time(self):
        env = far_circle_env()
        env2 = step_obstacles(env, 0.5)
        assert env2.time == pytest.approx(0.5)
        assert env2.obstacles == env.obstacles

    def test_constant_velocity(self):
        env = Environment(obstacles=(
            Obstacle(kind="circle", center=(0.0, 0.0), radius=0.1, velocity=(0.1, 0.0)),))
        env2 = step_obstacles(env, 2.0)
        np.testing.assert_allclose(env2.obstacles[0].center, [0.2, 0.0])

    def test_additivity(self):
        env = Environment(obstacles=(
            Obstacle(kind="rect", center=(0.2, -0.1), half_extents=(0.1, 0.2),
                     velocity=(-0.05, 0.12)),))
        a = step_obstacles(step_obstacles(env, 0.7), 0.3)
        b = step_obstacles(env, 1.0)
        np.testing.assert_allclose(a.obstacles[0].center, b.obstacles[0].center, atol=1e-12)
        assert a.time == pytest.approx(b.time)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            step_obstacles(Environment(), -0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            step_obstacles(far_circle_env(), dt)

    @pytest.mark.parametrize("seed", range(4))
    def test_array_steps_equal_iterated_reference_steps(self, arm, seed):
        env = mixed_moving_env(seed)
        dt = (1.0 / 120, 0.01, 1.0 / 7, 0.3)[seed]
        steps = (1, 4, 9, 30)[seed]
        ref = env
        for _ in range(steps):
            ref = rollout_oracle.step_obstacles(ref, dt)
        iterated = env
        for _ in range(steps):
            iterated = step_obstacles(iterated, dt)
        qs = np.zeros((steps, 3))
        _, swept = signed_distance_stepped(env, arm, qs, dt)
        for got in (iterated, swept):
            assert same_bits([o.center for o in got.obstacles], [o.center for o in ref.obstacles])
            assert same_bits(got.time, ref.time)
            assert got.obstacles == ref.obstacles
            assert same_bits(got._points, ref._points)
            assert same_bits(got._rect_cz, ref._rect_cz)


def packed_fields_equal(got: Environment, ref: Environment) -> bool:
    """Every cached array of two environments, bit for bit; the offset
    tables, built on first use, are compared through `_offsets`."""
    return all(same_bits(getattr(got, f.name), getattr(ref, f.name))
               for f in fields(Environment) if not f.init and f.name != "_offset_tables")


class TestOffsetTables:
    def test_built_once_per_arm_shape(self, arm):
        env = mixed_moving_env(2)
        table = env._offsets(arm)
        assert table is env._offsets(ArmModel())  # an equal arm shares it
        assert same_bits(table, geometry.offset_table(env._point_offsets, 3, arm.link_radius))
        thick = ArmModel(link_radius=0.06)
        assert env._offsets(thick) is not table
        assert same_bits(env._offsets(thick), geometry.offset_table(env._point_offsets, 3, 0.06))
        assert len(env._offset_tables) == 2


class TestSteppedSnapshot:
    """The snapshot after a tick is assembled from the stepped arrays, not
    rebuilt; its packed fields must equal a freshly built Environment's."""

    @pytest.mark.parametrize("shapes", [("rect", "circle"), ("rect",), ("circle",)])
    @pytest.mark.parametrize("steps", [1, 4])
    def test_packed_fields_equal_a_fresh_build(self, arm, shapes, steps):
        rng = np.random.default_rng(len(shapes) + steps)
        env = random_environment(
            EnvGenConfig(num_obstacles=6, shapes=shapes, obstacle_speed=0.4), rng)
        for _ in range(20):
            qs = np.stack([sample_config(arm, rng) for _ in range(steps)])
            _, after = signed_distance_stepped(env, arm, qs, 1.0 / 120)
            fresh = Environment(obstacles=tuple(Obstacle.from_json(o.to_json())
                                                for o in after.obstacles),
                                workspace=after.workspace, time=after.time)
            assert after == fresh and same_bits(after.time, fresh.time)
            assert packed_fields_equal(after, fresh)
            # the snapshot shares its world's offset tables, which equal a fresh build's
            assert after._offset_tables is env._offset_tables
            assert same_bits(after._offsets(arm), fresh._offsets(arm))
            stepped = step_obstacles(env, 1.0 / 120)
            assert packed_fields_equal(stepped, Environment(
                obstacles=stepped.obstacles, workspace=stepped.workspace, time=stepped.time))
            env = after

    def test_empty_world_and_zero_steps(self, arm):
        env = Environment(time=0.5)
        _, after = signed_distance_stepped(env, arm, np.zeros((2, 3)), 0.25)
        assert after.time == 1.0 and packed_fields_equal(after, Environment(time=1.0))
        moving = mixed_moving_env(1)
        ds, same = signed_distance_stepped(moving, arm, np.zeros((0, 3)), 0.25)
        assert ds.shape == (0,) and same is moving


class TestSignedDistanceStepped:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_equal_per_snapshot_calls(self, arm, seed):
        rng = np.random.default_rng(200 + seed)
        env = mixed_moving_env(seed)
        dt = 1.0 / 120
        steps = (1, 4, 4, 12)[seed % 4]
        for _ in range(10):
            qs = np.stack([sample_config(arm, rng) for _ in range(steps)])
            ds, after = signed_distance_stepped(env, arm, qs, dt)
            ref = env
            expected = []
            for q in qs:
                ref = rollout_oracle.step_obstacles(ref, dt)
                expected.append(signed_distance_batch(ref, arm, q[None, :])[0])
            assert same_bits(ds, expected)
            assert after == ref and same_bits(after.time, ref.time)
            env = after

    def test_kernel_rows_see_their_own_world(self, arm):
        # Worlds share shapes and differ in where the obstacles are; a
        # rectangle parked on a joint in half of them makes overlap rows.
        rng = np.random.default_rng(7)
        base = mixed_moving_env(3)
        qs = np.stack([sample_config(arm, rng) for _ in range(64)])
        joints = [joint_positions(arm, q)[0][1 + i % 3] for i, q in enumerate(qs)]
        worlds = []
        for i, q in enumerate(qs):
            shift = rng.uniform(-0.4, 0.4, size=2)
            moved = [replace(o, center=tuple(np.add(o.center, shift))) for o in base.obstacles]
            if i % 2:
                k = next(j for j, o in enumerate(moved) if o.kind == "rect")
                moved[k] = replace(moved[k], center=tuple(joints[i]))
            worlds.append(Environment(obstacles=tuple(moved)))
        expected = np.array([signed_distance_batch(w, arm, q[None, :])[0]
                             for w, q in zip(worlds, qs)])
        assert (expected < 0).sum() >= 32
        got = geometry.capsule_world_min(
            batch_joint_positions(arm, qs)[0], arm.link_radius, np.stack([w._points for w in worlds]),
            base._offsets(arm),
            np.stack([w._rect_cz for w in worlds]), base._rect_hz, base._rect_reach,
            arm.cross_reach)
        assert same_bits(got, expected)


class TestRandomEnvironment:
    def test_zero_obstacles(self):
        env = random_environment(EnvGenConfig(num_obstacles=0), np.random.default_rng(0))
        assert len(env.obstacles) == 0

    def test_seed_determinism_bytes(self):
        cfg = EnvGenConfig(num_obstacles=6, shapes=("rect", "circle"))
        e1 = random_environment(cfg, np.random.default_rng(42))
        e2 = random_environment(cfg, np.random.default_rng(42))
        assert canonical_dumps(e1.to_json()) == canonical_dumps(e2.to_json())

    def test_base_clearance_respected(self):
        rng = np.random.default_rng(1)
        cfg = EnvGenConfig(num_obstacles=4, min_clearance_from_base=0.25)
        for _ in range(1000):
            env = random_environment(cfg, rng)
            for obs in env.obstacles:
                assert obs.point_distance(np.zeros(2)) >= 0.25

    def test_generation_error_when_impossible(self):
        cfg = EnvGenConfig(num_obstacles=1, size_range=(4.0, 4.0),
                           workspace=Workspace(half_extents=(0.5, 0.5)),
                           min_clearance_from_base=0.25)
        with pytest.raises(GenerationError):
            random_environment(cfg, np.random.default_rng(2))

    @pytest.mark.parametrize("speed", [0.0, 0.3])
    def test_equals_the_inline_velocity_draw(self, speed):
        cfg = EnvGenConfig(num_obstacles=6, shapes=("rect", "circle"), obstacle_speed=speed)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(10):
            got = random_environment(cfg, rng)
            ref = draw_oracle.random_environment(cfg, ref_rng)
            assert canonical_dumps(got.to_json()) == canonical_dumps(ref.to_json())
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampleFreeConfig:
    @pytest.mark.parametrize("clearance", [0.0, 0.05, 0.15])
    def test_honours_the_clearance(self, arm, clearance):
        rng = np.random.default_rng(11)
        for _ in range(10):
            env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")),
                                     rng)
            d = signed_distance(env, arm, sample_free_config(env, arm, rng, clearance))
            assert d > 0.0 and d >= clearance

    def test_an_unreachable_clearance_raises_after_max_gen_attempts(self, arm, monkeypatch):
        monkeypatch.setattr(environment, "MAX_GEN_ATTEMPTS", 5)
        env = random_environment(EnvGenConfig(), np.random.default_rng(12))
        rng = np.random.default_rng(13)
        ref_rng = copy.deepcopy(rng)
        with pytest.raises(GenerationError, match="clearance 10.0 after 5 draws in environment"):
            sample_free_config(env, arm, rng, clearance=10.0)
        for _ in range(5):
            sample_config(arm, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEnvGenConfigValidation:
    """Each generation setting is checked when the record is built, so a
    bad value fails there instead of giving another world."""

    @pytest.mark.parametrize("shapes", [(), ("circles",), ("rect", "triangle")])
    def test_shapes_must_be_a_non_empty_subset_of_rect_and_circle(self, shapes):
        with pytest.raises(ValueError, match="shapes"):
            EnvGenConfig(shapes=shapes)
        for ok in [("rect",), ("circle",), ("circle", "rect")]:
            assert EnvGenConfig(shapes=ok).shapes == ok

    def test_num_obstacles_must_be_non_negative(self):
        with pytest.raises(ValueError, match="num_obstacles"):
            EnvGenConfig(num_obstacles=-2)
        assert EnvGenConfig(num_obstacles=0).num_obstacles == 0

    @pytest.mark.parametrize("size_range", [(0.16, 0.08), (0.0, 0.1), (-0.1, 0.1),
                                            (0.1, np.inf), (np.nan, 0.1), (0.1, np.nan)])
    def test_size_range_must_be_finite_positive_and_ordered(self, size_range):
        with pytest.raises(ValueError, match="size_range"):
            EnvGenConfig(size_range=size_range)
        assert EnvGenConfig(size_range=(0.1, 0.1)).size_range == (0.1, 0.1)

    @pytest.mark.parametrize("speed", [-0.05, np.inf, np.nan])
    def test_obstacle_speed_must_be_non_negative_and_finite(self, speed):
        with pytest.raises(ValueError, match="obstacle_speed"):
            EnvGenConfig(obstacle_speed=speed)
        assert EnvGenConfig(obstacle_speed=0.0).obstacle_speed == 0.0

    def test_a_config_section_is_checked_when_built(self):
        with pytest.raises(ValueError, match="shapes"):
            EnvGenConfig.from_json({"shapes": ["circles"]})


class TestSerialization:
    def test_environment_round_trip(self):
        rng = np.random.default_rng(8)
        env = random_environment(
            EnvGenConfig(num_obstacles=5, shapes=("rect", "circle"), obstacle_speed=0.1), rng)
        doc = env.to_json()
        env2 = Environment.from_json(doc)
        assert canonical_dumps(env2.to_json()) == canonical_dumps(doc)

    def test_batch_matches_single(self, arm):
        rng = np.random.default_rng(9)
        env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")), rng)
        qs = np.stack([sample_config(arm, rng) for _ in range(64)])
        batch = signed_distance_batch(env, arm, qs)
        for q, d in zip(qs, batch):
            assert d == pytest.approx(signed_distance(env, arm, q), abs=1e-12)
