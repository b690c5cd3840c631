"""Arm model tests: joint positions against a phasor oracle and, bit for
bit, against a real-arithmetic chain; limit clamping and exact
integration."""

import numpy as np
import pytest

from cbfsteer.kinematics import (
    ArmModel,
    batch_joint_positions,
    batch_link_frames,
    clamp_to_limits,
    integrate,
    joint_positions,
    sample_config,
)
from geometry_oracle import real_chain_joint_positions


def phasor_tip(lengths, q, base=(0.0, 0.0)):
    """Independent FK oracle: accumulate unit phasors as complex products."""
    z = complex(*base)
    phase = complex(1.0, 0.0)
    for length, angle in zip(lengths, q):
        phase *= complex(np.cos(angle), np.sin(angle))
        z += length * phase
    return np.array([z.real, z.imag])


@pytest.fixture
def arm():
    return ArmModel()


@pytest.fixture
def wide_arm():
    return ArmModel(link_lengths=(1.0, 1.0), joint_lower=(-10.0, -10.0),
                    joint_upper=(10.0, 10.0), action_bound=(5.0, 5.0))


class TestForwardKinematics:
    def test_zero_chain_along_x(self, wide_arm):
        tip = joint_positions(wide_arm, np.zeros(2))[0][-1]
        np.testing.assert_allclose(tip, [2.0, 0.0], atol=1e-15)

    def test_quarter_turn(self, wide_arm):
        tip = joint_positions(wide_arm, np.array([np.pi / 2, 0.0]))[0][-1]
        np.testing.assert_allclose(tip, [0.0, 2.0], atol=1e-12)

    def test_tip_matches_phasor_oracle(self):
        arm = ArmModel(link_lengths=(0.5, 0.4, 0.3))
        q = np.array([0.3, -0.2, 0.1])
        tip = joint_positions(arm, q)[0][-1]
        np.testing.assert_allclose(tip, phasor_tip(arm.link_lengths, q), atol=1e-12)

    def test_random_configs_match_phasor(self, arm):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = sample_config(arm, rng)
            tip = joint_positions(arm, q)[0][-1]
            np.testing.assert_allclose(tip, phasor_tip(arm.link_lengths, q), atol=1e-12)

    def test_segments_chain_and_lengths(self, arm):
        rng = np.random.default_rng(1)
        q = sample_config(arm, rng)
        pts = joint_positions(arm, q)[0]
        assert pts.shape == (arm.n_links + 1, 2)
        np.testing.assert_array_equal(pts[0], arm.base_position)
        for i in range(arm.n_links):
            length = np.linalg.norm(pts[i + 1] - pts[i])
            assert length == pytest.approx(arm.link_lengths[i], rel=1e-9)

    def test_dimension_mismatch_raises(self, arm):
        with pytest.raises(ValueError):
            joint_positions(arm, np.zeros(2))

    def test_lipschitz_bound(self, arm):
        # per-endpoint displacement is bounded by (sum of lengths) * |dq|
        rng = np.random.default_rng(2)
        bound = sum(arm.link_lengths)
        for _ in range(200):
            q = sample_config(arm, rng)
            dq = rng.normal(scale=0.1, size=arm.n_links)
            p1 = joint_positions(arm, q)[0]
            p2 = joint_positions(arm, np.clip(q + dq, arm.lower, arm.upper))[0]
            dq_eff = clamp_to_limits(arm, q + dq) - q
            disp = np.linalg.norm(p2 - p1, axis=1).max()
            assert disp <= bound * np.linalg.norm(dq_eff, 1) + 1e-9


class TestBatchJointPositions:
    def test_rows_match_joint_positions(self):
        arm = ArmModel(link_lengths=(0.5, 0.4, 0.3, 0.2), base_position=(0.3, -0.2))
        qs = np.random.default_rng(8).uniform(arm.lower, arm.upper, (7, 4))
        joints, angles = batch_joint_positions(arm, qs)
        assert joints.shape == (7, 5) and joints.dtype == complex
        for row, q in zip(joints, qs):
            np.testing.assert_allclose(np.stack([row.real, row.imag], axis=1),
                                       joint_positions(arm, q)[0], atol=1e-15)
        np.testing.assert_allclose(angles, np.cumsum(qs, axis=1), atol=1e-15)

    @pytest.mark.parametrize("lengths, base", [((0.5, 0.4, 0.3), (0.25, -0.4)),
                                               ((0.5, 0.4, 0.3, 0.2, 0.15), (-0.3, 0.7))],
                             ids=["3-link", "5-link"])
    def test_one_row_view_equals_the_real_arithmetic_chain_bit_for_bit(self, lengths, base):
        # joint_positions is one complex batch row seen as reals; its points
        # keep the values of a link-by-link real sum and its angles are the
        # configuration's cumulative sum
        arm = ArmModel(link_lengths=lengths, base_position=base)
        qs = np.random.default_rng(10).uniform(arm.lower, arm.upper, (10_000, arm.n_links))
        for q in qs:
            pts, angles = joint_positions(arm, q)
            assert pts.shape == (arm.n_links + 1, 2)
            assert pts.tobytes() == real_chain_joint_positions(arm, q).tobytes()
            assert angles.tobytes() == np.cumsum(q).tobytes()

    def test_link_frames_are_the_first_n_joints(self, arm):
        qs = np.random.default_rng(9).uniform(arm.lower, arm.upper, (5, 3))
        joints, angles = batch_joint_positions(arm, qs)
        origins, frame_angles = batch_link_frames(arm, qs)
        np.testing.assert_array_equal(origins[..., 0], joints.real[:, :-1])
        np.testing.assert_array_equal(origins[..., 1], joints.imag[:, :-1])
        np.testing.assert_array_equal(frame_angles, angles)


class TestClamp:
    def test_inside_unchanged(self, arm):
        q = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(clamp_to_limits(arm, q), q)

    def test_above_upper(self, arm):
        q = np.array([arm.joint_upper[0] + 0.5, 0.0, 0.0])
        assert clamp_to_limits(arm, q)[0] == arm.joint_upper[0]

    def test_idempotent(self, arm):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = rng.uniform(-5, 5, arm.n_links)
            once = clamp_to_limits(arm, q)
            np.testing.assert_array_equal(clamp_to_limits(arm, once), once)


class TestIntegrate:
    def test_zero_control_identity(self, arm):
        q = np.array([0.5, -0.5, 0.2])
        q2, clipped = integrate(arm, q, np.zeros(3), 0.1)
        np.testing.assert_array_equal(q2, q)
        assert not clipped

    def test_euler_step(self, wide_arm):
        q2, clipped = integrate(wide_arm, np.zeros(2), np.array([1.0, -1.0]), 0.1)
        np.testing.assert_allclose(q2, [0.1, -0.1])
        assert not clipped

    def test_constant_control_closed_form(self, arm):
        rng = np.random.default_rng(5)
        q = sample_config(arm, rng) * 0.3
        u = rng.uniform(-1, 1, arm.n_links)
        dt = 0.01
        steps = 50
        qq = q
        for _ in range(steps):
            qq, _ = integrate(arm, qq, u, dt)
        expected = clamp_to_limits(arm, q + u * dt * steps)
        np.testing.assert_allclose(qq, expected, atol=1e-12)

    def test_out_of_box_clipped_and_flagged(self, arm):
        q = np.zeros(3)
        q2, clipped = integrate(arm, q, np.array([5.0, 0.0, 0.0]), 0.1)
        assert clipped
        assert q2[0] == pytest.approx(arm.action_bound[0] * 0.1)

    def test_nonfinite_control_raises(self, arm):
        with pytest.raises(ValueError):
            integrate(arm, np.zeros(3), np.array([np.nan, 0.0, 0.0]), 0.1)


class TestArmModel:
    def test_json_round_trip(self):
        arm = ArmModel(link_lengths=(0.4, 0.3), base_position=(0.1, -0.2))
        doc = arm.to_json()
        assert set(doc) == {"link_lengths", "link_radius", "joint_lower", "joint_upper",
                            "action_bound", "base_position"}
        assert ArmModel.from_json(doc) == arm

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ArmModel(link_lengths=(1.0,))
        with pytest.raises(ValueError):
            ArmModel(link_lengths=(1.0, -1.0))
        with pytest.raises(ValueError):
            ArmModel(link_lengths=(1.0, 1.0), joint_lower=(1.0, 0.0), joint_upper=(0.5, 1.0))
        with pytest.raises(ValueError):
            ArmModel(link_lengths=(1.0, 1.0), action_bound=(0.0, 1.0))
