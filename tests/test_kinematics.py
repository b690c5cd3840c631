"""Arm model tests: joint positions against a phasor oracle and, bit for
bit, against a real-arithmetic chain; limit clamping and exact
integration, in the zero-order hold and in the per-step reference that
`rollout_oracle` keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbfsteer.kinematics import (
    ArmModel,
    batch_joint_positions,
    batch_link_frames,
    hold,
    joint_positions,
    sample_config,
    within,
)
from geometry_oracle import real_chain_joint_positions
from rollout_oracle import clamp_to_limits, integrate


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

    @pytest.mark.parametrize("base", [(0.0, 0.0), (0.25, -0.4)])
    def test_equals_the_cumsum_construction_bit_for_bit(self, base):
        # the construction the cached lengths and the one complex array
        # replaced; -0.0 angles, and zero rows, keep their bits
        arm = ArmModel(link_lengths=(0.5, 0.4, 0.3, 0.2), base_position=base)
        rng = np.random.default_rng(11)
        qs = rng.uniform(arm.lower, arm.upper, (64, arm.n_links))
        qs[:8] = -0.0
        qs[8:16, ::2] = -0.0
        qs[16:24] = 0.0
        angles = np.cumsum(qs, axis=1)
        ref = np.zeros((qs.shape[0], arm.n_links + 1), dtype=complex)
        np.multiply(np.array(arm.link_lengths), np.cos(angles), out=ref.real[:, 1:])
        np.multiply(np.array(arm.link_lengths), np.sin(angles), out=ref.imag[:, 1:])
        np.cumsum(ref, axis=1, out=ref)
        ref += complex(*base)
        joints, got_angles = batch_joint_positions(arm, qs)
        assert joints.tobytes() == ref.tobytes() and got_angles.tobytes() == angles.tobytes()

    def test_link_frames_are_the_first_n_joints(self, arm):
        qs = np.random.default_rng(9).uniform(arm.lower, arm.upper, (5, 3))
        joints, angles = batch_joint_positions(arm, qs)
        origins, frame_angles = batch_link_frames(arm, qs)
        np.testing.assert_array_equal(origins[..., 0], joints.real[:, :-1])
        np.testing.assert_array_equal(origins[..., 1], joints.imag[:, :-1])
        np.testing.assert_array_equal(frame_angles, angles)


def hold_still(arm, q):
    """The hold's clamp alone: one substep with zero control."""
    return hold(arm, q, np.zeros(arm.n_links), 1, 0.1)[0]


class TestClamp:
    def test_inside_unchanged(self, arm):
        q = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(clamp_to_limits(arm, q), q)
        np.testing.assert_array_equal(hold_still(arm, q), q)

    def test_above_upper(self, arm):
        q = np.array([arm.joint_upper[0] + 0.5, 0.0, 0.0])
        assert clamp_to_limits(arm, q)[0] == arm.joint_upper[0]
        assert hold_still(arm, q)[0] == arm.joint_upper[0]

    def test_idempotent(self, arm):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = rng.uniform(-5, 5, arm.n_links)
            once = clamp_to_limits(arm, q)
            np.testing.assert_array_equal(clamp_to_limits(arm, once), once)
            np.testing.assert_array_equal(hold_still(arm, hold_still(arm, q)), once)


class TestIntegrate:
    def test_zero_control_identity(self, arm):
        q = np.array([0.5, -0.5, 0.2])
        q2, clipped = integrate(arm, q, np.zeros(3), 0.1)
        np.testing.assert_array_equal(q2, q)
        assert not clipped
        np.testing.assert_array_equal(hold(arm, q, np.zeros(3), 1, 0.1), [q])

    def test_euler_step(self, wide_arm):
        q2, clipped = integrate(wide_arm, np.zeros(2), np.array([1.0, -1.0]), 0.1)
        np.testing.assert_allclose(q2, [0.1, -0.1])
        assert not clipped
        np.testing.assert_allclose(hold(wide_arm, np.zeros(2), np.array([1.0, -1.0]), 1, 0.1),
                                   [[0.1, -0.1]])

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
        np.testing.assert_allclose(hold(arm, q, u, steps, dt)[-1], expected, atol=1e-12)

    def test_out_of_box_clipped_and_flagged(self, arm):
        q = np.zeros(3)
        q2, clipped = integrate(arm, q, np.array([5.0, 0.0, 0.0]), 0.1)
        assert clipped
        assert q2[0] == pytest.approx(arm.action_bound[0] * 0.1)

    def test_nonfinite_control_raises(self, arm):
        with pytest.raises(ValueError):
            integrate(arm, np.zeros(3), np.array([np.nan, 0.0, 0.0]), 0.1)

    def test_one_substep_hold_is_one_step_bit_for_bit(self, arm):
        # data collection steps its rollouts with hold(..., 1, dt)[0]: on
        # in-box controls it is the clamped Euler step, signed zeros and
        # joint-limit clamps included
        rng = np.random.default_rng(6)
        clamped = negative_zeros = 0
        for i in range(20_000):
            q = sample_config(arm, rng)
            u = rng.uniform(arm.action_lower, arm.action_upper)
            if i % 4 == 1:  # start at or just inside a limit and push outward
                j = rng.integers(arm.n_links)
                sign = rng.choice([-1.0, 1.0])
                q[j] = (arm.upper if sign > 0 else arm.lower)[j] - sign * rng.uniform(0, 0.02)
                u[j] = sign * abs(u[j])
            if i % 4 == 2:  # signed zeros in the state and the control
                q[rng.random(arm.n_links) < 0.5] = -0.0
                u[rng.random(arm.n_links) < 0.5] = rng.choice([0.0, -0.0])
            dt = (1.0 / 30, 1.0 / 120, rng.uniform(0.0, 0.1))[i % 3]
            step, _ = integrate(arm, q, u, dt)
            held = hold(arm, q, u, 1, dt)
            assert held.shape == (1, arm.n_links)
            assert held[0].tobytes() == step.tobytes()
            clamped += int(np.any((step == arm.upper) | (step == arm.lower)))
            negative_zeros += int(np.any((step == 0.0) & np.signbit(step)))
        assert clamped > 1000 and negative_zeros > 100

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_hold_moves_each_joint_one_way(self, data):
        # the premise of a rollout steer's motion bound: within a tick each
        # joint moves one way, the first step's clamp from outside the limits
        # included, so no state or ladder point of the tick lies farther from
        # either end than the tick's whole motion
        arm = ArmModel()
        q = np.array([data.draw(st.floats(lo - 0.5, hi + 0.5), label=f"q{i}")
                      for i, (lo, hi) in enumerate(zip(arm.joint_lower, arm.joint_upper))])
        u = np.array([data.draw(st.floats(-b, b), label=f"u{i}")
                      for i, b in enumerate(arm.action_bound)])
        substeps = data.draw(st.integers(1, 6), label="substeps")
        dt = data.draw(st.sampled_from([1.0 / 120, 1.0 / 30, 0.1]), label="dt")
        steps = np.diff(np.vstack([q, hold(arm, q, u, substeps, dt)]), axis=0)
        assert np.all(np.all(steps >= 0.0, axis=0) | np.all(steps <= 0.0, axis=0))


class TestWithin:
    """`within`, the one goal-ball test, decides as `np.linalg.norm(q - c)
    <= r`, the test it replaced, did: at a radius equal to the norm itself
    and one float either side of it too."""

    @staticmethod
    def assert_decides_as_the_norm(q, c, r):
        norm = float(np.linalg.norm(q - c))
        for radius in (r, norm, np.nextafter(norm, -np.inf), np.nextafter(norm, np.inf)):
            assert within(q, c, radius) is (norm <= radius)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_drawn_vectors(self, data):
        n = data.draw(st.sampled_from([2, 3, 7]), label="n")
        coords = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
        q, c = (np.array(data.draw(coords, label=name)) for name in ("q", "c"))
        self.assert_decides_as_the_norm(q, c, data.draw(st.floats(0.0, 2e3), label="r"))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_random_vectors(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(3000):
            scale = 10.0 ** rng.uniform(-6, 3)
            q, c = rng.normal(0.0, scale, (2, n))
            self.assert_decides_as_the_norm(q, c, rng.uniform(0.0, 3.0 * scale * n))


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

    def test_bound_arrays_cached_and_read_only(self):
        arm = ArmModel(joint_lower=(-2.0, -1.0, -0.5), joint_upper=(2.0, 1.0, 0.5),
                       action_bound=(1.5, 1.0, 0.5))
        expect = {"lower": arm.joint_lower, "upper": arm.joint_upper,
                  "action_lower": tuple(-b for b in arm.action_bound),
                  "action_upper": arm.action_bound}
        for name, values in expect.items():
            got = getattr(arm, name)
            assert got is getattr(arm, name)  # built once
            assert got.dtype == float and tuple(got) == values
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
        assert arm == ArmModel.from_json(arm.to_json())

    def test_lengths_and_joint_reach(self):
        arm = ArmModel(link_lengths=(0.5, 0.4, 0.3, 0.25))
        assert arm.lengths is arm.lengths and not arm.lengths.flags.writeable
        assert tuple(arm.lengths) == arm.link_lengths
        assert arm.joint_reach is arm.joint_reach
        assert arm.joint_reach == pytest.approx((1.45, 0.95, 0.55, 0.25), abs=1e-15)

    @pytest.mark.parametrize("lengths, cap", [((0.5, 0.4, 0.3), 0.32),
                                              ((0.5, 0.2, 0.4, 0.3), 0.12),
                                              ((1.2 / 7,) * 7, 1.2 / 7 - 0.08),
                                              ((0.5, 0.4), np.inf)])
    def test_clearance_cap(self, lengths, cap):
        # the shortest inner link less two radii; no inner link, no cap
        arm = ArmModel(link_lengths=lengths)
        assert arm.clearance_cap is arm.clearance_cap
        assert arm.clearance_cap == pytest.approx(cap, abs=1e-15)
