"""Safety-filter tests: the box-and-halfspace QP against grid-search oracles,
nominal policy behavior, and closed-loop rollouts."""

from dataclasses import replace

import numpy as np
import pytest

import rollout_oracle
from arms import ARMS, HAND_MARGIN, InflatedReading, contact_pairs, over_links
from cbfsteer import bench, controller
from cbfsteer.cbf import CbfHyper, HandcraftedBarrier, NeuralBarrier
from cbfsteer.controller import (
    ControllerBundle,
    NominalPolicy,
    QpMode,
    RolloutLimits,
    SafeControllerConfig,
    _breakpoint_walk,
    rollout_ticks,
    safe_rollout,
    solve_safety_qp,
)
from cbfsteer.environment import (
    EnvGenConfig,
    Environment,
    Obstacle,
    ScanSpec,
    StateObservation,
    random_environment,
    ray_cast_scan,
    sample_surface_points,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import ArmModel, hold, sample_config
from cbfsteer.neural import Mlp, PointSetEncoder


def hyperplane_grid_oracle(u_nom, a, b, lo, hi, coarse=15, zooms=8):
    """Brute-force projection oracle for feasible instances.

    Enumerates the two KKT cases: the box-clipped nominal if feasible, else a
    refined grid over the active hyperplane patch (solving one coordinate from
    the constraint). Independent of the solver's algebra.
    """
    n = len(u_nom)
    best = None
    best_obj = np.inf

    def consider(u):
        nonlocal best, best_obj
        if np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12) and a @ u + b <= 1e-9:
            obj = float(((u - u_nom) ** 2).sum())
            if obj < best_obj:
                best_obj = obj
                best = u

    consider(np.clip(u_nom, lo, hi))
    k = int(np.argmax(np.abs(a)))
    rest = [i for i in range(n) if i != k]
    centers = [0.5 * (lo[i] + hi[i]) for i in rest]
    spans = [0.5 * (hi[i] - lo[i]) for i in rest]
    for _ in range(zooms):
        axes = [np.linspace(c - s, c + s, coarse) for c, s in zip(centers, spans)]
        mesh = np.meshgrid(*axes, indexing="ij") if rest else []
        flat = [m.ravel() for m in mesh]
        m = flat[0].shape[0] if flat else 1
        u = np.empty((m, n))
        for j, i in enumerate(rest):
            u[:, i] = flat[j]
        u[:, k] = (-b - sum(a[i] * u[:, i] for i in rest)) / a[k]
        ok = np.all((u >= lo - 1e-12) & (u <= hi + 1e-12), axis=1)
        if ok.any():
            cand = u[ok]
            objs = ((cand - u_nom) ** 2).sum(axis=1)
            j = int(np.argmin(objs))
            if objs[j] < best_obj:
                best_obj = float(objs[j])
                best = cand[j]
                for t, i in enumerate(rest):
                    centers[t] = cand[j][i]
        spans = [max(s * 2.2 / (coarse - 1), 1e-9) for s in spans]
    return best, best_obj


@pytest.fixture
def box2():
    return np.array([-1.0, -1.0]), np.array([1.0, 1.0])


class TestNominalPolicy:
    def test_at_goal_zero(self, box2):
        lo, hi = box2
        u = NominalPolicy().control(np.ones(2), np.ones(2), lo, hi)
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_saturation(self, box2):
        lo, hi = box2
        u = NominalPolicy(gain=1.0).control(np.array([2.0, 0.0]), np.zeros(2), lo, hi)
        np.testing.assert_array_equal(u, [-1.0, 0.0])

    def test_empty_space_distance_decreases(self):
        arm = ArmModel()
        policy = NominalPolicy()
        q = np.array([1.0, -0.8, 0.5])
        goal = np.array([-0.5, 0.7, -1.0])
        dt = 1.0 / 30
        dist = np.linalg.norm(q - goal)
        for _ in range(200):
            u = policy.control(q, goal, arm.action_lower, arm.action_upper)
            q = q + u * dt
            new_dist = np.linalg.norm(q - goal)
            if new_dist < 1e-9:
                break
            assert new_dist < dist
            dist = new_dist

    @pytest.mark.parametrize("gain", [-1.0, 0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_gain_rejected(self, gain):
        # at -1 the policy would push away from the goal
        with pytest.raises(ValueError, match="gain"):
            NominalPolicy(gain=gain)


class TestQpStrict:
    def test_inactive_constraint_returns_nominal_bitwise(self, box2):
        lo, hi = box2
        cfg = SafeControllerConfig(mode=QpMode.STRICT)
        u_nom = np.array([0.3, -0.7])
        u, diag = solve_safety_qp(u_nom, np.array([1.0, 1.0]), -5.0, cfg, lo, hi)
        assert u is u_nom or np.array_equal(u, u_nom)
        assert not diag.constraint_active
        assert not diag.infeasible

    def test_hyperplane_projection_inside_box(self, box2):
        # spec example verified against a 201^2 grid
        lo, hi = box2
        cfg = SafeControllerConfig(mode=QpMode.STRICT)
        u, diag = solve_safety_qp(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0, cfg, lo, hi)
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-12)
        g = np.linspace(-1, 1, 201)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        feas = xx <= 0
        obj = np.where(feas, (xx - 1.0) ** 2 + yy ** 2, np.inf)
        assert ((u[0] - 1) ** 2 + u[1] ** 2) <= obj.min() + 1e-12

    def test_infeasible_detected(self, box2):
        lo, hi = box2
        cfg = SafeControllerConfig(mode=QpMode.STRICT)
        u, diag = solve_safety_qp(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 3.0, cfg, lo, hi)
        assert diag.infeasible
        # returned best-effort control minimizes the constraint: a.u + b = 1
        np.testing.assert_array_equal(u, [-1.0, -1.0])
        assert np.array([1.0, 1.0]) @ u + 3.0 == pytest.approx(1.0)

    def test_random_instances_match_grid_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(250):
            n = int(rng.integers(2, 5))
            lo = -rng.uniform(0.3, 1.5, n)
            hi = rng.uniform(0.3, 1.5, n)
            u_nom = rng.uniform(lo, hi)
            a = rng.normal(size=n)
            b = float(rng.normal(scale=0.8))
            cfg = SafeControllerConfig(mode=QpMode.STRICT)
            u, diag = solve_safety_qp(u_nom, a, b, cfg, lo, hi)
            inf_box = float(np.minimum(a * lo, a * hi).sum())
            assert diag.infeasible == (inf_box + b > 0)
            if diag.infeasible:
                continue
            assert np.all(u >= lo) and np.all(u <= hi)
            assert float(a @ u) + b <= 1e-9
            _, oracle_obj = hyperplane_grid_oracle(u_nom, a, b, lo, hi)
            solver_obj = float(((u - u_nom) ** 2).sum())
            assert solver_obj <= oracle_obj + 1e-6
            checked += 1
        assert checked > 150

    def test_nonfinite_inputs_rejected(self, box2):
        lo, hi = box2
        with pytest.raises(ValueError):
            solve_safety_qp(np.array([np.nan, 0.0]), np.ones(2), 0.0,
                            SafeControllerConfig(), lo, hi)


class TestQpRelaxed:
    def test_matches_penalty_grid(self, box2):
        lo, hi = box2
        rng = np.random.default_rng(1)
        g = np.linspace(-1, 1, 301)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        for _ in range(60):
            a = rng.normal(size=2)
            b = float(rng.normal())
            w = rng.uniform(-1, 1, 2)
            rho = float(rng.choice([1.0, 10.0, 100.0]))
            cfg = SafeControllerConfig(mode=QpMode.RELAXED, relax_penalty=rho)
            u, _ = solve_safety_qp(w, a, b, cfg, lo, hi)
            obj_grid = ((xx - w[0]) ** 2 + (yy - w[1]) ** 2
                        + rho * np.maximum(a[0] * xx + a[1] * yy + b, 0.0) ** 2)
            solver_obj = float(((u - w) ** 2).sum() + rho * max(a @ u + b, 0.0) ** 2)
            assert solver_obj <= obj_grid.min() + 1e-9

    def test_always_returns_control(self, box2):
        lo, hi = box2
        cfg = SafeControllerConfig(mode=QpMode.RELAXED, relax_penalty=50.0)
        u, diag = solve_safety_qp(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 3.0, cfg, lo, hi)
        assert np.all(np.isfinite(u))
        assert diag.infeasible  # separability diagnostic still reported


class TestSafeControllerConfig:
    @pytest.mark.parametrize("mode", list(QpMode))
    @pytest.mark.parametrize("penalty", [np.inf, np.nan])
    def test_non_finite_penalty_rejected(self, mode, penalty):
        # an infinite relaxed penalty returned the box corner, not the projection
        with pytest.raises(ValueError, match="relax_penalty must be finite"):
            SafeControllerConfig(relax_penalty=penalty, mode=mode)

    @pytest.mark.parametrize("penalty", [0.0, -1.0])
    def test_relaxed_mode_needs_a_positive_penalty(self, penalty):
        with pytest.raises(ValueError, match="positive penalty"):
            SafeControllerConfig(relax_penalty=penalty)

    def test_mode_given_by_value_is_the_mode(self, box2):
        lo, hi = box2
        cfg = SafeControllerConfig(mode="strict")
        assert cfg.mode is QpMode.STRICT
        args = (np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0)
        u, diag = solve_safety_qp(*args, cfg, lo, hi)
        u_ref, diag_ref = solve_safety_qp(*args, SafeControllerConfig(mode=QpMode.STRICT), lo, hi)
        u_relaxed, _ = solve_safety_qp(*args, SafeControllerConfig(), lo, hi)
        assert u.tobytes() == u_ref.tobytes() != u_relaxed.tobytes() and diag == diag_ref

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="QpMode"):
            SafeControllerConfig(mode="bogus")


class TestBreakpointWalk:
    """The one walk against the strict-projection and relaxed-penalty walks
    it replaced, bit for bit, on random active instances of 1 to 7 joints."""

    @staticmethod
    def active_instances(seed, count=3000):
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            n = int(rng.integers(1, 8))
            lo = -rng.uniform(0.2, 2.0, n)
            hi = rng.uniform(0.2, 2.0, n)
            u_nom = rng.uniform(lo, hi)
            a = rng.normal(size=n) * (rng.random(n) > 0.15)  # some zero coefficients
            b = float(rng.normal(scale=1.5))
            if float(a @ u_nom) + b <= 0.0 or not np.any(a):
                continue
            done += 1
            yield u_nom, a, b, lo, hi

    def test_strict_matches_projection_walk(self):
        checked = 0
        for u_nom, a, b, lo, hi in self.active_instances(40):
            inf_box = float(a @ np.where(a > 0.0, lo, np.where(a < 0.0, hi, lo)))
            if inf_box + b > 0.0:
                continue  # the strict walk needs a nonempty intersection
            got = _breakpoint_walk(u_nom, a, b, 1.0, 0.0, lo, hi)
            ref = rollout_oracle.project_halfspace_box(u_nom, a, -b, lo, hi)
            assert got.tobytes() == ref.tobytes()
            checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("rho", [1e-4, 1.0, 100.0, 1e6])
    def test_relaxed_matches_penalty_walk(self, rho):
        for u_nom, a, b, lo, hi in self.active_instances(41):
            got = _breakpoint_walk(u_nom, a, b, rho, 1.0, lo, hi)
            ref = rollout_oracle.relaxed_penalty_min(u_nom, a, b, rho, lo, hi)
            assert got.tobytes() == ref.tobytes()


def qp_instances(seed, count):
    """Random safety-QP inputs, n = 1..7: zero and -0.0 gradient entries,
    u_nom coordinates on a bound, coordinate pairs whose breakpoints tie, and
    u_nom exactly on the constraint boundary at alpha = 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        lo = -rng.uniform(0.2, 2.0, n)
        hi = rng.uniform(0.2, 2.0, n)
        u_nom = rng.uniform(lo, hi)
        a = rng.normal(size=n)
        zero = rng.random(n) < 0.15
        a[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        on_bound = rng.random(n) < 0.15
        u_nom[on_bound] = np.where(rng.random(int(on_bound.sum())) < 0.5,
                                   lo[on_bound], hi[on_bound])
        if n >= 2 and rng.random() < 0.3:  # coordinate 1 clamps where coordinate 0 does
            for v in (lo, hi, u_nom, a):
                v[1] = v[0]
        h = float(rng.normal(scale=1.0)) if rng.random() < 0.9 else -float(a @ u_nom)
        yield u_nom, a, h, lo, hi


def diag_bits(d):
    return d.constraint_active, d.infeasible


class TestSafetyQpOracle:
    """`solve_safety_qp`, whose scalar steps run on Python floats, against the
    numpy array QP it replaced: the same control bytes and diagnostics."""

    # (barrier alpha, QP settings): both solvers take the offset b = alpha*h
    CONFIGS = [(1.0, SafeControllerConfig(mode=QpMode.STRICT)),
               (2.5, SafeControllerConfig(mode=QpMode.STRICT)),
               (1.0, SafeControllerConfig(relax_penalty=100.0)),
               (0.5, SafeControllerConfig(relax_penalty=1e-3)),
               (1.0, SafeControllerConfig(relax_penalty=1e6))]

    @pytest.mark.parametrize("case", CONFIGS,
                             ids=lambda c: f"{c[1].mode.value}-{c[1].relax_penalty}")
    def test_random_instances_bit_equal(self, case):
        alpha, cfg = case
        seen = {"inactive": 0, "walk": 0, "infeasible": 0, "zero_grad": 0}
        for u_nom, a, h, lo, hi in qp_instances(60, 3000):
            got_u, got = solve_safety_qp(u_nom, a, alpha * h, cfg, lo, hi)
            ref_u, ref = rollout_oracle.safety_qp(u_nom, a, alpha * h, cfg, lo, hi)
            assert got_u.tobytes() == ref_u.tobytes()
            assert diag_bits(got) == diag_bits(ref)
            if not got.constraint_active:
                seen["inactive"] += 1
            elif cfg.mode is QpMode.STRICT and got.infeasible:
                seen["infeasible"] += 1
            else:
                seen["walk"] += 1
            seen["zero_grad"] += int(not np.all(a))
        assert seen["inactive"] > 300 and seen["walk"] > 300 and seen["zero_grad"] > 300
        if cfg.mode is QpMode.STRICT:
            assert seen["infeasible"] > 100

    def test_all_zero_gradient(self):
        lo, hi = -np.ones(3), np.ones(3)
        u_nom = np.array([0.5, -1.0, 1.0])
        for alpha, cfg in self.CONFIGS:
            for h in (-0.5, 0.0, 0.5):
                for a in (np.zeros(3), np.array([-0.0, 0.0, -0.0])):
                    got_u, got = solve_safety_qp(u_nom, a, alpha * h, cfg, lo, hi)
                    ref_u, ref = rollout_oracle.safety_qp(u_nom, a, alpha * h, cfg, lo, hi)
                    assert got_u.tobytes() == ref_u.tobytes()
                    assert diag_bits(got) == diag_bits(ref)

    @pytest.mark.parametrize("u_nom, a, h", [
        ([np.nan, 0.0], [1.0, 0.0], 0.1),
        ([0.0, 0.0], [np.inf, 0.0], 0.1),
        ([0.0, 0.0], [1.0, -np.inf], 0.1),
        ([0.0, 0.0], [1.0, 0.0], np.nan),
        ([0.0, 0.0], [1.0, 0.0], -np.inf),
    ])
    def test_non_finite_inputs_rejected_by_both(self, u_nom, a, h):
        cfg = SafeControllerConfig()
        lo, hi = -np.ones(2), np.ones(2)
        for solve in (solve_safety_qp, rollout_oracle.safety_qp):
            with pytest.raises(ValueError, match="non-finite"):
                solve(np.array(u_nom), np.array(a), h, cfg, lo, hi)

    def test_empty_box_rejected_by_both(self):
        for solve in (solve_safety_qp, rollout_oracle.safety_qp):
            with pytest.raises(ValueError, match="empty action box"):
                solve(np.zeros(2), np.ones(2), 0.1, SafeControllerConfig(),
                      np.array([-1.0, 0.5]), np.array([1.0, 0.25]))


class TestHold:
    @pytest.mark.parametrize("substeps", [1, 3, 4])
    def test_iterated_euler_steps_bit_for_bit(self, substeps):
        # hold is k clamped Euler steps exactly, signed zeros included, also
        # from a start outside the limits and when a joint reaches a limit
        # in mid-tick
        arm = ArmModel()
        rng = np.random.default_rng(50)
        dt = 1.0 / 120
        outside = mid_tick = 0
        for i in range(3000):
            q = sample_config(arm, rng)
            u = rng.uniform(arm.action_lower, arm.action_upper)
            j = rng.integers(arm.n_links)
            sign = rng.choice([-1.0, 1.0])
            bound = (arm.upper if sign > 0 else arm.lower)[j]
            if i % 4 == 1:  # start beyond a limit, either control direction
                q[j] = bound + sign * rng.uniform(0.0, 0.05)
            elif i % 4 == 2:  # start short of a limit and push toward it
                u[j] = sign * abs(u[j])
                q[j] = bound - u[j] * dt * rng.uniform(0.0, substeps)
            elif i % 4 == 3:
                q[rng.random(arm.n_links) < 0.5] = -0.0
                u[rng.random(arm.n_links) < 0.5] = rng.choice([0.0, -0.0])
            held = hold(arm, q, u, substeps, dt)
            ref = np.array(rollout_oracle.iterated_hold(arm, q, u, substeps, dt))
            assert held.shape == (substeps, arm.n_links)
            assert held.tobytes() == ref.tobytes()
            at_limit = (held == arm.lower) | (held == arm.upper)
            outside += int(np.any((q < arm.lower) | (q > arm.upper)))
            mid_tick += int(np.any(at_limit[-1] & ~at_limit[0]))
        assert outside > 500
        assert mid_tick > 100 or substeps == 1

    def test_clamps_at_joint_limits(self):
        arm = ArmModel()
        q = np.array([2.79, 0.0, -2.79])
        states = hold(arm, q, np.array([1.0, 0.5, -1.0]), 4, 1.0 / 120)
        assert states.shape == (4, 3)
        np.testing.assert_array_equal(states[-1, [0, 2]], [2.8, -2.8])


def far_world():
    return Environment(obstacles=(Obstacle(kind="circle", center=(5.0, 5.0), radius=0.2),))


class TestRolloutLimits:
    @pytest.mark.parametrize("horizon", [0.0, -0.5, np.nan, np.inf])
    def test_non_positive_or_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            RolloutLimits(horizon_s=horizon)

    @pytest.mark.parametrize("horizon", [0.01, 1 / 60])
    def test_horizon_without_a_control_tick_rejected(self, horizon):
        # at 30 Hz, 0.01 s rounds to 0 ticks, and so does half a period
        with pytest.raises(ValueError, match="horizon"):
            RolloutLimits(horizon_s=horizon)
        assert RolloutLimits(horizon_s=0.02).n_ticks == 1

    @pytest.mark.parametrize("r_goal", [-1.0, 0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_goal_radius_rejected(self, r_goal):
        # at -1 no rollout or plan could reach its goal
        with pytest.raises(ValueError, match="r_goal"):
            RolloutLimits(r_goal=r_goal)

    @pytest.mark.parametrize("sim_hz, ctrl_hz", [(100, 30), (20, 30), (0, 30), (120, 0)])
    def test_rates_must_give_whole_substeps(self, sim_hz, ctrl_hz):
        with pytest.raises(ValueError, match="sim_hz"):
            RolloutLimits(sim_hz=sim_hz, ctrl_hz=ctrl_hz)


class TestSafeRollout:
    def test_empty_env_reaches_goal(self):
        arm = ArmModel()
        barrier = HandcraftedBarrier(arm, margin=0.1)
        rec = safe_rollout(ControllerBundle(barrier, None, limits=RolloutLimits(horizon_s=10.0)),
                           np.zeros(3), np.array([0.8, -0.5, 0.3]), far_world())
        assert rec.reached_goal
        assert not rec.collided
        assert rec.qp_infeasible_count == 0

    def test_start_in_goal_immediate(self):
        arm = ArmModel()
        barrier = HandcraftedBarrier(arm, margin=0.1)
        rec = safe_rollout(ControllerBundle(barrier, None), np.zeros(3), np.zeros(3),
                           far_world())
        assert rec.reached_goal
        assert rec.steps_used == 0
        assert len(rec.configs) == 1

    def test_zero_order_hold_lengths(self):
        arm = ArmModel()
        barrier = HandcraftedBarrier(arm, margin=0.1)
        limits = RolloutLimits(horizon_s=0.5)
        rec = safe_rollout(ControllerBundle(barrier, None, limits=limits),
                           np.zeros(3), np.array([2.0, 2.0, 2.0]), far_world())
        substeps = limits.sim_hz // limits.ctrl_hz
        assert len(rec.configs) == 1 + rec.steps_used * substeps
        # zero-order hold: each tick's substep displacements are equal
        for t, u in enumerate(rec.controls):
            for k in range(substeps):
                q_prev = rec.configs[t * substeps + k]
                q_next = rec.configs[t * substeps + k + 1]
                np.testing.assert_allclose(q_next - q_prev, u / limits.sim_hz, atol=1e-12)

    def test_collision_flag_consistency(self):
        arm = ArmModel()
        # obstacle straddling the motion path, barrier blind (huge negative margin
        # would be dishonest; use a nominal-friendly barrier with tiny margin)
        env = Environment(obstacles=(Obstacle(kind="rect", center=(0.9, 0.35),
                                              half_extents=(0.12, 0.12)),))
        barrier = HandcraftedBarrier(arm, margin=0.0, hyper=CbfHyper(fd_step=1e-3))
        cfg = SafeControllerConfig(mode=QpMode.RELAXED, relax_penalty=1e-4)  # nearly unfiltered
        rec = safe_rollout(ControllerBundle(barrier, None, qp_cfg=cfg,
                                            limits=RolloutLimits(horizon_s=6.0)),
                           np.zeros(3), np.array([0.9, 0.0, 0.0]), env)
        ds = signed_distance_batch(env, arm, np.array(rec.configs))
        assert np.flatnonzero(ds < 0.0).tolist() == ([len(ds) - 1] if rec.collided else [])

    def test_dynamic_obstacles_step_during_rollout(self):
        arm = ArmModel()
        env = Environment(obstacles=(Obstacle(kind="circle", center=(2.0, 2.0), radius=0.1,
                                              velocity=(-0.3, -0.3)),))
        barrier = HandcraftedBarrier(arm, margin=0.05)
        rec = safe_rollout(ControllerBundle(barrier, None, limits=RolloutLimits(horizon_s=1.0)),
                           np.zeros(3), np.array([0.4, 0.4, 0.4]), env)
        assert len(rec.configs) > 1  # ran; the moving obstacle stayed far enough

    def test_rate_divisibility_enforced(self):
        arm = ArmModel()
        barrier = HandcraftedBarrier(arm, margin=0.1)
        with pytest.raises(ValueError):
            safe_rollout(ControllerBundle(barrier, None,
                                          limits=RolloutLimits(sim_hz=100, ctrl_hz=30)),
                         np.zeros(3), np.ones(3), far_world())

    def test_given_observer_called_once_per_tick(self):
        # the bundle's observer alone decides what a barrier sees: a given
        # one is queried on every tick, whatever the barrier
        arm = ArmModel()
        calls = []

        def observe(env, a, q):
            calls.append(q.copy())
            return StateObservation(signed_distance(env, a, q))

        barrier = HandcraftedBarrier(arm, margin=0.1)
        rec = safe_rollout(ControllerBundle(barrier, observe,
                                            limits=RolloutLimits(horizon_s=1.0)),
                           np.zeros(3), np.array([0.3, 0.0, 0.0]), far_world())
        assert rec.steps_used > 0 and len(calls) == rec.steps_used
        substeps = RolloutLimits().sim_hz // RolloutLimits().ctrl_hz
        for k, q in enumerate(calls):  # each at the configuration its tick starts from
            assert q.tobytes() == rec.configs[k * substeps].tobytes()


def assert_same_record(got, ref):
    """Records equal bit for bit: configs, controls and flags. Against an
    oracle's, which checks every state: by its ground truth each state but a
    collided rollout's last is free, and the safety ratio is the share of
    free states."""
    def bits(xs):
        return np.asarray(xs, dtype=float).tobytes()

    assert len(got.configs) == len(ref.configs)
    assert bits(got.configs) == bits(ref.configs)
    assert bits(got.controls) == bits(ref.controls)
    assert (got.collided, got.reached_goal, got.steps_used, got.qp_infeasible_count) == (
        ref.collided, ref.reached_goal, ref.steps_used, ref.qp_infeasible_count)
    if isinstance(ref, rollout_oracle.CheckedRollout):
        d = np.asarray(ref.distances)
        assert np.all(d[:-1] >= 0.0) and (d[-1] < 0.0) == ref.collided
        assert got.safety_ratio == float(np.mean(d >= 0.0))


def collision_substep(rec, substeps=4):
    """Substep (1-based) of its tick at which a rollout ended in collision."""
    assert rec.collided and rec.steps_used > 0
    return (len(rec.configs) - 2) % substeps + 1


def both_rollouts(barrier, q0, q_goal, env, limits=RolloutLimits(horizon_s=2.0), observe=None,
                  ref_observe=None, policy=NominalPolicy(), cfg=SafeControllerConfig()):
    bundle = ControllerBundle(barrier, observe, policy, cfg, limits)
    got = safe_rollout(bundle, q0, q_goal, env)
    ref = rollout_oracle.safe_rollout(replace(bundle, observe=ref_observe or observe),
                                      q0, q_goal, env)
    return got, ref


def crossing_world(x0: float) -> Environment:
    """A circle sweeping in along the x axis through moving and static clutter."""
    return Environment(obstacles=(
        Obstacle(kind="circle", center=(x0, 0.05), radius=0.1, velocity=(-1.5, 0.0)),
        Obstacle(kind="rect", center=(-0.8, 0.9), half_extents=(0.1, 0.2)),
        Obstacle(kind="rect", center=(0.2, -1.0), half_extents=(0.15, 0.1), velocity=(0.0, 0.2)),
        Obstacle(kind="circle", center=(-1.0, -0.6), radius=0.15)))


class TestDynamicRolloutOracle:
    """`safe_rollout` among moving obstacles against the per-substep loop
    (`integrate`, `step_obstacles`, `signed_distance` once per substep)."""

    @over_links("seed", range(6))
    def test_random_mixed_worlds(self, seed, links):
        arm = ARMS[links]
        rng = np.random.default_rng(300 + seed)
        world = random_environment(
            EnvGenConfig(num_obstacles=6, shapes=("rect", "circle"), obstacle_speed=0.3), rng)
        env = Environment(obstacles=tuple(
            replace(o, velocity=(0.0, 0.0)) if i % 2 else o
            for i, o in enumerate(world.obstacles)), workspace=world.workspace)
        q0 = sample_config(arm, rng)
        while signed_distance(env, arm, q0) <= 0.05:
            q0 = sample_config(arm, rng)
        barrier = HandcraftedBarrier(arm, margin=0.05)
        got, ref = both_rollouts(barrier, q0, sample_config(arm, rng), env)
        assert ref.steps_used > 0
        assert_same_record(got, ref)

    @pytest.mark.parametrize("x0, substep", [(1.6, 1), (1.655, 2), (1.62, 3), (1.68, 4)])
    def test_collision_at_each_substep_of_a_tick(self, x0, substep):
        arm = ArmModel()
        barrier = HandcraftedBarrier(arm, margin=0.0)
        cfg = SafeControllerConfig(mode=QpMode.RELAXED, relax_penalty=1e-4)
        got, ref = both_rollouts(barrier, np.zeros(3), np.array([0.3, -0.2, 0.4]),
                                 crossing_world(x0), cfg=cfg)
        assert collision_substep(ref) == substep
        assert_same_record(got, ref)

    @pytest.mark.parametrize("upper, substep", [(0.3125, 2), (0.32, 3)])
    def test_joint_limit_clamp_inside_a_tick(self, upper, substep):
        arm = ArmModel(joint_lower=(-2.8, -upper, -2.8), joint_upper=(2.8, upper, 2.8))
        env = Environment(obstacles=(
            Obstacle(kind="circle", center=(-1.0, 0.3), radius=0.1, velocity=(0.05, -0.1)),
            Obstacle(kind="rect", center=(0.2, -1.0), half_extents=(0.15, 0.1),
                     velocity=(0.0, 0.2)),
            Obstacle(kind="rect", center=(-0.8, 0.9), half_extents=(0.1, 0.2))))
        got, ref = both_rollouts(HandcraftedBarrier(arm, margin=0.05), np.zeros(3),
                                 np.array([0.5, 1.0, -0.4]), env, RolloutLimits(horizon_s=1.0),
                                 policy=NominalPolicy(gain=3.0))
        first = int(np.flatnonzero(np.array(ref.configs)[:, 1] == upper)[0])
        assert (first - 1) % 4 + 1 == substep
        assert_same_record(got, ref)

    def test_start_outside_joint_limits(self):
        # the first substep clamps; later ones move back inside
        arm = ArmModel(joint_lower=(-2.8, -0.3, -2.8), joint_upper=(2.8, 0.3, 2.8))
        env = crossing_world(3.0)
        got, ref = both_rollouts(HandcraftedBarrier(arm, margin=0.05),
                                 np.array([0.2, 0.5, -0.1]), np.array([0.4, 0.0, 0.2]), env,
                                 RolloutLimits(horizon_s=0.5))
        assert ref.configs[1][1] == 0.3 and ref.configs[2][1] < 0.3
        assert_same_record(got, ref)

    def test_cloud_barrier_with_ray_cast_observer(self):
        arm = ArmModel()
        rng = np.random.default_rng(11)
        enc = PointSetEncoder.create(3, per_point_widths=(7, 5, 4), trunk_widths=(7, 5, 1),
                                     rng=rng)
        barrier = NeuralBarrier(enc, arm, CbfHyper())
        spec = ScanSpec(rays_per_mount=8)
        got, ref = both_rollouts(
            barrier, np.zeros(3), np.array([0.6, -0.4, 0.5]), crossing_world(2.5),
            RolloutLimits(horizon_s=1.0),
            observe=lambda env, a, q: ray_cast_scan(env, a, q, spec),
            ref_observe=lambda env, a, q: rollout_oracle.ray_cast_scan(env, a, q, spec))
        assert ref.steps_used > 0
        assert_same_record(got, ref)


class TestStaticRolloutOracle:
    """`safe_rollout` in static worlds against the loop with the tick and its
    `integrate` substeps written out."""

    @over_links("seed", range(5))
    def test_random_worlds_hand_barrier(self, seed, links):
        arm = ARMS[links]
        rng = np.random.default_rng(500 + seed)
        env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")), rng)
        q0 = sample_config(arm, rng)
        while signed_distance(env, arm, q0) <= 0.05:
            q0 = sample_config(arm, rng)
        limits = RolloutLimits(horizon_s=2.0)
        mode = QpMode.STRICT if seed == 4 else QpMode.RELAXED
        margin = 0.1 if links == 3 else HAND_MARGIN[links]  # under the clearance cap
        args = (ControllerBundle(HandcraftedBarrier(arm, margin=margin), None,
                                 qp_cfg=SafeControllerConfig(mode=mode), limits=limits),
                q0, sample_config(arm, rng), env)
        got = safe_rollout(*args)
        ref = rollout_oracle.safe_rollout_static(*args)
        assert ref.steps_used > 0
        assert_same_record(got, ref)

    def test_collision_and_horizon_exits(self):
        arm = ArmModel()
        env = Environment(obstacles=(Obstacle(kind="rect", center=(0.9, 0.35),
                                              half_extents=(0.12, 0.12)),))
        nearly_unfiltered = SafeControllerConfig(mode=QpMode.RELAXED, relax_penalty=1e-4)
        args = (ControllerBundle(HandcraftedBarrier(arm, margin=0.0), None,
                                 qp_cfg=nearly_unfiltered, limits=RolloutLimits(horizon_s=6.0)),
                np.zeros(3), np.array([0.9, 0.0, 0.0]), env)
        ref = rollout_oracle.safe_rollout_static(*args)
        assert ref.collided
        assert_same_record(safe_rollout(*args), ref)
        # a goal farther than the joints can move in the horizon: the rollout
        # runs every tick and stops without arriving
        limits = RolloutLimits(horizon_s=0.5, r_goal=1e-4)
        args = (ControllerBundle(HandcraftedBarrier(arm, margin=0.1), None, limits=limits),
                np.zeros(3), np.full(3, 0.6), far_world())
        ref = rollout_oracle.safe_rollout_static(*args)
        assert ref.steps_used == limits.n_ticks and not ref.reached_goal and not ref.collided
        assert_same_record(safe_rollout(*args), ref)

    def test_cloud_barrier_with_fixed_observer(self):
        arm = ArmModel()
        rng = np.random.default_rng(12)
        env = random_environment(EnvGenConfig(num_obstacles=5, shapes=("rect", "circle")), rng)
        enc = PointSetEncoder.create(3, per_point_widths=(7, 5, 4), trunk_widths=(7, 5, 1),
                                     rng=rng)
        barrier = NeuralBarrier(enc, arm, CbfHyper())
        cloud = sample_surface_points(env, 24, rng)
        q0 = sample_config(arm, rng)
        while signed_distance(env, arm, q0) <= 0.05:
            q0 = sample_config(arm, rng)
        args = (ControllerBundle(barrier, lambda env, a, q: cloud,
                                 limits=RolloutLimits(horizon_s=1.0)),
                q0, sample_config(arm, rng), env)
        ref = rollout_oracle.safe_rollout_static(*args)
        assert ref.steps_used > 0
        assert_same_record(safe_rollout(*args), ref)


class TestCloudRolloutOracle:
    """Rollouts among moving obstacles with ray-cast scans (a fresh cloud
    every tick) are the same with the cloud barrier's own one-sample path as
    with the training pass it replaced (`rollout_oracle.OneSampleBarrier`),
    bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dynamic_partial(self, seed):
        from test_planner import cloud_plan_setting

        cfg, arm, problems, hyper, net = cloud_plan_setting(seed)
        moving = bench.dynamicize_problems(problems, 0.05, np.random.default_rng(seed))
        method = {"name": "cbf-cloud", "checkpoint": "net"}
        ticks = 0
        for prob in moving:
            recs = []
            for barrier in (NeuralBarrier(net, arm, hyper),
                            rollout_oracle.OneSampleBarrier(net, arm, hyper)):
                recs.append(bench.control_query(prob, method, arm, cfg, seed, "dynamic_partial",
                                                {"net": barrier}, horizon_s=3.0))
            assert_same_record(*recs)
            ticks += recs[0].steps_used
        assert ticks > 20


def dense_path(q, states, per=16):
    """`per` evenly spaced points on each straight segment from q through a
    tick's states, then the last state: finer than validation's ladder."""
    pts = np.vstack([q, states])
    t = (np.arange(per) / per)[None, :, None]
    seg = pts[:-1, None, :] + t * (pts[1:] - pts[:-1])[:, None, :]
    return np.vstack([seg.reshape(-1, pts.shape[1]), pts[-1:]])


def loose_barrier(arm):
    """A hand barrier that lets a rollout run into contact: no margin and a
    large class-K gain."""
    return HandcraftedBarrier(arm, 0.0, CbfHyper(alpha_h=1e3))


def proof_cases(links, seed):
    """A random world for the arm of `links` links and eight (start, goal)
    pairs in it: four free starts, every other one with a joint outside its
    limits, then four slow approaches into contact."""
    arm = ARMS[links]
    rng = np.random.default_rng(1300 + seed)
    env = random_environment(EnvGenConfig(num_obstacles=8, shapes=("rect", "circle"),
                                          size_range=(0.08, 0.3)), rng)
    cases = []
    while len(cases) < 4:
        q0 = sample_config(arm, rng)
        if len(cases) % 2:
            i, out = int(rng.integers(arm.n_links)), rng.uniform(0.01, 0.3)
            q0[i] = arm.upper[i] + out if rng.random() < 0.5 else arm.lower[i] - out
        if signed_distance(env, arm, q0) > 0.0:
            cases.append((q0, sample_config(arm, rng)))
    for q, q_hit in contact_pairs(env, arm, rng, 4):  # toward contact, 0.01 away
        cases.append((q, q + 0.01 * (q_hit - q) / np.linalg.norm(q_hit - q)))
    return env, cases


class TestProofRule:
    """Every tick that `rollout_ticks` proves free, from the reading at its
    start or the one at its end, has no colliding configuration on its
    substep path resampled at 16 points a segment, on random worlds at both
    arms of `ARMS`, from free starts, starts outside the joint limits and
    slow approaches into contact (`proof_cases`); a barrier that reads 1e-3
    too much fails this."""

    @staticmethod
    def proven_ticks(make_barrier, links, seed, n_ticks=90):
        """(clearance minimum over each proven tick's resampled path, ticks run)."""
        arm = ARMS[links]
        env, cases = proof_cases(links, seed)
        bundle = ControllerBundle(make_barrier(arm), None)
        proven_paths, ticks = [], 0
        for q0, q_goal in cases:
            paths, proofs, q = [], [], q0
            for _, _, _, states, _, proven, proves_last in rollout_ticks(
                    bundle, q0, q_goal, env, n_ticks, 1e-6):
                if proves_last:  # the tick before, from its end
                    proofs[-1] = True
                paths.append(dense_path(q, states))
                proofs.append(proven)
                q = states[-1]
            proven_paths += [path for path, ok in zip(paths, proofs) if ok]
            ticks += len(paths)
        ds = signed_distance_batch(env, arm, np.concatenate(proven_paths))
        return ds.reshape(len(proven_paths), -1).min(axis=1), ticks

    @over_links("seed", range(2))
    def test_proven_ticks_are_free(self, seed, links):
        near = 0
        for make_barrier in (loose_barrier,
                             lambda arm: HandcraftedBarrier(arm, HAND_MARGIN[links])):
            d, ticks = self.proven_ticks(make_barrier, links, seed)
            assert np.all(d >= 0.0)
            assert len(d) >= ticks // 4
            near += np.sum(d < 0.01)
        assert near >= 50  # proofs of ticks that come within 0.01 of contact

    @pytest.mark.parametrize("links", sorted(ARMS))
    def test_an_inflated_reading_fails_it(self, links):
        # a reading 1e-3 too high proves slow ticks into contact
        colliding = sum(np.sum(self.proven_ticks(lambda arm: InflatedReading(loose_barrier(arm)),
                                                 links, seed)[0] < 0.0) for seed in range(2))
        assert colliding > 0


def state_barrier(arm):
    """An untrained state net's barrier: it reads the world's clearance."""
    net = Mlp.create((arm.n_links + 1, 16, 1), np.random.default_rng(40 + arm.n_links))
    return NeuralBarrier(net, arm, CbfHyper())


class TestSkippedChecks:
    """In a static world `safe_rollout` checks the clearance of a tick's
    states only when `rollout_ticks` does not prove the tick, in one call;
    its records still equal those of the oracle that checks every state
    (`assert_same_record`: configs, controls and flags bit for bit, every
    state but a collided rollout's last free by the oracle's ground truth,
    and the safety ratio its share of free states), with hand and state
    barriers, on `proof_cases` at both arms of `ARMS`. A barrier that reads
    1e-3 too much fails this."""

    @staticmethod
    def check(make_barrier, links, seed, monkeypatch):
        """Run and check every case; returns (each tick's proof, rollouts
        that collided, rollouts that reached the goal)."""
        arm = ARMS[links]
        env, cases = proof_cases(links, seed)
        proofs, calls = [], []

        def spied_ticks(*args, **kwargs):
            for tick in rollout_ticks(*args, **kwargs):
                proofs.append(tick[5])
                yield tick

        def spied_check(*args):
            calls.append(len(proofs))  # the tick it checks, counted from 1
            return signed_distance_batch(*args)

        monkeypatch.setattr(controller, "rollout_ticks", spied_ticks)
        monkeypatch.setattr(controller, "signed_distance_batch", spied_check)
        bundle = ControllerBundle(make_barrier(arm), None,
                                  limits=RolloutLimits(horizon_s=3.0, r_goal=1e-3))
        collided = reached = 0
        for q0, q_goal in cases:
            got = safe_rollout(bundle, q0, q_goal, env)
            assert_same_record(got, rollout_oracle.safe_rollout_static(bundle, q0, q_goal, env))
            collided += got.collided
            reached += got.reached_goal
        assert calls == [k + 1 for k, ok in enumerate(proofs) if not ok]
        return proofs, collided, reached

    @over_links("seed", range(2))
    def test_hand_and_state_barriers(self, seed, links, monkeypatch):
        proven = checked = collided = reached = 0
        for make_barrier in (loose_barrier, state_barrier,
                             lambda arm: HandcraftedBarrier(arm, HAND_MARGIN[links])):
            proofs, hit, arrived = self.check(make_barrier, links, seed, monkeypatch)
            proven += sum(proofs)
            checked += len(proofs) - sum(proofs)
            collided += hit
            reached += arrived
        assert proven > 0 and checked > 0 and collided > 0 and reached > 0

    @pytest.mark.parametrize("links", sorted(ARMS))
    def test_an_inflated_reading_fails_it(self, links, monkeypatch):
        # a reading 1e-3 too high proves a slow tick into contact, which then
        # goes unchecked: the rollout runs on where the oracle stops
        with pytest.raises(AssertionError):
            for seed in range(2):
                self.check(lambda arm: InflatedReading(loose_barrier(arm)), links, seed,
                           monkeypatch)
