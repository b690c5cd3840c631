"""Barrier machinery tests: dataset collection, numerical Lie derivatives,
the control-term infimum against brute force, loss plumbing and training."""

import numpy as np
import pytest

from cbfsteer.cbf import (
    CbfHyper,
    Dataset,
    DatasetCounts,
    HandcraftedBarrier,
    LabeledSample,
    NeuralBarrier,
    TrainSchedule,
    _condition_values,
    _forward_stencil,
    _prepare_batch,
    _stencil_records,
    collect_dataset,
    evaluate_constraints,
    h_and_grad,
    handcrafted_h,
    loss,
    stencil_distances,
    train,
)
from cbfsteer.config import load_config, make_hyper
from cbfsteer.controller import NominalPolicy, QpMode, SafeControllerConfig, solve_safety_qp
from cbfsteer.environment import (
    CloudObservation,
    CloudSource,
    EnvGenConfig,
    Environment,
    Obstacle,
    SafetyLabel,
    StateObservation,
    random_environment,
    safety_label,
    sample_surface_points,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import ArmModel, sample_config
from cbfsteer.neural import Mlp, PointSetEncoder, encoder_forward_batch, mlp_forward
from test_neural import encode, reference_point_records


def h_value(net, q, observation, arm):
    """Barrier value alone, through h_and_grad: a state observation supplies
    slot 0, so the (empty) world only feeds the stencil slots."""
    return h_and_grad(net, q, Environment(), arm, CbfHyper(), observation=observation)[0]


def grad_h_q(net, q, env, arm, hyper, observation=None):
    return h_and_grad(net, q, env, arm, hyper, observation=observation)[1]


@pytest.fixture
def arm():
    return ArmModel()


def constant_net(n_inputs, value):
    """Single linear layer with zero weights: h = value everywhere."""
    net = Mlp.create((n_inputs, 1), np.random.default_rng(0))
    net.params = [(np.zeros((1, n_inputs)), np.array([float(value)]))]
    return net


def distance_net(n_links, scale=1.0, offset=0.0):
    """Linear net returning scale * d + offset for state inputs (q, d)."""
    net = Mlp.create((n_links + 1, 1), np.random.default_rng(0))
    w = np.zeros((1, n_links + 1))
    w[0, -1] = scale
    net.params = [(w, np.array([float(offset)]))]
    return net


def small_dataset(arm, seed=0, uniform=400, rollouts=2, kind="state"):
    rng = np.random.default_rng(seed)
    return collect_dataset(
        arm, EnvGenConfig(), DatasetCounts(rollout_trajs=rollouts, uniform_samples=uniform),
        NominalPolicy(), rng, observation_kind=kind, cloud_points=24)


class TestCollectDataset:
    def test_uniform_only_exact_count(self, arm):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 123), NominalPolicy(),
                             np.random.default_rng(0))
        assert len(ds) == 123
        assert all(isinstance(s.observation, StateObservation) for s in ds.samples)

    def test_label_histogram_covers_all_classes(self, arm):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 10_000), NominalPolicy(),
                             np.random.default_rng(1))
        counts = {label: 0 for label in SafetyLabel}
        for s in ds.samples:
            counts[s.label] += 1
        assert all(c > 0 for c in counts.values())

    def test_labels_consistent_with_classify(self, arm):
        ds = small_dataset(arm)
        for s in ds.samples[::37]:
            d = signed_distance(ds.environments[s.env_id], arm, s.q)
            expected = (SafetyLabel.UNSAFE if d <= 0
                        else SafetyLabel.SAFE if d >= ds.r_thres else SafetyLabel.BOUNDARY)
            assert s.label is expected is safety_label(d, ds.r_thres)

    @pytest.mark.parametrize("r_thres", [0.0, -0.05])
    def test_non_positive_threshold_rejected(self, arm, r_thres):
        # a threshold <= 0 would never label anything BOUNDARY
        with pytest.raises(ValueError, match="r_thres"):
            collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 10), NominalPolicy(),
                            np.random.default_rng(0), r_thres=r_thres)

    def test_determinism_byte_identical(self, arm, tmp_path):
        for name in ("a", "b"):
            ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(2, 200), NominalPolicy(),
                                 np.random.default_rng(7), observation_kind="cloud",
                                 cloud_points=16)
            ds.save(tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.envs.json").read_bytes() == (tmp_path / "b.envs.json").read_bytes()

    def test_save_load_round_trip(self, arm, tmp_path):
        for kind in ("state", "cloud"):
            ds = small_dataset(arm, uniform=50, kind=kind)
            path = tmp_path / f"{kind}.jsonl"
            ds.save(path)
            ds2 = Dataset.load(path)
            assert ds2.kind == kind
            assert len(ds2) == len(ds)
            assert ds2.arm == ds.arm
            s1, s2 = ds.samples[10], ds2.samples[10]
            np.testing.assert_allclose(s1.q, s2.q)
            assert s1.label is s2.label
            if kind == "cloud":
                np.testing.assert_allclose(s1.observation.points, s2.observation.points)
                # shared clouds stay shared after a round trip
                assert ds2.samples[0].observation is ds2.clouds[ds2.samples[0].env_id]


class TestHValue:
    def test_zero_params_zero(self, arm):
        net = constant_net(4, 0.0)
        assert h_value(net, np.zeros(3), StateObservation(0.5), arm) == 0.0

    def test_deterministic(self, arm):
        rng = np.random.default_rng(2)
        net = Mlp.create((4, 8, 1), rng)
        obs = StateObservation(0.3)
        q = rng.uniform(-1, 1, 3)
        assert h_value(net, q, obs, arm) == h_value(net, q, obs, arm)

    def test_matches_forward_composition(self, arm):
        rng = np.random.default_rng(3)
        net = Mlp.create((4, 8, 1), rng)
        q = rng.uniform(-1, 1, 3)
        obs = StateObservation(-0.2)
        expected, _ = mlp_forward(net, np.concatenate([q, [-0.2]]))
        assert h_value(net, q, obs, arm) == pytest.approx(float(expected[0]), abs=1e-15)
        enc = PointSetEncoder.create(3, rng=rng)
        pts = rng.uniform(-1, 1, (8, 2))
        nrm = rng.normal(size=(8, 2))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = CloudObservation(points=pts, normals=nrm, source=CloudSource.SURFACE_SAMPLED)
        recs = reference_point_records(arm, q, pts, nrm)
        expected2, _ = encoder_forward_batch(enc, q[None, :], recs[None])
        assert h_value(enc, q, cloud, arm) == pytest.approx(float(expected2[0]), abs=1e-15)

    def test_variant_mismatch_raises(self, arm):
        net = constant_net(4, 0.0)
        cloud = CloudObservation(points=np.zeros((2, 2)), normals=np.ones((2, 2)),
                                 source=CloudSource.SURFACE_SAMPLED)
        with pytest.raises(TypeError):
            h_value(net, np.zeros(3), cloud, arm)


class TestGradHq:
    def test_constant_network_zero_gradient(self, arm):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(1.0, 0.5), radius=0.2),))
        net = constant_net(4, 3.0)
        for obs in (StateObservation(0.26), None):
            g = grad_h_q(net, np.zeros(3), env, arm, CbfHyper(), observation=obs)
            np.testing.assert_array_equal(g, np.zeros(3))

    def test_identity_net_matches_distance_fd(self, arm):
        # h(q, d) = d with refreshed observations: the gradient is the forward
        # difference of the signed distance itself
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.4), radius=0.2),))
        net = distance_net(3)
        hyper = CbfHyper(fd_step=1e-4)
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(20):
            q = sample_config(arm, rng)
            g = grad_h_q(net, q, env, arm, hyper)
            fd = np.zeros(3)
            d0 = signed_distance(env, arm, q)
            for i in range(3):
                qi = q.copy()
                qi[i] += hyper.fd_step
                fd[i] = (signed_distance(env, arm, qi) - d0) / hyper.fd_step
            np.testing.assert_allclose(g, fd, atol=1e-6)
            checked += 1
        assert checked == 20

    def test_fixed_mode_matches_reverse_mode_input_grad(self, arm):
        # forward differences of the net in q with d held fixed (a local
        # reference: the package always refreshes d for a state net)
        rng = np.random.default_rng(5)
        net = Mlp.create((4, 16, 1), rng)
        fd_step = 1e-3
        from cbfsteer.neural import mlp_backward

        for _ in range(10):
            q = rng.uniform(-1, 1, 3)
            d = float(rng.uniform(-0.2, 0.5))
            qs = q + np.vstack([np.zeros(3), np.eye(3) * fd_step])
            y, _ = mlp_forward(net, np.column_stack([qs, np.full(4, d)]))
            g = (y[1:, 0] - y[0, 0]) / fd_step
            _, tape = mlp_forward(net, np.concatenate([q, [d]]))
            _, input_grad = mlp_backward(tape)
            np.testing.assert_allclose(g, input_grad[:3], atol=20 * fd_step)

    def test_refreshed_gradient_follows_the_chain_rule(self, arm):
        # the stencil slots see the signed distance move with q:
        # grad = dh/dq + dh/dd * (forward difference of d)
        rng = np.random.default_rng(5)
        net = Mlp.create((4, 16, 1), rng)
        hyper = CbfHyper(fd_step=1e-3)
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.4), radius=0.2),))
        from cbfsteer.neural import mlp_backward

        for _ in range(10):
            q = sample_config(arm, rng)
            d0 = signed_distance(env, arm, q)
            d_fd = np.array([signed_distance(env, arm, q + np.eye(3)[i] * hyper.fd_step) - d0
                             for i in range(3)]) / hyper.fd_step
            _, tape = mlp_forward(net, np.concatenate([q, [d0]]))
            _, input_grad = mlp_backward(tape)
            g = grad_h_q(net, q, env, arm, hyper)
            np.testing.assert_allclose(g, input_grad[:3] + input_grad[3] * d_fd,
                                       atol=20 * hyper.fd_step)

    def test_cloud_variant_gradient_runs(self, arm):
        rng = np.random.default_rng(6)
        enc = PointSetEncoder.create(3, rng=rng)
        pts = rng.uniform(-1, 1, (12, 2))
        nrm = rng.normal(size=(12, 2))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = CloudObservation(points=pts, normals=nrm, source=CloudSource.SURFACE_SAMPLED)
        hyper = make_hyper(load_config(), "cloud")
        h, g = h_and_grad(enc, np.zeros(3), None, arm, hyper, observation=cloud)
        assert np.isfinite(h)
        assert g.shape == (3,)
        # forward-difference cross-check against direct encoder evaluations
        for i in range(3):
            qi = np.zeros(3)
            qi[i] += hyper.fd_step
            hi, _ = encode(enc, qi, cloud, arm)
            assert g[i] == pytest.approx((hi - h) / hyper.fd_step, abs=1e-9)


def inf_control_term(grad, lo, hi):
    """Minimum of grad . u over the action box, with its argmin, read off the
    safety QP: an infeasible strict instance returns the box control that
    minimizes the constraint."""
    h = 1.0 + float(np.abs(grad) @ np.maximum(np.abs(lo), np.abs(hi)))
    u_nom = np.clip(np.zeros_like(grad), lo, hi)
    argmin, diag = solve_safety_qp(u_nom, grad, h, SafeControllerConfig(mode=QpMode.STRICT),
                                   lo, hi)
    assert diag.infeasible
    return float(grad @ argmin), argmin


class TestInfControlTerm:
    def test_separable_example(self):
        value, argmin = inf_control_term(np.array([1.0, -2.0]), np.array([-1.0, -1.0]),
                                         np.array([1.0, 1.0]))
        assert value == pytest.approx(-3.0)
        np.testing.assert_array_equal(argmin, [-1.0, 1.0])

    def test_zero_gradient(self):
        value, argmin = inf_control_term(np.zeros(3), -np.ones(3), np.ones(3))
        assert value == 0.0
        np.testing.assert_array_equal(argmin, -np.ones(3))

    def test_matches_grid_brute_force(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(-1.0, 1.0, 41)
        ux, uy, uz = np.meshgrid(grid, grid, grid, indexing="ij")
        for _ in range(50):
            g = rng.normal(size=3)
            value, argmin = inf_control_term(g, -np.ones(3), np.ones(3))
            brute = (g[0] * ux + g[1] * uy + g[2] * uz).min()
            step = grid[1] - grid[0]
            assert value <= brute + 1e-12
            assert brute - value <= np.abs(g).sum() * step / 2 + 1e-12
            assert value == pytest.approx(float(g @ argmin))

    def test_dominates_random_controls(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = rng.normal(size=4)
            lo = -rng.uniform(0.5, 2.0, 4)
            hi = rng.uniform(0.5, 2.0, 4)
            value, _ = inf_control_term(g, lo, hi)
            u = rng.uniform(lo, hi)
            assert value <= g @ u + 1e-12

    def test_infinite_box_rejected(self):
        # the action box comes from the arm, which must be finite
        with pytest.raises(ValueError, match="finite"):
            ArmModel(link_lengths=(1.0, 1.0), action_bound=(np.inf, 1.0))


def synthetic_state_batch(arm, hyper, rng, n=60):
    """Labeled state samples over one simple world."""
    env = Environment(obstacles=(Obstacle(kind="rect", center=(0.7, 0.5),
                                          half_extents=(0.25, 0.25)),))
    samples = []
    while len(samples) < n:
        q = sample_config(arm, rng)
        d = signed_distance(env, arm, q)
        label = (SafetyLabel.UNSAFE if d <= 0
                 else SafetyLabel.SAFE if d >= hyper.r_thres else SafetyLabel.BOUNDARY)
        samples.append(LabeledSample(q=q, observation=StateObservation(d), label=label,
                                     env_id=0))
    return samples, [env]


class TestLoss:
    def test_zero_network_exact_components(self, arm):
        hyper = CbfHyper(gamma=0.1, eps_margin=0.02, loss_weights=(2.0, 3.0, 4.0))
        rng = np.random.default_rng(9)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=90)
        # force a balanced batch with all classes present
        assert any(s.label is SafetyLabel.SAFE for s in samples)
        assert any(s.label is SafetyLabel.UNSAFE for s in samples)
        net = constant_net(4, 0.0)
        total, comps, _ = loss(net, samples, arm, hyper, envs=envs)
        assert comps["safe"] == pytest.approx(0.1 * 2.0, abs=1e-15)
        assert comps["unsafe"] == pytest.approx(0.1 * 3.0, abs=1e-15)
        assert comps["deriv"] == pytest.approx(0.02 * 4.0, abs=1e-15)
        assert total == pytest.approx(0.2 + 0.3 + 0.08)

    def test_empty_class_terms_zero(self, arm):
        hyper = CbfHyper()
        # only Safe samples, network far below -gamma
        samples = [LabeledSample(q=np.zeros(3), observation=StateObservation(1.0),
                                 label=SafetyLabel.SAFE, env_id=0)] * 8
        net = constant_net(4, -1.0)
        total, comps, _ = loss(net, samples, arm, hyper, envs=[Environment()])
        assert comps["safe"] == 0.0
        assert comps["unsafe"] == 0.0  # no unsafe samples at all
        assert comps["deriv"] == 0.0  # eps + alpha_h * (-1) < 0

    def test_empty_batch_rejected(self, arm):
        with pytest.raises(ValueError):
            loss(constant_net(4, 0.0), [], arm, CbfHyper())

    def test_param_grads_match_finite_differences(self, arm):
        hyper = CbfHyper(loss_weights=(1.0, 1.0, 0.7))
        rng = np.random.default_rng(10)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=24)
        net = Mlp.create((4, 6, 1), rng)

        def run():
            total, _, _ = loss(net, samples, arm, hyper, envs=envs, want_grads=False)
            return total

        _, _, grads = loss(net, samples, arm, hyper, envs=envs)
        from test_neural import max_rel_err, param_fd_grads

        fd = param_fd_grads(run, net.params, step=1e-6)
        assert max_rel_err(grads, fd) < 1e-3

    def test_cloud_variant_grads_match_finite_differences(self, arm):
        hyper = make_hyper(load_config(), "cloud")
        rng = np.random.default_rng(11)
        env = Environment(obstacles=(Obstacle(kind="rect", center=(0.7, 0.5),
                                              half_extents=(0.25, 0.25)),))
        cloud = sample_surface_points(env, 10, rng)
        samples = []
        for _ in range(12):
            q = sample_config(arm, rng)
            d = signed_distance(env, arm, q)
            label = (SafetyLabel.UNSAFE if d <= 0
                     else SafetyLabel.SAFE if d >= hyper.r_thres else SafetyLabel.BOUNDARY)
            samples.append(LabeledSample(q=q, observation=cloud, label=label, env_id=0))
        enc = PointSetEncoder.create(3, per_point_widths=(7, 5, 4), trunk_widths=(7, 5, 1),
                                     rng=rng)

        def run():
            total, _, _ = loss(enc, samples, arm, hyper, want_grads=False)
            return total

        _, _, grads = loss(enc, samples, arm, hyper)
        from test_neural import max_rel_err, param_fd_grads

        fd = param_fd_grads(run, enc.all_params(), step=1e-6)
        assert max_rel_err(grads, fd) < 1e-3

    def test_overfit_smoke(self, arm):
        from cbfsteer.neural import AdamState, adam_step

        hyper = CbfHyper()
        rng = np.random.default_rng(12)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=64)
        net = Mlp.create((4, 16, 1), rng)
        state = AdamState.for_params(net.params)
        first = None
        last = None
        for _ in range(200):
            total, _, grads = loss(net, samples, arm, hyper, envs=envs)
            if first is None:
                first = total
            adam_step(net.params, grads, state, lr=3e-3)
            last = total
        assert last < first


class TestEvaluateConstraints:
    def test_zero_network_all_rates_zero(self, arm):
        hyper = CbfHyper()
        rng = np.random.default_rng(13)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=100)
        rates = evaluate_constraints(constant_net(4, 0.0), samples, arm, hyper, envs=envs)
        assert rates["safe_rate"] == 0.0
        assert rates["unsafe_rate"] == 0.0
        assert rates["deriv_rate"] == 0.0
        assert rates["n_total"] == 100

    def test_synthetic_perfect_h(self, arm):
        # h = r_thres/2 - d satisfies the margin conditions once gamma <= r_thres/2
        hyper = CbfHyper(gamma=0.02, r_thres=0.05)
        rng = np.random.default_rng(14)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=200)
        net = distance_net(3, scale=-1.0, offset=hyper.r_thres / 2)
        rates = evaluate_constraints(net, samples, arm, hyper, envs=envs)
        assert rates["safe_rate"] == 1.0
        assert rates["unsafe_rate"] == 1.0

    def test_order_independent(self, arm):
        hyper = CbfHyper()
        rng = np.random.default_rng(15)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=80)
        net = Mlp.create((4, 8, 1), rng)
        r1 = evaluate_constraints(net, samples, arm, hyper, envs=envs)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        r2 = evaluate_constraints(net, shuffled, arm, hyper, envs=envs)
        assert r1["safe_rate"] == r2["safe_rate"]
        assert r1["unsafe_rate"] == r2["unsafe_rate"]
        assert r1["deriv_rate"] == r2["deriv_rate"]


class TestTrain:
    def test_zero_epochs_identity(self, arm):
        ds = small_dataset(arm, uniform=60)
        hyper = make_hyper(load_config(), "state")
        net = Mlp.create((4, 8, 1), np.random.default_rng(16))
        before = [(w.copy(), b.copy()) for w, b in net.params]
        net2, report = train(ds, net, hyper, TrainSchedule(epochs=0), np.random.default_rng(0))
        assert report.epochs == []
        for (w, b), (w0, b0) in zip(net2.params, before):
            np.testing.assert_array_equal(w, w0)

    def test_seed_determinism(self, arm, tmp_path):
        from cbfsteer.neural import save_checkpoint

        paths = []
        for name in ("a", "b"):
            ds = small_dataset(arm, seed=3, uniform=300)
            hyper = make_hyper(load_config(), "state")
            net = Mlp.create((4, 16, 1), np.random.default_rng(17))
            net, _ = train(ds, net, hyper, TrainSchedule(epochs=3, batch_size=64),
                           np.random.default_rng(99))
            p = tmp_path / f"{name}.json"
            save_checkpoint(p, "state", net, {})
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_training_improves_rates(self, arm):
        ds = small_dataset(arm, seed=5, uniform=2000, rollouts=4)
        hyper = make_hyper(load_config(), "state")
        net = Mlp.create((4, 32, 32, 1), np.random.default_rng(18))
        net, report = train(ds, net, hyper, TrainSchedule(epochs=12, batch_size=128, lr=3e-3),
                            np.random.default_rng(5))
        first, last = report.epochs[0], report.epochs[-1]
        assert last["val_deriv_rate"] >= 0.9
        assert last["loss"] <= first["loss"]


class TestHandcrafted:
    def test_value_is_margin_minus_distance(self, arm):
        rng = np.random.default_rng(19)
        env = Environment(obstacles=(Obstacle(kind="rect", center=(0.6, 0.4),
                                              half_extents=(0.2, 0.2)),))
        for _ in range(10):
            q = sample_config(arm, rng)
            h, grad = handcrafted_h(env, arm, q, margin=0.1)
            assert h == pytest.approx(0.1 - signed_distance(env, arm, q), abs=1e-12)
            assert grad.shape == (3,)

    def test_penetration_gives_h_above_margin(self, arm):
        env = Environment(obstacles=(Obstacle(kind="rect", center=(1.15, 0.0),
                                              half_extents=(0.1, 0.1)),))
        h, _ = handcrafted_h(env, arm, np.zeros(3), margin=0.1)
        assert h > 0.1

    def test_sign_flips_where_distance_crosses_margin(self, arm):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.6), radius=0.2),))
        margin = 0.12
        q0 = np.zeros(3)
        q1 = np.array([0.6, 0.0, 0.0])  # swings the arm toward the circle

        def h_at(t):
            return handcrafted_h(env, arm, q0 + t * (q1 - q0), margin)[0]

        def d_at(t):
            return signed_distance(env, arm, q0 + t * (q1 - q0)) - margin

        assert h_at(0.0) < 0 and h_at(1.0) > 0
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if h_at(mid) < 0:
                lo = mid
            else:
                hi = mid
        crossing_h = 0.5 * (lo + hi)
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if d_at(mid) > 0:
                lo = mid
            else:
                hi = mid
        crossing_d = 0.5 * (lo + hi)
        assert crossing_h == pytest.approx(crossing_d, abs=1e-9)

    def test_negative_margin_rejected(self, arm):
        with pytest.raises(ValueError):
            handcrafted_h(Environment(), arm, np.zeros(3), margin=-0.1)


class TestStencilDistances:
    def test_matches_direct_computation(self, arm):
        hyper = make_hyper(load_config(), "state")
        rng = np.random.default_rng(20)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=10)
        table = stencil_distances(samples, arm, hyper, envs)
        for i, s in enumerate(samples):
            assert table[i, 0] == s.observation.min_signed_distance
            for j in range(3):
                qj = np.asarray(s.q, float).copy()
                qj[j] += hyper.fd_step
                assert table[i, 1 + j] == pytest.approx(
                    signed_distance(envs[0], arm, qj), abs=1e-12)


def parent_h_and_grad(net, q, env, arm, fd_step, observation=None):
    """The barrier value and gradient as computed before inference shared
    the training forward pass: refreshed signed distances for a state net
    (slot 0 from the observation when one is given), the observed cloud held
    fixed for a cloud net."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    qs = np.tile(q, (n + 1, 1))
    qs[1:] += np.eye(n) * fd_step
    if isinstance(net, Mlp):
        if observation is not None:
            ds = np.empty(n + 1)
            ds[0] = observation.min_signed_distance
            ds[1:] = signed_distance_batch(env, arm, qs[1:])
        else:
            ds = signed_distance_batch(env, arm, qs)
        y, _ = mlp_forward(net, np.concatenate([qs, ds[:, None]], axis=1))
        h = y[:, 0]
    else:
        recs = _stencil_records(arm, qs[None, :, :], observation.points[None, :, :],
                                observation.normals[None, :, :])
        h, _ = encoder_forward_batch(net, qs, recs.reshape((n + 1,) + recs.shape[2:]))
    return float(h[0]), (h[1:] - h[0]) / fd_step


def random_world_samples(arm, rng, kind, count):
    """`count` labeled samples of one random 6-obstacle world, with a state
    observation or the world's surface cloud."""
    env = random_environment(EnvGenConfig(num_obstacles=6, shapes=("rect", "circle")), rng)
    cloud = sample_surface_points(env, 24, rng)
    samples = []
    for _ in range(count):
        q = sample_config(arm, rng)
        d = signed_distance(env, arm, q)
        obs = StateObservation(d) if kind == "state" else cloud
        samples.append(LabeledSample(q=q, observation=obs, label=safety_label(d, 0.05),
                                     env_id=0))
    return env, samples


class TestSharedStencilForwardPass:
    """`h_and_grad` runs the training forward pass on a one-sample batch."""

    @pytest.mark.parametrize("case", ["state-observed", "state-unobserved", "cloud"])
    def test_bit_equal_to_the_parent_implementation(self, arm, case):
        rng = np.random.default_rng(30)
        if case == "cloud":
            net = PointSetEncoder.create(3, per_point_widths=(7, 8, 6), trunk_widths=(9, 8, 1),
                                         rng=rng)
        else:
            net = Mlp.create((4, 16, 16, 1), rng)
        hyper = CbfHyper()
        for _ in range(60):
            env, samples = random_world_samples(arm, rng, case[:5], 3)
            for s in samples:
                obs = None if case == "state-unobserved" else s.observation
                h, g = h_and_grad(net, s.q, env, arm, hyper, observation=obs)
                h_ref, g_ref = parent_h_and_grad(net, s.q, env, arm, hyper.fd_step, obs)
                assert h == h_ref
                assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_equal_to_the_batched_training_pass(self, arm, kind):
        rng = np.random.default_rng(31)
        if kind == "cloud":
            net = PointSetEncoder.create(3, per_point_widths=(7, 8, 6), trunk_widths=(9, 8, 1),
                                         rng=rng)
        else:
            net = Mlp.create((4, 16, 16, 1), rng)
        hyper = CbfHyper()
        for _ in range(5):
            env, samples = random_world_samples(arm, rng, kind, 40)
            prep = _prepare_batch(samples, arm, hyper, envs=[env])
            h_batch, _ = _forward_stencil(net, prep, arm)
            h0, grad, _, _ = _condition_values(h_batch, prep, arm, hyper)
            for i, s in enumerate(samples):
                h, g = h_and_grad(net, s.q, env, arm, hyper, observation=s.observation)
                assert h == h0[i]
                assert g.tobytes() == grad[i].tobytes()
