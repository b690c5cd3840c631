"""Barrier machinery tests: dataset collection, numerical Lie derivatives,
the control-term infimum against brute force, loss plumbing and training."""

import copy
import gc
import warnings
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from cbfsteer import cbf as cbf_module
from cbfsteer.cbf import (
    CbfHyper,
    Dataset,
    DatasetCounts,
    HandcraftedBarrier,
    LabeledSample,
    NeuralBarrier,
    TrainSchedule,
    _audit,
    _condition_values,
    _forward_stencil,
    _prepare,
    _stencil_blocks,
    _stencil_configs,
    collect_dataset,
    evaluate_constraints,
    loss,
    stencil_distances,
    train,
)
from cbfsteer.config import cloud_widths, load_config, make_hyper, state_widths
from cbfsteer.controller import NominalPolicy, QpMode, SafeControllerConfig, solve_safety_qp
from cbfsteer.environment import (
    CloudObservation,
    CloudSource,
    EnvGenConfig,
    Environment,
    Obstacle,
    SafetyLabel,
    ScanSpec,
    StateObservation,
    random_environment,
    ray_cast_scan,
    safety_label,
    sample_surface_points,
    signed_distance,
    signed_distance_batch,
)
from cbfsteer.kinematics import ArmModel, joint_positions, sample_config
from cbfsteer.neural import (
    AdamState,
    BatchWorkspace,
    Mlp,
    PointSetEncoder,
    _point_features,
    _winner_rows,
    _winner_upstream,
    adam_step,
    cloud_terms,
    encoder_backward_batch,
    link_table,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
)
import draw_oracle
import encoder_oracle
import prepare_oracle
import rollout_oracle
from test_neural import encode, reference_point_records, wide_encoder


# one circle near the default arm: a state net reads its signed distance
WORLD = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.4), radius=0.2),))


def h_value(net, q, arm, observation=None):
    """Barrier value alone: a state net reads WORLD, a cloud net the observation."""
    return NeuralBarrier(net, arm, CbfHyper()).value_and_grad(q, observation, WORLD)[0]


def grad_h_q(net, q, env, arm, hyper, observation=None):
    return NeuralBarrier(net, arm, hyper).value_and_grad(q, observation, env)[1]


@pytest.fixture
def arm():
    return ArmModel()


def constant_net(n_inputs, value):
    """Single linear layer with zero weights: h = value everywhere."""
    return Mlp((n_inputs, 1), [(np.zeros((1, n_inputs)), np.array([float(value)]))])


def distance_net(n_links, scale=1.0, offset=0.0):
    """Linear net returning scale * d + offset for state inputs (q, d)."""
    w = np.zeros((1, n_links + 1))
    w[0, -1] = scale
    return Mlp((n_links + 1, 1), [(w, np.array([float(offset)]))])


def collect_settings(**overrides):
    """`collect_dataset`'s data-collection settings at the default config's
    values, with any of them overridden."""
    cfg = load_config()
    return {"r_thres": cfg["hyper"]["r_thres"], "cloud_points": cfg["cloud"]["num_points"],
            "rollout_ticks": cfg["data"]["rollout_ticks"], "ctrl_hz": cfg["controller"]["ctrl_hz"],
            "uniform_samples_per_env": cfg["data"]["uniform_samples_per_env"],
            "r_goal": cfg["controller"]["r_goal"], **overrides}


def small_dataset(arm, seed=0, uniform=400, rollouts=2, kind="state"):
    rng = np.random.default_rng(seed)
    return collect_dataset(
        arm, EnvGenConfig(), DatasetCounts(rollout_trajs=rollouts, uniform_samples=uniform),
        NominalPolicy(), rng, observation_kind=kind, **collect_settings(cloud_points=24))


class TestCollectDataset:
    def test_uniform_only_exact_count(self, arm):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 123), NominalPolicy(),
                             np.random.default_rng(0), **collect_settings())
        assert len(ds) == 123
        assert all(isinstance(s.observation, StateObservation) for s in ds.samples)

    def test_label_histogram_covers_all_classes(self, arm):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 10_000), NominalPolicy(),
                             np.random.default_rng(1), **collect_settings())
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
                            np.random.default_rng(0), **collect_settings(r_thres=r_thres))

    @pytest.mark.parametrize("per_env", [0, -3])
    def test_fewer_than_one_uniform_sample_per_environment_rejected(self, arm, per_env):
        # each uniform pass would take no sample, so the loop would never end
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="uniform_samples_per_env must be >= 1"):
            collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 10), NominalPolicy(), rng,
                            **collect_settings(uniform_samples_per_env=per_env))
        assert rng.bit_generator.state == state  # before any work

    @pytest.mark.parametrize("counts", [DatasetCounts(-1, 10), DatasetCounts(0, -10)])
    def test_negative_counts_rejected(self, arm, counts):
        with pytest.raises(ValueError, match="data counts must be non-negative"):
            collect_dataset(arm, EnvGenConfig(), counts, NominalPolicy(),
                            np.random.default_rng(0), **collect_settings())

    def test_one_uniform_sample_per_environment(self, arm):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(0, 5), NominalPolicy(),
                             np.random.default_rng(0),
                             **collect_settings(uniform_samples_per_env=1))
        assert len(ds) == len(ds.environments) == 5

    def test_determinism_byte_identical(self, arm, tmp_path):
        for name in ("a", "b"):
            ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(2, 200), NominalPolicy(),
                                 np.random.default_rng(7), observation_kind="cloud",
                                 **collect_settings(cloud_points=16))
            ds.save(tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.envs.json").read_bytes() == (tmp_path / "b.envs.json").read_bytes()

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_inline_draws(self, arm, tmp_path, monkeypatch, kind, seed):
        # the same dataset, bit for bit, and the same generator state after, as
        # with the world, surface-cloud and free-configuration loops of
        # draw_oracle in place of the shared draws
        def collect(name):
            rng = np.random.default_rng(seed)
            ds = collect_dataset(arm, EnvGenConfig(shapes=("rect", "circle")), DatasetCounts(3, 60),
                                 NominalPolicy(), rng, observation_kind=kind,
                                 **collect_settings(cloud_points=16))
            ds.save(tmp_path / f"{name}.jsonl")
            return (rng.bit_generator.state, (tmp_path / f"{name}.jsonl").read_bytes(),
                    (tmp_path / f"{name}.envs.json").read_bytes())

        got = collect("shared")
        for name in ("random_environment", "sample_surface_points", "sample_free_config"):
            monkeypatch.setattr(cbf_module, name, getattr(draw_oracle, name))
        assert got == collect("inline")

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
        assert h_value(net, np.zeros(3), arm) == 0.0

    def test_deterministic(self, arm):
        rng = np.random.default_rng(2)
        net = Mlp.create((4, 8, 1), rng)
        q = rng.uniform(-1, 1, 3)
        assert h_value(net, q, arm) == h_value(net, q, arm)

    def test_matches_forward_composition(self, arm):
        rng = np.random.default_rng(3)
        net = Mlp.create((4, 8, 1), rng)
        q = rng.uniform(-1, 1, 3)
        d = signed_distance(WORLD, arm, q)
        expected, _ = mlp_forward(net, np.concatenate([q, [d]])[None])
        assert h_value(net, q, arm) == pytest.approx(float(expected[0, 0]), abs=1e-15)
        enc = wide_encoder(3, rng)
        pts = rng.uniform(-1, 1, (8, 2))
        nrm = rng.normal(size=(8, 2))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = CloudObservation(points=pts, normals=nrm, source=CloudSource.SURFACE_SAMPLED)
        recs = reference_point_records(arm, q, pts, nrm)
        expected2, _ = encoder_oracle.encoder_forward(enc, q[None, :], recs[None])
        assert h_value(enc, q, arm, cloud) == pytest.approx(float(expected2[0]), abs=1e-15)


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
            _, tape = mlp_forward(net, np.concatenate([q, [d]])[None])
            _, (input_grad,) = mlp_backward(tape, np.ones((1, 1)))
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
            _, tape = mlp_forward(net, np.concatenate([q, [d0]])[None])
            _, (input_grad,) = mlp_backward(tape, np.ones((1, 1)))
            g = grad_h_q(net, q, env, arm, hyper)
            np.testing.assert_allclose(g, input_grad[:3] + input_grad[3] * d_fd,
                                       atol=20 * hyper.fd_step)

    def test_cloud_variant_gradient_runs(self, arm):
        rng = np.random.default_rng(6)
        enc = wide_encoder(3, rng)
        pts = rng.uniform(-1, 1, (12, 2))
        nrm = rng.normal(size=(12, 2))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = CloudObservation(points=pts, normals=nrm, source=CloudSource.SURFACE_SAMPLED)
        hyper = make_hyper(load_config())
        h, g, _ = NeuralBarrier(enc, arm, hyper).value_and_grad(np.zeros(3), cloud, None)
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


def state_dataset(arm, samples, envs):
    return Dataset(kind="state", arm=arm, environments=envs, samples=samples, r_thres=0.05)


class TestLoss:
    def test_zero_network_exact_components(self, arm):
        hyper = CbfHyper(gamma=0.1, eps_margin=0.02, loss_weights=(2.0, 3.0, 4.0))
        rng = np.random.default_rng(9)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=90)
        # force a balanced batch with all classes present
        assert any(s.label is SafetyLabel.SAFE for s in samples)
        assert any(s.label is SafetyLabel.UNSAFE for s in samples)
        net = constant_net(4, 0.0)
        total, comps, _ = loss(net, _prepare(samples, arm, hyper, envs), arm, hyper)
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
        total, comps, _ = loss(net, _prepare(samples, arm, hyper, [Environment()]), arm, hyper)
        assert comps["safe"] == 0.0
        assert comps["unsafe"] == 0.0  # no unsafe samples at all
        assert comps["deriv"] == 0.0  # eps + alpha_h * (-1) < 0

    def test_empty_batch_rejected(self, arm):
        with pytest.raises(ValueError, match="empty batch"):
            loss(constant_net(4, 0.0), _prepare([], arm, CbfHyper(), []), arm, CbfHyper())

    def test_param_grads_match_finite_differences(self, arm):
        hyper = CbfHyper(loss_weights=(1.0, 1.0, 0.7))
        rng = np.random.default_rng(10)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=24)
        net = Mlp.create((4, 6, 1), rng)
        prep = _prepare(samples, arm, hyper, envs)

        def run():
            total, _, _ = loss(net, prep, arm, hyper)
            return total

        _, _, grads = loss(net, prep, arm, hyper)
        from test_neural import max_rel_err, param_fd_grads

        fd = param_fd_grads(run, net.params, step=1e-6)
        assert max_rel_err(grads, fd) < 1e-3

    def test_cloud_variant_grads_match_finite_differences(self, arm):
        hyper = make_hyper(load_config())
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
        prep = _prepare(samples, arm, hyper)

        def run():
            total, _, _ = loss(enc, prep, arm, hyper)
            return total

        _, _, grads = loss(enc, prep, arm, hyper)
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
        prep = _prepare(samples, arm, hyper, envs)
        first = None
        last = None
        for _ in range(200):
            total, _, grads = loss(net, prep, arm, hyper)
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
        rates = evaluate_constraints(constant_net(4, 0.0), state_dataset(arm, samples, envs),
                                     hyper)
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
        rates = evaluate_constraints(net, state_dataset(arm, samples, envs), hyper)
        assert rates["safe_rate"] == 1.0
        assert rates["unsafe_rate"] == 1.0

    def test_order_independent(self, arm):
        hyper = CbfHyper()
        rng = np.random.default_rng(15)
        samples, envs = synthetic_state_batch(arm, hyper, rng, n=80)
        net = Mlp.create((4, 8, 1), rng)
        r1 = evaluate_constraints(net, state_dataset(arm, samples, envs), hyper)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        r2 = evaluate_constraints(net, state_dataset(arm, shuffled, envs), hyper)
        assert r1["safe_rate"] == r2["safe_rate"]
        assert r1["unsafe_rate"] == r2["unsafe_rate"]
        assert r1["deriv_rate"] == r2["deriv_rate"]

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_slices_of_128_and_512_agree_bit_for_bit(self, arm, kind):
        cfg = load_config()
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(rollout_trajs=2, uniform_samples=600),
                             NominalPolicy(), np.random.default_rng(21), observation_kind=kind,
                             **collect_settings(cloud_points=64))
        hyper = make_hyper(cfg)
        rng = np.random.default_rng(22)
        if kind == "cloud":
            per_point, trunk = cloud_widths(cfg, arm)
            net = PointSetEncoder.create(arm.n_links, per_point, trunk, rng)
        else:
            net = Mlp.create(state_widths(cfg, arm), rng)
        prep = _prepare(ds.samples, arm, hyper, ds.environments)
        n = len(ds)
        assert n > 512 and n % 128
        h = [np.concatenate([_forward_stencil(net, prep.take(slice(i, i + size)), arm)[0]
                             for i in range(0, n, size)]) for size in (128, 512)]
        assert h[0].tobytes() == h[1].tobytes()
        assert (evaluate_constraints(net, ds, hyper)
                == _audit(net, ds.prepared(hyper), arm, hyper, 512))


class TestCbfHyper:
    @pytest.mark.parametrize("field", ["gamma", "eps_margin", "alpha_h", "fd_step", "r_thres"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, np.nan, np.inf])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            CbfHyper(**{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_loss_weight_rejected(self, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            CbfHyper(loss_weights=(1.0, value, 0.5))


class TestTrainSchedule:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("batch_size", 0), ("batch_size", -32),
        *(("lr", value) for value in (0.0, -1e-3, np.nan, np.inf))])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"train {field} must be"):
            TrainSchedule(**{field: value})

    def test_boundary_values_accepted(self):
        TrainSchedule(epochs=0, batch_size=1, lr=1e-12)


class TestTrain:
    def test_zero_epochs_identity(self, arm):
        ds = small_dataset(arm, uniform=60)
        hyper = make_hyper(load_config())
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
            hyper = make_hyper(load_config())
            net = Mlp.create((4, 16, 1), np.random.default_rng(17))
            net, _ = train(ds, net, hyper, TrainSchedule(epochs=3, batch_size=64),
                           np.random.default_rng(99))
            p = tmp_path / f"{name}.json"
            save_checkpoint(p, "state", net, {})
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cloud_seed_determinism(self, arm, tmp_path):
        paths = []
        for name in ("a", "b"):
            ds = small_dataset(arm, seed=3, uniform=120, kind="cloud")
            hyper = make_hyper(load_config())
            net = wide_encoder(arm.n_links, np.random.default_rng(17))
            net, _ = train(ds, net, hyper, TrainSchedule(epochs=2, batch_size=32),
                           np.random.default_rng(99))
            p = tmp_path / f"{name}.json"
            save_checkpoint(p, "cloud", net, hyper.to_json())
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_training_improves_rates(self, arm):
        ds = small_dataset(arm, seed=5, uniform=2000, rollouts=4)
        hyper = make_hyper(load_config())
        net = Mlp.create((4, 32, 32, 1), np.random.default_rng(18))
        net, report = train(ds, net, hyper, TrainSchedule(epochs=12, batch_size=128, lr=3e-3),
                            np.random.default_rng(5))
        first, last = report.epochs[0], report.epochs[-1]
        assert last["val_deriv_rate"] >= 0.9
        assert last["loss"] <= first["loss"]


class TestStencilConfigs:
    def test_equals_tile_eye_form_bit_for_bit(self):
        # includes -0.0 joints (q + 0*fd_step turns them into 0.0 off the
        # diagonal) and negative and zero steps; one q (n,), a batch (B, n)
        # with B = 0 allowed, or a batch of batches (A, B, n)
        rng = np.random.default_rng(23)
        for i in range(2000):
            n = int(rng.integers(1, 8))
            lead = [(), (int(rng.integers(0, 6)),), (2, int(rng.integers(1, 4)))][i % 3]
            if rng.random() < 0.5:
                q = rng.choice([-0.0, 0.0, 1e-300, -2.8, 1.25], size=lead + (n,))
            else:
                q = rng.normal(size=lead + (n,))
            fd = float(rng.choice([1e-3, 1e-6, 0.5, -1e-3, 0.0, -0.0]))
            got = _stencil_configs(q, fd)
            assert got.shape == lead + (n + 1, n)
            ref = [prepare_oracle.eye_stencil(row, fd) for row in q.reshape(-1, n)]
            assert got.tobytes() == b"".join(r.tobytes() for r in ref)


class TestHandcrafted:
    def test_value_is_margin_minus_distance(self, arm):
        rng = np.random.default_rng(19)
        env = Environment(obstacles=(Obstacle(kind="rect", center=(0.6, 0.4),
                                              half_extents=(0.2, 0.2)),))
        for _ in range(10):
            q = sample_config(arm, rng)
            h, grad, _ = HandcraftedBarrier(arm, 0.1).value_and_grad(q, None, env)
            assert h == pytest.approx(0.1 - signed_distance(env, arm, q), abs=1e-12)
            assert grad.shape == (3,)

    def test_penetration_gives_h_above_margin(self, arm):
        env = Environment(obstacles=(Obstacle(kind="rect", center=(1.15, 0.0),
                                              half_extents=(0.1, 0.1)),))
        h, _, _ = HandcraftedBarrier(arm, 0.1).value_and_grad(np.zeros(3), None, env)
        assert h > 0.1

    def test_sign_flips_where_distance_crosses_margin(self, arm):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.6), radius=0.2),))
        margin = 0.12
        barrier = HandcraftedBarrier(arm, margin)
        q0 = np.zeros(3)
        q1 = np.array([0.6, 0.0, 0.0])  # swings the arm toward the circle

        def h_at(t):
            return barrier.value_and_grad(q0 + t * (q1 - q0), None, env)[0]

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
            HandcraftedBarrier(arm, -0.1)

    @pytest.mark.parametrize("margin", [np.nan, np.inf])
    def test_non_finite_margin_rejected(self, arm, margin):
        with pytest.raises(ValueError, match="margin"):
            HandcraftedBarrier(arm, margin)

    @pytest.mark.parametrize("lengths", [(0.5, 0.4, 0.3), (1.2 / 7,) * 7])
    def test_a_margin_at_or_above_the_clearance_cap_is_refused(self, lengths):
        # links l and l+2 are no farther apart than link l+1's length less two
        # radii, so no configuration's clearance passes the cap: 7 links of
        # the default reach took the default margin, 0.15, with h > 0 everywhere
        arm = ArmModel(link_lengths=lengths)
        qs = np.random.default_rng(32).uniform(arm.lower, arm.upper, size=(2000, arm.n_links))
        d = signed_distance_batch(Environment(obstacles=()), arm, qs)
        assert arm.clearance_cap - 1e-3 < d.max() <= arm.clearance_cap + 1e-12
        for margin in (arm.clearance_cap, 0.15 if arm.n_links == 7 else 0.4):
            with pytest.raises(ValueError, match=f"margin {margin} is not below the arm's "
                                                 f"clearance cap {arm.clearance_cap}"):
                HandcraftedBarrier(arm, margin)
        below = np.nextafter(arm.clearance_cap, 0.0)
        assert HandcraftedBarrier(arm, below).margin == below

    def test_fd_step_and_alpha_come_from_the_hyper_block(self, arm):
        env = Environment(obstacles=(Obstacle(kind="circle", center=(0.9, 0.4), radius=0.2),))
        q = np.array([0.3, -0.2, 0.4])
        hyper = CbfHyper(fd_step=2.5e-4, alpha_h=3.0)
        barrier = HandcraftedBarrier(arm, 0.1, hyper)
        assert barrier.hyper.alpha_h == 3.0
        h, grad, d = barrier.value_and_grad(q, None, env)
        ds = signed_distance_batch(env, arm, prepare_oracle.eye_stencil(q, 2.5e-4))
        assert h == 0.1 - ds[0] and d == ds[0]
        assert grad.tobytes() == (-(ds[1:] - ds[0]) / 2.5e-4).tobytes()


class TestClearanceReading:
    """The clearance a barrier hands the planner's proof is the signed
    distance at q, bit for bit, for the barriers that read the world; a
    cloud net reads none."""

    @pytest.mark.parametrize("kind", ["hand-0.0", "hand-0.15", "state"])
    def test_the_reading_is_the_clearance(self, arm, kind):
        rng = np.random.default_rng(29)
        barrier = (NeuralBarrier(Mlp.create((4, 16, 16, 1), rng), arm, CbfHyper())
                   if kind == "state" else HandcraftedBarrier(arm, float(kind[5:])))
        for shapes in (("rect",), ("circle",), ("rect", "circle")):
            env = random_environment(EnvGenConfig(num_obstacles=6, shapes=shapes), rng)
            for q in rng.uniform(arm.lower, arm.upper, (100, arm.n_links)):
                _, _, d = barrier.value_and_grad(q, None, env)
                assert type(d) is float and d == signed_distance(env, arm, q)

    def test_cloud_nets_read_none(self, arm):
        rng = np.random.default_rng(30)
        env = random_environment(EnvGenConfig(num_obstacles=4, shapes=("rect", "circle")), rng)
        net = PointSetEncoder.create(3, per_point_widths=(7, 8, 6), trunk_widths=(9, 8, 1),
                                     rng=rng)
        barrier = NeuralBarrier(net, arm, CbfHyper())
        _, _, d = barrier.value_and_grad(sample_config(arm, rng),
                                         sample_surface_points(env, 16, rng), env)
        assert d == -np.inf


class TestStencilDistances:
    def test_matches_direct_computation(self, arm):
        hyper = make_hyper(load_config())
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


def assert_same_batch(got, ref):
    """A `_Prepared.take` batch equals the per-batch reference byte for byte,
    the cloud variant's table rows gathered by cloud index."""
    assert got.safe_mask.tobytes() == ref.safe_mask.tobytes()
    assert got.unsafe_mask.tobytes() == ref.unsafe_mask.tobytes()
    if ref.x is not None:
        assert got.qs is None and got.cloud is None
        assert got.x.shape == ref.x.shape and got.x.tobytes() == ref.x.tobytes()
        return
    assert got.x is None
    assert got.qs.shape == ref.qs.shape and got.qs.tobytes() == ref.qs.tobytes()
    for table, per_sample in ((got.points, ref.points), (got.normals, ref.normals)):
        gathered = table[got.cloud]
        assert gathered.shape == per_sample.shape
        assert gathered.tobytes() == per_sample.tobytes()


def check_prepare_once(samples, arm, hyper, envs, rng, trials=25):
    """`_prepare(samples).take(idx)` against the per-batch reference for
    random index sets, and the whole set in order."""
    prep = _prepare(samples, arm, hyper, envs)
    assert_same_batch(prep.take(np.arange(len(samples))),
                      prepare_oracle.prepare_batch(samples, arm, hyper.fd_step, envs))
    for _ in range(trials):
        idx = rng.choice(len(samples), size=int(rng.integers(1, len(samples) + 1)),
                         replace=False)
        ref = prepare_oracle.prepare_batch([samples[i] for i in idx], arm, hyper.fd_step, envs)
        assert_same_batch(prep.take(idx), ref)
    return prep


class TestPrepareOnce:
    """Training and auditing prepare a sample set once and index it; each
    batch must equal the batch prepared on its own from the sample objects."""

    def test_multi_environment_shuffled_state_set(self, arm):
        rng = np.random.default_rng(40)
        ds = small_dataset(arm, seed=4, uniform=500, rollouts=3)
        assert len(ds.environments) == 6
        samples = [ds.samples[i] for i in rng.permutation(len(ds))]
        check_prepare_once(samples, arm, CbfHyper(), ds.environments, rng)

    def test_cloud_set_with_shared_clouds(self, arm):
        rng = np.random.default_rng(41)
        ds = small_dataset(arm, seed=5, uniform=300, kind="cloud")
        samples = [ds.samples[i] for i in rng.permutation(len(ds))]
        prep = check_prepare_once(samples, arm, CbfHyper(), ds.environments, rng)
        # one table row per shared cloud, not one per sample
        assert prep.points.shape[0] == len(ds.clouds) == len(ds.environments)

    def test_cloud_set_with_distinct_clouds(self, arm):
        rng = np.random.default_rng(42)
        env, samples = random_world_samples(arm, rng, "cloud", 40)
        samples = [replace(s, observation=sample_surface_points(env, 24, rng)) for s in samples]
        prep = check_prepare_once(samples, arm, CbfHyper(), [env], rng)
        assert prep.points.shape[0] == len(samples)

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_dataset_reloaded_from_disk(self, arm, kind, tmp_path):
        rng = np.random.default_rng(43)
        ds = small_dataset(arm, seed=6, uniform=250, kind=kind)
        if kind == "cloud":  # a few samples with a cloud of their own
            ds = replace(ds, samples=tuple(
                replace(s, observation=sample_surface_points(ds.environments[s.env_id], 24, rng))
                if i % 50 == 0 else s for i, s in enumerate(ds.samples)))
        ds.save(tmp_path / "data.jsonl")
        loaded = Dataset.load(tmp_path / "data.jsonl")
        prep = check_prepare_once(loaded.samples, arm, make_hyper(load_config()),
                                  loaded.environments, rng)
        if kind == "cloud":
            assert prep.points.shape[0] == len(loaded.clouds) + len(ds.samples[::50])


def reloaded(ds, path):
    """A copy of a dataset through `Dataset.save` and `Dataset.load`: the same
    samples, sharing no object or array with the original."""
    ds.save(path)
    return Dataset.load(path)


def small_net(kind, arm, rng):
    if kind == "state":
        return Mlp.create((arm.n_links + 1, 16, 1), rng)
    n = arm.n_links
    return PointSetEncoder.create(n, per_point_widths=(4 + n, 8, 8), trunk_widths=(8 + n, 8, 1),
                                  rng=rng)


class TestPreparedOncePerDataset:
    """`Dataset.prepared` keeps one set of stencil arrays per fd_step, which
    training and every audit of the dataset read. The reference is a fresh
    `_prepare` on a saved and reloaded copy of the dataset."""

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_audit_after_training_matches_a_fresh_prepare(self, arm, kind, tmp_path):
        ds = small_dataset(arm, seed=8, uniform=200, kind=kind)
        copied = reloaded(ds, tmp_path / "data.jsonl")
        hyper = make_hyper(load_config())
        net, _ = train(ds, small_net(kind, arm, np.random.default_rng(3)), hyper,
                       TrainSchedule(epochs=2, batch_size=48), np.random.default_rng(4))
        ref = _prepare(copied.samples, arm, hyper, copied.environments)
        assert evaluate_constraints(net, ds, hyper) == _audit(net, ref, arm, hyper)
        prep = ds.prepared(hyper)
        assert ds.prepared(replace(hyper, gamma=0.1)) is prep  # one per fd_step
        # never written to: read-only, and still the reference's bytes
        for name, want in vars(ref).items():
            got = getattr(prep, name)
            if want is None:
                assert got is None
                continue
            assert not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            with pytest.raises(ValueError, match="read-only"):
                got.reshape(-1)[0] = got.reshape(-1)[0]

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_another_fd_step_is_prepared_afresh(self, arm, kind, tmp_path):
        ds = small_dataset(arm, seed=9, uniform=150, kind=kind)
        copied = reloaded(ds, tmp_path / "data.jsonl")
        hyper = make_hyper(load_config())
        other = replace(hyper, fd_step=4 * hyper.fd_step)
        net = small_net(kind, arm, np.random.default_rng(5))
        evaluate_constraints(net, ds, hyper)
        ref = _prepare(copied.samples, arm, other, copied.environments)
        assert evaluate_constraints(net, ds, other) == _audit(net, ref, arm, other)
        stencil = "x" if kind == "state" else "qs"
        got, first = (getattr(ds.prepared(h), stencil) for h in (other, hyper))
        assert got.tobytes() == getattr(ref, stencil).tobytes()
        assert got.tobytes() != first.tobytes()

    def test_training_and_audits_compute_the_stencil_distances_once(self, arm, monkeypatch):
        calls = []
        real = cbf_module.stencil_distances
        monkeypatch.setattr(cbf_module, "stencil_distances",
                            lambda *args: calls.append(len(args[0])) or real(*args))
        ds = small_dataset(arm, uniform=100)
        hyper = make_hyper(load_config())
        net, _ = train(ds, small_net("state", arm, np.random.default_rng(6)), hyper,
                       TrainSchedule(epochs=2, batch_size=32), np.random.default_rng(7))
        for _ in range(2):
            evaluate_constraints(net, ds, hyper)
        assert calls == [len(ds)]

    def test_samples_and_environments_are_tuples(self, arm):
        ds = small_dataset(arm, uniform=20)
        rebuilt = Dataset(kind=ds.kind, arm=arm, environments=list(ds.environments),
                          samples=list(ds.samples), r_thres=ds.r_thres)
        for d in (ds, rebuilt):
            assert isinstance(d.samples, tuple) and isinstance(d.environments, tuple)
        with pytest.raises(AttributeError):
            ds.samples = ()

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_samples_cannot_change_under_the_kept_arrays(self, arm, kind, tmp_path):
        # collected and loaded sets alike: a sample's q is a read-only row and
        # a sample takes no new field, so `prepared` cannot go stale
        ds = small_dataset(arm, uniform=30, rollouts=1, kind=kind)
        loaded = reloaded(ds, tmp_path / "data.jsonl")
        for d in (ds, loaded):
            prep = d.prepared(make_hyper(load_config()))
            before = d.samples[0].q.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                d.samples[0].q[:] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                d.samples[-1].q[0] += 1.0
            with pytest.raises(AttributeError):
                d.samples[0].observation = d.samples[1].observation
            assert d.samples[0].q.tobytes() == before
            assert d.prepared(make_hyper(load_config())) is prep


def parent_h_and_grad(net, q, env, arm, fd_step, observation=None):
    """A state net's barrier value and gradient as computed before inference
    shared the training forward pass: refreshed signed distances, slot 0
    from the observation when one is given."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    qs = np.tile(q, (n + 1, 1))
    qs[1:] += np.eye(n) * fd_step
    if observation is not None:
        ds = np.empty(n + 1)
        ds[0] = observation.min_signed_distance
        ds[1:] = signed_distance_batch(env, arm, qs[1:])
    else:
        ds = signed_distance_batch(env, arm, qs)
    y, _ = encoder_oracle.mlp_forward(net, np.concatenate([qs, ds[:, None]], axis=1))
    h = y[:, 0]
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
    """`NeuralBarrier.value_and_grad` equals the training forward pass on a
    one-sample batch: a state net runs it, a cloud net its own one-sample
    path (`TestCloudInference`)."""

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
                h, g, _ = NeuralBarrier(net, arm, hyper).value_and_grad(s.q, obs, env)
                if case == "cloud":
                    # the folded first layer sums in another order: to rounding
                    assert_h_and_grad_close(h, g, oracle_stencil_h(net, s.q, arm, hyper, obs),
                                            hyper.fd_step)
                    continue
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
            prep = _prepare(samples, arm, hyper, [env])
            h_batch, _ = _forward_stencil(net, prep, arm)
            h0, grad, _, _ = _condition_values(h_batch, arm, hyper)
            for i, s in enumerate(samples):
                h, g, _ = NeuralBarrier(net, arm, hyper).value_and_grad(s.q, s.observation, env)
                assert h == h0[i]
                assert g.tobytes() == grad[i].tobytes()

    def test_default_widths_match_the_batched_training_pass_to_rounding(self, arm):
        # the one-sample stencil's 64-wide products may go through a BLAS
        # small-matrix kernel that sums in another order, so the values agree
        # to rounding: relative 1e-12 at the scale of the batch's values, and
        # the forward differences to that over the step
        rng = np.random.default_rng(0)
        net = Mlp.create(state_widths(load_config(), arm), rng)
        hyper = CbfHyper()
        env, samples = random_world_samples(arm, rng, "state", 300)
        prep = _prepare(samples, arm, hyper, [env])
        h_batch, _ = _forward_stencil(net, prep, arm)
        h0, grad, _, _ = _condition_values(h_batch, arm, hyper)
        one = [NeuralBarrier(net, arm, hyper).value_and_grad(s.q, s.observation, env)
               for s in samples]
        scale = float(np.abs(h_batch).max())
        np.testing.assert_allclose([h for h, _, _ in one], h0, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(np.array([g for _, g, _ in one]), grad, rtol=1e-12,
                                   atol=2e-12 * scale / hyper.fd_step)


class TestStateBarrierReadsTheWorld:
    """A state barrier reads the world's signed distance at every stencil
    slot and ignores any observation. A state sample stores that same
    distance, bit for bit, also after a save/load round trip, so the barrier
    and the training pass, which reads the stored one at slot 0, agree."""

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        ds = small_dataset(ArmModel(), seed=5, uniform=400, rollouts=3)
        path = tmp_path_factory.mktemp("state") / "data.jsonl"
        ds.save(path)
        return ds, Dataset.load(path)

    def test_stored_distance_is_the_worlds(self, datasets):
        for ds in datasets:
            assert len(ds) > 600
            stored = np.array([s.observation.min_signed_distance for s in ds.samples])
            world = np.array([signed_distance(ds.environments[s.env_id], ds.arm, s.q)
                              for s in ds.samples])
            assert stored.tobytes() == world.tobytes()

    @pytest.mark.parametrize("widths", [(4, 16, 16, 1), None], ids=["16-wide", "default"])
    def test_value_and_grad_equal_with_and_without_the_observation(self, datasets, widths):
        _, loaded = datasets
        arm, hyper = loaded.arm, CbfHyper()
        net = Mlp.create(widths or state_widths(load_config(), arm), np.random.default_rng(7))
        barrier = NeuralBarrier(net, arm, hyper)
        for s in loaded.samples:
            env = loaded.environments[s.env_id]
            h, g, _ = barrier.value_and_grad(s.q, None, env)
            h_obs, g_obs, _ = barrier.value_and_grad(s.q, s.observation, env)
            # the training pass on this sample alone, slot 0 from the observation
            prep = _prepare([s], arm, hyper, loaded.environments)
            h0, grad, _, _ = _condition_values(_forward_stencil(net, prep, arm)[0], arm, hyper)
            assert h == h_obs == h0[0]
            assert g.tobytes() == g_obs.tobytes() == grad[0].tobytes()


class TestNetFitsTheArm:
    """A barrier refuses a net built for an arm of another link count,
    naming both counts: a state net reads n + 1 inputs, a cloud net one-hot
    codes n links. Before, a state net failed at its first tick on the input
    width, and a cloud net raised IndexError."""

    ARM4 = ArmModel(link_lengths=(0.3,) * 4)

    @staticmethod
    def nets(n_links):
        rng = np.random.default_rng(50 + n_links)
        return {"state": Mlp.create((n_links + 1, 8, 1), rng),
                "cloud": PointSetEncoder.create(n_links, (4 + n_links, 8), (8 + n_links, 8, 1),
                                                rng)}

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    @pytest.mark.parametrize("net_links, arm_links", [(3, 4), (4, 3)])
    def test_a_net_for_another_arm_is_refused(self, kind, net_links, arm_links):
        arm = self.ARM4 if arm_links == 4 else ArmModel()
        with pytest.raises(ValueError, match=f"the {kind} net is built for a {net_links}-link "
                                             f"arm, not this {arm_links}-link one"):
            NeuralBarrier(self.nets(net_links)[kind], arm, CbfHyper())

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_a_net_for_the_arm_is_taken(self, kind):
        barrier = NeuralBarrier(self.nets(4)[kind], self.ARM4, CbfHyper())
        assert barrier.kind == kind and barrier.arm.n_links == 4


# -- the block forward against the full-row stencil forward ------------------

# arms of 2, 3, 5 and 7 links, none based at the origin; the 7-link one has
# the reach of `arms.ARMS[7]`
ORACLE_ARMS = {
    2: ArmModel(link_lengths=(0.6, 0.5), base_position=(0.2, -0.3)),
    3: ArmModel(base_position=(-0.4, 0.25)),
    5: ArmModel(link_lengths=(0.35, 0.3, 0.25, 0.2, 0.15), base_position=(0.1, 0.4)),
    7: ArmModel(link_lengths=(1.2 / 7,) * 7, base_position=(-0.15, -0.2)),
}


def oracle_cloud(kind, env, arm, n_points, rng):
    """A cloud of `n_points` points, and how many of them are ray misses:
    surface samples, a ray-cast scan (misses sit at the range sentinel), or
    surface samples each taken twice."""
    if kind == "raycast":
        mounts = (0,) if n_points < 64 else (0, arm.n_links - 1)
        spec = ScanSpec(mount_links=mounts, rays_per_mount=n_points // len(mounts),
                        max_range=1.2)
        q = sample_config(arm, rng)
        cloud = ray_cast_scan(env, arm, q, spec)
        joints = joint_positions(arm, q)[0]
        origins = np.repeat(0.5 * (joints[list(mounts)] + joints[[m + 1 for m in mounts]]),
                            spec.rays_per_mount, axis=0)
        ranges = np.linalg.norm(cloud.points - origins, axis=1)
        return cloud, int(np.sum(np.isclose(ranges, spec.max_range)))
    if kind == "duplicated":
        half = sample_surface_points(env, max(1, n_points // 2), rng)
        reps = n_points // half.points.shape[0]
        cloud = CloudObservation(points=np.tile(half.points, (reps, 1)),
                                 normals=np.tile(half.normals, (reps, 1)), source=half.source)
        return cloud, 0
    return sample_surface_points(env, n_points, rng), 0


def oracle_world(rng):
    return random_environment(EnvGenConfig(num_obstacles=3, shapes=("rect", "circle")), rng)


def oracle_stencil_h(net, q, arm, hyper, cloud):
    """h on the stencil slots (S,) through the full-row stencil forward."""
    prep = _prepare([LabeledSample(q=q, observation=cloud, label=SafetyLabel.SAFE, env_id=0)],
                    arm, hyper)
    return encoder_oracle.forward_stencil(net, prep, arm)[0][0]


def assert_h_and_grad_close(h, g, h_ref, fd_step):
    """h and grad h of one stencil against the oracle's slot values h_ref
    (S,): relative 1e-12 at the scale of the largest reference value, and
    the forward differences to that over the step."""
    scale = float(np.abs(h_ref).max())
    assert abs(h - h_ref[0]) <= 1e-12 * scale
    np.testing.assert_allclose(g, (h_ref[1:] - h_ref[0]) / fd_step, rtol=0.0,
                               atol=2e-12 * scale / fd_step)


def assert_close(got, ref):
    """Within relative 1e-12 of the largest reference magnitude."""
    ref = np.asarray(ref, dtype=float)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * float(np.abs(ref).max()))


def full_row_training(monkeypatch):
    """Route training and auditing through the full-row forward and its
    reverse pass; the full-row code allocates its own arrays, so it takes no
    workspace."""
    shared = _forward_stencil

    def forward(net, prep, arm, *ws):
        if isinstance(net, PointSetEncoder):
            return encoder_oracle.forward_stencil(net, prep, arm)
        return shared(net, prep, arm, *ws)

    monkeypatch.setattr(cbf_module, "_forward_stencil", forward)
    monkeypatch.setattr(cbf_module, "encoder_backward_batch", encoder_oracle.encoder_backward)


def assert_grads_match(got, ref):
    """Encoder parameter grads against the full-row reverse pass, every layer
    to relative 1e-12 at the scale of the largest reference grad."""
    scale = max(float(np.abs(a).max()) for pair in ref for a in pair)
    for g_pair, r_pair in zip(got, ref):
        for g, r in zip(g_pair, r_pair):
            np.testing.assert_allclose(g, r, rtol=0.0, atol=1e-12 * scale)


def record_rows(n_links, n_points, b):
    """The package's flat per-point row (b*K + k)*N + point of every
    full-row record, (B, S, n*N) with each slot's records link-major."""
    table = _stencil_blocks(n_links)[2]
    k = n_links * (n_links + 3) // 2
    link, point = np.divmod(np.arange(n_links * n_points), n_points)
    return (np.arange(b)[:, None, None] * k + table[:, link]) * n_points + point


def own_winners(net, tape):
    """The package's per-point features of a tape's blocks (B, K, F, N),
    computed for the whole batch at once and without the output bias, and
    the first argmax of each slot's n*N link-major records in the features
    with it, as flat rows (B, S, F)."""
    blocks = tape.blocks
    terms = cloud_terms(net.per_point, blocks.points, blocks.normals)
    n_pts = blocks.points.shape[1]
    phi = _point_features(net.per_point, terms[blocks.cloud], link_table(net.per_point, blocks.links),
                          blocks.origins, blocks.angles)[..., :n_pts]
    b, k, f, _ = phi.shape
    s, n = blocks.slot_blocks.shape
    full = phi + net.per_point.params[-1][1][:, None]
    slots = full[:, blocks.slot_blocks].transpose(0, 1, 3, 2, 4).reshape(b, s, f, n * n_pts)
    link, point = np.divmod(slots.argmax(axis=3), n_pts)
    block = blocks.slot_blocks[np.arange(s)[:, None], link]
    return (np.arange(b)[:, None, None] * k + block) * n_pts + point, phi


def cloud_batch(arm, rng, kind, n_points, size=17):
    batch = []
    for _ in range(size):
        env = oracle_world(rng)
        cloud, _ = oracle_cloud(kind, env, arm, n_points, rng)
        q = sample_config(arm, rng)
        d = signed_distance(env, arm, q)
        batch.append(LabeledSample(q=q, observation=cloud, label=safety_label(d, 0.05),
                                   env_id=0))
    return batch


def check_against_oracle(net, prep, arm, hyper, rng, monkeypatch):
    """The folded forward, its reverse pass and the loss against the
    full-row code: values and gradients to relative 1e-12, and bit for bit
    the winners (against the package's own per-point features), the records
    rebuilt at the winning rows, and the upstream those rows receive."""
    h, tape = _forward_stencil(net, prep, arm)
    h_ref, tape_ref = encoder_oracle.forward_stencil(net, prep, arm)
    assert_close(h, h_ref)
    winners, phi = own_winners(net, tape)
    assert np.array_equal(_winner_rows(tape), winners)
    assert np.array_equal(tape.point, phi.argmax(axis=3))
    out_bias = net.per_point.params[-1][1]
    assert tape.block_max.tobytes() == (phi.max(axis=3) + out_bias).tobytes()
    b, k, f, n_pts = phi.shape
    n = arm.n_links
    rows = np.unique(winners)
    full = encoder_oracle.stencil_records(arm, prep.qs, prep.points[prep.cloud],
                                          prep.normals[prep.cloud])
    frames, links, _ = _stencil_blocks(n)
    sample, block = np.divmod(rows // n_pts, k)
    ref_recs = full[sample, frames[block] // n, links[block] * n_pts + rows % n_pts]
    assert tape.blocks.records(rows).tobytes() == ref_recs.tobytes()
    # a winning row's upstream sums the slots' gradients it wins, in slot order
    up = rng.normal(size=h.size)
    d_feature = mlp_backward(tape.trunk_tape, up[:, None])[1][:, :f]
    dense = np.zeros((b * k * n_pts, f))
    np.add.at(dense, (winners.reshape(-1), np.tile(np.arange(f), h.size)), d_feature.reshape(-1))
    got_rows, delta = _winner_upstream(tape, d_feature)
    assert np.array_equal(got_rows, rows)
    assert delta.tobytes() == dense[rows].tobytes()
    assert not np.delete(dense, rows, axis=0).any()
    grads, q_grads = encoder_backward_batch(tape, up)
    grads_ref, q_ref = encoder_oracle.encoder_backward(tape_ref, up)
    assert_grads_match(grads, grads_ref)
    assert_close(q_grads, q_ref)

    total, comps, grads = loss(net, prep, arm, hyper)
    with monkeypatch.context() as patch:
        full_row_training(patch)
        total_ref, comps_ref, grads_ref = loss(net, prep, arm, hyper)
    # every component is non-negative, so the total is the largest magnitude
    for got, ref in [(total, total_ref)] + [(comps[key], comps_ref[key]) for key in comps]:
        assert abs(got - ref) <= 1e-12 * total_ref
    assert_grads_match(grads, grads_ref)


def check_training_against_oracle(ds, net_init, hyper, monkeypatch):
    """Two epochs of training through the package and through the full-row
    code from the same initial net, and one fixed net's audit through
    both."""
    schedule = TrainSchedule(epochs=2, batch_size=32)
    trained, epochs, audits = [], [], []
    for run in ("folded", "full-row"):
        if run == "full-row":
            full_row_training(monkeypatch)
        net, report = train(ds, copy.deepcopy(net_init), hyper, schedule,
                            np.random.default_rng(6))
        trained.append(net)
        epochs.append(report.epochs)
        # one fixed net, the first run's, audited through each path
        audits.append(_audit(trained[0], ds.prepared(hyper), ds.arm, hyper, batch_size=40))
    assert audits[0] == audits[1]
    # the grads differ in the last bits, and a dozen Adam steps of size
    # lr = 2e-3 carry that to about 1e-14 in the parameters; 1e-10 bounds it
    # far below one step
    for (w, b), (w_ref, b_ref) in zip(trained[0].all_params(), trained[1].all_params()):
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, rtol=0.0, atol=1e-10)
    assert len(epochs[0]) == 2
    for row, row_ref in zip(*epochs):
        assert row.keys() == row_ref.keys()
        for key, value in row.items():
            assert value == pytest.approx(row_ref[key], rel=1e-9, abs=1e-12), key


def reference_train(ds, net, hyper, schedule, rng):
    """`train`'s loop with no shared arrays: a fresh `_prepare`, one `loss`
    call per batch with arrays of its own (no workspace), and an Adam step.
    Returns the net and each epoch's mean loss."""
    n_total = len(ds.samples)
    perm = rng.permutation(n_total)
    train_idx = perm[max(1, n_total // 10):]
    data = _prepare(ds.samples, ds.arm, hyper, ds.environments)
    params = net.params if isinstance(net, Mlp) else net.all_params()
    state = AdamState.for_params(params)
    means = []
    for _ in range(schedule.epochs):
        order = rng.permutation(len(train_idx))
        total = 0.0
        for start in range(0, len(order), schedule.batch_size):
            idx = train_idx[order[start:start + schedule.batch_size]]
            value, _, grads = loss(net, data.take(idx), ds.arm, hyper)
            adam_step(params, grads, state, lr=schedule.lr)
            total += value * len(idx)
        means.append(total / len(train_idx))
    return net, means


def reference_audit(net, prep, arm, hyper, batch_size):
    """`_audit`'s counts, each slice's forward pass with arrays of its own."""
    ok = np.zeros(3, dtype=int)
    for start in range(0, prep.safe_mask.size, batch_size):
        batch = prep.take(slice(start, start + batch_size))
        h0, _, inf_vals, _ = _condition_values(_forward_stencil(net, batch, arm)[0], arm, hyper)
        ok += [int((batch.safe_mask & (h0 <= -hyper.gamma)).sum()),
               int((batch.unsafe_mask & (h0 > hyper.gamma)).sum()),
               int((hyper.eps_margin + inf_vals + hyper.alpha_h * h0 <= 0.0).sum())]
    return ok.tolist()


class TestWorkspace:
    """A cloud training run keeps one workspace across its batches and
    validation audits, and an audit one across its slices; every array a
    pass writes there is sized for the largest batch so far. Training and
    auditing through it must give the bytes of passes that allocate their
    own."""

    NETS = {"default": None, "narrow": ((7, 8, 6), (9, 8, 1))}

    def make(self, name, arm, rng):
        per_point, trunk = self.NETS[name] or cloud_widths(load_config(), arm)
        return PointSetEncoder.create(arm.n_links, per_point, trunk, rng)

    @pytest.mark.parametrize("name", list(NETS))
    def test_training_bytes(self, arm, name):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(1, 260), NominalPolicy(),
                             np.random.default_rng(30), observation_kind="cloud",
                             **collect_settings(cloud_points=64))
        hyper = make_hyper(load_config())
        schedule = TrainSchedule(epochs=3, batch_size=64, lr=2e-3)
        n_train = len(ds) - len(ds) // 10
        assert n_train > schedule.batch_size and n_train % schedule.batch_size  # a partial batch
        net0 = self.make(name, arm, np.random.default_rng(31))
        net, report = train(ds, copy.deepcopy(net0), hyper, schedule, np.random.default_rng(32))
        ref, means = reference_train(ds, copy.deepcopy(net0), hyper, schedule,
                                     np.random.default_rng(32))
        for (w, b), (w_ref, b_ref) in zip(net.all_params(), ref.all_params()):
            assert w.tobytes() == w_ref.tobytes() and b.tobytes() == b_ref.tobytes()
        assert [e["loss"] for e in report.epochs] == means

    @pytest.mark.parametrize("name", list(NETS))
    def test_audit_slices_of_unequal_size(self, arm, name):
        ds = small_dataset(arm, seed=33, uniform=110, kind="cloud")
        hyper = make_hyper(load_config())
        net = self.make(name, arm, np.random.default_rng(34))
        prep = _prepare(ds.samples, arm, hyper, ds.environments)
        ws = BatchWorkspace()
        # the first audit sizes the arrays for 24 samples, the second grows them
        for batch_size in (24, 40, 24):
            assert len(ds) % batch_size
            got = _audit(net, prep, arm, hyper, batch_size, ws)
            assert [got[k] for k in ("safe_rate", "unsafe_rate", "deriv_rate")] == [
                ok / n if n else 1.0 for ok, n in zip(
                    reference_audit(net, prep, arm, hyper, batch_size),
                    (got["n_safe"], got["n_unsafe"], got["n_total"]))]


class TestBlockForwardOracle:
    """The cloud encoder folds each link frame into the per-point net's
    first layer and computes each (stencil slot, link) frame once; the
    full-row forward in `encoder_oracle` builds all S*n*N records. Values
    and gradients agree to rounding; winners, the records rebuilt at them
    and audits agree bit for bit."""

    @pytest.mark.parametrize("n_links", [2, 3, 5, 7])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    @pytest.mark.parametrize("kind", ["surface", "raycast", "duplicated"])
    def test_h_and_grad(self, n_links, n_points, kind):
        arm = ORACLE_ARMS[n_links]
        rng = np.random.default_rng(100 * n_links + n_points)
        net = wide_encoder(n_links, rng)
        hyper = CbfHyper()
        misses = 0
        for trial in range(12):
            env = oracle_world(rng)
            cloud, n_miss = oracle_cloud(kind, env, arm, n_points, rng)
            misses += n_miss
            q = sample_config(arm, rng)
            if trial == 0:
                q[::2] = -0.0  # signed zeros: the stencil rows turn them into +0.0
                q[1::2] = 0.0
            h, g, _ = NeuralBarrier(net, arm, hyper).value_and_grad(q, cloud, None)
            assert_h_and_grad_close(h, g, oracle_stencil_h(net, q, arm, hyper, cloud),
                                    hyper.fd_step)
        if kind == "raycast":
            assert misses > 0

    def test_block_table(self):
        frames, links, table = _stencil_blocks(3)
        assert frames.tolist() == [0, 1, 2, 3, 4, 5, 7, 8, 11]
        assert table.tolist() == [[0, 1, 2], [3, 4, 5], [0, 6, 7], [0, 1, 8]]
        assert links.tolist() == [0, 1, 2, 0, 1, 2, 1, 2, 2]
        for n in (2, 3, 5, 7):
            assert _stencil_blocks(n)[0].size == n * (n + 3) // 2
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1

    @pytest.mark.parametrize("n_links", [2, 3, 5, 7])
    @pytest.mark.parametrize("n_points,kind", [(1, "surface"), (2, "duplicated"),
                                               (64, "raycast"), (64, "duplicated")])
    def test_batch_forward_backward_and_loss(self, n_links, n_points, kind, monkeypatch):
        arm = ORACLE_ARMS[n_links]
        rng = np.random.default_rng(1000 + 10 * n_links + n_points)
        net = wide_encoder(n_links, rng)
        hyper = CbfHyper()
        prep = _prepare(cloud_batch(arm, rng, kind, n_points), arm, hyper)
        check_against_oracle(net, prep, arm, hyper, rng, monkeypatch)

    def test_ties_take_the_first_record(self):
        # every point twice and a zero-weight feature: each pooled coordinate
        # is tied, within a block and (for the constant feature) across links
        arm = ORACLE_ARMS[3]
        rng = np.random.default_rng(5)
        net = wide_encoder(3, rng)
        w, b = net.per_point.params[-1]
        w[:8] = 0.0
        b[:8] = np.linspace(-1.0, 1.0, 8)
        pts = rng.uniform(-1, 1, (32, 2))
        nrm = rng.normal(size=(32, 2))
        cloud = CloudObservation(points=np.vstack([pts, pts]), normals=np.vstack([nrm, nrm]),
                                 source=CloudSource.SURFACE_SAMPLED)
        batch = [LabeledSample(q=sample_config(arm, rng), observation=cloud,
                               label=SafetyLabel.UNSAFE, env_id=0) for _ in range(3)]
        prep = _prepare(batch, arm, CbfHyper())
        _, tape = _forward_stencil(net, prep, arm)
        _, tape_ref = encoder_oracle.forward_stencil(net, prep, arm)
        rows = record_rows(3, 64, 3).reshape(len(tape_ref.argmax), -1)
        winners = _winner_rows(tape).reshape(rows.shape[0], -1)
        assert np.array_equal(winners, np.take_along_axis(rows, tape_ref.argmax, axis=1))
        assert np.all(tape_ref.argmax[:, :8] == 0)  # first link, first point
        assert np.all(tape_ref.argmax[:, 8:] % 64 < 32)  # first copy of a point

    def test_training_and_audit_bytes(self, arm, monkeypatch):
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(rollout_trajs=1, uniform_samples=90),
                             NominalPolicy(), np.random.default_rng(8), observation_kind="cloud",
                             **collect_settings(cloud_points=64))
        net = wide_encoder(3, np.random.default_rng(4))
        check_training_against_oracle(ds, net, make_hyper(load_config()), monkeypatch)

    @pytest.mark.parametrize("hidden", [(16, 24), ()], ids=["two_hidden", "no_hidden"])
    def test_per_point_depths(self, arm, monkeypatch, hidden):
        # default nets have one hidden per-point layer; two run the
        # feature-major layer loop twice before the output layer, and none
        # makes the folded first layer the output layer, whose bias the
        # pool adds
        rng = np.random.default_rng(9)
        n = arm.n_links
        net = PointSetEncoder.create(n, per_point_widths=(4 + n, *hidden, 32),
                                     trunk_widths=(32 + n, 16, 1), rng=rng)
        hyper = make_hyper(load_config())
        for kind in ("surface", "duplicated"):
            prep = _prepare(cloud_batch(arm, rng, kind, 64, size=24), arm, hyper)
            check_against_oracle(net, prep, arm, hyper, rng, monkeypatch)
        ds = collect_dataset(arm, EnvGenConfig(), DatasetCounts(rollout_trajs=1, uniform_samples=90),
                             NominalPolicy(), np.random.default_rng(10), observation_kind="cloud",
                             **collect_settings(cloud_points=64))
        check_training_against_oracle(ds, net, hyper, monkeypatch)


def inference_net(n_links, widths, rng):
    """A cloud net of the default widths (7, 16, 32)/(35, 48, 48, 1) at three
    links, or a small one."""
    if widths == "default":
        return PointSetEncoder.create(n_links, *cloud_widths(load_config(), ORACLE_ARMS[n_links]),
                                      rng=rng)
    return PointSetEncoder.create(n_links, per_point_widths=(4 + n_links, 8, 6),
                                  trunk_widths=(6 + n_links, 8, 1), rng=rng)


def assert_same_h_and_grad(got, ref):
    assert got[0] == ref[0]
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2] == ref[2] == -np.inf  # a cloud net reads no clearance


def counting_cloud_terms(monkeypatch):
    """A list that grows by one at each `cloud_terms` call of the barrier."""
    calls = []
    real = cbf_module.cloud_terms

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cbf_module, "cloud_terms", counted)
    return calls


class TestCloudInference:
    """A cloud barrier's one-sample path (`encoder_forward_one`, with the
    cloud's first-layer terms kept per observation) against the route it
    replaced, the training pass on a one-sample `_Prepared`
    (`rollout_oracle.OneSampleBarrier`): h and grad h bit for bit."""

    @pytest.mark.parametrize("n_links", [2, 3, 5])
    @pytest.mark.parametrize("widths", ["default", "small"])
    def test_bit_equal_to_the_one_sample_training_pass(self, n_links, widths):
        arm = ORACLE_ARMS[n_links]
        rng = np.random.default_rng(60 + n_links)
        net = inference_net(n_links, widths, rng)
        barrier = NeuralBarrier(net, arm, CbfHyper())
        oracle = rollout_oracle.OneSampleBarrier(net, arm, CbfHyper())
        misses = 0
        # point counts off the POINT_ALIGN multiple pad their clouds
        for kind, n_points in [("surface", 64), ("surface", 13), ("surface", 37),
                               ("raycast", 64), ("raycast", 37)]:
            cloud, n_miss = oracle_cloud(kind, oracle_world(rng), arm, n_points, rng)
            misses += n_miss
            for _ in range(10):
                q = sample_config(arm, rng)
                assert_same_h_and_grad(barrier.value_and_grad(q, cloud, None),
                                       oracle.value_and_grad(q, cloud, None))
        assert misses > 0

    def test_cache_use(self, monkeypatch):
        arm = ORACLE_ARMS[3]
        rng = np.random.default_rng(70)
        net = inference_net(3, "default", rng)
        barrier = NeuralBarrier(net, arm, CbfHyper())
        oracle = rollout_oracle.OneSampleBarrier(net, arm, CbfHyper())
        calls = counting_cloud_terms(monkeypatch)
        env = oracle_world(rng)
        first, second = (sample_surface_points(env, 64, rng) for _ in range(2))

        def check(cloud):
            q = sample_config(arm, rng)
            assert_same_h_and_grad(barrier.value_and_grad(q, cloud, None),
                                   oracle.value_and_grad(q, cloud, None))

        for _ in range(20):  # one observation over many configurations: its terms once
            check(first)
        assert len(calls) == 1
        for cloud in [second, first] * 4:  # alternating: new terms at every switch
            check(cloud)
        assert len(calls) == 9
        # a new object with equal arrays is a new observation, and equal values
        fresh = CloudObservation(points=first.points, normals=first.normals, source=first.source)
        check(fresh)
        check(fresh)
        assert len(calls) == 10

    def test_an_observation_is_read_only_and_copies_the_callers_arrays(self):
        pts, nrm = np.zeros((3, 2)), np.ones((3, 2))
        cloud = CloudObservation(points=pts, normals=nrm, source=CloudSource.RAY_CAST)
        for a in (cloud.points, cloud.normals):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 5.0
        pts[0, 0] = nrm[0, 0] = 7.0  # the caller's arrays stay its own, and writeable
        assert cloud.points[0, 0] == 0.0 and cloud.normals[0, 0] == 1.0

    def test_the_barrier_keeps_one_observation(self):
        arm = ORACLE_ARMS[3]
        rng = np.random.default_rng(71)
        barrier = NeuralBarrier(inference_net(3, "small", rng), arm, CbfHyper())
        env = oracle_world(rng)
        first = sample_surface_points(env, 16, rng)
        barrier.value_and_grad(sample_config(arm, rng), first, None)
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is not None  # held while it is the last one seen
        barrier.value_and_grad(sample_config(arm, rng), sample_surface_points(env, 16, rng), None)
        gc.collect()
        assert ref() is None

    def test_training_the_source_net_does_not_reach_the_barrier(self):
        arm = ORACLE_ARMS[3]
        rng = np.random.default_rng(72)
        net = inference_net(3, "default", rng)
        barrier = NeuralBarrier(net, arm, CbfHyper())
        oracle = rollout_oracle.OneSampleBarrier(copy.deepcopy(net), arm, CbfHyper())
        cloud = sample_surface_points(oracle_world(rng), 64, rng)
        qs = [sample_config(arm, rng) for _ in range(5)]
        before = [barrier.value_and_grad(q, cloud, None) for q in qs]
        params = net.all_params()
        grads = [(np.ones_like(w), np.ones_like(b)) for w, b in params]
        adam_step(params, grads, AdamState.for_params(params), lr=0.1)
        assert not np.array_equal(net.per_point.params[0][0], oracle.net.per_point.params[0][0])
        for q, got in zip(qs, before):
            assert_same_h_and_grad(barrier.value_and_grad(q, cloud, None), got)
            assert_same_h_and_grad(got, oracle.value_and_grad(q, cloud, None))
        for w, b in barrier.net.all_params():
            with pytest.raises(ValueError, match="read-only"):
                w += 1.0

    def test_the_barriers_copy_refuses_a_new_layer(self):
        barrier = NeuralBarrier(inference_net(3, "small", np.random.default_rng(73)),
                                ORACLE_ARMS[3], CbfHyper())
        for mlp in (barrier.net.per_point, barrier.net.trunk):
            w, b = mlp.params[0]
            with pytest.raises(TypeError):
                mlp.params[0] = (w.copy(), b.copy())

    @pytest.mark.parametrize("kind", ["state", "cloud"])
    def test_no_field_of_the_barriers_net_can_be_rebound(self, kind):
        # the net records are frozen, so neither a net nor a cloud net's
        # per-point or trunk net can be swapped under the kept link table
        # and cloud terms
        rng = np.random.default_rng(74)
        net = Mlp.create((4, 6, 1), rng) if kind == "state" else inference_net(3, "small", rng)
        barrier = NeuralBarrier(net, ORACLE_ARMS[3], CbfHyper())
        records = [barrier.net] if kind == "state" else [
            barrier.net, barrier.net.per_point, barrier.net.trunk]
        for record in records:
            for f in fields(record):
                with pytest.raises(FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))


class TestNonFiniteInput:
    """The cloud net checks its inputs, not records it never builds: a NaN
    or an inf in a cloud point, a normal or a configuration is rejected
    before any arithmetic runs on it, so no floating-point warning comes
    first."""

    @pytest.mark.parametrize("where", ["points", "normals", "q"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected(self, arm, where, value):
        rng = np.random.default_rng(11)
        net = PointSetEncoder.create(arm.n_links, per_point_widths=(7, 8, 6),
                                     trunk_widths=(9, 8, 1), rng=rng)
        hyper = CbfHyper()
        env, samples = random_world_samples(arm, rng, "cloud", 6)
        cloud = samples[0].observation
        fields = {"points": cloud.points.copy(), "normals": cloud.normals.copy()}
        q = samples[2].q.copy()
        if where == "q":
            q[1] = value
        else:
            fields[where][5, 1] = value
        bad = CloudObservation(source=cloud.source, **fields)
        samples[2] = LabeledSample(q=q, observation=bad, label=samples[2].label, env_id=0)
        prep = _prepare(samples, arm, hyper)
        # a barrier that has kept a finite cloud's terms: a bad cloud is a new
        # observation, and a bad q meets the kept cloud itself
        cached = NeuralBarrier(net, arm, hyper)
        kept = cached.value_and_grad(samples[0].q, cloud, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: NeuralBarrier(net, arm, hyper).value_and_grad(q, bad, None),
                         lambda: cached.value_and_grad(q, cloud if where == "q" else bad, None),
                         lambda: _forward_stencil(net, prep, arm),
                         lambda: _forward_stencil(net, prep.take(np.array([2, 4])), arm)):
                with pytest.raises(ValueError, match="non-finite network input"):
                    call()
        assert_same_h_and_grad(cached.value_and_grad(samples[0].q, cloud, None), kept)
