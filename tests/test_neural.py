"""Network library tests: forward against an independent re-implementation,
reverse mode against central finite differences, encoder invariances, Adam."""

import itertools
import math

import numpy as np
import pytest

from cbfsteer.environment import CloudObservation, CloudSource
from cbfsteer.jsonio import dump_json, load_json
from cbfsteer.kinematics import ArmModel, batch_link_frames, joint_positions
from cbfsteer.neural import (
    AdamState,
    CloudBlocks,
    Mlp,
    PointSetEncoder,
    adam_step,
    encoder_backward_batch,
    encoder_forward_batch,
    init_params,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
)
from encoder_oracle import stencil_records


def reference_forward(net, x):
    """Independent plain-Python re-implementation of the forward pass."""
    a = list(map(float, x))
    n_layers = len(net.params)
    for li, (w, b) in enumerate(net.params):
        z = [sum(w[o][i] * a[i] for i in range(len(a))) + b[o] for o in range(w.shape[0])]
        a = [math.tanh(v) for v in z] if li < n_layers - 1 else z
    return np.array(a)


def param_fd_grads(run, params, step=1e-5):
    """Central-difference gradients of a scalar function over (W, b) params."""
    grads = []
    for w, b in params:
        gw = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = run()
            w[idx] = orig - step
            down = run()
            w[idx] = orig
            gw[idx] = (up - down) / (2 * step)
        gb = np.zeros_like(b)
        for idx in np.ndindex(*b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = run()
            b[idx] = orig - step
            down = run()
            b[idx] = orig
            gb[idx] = (up - down) / (2 * step)
        grads.append((gw, gb))
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestMlpForward:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(0)
        params = Mlp.create((3, 5, 1), rng).params
        net = Mlp((3, 5, 1), [(np.zeros_like(w), np.zeros_like(b)) for w, b in params])
        y, _ = mlp_forward(net, np.array([[0.3, -1.0, 2.0]]))
        assert y[0, 0] == 0.0

    def test_single_linear_layer(self):
        rng = np.random.default_rng(1)
        net = Mlp.create((3, 2), rng)
        w, b = net.params[0]
        x = rng.normal(size=(5, 3))
        y, _ = mlp_forward(net, x)
        np.testing.assert_allclose(y, x @ w.T + b, atol=1e-15)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            widths = (4, 8, 6, 1)
            net = Mlp.create(widths, rng)
            x = rng.normal(size=4)
            y, _ = mlp_forward(net, x[None])
            np.testing.assert_allclose(y[0], reference_forward(net, x), atol=1e-12)

    def test_nonfinite_input_rejected(self):
        net = Mlp.create((2, 1), np.random.default_rng(3))
        with pytest.raises(ValueError):
            mlp_forward(net, np.array([[np.inf, 0.0]]))

    def test_width_mismatch_rejected(self):
        net = Mlp.create((2, 1), np.random.default_rng(3))
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros((1, 3)))

    def test_unbatched_input_rejected(self):
        net = Mlp.create((2, 1), np.random.default_rng(3))
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros(2))


class TestMlpBackward:
    def test_linear_input_grad_is_weight_row(self):
        rng = np.random.default_rng(4)
        net = Mlp.create((3, 1), rng)
        _, tape = mlp_forward(net, rng.normal(size=(2, 3)))
        _, input_grad = mlp_backward(tape, np.ones((2, 1)))
        np.testing.assert_allclose(input_grad, net.params[0][0][[0, 0]], atol=1e-15)

    def test_param_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        net = Mlp.create((3, 6, 5, 1), rng)
        x = rng.normal(size=(1, 3))
        _, tape = mlp_forward(net, x)
        grads, _ = mlp_backward(tape, np.ones((1, 1)))
        fd = param_fd_grads(lambda: float(mlp_forward(net, x)[0][0, 0]), net.params)
        assert max_rel_err(grads, fd) < 1e-4

    def test_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        net = Mlp.create((4, 7, 1), rng)
        x = rng.normal(size=4)
        _, tape = mlp_forward(net, x[None])
        _, (input_grad,) = mlp_backward(tape, np.ones((1, 1)))
        step = 1e-6
        for i in range(4):
            xp = x.copy()
            xp[i] += step
            xm = x.copy()
            xm[i] -= step
            fd = (mlp_forward(net, xp[None])[0][0, 0]
                  - mlp_forward(net, xm[None])[0][0, 0]) / (2 * step)
            assert input_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(7)
        net = Mlp.create((3, 4, 1), rng)
        _, tape = mlp_forward(net, rng.normal(size=(3, 3)))
        grads, input_grad = mlp_backward(tape, np.zeros((3, 1)))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)
        assert np.all(input_grad == 0)

    def test_batched_grads_sum_over_batch(self):
        rng = np.random.default_rng(8)
        net = Mlp.create((3, 5, 1), rng)
        xs = rng.normal(size=(4, 3))
        _, tape = mlp_forward(net, xs)
        grads, _ = mlp_backward(tape, np.ones((4, 1)))
        singles = []
        for x in xs:
            _, t = mlp_forward(net, x[None])
            g, _ = mlp_backward(t, np.ones((1, 1)))
            singles.append(g)
        for li in range(len(net.params)):
            np.testing.assert_allclose(
                grads[li][0], sum(s[li][0] for s in singles), atol=1e-12)


def random_cloud(rng, n_points):
    pts = rng.uniform(-1.5, 1.5, (n_points, 2))
    nrm = rng.normal(size=(n_points, 2))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return CloudObservation(points=pts, normals=nrm, source=CloudSource.SURFACE_SAMPLED)


def reference_point_records(arm, q, points, normals):
    """Cloud in every link frame, one rotation matrix per link: records
    (n_links * N, 4 + n_links), each [p_local, n_local, one_hot(link)]."""
    origins = joint_positions(arm, q)[0][:-1]
    angles = np.cumsum(np.asarray(q, dtype=float))
    n = origins.shape[0]
    recs = np.zeros((n, points.shape[0], 4 + n))
    for ell in range(n):
        # rotation by -angle maps world to link frame
        c, s = np.cos(angles[ell]), np.sin(angles[ell])
        rot = np.array([[c, s], [-s, c]])
        recs[ell, :, 0:2] = (points - origins[ell]) @ rot.T
        recs[ell, :, 2:4] = normals @ rot.T
        recs[ell, :, 4 + ell] = 1.0
    return recs.reshape(n * points.shape[0], 4 + n)


def encode(enc, q, cloud, arm):
    """Encoder value at one configuration for one cloud, through the batched
    pass the barrier uses, with one slot that pools one block per link: (h, tape)."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    origins, angles = batch_link_frames(arm, q[None])
    blocks = CloudBlocks(points=cloud.points[None], normals=cloud.normals[None],
                         cloud=np.zeros(1, dtype=int), origins=origins, angles=angles,
                         links=np.arange(n), slot_blocks=np.arange(n)[None])
    h, tape = encoder_forward_batch(enc, q[None, :], blocks)
    return float(h[0]), tape


def wide_encoder(n_links, rng):
    """An encoder at the widths these tests were written with, per-point 32
    and 64 and trunk 64 and 64, wider than the config's."""
    return PointSetEncoder.create(n_links, (4 + n_links, 32, 64), (64 + n_links, 64, 64, 1), rng)


@pytest.fixture
def arm():
    return ArmModel()


class TestEncoder:
    def test_permutation_invariance_exhaustive(self, arm):
        rng = np.random.default_rng(9)
        enc = wide_encoder(3, rng)
        q = rng.uniform(-1, 1, 3)
        for n_points in (4, 8):
            cloud = random_cloud(rng, n_points)
            h0, _ = encode(enc, q, cloud, arm)
            values = set()
            for perm in itertools.permutations(range(n_points)):
                c2 = CloudObservation(points=cloud.points[list(perm)],
                                      normals=cloud.normals[list(perm)],
                                      source=cloud.source)
                h, _ = encode(enc, q, c2, arm)
                values.add(h)
            assert values == {h0}

    def test_duplicating_points_unchanged(self, arm):
        rng = np.random.default_rng(10)
        enc = wide_encoder(3, rng)
        q = rng.uniform(-1, 1, 3)
        cloud = random_cloud(rng, 12)
        doubled = CloudObservation(points=np.vstack([cloud.points, cloud.points]),
                                   normals=np.vstack([cloud.normals, cloud.normals]),
                                   source=cloud.source)
        h1, _ = encode(enc, q, cloud, arm)
        h2, _ = encode(enc, q, doubled, arm)
        assert h1 == h2

    def test_world_translation_invariance(self):
        # translating obstacles, cloud and arm base together leaves the
        # link-frame records, hence the output, unchanged
        rng = np.random.default_rng(11)
        enc = wide_encoder(3, rng)
        q = rng.uniform(-1, 1, 3)
        cloud = random_cloud(rng, 16)
        shift = np.array([0.7, -1.3])
        arm0 = ArmModel()
        arm1 = ArmModel(base_position=tuple(shift))
        moved = CloudObservation(points=cloud.points + shift, normals=cloud.normals,
                                 source=cloud.source)
        h0, _ = encode(enc, q, cloud, arm0)
        h1, _ = encode(enc, q, moved, arm1)
        assert h0 == pytest.approx(h1, abs=1e-12)

    def test_empty_cloud_rejected(self, arm):
        with pytest.raises(ValueError, match="at least one point"):
            CloudObservation(points=np.empty((0, 2)), normals=np.empty((0, 2)),
                             source=CloudSource.SURFACE_SAMPLED)

    def test_record_layout(self, arm):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 5)
        recs = stencil_records(arm, np.zeros((1, 1, 3)), cloud.points[None],
                               cloud.normals[None])[0, 0]
        assert recs.shape == (15, 7)
        # at q=0 link frames are axis-aligned; link 0 origin is the base
        np.testing.assert_allclose(recs[:5, 0:2], cloud.points, atol=1e-12)
        np.testing.assert_allclose(recs[:5, 2:4], cloud.normals, atol=1e-12)
        assert np.all(recs[:5, 4] == 1.0)
        # link 1 records are shifted by its origin (0.5, 0)
        np.testing.assert_allclose(recs[5:10, 0], cloud.points[:, 0] - 0.5, atol=1e-12)

    def test_records_match_per_link_rotation(self, arm):
        rng = np.random.default_rng(19)
        qs = rng.uniform(arm.lower, arm.upper, (4, 5, 3))
        clouds = [random_cloud(rng, 7) for _ in range(4)]
        recs = stencil_records(arm, qs, np.stack([c.points for c in clouds]),
                               np.stack([c.normals for c in clouds]))
        for b, cloud in enumerate(clouds):
            for s_ in range(5):
                np.testing.assert_allclose(
                    recs[b, s_], reference_point_records(arm, qs[b, s_], cloud.points,
                                                         cloud.normals), atol=1e-12)

    def test_encoder_param_grads_match_finite_differences(self, arm):
        rng = np.random.default_rng(14)
        enc = PointSetEncoder.create(3, per_point_widths=(7, 6, 5), trunk_widths=(8, 6, 1),
                                     rng=rng)
        q = rng.uniform(-1, 1, 3)
        cloud = random_cloud(rng, 6)

        def run():
            return encode(enc, q, cloud, arm)[0]

        _, tape = encode(enc, q, cloud, arm)
        grads, _ = encoder_backward_batch(tape, np.ones(1))
        fd = param_fd_grads(run, enc.all_params())
        assert max_rel_err(grads, fd) < 1e-4


class TestAdam:
    def test_zero_grads_keep_params(self):
        rng = np.random.default_rng(15)
        params = init_params((3, 4, 1), rng)
        before = [(w.copy(), b.copy()) for w, b in params]
        state = AdamState.for_params(params)
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
        adam_step(params, zero, state, lr=0.1)
        for (w, b), (w0, b0) in zip(params, before):
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(b, b0)
        assert state.step == 1

    def test_descent_direction_on_quadratic(self):
        w = np.array([[1.0]])
        params = [(w, np.zeros(1))]
        state = AdamState.for_params(params)
        adam_step(params, [(2 * w.copy(), np.zeros(1))], state, lr=0.1)
        assert params[0][0][0, 0] < 1.0

    def test_converges_on_convex_quadratic(self):
        # minimize (w - 3)^2
        params = [(np.array([[10.0]]), np.zeros(1))]
        state = AdamState.for_params(params)
        for _ in range(3000):
            g = 2 * (params[0][0] - 3.0)
            adam_step(params, [(g, np.zeros(1))], state, lr=0.01)
        assert abs(params[0][0][0, 0] - 3.0) < 1e-3

    def test_nonfinite_grads_rejected(self):
        params = [(np.ones((1, 1)), np.zeros(1))]
        state = AdamState.for_params(params)
        with pytest.raises(FloatingPointError):
            adam_step(params, [(np.array([[np.nan]]), np.zeros(1))], state, 1e-3)


class TestInit:
    def test_determinism(self):
        p1 = init_params((4, 8, 1), np.random.default_rng(7))
        p2 = init_params((4, 8, 1), np.random.default_rng(7))
        for (w1, b1), (w2, b2) in zip(p1, p2):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_bounds(self):
        params = init_params((10, 20, 3), np.random.default_rng(8))
        for w_in, w_out, (w, _) in zip((10, 20), (20, 3), params):
            bound = np.sqrt(6.0 / (w_in + w_out))
            assert np.all(np.abs(w) <= bound)

    def test_mean_near_zero(self):
        rng = np.random.default_rng(9)
        params = init_params((100, 100, 1), rng)
        w = params[0][0]
        bound = np.sqrt(6.0 / 200)
        sigma = bound / np.sqrt(3.0) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma


class TestCheckpoint:
    def test_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        net = Mlp.create((4, 8, 1), rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "state", net, {"gamma": 0.05})
        variant, net2, hyper = load_checkpoint(path)
        assert variant == "state"
        assert hyper == {"gamma": 0.05}
        assert net2.layer_widths == net.layer_widths
        for (w1, b1), (w2, b2) in zip(net.params, net2.params):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    def test_cloud_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        enc = wide_encoder(3, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "cloud", enc, {})
        variant, enc2, _ = load_checkpoint(path)
        assert variant == "cloud"
        assert enc2.n_links == 3
        for (w1, b1), (w2, b2) in zip(enc.all_params(), enc2.all_params()):
            np.testing.assert_array_equal(w1, w2)

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(18)
        net = Mlp.create((3, 4, 1), rng)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(p1, "state", net, {})
        save_checkpoint(p2, "state", net, {})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("widths, message", [
        ([4, 32, 1], r"checkpoint has 3 layers where its shape_spec widths \[4, 32, 1\] give 2"),
        ([4, 64, 32, 1], r"checkpoint layer of shape \(64, 64\) \(bias \(64,\)\) where its "
                         r"shape_spec widths \[4, 64, 32, 1\] give \(32, 64\)"),
        ([5, 64, 64, 1], r"checkpoint layer of shape \(64, 4\)"),
    ])
    def test_a_state_spec_that_disagrees_with_its_layers_fails(self, tmp_path, widths, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "state", Mlp.create((4, 64, 64, 1), np.random.default_rng(19)), {})
        doc = load_json(path)
        doc["shape_spec"]["layer_widths"] = widths
        dump_json(path, doc)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        ({"n_links": 5}, r"per-point input width 7 must be 4 \+ n_links \(5\)"),
        ({"n_links": 5, "per_point_widths": [9, 32, 64], "trunk_widths": [69, 64, 64, 1]},
         r"checkpoint layer of shape \(32, 7\)"),
        ({"trunk_widths": [67, 64, 1]}, "checkpoint has 3 layers where its shape_spec widths "
                                        r"\[67, 64, 1\] give 2"),
    ])
    def test_a_cloud_spec_that_disagrees_with_its_layers_fails(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "cloud", wide_encoder(3, np.random.default_rng(20)), {})
        doc = load_json(path)
        doc["shape_spec"].update(edit)
        dump_json(path, doc)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
