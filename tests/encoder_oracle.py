"""Reference cloud-encoder code for the tests: the full-row stencil forward.

Every stencil slot sees its cloud in all n link frames, so a sample of S
slots and N points makes S*n*N records, built from the slot's own
configuration whether or not its frame moved. The per-point net runs on all
of them, each slot max-pools its n*N records with `np.argmax` (first index
on ties), and the reverse pass scatters the pooled gradient back through
that argmax. The MLP passes are the plain forms with one temporary per
operation.

The package builds no records in its forward pass: it folds each distinct
(slot, link) frame into the per-point net's first layer and runs the net
feature-major, block by block. Its reverse pass rebuilds the records at the
rows that win a pooled coordinate alone and reruns the per-point net there.
The sums therefore run in another order, and the tests hold the package to
this code at relative 1e-12 of the batch's largest reference magnitude:
stencil-slot h, grad h (that over the step), q gradients, the loss and its
components, and every parameter gradient. They stay exact where no sum is
reordered: the records rebuilt at the winning rows (`stencil_records`'
formula, in its order of operations), the winners against the first argmax
of the package's own per-point features, ties (duplicated points and
zero-weight features take the first record, as `np.argmax` here does), the
upstream each winning row receives, and the audit counts of a fixed net.
Trained parameters are held to a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cbfsteer.kinematics import ArmModel, batch_link_frames
from cbfsteer.neural import Mlp, MlpTape, PointSetEncoder


def stencil_records(arm: ArmModel, qs: np.ndarray, points: np.ndarray, normals: np.ndarray
                    ) -> np.ndarray:
    """Link-frame records for stencil batches.

    qs: (B, S, n) stencil configurations; points/normals: (B, N, 2) shared
    across a sample's stencil. Returns (B, S, n*N, 4+n), link-major.
    """
    b, s, n = qs.shape
    n_pts = points.shape[1]
    flat = qs.reshape(b * s, n)
    origins, angles = batch_link_frames(arm, flat)
    origins = origins.reshape(b, s, n, 2)
    angles = angles.reshape(b, s, n)
    cos = np.cos(angles)
    sin = np.sin(angles)
    recs = np.zeros((b, s, n, n_pts, 4 + n))
    pts_b = points[:, None, None, :, :]  # (B, 1, 1, N, 2)
    nrm_b = normals[:, None, None, :, :]
    rel = pts_b - origins[:, :, :, None, :]  # (B, S, n, N, 2)
    c = cos[:, :, :, None]
    sn = sin[:, :, :, None]
    recs[..., 0] = c * rel[..., 0] + sn * rel[..., 1]
    recs[..., 1] = -sn * rel[..., 0] + c * rel[..., 1]
    recs[..., 2] = c * nrm_b[..., 0] + sn * nrm_b[..., 1]
    recs[..., 3] = -sn * nrm_b[..., 0] + c * nrm_b[..., 1]
    for ell in range(n):
        recs[:, :, ell, :, 4 + ell] = 1.0
    return recs.reshape(b, s, n * n_pts, 4 + n)


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Batch forward (B, in), one temporary per operation."""
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")
    hidden = []
    a = x
    n_layers = len(net.params)
    for i, (w, b) in enumerate(net.params):
        z = a @ w.T + b
        if i < n_layers - 1:
            a = np.tanh(z)
            hidden.append(a)
        else:
            a = z
    return a, MlpTape(net=net, x=x, hidden=hidden, y=a)


def mlp_backward(tape: MlpTape, delta: np.ndarray) -> tuple[list, np.ndarray]:
    """Reverse pass from an upstream (B, out): (parameter grads, input grad)."""
    net = tape.net
    grads: list = [None] * len(net.params)
    acts = [tape.x] + tape.hidden
    for i in range(len(net.params) - 1, -1, -1):
        w, _ = net.params[i]
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        delta = delta @ w
        if i > 0:
            delta = delta * (1.0 - tape.hidden[i - 1] ** 2)
    return grads, delta


@dataclass
class FullTape:
    enc: PointSetEncoder
    point_tape: MlpTape
    trunk_tape: MlpTape
    argmax: np.ndarray  # (B, F) winning record index per pooled coordinate
    n_records: int


def encoder_forward(enc: PointSetEncoder, qs: np.ndarray, records: np.ndarray
                    ) -> tuple[np.ndarray, FullTape]:
    """qs: (B, n); records: (B, M, 4+n) with M records per sample. Returns h (B,)."""
    b, m, din = records.shape
    phi_flat, point_tape = mlp_forward(enc.per_point, records.reshape(b * m, din))
    f = enc.feature_width
    phi = phi_flat.reshape(b, m, f)
    argmax = np.argmax(phi, axis=1)  # (B, F)
    feature = np.take_along_axis(phi, argmax[:, None, :], axis=1)[:, 0, :]
    y, trunk_tape = mlp_forward(enc.trunk, np.concatenate([feature, qs], axis=1))
    return y[:, 0], FullTape(enc=enc, point_tape=point_tape, trunk_tape=trunk_tape,
                             argmax=argmax, n_records=m)


def pooled_upstream(tape: FullTape, upstream) -> tuple[list, np.ndarray, np.ndarray]:
    """Trunk reverse pass and the max pool's scatter. upstream: scalar or
    (B,). Returns (trunk parameter grads; per-record output grads (B, M, F),
    each pooled coordinate's gradient at its winning record and zero
    elsewhere; q grads (B, n))."""
    b = tape.trunk_tape.y.shape[0]
    up = np.broadcast_to(np.asarray(upstream, dtype=float), (b,))
    trunk_grads, trunk_in_grad = mlp_backward(tape.trunk_tape, up[:, None].copy())
    f = tape.enc.feature_width
    d_phi = np.zeros((b, tape.n_records, f))
    np.put_along_axis(d_phi, tape.argmax[:, None, :], trunk_in_grad[:, None, :f], axis=1)
    return trunk_grads, d_phi, trunk_in_grad[:, f:]


def encoder_backward(tape: FullTape, upstream) -> tuple[list, np.ndarray]:
    """upstream: scalar or (B,). Returns (parameter grads, per-point layers
    first; q grads (B, n)); the per-point pass runs on every record."""
    trunk_grads, d_phi, d_q = pooled_upstream(tape, upstream)
    point_grads, _ = mlp_backward(tape.point_tape, d_phi.reshape(-1, d_phi.shape[2]))
    return point_grads + trunk_grads, d_q


def forward_stencil(net: PointSetEncoder, prep, arm: ArmModel):
    """Cloud-net stencil values h (B, S) and the full-row tape, from a
    prepared batch (`cbf._Prepared`: each sample's cloud is the table row its
    cloud index names)."""
    recs = stencil_records(arm, prep.qs, prep.points[prep.cloud], prep.normals[prep.cloud])
    b, s, m, din = recs.shape
    h, tape = encoder_forward(net, prep.qs.reshape(b * s, -1), recs.reshape(b * s, m, din))
    return h.reshape(b, s), tape
