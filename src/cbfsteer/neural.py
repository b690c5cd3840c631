"""Minimal differentiable function library: dense tanh MLP and a
permutation-invariant point-set encoder, with hand-written reverse mode for
both parameters and inputs, plus Adam.

Parameters are lists of (W, b) pairs; W has shape (out_width, in_width) and a
forward step computes y = x @ W.T + b. Flattened storage (checkpoints) is
row-major over that (out, in) layout, layer by layer, weights before bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsonio import dump_json, load_json

Params = list  # list of (W, b) tuples

CHECKPOINT_VERSION = 1


def init_params(layer_widths, rng: np.random.Generator) -> Params:
    """Glorot-uniform weights, zero biases; reproducible from the generator."""
    params = []
    for w_in, w_out in zip(layer_widths[:-1], layer_widths[1:]):
        scale = np.sqrt(6.0 / (w_in + w_out))
        w = rng.uniform(-scale, scale, size=(w_out, w_in))
        b = np.zeros(w_out)
        params.append((w, b))
    return params


@dataclass
class Mlp:
    """Fully-connected net: tanh on hidden layers, linear output."""

    layer_widths: tuple
    params: Params

    @classmethod
    def create(cls, layer_widths, rng: np.random.Generator) -> "Mlp":
        widths = tuple(int(w) for w in layer_widths)
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        return cls(layer_widths=widths, params=init_params(widths, rng))

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


@dataclass
class MlpTape:
    """Forward values needed for one reverse pass: input and per-layer activations."""

    net: Mlp
    x: np.ndarray  # (B, in)
    hidden: list  # post-tanh activations per hidden layer, each (B, w)
    y: np.ndarray  # (B, out)
    single: bool


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Evaluate the net on one input (in,) or a batch (B, in)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.shape[1] != net.in_width:
        raise ValueError(f"input width {x2.shape[1]}, expected {net.in_width}")
    if not np.all(np.isfinite(x2)):
        raise ValueError("non-finite network input")
    hidden = []
    a = x2
    n_layers = len(net.params)
    for i, (w, b) in enumerate(net.params):
        z = a @ w.T + b
        if i < n_layers - 1:
            a = np.tanh(z)
            hidden.append(a)
        else:
            a = z
    y = a
    tape = MlpTape(net=net, x=x2, hidden=hidden, y=y, single=single)
    return (y[0] if single else y), tape


def mlp_backward(tape: MlpTape, upstream=1.0) -> tuple[Params, np.ndarray]:
    """Reverse pass: (parameter gradients summed over the batch, input gradient)."""
    net = tape.net
    b_size, out_w = tape.y.shape
    delta = np.asarray(upstream, dtype=float)
    if delta.ndim == 0:
        delta = np.full((b_size, out_w), float(delta))
    elif delta.ndim == 1:
        delta = delta.reshape(b_size, out_w) if delta.size == b_size * out_w else np.broadcast_to(
            delta, (b_size, out_w)
        ).copy()
    param_grads: list = [None] * len(net.params)
    acts = [tape.x] + tape.hidden  # inputs to each layer
    for i in range(len(net.params) - 1, -1, -1):
        w, _ = net.params[i]
        a_in = acts[i]
        dw = delta.T @ a_in
        db = delta.sum(axis=0)
        param_grads[i] = (dw, db)
        delta = delta @ w
        if i > 0:
            delta = delta * (1.0 - tape.hidden[i - 1] ** 2)
    input_grad = delta[0] if tape.single else delta
    return param_grads, input_grad


@dataclass
class PointSetEncoder:
    """Shared per-point MLP, coordinate-wise max pool, trunk MLP on (feature, q).

    Per-point input: point and normal expressed in each link frame plus a
    one-hot link index, so one cloud yields n_links * N records.
    """

    per_point: Mlp
    trunk: Mlp
    n_links: int

    @classmethod
    def create(cls, n_links: int, per_point_widths=None, trunk_widths=None,
               rng: np.random.Generator = None) -> "PointSetEncoder":
        if per_point_widths is None:
            per_point_widths = (4 + n_links, 32, 64)
        if trunk_widths is None:
            trunk_widths = (per_point_widths[-1] + n_links, 64, 64, 1)
        if per_point_widths[0] != 4 + n_links:
            raise ValueError("per-point input width must be 4 + n_links")
        if trunk_widths[0] != per_point_widths[-1] + n_links:
            raise ValueError("trunk input width must be feature width + n_links")
        if trunk_widths[-1] != 1:
            raise ValueError("encoder output must be scalar")
        return cls(
            per_point=Mlp.create(per_point_widths, rng),
            trunk=Mlp.create(trunk_widths, rng),
            n_links=int(n_links),
        )

    @property
    def feature_width(self) -> int:
        return self.per_point.out_width

    def all_params(self) -> Params:
        return self.per_point.params + self.trunk.params


@dataclass
class EncoderTape:
    enc: PointSetEncoder
    point_tape: MlpTape
    trunk_tape: MlpTape
    argmax: np.ndarray  # (B, F) winning record index per pooled coordinate
    n_records: int


def encoder_forward_batch(enc: PointSetEncoder, qs: np.ndarray, records: np.ndarray
                          ) -> tuple[np.ndarray, EncoderTape]:
    """Batched encoder pass on prebuilt records.

    qs: (B, n); records: (B, M, 4+n) with M records per sample. Returns h (B,).
    """
    qs = np.asarray(qs, dtype=float)
    records = np.asarray(records, dtype=float)
    b, m, din = records.shape
    phi_flat, point_tape = mlp_forward(enc.per_point, records.reshape(b * m, din))
    f = enc.feature_width
    phi = phi_flat.reshape(b, m, f)
    argmax = np.argmax(phi, axis=1)  # (B, F)
    feature = np.take_along_axis(phi, argmax[:, None, :], axis=1)[:, 0, :]
    trunk_in = np.concatenate([feature, qs], axis=1)
    y, trunk_tape = mlp_forward(enc.trunk, trunk_in)
    tape = EncoderTape(
        enc=enc, point_tape=point_tape, trunk_tape=trunk_tape,
        argmax=argmax, n_records=m,
    )
    return y[:, 0], tape


def encoder_backward_batch(tape: EncoderTape, upstream) -> tuple[Params, np.ndarray, np.ndarray]:
    """Reverse pass for the batched encoder.

    upstream: scalar or (B,). Returns (parameter grads with the per-point
    layers first, record input grads (B, M, din), q input grads (B, n)).
    """
    enc = tape.enc
    b = tape.trunk_tape.y.shape[0]
    up = np.asarray(upstream, dtype=float)
    if up.ndim == 0:
        up = np.full(b, float(up))
    trunk_grads, trunk_in_grad = mlp_backward(tape.trunk_tape, up[:, None])
    f = enc.feature_width
    d_feature = trunk_in_grad[:, :f]
    d_q = trunk_in_grad[:, f:]
    m = tape.n_records
    d_phi = np.zeros((b, m, f))
    np.put_along_axis(d_phi, tape.argmax[:, None, :], d_feature[:, None, :], axis=1)
    point_grads, rec_grad_flat = mlp_backward(tape.point_tape, d_phi.reshape(b * m, f))
    rec_grads = rec_grad_flat.reshape(b, m, -1)
    return point_grads + trunk_grads, rec_grads, d_q


@dataclass
class AdamState:
    step: int
    m: Params
    v: Params

    @classmethod
    def for_params(cls, params: Params) -> "AdamState":
        return cls(
            step=0,
            m=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params],
            v=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params],
        )


def adam_step(params: Params, grads: Params, state: AdamState, lr: float = 1e-3,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8
              ) -> tuple[Params, AdamState]:
    """Standard Adam update; mutates the parameter arrays in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(params, grads, state.m, state.v):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise FloatingPointError("non-finite gradient in adam_step")
        for arr, g, m_arr, v_arr in ((w, gw, mw, vw), (b, gb, mb, vb)):
            m_arr *= b1
            m_arr += (1.0 - b1) * g
            v_arr *= b2
            v_arr += (1.0 - b2) * g * g
            arr -= lr * (m_arr / bc1) / (np.sqrt(v_arr / bc2) + eps)
    return params, state


def _params_to_flat(params: Params) -> list:
    flat = []
    for w, b in params:
        flat.append({"weight": w.reshape(-1).tolist(), "bias": b.tolist(),
                     "shape": list(w.shape)})
    return flat


def _params_from_flat(docs) -> Params:
    params = []
    for doc in docs:
        shape = tuple(doc["shape"])
        w = np.array(doc["weight"], dtype=float).reshape(shape)
        b = np.array(doc["bias"], dtype=float)
        params.append((w, b))
    return params


def save_checkpoint(path: str | Path, variant: str, net, hyper: dict) -> None:
    """Write a JSON checkpoint: {version, variant, shape_spec, layers, hyper}."""
    if variant == "state":
        shape_spec = {"layer_widths": list(net.layer_widths)}
        layers = _params_to_flat(net.params)
    elif variant == "cloud":
        shape_spec = {
            "per_point_widths": list(net.per_point.layer_widths),
            "trunk_widths": list(net.trunk.layer_widths),
            "n_links": net.n_links,
        }
        layers = _params_to_flat(net.per_point.params) + _params_to_flat(net.trunk.params)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    dump_json(path, {
        "version": CHECKPOINT_VERSION,
        "variant": variant,
        "shape_spec": shape_spec,
        "layers": layers,
        "hyper": hyper,
    })


def load_checkpoint(path: str | Path):
    """Read a checkpoint; returns (variant, net, hyper dict)."""
    doc = load_json(path)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    variant = doc["variant"]
    if variant == "state":
        widths = tuple(doc["shape_spec"]["layer_widths"])
        net = Mlp(layer_widths=widths, params=_params_from_flat(doc["layers"]))
    elif variant == "cloud":
        spec = doc["shape_spec"]
        pw = tuple(spec["per_point_widths"])
        tw = tuple(spec["trunk_widths"])
        params = _params_from_flat(doc["layers"])
        k = len(pw) - 1
        net = PointSetEncoder(
            per_point=Mlp(layer_widths=pw, params=params[:k]),
            trunk=Mlp(layer_widths=tw, params=params[k:]),
            n_links=int(spec["n_links"]),
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return variant, net, doc.get("hyper", {})
