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


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Evaluate the net on a batch (B, in); returns (B, out)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.in_width:
        raise ValueError(f"input shape {x.shape}, expected (B, {net.in_width})")
    if not np.isfinite(x).all():
        raise ValueError("non-finite network input")
    hidden = []
    a = x
    n_layers = len(net.params)
    for i, (w, b) in enumerate(net.params):
        # one array per layer: the bias and tanh go into the product's storage
        a = a @ w.T
        a += b
        if i < n_layers - 1:
            np.tanh(a, out=a)
            hidden.append(a)
    return a, MlpTape(net=net, x=x, hidden=hidden, y=a)


def mlp_backward(tape: MlpTape, upstream: np.ndarray, rows=None) -> tuple[Params, np.ndarray]:
    """Reverse pass from the output gradients `upstream` (B, out): (parameter
    gradients summed over the batch, input gradients (B, in)).

    `rows` (optional) is an index array into the tape's rows: the pass then
    runs on those rows, in that order, exactly as on the tape of a forward
    pass over the gathered inputs. Each layer's activations are gathered when
    that layer is reached.
    """
    net = tape.net
    delta = np.asarray(upstream, dtype=float)
    param_grads: list = [None] * len(net.params)
    acts = [tape.x] + tape.hidden  # inputs to each layer
    for i in range(len(net.params) - 1, -1, -1):
        w, _ = net.params[i]
        a_in = acts[i] if rows is None else acts[i].take(rows, axis=0)
        dw = delta.T @ a_in
        db = delta.sum(axis=0)
        param_grads[i] = (dw, db)
        delta = delta @ w
        if i > 0:
            # tanh' = 1 - a^2; a gathered copy is overwritten, the tape is not
            slope = np.square(a_in, out=None if rows is None else a_in)
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return param_grads, delta


@dataclass
class PointSetEncoder:
    """Shared per-point MLP, coordinate-wise max pool, trunk MLP on (feature, q).

    Per-point input: point and normal expressed in a link frame plus a
    one-hot link index; a configuration sees its cloud in all n_links frames.
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
    point_tape: MlpTape  # per-point net on the block records, rows (B, N, K)
    trunk_tape: MlpTape
    block_max: np.ndarray  # (B, K, F) each block's pooled features
    slot_blocks: np.ndarray  # (S, n) the block of each slot's link


def encoder_forward_batch(enc: PointSetEncoder, qs: np.ndarray, records: np.ndarray,
                          slot_blocks: np.ndarray) -> tuple[np.ndarray, EncoderTape]:
    """Batched encoder pass on prebuilt block records.

    records: (B, N, K, 4+n), point-major: each of a sample's N points seen
    from K link frames (blocks). Slot s of a sample pools the n blocks
    `slot_blocks[s]` (S, n), one per link; qs (B*S, n) are the slots'
    configurations. Returns h (B*S,). The max pool runs over each block's
    points, then over a slot's blocks, so it equals one max over the slot's
    n*N records.
    """
    qs = np.asarray(qs, dtype=float)
    records = np.asarray(records, dtype=float)
    b, n_pts, k, din = records.shape
    phi, point_tape = mlp_forward(enc.per_point, records.reshape(b * n_pts * k, din))
    f = enc.feature_width
    block_max = phi.reshape(b, n_pts, k * f).max(axis=1).reshape(b, k, f)
    feature = block_max[:, slot_blocks].max(axis=2)  # (B, S, F)
    trunk_in = np.concatenate([feature.reshape(-1, f), qs], axis=1)
    y, trunk_tape = mlp_forward(enc.trunk, trunk_in)
    tape = EncoderTape(enc=enc, point_tape=point_tape, trunk_tape=trunk_tape,
                       block_max=block_max, slot_blocks=slot_blocks)
    return y[:, 0], tape


def _winner_rows(tape: EncoderTape) -> np.ndarray:
    """The block-tape row of the record that wins each pooled coordinate of
    each slot (B, S, F), the first one on ties: the first point reaching its
    block's max, in the first link whose block reaches the slot's max."""
    b, k, f = tape.block_max.shape
    phi = tape.point_tape.y.reshape(b, -1, k, f)
    first_point = np.argmax(phi == tape.block_max[:, None], axis=1)  # (B, K, F)
    link = np.argmax(tape.block_max[:, tape.slot_blocks], axis=2)  # (B, S, F), first on ties
    block = tape.slot_blocks[np.arange(len(tape.slot_blocks))[:, None], link]
    point = first_point[np.arange(b)[:, None, None], block, np.arange(f)]
    return (np.arange(b)[:, None, None] * phi.shape[1] + point) * k + block


def _winner_upstream(tape: EncoderTape, d_feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-point reverse pass's input from the pooled-feature gradients
    d_feature (B*S, F): the distinct winning rows (U,), sorted, and their
    gradients (U, F). A row winning coordinate j for several slots gets the
    sum of theirs, in slot order; a row gets zero where it does not win."""
    f = d_feature.shape[1]
    winners, inverse = np.unique(_winner_rows(tape).reshape(-1), return_inverse=True)
    cells = (inverse.reshape(-1, f) * f + np.arange(f)).reshape(-1)
    delta = np.bincount(cells, weights=d_feature.reshape(-1), minlength=winners.size * f)
    return winners, delta.reshape(-1, f)


def encoder_backward_batch(tape: EncoderTape, upstream) -> tuple[Params, np.ndarray]:
    """Reverse pass for the batched encoder.

    upstream: array (B*S,). Returns (parameter grads with the per-point
    layers first, q input grads (B*S, n)). A max pool passes each pooled
    coordinate's gradient to the one record that wins it, so the per-point
    pass runs on the winning block rows alone. Trunk and q grads are bit for
    bit those of a pass over every slot's n*N records; the per-point grads
    sum the same terms in another order, so they agree to rounding.
    """
    f = tape.enc.feature_width
    trunk_grads, trunk_in_grad = mlp_backward(tape.trunk_tape, upstream[:, None])
    rows, delta = _winner_upstream(tape, trunk_in_grad[:, :f])
    point_grads, _ = mlp_backward(tape.point_tape, delta, rows=rows)
    return point_grads + trunk_grads, trunk_in_grad[:, f:]


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
