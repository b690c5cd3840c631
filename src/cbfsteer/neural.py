"""Minimal differentiable function library: dense tanh MLP and a
permutation-invariant point-set encoder, with hand-written reverse mode for
both parameters and inputs, plus Adam.

Parameters are lists of (W, b) pairs; W has shape (out_width, in_width) and a
forward step computes y = x @ W.T + b. Flattened storage (checkpoints) is
row-major over that (out, in) layout, layer by layer, weights before bias.
"""

from __future__ import annotations

import math
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


class BatchWorkspace:
    """Arrays that outlive one batch. A cloud training run or an audit keeps
    one for all its batches, and every pass writes its products into them with
    `out=`: a freed multi-megabyte temporary goes back to the system, so the
    next batch would fault its pages in again. `get(key, shape)` views the
    array kept under `key` as `shape`; it grows to the largest size asked
    for. `out` is `get` for an `out=` argument. `sub(name)` is a workspace of
    its own, one per network of an encoder. What a pass returns lives until
    the workspace's next pass."""

    def __init__(self):
        self._arrays, self._subs = {}, {}

    def get(self, key, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(key)
        if buf is None or buf.size < size:
            # an array that grows takes an eighth to spare, so that batches a
            # little larger each time do not reallocate it again and again
            spare = 0 if buf is None else size // 8
            buf = self._arrays[key] = np.empty(size + spare, dtype)
        return buf[:size].reshape(shape)

    out = get

    def sub(self, name) -> "BatchWorkspace":
        return self._subs.setdefault(name, BatchWorkspace())


class _Fresh(BatchWorkspace):
    """No workspace: every array is a new one, as one-sample calls want. An
    `out=` argument is None, so numpy allocates the result itself, which
    costs less on a one-sample call's small arrays."""

    def get(self, key, shape, dtype=float) -> np.ndarray:
        return np.empty(shape, dtype)

    def out(self, key, shape, dtype=float) -> None:
        return None

    def sub(self, name) -> "BatchWorkspace":
        return self


FRESH = _Fresh()


@dataclass(frozen=True)
class Mlp:
    """Fully-connected net: tanh on hidden layers, linear output. Frozen: Adam
    writes its arrays in place, and no holder of a net sees a layer list replaced."""

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
    ws: BatchWorkspace = FRESH  # the reverse pass's arrays


def mlp_forward(net: Mlp, x: np.ndarray, ws: BatchWorkspace = FRESH, hidden_only: bool = False
                ) -> tuple[np.ndarray, MlpTape]:
    """Evaluate the net on a batch (B, in); returns (B, out). With
    `hidden_only` it stops before the output layer, which no reverse pass
    reads, and returns the last hidden activations (the input if none)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.in_width:
        raise ValueError(f"input shape {x.shape}, expected (B, {net.in_width})")
    if not np.isfinite(x).all():
        raise ValueError("non-finite network input")
    hidden = []
    a = x
    n_layers = len(net.params)
    for i, (w, b) in enumerate(net.params[:-1] if hidden_only else net.params):
        # one array per layer: the bias and tanh go into the product's storage
        a = np.matmul(a, w.T, out=ws.out(("a", i), (len(a), len(w))))
        a += b
        if i < n_layers - 1:
            np.tanh(a, out=a)
            hidden.append(a)
    return a, MlpTape(net=net, x=x, hidden=hidden, y=a, ws=ws)


def mlp_backward(tape: MlpTape, upstream: np.ndarray, input_grad: bool = True
                 ) -> tuple[Params, np.ndarray | None]:
    """Reverse pass from the output gradients `upstream` (B, out): (parameter
    gradients summed over the batch, input gradients (B, in), or None
    without `input_grad`)."""
    net, ws = tape.net, tape.ws
    delta = np.asarray(upstream, dtype=float)
    param_grads: list = [None] * len(net.params)
    acts = [tape.x] + tape.hidden  # inputs to each layer
    for i in range(len(net.params) - 1, -1, -1):
        w, b = net.params[i]
        dw = np.matmul(delta.T, acts[i], out=ws.out(("dw", i), w.shape))
        db = delta.sum(axis=0, out=ws.out(("db", i), b.shape))
        param_grads[i] = (dw, db)
        if i == 0 and not input_grad:
            return param_grads, None
        delta = np.matmul(delta, w, out=ws.out(("delta", i), (len(delta), w.shape[1])))
        if i > 0:
            # tanh' = 1 - a^2
            slope = np.square(acts[i], out=ws.out("slope", acts[i].shape))
            np.subtract(1.0, slope, out=slope)
            delta *= slope
    return param_grads, delta


@dataclass(frozen=True)
class PointSetEncoder:
    """Shared per-point MLP, coordinate-wise max pool, trunk MLP on (feature, q).

    Per-point input: point and normal expressed in a link frame plus a
    one-hot link index; a configuration sees its cloud in all n_links frames.
    """

    per_point: Mlp
    trunk: Mlp
    n_links: int

    @classmethod
    def create(cls, n_links: int, per_point_widths, trunk_widths,
               rng: np.random.Generator) -> "PointSetEncoder":
        """A new encoder; callers take the widths from the config (`config.cloud_widths`)."""
        _check_encoder_widths(n_links, per_point_widths, trunk_widths)
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


def _check_encoder_widths(n_links: int, per_point_widths, trunk_widths) -> None:
    if per_point_widths[0] != 4 + n_links:
        raise ValueError(f"per-point input width {per_point_widths[0]} must be 4 + n_links "
                         f"({n_links})")
    if trunk_widths[0] != per_point_widths[-1] + n_links:
        raise ValueError(f"trunk input width {trunk_widths[0]} must be feature width "
                         f"({per_point_widths[-1]}) + n_links ({n_links})")
    if trunk_widths[-1] != 1:
        raise ValueError("encoder output must be scalar")


@dataclass
class CloudBlocks:
    """The distinct clouds points, normals (C, N, 2) of a batch of B samples,
    each sample's row of them cloud (B,), and the link frames (blocks) each
    sample sees its cloud in: block k of sample b has origin origins[b, k]
    (B, K, 2), angle angles[b, k] (B, K), both C-contiguous, and link
    links[k] (K,). Slot s of a sample pools its blocks slot_blocks[s] (S, n),
    one per link."""

    points: np.ndarray
    normals: np.ndarray
    cloud: np.ndarray
    origins: np.ndarray
    angles: np.ndarray
    links: np.ndarray
    slot_blocks: np.ndarray

    def records(self, rows: np.ndarray, ws: BatchWorkspace = FRESH) -> np.ndarray:
        """The per-point records at flat rows (b*K + k)*N + point, (R, 4+n):
        the point and normal in block k's frame, Rᵀ(p - o) and Rᵀn, then the
        one-hot link."""
        block, point = np.divmod(rows, self.points.shape[1])
        cloud = self.cloud[block // self.links.size]
        c, s = (f(self.angles).reshape(-1)[block] for f in (np.cos, np.sin))
        rel = self.points[cloud, point] - self.origins.reshape(-1, 2)[block]
        recs = ws.get("records", (rows.size, 4 + self.slot_blocks.shape[1]))
        recs[:, 4:] = 0.0
        for j, v in enumerate((rel, self.normals[cloud, point])):
            recs[:, 2 * j] = c * v[:, 0] + s * v[:, 1]
            recs[:, 2 * j + 1] = -s * v[:, 0] + c * v[:, 1]
        recs[np.arange(rows.size), 4 + self.links[block % self.links.size]] = 1.0
        return recs


@dataclass
class EncoderTape:
    enc: PointSetEncoder
    blocks: CloudBlocks
    point: np.ndarray  # (B, K, F) the first point reaching each block's max, before the bias
    block_max: np.ndarray  # (B, K, F) each block's pooled features
    trunk_tape: MlpTape
    ws: BatchWorkspace = FRESH  # the reverse pass's arrays


# Points per block are padded to a multiple of this by repeating the last
# point: BLAS kernels sum a partial tile of a product's contiguous axis in
# another order, so without it a point's features would depend on how many
# points its cloud has.
POINT_ALIGN = 8

# J(x, y) = (-y, x) on [point, normal] rows: a quarter turn of each
_TURN, _TURN_SIGN = np.array([1, 0, 3, 2]), np.array([[-1.0], [1.0], [-1.0], [1.0]])


def cloud_terms(per_point: Mlp, points, normals, ws: BatchWorkspace = FRESH) -> np.ndarray:
    """The first layer's cloud terms of clouds points, normals (C, N, 2),
    feature-major (C, 2, H, N'): A = W_p p + W_n n and B = W_p Jp + W_n Jn
    with J a quarter turn, over the cloud's points padded to N' (`POINT_ALIGN`)."""
    cloud_in = np.concatenate([points, normals], axis=2)  # (C, N, 4)
    if not np.isfinite(cloud_in).all():
        raise ValueError("non-finite network input")
    pad = -cloud_in.shape[1] % POINT_ALIGN
    if pad:
        cloud_in = np.concatenate([cloud_in] + [cloud_in[:, -1:]] * pad, axis=1)
    cloud_in = cloud_in.transpose(0, 2, 1)
    both = ws.get("both", (len(cloud_in), 2) + cloud_in.shape[1:])  # [v; Jv]
    both[:, 0] = cloud_in
    np.multiply(cloud_in[:, _TURN], _TURN_SIGN, out=both[:, 1])
    w = per_point.params[0][0][:, :4]
    return np.matmul(w, both, out=ws.out("terms", both.shape[:2] + (len(w), both.shape[3])))


def link_table(per_point: Mlp, links: np.ndarray) -> np.ndarray:
    """The first layer's link term of each block (K, H), bias included unless the pool adds it."""
    w, bias = per_point.params[0]
    link = w[:, 4:][:, links].T
    return link + bias if len(per_point.params) > 1 else link


def _point_features(per_point: Mlp, pair: np.ndarray, link: np.ndarray, origins: np.ndarray,
                    angles: np.ndarray, ws: BatchWorkspace = FRESH) -> np.ndarray:
    """The per-point net's output on the blocks (B, K) of B samples,
    feature-major (B, K, F, N'), with no record built: the first layer is
    linear in a record [Rᵀ(p - o), Rᵀn, e_l], and Rᵀv = cos θ·v - sin θ·Jv,
    so block k (angle θ, origin o) gets cos θ·A - sin θ·B + g_k from its
    sample's cloud terms `pair` and g_k = `link`[k] - W_p Rᵀo. Every
    product is feature-major with its points contiguous, so a block's max
    pool runs along them. The output layer's bias is left out: adding a
    constant commutes with a max, since rounding is monotone, so the caller
    adds it to each block's pooled max instead of to every point. The
    features are the per-point net's layer arrays in the workspace `ws`,
    which the next call overwrites."""
    layers = per_point.params
    w = layers[0][0]
    turn = np.exp(angles * -1j)  # cos θ - i sin θ
    b, k = turn.shape
    n_pts = pair.shape[3]
    rot = turn.view(float).reshape(b, k, 2)
    z = np.matmul(rot, pair.reshape(b, 2, -1), out=ws.out(("a", 0), (b, k, len(w) * n_pts)))
    z = z.reshape(b, k, len(w), n_pts)
    # Rᵀo = (cos θ - i sin θ)(o_x + i o_y)
    local = (turn * origins.view(complex)[..., 0]).view(float).reshape(b, k, 2)
    z += (link - local @ w[:, :2].T)[..., None]
    for i in range(1, len(layers)):
        w, bias = layers[i]
        z = np.matmul(w, np.tanh(z, out=z), out=ws.out(("a", i), (b, k, len(w), n_pts)))
        if i + 1 < len(layers):
            z += bias[:, None]
    return z


# Samples per per-point pass; its arrays, a few MB, serve every chunk.
CHUNK_SAMPLES = 16


def encoder_forward_batch(enc: PointSetEncoder, qs: np.ndarray, blocks: CloudBlocks,
                          ws: BatchWorkspace = FRESH) -> tuple[np.ndarray, EncoderTape]:
    """Batched encoder pass on the blocks of B samples, S slots each; qs
    (B*S, n) are the slots' configurations. The per-point net runs on chunks
    of samples, and each block's max pool is one argmax along the contiguous
    points axis; slot s then pools its blocks `blocks.slot_blocks[s]`. Max
    is exact, so that equals one max over the slot's n*N records. Returns h
    (B*S,)."""
    b, k = blocks.angles.shape
    s = len(blocks.slot_blocks)
    f = enc.feature_width
    terms = cloud_terms(enc.per_point, blocks.points, blocks.normals, ws)
    link = link_table(enc.per_point, blocks.links)
    point = ws.get("point", (b, k, f), np.intp)
    block_max = ws.get("block_max", (b, k, f))
    pws = ws.sub("per_point")
    for start in range(0, b, CHUNK_SAMPLES):
        part = slice(start, start + CHUNK_SAMPLES)
        pair = terms.take(blocks.cloud[part], axis=0, mode="clip",
                          out=pws.out("pair", blocks.cloud[part].shape + terms.shape[1:]))
        phi = _point_features(enc.per_point, pair, link, blocks.origins[part],
                              blocks.angles[part], pws)
        phi.argmax(axis=3, out=point[part])
        phi = phi.reshape(-1, phi.shape[3])
        block_max[part] = phi[np.arange(len(phi)), point[part].reshape(-1)].reshape(-1, k, f)
    block_max += enc.per_point.params[-1][1]
    # the trunk's input: each slot's pooled features (B, S, F), then its q
    trunk_in = ws.get("trunk_in", (b * s, f + qs.shape[1]))
    slot_max = _slot_max(block_max, blocks.slot_blocks, ws)
    slot_max.max(axis=2, out=trunk_in.reshape(b, s, -1)[..., :f])
    trunk_in[:, f:] = qs
    y, trunk_tape = mlp_forward(enc.trunk, trunk_in, ws.sub("trunk"))
    return y[:, 0], EncoderTape(enc=enc, blocks=blocks, point=point, block_max=block_max,
                                trunk_tape=trunk_tape, ws=ws)


def encoder_forward_one(enc: PointSetEncoder, terms: np.ndarray, link: np.ndarray,
                        slot_blocks: np.ndarray, origins: np.ndarray, angles: np.ndarray,
                        qs: np.ndarray) -> np.ndarray:
    """`encoder_forward_batch` on one sample, with no encoder tape or workspace and each
    product that pass's shape, so h (S,) is equal bit for bit: from the cloud's
    `cloud_terms`, the blocks' `link_table`, slots and frames (1, K, 2), (1, K)."""
    phi = _point_features(enc.per_point, terms, link, origins, angles)
    phi = phi.reshape(-1, phi.shape[3])
    block_max = phi[np.arange(len(phi)), phi.argmax(axis=1)].reshape(len(link), -1)
    block_max += enc.per_point.params[-1][1]
    trunk_in = np.concatenate([block_max[slot_blocks].max(axis=1), qs], axis=1)
    return mlp_forward(enc.trunk, trunk_in)[0][:, 0]


def _slot_max(block_max: np.ndarray, slot_blocks: np.ndarray, ws: BatchWorkspace) -> np.ndarray:
    """Each slot's blocks' pooled features (B, S, n, F)."""
    shape = block_max.shape[:1] + slot_blocks.shape + block_max.shape[2:]
    return block_max.take(slot_blocks, axis=1, out=ws.out("slot_max", shape), mode="clip")


def _winner_rows(tape: EncoderTape) -> np.ndarray:
    """The flat per-point row (b*K + k)*N + point of the record that wins
    each pooled coordinate of each slot (B, S, F), the first one on ties:
    the first point reaching its block's max, in the first link whose block
    reaches the slot's max."""
    b, k, f = tape.block_max.shape
    slot_blocks = tape.blocks.slot_blocks
    link = _slot_max(tape.block_max, slot_blocks, tape.ws).argmax(
        axis=2, out=tape.ws.out("link", (b, len(slot_blocks), f), np.intp))  # first on ties
    block = slot_blocks[np.arange(len(slot_blocks))[:, None], link]
    sample = np.arange(b)[:, None, None]
    point = tape.point[sample, block, np.arange(f)]
    return (sample * k + block) * tape.blocks.points.shape[1] + point


def _winner_upstream(tape: EncoderTape, d_feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-point reverse pass's input from the pooled-feature gradients
    d_feature (B*S, F): the distinct winning rows (U,), sorted, and their
    gradients (U, F). A row winning coordinate j for several slots gets the
    sum of theirs, in slot order; a row gets zero where it does not win.
    The gradients take the per-point net's output-layer array, which its
    rerun on the winning rows leaves alone."""
    f = d_feature.shape[1]
    winners, inverse = np.unique(_winner_rows(tape).reshape(-1), return_inverse=True)
    cells = (inverse.reshape(-1, f) * f + np.arange(f)).reshape(-1)
    # np.add.at adds in input order, so a row's slots sum in slot order
    out_layer = len(tape.enc.per_point.params) - 1
    delta = tape.ws.sub("per_point").get(("a", out_layer), (winners.size, f))
    delta.fill(0.0)
    np.add.at(delta.reshape(-1), cells, d_feature.reshape(-1))
    return winners, delta


def encoder_backward_batch(tape: EncoderTape, upstream) -> tuple[Params, np.ndarray]:
    """Reverse pass for the batched encoder from upstream (B*S,): (parameter
    grads, per-point layers first; q input grads (B*S, n)). A max pool
    passes each pooled coordinate's gradient to the one record that wins it,
    so the per-point net's hidden layers rerun on the records rebuilt at the
    winning rows, in the arrays of the forward pass's last chunk, which it
    has pooled."""
    f = tape.enc.feature_width
    trunk_grads, trunk_in_grad = mlp_backward(tape.trunk_tape, upstream[:, None])
    rows, delta = _winner_upstream(tape, trunk_in_grad[:, :f])
    ws = tape.ws.sub("per_point")
    _, point_tape = mlp_forward(tape.enc.per_point, tape.blocks.records(rows, ws), ws,
                                hidden_only=True)
    point_grads, _ = mlp_backward(point_tape, delta, input_grad=False)
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


def adam_step(params: Params, grads: Params, state: AdamState, lr: float
              ) -> tuple[Params, AdamState]:
    """Standard Adam update; mutates the parameter arrays in place."""
    b1, b2, eps = 0.9, 0.999, 1e-8
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


def _params_from_flat(docs, widths) -> Params:
    """The layers of a net of the given widths; ValueError if their number or
    a shape disagrees with the widths."""
    if len(docs) != len(widths) - 1:
        raise ValueError(f"checkpoint has {len(docs)} layers where its shape_spec widths "
                         f"{list(widths)} give {len(widths) - 1}")
    params = []
    for doc, w_in, w_out in zip(docs, widths[:-1], widths[1:]):
        w = np.array(doc["weight"], dtype=float).reshape(tuple(doc["shape"]))
        b = np.array(doc["bias"], dtype=float)
        if w.shape != (w_out, w_in) or b.shape != (w_out,):
            raise ValueError(f"checkpoint layer of shape {w.shape} (bias {b.shape}) where its "
                             f"shape_spec widths {list(widths)} give ({w_out}, {w_in})")
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
    """Read a checkpoint; returns (variant, net, hyper dict). Layers that
    disagree with the `shape_spec`, or a cloud spec whose input widths do not
    fit its `n_links`, raise ValueError."""
    doc = load_json(path)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    variant = doc["variant"]
    if variant == "state":
        widths = tuple(doc["shape_spec"]["layer_widths"])
        net = Mlp(layer_widths=widths, params=_params_from_flat(doc["layers"], widths))
    elif variant == "cloud":
        spec = doc["shape_spec"]
        pw = tuple(spec["per_point_widths"])
        tw = tuple(spec["trunk_widths"])
        n_links = int(spec["n_links"])
        _check_encoder_widths(n_links, pw, tw)
        k = len(pw) - 1
        net = PointSetEncoder(
            per_point=Mlp(layer_widths=pw, params=_params_from_flat(doc["layers"][:k], pw)),
            trunk=Mlp(layer_widths=tw, params=_params_from_flat(doc["layers"][k:], tw)),
            n_links=n_links,
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return variant, net, doc.get("hyper", {})
