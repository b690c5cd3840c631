"""Barrier-function machinery: dataset collection, barrier value and numerical
Lie derivatives, the three-term hinge loss (with the closed-form control
infimum over the action box), the training loop, constraint auditing, and
the hand-crafted signed-distance baseline.

Sign convention: h is negative on the safe side. Safe states need h <= -gamma,
unsafe states h > gamma, and everywhere a control must exist with
grad_h . u + alpha_h * h <= -eps (drift-free system, so the drift term drops).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .environment import (
    CloudObservation,
    EnvGenConfig,
    Environment,
    SafetyLabel,
    random_environment,
    safety_label,
    sample_free_config,
    sample_surface_points,
    signed_distance_batch,
)
from .jsonio import Record, dump_json, dump_jsonl, load_json, load_jsonl
from .kinematics import ArmModel, _read_only, batch_link_frames, hold, within
from .neural import (
    FRESH,
    BatchWorkspace,
    CloudBlocks,
    Mlp,
    adam_step,
    AdamState,
    cloud_terms,
    encoder_backward_batch,
    encoder_forward_batch,
    encoder_forward_one,
    link_table,
    mlp_backward,
    mlp_forward,
)


@dataclass(frozen=True)
class CbfHyper(Record):
    gamma: float = 0.05
    eps_margin: float = 0.02
    alpha_h: float = 1.0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 0.5)
    fd_step: float = 1e-3
    r_thres: float = 0.05

    def __post_init__(self):
        vals = (self.gamma, self.eps_margin, self.alpha_h, *self.loss_weights,
                self.fd_step, self.r_thres)
        if not all(0.0 < v < math.inf for v in vals):
            raise ValueError("all barrier hyperparameters must be positive and finite")


@dataclass(frozen=True)
class LabeledSample:
    """One labelled configuration. Collection and loading hand out read-only
    rows as `q`, so a dataset's kept stencil arrays cannot go stale."""

    q: np.ndarray
    observation: float | CloudObservation  # a state sample's clearance, a cloud sample's cloud
    label: SafetyLabel
    env_id: int


@dataclass(frozen=True)
class Dataset:
    """A labelled sample set. Its samples and environments are tuples, so
    the set cannot change under the stencil arrays `prepared` keeps."""

    kind: str  # "state" | "cloud"
    arm: ArmModel
    environments: tuple[Environment, ...]
    samples: tuple[LabeledSample, ...]
    r_thres: float
    # shared per-environment surface clouds (cloud datasets only)
    clouds: dict[int, CloudObservation] = field(default_factory=dict)
    _prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "environments", tuple(self.environments))
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def prepared(self, hyper: CbfHyper) -> "_Prepared":
        """The stencil arrays and label masks of every sample (`_prepare`),
        built once per `hyper.fd_step`, the one setting they depend on, and
        read-only, since training and every audit share them."""
        prep = self._prepared.get(hyper.fd_step)
        if prep is None:
            prep = _prepare(self.samples, self.arm, hyper, self.environments)
            for a in vars(prep).values():
                if a is not None:
                    a.flags.writeable = False
            self._prepared[hyper.fd_step] = prep
        return prep

    def save(self, path) -> None:
        """JSONL of samples plus a companion <stem>.envs.json with the
        environment table, arm, and any shared clouds."""
        path = Path(path)
        dump_json(path.with_suffix(".envs.json"), {
            "kind": self.kind,
            "arm": self.arm.to_json(),
            "r_thres": self.r_thres,
            "environments": [env.to_json() for env in self.environments],
            "clouds": {str(k): c.to_json() for k, c in self.clouds.items()},
        })

        def rows():
            for s in self.samples:
                if isinstance(s.observation, float):
                    obs = {"d": s.observation}
                elif s.env_id in self.clouds and s.observation is self.clouds[s.env_id]:
                    obs = {"cloud_env": s.env_id}
                else:
                    obs = {"cloud": s.observation.to_json()}
                yield {"q": np.asarray(s.q).tolist(), "label": s.label.value,
                       "env_id": s.env_id, "obs": obs}
        dump_jsonl(path, rows())

    @classmethod
    def load(cls, path) -> "Dataset":
        path = Path(path)
        meta = load_json(path.with_suffix(".envs.json"))
        envs = [Environment.from_json(e) for e in meta["environments"]]
        clouds = {int(k): CloudObservation.from_json(c) for k, c in meta.get("clouds", {}).items()}
        samples = []
        rows = load_jsonl(path)
        qs = np.array([row["q"] for row in rows], dtype=float)
        qs.flags.writeable = False
        for row, q in zip(rows, qs):
            obs_doc = row["obs"]
            if "d" in obs_doc:
                obs = float(obs_doc["d"])
            elif "cloud_env" in obs_doc:
                obs = clouds[int(obs_doc["cloud_env"])]
            else:
                obs = CloudObservation.from_json(obs_doc["cloud"])
            samples.append(LabeledSample(q=q, observation=obs,
                                         label=SafetyLabel(row["label"]),
                                         env_id=int(row["env_id"])))
        return cls(kind=meta["kind"], arm=ArmModel.from_json(meta["arm"]), environments=envs,
                   samples=samples, r_thres=float(meta["r_thres"]), clouds=clouds)


@dataclass
class TrainReport(Record):
    epochs: list = field(default_factory=list)  # per-epoch dicts
    wall_seconds: float = 0.0
    aborted: bool = False


@dataclass(frozen=True)
class DatasetCounts:
    rollout_trajs: int = 0
    uniform_samples: int = 0


def check_net_fits(net, arm: ArmModel) -> None:
    """Refuse a net built for an arm of another link count, naming both counts."""
    kind, n = ("state", net.in_width - 1) if isinstance(net, Mlp) else ("cloud", net.n_links)
    if n != arm.n_links:  # a state net reads (q, d), a cloud net one-hot codes links
        raise ValueError(f"the {kind} net is built for a {n}-link arm, "
                         f"not this {arm.n_links}-link one")


def check_collection_counts(counts: DatasetCounts, uniform_samples_per_env: int) -> None:
    """Reject counts a collection cannot use: a negative count, or fewer
    than one uniform sample per environment, with which the uniform part
    would never end."""
    if counts.rollout_trajs < 0 or counts.uniform_samples < 0:
        raise ValueError("data counts must be non-negative")
    if uniform_samples_per_env < 1:
        raise ValueError("data.uniform_samples_per_env must be >= 1")


def collect_dataset(
    arm: ArmModel,
    env_distribution: EnvGenConfig,
    counts: DatasetCounts,
    nominal_policy,
    rng: np.random.Generator,
    observation_kind: str = "state",
    *,
    r_thres: float,
    cloud_points: int,
    rollout_ticks: int,
    ctrl_hz: float,
    uniform_samples_per_env: int,
    r_goal: float,
) -> Dataset:
    """Pre-collect labeled training data.

    Part one rolls out the nominal goal-seeking policy between random
    collision-free start/goal pairs at the control rate (a fresh environment
    per trajectory); part two samples configurations uniformly in the joint
    limits. Every sample gets a safety label from the true signed distance
    (`environment.safety_label`, which rejects r_thres <= 0).
    """
    check_collection_counts(counts, uniform_samples_per_env)
    if observation_kind not in ("state", "cloud"):
        raise ValueError(f"unknown observation kind {observation_kind!r}")
    envs: list[Environment] = []
    clouds: dict[int, CloudObservation] = {}
    samples: list[LabeledSample] = []
    dt = 1.0 / ctrl_hz

    def new_env() -> int:
        env = random_environment(env_distribution, rng, base_position=arm.base_position)
        envs.append(env)
        env_id = len(envs) - 1
        if observation_kind == "cloud":
            clouds[env_id] = sample_surface_points(env, cloud_points, rng)
        return env_id

    def add_samples(env_id: int, qs: np.ndarray) -> None:
        ds = signed_distance_batch(envs[env_id], arm, qs)
        qs.flags.writeable = False
        for q, d in zip(qs, ds):
            obs = float(d) if observation_kind == "state" else clouds[env_id]
            samples.append(LabeledSample(q=q, observation=obs, label=safety_label(d, r_thres),
                                         env_id=env_id))

    for _ in range(counts.rollout_trajs):
        env_id = new_env()
        env = envs[env_id]
        q = sample_free_config(env, arm, rng)
        q_goal = sample_free_config(env, arm, rng)
        traj = [q]
        for _ in range(rollout_ticks - 1):
            if within(q, q_goal, r_goal):
                break
            u = nominal_policy.control(q, q_goal, arm.action_lower, arm.action_upper)
            q = hold(arm, q, u, 1, dt)[0]
            traj.append(q)
        add_samples(env_id, np.stack(traj))

    remaining = counts.uniform_samples
    while remaining > 0:
        env_id = new_env()
        take = min(uniform_samples_per_env, remaining)
        qs = rng.uniform(arm.lower, arm.upper, size=(take, arm.n_links))
        add_samples(env_id, qs)
        remaining -= take

    return Dataset(
        kind=observation_kind, arm=arm, environments=envs, samples=samples,
        r_thres=r_thres, clouds=clouds,
    )


def _stencil_configs(q: np.ndarray, fd_step: float) -> np.ndarray:
    """(..., n) -> (..., n+1, n): slot 0 is q, slot i is q with joint i-1
    advanced by fd_step. Every stencil in the package is built here."""
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    out = np.empty(q.shape[:-1] + (n + 1, n))
    rows = q[..., None, :]
    out[..., :1, :] = rows
    # slot i+1 is q + e_i*fd_step elementwise: q + 0*fd_step off the diagonal
    # (which turns -0.0 into 0.0) and q + fd_step on it
    out[..., 1:, :] = rows + 0.0 * fd_step
    flat = out.reshape(-1, (n + 1) * n)
    flat[:, n::n + 1] = flat[:, :n] + fd_step
    return out


@functools.cache
def _stencil_blocks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The link frames an n-link stencil computes, as blocks: stencil row j+1
    moves joint j only, so its links before j keep row 0's frames, and the
    n(n+3)/2 blocks are slot 0's n links, then links j..n-1 of slot j+1.
    Returns each block's frame index slot*n + link (K,), its link (K,), and
    the block holding each slot's link frame (n+1, n)."""
    slots = [0] * n + [j + 1 for j in range(n) for _ in range(j, n)]
    links = list(range(n)) + [ell for j in range(n) for ell in range(j, n)]
    table = np.tile(np.arange(n), (n + 1, 1))
    table[slots, links] = np.arange(len(links))
    blocks = (np.array(slots) * n + np.array(links), np.array(links), table)
    for a in blocks:
        a.flags.writeable = False  # shared by every call
    return blocks


@dataclass
class _Prepared:
    """Stencil arrays of a sample set, shared by loss, training and
    constraint evaluation; the label masks only where labels exist."""

    # state variant: stencil network inputs (B, S, n+1)
    x: np.ndarray | None = None
    # cloud variant: stencil configs (B, S, n), the distinct clouds (C, N, 2)
    # and each sample's index into them (B,)
    qs: np.ndarray | None = None
    points: np.ndarray | None = None
    normals: np.ndarray | None = None
    cloud: np.ndarray | None = None
    safe_mask: np.ndarray | None = None
    unsafe_mask: np.ndarray | None = None

    def take(self, idx) -> "_Prepared":
        """The samples at `idx` (index array or slice) and the cloud rows they use."""
        part = replace(self, **{k: getattr(self, k)[idx] for k in
                                ("x", "qs", "safe_mask", "unsafe_mask")
                                if getattr(self, k) is not None})
        if self.cloud is not None:
            used, part.cloud = np.unique(self.cloud[idx], return_inverse=True)
            part.points, part.normals = self.points[used], self.normals[used]
        return part


def stencil_distances(samples, arm: ArmModel, hyper: CbfHyper, envs) -> np.ndarray:
    """Stencil clearances of state samples: (B, n+1) with each sample's
    stored clearance in column 0 and signed distances at the perturbed
    configurations after it. Groups samples by environment so the geometric
    queries run batched."""
    if envs is None:
        raise ValueError("state samples need their environments")
    n = arm.n_links
    out = np.empty((len(samples), n + 1))
    out[:, 0] = [s.observation for s in samples]
    by_env: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_env.setdefault(s.env_id, []).append(i)
    for env_id, idxs in by_env.items():
        qs = np.array([samples[i].q for i in idxs], dtype=float)
        pert = _stencil_configs(qs, hyper.fd_step)[:, 1:].reshape(-1, n)
        out[idxs, 1:] = signed_distance_batch(envs[env_id], arm, pert).reshape(len(idxs), n)
    return out


def _prepare(samples, arm: ArmModel, hyper: CbfHyper, envs=None) -> _Prepared:
    """Stencil arrays and label masks of a whole sample set, built once for
    `_Prepared.take` to index. Cloud samples that share an observation
    object share one row of the cloud table."""
    labels = [s.label for s in samples]
    masks = {"safe_mask": np.array([lab is SafetyLabel.SAFE for lab in labels], dtype=bool),
             "unsafe_mask": np.array([lab is SafetyLabel.UNSAFE for lab in labels], dtype=bool)}
    q = np.array([s.q for s in samples], dtype=float).reshape(len(samples), arm.n_links)
    qs = _stencil_configs(q, hyper.fd_step)  # (B, S, n)
    if not samples or isinstance(samples[0].observation, float):
        d = stencil_distances(samples, arm, hyper, envs)
        return _Prepared(x=np.concatenate([qs, d[:, :, None]], axis=2), **masks)
    clouds = list({id(s.observation): s.observation for s in samples}.values())
    row = {id(c): i for i, c in enumerate(clouds)}
    return _Prepared(qs=qs, points=np.stack([c.points for c in clouds]),
                     normals=np.stack([c.normals for c in clouds]),
                     cloud=np.array([row[id(s.observation)] for s in samples]), **masks)


def _forward_stencil(net, prep: _Prepared, arm: ArmModel, ws: BatchWorkspace = FRESH):
    """Barrier values on all stencil slots: h (B, S) plus the tape. A cloud
    net's arrays live in the workspace `ws`. A state net allocates its own:
    a few hundred kB a batch, which the allocator keeps mapped, and its
    training ran a few percent slower through a workspace."""
    if isinstance(net, Mlp):
        b, s, d_in = prep.x.shape
        y, tape = mlp_forward(net, prep.x.reshape(b * s, d_in))
        return y[:, 0].reshape(b, s), tape
    b, s, n = prep.qs.shape
    frames, links, slot_blocks = _stencil_blocks(n)
    origins, angles = _stencil_frames(arm, prep.qs, frames)
    blocks = CloudBlocks(points=prep.points, normals=prep.normals, cloud=prep.cloud,
                         origins=origins, angles=angles, links=links, slot_blocks=slot_blocks)
    h, tape = encoder_forward_batch(net, prep.qs.reshape(b * s, n), blocks, ws)
    return h.reshape(b, s), tape


def _stencil_frames(arm: ArmModel, qs: np.ndarray, frames: np.ndarray):
    """Link frames of stencil configs qs (B, S, n) per block: origins (B, K, 2), angles (B, K)."""
    if not np.isfinite(qs).all():  # before the link frames take their cos and sin
        raise ValueError("non-finite network input")
    b, s, n = qs.shape
    origins, angles = batch_link_frames(arm, qs.reshape(b * s, n))
    return (origins.reshape(b, s * n, 2).take(frames, axis=1),
            angles.reshape(b, s * n).take(frames, axis=1))


def _condition_values(h: np.ndarray, arm: ArmModel, hyper: CbfHyper):
    """Per-sample pieces of the three barrier conditions.

    Returns (h0, grad (B, n), inf values (B,), argmin controls (B, n)).
    """
    h0 = h[:, 0]
    grad = (h[:, 1:] - h0[:, None]) / hyper.fd_step
    lo, hi = arm.action_lower, arm.action_upper
    argmin = np.where(grad > 0.0, lo[None, :], np.where(grad < 0.0, hi[None, :], lo[None, :]))
    inf_vals = np.einsum("bn,bn->b", grad, argmin)
    return h0, grad, inf_vals, argmin


def loss(net, prep: _Prepared, arm: ArmModel, hyper: CbfHyper, ws: BatchWorkspace = FRESH):
    """Three-term hinge loss on a prepared batch of labeled samples.

    term1 penalizes safe samples with h > -gamma, term2 unsafe samples with
    h <= gamma, term3 every sample whose best-case control cannot push the
    margined derivative condition below zero. Empty classes contribute zero.
    Returns (total, components dict, parameter grads); the grads live in
    the workspace `ws` until its next pass.
    """
    if not prep.safe_mask.size:
        raise ValueError("empty batch")
    h, tape = _forward_stencil(net, prep, arm, ws)
    b, s = h.shape
    h0, grad, inf_vals, argmin = _condition_values(h, arm, hyper)
    a1, a2, a3 = hyper.loss_weights
    n_safe = int(prep.safe_mask.sum())
    n_unsafe = int(prep.unsafe_mask.sum())

    safe_viol = np.where(prep.safe_mask, np.maximum(hyper.gamma + h0, 0.0), 0.0)
    unsafe_viol = np.where(prep.unsafe_mask, np.maximum(hyper.gamma - h0, 0.0), 0.0)
    z = hyper.eps_margin + inf_vals + hyper.alpha_h * h0
    deriv_viol = np.maximum(z, 0.0)

    term1 = a1 / n_safe * safe_viol.sum() if n_safe else 0.0
    term2 = a2 / n_unsafe * unsafe_viol.sum() if n_unsafe else 0.0
    term3 = a3 / b * deriv_viol.sum()
    components = {"safe": float(term1), "unsafe": float(term2), "deriv": float(term3)}
    total = float(term1 + term2 + term3)

    # Upstream weights per stencil slot. Term 3 flows through the base value
    # (alpha_h minus the stencil contributions folded back) and through each
    # stencil point via the argmin control; the argmin is held constant.
    up = np.zeros((b, s))
    if n_safe:
        up[:, 0] += np.where(prep.safe_mask & (safe_viol > 0.0), a1 / n_safe, 0.0)
    if n_unsafe:
        up[:, 0] -= np.where(prep.unsafe_mask & (unsafe_viol > 0.0), a2 / n_unsafe, 0.0)
    active3 = (z > 0.0).astype(float) * (a3 / b)
    stencil_w = argmin / hyper.fd_step  # (B, n): weight of each stencil slot's h
    up[:, 1:] += active3[:, None] * stencil_w
    up[:, 0] += active3 * (hyper.alpha_h - stencil_w.sum(axis=1))

    if isinstance(net, Mlp):
        grads, _ = mlp_backward(tape, up.reshape(b * s, 1), input_grad=False)
    else:
        grads, _ = encoder_backward_batch(tape, up.reshape(b * s))
    return total, components, grads


def _audit(net, prep: _Prepared, arm: ArmModel, hyper: CbfHyper, batch_size: int = 128,
           ws: BatchWorkspace | None = None) -> dict:
    """Satisfaction rates of the three barrier conditions on a prepared set,
    evaluated in slices of `batch_size` samples, whose passes share the
    workspace `ws` (a new one by default); the encoder runs its per-point
    net on chunks of samples whatever the slice size."""
    ws = ws or BatchWorkspace()
    n_total = prep.safe_mask.size
    ok_safe = ok_unsafe = ok_deriv = 0
    for start in range(0, n_total, batch_size):
        batch = prep.take(slice(start, start + batch_size))
        h = _forward_stencil(net, batch, arm, ws)[0]
        h0, _, inf_vals, _ = _condition_values(h, arm, hyper)
        ok_safe += int((batch.safe_mask & (h0 <= -hyper.gamma)).sum())
        ok_unsafe += int((batch.unsafe_mask & (h0 > hyper.gamma)).sum())
        ok_deriv += int((hyper.eps_margin + inf_vals + hyper.alpha_h * h0 <= 0.0).sum())
    n_safe = int(prep.safe_mask.sum())
    n_unsafe = int(prep.unsafe_mask.sum())
    return {
        "safe_rate": ok_safe / n_safe if n_safe else 1.0,
        "unsafe_rate": ok_unsafe / n_unsafe if n_unsafe else 1.0,
        "deriv_rate": ok_deriv / n_total if n_total else 1.0,
        "n_safe": n_safe,
        "n_unsafe": n_unsafe,
        "n_total": n_total,
    }


def evaluate_constraints(net, dataset: Dataset, hyper: CbfHyper) -> dict:
    """Empirical satisfaction rates of the three barrier conditions on a dataset."""
    check_net_fits(net, dataset.arm)
    return _audit(net, dataset.prepared(hyper), dataset.arm, hyper)


@dataclass(frozen=True)
class TrainSchedule(Record):
    epochs: int = 60
    batch_size: int = 256
    lr: float = 2e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("train epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("train batch_size must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("train lr must be positive and finite")


def train(dataset: Dataset, net_init, hyper: CbfHyper, schedule: TrainSchedule,
          rng: np.random.Generator):
    """Mini-batch Adam on the hinge loss with per-epoch validation auditing.

    The generator splits the dataset 90/10 into training and validation
    samples. Every batch and the validation split index the dataset's
    stencil arrays (`Dataset.prepared`), and all their passes share one
    workspace. Divergence aborts with the report collected so far.
    """
    check_net_fits(net_init, dataset.arm)
    t0 = time.perf_counter()
    report = TrainReport()
    net = net_init
    if schedule.epochs == 0 or not dataset.samples:
        report.wall_seconds = time.perf_counter() - t0
        return net, report

    n_total = len(dataset.samples)
    perm = rng.permutation(n_total)
    n_val = max(1, n_total // 10) if n_total > 1 else 0
    train_idx = perm[n_val:]
    data = dataset.prepared(hyper)
    val = data.take(perm[:n_val])
    params = net.params if isinstance(net, Mlp) else net.all_params()
    state = AdamState.for_params(params)
    ws = BatchWorkspace()  # every batch's and audit's arrays

    for epoch in range(schedule.epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        epoch_comps = {"safe": 0.0, "unsafe": 0.0, "deriv": 0.0}
        n_seen = 0
        for start in range(0, len(order), schedule.batch_size):
            idx = train_idx[order[start:start + schedule.batch_size]]
            total, comps, grads = loss(net, data.take(idx), dataset.arm, hyper, ws=ws)
            if not np.isfinite(total):
                report.aborted = True
                report.wall_seconds = time.perf_counter() - t0
                return net, report
            adam_step(params, grads, state, schedule.lr)
            w = len(idx)
            epoch_loss += total * w
            for k in epoch_comps:
                epoch_comps[k] += comps[k] * w
            n_seen += w
        rates = _audit(net, val, dataset.arm, hyper, ws=ws)
        report.epochs.append({
            "epoch": epoch,
            "loss": epoch_loss / max(n_seen, 1),
            "loss_safe": epoch_comps["safe"] / max(n_seen, 1),
            "loss_unsafe": epoch_comps["unsafe"] / max(n_seen, 1),
            "loss_deriv": epoch_comps["deriv"] / max(n_seen, 1),
            "val_safe_rate": rates["safe_rate"],
            "val_unsafe_rate": rates["unsafe_rate"],
            "val_deriv_rate": rates["deriv_rate"],
        })
    report.wall_seconds = time.perf_counter() - t0
    return net, report


@dataclass(frozen=True, eq=False)
class NeuralBarrier:
    """A trained net and its hyper block, for controllers and planners; equal
    only to itself, since a net's parameter arrays compare elementwise."""

    net: object
    arm: ArmModel
    hyper: CbfHyper
    _blocks: tuple = field(default=(), init=False, repr=False)  # a cloud net's per-net constants
    _seen: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        check_net_fits(self.net, self.arm)
        if not isinstance(self.net, Mlp):  # a read-only copy, out of a training step's reach
            def frozen(mlp):  # no layer is replaced or written
                return replace(mlp, params=tuple((_read_only(np.array(w)), _read_only(np.array(b)))
                                                 for w, b in mlp.params))
            self.__dict__.update(net=replace(self.net, per_point=frozen(self.net.per_point),
                                             trunk=frozen(self.net.trunk)))
            frames, links, slots = _stencil_blocks(self.arm.n_links)
            self.__dict__.update(_blocks=(link_table(self.net.per_point, links), frames, slots))

    @property
    def kind(self) -> str:
        return "state" if isinstance(self.net, Mlp) else "cloud"

    def value_and_grad(self, q, observation, env) -> tuple[float, np.ndarray, float]:
        """Barrier value, forward-difference q-gradient on a one-sample
        stencil, and the clearance read at q: -inf for a cloud net, which reads
        none. A state net reads the world's signed distance at every
        stencil configuration, as the hand-crafted barrier does, and runs
        `mlp_forward` on the stencil's rows, the array training builds for the
        sample; BLAS may sum its small products in another order than a
        batch's (OpenBLAS does for the default 64-wide state net). A cloud net
        holds its observed cloud fixed and runs `encoder_forward_one`, equal bit
        for bit to the training pass on a one-sample batch. It keeps the last
        observation it saw, keyed by that object, which it holds, with its
        `cloud_terms`; they cannot go stale, as an observation's arrays and the
        barrier's copy of the net (frozen records, layers in tuples) are read-only."""
        qs = _stencil_configs(q, self.hyper.fd_step)
        if isinstance(self.net, Mlp):
            if env is None:
                raise ValueError("a state barrier needs the environment")
            ds = signed_distance_batch(env, self.arm, qs)
            h = mlp_forward(self.net, np.concatenate([qs, ds[:, None]], axis=1))[0][:, 0]
            d = float(ds[0])
        else:
            if observation is None:
                raise ValueError("a cloud barrier needs its observed cloud")
            link, frames, slots = self._blocks
            origins, angles = _stencil_frames(self.arm, qs[None], frames)
            if self._seen[0] is not observation:
                self.__dict__.update(_seen=(observation, cloud_terms(
                    self.net.per_point, observation.points[None], observation.normals[None])))
            h = encoder_forward_one(self.net, self._seen[1], link, slots, origins, angles, qs)
            d = -math.inf
        return float(h[0]), (h[1:] - h[0]) / self.hyper.fd_step, d


@dataclass(frozen=True)
class HandcraftedBarrier:
    """Signed-distance baseline h = margin - d(q), with an inflated clearance
    margin; the gradient by the neural barriers' forward-difference rule and
    the class-K gain come from `hyper`."""

    arm: ArmModel
    margin: float = 0.15
    hyper: CbfHyper = CbfHyper()
    kind = "handcrafted"

    def __post_init__(self):
        if not 0.0 <= self.margin < math.inf:
            raise ValueError("hand barrier margin must be non-negative and finite")
        if self.margin >= self.arm.clearance_cap:
            raise ValueError(f"hand barrier margin {self.margin} is not below the arm's "
                             f"clearance cap {self.arm.clearance_cap}, so h < 0 nowhere")

    def value_and_grad(self, q, observation, env) -> tuple[float, np.ndarray, float]:
        """h, its forward-difference gradient and the clearance d read at q."""
        ds = signed_distance_batch(env, self.arm, _stencil_configs(q, self.hyper.fd_step))
        return self.margin - ds[0], -(ds[1:] - ds[0]) / self.hyper.fd_step, float(ds[0])
