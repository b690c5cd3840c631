"""Reference batch preparation for the tests: one batch at a time, from the
sample objects.

Each batch stacks one stencil per sample, takes the refreshed signed
distances of a state batch from its own environment-grouped queries, with
the stencil offsets written as `np.eye(n) * fd_step`, and copies every
sample's cloud. The package instead prepares a whole sample set once and
indexes it per batch; the tests hold `_prepare(samples).take(idx)` to this
code byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cbfsteer.environment import CloudObservation, SafetyLabel, signed_distance_batch


@dataclass
class Batch:
    safe_mask: np.ndarray
    unsafe_mask: np.ndarray
    x: np.ndarray | None = None  # state: (B, S, n+1)
    qs: np.ndarray | None = None  # cloud: (B, S, n)
    points: np.ndarray | None = None  # cloud: (B, N, 2), one cloud per sample
    normals: np.ndarray | None = None


def eye_stencil(q, fd_step) -> np.ndarray:
    """(n+1, n): q, then q + e_i * fd_step."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    out = np.tile(q, (n + 1, 1))
    out[1:] += np.eye(n) * fd_step
    return out


def stencil_distances(batch, arm, fd_step, envs) -> np.ndarray:
    """(B, n+1): the stored clearance, then the signed distance at each
    perturbed configuration, queried per environment."""
    n = arm.n_links
    out = np.empty((len(batch), n + 1))
    out[:, 0] = [s.observation for s in batch]
    by_env: dict[int, list[int]] = {}
    for i, s in enumerate(batch):
        by_env.setdefault(s.env_id, []).append(i)
    eye = np.eye(n) * fd_step
    for env_id, idxs in by_env.items():
        qs = np.stack([np.asarray(batch[i].q, float) for i in idxs])
        pert = (qs[:, None, :] + eye[None, :, :]).reshape(-1, n)
        d = signed_distance_batch(envs[env_id], arm, pert).reshape(len(idxs), n)
        out[np.array(idxs), 1:] = d
    return out


def prepare_batch(batch, arm, fd_step, envs=None) -> Batch:
    safe_mask = np.array([s.label is SafetyLabel.SAFE for s in batch])
    unsafe_mask = np.array([s.label is SafetyLabel.UNSAFE for s in batch])
    qs = np.stack([eye_stencil(s.q, fd_step) for s in batch])
    if not isinstance(batch[0].observation, CloudObservation):
        d = stencil_distances(batch, arm, fd_step, envs)
        return Batch(safe_mask, unsafe_mask, x=np.concatenate([qs, d[:, :, None]], axis=2))
    return Batch(safe_mask, unsafe_mask, qs=qs,
                 points=np.stack([s.observation.points for s in batch]),
                 normals=np.stack([s.observation.normals for s in batch]))
