"""Reference clearance and ray-cast kernels for the tests.

The clearance kernel is the segment-by-segment composition that
`signed_distance_batch` used before the fused joint-to-link pass: link
frames, then per-link obstacle distances with a Liang-Barsky overlap test and
a scalar interior-depth call per overlapping (link, rectangle) pair, then one
paired segment-distance call per non-adjacent self pair.

`point_segment_distance` is the closed-form distance from points to one
segment, the tests' building block for hand-made expectations.

The ray kernels are the pairwise forms that `ray_cast_scan` used before it
picked each ray's nearest hit first: every (ray, obstacle) pair gets its hit
parameter and its outward normal.

They are slow and simple, and the property tests hold the fast kernels to
them.
"""

from __future__ import annotations

import numpy as np

from cbfsteer import geometry
from cbfsteer.environment import Environment
from cbfsteer.kinematics import ArmModel, joint_positions

_EPS = 1e-12


def point_segment_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from points (..., 2) to the segment [a, b]."""
    points = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(d @ d)
    if dd < _EPS:
        return np.linalg.norm(points - a, axis=-1)
    t = np.clip(((points - a) @ d) / dd, 0.0, 1.0)
    closest = a + t[..., None] * d
    return np.linalg.norm(points - closest, axis=-1)


def real_chain_joint_positions(arm: ArmModel, q: np.ndarray) -> np.ndarray:
    """World positions of the base and every joint/tip of one configuration,
    (n+1, 2), summed link by link in real arithmetic."""
    angles = np.cumsum(q)
    steps = np.array(arm.link_lengths)[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)
    pts = np.empty((arm.n_links + 1, 2))
    pts[0] = arm.base_position
    np.cumsum(steps, axis=0, out=pts[1:])
    pts[1:] += pts[0]
    return pts


def rect_edge_arrays(centers: np.ndarray, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner-to-corner edges of K rectangles as (starts (4K, 2), ends (4K, 2))."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    halves = np.asarray(halves, dtype=float).reshape(-1, 2)
    hx = halves[:, 0]
    hy = halves[:, 1]
    corners = np.stack([
        centers + np.stack([-hx, -hy], axis=1),
        centers + np.stack([hx, -hy], axis=1),
        centers + np.stack([hx, hy], axis=1),
        centers + np.stack([-hx, hy], axis=1),
    ], axis=1)  # (K, 4, 2)
    return corners.reshape(-1, 2), np.roll(corners, -1, axis=1).reshape(-1, 2)


def capsule_world_min(seg_a, seg_b, circle_c, circle_r, rect_c, rect_h, edge_s, edge_e):
    """Min distance from R segments to all obstacles (before radius offsets), (R,).

    Circles give (distance - radius); rectangles give edge/corner distances for
    disjoint pairs and the exact interior depth for overlapping ones.
    """
    ax = seg_a[:, 0]
    ay = seg_a[:, 1]
    dx = seg_b[:, 0] - ax
    dy = seg_b[:, 1] - ay
    r = ax.shape[0]
    best = np.full(r, np.inf)

    if circle_c.shape[0]:
        dd = np.maximum(dx * dx + dy * dy, _EPS)
        relx = circle_c[None, :, 0] - ax[:, None]
        rely = circle_c[None, :, 1] - ay[:, None]
        t = (relx * dx[:, None] + rely * dy[:, None]) / dd[:, None]
        np.clip(t, 0.0, 1.0, out=t)
        gx = relx - t * dx[:, None]
        gy = rely - t * dy[:, None]
        dist = np.sqrt(gx * gx + gy * gy) - circle_r[None, :]
        best = np.minimum(best, dist.min(axis=1))

    k = rect_c.shape[0]
    if k:
        sx = edge_s[:, 0][None, :]
        sy = edge_s[:, 1][None, :]
        exx = edge_e[:, 0][None, :]
        eyy = edge_e[:, 1][None, :]
        edx = exx - sx
        edy = eyy - sy
        edd = np.maximum(edx * edx + edy * edy, _EPS)

        def p2e(px, py):
            t = ((px - sx) * edx + (py - sy) * edy) / edd
            np.clip(t, 0.0, 1.0, out=t)
            cx = sx + t * edx - px
            cy = sy + t * edy - py
            return cx * cx + cy * cy

        bx = seg_b[:, 0]
        by = seg_b[:, 1]
        d2 = np.minimum(p2e(ax[:, None], ay[:, None]), p2e(bx[:, None], by[:, None]))
        ldd = np.maximum(dx * dx + dy * dy, _EPS)[:, None]

        def c2s(px, py):
            t = ((px - ax[:, None]) * dx[:, None] + (py - ay[:, None]) * dy[:, None]) / ldd
            np.clip(t, 0.0, 1.0, out=t)
            cx = ax[:, None] + t * dx[:, None] - px
            cy = ay[:, None] + t * dy[:, None] - py
            return cx * cx + cy * cy

        d2 = np.minimum(d2, c2s(sx, sy))
        d2 = np.minimum(d2, c2s(exx, eyy))
        rect_d = np.sqrt(d2.reshape(r, k, 4).min(axis=2))

        # Liang-Barsky slab clipping for the overlap test
        rcx = rect_c[None, :, 0] - ax[:, None]
        rcy = rect_c[None, :, 1] - ay[:, None]
        hx = rect_h[None, :, 0]
        hy = rect_h[None, :, 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # parallel: fixed below
            invx = 1.0 / dx
            invy = 1.0 / dy
            t1x = (rcx - hx) * invx[:, None]
            t2x = (rcx + hx) * invx[:, None]
            t1y = (rcy - hy) * invy[:, None]
            t2y = (rcy + hy) * invy[:, None]
        tminx = np.minimum(t1x, t2x)
        tmaxx = np.maximum(t1x, t2x)
        tminy = np.minimum(t1y, t2y)
        tmaxy = np.maximum(t1y, t2y)
        par_x = np.abs(dx) < _EPS
        par_y = np.abs(dy) < _EPS
        if par_x.any():
            inside = np.abs(rcx) <= hx
            tminx = np.where(par_x[:, None], np.where(inside, -np.inf, np.inf), tminx)
            tmaxx = np.where(par_x[:, None], np.where(inside, np.inf, -np.inf), tmaxx)
        if par_y.any():
            inside = np.abs(rcy) <= hy
            tminy = np.where(par_y[:, None], np.where(inside, -np.inf, np.inf), tminy)
            tmaxy = np.where(par_y[:, None], np.where(inside, np.inf, -np.inf), tmaxy)
        t0 = np.maximum(np.maximum(tminx, tminy), 0.0)
        t1 = np.minimum(np.minimum(tmaxx, tmaxy), 1.0)
        overlap = t0 <= t1
        for ri, ki in zip(*np.nonzero(overlap)):
            rect_d[ri, ki] = geometry.segment_rect_signed_distance(
                seg_a[ri], seg_b[ri], rect_c[ki], rect_h[ki])
        best = np.minimum(best, rect_d.min(axis=1))
    return best


def signed_distance_batch(env: Environment, arm: ArmModel, qs: np.ndarray) -> np.ndarray:
    """Reference clearance of a batch of configurations (B, n)."""
    qs = np.asarray(qs, dtype=float)
    b, n = qs.shape
    pts = np.stack([joint_positions(arm, q)[0] for q in qs]).reshape(b, n + 1, 2)
    seg_a = pts[:, :-1, :].reshape(b * n, 2)
    seg_b = pts[:, 1:, :].reshape(b * n, 2)
    r = arm.link_radius
    rects = [o for o in env.obstacles if o.kind == "rect"]
    circles = [o for o in env.obstacles if o.kind == "circle"]
    rect_c = np.array([o.center for o in rects], dtype=float).reshape(-1, 2)
    rect_h = np.array([o.half_extents for o in rects], dtype=float).reshape(-1, 2)
    circle_c = np.array([o.center for o in circles], dtype=float).reshape(-1, 2)
    circle_r = np.array([o.radius for o in circles], dtype=float)
    if n < 3 and not env.obstacles:
        # 2-link arm in an empty world: clearance to the workspace boundary
        sd = geometry.point_rect_sdf(pts, np.array(env.workspace.center),
                                     np.array(env.workspace.half_extents))
        return -(sd.max(axis=1) + r)
    if env.obstacles:
        best = capsule_world_min(seg_a, seg_b, circle_c, circle_r, rect_c, rect_h,
                                 *rect_edge_arrays(rect_c, rect_h)) - r
        best = best.reshape(b, n).min(axis=1)
    else:
        best = np.full(b, np.inf)
    for i in range(n):
        for j in range(i + 2, n):
            d = geometry.seg_seg_distance_paired(
                pts[:, i, :], pts[:, i + 1, :], pts[:, j, :], pts[:, j + 1, :]) - 2.0 * r
            best = np.minimum(best, d)
    return best


def ray_circles(
    origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-hit parameters of R rays against K circles.

    origins/dirs: (R, 2) with unit dirs. Returns (t (R, K) with inf for miss,
    normals (R, K, 2) outward at the hit point).
    """
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    rel = origins[:, None, :] - centers[None, :, :]  # (R, K, 2)
    bq = np.einsum("rki,ri->rk", rel, dirs)
    cq = np.einsum("rki,rki->rk", rel, rel) - radii[None, :] ** 2
    disc = bq * bq - cq
    hit = disc >= 0.0
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = -bq - sq
    t_far = -bq + sq
    t = np.where(t_near >= 0.0, t_near, t_far)
    t = np.where(hit & (t >= 0.0), t, np.inf)
    t_safe = np.where(np.isfinite(t), t, 0.0)
    pts = origins[:, None, :] + t_safe[..., None] * dirs[:, None, :]
    normals = pts - centers[None, :, :]
    norms = np.linalg.norm(normals, axis=-1, keepdims=True)
    normals = normals / np.maximum(norms, _EPS)
    return t, normals


def ray_rects(
    origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray, halves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-hit parameters of R rays against K rectangles (slab method).

    Returns (t (R, K) with inf for miss, normals (R, K, 2): outward face normal
    of the entry face).
    """
    origins = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    centers = np.asarray(centers, dtype=float)
    halves = np.asarray(halves, dtype=float)
    rel = centers[None, :, :] - origins[:, None, :]  # (R, K, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs  # inf on parallel axes is fine for the slab method
    t_lo = (rel - halves[None, :, :]) * inv[:, None, :]
    t_hi = (rel + halves[None, :, :]) * inv[:, None, :]
    t_min = np.minimum(t_lo, t_hi)
    t_max = np.maximum(t_lo, t_hi)
    # Parallel axis: ray misses unless origin is within the slab.
    parallel = np.abs(dirs)[:, None, :] < _EPS
    inside_slab = np.abs(rel) <= halves[None, :, :]
    t_min = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), t_min)
    t_max = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), t_max)
    near_x = np.argmax(t_min, axis=-1) == 0  # (R, K): entry through an x face
    t_near = np.max(t_min, axis=-1)
    t_far = np.min(t_max, axis=-1)
    hit = (t_near <= t_far) & (t_far >= 0.0)
    t = np.where(t_near >= 0.0, t_near, t_far)
    t = np.where(hit & np.isfinite(t), t, np.inf)
    # Outward normal on the entry face: axis-aligned, sign opposite ray direction component.
    sign = -np.sign(np.where(near_x, dirs[:, None, 0], dirs[:, None, 1]))
    sign = np.where(sign == 0.0, 1.0, sign)
    normals = np.stack([np.where(near_x, sign, 0.0), np.where(near_x, 0.0, sign)], axis=-1)
    return t, normals
