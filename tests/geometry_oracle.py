"""Reference clearance kernel for the tests.

This is the segment-by-segment composition that `signed_distance_batch` used
before the fused joint-to-link pass: link frames, then per-link obstacle
distances with a Liang-Barsky overlap test and a scalar interior-depth call
per overlapping (link, rectangle) pair, then one paired segment-distance call
per non-adjacent self pair. It is slow and simple, and the property tests hold
the fast kernel to it.
"""

from __future__ import annotations

import numpy as np

from cbfsteer import geometry
from cbfsteer.environment import Environment
from cbfsteer.kinematics import ArmModel, joint_positions

_EPS = 1e-12


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
    pts = np.stack([joint_positions(arm, q) for q in qs]).reshape(b, n + 1, 2)
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
