"""Exact 2D distance and ray-cast primitives for capsules, circles and rectangles.

All rectangles are axis-aligned and given by (center, half_extents). Signed
distances are negative iff the shapes overlap. Functions are exact (no
sampling); vectorized variants operate on stacked obstacle arrays.

`capsule_world_min` is the clearance kernel behind
`environment.signed_distance_batch`: a short, fixed sequence of numpy
operations over complex x + iy coordinates that does not depend on how many
pairs overlap. One point-to-segment pass takes every circle centre, rectangle
corner and arm joint against every link; a separating-axis test (x, y and the
link normal, no division) finds the links that meet a rectangle, and those
pairs get their exact interior depth in closed form, gathered. The caller
feeds it row blocks of bounded size.

The overlap and self-crossing passes are skipped for a whole call when the
point distances prove them empty, with the same result bit for bit: a link
that meets a rectangle passes within its half-diagonal of a corner, and
crossing links each have an endpoint within half their length of the other
(each test allows `_SKIP_SLACK` for roundoff).
"""

from __future__ import annotations

import functools

import numpy as np

_EPS = 1e-12
# Roundoff allowance of the early-out tests in capsule_world_min: far above
# the error of a candidate distance, far below any clearance that matters.
_SKIP_SLACK = 1e-9


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cross product (q-p) x (r-p); broadcasts over leading axes."""
    return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (
        q[..., 1] - p[..., 1]
    ) * (r[..., 0] - p[..., 0])


def _strict_sign_flip(d1: np.ndarray, d2: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """True where d1 and d2 have strictly opposite signs beyond noise level.

    Near-collinear configurations produce orientation values at roundoff
    scale with arbitrary signs; treating those as crossings would report
    phantom contacts, so values within tol count as zero (the endpoint
    distance fallback then reports a near-zero distance anyway whenever the
    segments genuinely touch).
    """
    return ((d1 > tol) & (d2 < -tol)) | ((d1 < -tol) & (d2 > tol))


def point_rect_sdf(points: np.ndarray, center: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Signed distance from points (..., 2) to a solid rectangle (negative inside)."""
    q = np.abs(np.asarray(points, dtype=float) - np.asarray(center, dtype=float)) - np.asarray(
        half, dtype=float
    )
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.maximum(q[..., 0], q[..., 1]), 0.0)
    return outside + inside


def segment_rect_signed_distance(a: np.ndarray, b: np.ndarray, center: np.ndarray, half: np.ndarray) -> float:
    """min over the segment of the rectangle SDF: positive separation, negative depth.

    A segment that misses the rectangle is as far from it as from the nearest
    edge; the overlapping case minimizes the piecewise-linear interior SDF
    exactly over its breakpoints. The tests' reference for the clearance
    kernel's rectangle pairs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    d = b - a
    t_in, t_out = _slab_times(center - a, d, half)
    t0 = max(0.0, float(t_in.max()))
    t1 = min(1.0, float(t_out.min()))
    if t0 > t1:
        corners = center + half * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        return float(seg_seg_distance_paired(a, b, corners, np.roll(corners, -1, axis=0)).min())
    # Interior SDF along the segment: f(t) = max(|px(t)|-hx, |py(t)|-hy), piecewise linear.
    rel = a - center

    def f(t: float) -> float:
        p = rel + t * d
        return max(abs(p[0]) - half[0], abs(p[1]) - half[1])

    cands = [t0, t1]
    for axis in range(2):
        if abs(d[axis]) > _EPS:
            cands.append(-rel[axis] / d[axis])  # |p_axis| kink
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            den = s1 * d[0] - s2 * d[1]
            if abs(den) > _EPS:
                t = (half[0] - half[1] - s1 * rel[0] + s2 * rel[1]) / den
                cands.append(t)
    vals = [f(t) for t in cands if t0 - _EPS <= t <= t1 + _EPS]
    return min(vals)


@functools.lru_cache(maxsize=None)
def _self_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Self pairs of an n-link chain: (n, n+1) radius multiples, 2 where joint j
    ends a link not adjacent to link l and -inf elsewhere; and (n, n) bool,
    links l and j are not adjacent."""
    idx = np.arange(n)
    nonadj = np.abs(idx[:, None] - idx[None, :]) >= 2
    ends = np.zeros((n, n + 1), dtype=bool)
    ends[:, :-1] |= nonadj
    ends[:, 1:] |= nonadj
    ends = np.where(ends, 2.0, -np.inf)
    ends.flags.writeable = nonadj.flags.writeable = False  # shared by every caller
    return ends, nonadj


def offset_table(offsets: np.ndarray, n: int, radius: float) -> np.ndarray:
    """What `capsule_world_min` subtracts from link l's point distances, (n,
    P + n + 1), read-only: each of the P points' circle radius (`offsets`, 0
    for a corner) plus the link radius, then 2 radius at the joints of the
    links not adjacent to l and -inf at the others. It depends only on the
    world's shapes and the arm, so callers build it once per pair."""
    m = n + 1
    table = np.empty((n, offsets.shape[0] + m))
    table[:, :-m] = offsets + radius
    table[:, -m:] = _self_pairs(n)[0] * radius
    table.flags.writeable = False
    return table


_S1 = np.array([-1.0, -1.0, 1.0, 1.0])[:, None]
_S2 = np.array([-1.0, 1.0, -1.0, 1.0])[:, None]


def _interior_depth(rel: np.ndarray, d: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Deepest rectangle SDF along H segments that meet their rectangle, (H,).

    Segment h is rel_h + t d_h, t in [0, 1], relative to the rectangle centre,
    with half extents half_h; all complex x + iy. The interior SDF
    max(|x| - hx, |y| - hy) is convex and piecewise linear along the segment
    and nonpositive exactly where it is inside, so its minimum over [0, 1]
    sits at an end, an |x| or |y| kink, or a crossing of the two terms: eight
    candidates, clamped into [0, 1].
    """
    rx, ry, dx, dy = rel.real, rel.imag, d.real, d.imag
    hx, hy = half.real, half.imag
    ts = np.empty((8, d.shape[0]))
    ts[0] = 0.0
    ts[1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(-rx, dx, out=ts[2])
        np.divide(-ry, dy, out=ts[3])
        np.divide(hx - hy - _S1 * rx + _S2 * ry, _S1 * dx - _S2 * dy, out=ts[4:])
    ts = np.fmin(np.fmax(ts, 0.0), 1.0)  # nan (0/0) becomes 0
    p = rel + ts * d
    return np.maximum(np.abs(p.real) - hx, np.abs(p.imag) - hy).min(axis=0)


def capsule_world_min(joints: np.ndarray, radius: float, points: np.ndarray,
                      offsets: np.ndarray, rect_c: np.ndarray, rect_h: np.ndarray,
                      rect_reach: float, cross_reach: float) -> np.ndarray:
    """Clearance of R capsule chains, in one fused pass, (R,).

    All positions are complex x + iy. joints: (R, n+1) joint positions of
    chains of n links with capsule radius `radius`; points: (P,) the circle
    centres and the four corners of each rectangle; offsets: (n, P + n + 1)
    the `offset_table` of the points' circle radii (0 for corners), n and
    `radius`; rect_c, rect_h: (K,) rectangle centres and half extents
    hx + i hy. With `points` (R, P) and `rect_c` (R, K) instead, row r is
    checked against its own obstacle positions (offsets and half extents stay
    shared). Returns, per row, the minimum over links of the capsule's signed
    distance to every obstacle and to every non-adjacent link of its own
    chain; negative iff something penetrates.

    One point-to-segment pass takes every point and every joint against every
    link; `rel * conj(d)` gives the projection on the link (real part) and the
    side of it (imaginary part). Every candidate bounds some true distance
    from above, and their minimum is exact for disjoint pairs: a link is as
    far from a rectangle as the nearer of its joints' box distances and the
    corners' distances to it. Overlap is the separating-axis test on x, y and
    the link normal; overlapping pairs are gathered and add their exact
    interior depth. A non-adjacent self pair is as far apart as its nearest
    joint-to-link distance, or zero where each link strictly straddles the
    other's line.

    rect_reach is the largest rectangle half-diagonal |hx + i hy|, and
    cross_reach the largest min(L_l, L_j)/2 over non-adjacent links (-inf for
    none). Every point of a rectangle lies within its half-diagonal of a
    corner, so a link meeting one leaves a corner candidate of at most
    rect_reach - radius; of two crossing links, each has an endpoint within
    half its length of the other, a candidate of at most cross_reach -
    2 radius. Above those (plus `_SKIP_SLACK`) the call skips the overlap and
    the straddle pass; with both reaches +inf every pass runs.
    """
    b, m = joints.shape
    n = m - 1
    a = joints[:, :-1, None]
    d = joints[:, 1:, None] - a  # (R, n, 1)
    dc = d.conj()
    pts = np.empty((b, 1, points.shape[-1] + m), dtype=complex)
    pts[:, 0, :-m] = points
    pts[:, 0, -m:] = joints
    rel = pts - a  # (R, n, P + n + 1)
    w = rel * dc
    t = np.minimum(np.maximum(w.real / np.maximum((d * dc).real, _EPS), 0.0), 1.0)
    best = (np.abs(rel - t * d) - offsets).min(axis=(1, 2))
    k = rect_c.shape[-1]
    rc = rect_c[..., None, :]  # (1, K) or (R, 1, K)
    if k:
        q = np.abs((joints[:, :, None] - rc).view(float)).view(complex) - rect_h
        box = np.abs(np.maximum(q.view(float), 0.0).view(complex))  # (R, n+1, K)
        best = np.minimum(best, box.min(axis=(1, 2)) - radius)
    low = best.min(initial=np.inf)  # NaN runs both passes
    if k and not low > rect_reach - radius + _SKIP_SLACK:
        # separating axes of a segment and a box: |c - mid| <= h + |d|/2 on x
        # and on y, and |d x (c - mid)| <= hx |dy| + hy |dx| on the link normal
        mc = rc - (a + 0.5 * d)  # (R, n, K)
        ad = np.abs(d.view(float)).view(complex)  # |dx| + i |dy|
        axes = (np.abs(mc.view(float)).view(complex) - (rect_h + 0.5 * ad)).view(float)
        sep = np.maximum(np.maximum(axes[..., 0::2], axes[..., 1::2]),
                         np.abs((mc * dc).imag) - (ad * rect_h).imag)
        hit = np.flatnonzero(sep <= 0.0)
        if hit.size:
            link, rk = np.divmod(hit, k)
            row = link // n
            ctr = rect_c[rk] if rect_c.ndim == 1 else rect_c[row, rk]
            depth = _interior_depth(a.reshape(-1)[link] - ctr, d.reshape(-1)[link], rect_h[rk])
            np.minimum.at(best, row, depth - radius)
    if not low > cross_reach - 2.0 * radius + _SKIP_SLACK:
        # side of link l that joint j lies on, 0 within the roundoff tolerance
        # of _strict_sign_flip; link j straddles the line of link l iff its
        # joints' sides multiply to a negative number
        side = w.imag[:, :, -m:]
        side = np.where(np.abs(side) > _EPS, side, 0.0)
        straddle = side[:, :, :-1] * side[:, :, 1:]
        crossed = ((np.maximum(straddle, straddle.transpose(0, 2, 1)) < 0.0) & _self_pairs(n)[1])
        best = np.where(crossed.any(axis=(1, 2)), np.minimum(best, -2.0 * radius), best)
    return best


def seg_seg_distance_paired(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray
                            ) -> np.ndarray:
    """Elementwise segment-pair distances (R,), zero where the pairs intersect."""
    a1 = np.asarray(a1, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)

    def pts_to_segs(p, s, e):
        d = e - s
        dd = np.maximum(np.einsum("...i,...i->...", d, d), _EPS)
        t = np.clip(np.einsum("...i,...i->...", p - s, d) / dd, 0.0, 1.0)
        closest = s + t[..., None] * d
        return np.linalg.norm(p - closest, axis=-1)

    dist = np.minimum.reduce([
        pts_to_segs(a1, a2, b2),
        pts_to_segs(b1, a2, b2),
        pts_to_segs(a2, a1, b1),
        pts_to_segs(b2, a1, b1),
    ])
    d1 = _orient(a2, b2, a1)
    d2 = _orient(a2, b2, b1)
    d3 = _orient(a1, b1, a2)
    d4 = _orient(a1, b1, b2)
    proper = _strict_sign_flip(d1, d2) & _strict_sign_flip(d3, d4)
    return np.where(proper, 0.0, dist)


def ray_circles(origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray,
                radii: np.ndarray) -> np.ndarray:
    """First-hit parameters t (R, K) of R rays against K circles, inf for a
    miss. origins/dirs: (R, 2) with unit dirs; a ray that starts inside a
    circle hits it where it leaves."""
    rx = origins[:, :1] - centers[:, 0]
    ry = origins[:, 1:] - centers[:, 1]
    bq = rx * dirs[:, :1] + ry * dirs[:, 1:]
    disc = bq * bq - ((rx * rx + ry * ry) - radii * radii)
    sq = np.sqrt(np.maximum(disc, 0.0))
    bq = np.negative(bq, out=bq)
    t_far = bq + sq
    t = bq - sq
    t = np.where(t >= 0.0, t, t_far)
    return np.where(np.minimum(disc, t_far) >= 0.0, t, np.inf)  # a root, not both behind


def _slab_times(rel: np.ndarray, dirs: np.ndarray, halves: np.ndarray, exits: bool = True
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Entry and (with `exits`) exit parameters (..., 2) of rays in the x and
    y slabs of rectangles centred `rel` from the ray origins, by
    broadcasting. A ray parallel to an axis (|d| < _EPS) is inside that slab
    for all t or for none."""
    parallel = np.abs(dirs) < _EPS
    # No measured control-dynamic scan held one; masking every scan cost ~3% of its ticks/s.
    any_parallel = np.count_nonzero(parallel)
    d = np.where(parallel, 1.0, dirs) if any_parallel else dirs
    inv = 1.0 / d
    lead = np.copysign(halves, d)  # per axis, the face the ray meets first
    t_in = (rel - lead) * inv
    t_out = (rel + lead) * inv if exits else None
    if any_parallel:
        inside = np.where(np.abs(rel) <= halves, np.inf, -np.inf)
        t_in = np.where(parallel, -inside, t_in)
        t_out = np.where(parallel, inside, t_out) if exits else None
    return t_in, t_out


def ray_rects(origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray,
              halves: np.ndarray) -> np.ndarray:
    """First-hit parameters t (R, K) of R rays against K rectangles (slab
    method), inf for a miss. A ray that starts inside a rectangle hits it
    where it leaves."""
    t_in, t_out = _slab_times(centers - origins[:, None, :], dirs[:, None, :], halves)
    t_near = np.maximum(t_in[..., 0], t_in[..., 1])
    t_far = np.minimum(t_out[..., 0], t_out[..., 1])
    t = np.where(t_near >= 0.0, t_near, t_far)
    return np.where(np.maximum(t_near, 0.0) <= t_far, t, np.inf)  # slabs overlap ahead


_X_FACE = np.array([True, False])


def hit_normals(points: np.ndarray, origins: np.ndarray, dirs: np.ndarray, nearest: np.ndarray,
                circle_c: np.ndarray, rect_c: np.ndarray, rect_h: np.ndarray) -> np.ndarray:
    """Outward normals (R, 2) where R rays hit their nearest obstacle, at
    `points` (R, 2). `nearest` (R,) indexes the circles, then the rectangles.
    A circle's normal is the unit vector from its centre; a rectangle's is
    its entry face (the slab the ray enters last, x on ties), against the
    ray."""
    n_c = circle_c.shape[0]
    normals = points - circle_c.take(nearest, axis=0, mode="clip") if n_c else np.zeros_like(points)
    square = normals * normals
    normals /= np.maximum(np.sqrt(square[:, :1] + square[:, 1:]), _EPS)
    if rect_c.shape[0]:
        k = nearest - n_c
        t_in = _slab_times(rect_c.take(k, axis=0, mode="clip") - origins, dirs,
                           rect_h.take(k, axis=0, mode="clip"), exits=False)[0]
        face = np.where((t_in[:, :1] >= t_in[:, 1:]) == _X_FACE,
                        np.where(dirs > 0.0, -1.0, 1.0), 0.0)
        normals = np.where((nearest >= n_c)[:, None], face, normals)
    return normals
