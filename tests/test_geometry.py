"""Distance-primitive tests against dense-sampling and closed-form oracles."""

import numpy as np
import pytest

from cbfsteer import geometry

import geometry_oracle


def dense_rect_sdf_min(a, b, center, half, n=4001):
    """Sampling oracle: min rect SDF over many points of the segment."""
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    return geometry.point_rect_sdf(pts, center, half).min()


class TestPointRectSdf:
    def test_outside_axis(self):
        d = geometry.point_rect_sdf(np.array([2.0, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(1.0)

    def test_corner(self):
        d = geometry.point_rect_sdf(np.array([2.0, 2.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_inside(self):
        d = geometry.point_rect_sdf(np.array([0.2, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(-0.8)


class TestOffsetTable:
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("n_points", [0, 4, 9])
    def test_equals_the_per_call_construction_bit_for_bit(self, n, n_points):
        # the table capsule_world_min built on every call before it took one
        rng = np.random.default_rng(n * 10 + n_points)
        offsets = np.where(rng.random(n_points) < 0.5, 0.0, rng.uniform(0.05, 0.3, n_points))
        radius = float(rng.uniform(0.01, 0.08))
        m = n + 1
        ref = np.empty((n, n_points + m))
        ref[:, :-m] = offsets + radius
        ref[:, -m:] = geometry._self_pairs(n)[0] * radius
        got = geometry.offset_table(offsets, n, radius)
        assert got.tobytes() == ref.tobytes() and got.shape == ref.shape
        assert not got.flags.writeable


class TestSegmentRect:
    def test_disjoint_matches_sampling(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-2, 2, 2)
            b = rng.uniform(-2, 2, 2)
            c = rng.uniform(-2, 2, 2)
            h = rng.uniform(0.05, 0.6, 2)
            exact = geometry.segment_rect_signed_distance(a, b, c, h)
            approx = dense_rect_sdf_min(a, b, c, h)
            # sampling overestimates the min by at most the sample spacing
            assert exact <= approx + 1e-12
            assert approx - exact <= np.linalg.norm(b - a) / 4000 + 1e-9

    def test_sign_matches_sampling(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(200):
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            c = rng.uniform(-0.5, 0.5, 2)
            h = rng.uniform(0.1, 0.5, 2)
            exact = geometry.segment_rect_signed_distance(a, b, c, h)
            approx = dense_rect_sdf_min(a, b, c, h)
            if abs(approx) > 1e-3:  # avoid tangency ambiguity at sampling resolution
                assert np.sign(exact) == np.sign(approx)
            if exact < 0:
                hits += 1
        assert hits > 10  # the sweep actually exercised penetrations

    def test_fully_inside_negative(self):
        # deepest point of the segment is the origin, with SDF -1
        d = geometry.segment_rect_signed_distance(
            np.array([-0.1, 0.0]), np.array([0.1, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(-1.0)


    def test_vectorized_matches_scalar(self):
        # the fused kernel on a one-link chain, one rectangle at a time; it
        # reports capsule clearance, so add the radius back
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        centers = rng.uniform(-1, 1, (8, 2))
        halves = rng.uniform(0.05, 0.5, (8, 2))
        joints = np.array([[complex(*a), complex(*b)]])
        for k in range(8):
            cz, (hx, hy) = complex(*centers[k]), halves[k]
            corners = cz + np.array([-hx - 1j * hy, hx - 1j * hy, hx + 1j * hy, -hx + 1j * hy])
            vec = geometry.capsule_world_min(joints, 0.04, corners,
                                             geometry.offset_table(np.zeros(4), 1, 0.04),
                                             np.array([cz]),
                                             np.array([complex(hx, hy)]), np.inf, -np.inf)
            assert vec[0] + 0.04 == pytest.approx(
                geometry.segment_rect_signed_distance(a, b, centers[k], halves[k]), abs=1e-12)


def dense_seg_seg_min(a1, b1, a2, b2, n=4001):
    """Sampling oracle: min distance from many points of [a1, b1] to [a2, b2]."""
    ts = np.linspace(0.0, 1.0, n)
    pts = a1[None, :] + ts[:, None] * (b1 - a1)[None, :]
    return geometry_oracle.point_segment_distance(pts, a2, b2).min()


# (a1, b1, a2, b2): a proper crossing, collinear overlap, parallel pairs and a
# degenerate segment (a == b)
SEGMENT_PAIRS = {
    "crossing": ([-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]),
    "collinear-overlap": ([0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.5, 0.0]),
    "parallel": ([0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5]),
    "parallel-offset": ([0.0, 0.0], [1.0, 1.0], [1.5, 0.5], [2.5, 1.5]),
    "degenerate": ([0.3, 0.7], [0.3, 0.7], [-0.5, 0.0], [0.5, 0.0]),
    "degenerate-first-arg": ([-0.5, 0.0], [0.5, 0.0], [0.3, 0.7], [0.3, 0.7]),
}


class TestSegmentSegment:
    def test_crossing_is_zero(self):
        d = geometry.seg_seg_distance_paired(*map(np.array, SEGMENT_PAIRS["crossing"]))
        assert d == 0.0

    def test_parallel(self):
        d = geometry.seg_seg_distance_paired(*map(np.array, SEGMENT_PAIRS["parallel"]))
        assert d == pytest.approx(0.5)

    @pytest.mark.parametrize("case", SEGMENT_PAIRS)
    def test_cases_match_sampling(self, case):
        a1, b1, a2, b2 = map(np.array, SEGMENT_PAIRS[case])
        exact = geometry.seg_seg_distance_paired(a1, b1, a2, b2)
        approx = dense_seg_seg_min(a1, b1, a2, b2)
        assert exact <= approx + 1e-12
        assert approx - exact <= np.linalg.norm(b1 - a1) / 4000 + 1e-9

    def test_paired_matches_sampling(self):
        rng = np.random.default_rng(6)
        a1, b1, a2, b2 = rng.uniform(-1, 1, (4, 50, 2))
        d = geometry.seg_seg_distance_paired(a1, b1, a2, b2)
        assert d.shape == (50,)
        for i in range(50):
            approx = dense_seg_seg_min(a1[i], b1[i], a2[i], b2[i])
            # sampling overestimates the min by at most the sample spacing
            assert d[i] <= approx + 1e-12
            assert approx - d[i] <= np.linalg.norm(b1[i] - a1[i]) / 4000 + 1e-9
        assert (d == 0.0).any() and (d > 0.0).any()  # crossings and separated pairs


def ray_fan(rng, n_rays, n_origins=2, axis_rays=True):
    """Rays from a few shared origins in random directions; with axis_rays,
    some run along an exact axis (a zero component) or nearly so (a
    component of about 6e-17, below geometry._EPS)."""
    ang = rng.uniform(0.0, 2.0 * np.pi, n_rays)
    if axis_rays:
        ang[::3] = 0.5 * np.pi * rng.integers(0, 4, ang[::3].size)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if axis_rays:
        dirs[::7] = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])[
            rng.integers(0, 4, dirs[::7].shape[0])]
    origins = np.repeat(rng.uniform(-1.0, 1.0, (n_origins, 2)), -(-n_rays // n_origins),
                        axis=0)[:n_rays]
    return origins, dirs


class TestRayCasts:
    def test_ray_circle_closed_form(self):
        # ray from origin along +x at a circle centered (2, 0) radius 0.5
        args = (np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                np.array([[2.0, 0.0]]), np.array([0.5]))
        assert geometry.ray_circles(*args)[0, 0] == pytest.approx(1.5)
        t, n = geometry_oracle.ray_circles(*args)
        assert t[0, 0] == pytest.approx(1.5)
        np.testing.assert_allclose(n[0, 0], [-1.0, 0.0], atol=1e-12)

    def test_ray_circle_miss(self):
        t = geometry.ray_circles(
            np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
            np.array([[0.0, 2.0]]), np.array([0.5]))
        assert np.isinf(t[0, 0])

    def test_ray_rect_entry_face(self):
        args = (np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                np.array([[3.0, 0.0]]), np.array([[1.0, 0.5]]))
        assert geometry.ray_rects(*args)[0, 0] == pytest.approx(2.0)
        t, n = geometry_oracle.ray_rects(*args)
        assert t[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(n[0, 0], [-1.0, 0.0])

    def test_ray_rect_parallel_miss(self):
        t = geometry.ray_rects(
            np.array([[0.0, 2.0]]), np.array([[1.0, 0.0]]),
            np.array([[3.0, 0.0]]), np.array([[1.0, 0.5]]))
        assert np.isinf(t[0, 0])

    @pytest.mark.parametrize("seed", range(6))
    def test_hit_parameters_equal_the_pairwise_oracle(self, seed):
        # bit for bit, with origins inside obstacles and rays along the axes
        rng = np.random.default_rng(seed)
        origins, dirs = ray_fan(rng, 48, axis_rays=seed % 2 == 0)
        centers = np.concatenate([origins[:1], rng.uniform(-1.5, 1.5, (5, 2))])
        radii = rng.uniform(0.05, 0.6, 6)
        halves = rng.uniform(0.05, 0.6, (6, 2))
        assert (np.abs(dirs) < geometry._EPS).any() == (seed % 2 == 0)
        ref = geometry_oracle.ray_circles(origins, dirs, centers, radii)[0]
        assert geometry.ray_circles(origins, dirs, centers, radii).tobytes() == ref.tobytes()
        with np.errstate(invalid="ignore"):
            ref = geometry_oracle.ray_rects(origins, dirs, centers, halves)[0]
        assert geometry.ray_rects(origins, dirs, centers, halves).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_nearest_hit_normals_equal_the_pairwise_oracle(self, seed):
        # the normal of each ray's nearest hit is the oracle's pairwise normal
        # of that (ray, obstacle) pair, bit for bit
        rng = np.random.default_rng(10 + seed)
        origins, dirs = ray_fan(rng, 60)
        circle_c = rng.uniform(-1.5, 1.5, (seed % 3, 2))
        rect_c = np.concatenate([origins[:1], rng.uniform(-1.5, 1.5, (2 - seed % 2, 2))])
        radii = rng.uniform(0.05, 0.6, circle_c.shape[0])
        halves = rng.uniform(0.05, 0.6, rect_c.shape)
        with np.errstate(invalid="ignore"):
            tc, nc = geometry_oracle.ray_circles(origins, dirs, circle_c, radii)
            tr, nr = geometry_oracle.ray_rects(origins, dirs, rect_c, halves)
        t = np.concatenate([tc, tr], axis=1)
        nearest = t.argmin(axis=1)
        rows = np.arange(t.shape[0])
        hit = np.isfinite(t[rows, nearest])
        points = origins + np.where(hit, t[rows, nearest], 0.0)[:, None] * dirs
        got = geometry.hit_normals(points, origins, dirs, nearest, circle_c, rect_c, halves)
        ref = np.concatenate([nc, nr], axis=1)[rows, nearest]
        assert hit.sum() >= 20
        assert got[hit].tobytes() == ref[hit].tobytes()

    def test_a_corner_hit_takes_the_x_face(self):
        # both slabs are entered at t = 2 exactly: the x face wins the tie
        origins, dirs = np.zeros((2, 2)), np.array([[0.5, 0.5], [-0.5, -0.5]])
        rect_c, rect_h = np.array([[1.25, 1.25], [-1.25, -1.25]]), np.full((2, 2), 0.25)
        t, normals = geometry_oracle.ray_rects(origins, dirs, rect_c, rect_h)
        assert (t == [[2.0, np.inf], [np.inf, 2.0]]).all()
        got = geometry.hit_normals(origins + 2.0 * dirs, origins, dirs, np.array([0, 1]),
                                   np.zeros((0, 2)), rect_c, rect_h)
        assert got.tobytes() == np.array([[-1.0, 0.0], [1.0, 0.0]]).tobytes()
        assert got.tobytes() == normals[[0, 1], [0, 1]].tobytes()

    def test_ray_rect_entry_normals_match_pairwise_rule(self):
        # per (ray, rectangle): the entry axis is the one whose slab is entered
        # last (x on ties), and the normal points against the ray along it
        rng = np.random.default_rng(8)
        ang = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 40), 0.5 * np.pi * np.arange(4)])
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dirs[-4:] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        origins = rng.uniform(-1.0, 1.0, (ang.size, 2))
        centers = rng.uniform(-1.0, 1.0, (6, 2))
        halves = rng.uniform(0.05, 0.5, (6, 2))
        _, normals = geometry_oracle.ray_rects(origins, dirs, centers, halves)
        for r in range(ang.size):
            for k in range(6):
                rel = centers[k] - origins[r]
                t_min = []
                for ax in range(2):
                    if abs(dirs[r, ax]) < geometry._EPS:
                        t_min.append(-np.inf if abs(rel[ax]) <= halves[k, ax] else np.inf)
                    else:
                        t_min.append(min((rel[ax] - halves[k, ax]) / dirs[r, ax],
                                         (rel[ax] + halves[k, ax]) / dirs[r, ax]))
                ax = 0 if t_min[0] >= t_min[1] else 1
                expect = np.zeros(2)
                expect[ax] = -np.sign(dirs[r, ax]) or 1.0
                assert normals[r, k].tobytes() == expect.tobytes(), (r, k)


class TestFusedKernel:
    def test_matches_componentwise_primitives(self):
        # the reference kernel the fast clearance pass is checked against
        rng = np.random.default_rng(7)
        for _ in range(20):
            seg_a = rng.uniform(-1.5, 1.5, (6, 2))
            seg_b = rng.uniform(-1.5, 1.5, (6, 2))
            cc = rng.uniform(-1, 1, (3, 2))
            cr = rng.uniform(0.1, 0.4, 3)
            rc = rng.uniform(-1, 1, (3, 2))
            rh = rng.uniform(0.1, 0.4, (3, 2))
            es, ee = geometry_oracle.rect_edge_arrays(rc, rh)
            fused = geometry_oracle.capsule_world_min(seg_a, seg_b, cc, cr, rc, rh, es, ee)
            for i in range(6):
                circ = (geometry_oracle.point_segment_distance(cc, seg_a[i], seg_b[i]) - cr).min()
                rect = min(geometry.segment_rect_signed_distance(seg_a[i], seg_b[i], c, h)
                           for c, h in zip(rc, rh))
                assert fused[i] == pytest.approx(min(circ, rect), abs=1e-12)
