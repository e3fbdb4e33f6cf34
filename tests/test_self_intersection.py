"""Self-intersection count against the scalar reference it replaced.

The reference below is the earlier per-pair implementation, kept verbatim:
a dict/set spatial hash for the broad phase and one scalar Moller interval
test per candidate pair.  The array implementation in ``meshkit`` must give
the same count on every mesh here.
"""

import numpy as np
import pytest

from conftest import traced_peak_mb
from vesselmesh import meshkit, phantom


# ---------------------------------------------------------------------------
# scalar reference


def _tri_tri_intersect(t1: np.ndarray, t2: np.ndarray, eps: float = 1e-10) -> bool:
    """Moller's interval test; shared-vertex contacts are filtered by the caller."""
    v0, v1, v2 = t1
    u0, u1, u2 = t2

    n2 = np.cross(u1 - u0, u2 - u0)
    dv = np.array([np.dot(n2, v0 - u0), np.dot(n2, v1 - u0), np.dot(n2, v2 - u0)])
    scale1 = max(np.abs(dv).max(), 1.0)
    dv[np.abs(dv) < eps * scale1] = 0.0
    if (dv > 0).all() or (dv < 0).all():
        return False

    n1 = np.cross(v1 - v0, v2 - v0)
    du = np.array([np.dot(n1, u0 - v0), np.dot(n1, u1 - v0), np.dot(n1, u2 - v0)])
    scale2 = max(np.abs(du).max(), 1.0)
    du[np.abs(du) < eps * scale2] = 0.0
    if (du > 0).all() or (du < 0).all():
        return False

    if (dv == 0).all() and (du == 0).all():
        return _coplanar_tri_tri(t1, t2, n1)

    d = np.cross(n1, n2)
    axis = int(np.argmax(np.abs(d)))
    pv = np.array([v0[axis], v1[axis], v2[axis]])
    pu = np.array([u0[axis], u1[axis], u2[axis]])
    i1 = _crossing_interval(pv, dv)
    i2 = _crossing_interval(pu, du)
    if i1 is None or i2 is None:
        return False
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    span = max(abs(i1[1] - i1[0]), abs(i2[1] - i2[0]), 1.0)
    return hi - lo > eps * span


def _crossing_interval(p: np.ndarray, d: np.ndarray):
    """Projection interval of a triangle on the plane-intersection line."""
    pos = [i for i in range(3) if d[i] > 0]
    neg = [i for i in range(3) if d[i] < 0]
    zer = [i for i in range(3) if d[i] == 0]
    if len(zer) == 3:
        return None
    ts = []
    for side_a, side_b in ((pos, neg), (neg, pos)):
        for i in side_a:
            for j in side_b:
                ts.append(p[i] + (p[j] - p[i]) * d[i] / (d[i] - d[j]))
    for i in zer:
        ts.append(p[i])
    if len(ts) < 2:
        return None
    return min(ts), max(ts)


def _coplanar_tri_tri(t1, t2, n) -> bool:
    axis = int(np.argmax(np.abs(n)))
    keep = [a for a in range(3) if a != axis]
    a = t1[:, keep]
    b = t2[:, keep]

    def seg_x(p1, p2, q1, q2):
        r = p2 - p1
        s = q2 - q1
        denom = r[0] * s[1] - r[1] * s[0]
        if abs(denom) < 1e-14:
            return False
        qp = q1 - p1
        t = (qp[0] * s[1] - qp[1] * s[0]) / denom
        u = (qp[0] * r[1] - qp[1] * r[0]) / denom
        return 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9

    for i in range(3):
        for j in range(3):
            if seg_x(a[i], a[(i + 1) % 3], b[j], b[(j + 1) % 3]):
                return True

    def contains(tri2d, pt):
        sign = 0
        for i in range(3):
            e = tri2d[(i + 1) % 3] - tri2d[i]
            w = pt - tri2d[i]
            cr = e[0] * w[1] - e[1] * w[0]
            if abs(cr) < 1e-14:
                return False
            s = 1 if cr > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                return False
        return True

    return contains(a, b.mean(axis=0)) or contains(b, a.mean(axis=0))


def oracle_count(mesh) -> int:
    """Number of triangle pairs that properly intersect (shared-vertex pairs excluded)."""
    tris = mesh.triangles
    nt = len(tris)
    if nt < 2:
        return 0
    p = mesh.vertices[tris]
    lo = p.min(axis=1)
    hi = p.max(axis=1)
    ext = hi - lo
    cell = float(np.median(ext.max(axis=1)))
    if cell <= 0:
        cell = max(float(ext.max()), 1e-9)

    grid: dict[tuple[int, int, int], list[int]] = {}
    ilo = np.floor(lo / cell).astype(np.int64)
    ihi = np.floor(hi / cell).astype(np.int64)
    for t in range(nt):
        for gx in range(ilo[t, 0], ihi[t, 0] + 1):
            for gy in range(ilo[t, 1], ihi[t, 1] + 1):
                for gz in range(ilo[t, 2], ihi[t, 2] + 1):
                    grid.setdefault((gx, gy, gz), []).append(t)

    cand = set()
    for members in grid.values():
        m = len(members)
        if m < 2:
            continue
        for ii in range(m):
            for jj in range(ii + 1, m):
                cand.add((members[ii], members[jj]))
    if not cand:
        return 0

    pairs = np.array(sorted(cand), dtype=np.int64)
    # bbox overlap prefilter
    ok = ((lo[pairs[:, 0]] <= hi[pairs[:, 1]]) & (lo[pairs[:, 1]] <= hi[pairs[:, 0]])).all(axis=1)
    pairs = pairs[ok]
    if not len(pairs):
        return 0
    # shared-vertex pairs are adjacency, not intersections
    shares = (tris[pairs[:, 0]][:, :, None] == tris[pairs[:, 1]][:, None, :]).any(axis=(1, 2))
    pairs = pairs[~shares]
    if not len(pairs):
        return 0

    # vectorized plane-separation reject before the exact pair test
    t1 = p[pairs[:, 0]]
    t2 = p[pairs[:, 1]]
    n2 = np.cross(t2[:, 1] - t2[:, 0], t2[:, 2] - t2[:, 0])
    dv = np.einsum("pij,pj->pi", t1 - t2[:, 0:1, :], n2)
    sep1 = (dv > 1e-12).all(axis=1) | (dv < -1e-12).all(axis=1)
    n1 = np.cross(t1[:, 1] - t1[:, 0], t1[:, 2] - t1[:, 0])
    du = np.einsum("pij,pj->pi", t2 - t1[:, 0:1, :], n1)
    sep2 = (du > 1e-12).all(axis=1) | (du < -1e-12).all(axis=1)
    pairs = pairs[~(sep1 | sep2)]

    count = 0
    for i, j in pairs:
        if _tri_tri_intersect(p[i], p[j]):
            count += 1
    return count


# ---------------------------------------------------------------------------
# meshes


def _fan(center, radius, n, angle0=0.0):
    """Triangle fan around center in the plane z = 0."""
    theta = angle0 + 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta), np.zeros(n)]
    )
    verts = np.vstack([[center[0], center[1], 0.0], ring])
    tris = np.array([(0, 1 + j, 1 + (j + 1) % n) for j in range(n)])
    return verts, tris


def _union(*meshes):
    verts, tris, off = [], [], 0
    for v, t in meshes:
        verts.append(v)
        tris.append(np.asarray(t) + off)
        off += len(v)
    return meshkit.TriMesh(np.vstack(verts), np.vstack(tris))


def _check(mesh):
    got = meshkit.count_self_intersections(mesh)
    assert got == oracle_count(mesh)
    return got


def test_coplanar_overlapping_fans():
    mesh = _union(_fan((0.0, 0.0), 2.0, 12), _fan((0.7, 0.4), 1.5, 9, angle0=0.3))
    assert _check(mesh) > 0


def test_fans_touching_along_an_edge():
    # a square fan and its mirror image across the square's edge x = 1,
    # with their own vertices: the fans meet only along that edge
    verts = np.array([[0.0, 0, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0]])
    tris = np.array([(0, 1 + j, 1 + (j + 1) % 4) for j in range(4)])
    mirrored = verts.copy()
    mirrored[:, 0] = 2.0 - mirrored[:, 0]
    assert _check(_union((verts, tris), (mirrored, tris[:, ::-1]))) == 0
    # folded up about that edge, the two triangles on it cross the other's
    # plane along the whole edge; the interval test counts that contact
    folded = mirrored.copy()
    folded[:, 2] = mirrored[:, 0] - 1.0
    folded[:, 0] = 1.0
    assert _check(_union((verts, tris), (folded, tris))) == 1


def test_fans_touching_at_a_vertex():
    verts, tris = _fan((0.0, 0.0), 1.0, 6)
    # point-mirrored through the ring vertex (1, 0, 0)
    other = np.array([2.0, 0.0, 0.0]) - verts
    assert _check(_union((verts, tris), (other, tris))) == 0
    tilted = other.copy()
    tilted[:, 2] = 0.5 * (other[:, 0] - 1.0)
    assert _check(_union((verts, tris), (tilted, tris))) == 0


def test_near_degenerate_slivers():
    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, 4.0, size=(60, 2, 3))
    # third vertex a hair off the segment through the first two
    t = rng.uniform(0.0, 1.0, size=(60, 1))
    third = base[:, 0] + t * (base[:, 1] - base[:, 0]) + rng.normal(0.0, 1e-7, size=(60, 3))
    slivers = np.concatenate([base, third[:, None, :]], axis=1)
    plates = rng.uniform(0.0, 4.0, size=(40, 3, 3))
    soup = np.concatenate([slivers, plates]).reshape(-1, 3)
    _check(meshkit.TriMesh(soup, np.arange(len(soup)).reshape(-1, 3)))


def test_crossing_tubes():
    spec = phantom.PhantomSpec(shape="straight", length_mm=30.0, base_radius_mm=4.0)
    a = phantom.analytic_surface(spec, 24, 24, caps=True)
    center = a.vertices.mean(axis=0)
    # the same tube turned 90 degrees about x through its centre
    rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    b = (a.vertices - center) @ rot.T + center
    assert _check(_union((a.vertices, a.triangles), (b, a.triangles))) > 0


def test_random_soup():
    rng = np.random.default_rng(20250713)
    centers = rng.uniform(0.0, 20.0, size=(1500, 1, 3))
    soup = (centers + rng.normal(0.0, 1.0, size=(1500, 3, 3))).reshape(-1, 3)
    assert _check(meshkit.TriMesh(soup, np.arange(len(soup)).reshape(-1, 3))) > 0


def test_marching_cubes_straight(straight_volume):
    _check(meshkit.marching_cubes(straight_volume, 0.5))


def test_crossing_pair_and_clean_tube(straight_spec):
    verts = np.array(
        [[0, 0, 0], [2, 0, 0], [0, 2, 0],
         [0.5, 0.5, -1], [1.5, 0.5, 1], [0.5, 1.5, 1.0]]
    )
    assert _check(meshkit.TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))) == 1
    assert _check(phantom.analytic_surface(straight_spec, 24, 24, caps=True)) == 0


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_triangles(n):
    mesh = meshkit.TriMesh(np.eye(3), np.tile([0, 1, 2], (n, 1)))
    assert meshkit.count_self_intersections(mesh) == 0


def test_planar_quads_of_the_straight_tube(straight_spec):
    # the wall quads of a tube on the volume's axis are exactly planar, and
    # vertices lie exactly on the planes of other triangles
    mesh = phantom.analytic_surface(straight_spec, 64, 64, caps=True)
    assert mesh.n_triangles == 8192
    assert _check(mesh) == 0


def test_rings_shifted_sideways():
    # every other ring 4 mm off the axis: the wall bends sharply at every
    # ring but never crosses itself; moved 4 mm back along the axis as
    # well, each such ring lies behind the one before it and the wall folds
    # through itself
    theta = 2.0 * np.pi * np.arange(24) / 24

    def tube(back):
        return meshkit.loft_rings(np.stack([
            np.column_stack([4.0 * np.cos(theta) + 4.0 * (k % 2), 4.0 * np.sin(theta),
                             np.full(24, 1.5 * k - back * (k % 2))])
            for k in range(12)]), caps=True)

    assert _check(tube(0.0)) == 0
    assert _check(tube(4.0)) > 100


def test_marching_cubes_of_the_compared_tube(straight_volume):
    # compare_baseline's marching-cubes mesh of the 64^3 straight phantom
    mesh = meshkit.marching_cubes(straight_volume, 0.5)
    assert mesh.n_triangles > 6000
    assert _check(mesh) == 0


def test_few_pairs_reach_the_interval_test(monkeypatch, straight_spec):
    # guards against a narrow phase that computes intervals for pairs
    # whose triangles cannot meet the other's plane along a segment
    mesh = phantom.analytic_surface(straight_spec, 64, 64, caps=True)
    tested, interval = [], []
    tri_tri, crossing = meshkit._tri_tri_intersect, meshkit._crossing_interval

    def counting_tri_tri(p, n, i, j):
        tested.append(len(i))
        return tri_tri(p, n, i, j)

    def counting_crossing(p, d):
        interval.append(d.shape[1])
        return crossing(p, d)

    monkeypatch.setattr(meshkit, "_tri_tri_intersect", counting_tri_tri)
    monkeypatch.setattr(meshkit, "_crossing_interval", counting_crossing)
    assert meshkit.count_self_intersections(mesh) == 0
    assert sum(tested) > 15000
    assert sum(interval) < 0.01 * sum(tested)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_raises(straight_spec, value):
    mesh = phantom.analytic_surface(straight_spec, 16, 16, caps=True)
    vertices = mesh.vertices.copy()
    vertices[[40, 23], 1] = value
    bad = meshkit.TriMesh(vertices, mesh.triangles)
    with pytest.raises(ValueError, match=r"^vertex 23 is not finite: \[.*\]$"):
        meshkit.count_self_intersections(bad)
    with pytest.raises(ValueError, match=r"^vertex 23 is not finite"):
        meshkit.validate(bad)


def test_unreferenced_non_finite_vertex_is_ignored(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 16, 16, caps=True)
    vertices = np.vstack([mesh.vertices, [[np.nan, 0.0, 0.0]]])
    assert meshkit.validate(meshkit.TriMesh(vertices, mesh.triangles)) == meshkit.validate(mesh)


def test_oversized_triangle(straight_spec):
    # one triangle 40 mm wide on every axis through the capped tube: in
    # cells of the median extent it alone would stamp 262k grid entries
    # (50 MB of working memory); a doubled cell keeps them within 8 per box
    mesh = phantom.analytic_surface(straight_spec, 64, 64, caps=True)
    n = mesh.n_vertices
    corners = mesh.vertices.min(axis=0) + np.array([[-5.0, 0, 0], [35.0, 40.0, 0], [0, 10.0, 40.0]])
    big = meshkit.TriMesh(np.vstack([mesh.vertices, corners]),
                          np.vstack([mesh.triangles, [[n, n + 1, n + 2]]]))
    count, peak = traced_peak_mb(meshkit.count_self_intersections, big)
    assert count == oracle_count(big) > 0
    assert peak < 16.0, peak


def test_working_memory_of_a_131k_triangle_tube():
    # the 131k-triangle mesh of a 256 x 256 tessellation, its axis off the
    # grid's axes: in cells of the median extent it would stamp 2.4M grid
    # entries, 1.8M of them from the 512 fan triangles of its caps (196 MB
    # of working memory); the doubled cell stamps 580k
    theta = 2.0 * np.pi * np.arange(256) / 256
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    a = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    b = np.cross(axis, a)
    rings = (np.linspace(-20.0, 20.0, 256)[:, None, None] * axis
             + 6.0 * (np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b))
    mesh = meshkit.loft_rings(rings, caps=True)
    assert mesh.n_triangles == 131072
    count, peak = traced_peak_mb(meshkit.count_self_intersections, mesh)
    assert count == 0
    assert peak < 100.0, peak
