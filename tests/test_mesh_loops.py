"""Marching cubes, the inside test and the merge bridge against the loops they replaced.

The references below are the earlier per-element Python code, kept
verbatim: the dict-welded ``marching_cubes`` (one active cell and one edge
at a time), the per-point ``points_inside_mesh`` and ``merge_branches``
with its bridge strip built one loop vertex at a time.  Marching cubes and
the merge must give the same arrays bit for bit; the inside test must give
the same decisions away from the surface (see below).
"""

import numpy as np
import pytest

from vesselmesh import meshkit, phantom
from vesselmesh._mc_tables import TRI_TABLE
from vesselmesh.volume import Volume


# ---------------------------------------------------------------------------
# loop references

_EDGE_CORNERS = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
_EDGE_KEYS = tuple(
    (
        0 if _CORNER_OFFSETS[a][0] != _CORNER_OFFSETS[b][0]
        else (1 if _CORNER_OFFSETS[a][1] != _CORNER_OFFSETS[b][1] else 2),
        min(_CORNER_OFFSETS[a][0], _CORNER_OFFSETS[b][0]),
        min(_CORNER_OFFSETS[a][1], _CORNER_OFFSETS[b][1]),
        min(_CORNER_OFFSETS[a][2], _CORNER_OFFSETS[b][2]),
    )
    for a, b in _EDGE_CORNERS
)


def _ref_marching_cubes(vol: Volume, iso: float = 0.5) -> meshkit.TriMesh:
    data = vol.data.astype(np.float64)
    if not (float(data.min()) < iso < float(data.max())):
        raise ValueError(f"iso {iso} outside data range [{data.min()}, {data.max()}]")
    nx, ny, nz = vol.dims
    below = data < iso

    ci = np.zeros((nz - 1, ny - 1, nx - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        sl = below[dz : dz + nz - 1, dy : dy + ny - 1, dx : dx + nx - 1]
        ci |= sl.astype(np.uint16) << bit

    active = np.argwhere((ci > 0) & (ci < 255))
    origin = np.asarray(vol.origin, dtype=np.float64)
    spacing = np.asarray(vol.spacing, dtype=np.float64)

    verts: list[np.ndarray] = []
    vert_ids: dict[tuple[int, int, int, int], int] = {}
    tris: list[tuple[int, int, int]] = []

    for zc, yc, xc in active:
        case = int(ci[zc, yc, xc])
        local = {}
        for e in range(12):
            ca, cb = _EDGE_CORNERS[e]
            if not ((case >> ca) ^ (case >> cb)) & 1:  # both corners on one side
                continue
            ax, ox, oy, oz = _EDGE_KEYS[e]
            key = (ax, xc + ox, yc + oy, zc + oz)
            vid = vert_ids.get(key)
            if vid is None:
                ca, cb = _EDGE_CORNERS[e]
                ax_a = _CORNER_OFFSETS[ca]
                ax_b = _CORNER_OFFSETS[cb]
                va = data[zc + ax_a[2], yc + ax_a[1], xc + ax_a[0]]
                vb = data[zc + ax_b[2], yc + ax_b[1], xc + ax_b[0]]
                t = (iso - va) / (vb - va)
                t = min(max(t, 0.0), 1.0)
                ia = np.array([xc + ax_a[0], yc + ax_a[1], zc + ax_a[2]], dtype=np.float64)
                ib = np.array([xc + ax_b[0], yc + ax_b[1], zc + ax_b[2]], dtype=np.float64)
                pos = origin + (ia + t * (ib - ia)) * spacing
                vid = len(verts)
                verts.append(pos)
                vert_ids[key] = vid
            local[e] = vid
        tt = TRI_TABLE[case]
        for k in range(0, len(tt), 3):
            tris.append((local[tt[k]], local[tt[k + 1]], local[tt[k + 2]]))

    if not tris:
        raise ValueError("iso-surface is empty")
    return meshkit.TriMesh(np.asarray(verts), np.asarray(tris, dtype=np.int64)).clean()


def _ref_points_inside_mesh(points: np.ndarray, mesh: meshkit.TriMesh) -> np.ndarray:
    """Ray-parity containment test with deterministic perturbation on grazing hits."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.vertices[mesh.triangles]
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    # axis ray first, then fixed fallback directions for grazing hits
    dirs = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.12905, 0.98237, 0.13471]),
        np.array([-0.33296, 0.54713, 0.76804]),
        np.array([0.57735, -0.57735, 0.57735]),
    ]

    def parity(p, d):
        h = np.cross(d, e2)
        det = np.einsum("ij,ij->i", e1, h)
        ok = np.abs(det) > 1e-12
        safe = np.where(ok, det, 1.0)
        s = p - v0
        u = np.einsum("ij,ij->i", s, h) / safe
        q = np.cross(s, e1)
        v = (q @ d) / safe
        t = np.einsum("ij,ij->i", e2, q) / safe
        hit = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
        grazed = bool(
            (hit & ((u < 1e-9) | (v < 1e-9) | (u + v > 1 - 1e-9))).any()
        )
        return bool(hit.sum() % 2 == 1), grazed

    out = np.zeros(len(pts), dtype=bool)
    for pi, p in enumerate(pts):
        for d in dirs:
            inside, grazed = parity(p, d / np.linalg.norm(d))
            if not grazed:
                break
        out[pi] = inside  # last direction's parity if every ray grazed
    return out


def _ref_merge_branches(main, branch):
    """merge_branches with the looped bridge strip and the per-point inside test."""
    from scipy.spatial import cKDTree

    centroids = branch.vertices[branch.triangles].mean(axis=1)
    inside = _ref_points_inside_mesh(centroids, main)
    if inside.all():
        raise ValueError("branch lies entirely inside the main mesh")
    if not inside.any():
        raise ValueError("branch does not intersect the main mesh")

    kept = branch.triangles[~inside]
    removed_vertex_set = set(np.unique(branch.triangles[inside]).tolist())
    culled = meshkit.TriMesh(branch.vertices, kept)

    pre_loops = {frozenset(l) for l in meshkit._ordered_boundary_loops(branch)}
    loops = [
        l
        for l in meshkit._ordered_boundary_loops(culled)
        if frozenset(l) not in pre_loops and (set(l) & removed_vertex_set)
    ]

    tree = cKDTree(main.vertices)
    nv_main = main.n_vertices
    verts = np.vstack([main.vertices, branch.vertices])
    tris = [main.triangles, kept + nv_main]

    max_bridge = 0.0
    max_gap = 0.0
    strip = []
    for loop in loops:
        lpts = branch.vertices[loop]
        dist, anchor = tree.query(lpts)
        max_bridge = max(max_bridge, float(dist.max()))
        n = len(loop)
        for i in range(n):
            j = (i + 1) % n
            vi = loop[i] + nv_main
            vj = loop[j] + nv_main
            mi = int(anchor[i])
            mj = int(anchor[j])
            max_gap = max(max_gap, float(np.linalg.norm(main.vertices[mi] - main.vertices[mj])))
            if mi == mj:
                strip.append((vi, vj, mi))
            else:
                strip.append((vi, vj, mj))
                strip.append((vi, mj, mi))
    if strip:
        tris.append(np.asarray(strip, dtype=np.int64))

    merged = meshkit.TriMesh(verts, np.vstack(tris)).clean()
    report = meshkit.JunctionReport(
        removed_triangles=int(inside.sum()),
        bridged_loops=len(loops),
        max_bridge_length_mm=max_bridge,
        residual_gap_mm=max_gap,
    )
    return merged, report


# ---------------------------------------------------------------------------
# inputs


def _assert_same_mesh(got: meshkit.TriMesh, ref: meshkit.TriMesh):
    assert got.vertices.dtype == ref.vertices.dtype and got.triangles.dtype == ref.triangles.dtype
    assert np.array_equal(got.vertices, ref.vertices)
    assert np.array_equal(got.triangles, ref.triangles)


def _single_cell(case: int, on_level: bool) -> Volume:
    """2x2x2 volume whose one cell has the given case index (corner bit set = below iso)."""
    rng = np.random.default_rng(case)
    below = (case >> np.arange(8)) & 1 == 1
    vals = np.where(below, rng.uniform(0.05, 0.45, 8), rng.uniform(0.55, 0.95, 8))
    if on_level:
        # every corner above but one sits exactly on the level: t is a signed zero
        vals[np.flatnonzero(~below)[1:]] = 0.5
    data = np.empty((2, 2, 2), dtype=np.float32)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        data[dz, dy, dx] = vals[bit]
    return Volume(data, (0.7, 1.3, 2.1), (-3.25, 11.5, 0.125))


def _branched():
    spec = phantom.PhantomSpec(
        shape="branched", length_mm=30.0, base_radius_mm=5.0,
        branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=90.0,
        dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0),
    )
    main = phantom.analytic_surface(spec, 48, 48, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 24, 24, caps=False, branch="side")
    return main, branch


def _evaluate_branched(offset):
    """The main tube and side branch that the benchmark's evaluate workload merges."""
    spec = phantom.PhantomSpec(shape="branched", base_radius_mm=5.0, axis_offset_mm=offset,
                               dims=(64, 64, 64), spacing_mm=(0.9, 0.9, 0.9))
    main = phantom.analytic_surface(spec, 64, 64, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 32, 32, caps=False, branch="side")
    return main, branch


def _edge_on_tube():
    """A straight tube turned about its axis until two columns of wall
    triangles are within 1e-8 rad of edge-on to the +x ray (det ~ 1e-9)."""
    spec = phantom.PhantomSpec(shape="straight", length_mm=20.0, base_radius_mm=4.0,
                               dims=(40, 40, 40), spacing_mm=(1.0, 1.0, 1.0))
    mesh = phantom.analytic_surface(spec, 24, 32, caps=True)
    p = mesh.vertices[mesh.triangles[0]]
    n = np.cross(p[1] - p[0], p[2] - p[0])
    turn = np.pi / 2 - 1e-8 - np.arctan2(n[1], n[0])
    c, s = np.cos(turn), np.sin(turn)
    center = mesh.vertices.mean(axis=0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return meshkit.TriMesh((mesh.vertices - center) @ rot.T + center, mesh.triangles)


def _clear_of_surface(points: np.ndarray, mesh: meshkit.TriMesh, gap: float) -> np.ndarray:
    """True for points at least gap from every triangle.

    Conservative: a point is kept when, for every triangle, it lies at
    least gap from the triangle's plane or outside its bounding box grown
    by gap; either bounds the distance to the triangle from below.
    """
    tri = mesh.vertices[mesh.triangles]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    lo, hi = tri.min(axis=1) - gap, tri.max(axis=1) + gap
    keep = np.ones(len(points), dtype=bool)
    for s in range(0, len(points), 256):
        p = points[s : s + 256, None, :]
        near_plane = np.abs(((p - tri[None, :, 0]) * n).sum(axis=2)) < gap
        in_box = ((p >= lo) & (p <= hi)).all(axis=2)
        keep[s : s + 256] = ~(near_plane & in_box).any(axis=1)
    return keep


# ---------------------------------------------------------------------------
# marching cubes


@pytest.mark.parametrize("on_level", [False, True])
def test_marching_cubes_matches_dict_weld_on_every_single_cell_case(on_level):
    for case in range(1, 255):
        vol = _single_cell(case, on_level)
        _assert_same_mesh(meshkit.marching_cubes(vol), _ref_marching_cubes(vol))


def test_cut_edges_are_the_edges_each_case_triangulates():
    # the corner-bit edge mask cuts exactly the edges TRI_TABLE uses, in all 256 cases
    for case in range(256):
        cut = set(np.flatnonzero(meshkit._EDGE_BITS[case]).tolist())
        assert cut == set(TRI_TABLE[case]), case


@pytest.mark.parametrize("shape", phantom.SHAPES)
def test_marching_cubes_matches_dict_weld_on_phantoms(shape):
    vol = phantom.rasterize(phantom.PhantomSpec(shape=shape))
    _assert_same_mesh(meshkit.marching_cubes(vol), _ref_marching_cubes(vol))


def test_marching_cubes_matches_dict_weld_on_noisy_phantom():
    vol = phantom.rasterize(phantom.PhantomSpec(shape="arc", noise_sigma=0.15, seed=3))
    for iso in (0.5, 0.3):
        _assert_same_mesh(meshkit.marching_cubes(vol, iso), _ref_marching_cubes(vol, iso))


def test_marching_cubes_without_cut_cells_is_empty():
    data = np.zeros((1, 4, 4), dtype=np.float32)
    data[0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="empty"):
        meshkit.marching_cubes(Volume(data, (1, 1, 1), (0, 0, 0)))


# ---------------------------------------------------------------------------
# inside test
#
# The array code evaluates Moller-Trumbore as affine functions of the ray
# origin, so its round-off differs from the per-point loop.  A decision can
# therefore differ only for a point within round-off of a triangle's plane,
# where either answer is right (a point on a mesh vertex did differ in
# fuzzing).  Points on the surface are left out for that reason: the random
# points below are kept only at least 1e-6 mm from every triangle.


def _assert_inside_matches_loop_on_centroids(main, branch):
    centroids = branch.vertices[branch.triangles].mean(axis=1)
    got = meshkit.points_inside_mesh(centroids, main)
    assert got.any() and not got.all()
    assert np.array_equal(got, _ref_points_inside_mesh(centroids, main))


def test_inside_matches_loop_on_merge_centroids():
    _assert_inside_matches_loop_on_centroids(*_branched())


@pytest.mark.parametrize("offset", [(0.0, 0.0), (0.64, -0.26), (-0.95, 0.53), (0.21, 0.88), (-0.37, -0.71)])
def test_inside_matches_loop_on_evaluate_merge_centroids(offset):
    _assert_inside_matches_loop_on_centroids(*_evaluate_branched(offset))


def test_inside_matches_loop_on_random_points():
    main, _ = _branched()
    mc = meshkit.marching_cubes(phantom.rasterize(phantom.PhantomSpec(
        shape="straight", length_mm=16.0, base_radius_mm=4.0,
        dims=(32, 32, 32), spacing_mm=(1.0, 1.0, 1.0))))
    rng = np.random.default_rng(11)
    for mesh in (main, mc, _edge_on_tube()):
        lo, hi = mesh.vertices.min(axis=0) - 2.0, mesh.vertices.max(axis=0) + 2.0
        uniform = rng.uniform(lo, hi, size=(600, 3))
        picked = mesh.vertices[rng.choice(mesh.n_vertices, 600)]
        jittered = picked + rng.normal(scale=1e-3, size=picked.shape)
        # the axis ray from these passes through a vertex: every one grazes
        # and takes a fallback direction
        behind = picked - np.outer(rng.uniform(0.5, 3.0, len(picked)), [1.0, 0.0, 0.0])
        pts = np.vstack([uniform, jittered, behind])
        pts = pts[_clear_of_surface(pts, mesh, 1e-6)]
        assert len(pts) > 1500
        got = meshkit.points_inside_mesh(pts, mesh)
        assert got.any() and not got.all()
        assert np.array_equal(got, _ref_points_inside_mesh(pts, mesh))


def test_grown_boxes_hold_every_computed_hit():
    # rays that pass just beyond a corner of a nearly edge-on triangle: the
    # computed barycentrics of some lie in [0, 1] although the exact ones do
    # not, so those points lie outside the triangle's projected box, and the
    # grid must still pair them with it
    mesh = _edge_on_tube()
    tri = mesh.vertices[mesh.triangles]
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    d = np.array([1.0, 0.0, 0.0])
    det = np.einsum("ij,ij->i", e1, np.cross(d, e2))
    ok = np.abs(det) > 1e-12
    edge_on = tri[ok & (np.abs(det) < 1e-6)]
    assert len(edge_on) >= 64
    centre = edge_on.mean(axis=1, keepdims=True)
    beyond = [edge_on + (edge_on - centre) * delta for delta in (1e-9, 1e-8, 1e-7)]
    pts = np.concatenate(beyond).reshape(-1, 3) - [3.0, 0.0, 0.0]

    scale = max(float(np.abs(pts).max()), float(np.abs(v0).max() + np.abs([e1, e2]).max()))
    across, coef, offset, lo, hi = meshkit._ray_triangles(v0, e1, e2, d, scale)
    # every pair, with the arithmetic of _ray_parity
    p, t = np.repeat(np.arange(len(pts)), coef.shape[1]), np.tile(np.arange(coef.shape[1]), len(pts))
    u, v, ray_t = np.einsum("ktj,tj->kt", coef[:, t], pts[p]) - offset[:, t]
    hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (ray_t > 1e-9)
    q = (across @ pts.T)[:, p]
    corners = across @ tri[ok].transpose(0, 2, 1)  # (T, 2, 3)
    in_box = ((corners.min(axis=2).T[:, t] <= q) & (q <= corners.max(axis=2).T[:, t])).all(axis=0)
    in_grown = ((lo[:, t] <= q) & (q <= hi[:, t])).all(axis=0)
    assert (hit & ~in_box).any()
    assert in_grown[hit].all()

    near_edge = hit & ((u < 1e-9) | (v < 1e-9) | (u + v > 1 - 1e-9))
    inside, grazed = meshkit._ray_parity(pts, v0, e1, e2, d)
    assert np.array_equal(inside, np.bincount(p[hit], minlength=len(pts)) % 2 == 1)
    assert np.array_equal(grazed, np.bincount(p[near_edge], minlength=len(pts)) > 0)


def test_inside_evaluates_a_fraction_of_the_pairs(monkeypatch):
    # guards against a silent brute-force fallback: a ray meets only the
    # triangles whose projected box holds its origin's projection
    main, branch = _evaluate_branched((0.0, 0.0))
    centroids = branch.vertices[branch.triangles].mean(axis=1)
    pairs = []
    batches = meshkit._pair_batches

    def counting(base, count):
        for rows, cols in batches(base, count):
            pairs.append(len(rows))
            yield rows, cols

    monkeypatch.setattr(meshkit, "_pair_batches", counting)
    inside = meshkit.points_inside_mesh(centroids, main)
    assert inside.any() and not inside.all()
    assert len(centroids) == 1984
    assert 0 < sum(pairs) < 0.01 * len(centroids) * main.n_triangles


def test_inside_takes_one_point_and_no_points():
    main, _ = _branched()
    center = main.vertices.mean(axis=0)
    assert meshkit.points_inside_mesh(center, main).tolist() == [True]
    assert meshkit.points_inside_mesh(np.zeros((0, 3)), main).shape == (0,)


# ---------------------------------------------------------------------------
# merge bridge


def test_merge_matches_looped_bridge():
    main, branch = _branched()
    merged, report = meshkit.merge_branches(main, branch)
    ref_merged, ref_report = _ref_merge_branches(main, branch)
    _assert_same_mesh(merged, ref_merged)
    assert report == ref_report


@pytest.mark.parametrize("main_res, branch_nv", [(12, 40), (48, 32)])
def test_merge_matches_looped_bridge_on_other_resolutions(main_res, branch_nv):
    # (12, 40): a coarse main tube, so most neighbouring loop vertices share
    # their nearest main vertex and the strip drops the second triangle there;
    # (48, 32): np.linalg.norm(..., axis=1) would move the last bit of the gap
    spec = phantom.PhantomSpec(
        shape="branched", length_mm=30.0, base_radius_mm=5.0,
        branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=90.0,
        dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0),
    )
    main = phantom.analytic_surface(spec, main_res, main_res, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 24, branch_nv, caps=False, branch="side")
    merged, report = meshkit.merge_branches(main, branch)
    ref_merged, ref_report = _ref_merge_branches(main, branch)
    _assert_same_mesh(merged, ref_merged)
    assert report == ref_report
