"""Triangle meshes: container, topology validation, marching cubes, branch merging, I/O.

The validation report is the CFD-readiness gate for reconstructed surfaces:
watertightness here means every edge is shared by exactly two consistently
oriented triangles and no boundary loops remain.
"""

from __future__ import annotations

import re
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._mc_tables import TRI_TABLE
from .volume import Volume

_DEGENERATE_AREA = 1e-12  # mm^2


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh. vertices (N, 3) float64 mm, triangles (T, 3) int."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def clean(self) -> "TriMesh":
        """Drop zero-area (< 1e-12 mm^2) and duplicate triangles."""
        tris = self.triangles
        if not len(tris):
            return self
        keep = self.triangle_areas() >= _DEGENERATE_AREA
        tris = tris[keep]
        # duplicates regardless of cyclic order / winding
        key = np.sort(tris, axis=1)
        _, first = np.unique(key, axis=0, return_index=True)
        tris = tris[np.sort(first)]
        return TriMesh(self.vertices, tris)


def signed_volume(mesh: TriMesh) -> float:
    """Enclosed volume by the divergence theorem; positive for outward normals."""
    p = mesh.vertices[mesh.triangles]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


@dataclass(frozen=True)
class TopologyReport:
    """Edge topology of a triangle mesh.

    A boundary edge is used by one triangle; a boundary loop is one
    connected component of the graph of boundary edges.  A non-manifold
    edge is used by more than two triangles, or by two that traverse it in
    the same direction: an orientation flip across a shared edge counts as
    non-manifold, so ``consistent_orientation == manifold`` by construction.
    """

    watertight: bool
    manifold: bool
    boundary_loop_count: int
    non_manifold_edge_count: int
    euler_characteristic: int
    consistent_orientation: bool
    self_intersection_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def _edge_table(triangles: np.ndarray):
    """Undirected edge table over the 3T directed edges a->b, b->c, c->a in triangle order.

    Returns (directed, edges, first, count, direction): the directed edges
    (3T, 2); the unique sorted endpoint pairs (E, 2); the index in directed
    of each edge's first occurrence; how many directed edges use it; and the
    sum of their directions (+1 for u < v, -1 otherwise).
    """
    directed = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2).reshape(-1, 2)
    # one int64 key per sorted endpoint pair: its order is the pairs' lexicographic order
    n = int(triangles.max(initial=0)) + 1
    ends = np.sort(directed, axis=1)
    key, first, inverse, count = np.unique(
        ends[:, 0] * n + ends[:, 1], return_index=True, return_inverse=True, return_counts=True
    )
    edges = np.stack(np.divmod(key, n), axis=1)
    sign = np.where(directed[:, 0] < directed[:, 1], 1.0, -1.0)
    direction = np.bincount(inverse, weights=sign, minlength=len(key))
    return directed, edges, first, count, direction


def validate(mesh: TriMesh) -> TopologyReport:
    """Classify mesh topology.

    An edge is manifold iff shared by exactly two triangles with opposite
    directed orientation; a shared edge both triangles traverse the same way
    is non-manifold, so orientation is consistent iff the mesh is manifold.
    A boundary loop is one connected component of the boundary-edge graph.
    Watertight requires zero boundary loops and a manifold edge set.
    """
    if mesh.n_triangles == 0:
        raise ValueError("cannot validate an empty mesh")
    _, edges, _, count, direction = _edge_table(mesh.triangles)

    non_manifold = int(((count > 2) | ((count == 2) & (direction != 0))).sum())
    boundary = edges[count == 1]
    loops = 0
    if len(boundary):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        ends, label = np.unique(boundary, return_inverse=True)
        label = label.reshape(-1, 2)
        graph = coo_matrix(
            (np.ones(len(label)), (label[:, 0], label[:, 1])), shape=(len(ends), len(ends))
        )
        loops = int(connected_components(graph, directed=False)[0])
    n_ref_vertices = len(np.unique(mesh.triangles))
    euler = n_ref_vertices - len(edges) + mesh.n_triangles
    manifold = non_manifold == 0
    return TopologyReport(
        watertight=manifold and loops == 0,
        manifold=manifold,
        boundary_loop_count=loops,
        non_manifold_edge_count=non_manifold,
        euler_characteristic=euler,
        consistent_orientation=manifold,
        self_intersection_count=count_self_intersections(mesh),
    )


# ---------------------------------------------------------------------------
# self-intersection counting: uniform-grid broad phase over bounding boxes
# (Baraff 1992) and a batched triangle-triangle interval test (Moller 1997)

_PAIR_CHUNK = 1 << 16  # candidate pairs per batch; bounds the working memory

# Batches are component-major: a triangle batch is (3 vertices, 3 coords, P)
# and a vector batch (3, P), so reductions over a triangle's three vertices
# or coordinates run along the leading axis, element-wise over P.


def _overlapping_pairs(lo: np.ndarray, hi: np.ndarray):
    """Yield (i, j), i < j, of every triangle pair whose closed bboxes overlap, in batches.

    lo and hi are (3, T) box corners.  Each box is entered into every cell
    of a uniform grid (cell edge: the median box extent) that it touches.
    Pairs are formed inside each cell and kept only in the cell that holds
    the low corner of the two boxes' overlap, so every overlapping pair is
    produced exactly once.
    """
    ext = hi - lo
    cell = float(np.median(ext.max(axis=0)))
    if cell <= 0:
        cell = max(float(ext.max()), 1e-9)
    ilo = np.floor(lo / cell).astype(np.int64)
    span = np.floor(hi / cell).astype(np.int64) - ilo + 1
    ilo -= ilo.min(axis=1, keepdims=True)
    _, ny, nz = (ilo + span).max(axis=1)

    # one entry per (box, cell it touches): the flat cell key, and a bit per
    # axis set where the cell is the box's low cell on that axis
    ncell = span.prod(axis=0)
    tri = np.repeat(np.arange(lo.shape[1]), ncell)
    k = np.arange(len(tri)) - np.repeat(np.cumsum(ncell) - ncell, ncell)
    sz = span[2, tri]
    oz = k % sz
    k //= sz
    sy = span[1, tri]
    oy = k % sy
    ox = k // sy
    keys = ((ilo[0] * ny + ilo[1]) * nz + ilo[2])[tri] + (ox * ny + oy) * nz + oz
    low = (ox == 0).astype(np.uint8) | (oy == 0) << 1 | (oz == 0) << 2
    del k, sz, sy, ox, oy, oz
    # the stable sort keeps triangles ascending inside each cell
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    tri = tri[order]
    low = low[order]

    # entry q pairs with the later entries q+1 .. end-1 of its cell.  Both
    # boxes touch the cell, so it holds the low corner of their overlap iff
    # on every axis it is the low cell of one of the two boxes.
    n_partners = np.searchsorted(keys, keys, side="right") - np.arange(1, len(keys) + 1)
    total = np.cumsum(n_partners)
    start = 0
    while start < len(keys):
        done = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, done + _PAIR_CHUNK, side="right")), start + 1)
        cnt = n_partners[start:stop]
        first = np.repeat(np.arange(start, stop), cnt)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        corner = (low[first] | low[second]) == 7
        i = tri[first[corner]]
        j = tri[second[corner]]
        keep = ((lo[:, i] <= hi[:, j]) & (lo[:, j] <= hi[:, i])).all(axis=0)
        yield i[keep], j[keep]
        start = stop


# ordered vertex pairs (a, b), a != b, of a triangle
_PAIR_A = np.array([0, 0, 1, 1, 2, 2])
_PAIR_B = np.array([1, 2, 0, 2, 0, 1])
_NEXT = np.array([1, 2, 0])


def _pick(t: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """t[:, axis[p], p] for a triangle batch t (3, 3, P)."""
    return np.take_along_axis(t, axis[None, None, :], axis=1)[:, 0]


def _crossing_interval(p: np.ndarray, d: np.ndarray):
    """Projection intervals of triangles on their plane-intersection lines.

    p (3, P) are the vertices' coordinates along the line, d (3, P) their
    signed plane distances with small values already zeroed.  Returns
    (lo, hi, ok); ok is False where no interval exists.
    """
    da = d[_PAIR_A]
    db = d[_PAIR_B]
    crosses = ((da > 0) & (db < 0)) | ((da < 0) & (db > 0))
    pa = p[_PAIR_A]
    ts = np.concatenate([pa + (p[_PAIR_B] - pa) * da / np.where(crosses, da - db, 1.0), p])
    on = np.concatenate([crosses, d == 0])
    lo = np.where(on, ts, np.inf).min(axis=0)
    hi = np.where(on, ts, -np.inf).max(axis=0)
    ok = (on.sum(axis=0) >= 2) & d.any(axis=0)
    return lo, hi, ok


def _contains(tri: np.ndarray, pt: np.ndarray) -> np.ndarray:
    """Strict 2D containment of pt (2, P) in tri (3, 2, P); on-edge counts as outside."""
    e = tri[_NEXT] - tri
    w = pt - tri
    cr = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    return (np.abs(cr) >= 1e-14).all(axis=0) & ((cr > 0).all(axis=0) | (cr < 0).all(axis=0))


def _coplanar_tri_tri(t1: np.ndarray, t2: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Overlap of coplanar pairs, projected on the plane that drops n's largest axis.

    A pair overlaps if two of its edges cross at interior points of both,
    or if either triangle contains the other's centroid.
    """
    drop = np.argmax(np.abs(n), axis=0)
    u = np.where(drop == 0, 1, 0)
    v = np.where(drop == 2, 1, 2)
    a = np.stack([_pick(t1, u), _pick(t1, v)], axis=1)
    b = np.stack([_pick(t2, u), _pick(t2, v)], axis=1)

    # all nine edge pairs, indexed [edge of a, edge of b, coordinate, pair]
    r = (a[_NEXT] - a)[:, None]
    s = (b[_NEXT] - b)[None, :]
    qp = b[None, :] - a[:, None]
    denom = r[:, :, 0] * s[:, :, 1] - r[:, :, 1] * s[:, :, 0]
    ok = np.abs(denom) >= 1e-14
    denom = np.where(ok, denom, 1.0)
    t = (qp[:, :, 0] * s[:, :, 1] - qp[:, :, 1] * s[:, :, 0]) / denom
    w = (qp[:, :, 0] * r[:, :, 1] - qp[:, :, 1] * r[:, :, 0]) / denom
    inner = ok & (1e-9 < t) & (t < 1 - 1e-9) & (1e-9 < w) & (w < 1 - 1e-9)

    ca = (a[0] + a[1] + a[2]) / 3.0
    cb = (b[0] + b[1] + b[2]) / 3.0
    return inner.any(axis=(0, 1)) | _contains(a, cb) | _contains(b, ca)


def _tri_tri_intersect(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Moller's interval test on (3, 3, P) batches of triangle pairs.

    Plane distances below 1e-10 of the larger of 1 and the triangle's
    largest distance count as zero; a pair with every distance zero takes
    the coplanar test.  Shared-vertex pairs are filtered by the caller.
    """
    eps = 1e-10
    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0], axis=0)
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0], axis=0)
    dv = ((t1 - t2[0]) * n2).sum(axis=1)
    du = ((t2 - t1[0]) * n1).sum(axis=1)
    # a triangle strictly on one side of the other's plane cannot touch it
    sep = (dv > 1e-12).all(axis=0) | (dv < -1e-12).all(axis=0)
    sep |= (du > 1e-12).all(axis=0) | (du < -1e-12).all(axis=0)
    hit = np.zeros(t1.shape[2], dtype=bool)
    live = np.flatnonzero(~sep)
    t1, t2, n1, n2, dv, du = (x[..., live] for x in (t1, t2, n1, n2, dv, du))
    dv[np.abs(dv) < eps * np.maximum(np.abs(dv).max(axis=0), 1.0)] = 0.0
    du[np.abs(du) < eps * np.maximum(np.abs(du).max(axis=0), 1.0)] = 0.0

    coplanar = ~dv.any(axis=0) & ~du.any(axis=0)
    cop = np.flatnonzero(coplanar)
    hit[live[cop]] = _coplanar_tri_tri(t1[..., cop], t2[..., cop], n1[:, cop])

    gen = np.flatnonzero(~coplanar)
    t1, t2, dv, du = (x[..., gen] for x in (t1, t2, dv, du))
    axis = np.argmax(np.abs(np.cross(n1[:, gen], n2[:, gen], axis=0)), axis=0)
    lo1, hi1, ok1 = _crossing_interval(_pick(t1, axis), dv)
    lo2, hi2, ok2 = _crossing_interval(_pick(t2, axis), du)
    span = np.maximum(np.maximum(np.abs(hi1 - lo1), np.abs(hi2 - lo2)), 1.0)
    overlap = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
    hit[live[gen]] = ok1 & ok2 & (overlap > eps * span)
    return hit


def count_self_intersections(mesh: TriMesh) -> int:
    """Number of triangle pairs that properly intersect (shared-vertex pairs excluded).

    Known behaviour: two triangles that meet along a whole edge without
    sharing vertex indices (an unwelded seam) count 0 when they are coplanar
    and 1 when they are folded out of plane.
    """
    tris = mesh.triangles
    if len(tris) < 2:
        return 0
    p = np.ascontiguousarray(mesh.vertices[tris].transpose(1, 2, 0))
    corners = np.ascontiguousarray(tris.T)
    count = 0
    for i, j in _overlapping_pairs(p.min(axis=0), p.max(axis=0)):
        # shared-vertex pairs are adjacency, not intersections
        shares = (corners[:, None, i] == corners[None, :, j]).any(axis=(0, 1))
        count += int(_tri_tri_intersect(p[..., i[~shares]], p[..., j[~shares]]).sum())
    return count


# ---------------------------------------------------------------------------
# lofting helper shared by phantom surfaces and NURBS tessellation


def loft_rings(rings: np.ndarray, caps: bool) -> TriMesh:
    """Mesh a stack of closed rings into a tube.

    rings has shape (nu, nv, 3) with each ring ordered counter-clockwise
    about the direction of increasing u, which makes the winding here point
    outward.  Optional triangle-fan caps close the two ends at the ring
    centroids.
    """
    rings = np.asarray(rings, dtype=np.float64)
    nu, nv, _ = rings.shape
    if nu < 2 or nv < 3:
        raise ValueError("need at least 2 rings of 3 points to loft")
    verts = rings.reshape(nu * nv, 3)
    j = np.arange(nv)
    j2 = (j + 1) % nv
    # two wall triangles per quad, interleaved per (ring i, column j)
    base = np.arange(nu - 1)[:, None] * nv
    a, b, c, d = base + j, base + j2, base + nv + j2, base + nv + j
    tris = [np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)]
    if caps:
        c0 = rings[0].mean(axis=0)
        c1 = rings[-1].mean(axis=0)
        verts = np.vstack([verts, c0[None, :], c1[None, :]])
        a0 = np.full(nv, nu * nv)
        start = (nu - 1) * nv
        # the two fans interleaved per column j
        tris.append(np.stack([a0, j2, j, a0 + 1, start + j, start + j2], axis=-1).reshape(-1, 3))
    return TriMesh(verts, np.concatenate(tris))


# ---------------------------------------------------------------------------
# marching cubes

# cell-local edge -> (corner a, corner b) in the classic corner layout
_EDGE_CORNERS = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)
# corner -> (dx, dy, dz) offsets from the cell's low corner
_CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)
# (256, 12): edge e of case c is cut when its corners (a, b) lie on opposite
# sides of the iso-level, ((c >> a) ^ (c >> b)) & 1
_EDGE_BITS = np.bitwise_xor(*(np.arange(256)[:, None] >> np.array(_EDGE_CORNERS).T[:, None])) & 1
# TRI_TABLE rows padded with -1 to one (256, 15) array
_TRI_PAD = np.array([row + [-1] * (15 - len(row)) for row in TRI_TABLE], dtype=np.int64)
_CORNER_XYZ = np.array(_CORNER_OFFSETS)[np.array(_EDGE_CORNERS)]  # (edge, end a/b, xyz)
# global edge key (axis, x, y, z) per cell-local edge, offsets from the cell's low corner
_EDGE_KEYS = np.column_stack(
    [np.argmax(_CORNER_XYZ[:, 0] != _CORNER_XYZ[:, 1], axis=1), _CORNER_XYZ.min(axis=1)]
)


def marching_cubes(vol: Volume, iso: float = 0.5) -> TriMesh:
    """Standard 256-case marching cubes with linear edge interpolation.

    Vertices are produced in world coordinates and welded by global edge
    key, so the result is vertex-shared.  Triangles are wound outward for
    superlevel-set ({value >= iso}) interiors.  No ambiguity resolution is
    applied.  Vertices are numbered by the first (active cell, cut edge)
    pair that uses them, cells in C order and edges 0..11 within a cell.
    """
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
    if not len(active):
        raise ValueError("iso-surface is empty")
    cases = ci[tuple(active.T)]
    # (active cell, cut edge) pairs, cell-major and edge-minor
    cell, edge = np.nonzero(_EDGE_BITS[cases])
    xyz = active[cell, ::-1]
    ax = _EDGE_KEYS[edge, 0]
    gx, gy, gz = (xyz + _EDGE_KEYS[edge, 1:]).T
    _, first, inverse = np.unique(
        ((ax * nx + gx) * ny + gy) * nz + gz, return_index=True, return_inverse=True
    )
    # number the vertices by first occurrence
    order = np.argsort(first)
    vid = np.argsort(order)[inverse]
    src = first[order]
    ia = xyz[src, None] + _CORNER_XYZ[edge[src]]  # (V, end a/b, xyz)
    va, vb = data[ia[..., 2], ia[..., 1], ia[..., 0]].T
    t = np.clip((iso - va) / (vb - va), 0.0, 1.0)[:, None]
    ia = ia.astype(np.float64)
    origin = np.asarray(vol.origin, dtype=np.float64)
    spacing = np.asarray(vol.spacing, dtype=np.float64)
    verts = origin + (ia[:, 0] + t * (ia[:, 1] - ia[:, 0])) * spacing

    local = np.full((len(active), 12), -1, dtype=np.int64)
    local[cell, edge] = vid
    tt = _TRI_PAD[cases]
    tris = np.take_along_axis(local, np.maximum(tt, 0), axis=1)[tt >= 0].reshape(-1, 3)
    return TriMesh(verts, tris).clean()


# ---------------------------------------------------------------------------
# inside test and branch merging


# axis ray first, then fixed fallback directions for grazing hits
_RAY_DIRS = np.array([[1.0, 0.0, 0.0], [0.12905, 0.98237, 0.13471],
                      [-0.33296, 0.54713, 0.76804], [0.57735, -0.57735, 0.57735]])


def _ray_parity(pts: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray, d: np.ndarray):
    """Moller-Trumbore (inside, grazed) per point for rays from pts (P, 3) along d.

    For a fixed ray, u = s.(d x e2)/det, v = s.(e1 x d)/det and the ray
    parameter t = s.(e1 x e2)/det are affine in s = p - v0, so all points
    take three matrix products, _PAIR_CHUNK point-triangle pairs at a time.
    A ray grazes where a hit lies within 1e-9 of a triangle edge.
    """
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    coef = np.stack([h, np.cross(e1, d), np.cross(e1, e2)])[:, ok] / det[ok, None]  # (3, T, 3)
    offset = np.einsum("ktj,tj->kt", coef, v0[ok])
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))  # (3, 3, T)
    inside = np.zeros(len(pts), dtype=bool)
    grazed = np.zeros(len(pts), dtype=bool)
    step = max(1, _PAIR_CHUNK // max(int(ok.sum()), 1))
    for lo in range(0, len(pts), step):
        p = pts[lo : lo + step]
        u, v, t = (p @ coef[k] - offset[k] for k in range(3))
        hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
        inside[lo : lo + step] = hit.sum(axis=1) % 2 == 1
        grazed[lo : lo + step] = (hit & ((u < 1e-9) | (v < 1e-9) | (u + v > 1 - 1e-9))).any(axis=1)
    return inside, grazed


def points_inside_mesh(points: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Ray-parity containment test with deterministic perturbation on grazing hits.

    Points whose ray grazes a triangle edge are retried along the next
    fixed direction; a point that grazes on every direction keeps the last
    direction's parity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    tri = mesh.vertices[mesh.triangles]
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    out = np.zeros(len(pts), dtype=bool)
    pending = np.arange(len(pts))
    for d in _RAY_DIRS:
        inside, grazed = _ray_parity(pts[pending], v0, e1, e2, d / np.linalg.norm(d))
        out[pending] = inside
        pending = pending[grazed]
        if not len(pending):
            break
    return out


def _ordered_boundary_loops(mesh: TriMesh) -> list[list[int]]:
    """Boundary loops as ordered vertex index lists (consistent winding assumed)."""
    directed, _, first, count, _ = _edge_table(mesh.triangles)
    # boundary loop runs opposite to the lone interior edge direction; where
    # two lone edges end at one vertex the later one wins
    lone = directed[np.sort(first[count == 1])]
    nxt = dict(zip(lone[:, 1].tolist(), lone[:, 0].tolist()))
    loops = []
    seen = set()
    for start in sorted(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start and cur not in seen:
            loop.append(cur)
            seen.add(cur)
            cur = nxt.get(cur)
            if cur is None:
                break
        if cur == start and len(loop) >= 3:
            loops.append(loop)
    return loops


@dataclass(frozen=True)
class JunctionReport:
    removed_triangles: int
    bridged_loops: int
    max_bridge_length_mm: float
    residual_gap_mm: float

    def to_dict(self) -> dict:
        return asdict(self)


def merge_branches(main: TriMesh, branch: TriMesh) -> tuple[TriMesh, JunctionReport]:
    """Cull the branch triangles inside the main tube and bridge the cut to it.

    Branch triangles whose centroids lie inside the main surface (ray
    parity) are removed; each boundary loop opened by the cull is connected
    to its vertex-wise nearest points on the main mesh by a triangle strip.
    The union is connected but explicitly not guaranteed watertight.
    """
    from scipy.spatial import cKDTree

    centroids = branch.vertices[branch.triangles].mean(axis=1)
    inside = points_inside_mesh(centroids, main)
    if inside.all():
        raise ValueError("branch lies entirely inside the main mesh")
    if not inside.any():
        raise ValueError("branch does not intersect the main mesh")

    kept = branch.triangles[~inside]
    removed_vertex_set = set(np.unique(branch.triangles[inside]).tolist())
    culled = TriMesh(branch.vertices, kept)

    pre_loops = {frozenset(l) for l in _ordered_boundary_loops(branch)}
    loops = [
        l
        for l in _ordered_boundary_loops(culled)
        if frozenset(l) not in pre_loops and (set(l) & removed_vertex_set)
    ]

    tree = cKDTree(main.vertices)
    nv_main = main.n_vertices
    verts = np.vstack([main.vertices, branch.vertices])
    tris = [main.triangles, kept + nv_main]

    max_bridge = 0.0
    max_gap = 0.0
    for loop in loops:
        dist, mi = tree.query(branch.vertices[loop])
        max_bridge = max(max_bridge, float(dist.max()))
        mj = np.roll(mi, -1)
        gap = main.vertices[mi] - main.vertices[mj]
        # row-wise dot products, as np.linalg.norm of one vector takes them;
        # norm(..., axis=1) sums the squares in another order
        max_gap = max(max_gap, float(np.sqrt(gap[:, None] @ gap[:, :, None]).max()))
        # per loop edge (vi, vj): triangle (vi, vj, mj), then (vi, mj, mi) unless mi == mj
        vi = np.asarray(loop, dtype=np.int64) + nv_main
        pair = np.stack([vi, np.roll(vi, -1), mj, vi, mj, mi], axis=1).reshape(-1, 2, 3)
        keep = np.ones((len(vi), 2), dtype=bool)
        keep[:, 1] = mi != mj
        tris.append(pair[keep])

    merged = TriMesh(verts, np.vstack(tris)).clean()
    report = JunctionReport(
        removed_triangles=int(inside.sum()),
        bridged_loops=len(loops),
        max_bridge_length_mm=max_bridge,
        residual_gap_mm=max_gap,
    )
    return merged, report


# ---------------------------------------------------------------------------
# file formats

# a line whose first whitespace-separated token is the key, taken whole
_OBJ_LINES = {key: re.compile(rf"\n([^\S\n]*{key}(?!\S).*)") for key in "vf"}
# an index token keeps its text up to the first "/"; a bare "/x" stays and fails
_INDEX_TAIL = re.compile(r"/(?<=\S/)\S*")


def write_obj(mesh: TriMesh, path) -> None:
    """ASCII OBJ, 9 significant digits, 1-based face indices."""
    v, t = mesh.vertices, mesh.triangles + 1
    text = ("v %.9g %.9g %.9g\n" * len(v)) % tuple(v.ravel().tolist())
    text += ("f %d %d %d\n" * len(t)) % tuple(t.ravel().tolist())
    Path(path).write_text(text or "\n")


def read_obj(path) -> TriMesh:
    """ASCII OBJ: the first three values of each ``v`` and ``f`` line.

    A face index keeps only its vertex part (``f a/b/c``, ``f a//c``); all
    other lines are ignored.  A ``v`` or ``f`` line with fewer than three
    values raises ``ValueError``.
    """
    # every line break of str.splitlines becomes "\n", and one leads the text
    text = "\n" + "\n".join(Path(path).read_text().splitlines())
    rows = {key: pattern.findall(text) for key, pattern in _OBJ_LINES.items()}
    if not rows["v"] or not rows["f"]:
        raise ValueError(f"no mesh data in {path}")
    faces = _INDEX_TAIL.sub("", "\n".join(rows["f"])).split("\n")
    try:
        verts = np.loadtxt(rows["v"], usecols=(1, 2, 3), comments=None, ndmin=2)
        tris = np.loadtxt(faces, dtype=np.int64, usecols=(1, 2, 3), comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"bad v or f line in {path}: {exc}") from exc
    return TriMesh(verts, tris - 1)


# one binary STL record: facet normal, three vertices, attribute byte count
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])


def write_stl(mesh: TriMesh, path) -> None:
    """Binary little-endian STL: 80-byte header, uint32 count, 50 bytes/triangle."""
    p = mesh.vertices[mesh.triangles].astype("<f4")
    n = np.cross(
        p[:, 1].astype(np.float64) - p[:, 0].astype(np.float64),
        p[:, 2].astype(np.float64) - p[:, 0].astype(np.float64),
    )
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    records = np.zeros(mesh.n_triangles, dtype=_STL_RECORD)
    records["normal"] = np.where(norm > 0, n / np.where(norm > 0, norm, 1.0), 0.0)
    records["vertices"] = p
    with open(path, "wb") as f:
        f.write(b"vesselmesh binary stl".ljust(80, b"\0"))
        f.write(struct.pack("<I", mesh.n_triangles))
        f.write(records.tobytes())


def read_stl(path) -> TriMesh:
    raw = Path(path).read_bytes()
    if len(raw) < 84:
        raise ValueError("truncated STL file")
    (count,) = struct.unpack_from("<I", raw, 80)
    expected = 84 + _STL_RECORD.itemsize * count
    if len(raw) != expected:
        raise ValueError(f"STL length {len(raw)} != expected {expected} for {count} triangles")
    records = np.frombuffer(raw, dtype=_STL_RECORD, count=count, offset=84)
    flat = records["vertices"].astype(np.float64).reshape(-1, 3)
    uniq, inv = np.unique(flat, axis=0, return_inverse=True)
    return TriMesh(uniq, inv.reshape(-1, 3).astype(np.int64))
