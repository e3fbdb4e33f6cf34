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
        # the terms of the cross product and its norm as np.cross and
        # np.linalg.norm form them, one coordinate array at a time
        x, y, z = self.vertices.T
        a, b, c = self.triangles.T
        ux, uy, uz = x[b] - x[a], y[b] - y[a], z[b] - z[a]
        vx, vy, vz = x[c] - x[a], y[c] - y[a], z[c] - z[a]
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        return 0.5 * np.sqrt((nx * nx + ny * ny) + nz * nz)

    def clean(self) -> "TriMesh":
        """Drop zero-area (< 1e-12 mm^2) and duplicate triangles."""
        tris = self.triangles
        if not len(tris):
            return self
        tris = tris[self.triangle_areas() >= _DEGENERATE_AREA]
        # duplicates regardless of cyclic order / winding: equal sorted corners
        a, b, c = tris.T
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        mid = a + b + c - lo - hi
        # the first of each run of equal rows in a stable sort: np.unique's first indices
        order = np.lexsort((hi, mid, lo))
        lo, mid, hi = lo[order], mid[order], hi[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (mid[1:] != mid[:-1]) | (hi[1:] != hi[:-1])
        return TriMesh(self.vertices, tris[np.sort(order[first])])


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
    u, v = directed.T
    key, first, inverse, count = np.unique(
        np.minimum(u, v) * n + np.maximum(u, v), return_index=True, return_inverse=True, return_counts=True
    )
    edges = np.stack(np.divmod(key, n), axis=1)
    sign = np.where(u < v, 1.0, -1.0)
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
    n_ref_vertices = int(np.count_nonzero(np.bincount(mesh.triangles.ravel())))
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

_PAIR_CHUNK = 1 << 14  # candidate pairs per batch; bounds the working memory

# Triangles are component-major, p (3 vertices, 3 coords, T) and normals
# (3, T), so that each p[k, c] is one contiguous row: a batch of pairs
# gathers 1-D rows, which costs less than gathering columns of (3, T) arrays.


def _median_cell(ext: np.ndarray) -> float:
    """Grid cell edge for boxes of extents ext (D, N): the median box extent."""
    cell = float(np.median(ext.max(axis=0))) if ext.size else 0.0
    if cell <= 0:
        cell = max(float(ext.max(initial=0.0)), 1e-9)
    return cell


def _grid_entries(ilo: np.ndarray, span: np.ndarray, dims):
    """One entry per (box, grid cell it touches), box by box.

    ilo and span are (D, N) integer boxes: box n covers cells ilo[a, n] ..
    ilo[a, n] + span[a, n] - 1 on each axis a of a grid of dims cells (a
    span of 0 covers none).  Returns (box, key, low): each entry's box, the
    flat C-order key of its cell, and a bit per axis, 1 << a, set where the
    cell is the box's low cell on axis a.  The caller orders them.
    """
    strides = np.array([np.prod(dims[a + 1:], dtype=np.int64) for a in range(len(dims))])
    ncell = span.prod(axis=0)
    box = np.repeat(np.arange(ilo.shape[1]), ncell)
    k = np.arange(len(box))
    k -= np.repeat(np.cumsum(ncell) - ncell, ncell)
    key = (strides @ ilo)[box]
    low = np.zeros(len(box), dtype=np.uint8)
    o = np.empty_like(k)
    # the last axis runs fastest through a box's cells
    for a in range(len(dims) - 1, 0, -1):
        np.divmod(k, span[a][box], out=(k, o))
        low |= (o == 0).view(np.uint8) << a
        o *= strides[a]
        key += o
    low |= (k == 0).view(np.uint8)
    k *= strides[0]
    key += k
    return box, key, low


# The entries of a cell are sorted by the rank of their low bits, in the
# order _LOW_ORDER.  An entry pairs with the entries after it in its cell
# whose bits complete its own to 7; in this order those are the ranks
# _FROM[rank] .. _TO[rank] - 1 (7, which pairs with every entry, comes first).
_LOW_ORDER = np.array([7, 0, 1, 2, 4, 3, 6, 5])
_RANK = np.argsort(_LOW_ORDER)
_FROM = np.array([0, 8, 6, 7, 5, 6, 7, 8])
_TO = np.array([8, 8, 7, 8, 6, 8, 8, 8])

# grid entries allowed per box before the cell edge doubles
_ENTRIES_PER_BOX = 8


def _grid_rows(lo: np.ndarray, hi: np.ndarray):
    """The grid entries of the boxes lo, hi (3, T) in cell order, and whom each pairs with.

    Each box is entered into every cell of a uniform grid that it touches.
    The cell edge starts at the median box extent and doubles until the
    boxes touch at most _ENTRIES_PER_BOX cells each on average, so a few
    boxes far larger than the rest cannot multiply the entries.  Returns
    (tri, first, count): entry e is triangle tri[e], and it pairs with the
    entries first[e] .. first[e] + count[e] - 1.
    """
    # cell key, rank and triangle pack into one int64 that np.sort orders;
    # at most about 2^side cells a side keep it below 2^63
    bits = max(lo.shape[1] - 1, 1).bit_length()
    side = (58 - bits) // 3
    cell = max(_median_cell(hi - lo), float((hi.max(axis=1) - lo.min(axis=1)).max()) * 2.0**-side)
    while True:
        ilo = np.floor(lo / cell).astype(np.int64)
        span = np.floor(hi / cell).astype(np.int64) - ilo + 1
        if span.prod(axis=0).sum() <= _ENTRIES_PER_BOX * lo.shape[1]:
            break
        cell *= 2.0
    ilo -= ilo.min(axis=1, keepdims=True)
    tri, key, low = _grid_entries(ilo, span, (ilo + span).max(axis=1))
    key *= 8
    key += _RANK[low]
    key <<= bits
    key |= tri
    key.sort()
    np.bitwise_and(key, (1 << bits) - 1, out=tri)
    key >>= bits

    # row 9c + r of start: the first entry of the c-th cell with rank r or
    # more (r = 8: the cell's end)
    rank = key & 7
    row = np.zeros(len(key), dtype=np.int64)
    key >>= 3
    np.cumsum(key[1:] != key[:-1], out=row[1:])
    row *= 9
    start = np.cumsum(np.bincount(row + rank + 1, minlength=row[-1] + 9))
    first = np.maximum(start[row + _FROM[rank]], np.arange(1, len(key) + 1))
    count = start[row + _TO[rank]]
    count -= first
    np.maximum(count, 0, out=count)
    return tri, first, count


def _grid_pairs(lo: np.ndarray, hi: np.ndarray):
    """Yield (i, j) of every triangle pair whose boxes touch a common grid cell, once, in batches.

    lo and hi are (3, T) box corners, entered into a grid by _grid_rows.  A
    pair is formed only in the low corner of the cells both boxes touch:
    the cell where, on every axis, one of the two boxes starts.  So every
    pair of overlapping closed boxes is produced exactly once, with i and j
    in either order.  Only the entries' triangles and pair ranges stay
    alive between batches.
    """
    tri, first, count = _grid_rows(lo, hi)
    for rows, cols in _pair_batches(first, count):
        yield tri[rows], tri[cols]


def _pair_batches(base: np.ndarray, count: np.ndarray):
    """Yield (rows, cols): row r pairs with cols base[r] .. base[r] + count[r] - 1.

    Batches hold whole rows, about _PAIR_CHUNK pairs each (one row at least).
    """
    total = np.cumsum(count)
    start = 0
    while start < len(count):
        done = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, done + _PAIR_CHUNK, side="right")), start + 1)
        cnt = count[start:stop]
        rows = np.repeat(np.arange(start, stop), cnt)
        yield rows, np.repeat(base[start:stop] - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(rows))
        start = stop


# relative tolerance of the narrow phase: plane distances below it (times
# the larger of 1 and the triangle's largest distance) count as zero, and
# intervals must overlap by more than it (times the larger of 1 and the
# longer interval)
_EPS = 1e-10

# ordered vertex pairs (a, b), a != b, of a triangle
_PAIR_A = np.array([0, 0, 1, 1, 2, 2])
_PAIR_B = np.array([1, 2, 0, 2, 0, 1])


def _crossing_interval(p: np.ndarray, d: np.ndarray):
    """Projection intervals of triangles on their plane-intersection lines.

    p (3, P) are the vertices' coordinates along the line, d (3, P) their
    signed plane distances with small values already zeroed.  Every
    triangle straddles the plane (see _sides).  Returns (lo, hi).
    """
    da = d[_PAIR_A]
    db = d[_PAIR_B]
    crosses = ((da > 0) & (db < 0)) | ((da < 0) & (db > 0))
    pa = p[_PAIR_A]
    ts = np.concatenate([pa + (p[_PAIR_B] - pa) * da / np.where(crosses, da - db, 1.0), p])
    on = np.concatenate([crosses, d == 0])
    return np.where(on, ts, np.inf).min(axis=0), np.where(on, ts, -np.inf).max(axis=0)


def _contains(tri, edge, pt) -> np.ndarray:
    """Strict 2D containment of pt (x, y) in the triangles tri (three (x, y)
    vertices) with edges edge; on-edge counts as outside."""
    cr = [e[0] * (pt[1] - v[1]) - e[1] * (pt[0] - v[0]) for v, e in zip(tri, edge)]
    return ((np.abs(cr[0]) >= 1e-14) & (np.abs(cr[1]) >= 1e-14) & (np.abs(cr[2]) >= 1e-14)
            & (((cr[0] > 0) & (cr[1] > 0) & (cr[2] > 0)) | ((cr[0] < 0) & (cr[1] < 0) & (cr[2] < 0))))


def _coplanar_tri_tri(p: np.ndarray, n: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Overlap of the coplanar pairs (i, j), projected on the plane that drops the largest axis of n_i.

    A pair overlaps if two of its edges cross at interior points of both,
    or if either triangle contains the other's centroid.
    """
    drop = np.argmax(np.abs(n[:, i]), axis=0)
    u = np.where(drop == 0, 1, 0)
    v = np.where(drop == 2, 1, 2)
    a = [(p[k][u, i], p[k][v, i]) for k in range(3)]
    b = [(p[k][u, j], p[k][v, j]) for k in range(3)]
    r = [(a[(k + 1) % 3][0] - a[k][0], a[(k + 1) % 3][1] - a[k][1]) for k in range(3)]
    s = [(b[(k + 1) % 3][0] - b[k][0], b[(k + 1) % 3][1] - b[k][1]) for k in range(3)]
    hit = np.zeros(len(i), dtype=bool)
    for ak, (rx, ry) in zip(a, r):
        for bk, (sx, sy) in zip(b, s):
            qx = bk[0] - ak[0]
            qy = bk[1] - ak[1]
            denom = rx * sy - ry * sx
            ok = np.abs(denom) >= 1e-14
            denom = np.where(ok, denom, 1.0)
            t = (qx * sy - qy * sx) / denom
            w = (qx * ry - qy * rx) / denom
            hit |= ok & (1e-9 < t) & (t < 1 - 1e-9) & (1e-9 < w) & (w < 1 - 1e-9)
    ca = [(a[0][c] + a[1][c] + a[2][c]) / 3.0 for c in range(2)]
    cb = [(b[0][c] + b[1][c] + b[2][c]) / 3.0 for c in range(2)]
    return hit | _contains(a, r, cb) | _contains(b, s, ca)


def _plane_distances(p: np.ndarray, n: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(3, P): n_j . (v - p_j0) for the vertices v of triangles i, from 1-D gathers."""
    q = [p[0, c][j] for c in range(3)]
    m = [n[c][j] for c in range(3)]
    return np.stack([(p[k, 0][i] - q[0]) * m[0] + (p[k, 1][i] - q[1]) * m[1] + (p[k, 2][i] - q[2]) * m[2]
                     for k in range(3)])


def _sides(d: np.ndarray):
    """How triangles lie against the other triangles' planes, from their plane distances d (3, P).

    A distance below _EPS times the larger of 1 and the triangle's largest
    distance counts as zero.  Returns (tol, apart, flat, straddles): that
    bound; where the triangle lies strictly on one side of the plane
    (every distance above 1e-12, or every one below -1e-12), so cannot
    touch it; where every distance is zero; and where the triangle meets
    the plane along an interval: vertices on both sides, or exactly two on it.
    """
    lo = np.minimum(np.minimum(d[0], d[1]), d[2])
    hi = np.maximum(np.maximum(d[0], d[1]), d[2])
    big = np.maximum(hi, -lo)
    tol = _EPS * np.maximum(big, 1.0)
    zeros = (np.abs(d[0]) < tol).view(np.uint8) + (np.abs(d[1]) < tol).view(np.uint8)
    zeros += (np.abs(d[2]) < tol).view(np.uint8)
    straddles = ((hi >= tol) & (lo <= -tol)) | (zeros == 2)
    return tol, (lo > 1e-12) | (hi < -1e-12), big < tol, straddles


def _tri_tri_intersect(p: np.ndarray, n: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Moller's interval test on the triangle pairs (i, j) of p (3 vertices, 3 coords, T).

    n (3, T) are the triangles' normals.  A pair with every plane distance
    zero (see _sides) takes the coplanar test; any other pair has an
    interval on the line of both planes only where each triangle straddles
    the other's plane, and only those pairs compare intervals.
    Shared-vertex pairs are filtered by the caller.
    """
    hit = np.zeros(len(i), dtype=bool)
    dv = _plane_distances(p, n, i, j)
    du = _plane_distances(p, n, j, i)
    tol_v, apart_v, flat_v, straddles_v = _sides(dv)
    tol_u, apart_u, flat_u, straddles_u = _sides(du)
    near = ~(apart_v | apart_u)
    # a batch often has no pair of a kind, and each test costs about a
    # hundred numpy calls even on empty input
    cop = np.flatnonzero(near & flat_v & flat_u)
    if len(cop):
        hit[cop] = _coplanar_tri_tri(p, n, i[cop], j[cop])

    g = np.flatnonzero(near & straddles_v & straddles_u)
    if not len(g):
        return hit
    ig, jg = i[g], j[g]
    dv, du = dv[:, g], du[:, g]
    dv = np.where(np.abs(dv) < tol_v[g], 0.0, dv)
    du = np.where(np.abs(du) < tol_u[g], 0.0, du)
    axis = np.argmax(np.abs(np.cross(n[:, ig], n[:, jg], axis=0)), axis=0)
    lo1, hi1 = _crossing_interval(p[:, axis, ig], dv)
    lo2, hi2 = _crossing_interval(p[:, axis, jg], du)
    span = np.maximum(np.maximum(np.abs(hi1 - lo1), np.abs(hi2 - lo2)), 1.0)
    hit[g] = np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > _EPS * span
    return hit


def count_self_intersections(mesh: TriMesh) -> int:
    """Number of triangle pairs that properly intersect (shared-vertex pairs excluded).

    Candidate pairs come from a uniform grid over the triangles' boxes with
    at most 8 entries per box on average (see _grid_rows), and are tested
    _PAIR_CHUNK at a time, so the working memory grows with the number of
    triangles, not with the size of the largest one.
    Raises ValueError naming the first non-finite vertex a triangle uses.
    Known behaviour: two triangles that meet along a whole edge without
    sharing vertex indices (an unwelded seam) count 0 when they are coplanar
    and 1 when they are folded out of plane.
    """
    tris = mesh.triangles
    p = np.ascontiguousarray(mesh.vertices[tris].transpose(1, 2, 0))
    finite = np.isfinite(p).all(axis=1)
    if not finite.all():
        k = int(tris.T[~finite].min())
        raise ValueError(f"vertex {k} is not finite: {mesh.vertices[k].tolist()}")
    if len(tris) < 2:
        return 0
    n = np.cross(p[1] - p[0], p[2] - p[0], axis=0)
    corners = np.ascontiguousarray(tris.T)
    lo, hi = p.min(axis=0), p.max(axis=0)
    count = 0
    for i, j in _grid_pairs(lo, hi):
        # shared-vertex pairs are adjacency, not intersections
        cj = [corners[b][j] for b in range(3)]
        shares = np.zeros(len(i), dtype=bool)
        for a in range(3):
            ci = corners[a][i]
            for c in cj:
                shares |= ci == c
        i, j = i[~shares], j[~shares]
        keep = (lo[0][i] <= hi[0][j]) & (lo[0][j] <= hi[0][i])
        for a in (1, 2):
            keep &= (lo[a][i] <= hi[a][j]) & (lo[a][j] <= hi[a][i])
        i, j = i[keep], j[keep]
        # the pair test is not symmetric: the lower index goes first
        count += int(_tri_tri_intersect(p, n, np.minimum(i, j), np.maximum(i, j)).sum())
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
    data = vol.data
    if not (float(data.min()) < iso < float(data.max())):
        raise ValueError(f"iso {iso} outside data range [{data.min()}, {data.max()}]")
    nx, ny, nz = vol.dims
    # compared in float64, as iso is, without a float64 copy of the volume
    below = np.less(data, iso, signature=(np.float64, np.float64, np.bool_))

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
    va, vb = data[ia[..., 2], ia[..., 1], ia[..., 0]].T.astype(np.float64)
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


# generous multiple of the unit round-off 2^-53 in the bound of _ray_triangles
_ROUNDOFF = 2.0 ** -44


def _ray_triangles(v0: np.ndarray, e1: np.ndarray, e2: np.ndarray, d: np.ndarray, scale: float):
    """Per-ray data of the triangles not edge-on to d (|det| > 1e-12).

    For a fixed ray, u = s.(d x e2)/det, v = s.(e1 x d)/det and the ray
    parameter t = s.(e1 x e2)/det are affine in s = p - v0: u, v, t =
    coef @ p - offset, with coef (3, T, 3) and offset (3, T).  u and v are
    the barycentrics of p's projection along d in the triangle's projection.
    Returns (across, coef, offset, lo, hi): across (2, 3) spans the plane
    across d, and lo, hi (2, T) are the triangles' boxes in that plane.

    Each box is grown by a bound on the round-off of the computed u and v,
    for points and vertices with coordinates of at most ``scale`` mm.  The
    bound grows as |det| shrinks (the triangle turns edge-on to the ray).
    A point whose computed u, v and u + v lie in [0, 1] has exact
    barycentrics of at least -eta, and eta times twice the box extent bounds
    how far that puts its projection outside the box; so every point that
    can pass the hit test lies in the grown box.  The box of a triangle
    whose det may be off by a quarter or more grows without bound.
    """
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    v0, e1, e2, det = v0[ok], e1[ok], e2[ok], det[ok]
    coef = np.stack([h[ok], np.cross(e1, d), np.cross(e1, e2)]) / det[:, None]
    offset = np.einsum("ktj,tj->kt", coef, v0)

    a = np.cross(d, np.eye(3)[np.argmin(np.abs(d))])
    a /= np.linalg.norm(a)
    across = np.stack([a, np.cross(d, a)])
    q0 = across @ v0.T
    corners = np.stack([q0, q0 + across @ e1.T, q0 + across @ e2.T])  # (3, 2, T)
    lo, hi = corners.min(axis=0), corners.max(axis=0)

    norm1 = np.abs(e1).max(axis=1)
    norm2 = np.abs(e2).max(axis=1)
    inv = 1.0 / np.abs(det)
    rel = _ROUNDOFF * (norm1 * norm2 * inv + 1.0)  # of det, and of the division by it
    err = _ROUNDOFF * (scale * (np.abs(coef[:2]).sum(axis=(0, 2)) + (norm1 + norm2) * inv) + 1.0)
    eta = 4.0 * err + 2.0 * rel
    pad = np.where(rel < 0.25, 2.0 * eta * (hi - lo).max(axis=0) + _ROUNDOFF * scale, np.inf)
    return across, coef, offset, lo - pad, hi + pad


def _point_cells(q: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The boxes lo, hi (2, T) that share a cell of a uniform 2-D grid with each point of q (2, P).

    The cell edge is the median box extent; a point goes into the one cell
    that holds it, and a box into every cell it touches, clipped to the
    cells that hold points.  Returns (tri, first, count): point p shares a
    cell with the boxes tri[first[p]] .. tri[first[p] + count[p] - 1].
    """
    origin = q.min(axis=1, keepdims=True)
    # at most 2^20 cells a side, so that the flat cell keys cannot overflow
    cell = max(_median_cell(hi - lo), float((q.max(axis=1) - origin[:, 0]).max()) * 2.0**-20)
    dims = np.floor((q.max(axis=1, keepdims=True) - origin) / cell).astype(np.int64) + 1
    # boxes clipped to the cells that hold points; one clipped away spans 0 cells
    ilo = np.clip(np.floor((lo - origin) / cell), 0, dims).astype(np.int64)
    ihi = np.clip(np.floor((hi - origin) / cell), -1, dims - 1).astype(np.int64)
    box, key, _ = _grid_entries(ilo, np.maximum(ihi - ilo + 1, 0), dims[:, 0])
    order = np.argsort(key)
    key = key[order]
    cell_of = np.ravel_multi_index(tuple(np.floor((q - origin) / cell).astype(np.int64)), tuple(dims[:, 0]))
    first = np.searchsorted(key, cell_of, side="left")
    count = np.searchsorted(key, cell_of, side="right") - first
    return box[order], first, count


def _ray_parity(pts: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray, d: np.ndarray):
    """Moller-Trumbore (inside, grazed) per point for rays from pts (P, 3) along d.

    A ray can hit only the triangles whose grown box (see _ray_triangles)
    holds its origin's projection.  Boxes and points are entered into a
    uniform 2-D grid in the plane across d (see _point_cells), and only
    point-triangle pairs that share a cell are evaluated, _PAIR_CHUNK at a
    time.  A ray grazes where a hit lies within 1e-9 of a triangle edge.
    """
    if not len(pts):
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    scale = max(float(np.abs(pts).max()),
                float(np.abs(v0).max(initial=0.0) + np.abs([e1, e2]).max(initial=0.0)))
    across, coef, offset, lo, hi = _ray_triangles(v0, e1, e2, d, scale)
    tri, first, count = _point_cells(across @ pts.T, lo, hi)

    hits = np.zeros(len(pts), dtype=np.int64)
    grazes = np.zeros(len(pts), dtype=np.int64)
    for point, entry in _pair_batches(first, count):
        t_idx = tri[entry]
        u, v, t = np.einsum("ktj,tj->kt", coef[:, t_idx], pts[point]) - offset[:, t_idx]
        hit = (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
        hits += np.bincount(point[hit], minlength=len(pts))
        near_edge = hit & ((u < 1e-9) | (v < 1e-9) | (u + v > 1 - 1e-9))
        grazes += np.bincount(point[near_edge], minlength=len(pts))
    return hits % 2 == 1, grazes > 0


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
