"""Edge topology against the dict-based implementations it replaced.

The references below are the earlier per-edge Python code, kept verbatim:
the dict edge map and loop of ``validate``, the dict union-find that counted
boundary loops, the dict edge map of ``_ordered_boundary_loops`` and the
double loop of ``loft_rings``.  The array code in ``meshkit`` must give the
same reports, loops and triangles on every mesh here.
"""

import numpy as np
import pytest

from vesselmesh import meshkit, phantom


# ---------------------------------------------------------------------------
# dict-based references


def _edge_incidence(triangles: np.ndarray):
    """Map undirected edge -> list of directed occurrences (+1 for (a,b) a<b)."""
    edges: dict[tuple[int, int], list[int]] = {}
    for tri in triangles:
        a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edges.setdefault(key, []).append(1 if u < v else -1)
    return edges


def _boundary_loop_count(boundary_edges) -> int:
    if not boundary_edges:
        return 0
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in boundary_edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in parent})


def _reference_validate(mesh: meshkit.TriMesh) -> meshkit.TopologyReport:
    """The dict edge pass of validate, with the count of count_self_intersections."""
    edges = _edge_incidence(mesh.triangles)

    boundary = []
    non_manifold = 0
    consistent = True
    for key, dirs in edges.items():
        if len(dirs) == 1:
            boundary.append(key)
        elif len(dirs) == 2:
            if dirs[0] + dirs[1] != 0:
                non_manifold += 1
                consistent = False
        else:
            non_manifold += 1
            consistent = False

    loops = _boundary_loop_count(boundary)
    n_ref_vertices = len(np.unique(mesh.triangles))
    euler = n_ref_vertices - len(edges) + mesh.n_triangles
    manifold = non_manifold == 0
    watertight = manifold and consistent and loops == 0
    return meshkit.TopologyReport(
        watertight=watertight,
        manifold=manifold,
        boundary_loop_count=loops,
        non_manifold_edge_count=non_manifold,
        euler_characteristic=euler,
        consistent_orientation=consistent,
        self_intersection_count=meshkit.count_self_intersections(mesh),
    )


def _reference_ordered_boundary_loops(mesh: meshkit.TriMesh) -> list[list[int]]:
    """Boundary loops as ordered vertex index lists (consistent winding assumed)."""
    edges = {}
    for tri in mesh.triangles:
        a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            edges.setdefault(key, []).append((u, v))
    nxt = {}
    for key, occ in edges.items():
        if len(occ) == 1:
            u, v = occ[0]
            # boundary loop runs opposite to the lone interior edge direction
            nxt[v] = u
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


def _reference_loft_rings(rings: np.ndarray, caps: bool) -> meshkit.TriMesh:
    rings = np.asarray(rings, dtype=np.float64)
    nu, nv, _ = rings.shape
    if nu < 2 or nv < 3:
        raise ValueError("need at least 2 rings of 3 points to loft")
    verts = rings.reshape(nu * nv, 3)
    tris = []
    for i in range(nu - 1):
        base = i * nv
        nxt = (i + 1) * nv
        for j in range(nv):
            j2 = (j + 1) % nv
            tris.append((base + j, base + j2, nxt + j2))
            tris.append((base + j, nxt + j2, nxt + j))
    if caps:
        c0 = rings[0].mean(axis=0)
        c1 = rings[-1].mean(axis=0)
        verts = np.vstack([verts, c0[None, :], c1[None, :]])
        a0 = nu * nv
        a1 = nu * nv + 1
        start = (nu - 1) * nv
        for j in range(nv):
            j2 = (j + 1) % nv
            tris.append((a0, j2, j))
            tris.append((a1, start + j, start + j2))
    return meshkit.TriMesh(verts, np.asarray(tris, dtype=np.int64))


# ---------------------------------------------------------------------------
# meshes

CUBE_VERTS = np.array(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float
)
CUBE_TRIS = np.array(
    [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
     [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
     [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5]]
)


def _cube(tris=CUBE_TRIS, verts=CUBE_VERTS):
    return meshkit.TriMesh(verts, tris)


def _flipped_cube():
    tris = CUBE_TRIS.copy()
    tris[3] = tris[3, ::-1]
    return _cube(tris)


def _bowtie():
    # two triangles meeting at vertex 0 only: 0 has two outgoing lone edges
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0.0]])
    return meshkit.TriMesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))


def _open_tube():
    return phantom.analytic_surface(
        phantom.PhantomSpec(shape="straight", length_mm=20.0, base_radius_mm=4.0,
                            dims=(32, 32, 32), spacing_mm=(1.0, 1.0, 1.0)),
        12, 16, caps=False,
    )


def _random_soup(seed=3, n_vertices=40, n_triangles=120):
    rng = np.random.default_rng(seed)
    verts = rng.normal(size=(n_vertices, 3))
    tris = rng.integers(0, n_vertices, size=(n_triangles, 3))
    return meshkit.TriMesh(verts, tris)


MESHES = {
    "cube": _cube,
    "cube_minus_triangle": lambda: _cube(CUBE_TRIS[:-1]),
    "cube_flipped_triangle": _flipped_cube,
    "cube_duplicated_triangle": lambda: _cube(np.vstack([CUBE_TRIS, CUBE_TRIS[:1]])),
    "repeated_index": lambda: _cube(np.vstack([CUBE_TRIS[:-1], [[1, 6, 6]]])),
    "bowtie": _bowtie,
    "open_tube": _open_tube,
    "unreferenced_vertex": lambda: _cube(verts=np.vstack([CUBE_VERTS, [[5.0, 5.0, 5.0]]])),
    "random_soup": _random_soup,
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_validate_matches_dict_reference(name):
    mesh = MESHES[name]()
    got = meshkit.validate(mesh)
    assert got == _reference_validate(mesh)
    assert got.consistent_orientation == got.manifold


@pytest.mark.parametrize("name", sorted(MESHES))
def test_ordered_boundary_loops_match_dict_reference(name):
    mesh = MESHES[name]()
    assert meshkit._ordered_boundary_loops(mesh) == _reference_ordered_boundary_loops(mesh)


def test_pinned_reports():
    def fields(mesh):
        r = meshkit.validate(mesh)
        return (r.watertight, r.boundary_loop_count, r.non_manifold_edge_count,
                r.euler_characteristic, r.consistent_orientation)

    assert fields(MESHES["cube"]()) == (True, 0, 0, 2, True)
    assert fields(MESHES["cube_minus_triangle"]()) == (False, 1, 0, 1, True)
    # the flipped triangle traverses each of its three edges the same way
    # as its neighbour: three non-manifold edges, orientation inconsistent
    assert fields(MESHES["cube_flipped_triangle"]()) == (False, 0, 3, 2, False)
    assert fields(MESHES["cube_duplicated_triangle"]()) == (False, 0, 3, 3, False)
    # the repeated index makes a lone self-edge (6, 6) and a third use of (1, 6)
    assert fields(MESHES["repeated_index"]()) == (False, 1, 1, 1, False)
    assert fields(MESHES["bowtie"]()) == (False, 1, 0, 1, True)
    assert fields(MESHES["open_tube"]()) == (False, 2, 0, 0, True)
    assert fields(MESHES["unreferenced_vertex"]()) == (True, 0, 0, 2, True)
    assert meshkit.validate(MESHES["random_soup"]()).self_intersection_count == 1358


def test_pinned_loops():
    assert meshkit._ordered_boundary_loops(MESHES["cube"]()) == []
    empty = meshkit.TriMesh(CUBE_VERTS, np.zeros((0, 3), dtype=np.int64))
    assert meshkit._ordered_boundary_loops(empty) == _reference_ordered_boundary_loops(empty) == []
    assert meshkit._ordered_boundary_loops(MESHES["cube_minus_triangle"]()) == [[1, 6, 5]]
    # two lone edges end at vertex 0 (2 -> 0 and 4 -> 0); the later one
    # decides where the walk from 0 goes
    assert meshkit._ordered_boundary_loops(_bowtie()) == [[0, 4, 3]]
    tube_loops = meshkit._ordered_boundary_loops(_open_tube())
    assert [len(loop) for loop in tube_loops] == [16, 16]


def test_loops_of_culled_and_flipped_arcs():
    rng = np.random.default_rng(7)
    tube = _open_tube()
    for _ in range(40):
        tris = tube.triangles[rng.random(tube.n_triangles) > 0.15].copy()
        flip = rng.random(len(tris)) < 0.05
        tris[flip] = tris[flip, ::-1]
        mesh = meshkit.TriMesh(tube.vertices, tris)
        assert meshkit._ordered_boundary_loops(mesh) == _reference_ordered_boundary_loops(mesh)
        assert meshkit.validate(mesh) == _reference_validate(mesh)


@pytest.mark.parametrize("caps", [True, False])
@pytest.mark.parametrize("nu,nv", [(2, 3), (5, 7), (64, 64)])
def test_loft_rings_matches_loop_reference(nu, nv, caps):
    rings = np.random.default_rng(nu * nv).normal(size=(nu, nv, 3))
    got = meshkit.loft_rings(rings, caps)
    ref = _reference_loft_rings(rings, caps)
    assert np.array_equal(got.vertices, ref.vertices)
    assert np.array_equal(got.triangles, ref.triangles)
    assert got.triangles.dtype == ref.triangles.dtype


def test_merge_branches_matches_dict_loops(monkeypatch):
    spec = phantom.PhantomSpec(
        shape="branched", length_mm=30.0, base_radius_mm=5.0,
        branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=90.0,
        dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0),
    )
    main = phantom.analytic_surface(spec, 48, 48, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 24, 24, caps=False, branch="side")
    merged, report = meshkit.merge_branches(main, branch)
    monkeypatch.setattr(meshkit, "_ordered_boundary_loops", _reference_ordered_boundary_loops)
    ref_merged, ref_report = meshkit.merge_branches(main, branch)
    assert np.array_equal(merged.vertices, ref_merged.vertices)
    assert np.array_equal(merged.triangles, ref_merged.triangles)
    assert report == ref_report
