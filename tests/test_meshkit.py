import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak_mb
from vesselmesh import meshkit, phantom
from vesselmesh.volume import Volume


CUBE_VERTS = np.array(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float
)
CUBE_TRIS = np.array(
    [[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
     [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
     [0, 4, 7], [0, 7, 3], [1, 2, 6], [1, 6, 5]]
)


def _cube(offset=(0.0, 0.0, 0.0), scale=1.0):
    return meshkit.TriMesh(CUBE_VERTS * scale + np.asarray(offset), CUBE_TRIS)


def test_cube_watertight():
    report = meshkit.validate(_cube())
    assert report.watertight and report.manifold and report.consistent_orientation
    assert report.euler_characteristic == 2
    assert report.boundary_loop_count == 0
    assert report.self_intersection_count == 0
    assert meshkit.signed_volume(_cube()) == pytest.approx(1.0, abs=1e-12)


def test_cube_missing_triangle():
    mesh = meshkit.TriMesh(CUBE_VERTS, CUBE_TRIS[:-1])
    report = meshkit.validate(mesh)
    assert not report.watertight
    assert report.boundary_loop_count == 1
    assert report.manifold  # boundary edges are not non-manifold


def test_two_cubes_sharing_edge_non_manifold():
    # second cube shares the edge (1, 0, z) - vertices 1-5 of the first cube
    other = CUBE_VERTS + np.array([1.0, -1.0, 0.0])
    verts = np.vstack([CUBE_VERTS, other])
    tris2 = CUBE_TRIS + 8
    # weld duplicated vertices so the edge is actually shared
    merged = np.vstack([CUBE_VERTS, other])
    uniq, inverse = np.unique(np.round(merged, 9), axis=0, return_inverse=True)
    tris = np.vstack([inverse[CUBE_TRIS], inverse[tris2]])
    mesh = meshkit.TriMesh(uniq, tris)
    report = meshkit.validate(mesh)
    assert report.non_manifold_edge_count == 1  # the shared edge, used four times
    assert not report.watertight


def test_validate_pure():
    mesh = _cube()
    r1 = meshkit.validate(mesh)
    r2 = meshkit.validate(mesh)
    assert r1 == r2


def test_validate_empty_errors():
    with pytest.raises(ValueError):
        meshkit.validate(meshkit.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))


def test_clean_removes_degenerate_and_duplicate():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 2], [0, 1, 1], [0, 2, 3]])
    cleaned = meshkit.TriMesh(verts, tris).clean()
    assert cleaned.n_triangles == 2


def test_clean_keeps_the_first_of_each_duplicate_in_order():
    # the rows np.unique(axis=0, return_index=True) kept, in their order,
    # whatever the winding or rotation of the later copies
    rng = np.random.default_rng(11)
    tris = rng.integers(0, 40, size=(3000, 3))
    tris = np.vstack([tris, tris[::7, ::-1], np.roll(tris[::5], 1, axis=1)])
    tris = tris[rng.permutation(len(tris))]
    mesh = meshkit.TriMesh(rng.normal(size=(40, 3)), tris)
    keep = mesh.triangle_areas() >= 1e-12
    _, first = np.unique(np.sort(tris[keep], axis=1), axis=0, return_index=True)
    assert np.array_equal(mesh.clean().triangles, tris[keep][np.sort(first)])


def test_triangle_areas_have_the_bits_of_cross_and_norm():
    rng = np.random.default_rng(12)
    verts = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-4, 4, size=(500, 1))
    mesh = meshkit.TriMesh(verts, rng.integers(0, 500, size=(4000, 3)))
    p = verts[mesh.triangles]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    assert np.array_equal(mesh.triangle_areas(), areas)


def test_marching_cubes_sphere():
    n = 48
    spacing = 1.0
    r = 14.0
    w = 1.0
    center = (n - 1) / 2.0
    zz, yy, xx = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    d = np.sqrt((xx - center) ** 2 + (yy - center) ** 2 + (zz - center) ** 2)
    data = np.clip(1.0 - (d - r) / w, 0.0, 1.0).astype(np.float32)
    vol = Volume(data, (spacing,) * 3, (0.0, 0.0, 0.0))
    mesh = meshkit.marching_cubes(vol, 0.5)
    report = meshkit.validate(mesh)
    assert report.watertight
    assert report.euler_characteristic == 2
    assert report.non_manifold_edge_count == 0
    c = np.full(3, center * spacing)
    dist = np.linalg.norm(mesh.vertices - c, axis=1)
    # distance oracle: vertices sit on the half-level surface at r + w/2,
    # within one voxel of the nominal radius
    assert np.abs(dist - r).max() <= spacing
    assert meshkit.signed_volume(mesh) > 0


def test_marching_cubes_iso_out_of_range():
    vol = Volume(np.full((4, 4, 4), 0.7, dtype=np.float32), (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        meshkit.marching_cubes(vol, 0.5)


# sha256 of (vertices, triangles) of marching_cubes on the straight phantom
# rounded to sixteenths, at two iso-levels that float32 cannot hold, as the
# implementation that compared a float64 copy of the volume made them
_MC_ISO_SHA256 = {
    0.3: ("2ac3d428c6c4f0baf6262c0d74d335e59950ca95f4c50fee345ddc4a69575434",
          "8e4f1f38e5b7995d8319bb066f2d747f5430abed12f6224b6f650a7a1d07e698"),
    0.5 + 2.0**-40: ("c44282847b0ba7be1c5a29fd3d4d4e6ecf738bf44882542acc2d2ae5e97ec46f",
                     "b165c2e22c145683170cfff5d82d6dbf96a8c7cd5d58e440ef164455ba6d3e34"),
}


def _sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("iso", sorted(_MC_ISO_SHA256))
def test_marching_cubes_compares_in_float64(straight_volume, iso):
    data = np.round(straight_volume.data * 16) / 16
    vol = Volume(data, straight_volume.spacing, straight_volume.origin)
    assert float(np.float32(iso)) != iso and (data == 0.5).any()
    mesh = meshkit.marching_cubes(vol, iso)
    assert (_sha256(mesh.vertices), _sha256(mesh.triangles)) == _MC_ISO_SHA256[iso]
    if iso > 0.5:
        # voxels at exactly 0.5 lie below 0.5 + 2^-40, which rounds to 0.5 in
        # float32: compared in float32 they would not, giving iso 0.5's mesh
        assert mesh.n_triangles != meshkit.marching_cubes(vol, 0.5).n_triangles


def test_marching_cubes_working_memory_at_128():
    # the float64 copy of a 128^3 volume alone would take 16 MB; the case
    # bits, the active cells and the welded vertices take less
    spec = phantom.PhantomSpec(shape="arc", length_mm=39.27, base_radius_mm=5.0, arc_radius_mm=25.0,
                               dims=(128, 128, 128), spacing_mm=(0.45, 0.45, 0.45))
    vol = phantom.rasterize(spec)
    mesh, peak = traced_peak_mb(meshkit.marching_cubes, vol, 0.5)
    assert mesh.n_triangles > 20000
    assert peak < 128**3 * 8 / 2**20 + 4.0, peak


def test_marching_cubes_phantom_clean(straight_volume):
    mesh = meshkit.marching_cubes(straight_volume, 0.5)
    report = meshkit.validate(mesh)
    assert report.non_manifold_edge_count == 0
    assert report.consistent_orientation


def test_self_intersection_detects_crossing():
    verts = np.array(
        [[0, 0, 0], [2, 0, 0], [0, 2, 0],
         [0.5, 0.5, -1], [1.5, 0.5, 1], [0.5, 1.5, 1.0]]
    )
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    assert meshkit.count_self_intersections(meshkit.TriMesh(verts, tris)) == 1


def test_self_intersection_clean_tube(straight_spec):
    tube = phantom.analytic_surface(straight_spec, 24, 24, caps=True)
    assert meshkit.count_self_intersections(tube) == 0


def test_merge_requires_overlap(straight_spec):
    main = phantom.analytic_surface(straight_spec, 32, 32, caps=True)
    far = meshkit.TriMesh(main.vertices + np.array([200.0, 0, 0]), main.triangles)
    with pytest.raises(ValueError, match="does not intersect"):
        meshkit.merge_branches(main, far)


def test_merge_rejects_contained_branch(straight_spec):
    main = phantom.analytic_surface(straight_spec, 32, 32, caps=True)
    center = main.vertices.mean(axis=0)
    tiny = meshkit.TriMesh((main.vertices - center) * 0.02 + center, main.triangles)
    with pytest.raises(ValueError, match="entirely inside"):
        meshkit.merge_branches(main, tiny)


def _branched_meshes():
    spec = phantom.PhantomSpec(
        shape="branched", length_mm=30.0, base_radius_mm=5.0,
        branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=90.0,
        dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0),
    )
    main = phantom.analytic_surface(spec, 48, 48, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 24, 24, caps=False, branch="side")
    return spec, main, branch


def _parity_oracle(points, mesh, direction):
    """Independent ray-parity recount (Moller-Trumbore along a fixed ray)."""
    d = np.asarray(direction, dtype=float)
    d /= np.linalg.norm(d)
    tri = mesh.vertices[mesh.triangles]
    v0 = tri[:, 0]
    e1 = tri[:, 1] - v0
    e2 = tri[:, 2] - v0
    out = np.zeros(len(points), dtype=bool)
    for i, p in enumerate(np.atleast_2d(points)):
        h = np.cross(d, e2)
        det = np.einsum("ij,ij->i", e1, h)
        ok = np.abs(det) > 1e-12
        s = p - v0
        u = np.einsum("ij,ij->i", s, h) / np.where(ok, det, 1.0)
        q = np.cross(s, e1)
        v = q @ d / np.where(ok, det, 1.0)
        t = np.einsum("ij,ij->i", e2, q) / np.where(ok, det, 1.0)
        hits = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
        out[i] = hits.sum() % 2 == 1
    return out


def test_merge_culls_interior_triangles():
    spec, main, branch = _branched_meshes()
    merged, report = meshkit.merge_branches(main, branch)
    assert report.removed_triangles > 0
    centroids = branch.vertices[branch.triangles].mean(axis=1)
    removed = meshkit.points_inside_mesh(centroids, main)
    # independent parity recount along an unrelated ray direction
    oracle = _parity_oracle(centroids, main, (0.2183, 0.9134, 0.3441))
    assert np.array_equal(removed, oracle)
    # gross geometric check away from the polygonal boundary band
    axis_xy = phantom.analytic_centerline(spec, 4, branch="main")[0][:2]
    radial = np.hypot(centroids[:, 0] - axis_xy[0], centroids[:, 1] - axis_xy[1])
    assert np.all(removed[radial < spec.base_radius_mm - 0.1])
    assert not np.any(removed[radial > spec.base_radius_mm + 0.1])


def test_merge_junction_report_bounds():
    spec, main, branch = _branched_meshes()
    merged, report = meshkit.merge_branches(main, branch)
    ring_spacing = 2 * np.pi * spec.branch_radius_mm / 24
    assert report.max_bridge_length_mm <= 2 * ring_spacing
    assert report.bridged_loops == 1
    # merged mesh keeps all non-culled branch geometry
    assert merged.n_triangles > main.n_triangles


def test_obj_round_trip(tmp_path):
    mesh = _cube()
    meshkit.write_obj(mesh, tmp_path / "c.obj")
    again = meshkit.read_obj(tmp_path / "c.obj")
    assert again.n_vertices == mesh.n_vertices
    assert again.n_triangles == mesh.n_triangles
    assert np.abs(again.vertices - mesh.vertices).max() <= 1e-7
    assert np.array_equal(again.triangles, mesh.triangles)


def test_stl_round_trip(tmp_path):
    mesh = _cube(scale=3.3)
    path = tmp_path / "c.stl"
    meshkit.write_stl(mesh, path)
    assert path.stat().st_size == 84 + 12 * 50
    raw = path.read_bytes()
    import struct

    assert struct.unpack_from("<I", raw, 80)[0] == mesh.n_triangles
    again = meshkit.read_stl(path)
    assert again.n_triangles == mesh.n_triangles
    # float32 payload: coordinates match to single precision
    orig = np.sort(mesh.vertices[mesh.triangles].reshape(-1, 3), axis=0)
    got = np.sort(again.vertices[again.triangles].reshape(-1, 3), axis=0)
    assert np.abs(orig - got).max() <= 1e-6 * max(1.0, np.abs(orig).max())


def test_loft_orientation_outward(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 32, 32, caps=True)
    expected = np.pi * straight_spec.base_radius_mm ** 2 * straight_spec.length_mm
    vol = meshkit.signed_volume(mesh)
    assert vol > 0
    assert vol == pytest.approx(expected, rel=0.02)  # polygonal ring deficit


def _stl_reference_bytes(mesh):
    """Binary STL written one triangle at a time with struct."""
    import struct

    out = [b"vesselmesh binary stl".ljust(80, b"\0"), struct.pack("<I", mesh.n_triangles)]
    for tri in mesh.vertices[mesh.triangles]:
        p = tri.astype(np.float32).astype(np.float64)
        n = np.cross(p[1] - p[0], p[2] - p[0])
        norm = np.linalg.norm(n)
        n = n / norm if norm > 0 else np.zeros(3)
        out.append(struct.pack("<12fH", *n, *p.ravel(), 0))
    return b"".join(out)


def test_stl_bytes_match_per_triangle_writer(tmp_path, straight_spec):
    tube = phantom.analytic_surface(straight_spec, 16, 16, caps=True)
    sliver = meshkit.TriMesh(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]]), np.array([[0, 1, 2]]))
    for i, mesh in enumerate((tube, sliver)):
        meshkit.write_stl(mesh, tmp_path / f"{i}.stl")
        assert (tmp_path / f"{i}.stl").read_bytes() == _stl_reference_bytes(mesh)


def test_stl_length_errors(tmp_path):
    path = tmp_path / "c.stl"
    meshkit.write_stl(_cube(), path)
    raw = path.read_bytes()
    (tmp_path / "short.stl").write_bytes(raw[:60])
    with pytest.raises(ValueError, match="truncated"):
        meshkit.read_stl(tmp_path / "short.stl")
    (tmp_path / "cut.stl").write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="!= expected"):
        meshkit.read_stl(tmp_path / "cut.stl")


def _write_obj_lines(mesh, path):
    """The line-by-line OBJ writer that the one-format writer replaced, verbatim."""
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}" for a, b, c in (mesh.triangles + 1).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_obj_split(path):
    """The split-every-line OBJ reader that the loadtxt reader replaced, verbatim."""
    verts = []
    tris = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append(parts[1:4])
        elif parts[0] == "f":
            tris.append([p.split("/")[0] for p in parts[1:4]])
    if not verts or not tris:
        raise ValueError(f"no mesh data in {path}")
    return meshkit.TriMesh(np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64) - 1)


def _random_mesh(rng, n_vertices, n_triangles):
    verts = rng.normal(0.0, 1.0, (n_vertices, 3)) * 10.0 ** rng.integers(-12, 13, (n_vertices, 3))
    return meshkit.TriMesh(verts, rng.integers(0, n_vertices, (n_triangles, 3)))


@pytest.mark.parametrize("seed", range(3))
def test_write_obj_bytes_match_line_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    mesh = _random_mesh(rng, 200, 300)
    special = np.array([[-0.0, 0.0, 1e-300], [1e300, -1e300, -1e-300], [0.1, 1 / 3, -2.5e-7],
                        [np.inf, -np.inf, np.nan], [5e-324, 123456789.5, 1e16]])
    big = meshkit.TriMesh(np.vstack([mesh.vertices, special, rng.normal(size=(123_456, 3))]),
                          np.vstack([mesh.triangles, [[123_000, 123_458, 200]], [[5, 99_999, 100_000]]]))
    for i, m in enumerate((mesh, big, _cube(), meshkit.TriMesh(np.zeros((0, 3)), np.zeros((0, 3))))):
        meshkit.write_obj(m, tmp_path / f"new{i}.obj")
        _write_obj_lines(m, tmp_path / f"old{i}.obj")
        assert (tmp_path / f"new{i}.obj").read_bytes() == (tmp_path / f"old{i}.obj").read_bytes(), i


def _assert_same_read(path):
    new, old = meshkit.read_obj(path), _read_obj_split(path)
    assert np.array_equal(new.vertices, old.vertices)
    assert np.array_equal(new.triangles, old.triangles)


def test_read_obj_matches_split_reader_on_written_meshes(tmp_path):
    rng = np.random.default_rng(7)
    for i, mesh in enumerate((_random_mesh(rng, 500, 900), _cube(scale=3.3))):
        meshkit.write_obj(mesh, tmp_path / f"{i}.obj")
        _assert_same_read(tmp_path / f"{i}.obj")


@pytest.mark.parametrize("text", [
    # faces with texture and normal indices
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/4/7 2/5/8 3/6/9\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1//7 2//8 3//9\n",
    # blank lines, comment lines and inline comments
    "# header\n\nv 0 0 0 # first\n\n   \nv 1 0 0\n#v 9 9 9\nv 0 1 0\nf 1 2 3 # tri\n\n",
    # lines the reader ignores
    "o tube\ng part\nv 0 0 0\nvn 0 0 1\nvt 0.5 0.5\nv 1 0 0\nv 0 1 0\nvn 0 0 1\ns off\nf 1 2 3\n",
    # tabs, leading spaces and CRLF line ends
    "\tv\t0.5 0 0\r\n  v 1  0\t0\r\nv 0 1 0\r\n \tf 1\t2  3\r\n",
    # a fourth (w) vertex value, and a quad: the first three values are kept
    "v 0 0 0 1.0\nv 1 0 0 1.0\nv 0 1 0 1.0\nv 1 1 0 1.0\nf 1 2 4 3\nf 1 3 4\n",
    # exponents, signs and many digits
    "v -1.5e-3 +2.25E+2 0.333333333333333314829616256247\nv 1e300 -0 1e-300\nv 7 8 9\nf 3 1 2\n",
    # spaces and tabs before v and f, and a last line without its line end
    " v 0 0 0\n\tv 1 0 0\n \t v 0 1 0\n  f 1 2 3\n\t f 1/1 3/3 2/2",
    # vp and other words that start with v or f are ignored
    "vp 0.5\nv 0 0 0\nvp 0.5 0.5\nv 1 0 0\nv 0 1 0\nfo 1 2 3\nf 1 2 3\nvp 1",
    # every ASCII line break of str.splitlines, and a lone CR
    "v 0 0 0\x0bv 1 0 0\x0cv 0 1 0\x1cv 1 1 0\x1df 1 2 3\x1ef 2 4 3\rf 1 3 4",
])
def test_read_obj_matches_split_reader(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    _assert_same_read(path)


@pytest.mark.parametrize("text", [
    "v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1\nf 1 2 3\n",
    "v\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0 0\n v\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv",
])
def test_read_obj_rejects_short_vertex_line(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad v or f line"):
        meshkit.read_obj(path)


@pytest.mark.parametrize("text", [
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3/1/1 2/1/1\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf /1 2 3 1\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n\tf \n",
])
def test_read_obj_rejects_short_face_line(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad v or f line"):
        meshkit.read_obj(path)


def test_read_obj_does_not_reshape_short_lines(tmp_path):
    # six 2-value vertices and three 2-index faces once read as 4 vertices and 2 triangles
    lines = [f"v {i} {i + 1}" for i in range(6)] + ["f 1 2", "f 3 2", "f 3 4"]
    path = tmp_path / "m.obj"
    path.write_text("\n".join(lines) + "\n")
    assert _read_obj_split(path).n_triangles == 2
    with pytest.raises(ValueError, match="bad v or f line"):
        meshkit.read_obj(path)


@pytest.mark.parametrize("text", ["", "# nothing\n", "v 0 0 0\nv 1 0 0\n", "vn 0 0 1\nf 1 2 3\n"])
def test_read_obj_without_mesh_data(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_text(text)
    with pytest.raises(ValueError, match="no mesh data"):
        meshkit.read_obj(path)
