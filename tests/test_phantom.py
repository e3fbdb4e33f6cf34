import hashlib
import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from vesselmesh import meshkit, phantom
from vesselmesh.volume import sample_trilinear


def _nearest_voxel_value(vol, point):
    idx = np.rint(vol.world_to_index(point)).astype(int)
    return float(vol.data[idx[2], idx[1], idx[0]])


def test_on_axis_intensity_is_one(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    assert np.all(sample_trilinear(straight_volume, pts) >= 0.99)
    # voxel on the axis exactly
    mid = pts[8]
    assert _nearest_voxel_value(straight_volume, mid) == pytest.approx(1.0, abs=1e-6)


def test_wall_ramp_values():
    # odd dims put the axis exactly on voxel centers, so stored voxel values
    # can be checked against the ramp formula at exact distances
    spec = phantom.PhantomSpec(shape="straight", length_mm=30.0, base_radius_mm=5.0,
                               wall_softness_mm=2.0, dims=(65, 65, 65),
                               spacing_mm=(1.0, 1.0, 1.0))
    vol = phantom.rasterize(spec)
    center = np.asarray(vol.dims, dtype=float) // 2  # voxel (32, 32, 32) on the axis
    cx, cy, cz = (int(c) for c in center)
    assert vol.data[cz, cy, cx] == pytest.approx(1.0, abs=1e-6)
    # voxel at distance r + w from the axis: ramp bottom
    assert vol.data[cz, cy, cx + 7] == pytest.approx(0.0, abs=1e-6)
    # voxel at r + w/2: ramp midpoint (the anti-degeneracy nudge allows 1e-5)
    assert vol.data[cz, cy, cx + 6] == pytest.approx(0.5, abs=1e-5)


def test_rasterize_deterministic(small_spec):
    a = phantom.rasterize(small_spec)
    b = phantom.rasterize(small_spec)
    assert np.array_equal(a.data, b.data)


def test_rasterize_deterministic_with_noise():
    spec = phantom.PhantomSpec(dims=(32, 32, 32), spacing_mm=(1.4, 1.4, 1.4),
                               length_mm=24.0, base_radius_mm=4.0,
                               noise_sigma=0.02, seed=7)
    assert np.array_equal(phantom.rasterize(spec).data, phantom.rasterize(spec).data)


def test_centerline_uniform_spacing():
    spec = phantom.PhantomSpec(shape="straight", length_mm=90.0, base_radius_mm=6.0,
                               dims=(96, 96, 128), spacing_mm=(1.0, 1.0, 1.0))
    pts = phantom.analytic_centerline(spec, 16)
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.abs(gaps - 6.0).max() <= 1e-9  # 90 / 15 by arithmetic


def test_centerline_default_is_16(straight_spec):
    assert len(phantom.analytic_centerline(straight_spec)) == 16


def test_arc_points_equidistant_from_arc_axis(arc_spec):
    pts = phantom.analytic_centerline(arc_spec, 32)
    # all samples on a circle: fit center from three points, check the rest
    # (the arc lies in the y = const plane)
    assert np.ptp(pts[:, 1]) <= 1e-12
    p0, p1, p2 = pts[0, [0, 2]], pts[15, [0, 2]], pts[-1, [0, 2]]
    # circumcenter of three points, 2D
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
          + (cx ** 2 + cy ** 2) * (ay - by)) / d
    uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
          + (cx ** 2 + cy ** 2) * (bx - ax)) / d
    radii = np.hypot(pts[:, 0] - ux, pts[:, 2] - uy)
    assert np.ptp(radii) <= 1e-9
    assert radii[0] == pytest.approx(arc_spec.arc_radius_mm, abs=1e-9)


def test_centerline_requires_k4(straight_spec):
    with pytest.raises(ValueError):
        phantom.analytic_centerline(straight_spec, 3)


def test_straight_surface_radius_exact(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 16, 16, caps=False)
    axis_xy = phantom.analytic_centerline(straight_spec, 4)[0][:2]
    d = np.hypot(mesh.vertices[:, 0] - axis_xy[0], mesh.vertices[:, 1] - axis_xy[1])
    assert np.abs(d - straight_spec.base_radius_mm).max() <= 1e-9


def test_coarctation_min_radius():
    spec = phantom.PhantomSpec(shape="coarctation", bump_amplitude=-0.3,
                               length_mm=40.0, base_radius_mm=6.0,
                               dims=(64, 64, 64), spacing_mm=(0.9, 0.9, 0.9))
    s = np.linspace(0, spec.length_mm, 4001)
    r = phantom.radius_profile(spec, s)
    assert r.min() == pytest.approx(0.7 * spec.base_radius_mm, abs=1e-9)


def test_surface_vertex_count(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 20, 24, caps=False)
    assert mesh.n_vertices == 20 * 24
    capped = phantom.analytic_surface(straight_spec, 20, 24, caps=True)
    assert capped.n_vertices == 20 * 24 + 2


def test_surfaces_watertight_with_caps(straight_spec, arc_spec):
    for spec in (straight_spec, arc_spec):
        mesh = phantom.analytic_surface(spec, 32, 32, caps=True)
        report = meshkit.validate(mesh)
        assert report.watertight
        assert report.euler_characteristic == 2


def test_all_shapes_centerline_inside_lumen():
    shapes = {
        "straight": {},
        "arc": {"arc_radius_mm": 25.0, "length_mm": 35.0},
        "helix": {"helix_radius_mm": 6.0, "helix_pitch_mm": 40.0, "length_mm": 30.0},
        "aneurysm": {"bump_amplitude": 0.4},
        "coarctation": {"bump_amplitude": -0.3},
        "branched": {"branch_length_mm": 14.0, "branch_radius_mm": 2.5},
    }
    for shape, kw in shapes.items():
        spec = phantom.PhantomSpec(shape=shape, length_mm=kw.pop("length_mm", 30.0),
                                   base_radius_mm=5.0, dims=(56, 56, 56),
                                   spacing_mm=(1.0, 1.0, 1.0), **kw)
        vol = phantom.rasterize(spec)
        pts = phantom.analytic_centerline(spec, 16)
        assert np.all(sample_trilinear(vol, pts) >= 0.99), shape


def test_tube_exceeding_bounds_errors():
    spec = phantom.PhantomSpec(shape="straight", length_mm=100.0, base_radius_mm=6.0,
                               dims=(32, 32, 32), spacing_mm=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="exceeds"):
        phantom.rasterize(spec)


def test_bounds_check_uses_local_radius():
    # the aneurysm's peak radius only occurs mid-tube; its ends at r(s) fit
    spec = phantom.PhantomSpec(shape="aneurysm", length_mm=40.0, base_radius_mm=5.36,
                               bump_amplitude=0.31, dims=(64, 64, 64),
                               spacing_mm=(0.9, 0.9, 0.9))
    vol = phantom.rasterize(spec)
    pts = phantom.analytic_centerline(spec, 16)
    assert np.all(sample_trilinear(vol, pts) >= 0.99)


def test_bulge_crossing_the_boundary_errors():
    # ends fit, but the bulge r(s) + 2w reaches past x = 0 mid-tube
    spec = phantom.PhantomSpec(shape="aneurysm", length_mm=40.0, base_radius_mm=5.0,
                               bump_amplitude=1.5, dims=(32, 32, 64),
                               spacing_mm=(0.9, 0.9, 0.9))
    s = np.linspace(0.0, spec.length_mm, 256)
    reach = phantom.radius_profile(spec, s) + 2.0 * spec.wall_softness
    assert reach[0] < 31 * 0.9 / 2 < reach.max()
    with pytest.raises(ValueError, match="exceeds"):
        phantom.rasterize(spec)


def test_spec_json_round_trip(arc_spec):
    again = phantom.PhantomSpec.from_json(arc_spec.to_json())
    assert again == arc_spec


def test_branch_centerline_geometry():
    spec = phantom.PhantomSpec(shape="branched", branch_angle_deg=90.0,
                               branch_length_mm=14.0, branch_radius_mm=2.5,
                               length_mm=30.0, base_radius_mm=5.0,
                               dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0))
    main = phantom.analytic_centerline(spec, 16, branch="main")
    side = phantom.analytic_centerline(spec, 16, branch="side")
    # side branch starts on the main axis and leaves at the right angle
    assert np.allclose(side[0][:2], main[0][:2], atol=1e-12)
    d = side[-1] - side[0]
    assert abs(np.dot(d, [0, 0, 1.0])) <= 1e-9  # 90 degrees from the main axis
    assert np.linalg.norm(d) == pytest.approx(14.0, abs=1e-9)


def test_effective_bump_per_shape():
    s = np.linspace(0.0, 40.0, 101)
    assert phantom.effective_bump(phantom.PhantomSpec(shape="aneurysm")) == 0.4
    assert phantom.effective_bump(phantom.PhantomSpec(shape="coarctation")) == -0.3
    assert phantom.effective_bump(phantom.PhantomSpec(shape="aneurysm", bump_amplitude=0.25)) == 0.25
    assert phantom.effective_bump(phantom.PhantomSpec(shape="coarctation", bump_amplitude=0.2)) == 0.2
    for shape in ("straight", "arc", "helix", "branched"):
        spec = phantom.PhantomSpec(shape=shape, bump_amplitude=0.3)
        assert phantom.effective_bump(spec) == 0.0
        assert np.all(phantom.radius_profile(spec, s) == spec.base_radius_mm)


def test_default_bumps_shape_the_radius_profile():
    s = np.linspace(0.0, 40.0, 4001)  # s = 20 is the bump centre
    for shape, amp in (("aneurysm", 0.4), ("coarctation", -0.3)):
        spec = phantom.PhantomSpec(shape=shape, length_mm=40.0, base_radius_mm=6.0)
        g = np.exp(-0.5 * ((s - 20.0) / spec.bump_width_mm) ** 2)
        assert np.array_equal(phantom.radius_profile(spec, s), 6.0 * (1.0 + amp * g))


@pytest.mark.parametrize("field, value", [
    ("length_mm", -5.0), ("length_mm", 0.0),
    ("spacing_mm", (0.0, 1.0, 1.0)), ("spacing_mm", (1.0, 1.0, -1.0)),
    ("dims", (0, 48, 48)), ("dims", (48, 1, 48)),
])
def test_spec_rejects_impossible_geometry(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        phantom.PhantomSpec(**{field: value})


@pytest.mark.parametrize("parse", [phantom.PhantomSpec.from_dict,
                                   lambda doc: phantom.PhantomSpec.from_json(json.dumps(doc))])
def test_spec_parsing_rejects_unknown_keys(parse):
    with pytest.raises(ValueError, match="unknown phantom key 'base_radius'"):
        parse({"shape": "straight", "base_radius": 5.0})
    spec = parse({"shape": "arc", "dims": [48, 48, 48], "axis_offset_mm": [1.0, 0.0]})
    assert spec.dims == (48, 48, 48) and spec.axis_offset_mm == (1.0, 0.0)


# sha256 of rasterize(spec).data, and of analytic_surface(spec, 24, 20) and
# analytic_centerline(spec, 16) per tube, on one spec per kind of tube: a
# bump, a dip, a helix, a noisy off-axis arc on non-cubic spacing, and the
# side branch.  A refactor of the phantom must keep these bytes.
_PHANTOM_SPECS = {
    "aneurysm": dict(shape="aneurysm", length_mm=30.0, base_radius_mm=4.0, bump_amplitude=0.35,
                     dims=(40, 40, 48), spacing_mm=(1.0, 1.0, 1.0)),
    "coarctation": dict(shape="coarctation", length_mm=30.0, base_radius_mm=5.0,
                        dims=(40, 40, 48), spacing_mm=(1.0, 1.0, 1.0)),
    "helix": dict(shape="helix", length_mm=30.0, base_radius_mm=3.0, helix_radius_mm=6.0,
                  helix_pitch_mm=40.0, dims=(40, 40, 48), spacing_mm=(1.0, 1.0, 1.0)),
    "arc_noisy_offaxis": dict(shape="arc", length_mm=30.0, base_radius_mm=4.0,
                              arc_radius_mm=20.0, axis_offset_mm=(1.3, -0.7),
                              noise_sigma=0.1, seed=3,
                              dims=(40, 36, 48), spacing_mm=(1.0, 1.1, 0.9)),
    "branched": dict(shape="branched", length_mm=30.0, base_radius_mm=5.0,
                     branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=60.0,
                     dims=(48, 48, 48), spacing_mm=(1.0, 1.0, 1.0)),
}
# the triangles depend on nu, nv and caps alone
_SURFACE_TRIANGLES_SHA256 = "3fdf732714aed3fb48854a7fc143eea015c4e3186b2fcc3f783bac8892802e68"
_PHANTOM_SHA256 = {
    "aneurysm": {
        "volume": "d6e1d6f0484d15e68e7edaf5388f73a035b7985783d25c2a9fc113c93d6aa321",
        "main": ("614c3ca99598b167871a20d934e16ced2c7f0f34dbe778d01b176f3620a1c357",
                 "3bfd2391d0d333f12e5a9700716815f08e7d10dfbd44c8fe8fc0ba62fecbcadc"),
    },
    "coarctation": {
        "volume": "5e61200139ddcc020fc4b54911ea1f18a4828682dd5eb7f81c7659ff7f8076e9",
        "main": ("1facf64332f3492124616590afb9330cfa60580668bd82463b74f19ea2b0a5c5",
                 "3bfd2391d0d333f12e5a9700716815f08e7d10dfbd44c8fe8fc0ba62fecbcadc"),
    },
    "helix": {
        "volume": "b525098e94f78a851148e15c9b3e2011f045620171a739347c68f32655fe8227",
        "main": ("0eff17412dbe798355f1ae5d3b04ca5a443af6daf1ed1d0d99024caf880fd27d",
                 "4b8b6ea25fdf13b1c9f1f4c72651dbefa734eaedc1a630ea1406f3702c5b4085"),
    },
    "arc_noisy_offaxis": {
        "volume": "772c9a2ebbd3f5c148150a0011d9ca8d8e741b7e5ffa2f795200ecf040f27580",
        "main": ("0d942649fef62afb4b5874685e275e81158ea66c858f655869f9dcbd989fb959",
                 "c56b9847b7bab79b8da5f0250caa11274b91a69ab451be7982ed08bef79cb9b7"),
    },
    "branched": {
        "volume": "ca82cd9e2b9d1392dbf9c9f6f57d29ab865772cc1649b26a61732c3b062757af",
        "main": ("4a9942c98998bf36f26595a7c553f81be44163e6cf722ab12aaf4c17114cb5e6",
                 "6acddaa77114a73377c18d9458553680548fd03e4b1ca3027ea794bda945ab86"),
        "side": ("69c7c9fe79afd3e70bb11b12e0b66462a3da1b25b12fafa3c9ec866652dab0dd",
                 "8867d7d028d610a17c58fcf9e09cfd90fa48886bc3b13833bcc90cadb933ffab"),
    },
}


def _sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(_PHANTOM_SPECS))
def test_phantom_bytes(case):
    spec = phantom.PhantomSpec(**_PHANTOM_SPECS[case])
    pins = _PHANTOM_SHA256[case]
    assert _sha256(phantom.rasterize(spec).data) == pins["volume"]
    for branch in ("main", "side") if "side" in pins else ("main",):
        mesh = phantom.analytic_surface(spec, 24, 20, branch=branch)
        centerline = phantom.analytic_centerline(spec, 16, branch=branch)
        got = (_sha256(mesh.vertices), _sha256(centerline))
        assert got == pins[branch], branch
        assert _sha256(mesh.triangles) == _SURFACE_TRIANGLES_SHA256


def test_side_branch_of_unbranched_shape_errors(straight_spec):
    with pytest.raises(ValueError, match="^side branch only exists for the branched shape$"):
        phantom.analytic_centerline(straight_spec, branch="side")


def test_unknown_branch_errors(straight_spec):
    with pytest.raises(ValueError, match="^unknown branch 'left'$"):
        phantom.analytic_surface(straight_spec, branch="left")


def test_side_branch_exceeding_bounds_errors():
    # the main tube fits; the 40 mm side branch leaves the 56 mm volume
    spec = phantom.PhantomSpec(shape="branched", length_mm=30.0, base_radius_mm=5.0,
                               branch_radius_mm=2.5, branch_length_mm=40.0,
                               dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"^phantom tube \(side\) exceeds volume bounds$"):
        phantom.rasterize(spec)


def _dense_rasterize(spec):
    """The dense rasterizer the narrow band replaced, kept verbatim as the
    reference: every voxel is queried, in z-slabs of 16."""
    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing_mm, dtype=np.float64)
    w = spec.wall_softness
    hi_extent = (np.asarray(spec.dims, dtype=np.float64) - 1.0) * sp
    xs = np.arange(nx) * sp[0]
    ys = np.arange(ny) * sp[1]
    zs = np.arange(nz) * sp[2]
    intensity = np.zeros((nz, ny, nx), dtype=np.float64)

    for branch in ("main", "side") if spec.shape == "branched" else ("main",):
        curve, radius, length, _ = phantom._tube(spec, branch)
        # bounds check: at every centerline sample, the local radius plus 2w
        # must fit inside the volume
        s = np.linspace(0.0, length, 256)
        pts = curve(s)
        margin = (radius(s) + 2.0 * w)[:, None]
        if (pts - margin < 0).any() or (pts + margin > hi_extent).any():
            raise ValueError(f"phantom tube ({branch}) exceeds volume bounds")

        s_dense = np.linspace(0.0, length, 1024)
        pts_dense = curve(s_dense)
        # z-slab chunks bound the KD-tree query memory
        for z0 in range(0, nz, 16):
            z1 = min(z0 + 16, nz)
            gz, gy, gx = np.meshgrid(zs[z0:z1], ys, xs, indexing="ij")
            query = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
            d, s_near = phantom._distance_to_curve(query, s_dense, pts_dense, cKDTree(pts_dense))
            val = np.clip(1.0 - (d - radius(s_near)) / w, 0.0, 1.0)
            block = intensity[z0:z1].reshape(-1)
            np.maximum(block, val, out=block)

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        intensity = intensity + rng.normal(0.0, spec.noise_sigma, intensity.shape)
        intensity = np.clip(intensity, 0.0, 1.0)

    # keep voxel values off the default iso-level so marching cells never
    # hit a corner exactly
    near_half = np.abs(intensity - 0.5) < 1e-7
    intensity[near_half] = 0.5 + 1e-6

    return intensity.astype(np.float32)


_DENSE_CASES = {
    **{shape: dict(shape=shape) for shape in phantom.SHAPES},
    "arc_noise_offaxis": dict(shape="arc", noise_sigma=0.1, axis_offset_mm=(2.5, -1.5), seed=3),
    "noncubic_not_multiple_of_4": dict(shape="arc", length_mm=30.0, base_radius_mm=4.0,
                                       arc_radius_mm=20.0, dims=(50, 61, 70),
                                       spacing_mm=(0.8, 0.7, 0.6)),
    "wall_0.3": dict(shape="helix", wall_softness_mm=0.3),
    "wall_2.5": dict(shape="aneurysm", length_mm=30.0, base_radius_mm=5.0, wall_softness_mm=2.5),
    "branched_60deg": _PHANTOM_SPECS["branched"],
    # the arc of the evaluate workload's parameter study
    "study_arc": dict(shape="arc", length_mm=30.0, base_radius_mm=4.0, arc_radius_mm=12.0,
                      axis_offset_mm=(0.78, 0.11)),
}


@pytest.mark.parametrize("case", sorted(_DENSE_CASES))
def test_band_matches_dense_bytes(case):
    spec = phantom.PhantomSpec(**_DENSE_CASES[case])
    assert phantom.rasterize(spec).data.tobytes() == _dense_rasterize(spec).tobytes()


def test_band_matches_dense_bytes_over_radius_sweep():
    # 20 radii move the band's edge across block edges
    for r in np.linspace(3.0, 6.5, 20):
        spec = phantom.PhantomSpec(shape="straight", length_mm=24.0, base_radius_mm=float(r),
                                   dims=(48, 48, 44), spacing_mm=(1.0, 1.0, 1.0),
                                   axis_offset_mm=(0.3, -0.2))
        assert phantom.rasterize(spec).data.tobytes() == _dense_rasterize(spec).tobytes(), r


@pytest.mark.parametrize("shape", phantom.SHAPES)
def test_band_queries_a_fraction_of_the_voxels(monkeypatch, shape):
    # guards against a silent dense fallback: the exact distance is asked for
    # the band around each tube, not for every voxel
    rows = []
    distance = phantom._distance_to_curve

    def counting(query, s, pts, tree):
        rows.append(len(query))
        return distance(query, s, pts, tree)

    monkeypatch.setattr(phantom, "_distance_to_curve", counting)
    spec = phantom.PhantomSpec(shape=shape)
    phantom.rasterize(spec)
    assert 0 < sum(rows) < np.prod(spec.dims) / 5
