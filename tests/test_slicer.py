import numpy as np
import pytest

from vesselmesh import centerline as cl, phantom, slicer
from vesselmesh.volume import Volume, sample_trilinear

from conftest import affine_volume


def _frame(t, n, anchor):
    t = np.asarray(t, dtype=float)
    n = np.asarray(n, dtype=float)
    return cl.LocalFrame(t=t, n=n, b=np.cross(n, t), anchor=np.asarray(anchor, dtype=float))


def test_affine_slice_matches_closed_form():
    vol = affine_volume(coeffs=(1.0, 0.0, 0.0, 0.0), dims=(24, 24, 24),
                        spacing=(0.5, 0.5, 0.5), origin=(0.0, 0.0, 0.0))
    anchor = np.array([5.5, 5.5, 5.5])
    plane = slicer.SlicePlane(_frame([0, 0, 1], [0, 1, 0], anchor), half_extent=2.0, n_pix=17)
    slc = slicer.extract_slice(vol, plane)
    ds = plane.pixel_spacing
    c = (plane.n_pix - 1) / 2.0
    # V(x) = x and b = (1, 0, 0): value is affine in i with slope ds
    ii = np.arange(plane.n_pix)
    want = anchor[0] + (ii - c) * ds * plane.frame.b[0]
    for j in (0, 8, 16):
        assert np.abs(slc.pixels[:, j] - want).max() <= 1e-9
    assert slc.pixels[8, 8] == pytest.approx(anchor[0], abs=1e-12)


def test_affine_slice_rotated_frame_closed_form():
    vol = affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0), dims=(24, 24, 24),
                        spacing=(0.5, 0.5, 0.5), origin=(-2.0, -2.0, -2.0))
    t = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    n = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    anchor = np.array([2.2, 2.4, 2.6])
    plane = slicer.SlicePlane(_frame(t, n, anchor), half_extent=1.5, n_pix=16)
    slc = slicer.extract_slice(vol, plane)
    coeff = np.array([2.0, 0.25, -0.5])
    ds = plane.pixel_spacing
    c = (plane.n_pix - 1) / 2.0
    for i in (0, 7, 15):
        for j in (0, 5, 15):
            world = anchor + (i - c) * ds * plane.frame.b + (j - c) * ds * plane.frame.n
            want = coeff @ world + 1.0
            assert slc.pixels[i, j] == pytest.approx(want, abs=1e-9)


def test_constant_volume_constant_slice():
    vol = Volume(np.full((8, 8, 8), 0.75, dtype=np.float32), (1, 1, 1), (0, 0, 0))
    plane = slicer.SlicePlane(_frame([0, 0, 1], [1, 0, 0], [3.5, 3.5, 3.5]),
                              half_extent=2.0, n_pix=16)
    slc = slicer.extract_slice(vol, plane)
    assert np.abs(slc.pixels - 0.75).max() <= 1e-12


def test_tube_cross_section_disk_area(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    frs = cl.frames(pts)
    plane = slicer.SlicePlane(frs[8], half_extent=4 * straight_spec.base_radius_mm, n_pix=64)
    slc = slicer.extract_slice(straight_volume, plane)
    ds = plane.pixel_spacing
    # pixel-counting oracle against the half-level disk of radius r + w/2
    r_half = straight_spec.base_radius_mm + straight_spec.wall_softness / 2.0
    area = (slc.pixels >= 0.5).sum() * ds * ds
    assert abs(area - np.pi * r_half ** 2) / (np.pi * r_half ** 2) <= 0.05


def test_lift_origin_is_anchor():
    anchor = np.array([1.0, 2.0, 3.0])
    plane = slicer.SlicePlane(_frame([0, 0, 1], [1, 0, 0], anchor), half_extent=2.0, n_pix=16)
    lifted = plane.plane_to_world(np.array([[0.0, 0.0]]))
    assert np.array_equal(lifted[0], anchor)


def test_lift_project_identity():
    rng = np.random.default_rng(1)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    helper = np.array([0.3, -0.8, 0.52])
    n = helper - np.dot(helper, t) * t
    n /= np.linalg.norm(n)
    plane = slicer.SlicePlane(_frame(t, n, [4.0, -2.0, 7.0]), half_extent=3.0, n_pix=16)
    pts2d = rng.uniform(-3, 3, size=(40, 2))
    lifted = plane.plane_to_world(pts2d)
    back = plane.world_to_plane(lifted)
    assert np.abs(back[:, :2] - pts2d).max() <= 1e-12
    assert np.abs(back[:, 2]).max() <= 1e-12
    # lifted points lie exactly on the plane
    assert np.abs((lifted - plane.frame.anchor) @ plane.frame.t).max() <= 1e-9


def test_lift_preserves_distances():
    plane = slicer.SlicePlane(
        _frame([0, 1, 0], [0, 0, 1], [0.5, 0.5, 0.5]), half_extent=2.0, n_pix=16
    )
    theta = np.linspace(0, 2 * np.pi, 33)[:-1]
    r = 1.7
    circle = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    lifted = plane.plane_to_world(circle)
    d = np.linalg.norm(lifted - plane.frame.anchor, axis=1)
    assert np.abs(d - r).max() <= 1e-9


def test_slice_lift_resample_consistency(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    frs = cl.frames(pts)
    plane = slicer.SlicePlane(frs[4], half_extent=10.0, n_pix=32)
    slc = slicer.extract_slice(straight_volume, plane)
    ij = np.array([[3, 5], [10, 20], [31, 31], [16, 0]])
    plane_mm = plane.pixel_to_plane(ij.astype(float))
    world = plane.plane_to_world(plane_mm)
    resampled = sample_trilinear(straight_volume, world)
    assert np.abs(resampled - slc.pixels[ij[:, 0], ij[:, 1]]).max() <= 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(2)
    data = rng.random((12, 12, 12)).astype(np.float32)
    shift = np.array([13.0, -4.0, 6.0])
    vol_a = Volume(data, (1, 1, 1), (0.0, 0.0, 0.0))
    vol_b = Volume(data, (1, 1, 1), tuple(shift))
    anchor = np.array([5.0, 5.0, 5.0])
    fr_a = _frame([0, 0, 1], [1, 0, 0], anchor)
    fr_b = _frame([0, 0, 1], [1, 0, 0], anchor + shift)
    sa = slicer.extract_slice(vol_a, slicer.SlicePlane(fr_a, 3.0, 16))
    sb = slicer.extract_slice(vol_b, slicer.SlicePlane(fr_b, 3.0, 16))
    assert np.abs(sa.pixels - sb.pixels).max() <= 1e-12


def test_pgm_dump_and_mask_read(tmp_path):
    vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    plane = slicer.SlicePlane(_frame([0, 0, 1], [1, 0, 0], [3.5, 3.5, 3.5]), 2.0, 16)
    slc = slicer.extract_slice(vol, plane)
    slicer.write_pgm(slc, tmp_path / "s.pgm")
    assert (tmp_path / "s.pgm").read_text().startswith("P2")

    (tmp_path / "m2.pgm").write_text("P2\n3 2\n255\n0 255 0\n255 0 255\n")
    mask = slicer.read_pgm_mask(tmp_path / "m2.pgm")
    assert mask.shape == (2, 3)
    assert mask.tolist() == [[False, True, False], [True, False, True]]

    header = b"P5\n3 2\n255\n"
    (tmp_path / "m5.pgm").write_bytes(header + bytes([0, 255, 0, 255, 0, 255]))
    mask5 = slicer.read_pgm_mask(tmp_path / "m5.pgm")
    assert np.array_equal(mask5, mask)


def test_plane_invariants():
    fr = _frame([0, 0, 1], [1, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        slicer.SlicePlane(fr, half_extent=2.0, n_pix=8)
    with pytest.raises(ValueError):
        slicer.SlicePlane(fr, half_extent=-1.0, n_pix=32)
    plane = slicer.SlicePlane(fr, half_extent=2.0, n_pix=17)
    assert plane.pixel_spacing == pytest.approx(4.0 / 16)
