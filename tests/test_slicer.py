import numpy as np
import pytest

from vesselmesh import centerline as cl, phantom, slicer
from vesselmesh.volume import Volume, sample_trilinear

from conftest import affine_volume


def _frame(t, n):
    """The rotation with columns (b, n, t), b = n x t."""
    t = np.asarray(t, dtype=float)
    n = np.asarray(n, dtype=float)
    return np.column_stack([np.cross(n, t), n, t])


def _lift(pts2d, anchor, r):
    """One station's (M, 2) in-plane points lifted to world."""
    return slicer.lift(pts2d[None], np.asarray(anchor, dtype=float)[None], r[None])[0]


def test_affine_slice_matches_closed_form():
    vol = affine_volume(coeffs=(1.0, 0.0, 0.0, 0.0), dims=(24, 24, 24),
                        spacing=(0.5, 0.5, 0.5), origin=(0.0, 0.0, 0.0))
    anchor = np.array([5.5, 5.5, 5.5])
    r = _frame([0, 0, 1], [0, 1, 0])
    pixels = slicer.extract_slice(vol, anchor, r, 2.0, 17)
    ds = slicer.pixel_spacing(2.0, 17)
    c = (17 - 1) / 2.0
    # V(x) = x and b = (1, 0, 0): value is affine in i with slope ds
    ii = np.arange(17)
    want = anchor[0] + (ii - c) * ds * r[0, 0]
    for j in (0, 8, 16):
        assert np.abs(pixels[:, j] - want).max() <= 1e-9
    assert pixels[8, 8] == pytest.approx(anchor[0], abs=1e-12)


def test_affine_slice_rotated_frame_closed_form():
    vol = affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0), dims=(24, 24, 24),
                        spacing=(0.5, 0.5, 0.5), origin=(-2.0, -2.0, -2.0))
    t = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    n = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    anchor = np.array([2.2, 2.4, 2.6])
    r = _frame(t, n)
    pixels = slicer.extract_slice(vol, anchor, r, 1.5, 16)
    coeff = np.array([2.0, 0.25, -0.5])
    ds = slicer.pixel_spacing(1.5, 16)
    c = (16 - 1) / 2.0
    for i in (0, 7, 15):
        for j in (0, 5, 15):
            world = anchor + (i - c) * ds * r[:, 0] + (j - c) * ds * r[:, 1]
            want = coeff @ world + 1.0
            assert pixels[i, j] == pytest.approx(want, abs=1e-9)


def test_constant_volume_constant_slice():
    vol = Volume(np.full((8, 8, 8), 0.75, dtype=np.float32), (1, 1, 1), (0, 0, 0))
    pixels = slicer.extract_slice(vol, np.array([3.5, 3.5, 3.5]), _frame([0, 0, 1], [1, 0, 0]),
                                  2.0, 16)
    assert np.abs(pixels - 0.75).max() <= 1e-12


def test_tube_cross_section_disk_area(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    rs = cl.frames(pts)
    half_extent = 4 * straight_spec.base_radius_mm
    pixels = slicer.extract_slice(straight_volume, pts[8], rs[8], half_extent, 64)
    ds = slicer.pixel_spacing(half_extent, 64)
    # pixel-counting oracle against the half-level disk of radius r + w/2
    r_half = straight_spec.base_radius_mm + straight_spec.wall_softness / 2.0
    area = (pixels >= 0.5).sum() * ds * ds
    assert abs(area - np.pi * r_half ** 2) / (np.pi * r_half ** 2) <= 0.05


def test_lift_origin_is_anchor():
    anchor = np.array([1.0, 2.0, 3.0])
    lifted = _lift(np.array([[0.0, 0.0]]), anchor, _frame([0, 0, 1], [1, 0, 0]))
    assert np.array_equal(lifted[0], anchor)


def test_lift_project_identity():
    rng = np.random.default_rng(1)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    helper = np.array([0.3, -0.8, 0.52])
    n = helper - np.dot(helper, t) * t
    n /= np.linalg.norm(n)
    anchor = np.array([4.0, -2.0, 7.0])
    r = _frame(t, n)
    pts2d = rng.uniform(-3, 3, size=(40, 2))
    lifted = _lift(pts2d, anchor, r)
    back = (lifted - anchor) @ r  # world -> plane is R^T
    assert np.abs(back[:, :2] - pts2d).max() <= 1e-12
    assert np.abs(back[:, 2]).max() <= 1e-12
    # lifted points lie exactly on the plane
    assert np.abs((lifted - anchor) @ r[:, 2]).max() <= 1e-9


def test_lift_preserves_distances():
    anchor = np.array([0.5, 0.5, 0.5])
    theta = np.linspace(0, 2 * np.pi, 33)[:-1]
    r = 1.7
    circle = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    lifted = _lift(circle, anchor, _frame([0, 1, 0], [0, 0, 1]))
    d = np.linalg.norm(lifted - anchor, axis=1)
    assert np.abs(d - r).max() <= 1e-9


def test_slice_lift_resample_consistency(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    rs = cl.frames(pts)
    pixels = slicer.extract_slice(straight_volume, pts[4], rs[4], 10.0, 32)
    ij = np.array([[3, 5], [10, 20], [31, 31], [16, 0]])
    plane_mm = (ij - (32 - 1) / 2.0) * slicer.pixel_spacing(10.0, 32)
    world = _lift(plane_mm, pts[4], rs[4])
    resampled = sample_trilinear(straight_volume, world)
    assert np.abs(resampled - pixels[ij[:, 0], ij[:, 1]]).max() <= 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(2)
    data = rng.random((12, 12, 12)).astype(np.float32)
    shift = np.array([13.0, -4.0, 6.0])
    vol_a = Volume(data, (1, 1, 1), (0.0, 0.0, 0.0))
    vol_b = Volume(data, (1, 1, 1), tuple(shift))
    anchor = np.array([5.0, 5.0, 5.0])
    r = _frame([0, 0, 1], [1, 0, 0])
    sa = slicer.extract_slice(vol_a, anchor, r, 3.0, 16)
    sb = slicer.extract_slice(vol_b, anchor + shift, r, 3.0, 16)
    assert np.abs(sa - sb).max() <= 1e-12


def test_pgm_dump_and_mask_read(tmp_path):
    vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    pixels = slicer.extract_slice(vol, np.array([3.5, 3.5, 3.5]), _frame([0, 0, 1], [1, 0, 0]),
                                  2.0, 16)
    slicer.write_pgm(pixels, tmp_path / "s.pgm")
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
    vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    r = _frame([0, 0, 1], [1, 0, 0])
    anchor = np.zeros(3)
    with pytest.raises(ValueError, match="^n_pix must be at least 16$"):
        slicer.extract_slice(vol, anchor, r, 2.0, 8)
    with pytest.raises(ValueError, match="^half_extent must be positive$"):
        slicer.extract_slice(vol, anchor, r, -1.0, 32)
    assert slicer.pixel_spacing(2.0, 17) == pytest.approx(4.0 / 16)


def test_non_orthonormal_frame_rejected():
    vol = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    r = _frame([0, 0, 1], [1, 0, 0])
    # scaled, sheared by more than the 1e-9 tolerance, and one stretched axis
    for bad in (r * 1.01, r + 1e-6 * np.triu(np.ones((3, 3))), r @ np.diag([1.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="^slice plane frame is not orthonormal$"):
            slicer.extract_slice(vol, np.zeros(3), bad, 2.0, 16)
