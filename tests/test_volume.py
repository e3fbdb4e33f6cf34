import json

import numpy as np
import pytest

from vesselmesh.volume import Volume, load_raw, sample_trilinear, store_raw

from conftest import affine_volume


def test_constant_volume_samples_constant():
    vol = Volume(np.full((4, 4, 4), 2.5, dtype=np.float32), (1, 1, 1), (0, 0, 0))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 5, size=(50, 3))
    assert np.abs(sample_trilinear(vol, pts) - 2.5).max() <= 1e-12


def test_affine_field_reproduced():
    vol = affine_volume()
    rng = np.random.default_rng(1)
    lo, hi = vol.bounds()
    pts = rng.uniform(lo, hi, size=(200, 3))
    got = sample_trilinear(vol, pts)
    want = 2.0 * pts[:, 0] + 0.25 * pts[:, 1] - 0.5 * pts[:, 2] + 1.0
    assert np.abs(got - want).max() <= 1e-12


def test_x_coordinate_field_at_17():
    # volume whose value is the world x coordinate
    vol = affine_volume(coeffs=(1.0, 0.0, 0.0, 0.0), dims=(8, 4, 4),
                        spacing=(0.5, 1.0, 1.0), origin=(0.0, 0.0, 0.0))
    assert abs(sample_trilinear(vol, (1.7, 1.2, 0.9)) - 1.7) <= 1e-12


def test_cell_center_averages_eight_corners():
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    vol = Volume(data, (1, 1, 1), (0, 0, 0))
    # independent oracle: direct evaluation of the trilinear formula at the
    # cell center weights every corner by 1/8
    expected = data.astype(np.float64).mean()
    assert expected == 3.5
    assert sample_trilinear(vol, (0.5, 0.5, 0.5)) == pytest.approx(expected, abs=1e-15)


def test_voxel_center_identity_exact():
    rng = np.random.default_rng(2)
    data = rng.random((5, 6, 7)).astype(np.float32)
    vol = Volume(data, (0.7, 0.8, 0.9), (-1.0, 2.0, 0.5))
    for idx in [(0, 0, 0), (6, 5, 4), (3, 2, 1), (2, 4, 2)]:
        world = np.asarray(vol.origin) + np.asarray(idx) * np.asarray(vol.spacing)
        assert sample_trilinear(vol, world) == data[idx[2], idx[1], idx[0]]


def test_clamp_matches_boundary_projection():
    rng = np.random.default_rng(3)
    data = rng.random((4, 5, 6)).astype(np.float32)
    vol = Volume(data, (1, 1, 1), (0, 0, 0))
    lo, hi = vol.bounds()
    outside = np.array([[-3.0, 2.0, 1.5], [7.2, -1.0, 9.9], [2.5, 8.0, -2.0]])
    projected = np.clip(outside, lo, hi)
    assert np.array_equal(sample_trilinear(vol, outside), sample_trilinear(vol, projected))


@pytest.mark.parametrize("dims", [(1, 4, 5), (3, 1, 4), (4, 5, 1), (1, 1, 3), (1, 1, 1)])
def test_one_voxel_axes(dims):
    # (nx, ny, nz) with one-voxel axes: voxel centers return the stored value
    # exactly, and anywhere else the samples equal those of the volume with
    # every one-voxel axis doubled, at the point projected onto the box
    rng = np.random.default_rng(sum(dims))
    data = rng.random(dims[::-1]).astype(np.float32)
    vol = Volume(data, (0.7, 0.8, 0.9), (-1.0, 2.0, 0.5))
    for idx in np.ndindex(*dims):
        world = np.asarray(vol.origin) + np.asarray(idx) * np.asarray(vol.spacing)
        assert sample_trilinear(vol, world) == data[idx[2], idx[1], idx[0]]
    doubled = np.ascontiguousarray(np.broadcast_to(data, tuple(max(n, 2) for n in data.shape)))
    doubled = Volume(doubled, vol.spacing, vol.origin)
    pts = rng.uniform(-3.0, 8.0, size=(2000, 3))
    lo, hi = vol.bounds()
    want = sample_trilinear(doubled, np.clip(pts, lo, hi))
    assert np.abs(sample_trilinear(vol, pts) - want).max() <= 1e-12


def test_non_finite_point_rejected():
    vol = Volume(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        sample_trilinear(vol, (np.nan, 0.0, 0.0))


def test_raw_round_trip_bit_exact(tmp_path, straight_volume):
    path = tmp_path / "v.f32raw"
    store_raw(straight_volume, path)
    again = load_raw(path)
    assert np.array_equal(again.data, straight_volume.data)
    assert again.spacing == straight_volume.spacing
    assert again.origin == straight_volume.origin
    store_raw(again, tmp_path / "v2.f32raw")
    assert (tmp_path / "v.f32raw").read_bytes() == (tmp_path / "v2.f32raw").read_bytes()


def test_raw_size_mismatch(tmp_path):
    header = {"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "origin_mm": [0, 0, 0], "dtype": "f32le"}
    (tmp_path / "bad.f32raw.json").write_text(json.dumps(header))
    (tmp_path / "bad.f32raw").write_bytes(np.zeros(7, dtype="<f4").tobytes())
    with pytest.raises(ValueError, match="7 values"):
        load_raw(tmp_path / "bad.f32raw")


def test_raw_unknown_dtype(tmp_path):
    header = {"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "origin_mm": [0, 0, 0], "dtype": "f64be"}
    (tmp_path / "bad.f32raw.json").write_text(json.dumps(header))
    (tmp_path / "bad.f32raw").write_bytes(b"\0" * 4)
    with pytest.raises(ValueError, match="dtype"):
        load_raw(tmp_path / "bad.f32raw")


def test_raw_anisotropic_spacing_exact(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32) + 0.5, (0.8, 0.8, 0.3), (0, 0, 0))
    store_raw(vol, tmp_path / "a.f32raw")
    again = load_raw(tmp_path / "a.f32raw")
    assert again.spacing == (0.8, 0.8, 0.3)


def test_volume_invariants_enforced():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2), dtype=np.float32), (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 0, 1), (0, 0, 0))


def _indexed_trilinear(vol, pts):
    """The earlier sampler body, kept as the reference: clip, floor and
    clamp, then eight fancy-index gathers data[z, y, x] summed in order."""
    q = vol.world_to_index(pts)
    nx, ny, nz = vol.dims
    n = np.array([nx, ny, nz], dtype=np.float64)
    q = np.clip(q, 0.0, n - 1.0)
    i0 = np.floor(q).astype(np.int64)
    i0 = np.minimum(i0, np.asarray([nx - 2, ny - 2, nz - 2], dtype=np.int64))
    i0 = np.maximum(i0, 0)
    f = q - i0
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    d = vol.data
    return (
        d[z0, y0, x0] * (gx * gy * gz)
        + d[z0, y0, x1] * (fx * gy * gz)
        + d[z0, y1, x0] * (gx * fy * gz)
        + d[z0, y1, x1] * (fx * fy * gz)
        + d[z1, y0, x0] * (gx * gy * fz)
        + d[z1, y0, x1] * (fx * gy * fz)
        + d[z1, y1, x0] * (gx * fy * fz)
        + d[z1, y1, x1] * (fx * fy * fz)
    )


@pytest.mark.parametrize("dims", [(9, 7, 5), (2, 2, 2), (1, 6, 4), (5, 1, 1), (1, 1, 1)])
def test_flat_index_gather_matches_indexed_gather(dims):
    # same bits as the per-axis fancy-index gather, inside and outside the box
    rng = np.random.default_rng(7 + sum(dims))
    vol = Volume(rng.random(dims[::-1]).astype(np.float32), (0.6, 1.3, 0.8), (2.0, -1.0, 0.5))
    lo, hi = vol.bounds()
    pts = rng.uniform(lo - 2.0, hi + 2.0, size=(3000, 3))
    assert sample_trilinear(vol, pts).tobytes() == _indexed_trilinear(vol, pts).tobytes()
