import numpy as np
import pytest

from vesselmesh import centerline as cl


def _circle_points(radius, angles):
    return np.column_stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros_like(angles)]
    )


def test_tangents_collinear():
    pts = np.column_stack([np.zeros(6), np.zeros(6), np.linspace(0, 10, 6)])
    t = cl.tangents(pts)
    assert np.allclose(t, [0, 0, 1], atol=1e-15)


def test_last_tangent_copies_predecessor():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.uniform(0.5, 1.0, size=(8, 3)), axis=0)
    t = cl.tangents(pts)
    assert np.array_equal(t[-1], t[-2])


def test_quarter_circle_tangents_match_analytic():
    angles = np.linspace(0.0, np.pi / 2, 12)
    pts = _circle_points(10.0, angles)
    t = cl.tangents(pts)
    analytic = np.column_stack([-np.sin(angles), np.cos(angles), np.zeros_like(angles)])
    # interior stations: a symmetric chord is parallel to the true tangent
    assert np.abs(t[1:-1] - analytic[1:-1]).max() <= 1e-6


def test_tangents_duplicate_points_error():
    pts = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 1], [0, 0, 2.0]])
    with pytest.raises(ValueError):
        cl.tangents(pts)


def test_smooth_resample_preserves_lines():
    pts = np.column_stack([np.linspace(0, 3, 7), np.linspace(0, -6, 7), np.linspace(0, 9, 7)])
    out = cl.smooth_resample(pts, 16)
    d = pts[-1] - pts[0]
    d = d / np.linalg.norm(d)
    rel = out - pts[0]
    off_line = rel - (rel @ d)[:, None] * d[None, :]
    assert np.abs(off_line).max() <= 1e-9
    assert np.allclose(out[0], pts[0], atol=1e-9)
    assert np.allclose(out[-1], pts[-1], atol=1e-9)


def test_smooth_resample_uniform_chords():
    angles = np.linspace(0, np.pi / 2, 10)
    pts = _circle_points(20.0, angles)
    out = cl.smooth_resample(pts, 24)
    gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert (gaps.max() - gaps.min()) / gaps.mean() <= 0.005


def _total_turning(pts):
    d = np.diff(pts, axis=0)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    dots = np.clip(np.einsum("ij,ij->i", d[:-1], d[1:]), -1, 1)
    return float(np.arccos(dots).sum())


def test_smooth_resample_reduces_zigzag_turning():
    rng = np.random.default_rng(3)
    base = np.column_stack([np.zeros(20), np.zeros(20), np.linspace(0, 40, 20)])
    noisy = base + rng.normal(0, 0.8, size=base.shape)
    out = cl.smooth_resample(noisy, 20)
    assert _total_turning(out) < _total_turning(noisy)


def test_frames_straight_line():
    pts = np.column_stack([np.zeros(8), np.zeros(8), np.arange(8.0)])
    rs = cl.frames(pts)
    assert rs.shape == (8, 3, 3)
    for r in rs:
        assert np.allclose(r[:, 1], [1, 0, 0], atol=1e-12)
        assert np.allclose(r[:, 0], [0, -1, 0], atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_frames_planar_arc_stay_in_plane():
    # rotation-minimizing frames of a planar curve keep one frame vector
    # pinned to the plane normal; with the least-aligned-axis seed that is
    # the normal vector (the out-of-plane axis is orthogonal to t0)
    angles = np.linspace(0, np.pi / 2, 24)
    pts = np.column_stack([10 * np.cos(angles), np.zeros_like(angles), 10 * np.sin(angles)])
    rs = cl.frames(pts)
    n0 = rs[0, :, 1]
    assert abs(abs(n0[1]) - 1.0) <= 1e-9  # plane normal is y
    for r in rs:
        assert np.abs(r[:, 1] - n0).max() <= 1e-9
        assert abs(r[1, 0]) <= 1e-9  # binormal stays in-plane


def test_frames_orthonormal_on_helix():
    s = np.linspace(0, 4 * np.pi, 40)
    pts = np.column_stack([5 * np.cos(s), 5 * np.sin(s), 2 * s])
    for r in cl.frames(pts):
        b, n, t = r.T
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.linalg.norm(t) - 1) <= 1e-12
        assert abs(np.linalg.norm(n) - 1) <= 1e-12
        assert abs(np.linalg.norm(b) - 1) <= 1e-12
        assert abs(np.dot(t, n)) <= 1e-12
        assert abs(np.dot(t, b)) <= 1e-12
        assert abs(np.dot(n, b)) <= 1e-12


def _angle(u, v):
    return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))


def test_frame_continuity_no_spurious_twist():
    # holds on adequately sampled smooth curves (the operating regime);
    # checked on helix, arc, and phantom-style centerlines
    curves = []
    s = np.linspace(0, 4 * np.pi, 40)
    curves.append(np.column_stack([5 * np.cos(s), 5 * np.sin(s), 2 * s]))
    th = np.linspace(0, np.pi / 2, 16)
    curves.append(np.column_stack([25 * np.cos(th), np.zeros(16), 25 * np.sin(th)]))
    rng = np.random.default_rng(5)
    steps = rng.normal(size=(30, 3)) * 0.04 + np.array([0.1, 0.05, 1.0])
    curves.append(np.cumsum(steps, axis=0))
    for pts in curves:
        rs = cl.frames(pts)
        for a, b in zip(rs[:-1], rs[1:]):
            assert _angle(a[:, 1], b[:, 1]) <= _angle(a[:, 2], b[:, 2]) + 1e-6


def test_encode_decode_identity():
    rng = np.random.default_rng(6)
    lo = np.array([-10.0, 0.0, 5.0])
    hi = np.array([30.0, 45.0, 60.0])
    pts = rng.uniform(lo, hi, size=(16, 3))
    img = cl.encode_image(pts, lo, hi)
    assert img.min() >= -1.0 - 1e-12 and img.max() <= 1.0 + 1e-12
    back = cl.decode_image(img, lo, hi)
    assert np.abs(back - pts).max() <= 1e-9


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-50, 50, size=(16, 3))
    cl.write_csv(pts, tmp_path / "c.csv")
    again = cl.read_csv(tmp_path / "c.csv")
    assert np.abs(again - pts).max() <= np.abs(pts).max() * 1e-8  # 9 significant digits


def test_validate_centerline_rules():
    with pytest.raises(ValueError):
        cl.validate_centerline(np.zeros((3, 3)))
    pts = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 1], [0, 0, 2.0]])
    with pytest.raises(ValueError):
        cl.validate_centerline(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_centerline_rejects_non_finite(bad):
    pts = np.column_stack([np.zeros(6), np.zeros(6), np.linspace(0, 10, 6)])
    pts[2, 1] = bad
    pts[4, 0] = bad
    with pytest.raises(ValueError, match=r"rows \[2, 4\] are not finite"):
        cl.validate_centerline(pts)
    with pytest.raises(ValueError, match="not finite"):
        cl.frames(pts)
