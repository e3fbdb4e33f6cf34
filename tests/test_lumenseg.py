import numpy as np
import pytest

from vesselmesh import centerline as cl, lumenseg, phantom, slicer


# pixel spacing of the 64-pixel test slices, 10 mm half extent
_DS = slicer.pixel_spacing(10.0, 64)


def _perimeter(points):
    return float(np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1).sum())


def _disk_slice(center_px, radius_px, n=64):
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = np.hypot(ii - center_px[0], jj - center_px[1])
    return np.where(d <= radius_px, 1.0, 0.0)


def test_segment_disk_exact():
    pixels = _disk_slice((31.5, 31.5), 14.0)
    mask, _ = lumenseg.segment_slice(pixels, (31, 31))
    assert np.array_equal(mask, pixels >= 0.5)


def test_segment_selects_connected_component():
    n = 64
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    da = np.hypot(ii - 18, jj - 18)
    db = np.hypot(ii - 45, jj - 45)
    pixels = np.where((da <= 8) | (db <= 8), 1.0, 0.0)
    mask, _ = lumenseg.segment_slice(pixels, (18, 18))
    assert np.array_equal(mask, da <= 8)
    assert not mask[45, 45]


def test_segment_prompt_recovery_within_radius():
    pixels = _disk_slice((40.0, 40.0), 6.0)
    # prompt 4 pixels outside the disk edge: nearest in-disk pixel is used
    mask, seed = lumenseg.segment_slice(pixels, (40, 30))
    assert mask.any()
    assert seed == (40, 34)


def test_segment_fails_beyond_radius():
    pixels = _disk_slice((50.0, 50.0), 4.0)
    with pytest.raises(lumenseg.SegmentationFailed):
        lumenseg.segment_slice(pixels, (5, 5))


def test_segment_phantom_slice_area(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    rs = cl.frames(pts)
    half_extent = 4 * straight_spec.base_radius_mm
    pixels = slicer.extract_slice(straight_volume, pts[8], rs[8], half_extent, 64)
    center = (64 - 1) // 2
    mask, _ = lumenseg.segment_slice(pixels, (center, center))
    ds = slicer.pixel_spacing(half_extent, 64)
    # pixel-counting oracle: flood fill recovers the half-level disk
    r_half = straight_spec.base_radius_mm + straight_spec.wall_softness / 2.0
    area = int(mask.sum()) * ds * ds
    assert abs(area - np.pi * r_half ** 2) / (np.pi * r_half ** 2) <= 0.05


def test_single_pixel_mask_rejected():
    px = np.zeros((16, 16), dtype=bool)
    px[8, 8] = True
    with pytest.raises(ValueError, match="M >= 8"):
        lumenseg.trace_boundary(px, slicer.pixel_spacing(10.0, 16))


def test_square_boundary_pixel_count():
    px = np.zeros((16, 16), dtype=bool)
    px[3:13, 3:13] = True  # 10x10 square
    contour = lumenseg.trace_boundary(px, slicer.pixel_spacing(10.0, 16))
    # hand rule: 4 * 10 - 4 = 36 boundary pixels
    assert len(contour) == 36


def test_disk_isoperimetric_ratio():
    # the traced pixel-center polygon carries a staircase perimeter penalty
    # of about 5 percent, so the ratio sits just above 0.9 at this radius;
    # resampling smooths the staircase and pushes it near 1
    mask, _ = lumenseg.segment_slice(_disk_slice((31.5, 31.5), 24.0), (31, 31))
    contour = lumenseg.trace_boundary(mask, _DS)
    area = lumenseg.signed_area(contour)
    ratio = 4 * np.pi * area / _perimeter(contour) ** 2
    assert ratio >= 0.9
    rs = lumenseg.resample_contour(contour, 32)
    assert 4 * np.pi * lumenseg.signed_area(rs) / _perimeter(rs) ** 2 >= 0.98


def _is_simple(points2d, tol: float = 1e-12) -> bool:
    """O(M^2) proper segment-intersection check on a closed polygon."""
    p = np.asarray(points2d, dtype=np.float64)
    m = len(p)
    segs = [(p[i], p[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        a1, a2 = segs[i]
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue  # adjacent segments share an endpoint
            b1, b2 = segs[j]
            r = a2 - a1
            s = b2 - b1
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < tol:
                continue
            qp = b1 - a1
            t = (qp[0] * s[1] - qp[1] * s[0]) / denom
            u = (qp[0] * r[1] - qp[1] * r[0]) / denom
            if tol < t < 1 - tol and tol < u < 1 - tol:
                return False
    return True


def test_trace_is_ccw_and_simple(straight_spec, straight_volume):
    pts = phantom.analytic_centerline(straight_spec, 16)
    rs = cl.frames(pts)
    for idx in (2, 8, 13):
        pixels = slicer.extract_slice(straight_volume, pts[idx], rs[idx], 24.0, 64)
        c = (64 - 1) // 2
        mask, _ = lumenseg.segment_slice(pixels, (c, c))
        contour = lumenseg.trace_boundary(mask, slicer.pixel_spacing(24.0, 64))
        assert lumenseg.signed_area(contour) > 0
        assert _is_simple(contour)


def test_trace_empty_mask_errors():
    with pytest.raises(ValueError, match="empty"):
        lumenseg.trace_boundary(np.zeros((16, 16), dtype=bool), slicer.pixel_spacing(10.0, 16))


def test_resample_default_is_32():
    theta = np.linspace(0, 2 * np.pi, 65)[:-1]
    contour = np.column_stack([np.cos(theta), np.sin(theta)])
    assert len(lumenseg.resample_contour(contour)) == 32


def test_resample_circle_uniform_gaps():
    r = 7.0
    theta = np.linspace(0, 2 * np.pi, 4097)[:-1]
    contour = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    out = lumenseg.resample_contour(contour, 32)
    gaps = np.linalg.norm(np.roll(out, -1, axis=0) - out, axis=1)
    # equal by symmetry; the common arc gap approaches 2 pi r / M as the
    # source polygon converges to the circle
    assert np.abs(gaps - gaps.mean()).max() <= 1e-9
    arc_gap = _perimeter(contour) / 32
    assert abs(arc_gap - 2 * np.pi * r / 32) <= 1e-6


def test_resample_square_hand_walk():
    # 8-point square, perimeter 40; arc-length walk by hand gives gaps of 5
    square = np.array(
        [[5.0, 0.0], [5.0, 5.0], [0.0, 5.0], [-5.0, 5.0], [-5.0, 0.0],
         [-5.0, -5.0], [0.0, -5.0], [5.0, -5.0]]
    )
    out = lumenseg.resample_contour(square, 8)
    gaps = np.linalg.norm(np.roll(out, -1, axis=0) - out, axis=1)
    assert np.abs(gaps - 5.0).max() <= 1e-9
    # seam: maximum first coordinate, lowest index on ties
    assert np.array_equal(out[0], [5.0, 0.0])


def test_resample_idempotent_on_equilateral_outputs():
    r = 3.0
    theta = np.linspace(0, 2 * np.pi, 129)[:-1]
    circle = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    once = lumenseg.resample_contour(circle, 32)
    twice = lumenseg.resample_contour(once, 32)
    assert np.abs(twice - once).max() <= 1e-9

    square = np.array([[5.0, 0.0], [5.0, 5.0], [0.0, 5.0], [-5.0, 5.0], [-5.0, 0.0],
                       [-5.0, -5.0], [0.0, -5.0], [5.0, -5.0]])
    once = lumenseg.resample_contour(square, 8)
    twice = lumenseg.resample_contour(once, 8)
    assert np.abs(twice - once).max() <= 1e-9


def test_pipeline_circle_radial_deviation(straight_spec, straight_volume):
    # segment -> trace -> resample on a rasterized circle: radial deviation
    # from the half-level circle stays within one pixel spacing
    pts = phantom.analytic_centerline(straight_spec, 16)
    rs = cl.frames(pts)
    half_extent = 4 * straight_spec.base_radius_mm
    pixels = slicer.extract_slice(straight_volume, pts[8], rs[8], half_extent, 64)
    c = (64 - 1) // 2
    mask, _ = lumenseg.segment_slice(pixels, (c, c))
    ds = slicer.pixel_spacing(half_extent, 64)
    contour = lumenseg.resample_contour(lumenseg.trace_boundary(mask, ds), 32)
    r_half = straight_spec.base_radius_mm + straight_spec.wall_softness / 2.0
    radial = np.linalg.norm(contour, axis=1)
    assert np.abs(radial - r_half).max() <= ds


def test_contour_invariants():
    with pytest.raises(ValueError, match="M >= 8"):
        lumenseg.resample_contour(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"must be \(M, 2\)"):
        lumenseg.resample_contour(np.zeros((10, 3)))


# ---------------------------------------------------------------------------
# the prompt search and the arc-length walk against the loops they replaced,
# kept verbatim: equal seeds and equal bytes


def _loop_prompt_seed(above, i0, j0):
    n = above.shape[0]
    best = None
    r = lumenseg._PROMPT_SEARCH_RADIUS
    for i in range(max(0, i0 - r), min(n, i0 + r + 1)):
        for j in range(max(0, j0 - r), min(n, j0 + r + 1)):
            if not above[i, j]:
                continue
            d2 = (i - i0) ** 2 + (j - j0) ** 2
            if d2 > r * r:
                continue
            cand = (d2, i, j)
            if best is None or cand < best:
                best = cand
    return None if best is None else (best[1], best[2])


def _loop_resample(p, m):
    n = len(p)
    edges = np.roll(p, -1, axis=0) - p
    seg_len = np.linalg.norm(edges, axis=1)
    perim = float(seg_len.sum())
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    seam = int(np.argmax(p[:, 0]))
    s0 = cum[seam]
    out = np.empty((m, 2))
    out[0] = p[seam]
    for k in range(1, m):
        s = (s0 + k * perim / m) % perim
        e = int(np.searchsorted(cum, s, side="right")) - 1
        e = min(e, n - 1)
        t = (s - cum[e]) / seg_len[e] if seg_len[e] > 0 else 0.0
        out[k] = p[e] + t * edges[e]
    return out


def _prompt_cases():
    rng = np.random.default_rng(30)
    for n in (16, 24, 64):
        for _ in range(400):
            pixels = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.2), 1.0, 0.0)
            i0, j0 = (int(v) for v in rng.integers(0, n, 2))
            pixels[i0, j0] = 0.25
            yield pixels, (i0, j0)
    # ties at equal distance: every pixel with d2 = 25 is above threshold, and
    # so are pairs mirrored about the prompt
    n = 20
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for i0, j0 in ((10, 10), (2, 10), (10, 17), (0, 0), (19, 4)):
        d2 = (ii - i0) ** 2 + (jj - j0) ** 2
        yield np.where(d2 == 25, 1.0, 0.0), (i0, j0)
        for di, dj in ((1, 2), (2, 2), (0, 3)):
            pixels = np.zeros((n, n))
            for a, b in ((i0 + di, j0 + dj), (i0 - di, j0 - dj), (i0 + dj, j0 - di)):
                if 0 <= a < n and 0 <= b < n:
                    pixels[a, b] = 1.0
            yield pixels, (i0, j0)


def test_prompt_search_matches_loop():
    seen = {"found": 0, "failed": 0}
    for pixels, prompt in _prompt_cases():
        want = _loop_prompt_seed(pixels >= 0.5, *prompt)
        if want is None:
            with pytest.raises(lumenseg.SegmentationFailed):
                lumenseg.segment_slice(pixels, prompt)
            seen["failed"] += 1
        else:
            assert lumenseg.segment_slice(pixels, prompt)[1] == want
            seen["found"] += 1
    assert seen["found"] > 1000 and seen["failed"] > 50


def _resample_cases():
    rng = np.random.default_rng(31)
    for case in range(3000):
        n = int(rng.integers(8, 201))
        theta = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        radius = rng.uniform(1.0, 3.0, n)
        pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
        if case % 3 == 0:
            pts = np.round(pts * 4.0) / 4.0  # some edges get zero length
        yield pts, int(rng.integers(8, 80))
    # regular polygons from angle pi, closed by a repeat of the first vertex:
    # the running sum of edge lengths ends below their total, so the walk
    # reaches the clamp to the last edge, whose length is zero
    for n in range(8, 40, 2):
        theta = np.pi + 2 * np.pi * np.arange(n) / n
        pts = 3.7 * np.column_stack([np.cos(theta), np.sin(theta)])
        for m in range(8, 80, 6):
            yield np.vstack([pts, pts[:1]]), m


def test_resample_matches_loop_bytes():
    zero_edges = 0
    for pts, m in _resample_cases():
        zero_edges += int((np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1) == 0).sum())
        got = lumenseg.resample_contour(pts, m)
        assert got.tobytes() == _loop_resample(pts, m).tobytes()
    assert zero_edges > 1000
