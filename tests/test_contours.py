import numpy as np
import pytest

from vesselmesh import contours, phantom


def _ring(radius, m, phase=0.0, z=0.0, center=(0.0, 0.0)):
    theta = 2 * np.pi * np.arange(m) / m + phase
    return np.column_stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta),
         np.full(m, z)]
    )


def _perimeter(points):
    return float(np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1).sum())


def test_exact_shift_recovered():
    prev = _ring(5.0, 32)
    prev += np.random.default_rng(0).normal(0, 0.3, prev.shape)
    nxt = np.roll(prev, 5, axis=0)
    k, cost = contours.best_shift(prev, nxt)
    assert k == 5
    assert cost <= 1e-20
    aligned = contours.align_chain([prev, nxt])
    assert np.array_equal(aligned[1], prev)


def test_concentric_phase_offset_closed_form():
    m = 32
    for theta in (0.3, 1.1, 2.0):
        prev = _ring(5.0, m)
        nxt = _ring(7.0, m, phase=-theta)
        k, _ = contours.best_shift(prev, nxt)
        # closed-form optimum for circles: the shift undoing the phase offset
        assert k == round(theta * m / (2 * np.pi)) % m


def test_exhaustive_search_is_optimal():
    rng = np.random.default_rng(1)
    m = 32
    prev = _ring(4.0, m) + rng.normal(0, 0.5, (m, 3))
    nxt = _ring(4.5, m, phase=0.7) + rng.normal(0, 0.5, (m, 3))
    k_star, best = contours.best_shift(prev, nxt)
    # brute-force certification over all m candidate shifts
    costs = [
        float(((prev - np.roll(nxt, -k, axis=0)) ** 2).sum()) for k in range(m)
    ]
    assert best == pytest.approx(min(costs), rel=1e-12)
    assert k_star == int(np.argmin(costs))


def _loop_best_shift(prev_pts, next_pts):
    """The per-shift loop best_shift replaced, kept as its reference."""
    m = len(prev_pts)
    costs = np.empty(m)
    for k in range(m):
        rolled = np.roll(next_pts, -k, axis=0)
        diff = prev_pts - rolled
        costs[k] = np.einsum("ij,ij->", diff, diff)
    k_star = int(np.argmin(costs))
    return k_star, float(costs[k_star])


def test_best_shift_matches_loop_bits():
    # random, rounded (exact ties) and near-rolled contours of many sizes
    rng = np.random.default_rng(5)
    for i in range(300):
        m = int(rng.integers(3, 80))
        prev = rng.normal(0.0, 5.0, (m, 3))
        if i % 3 == 0:
            nxt = rng.normal(0.0, 5.0, (m, 3))
        elif i % 3 == 1:
            prev, nxt = np.round(prev), np.round(rng.normal(0.0, 5.0, (m, 3)))
        else:
            nxt = np.roll(prev, int(rng.integers(0, m)), axis=0) + rng.normal(0.0, 1e-9, (m, 3))
        k, cost = contours.best_shift(prev, nxt)
        k_ref, cost_ref = _loop_best_shift(prev, nxt)
        assert (k, cost.hex()) == (k_ref, cost_ref.hex()), i


def test_alignment_preserves_geometry():
    rng = np.random.default_rng(2)
    prev = _ring(5.0, 32) + rng.normal(0, 0.2, (32, 3))
    nxt = _ring(5.5, 32, phase=0.4, z=2.0) + rng.normal(0, 0.2, (32, 3))
    aligned = contours.align_chain([prev, nxt])
    assert np.array_equal(aligned[0], prev)
    assert sorted(map(tuple, aligned[1])) == sorted(map(tuple, nxt))
    per_in = _perimeter(nxt)
    per_out = _perimeter(aligned[1])
    assert per_out == pytest.approx(per_in, rel=1e-12)


def test_mismatched_m_errors():
    with pytest.raises(ValueError):
        contours.align_chain([_ring(5, 32), _ring(5, 16)])


def test_chain_rejects_bad_stacks():
    with pytest.raises(ValueError, match=r"\(K, M, 3\)"):
        contours.align_chain(np.zeros((4, 32, 2)))
    with pytest.raises(ValueError, match="at least 2"):
        contours.align_chain(_ring(5, 32)[None])


def test_chain_identical_unchanged():
    ring = _ring(5.0, 32)
    chain = np.stack([ring] * 6)
    aligned = contours.align_chain(chain)
    for c in aligned:
        assert np.array_equal(c, ring)


def test_chain_recovers_injected_shifts():
    rng = np.random.default_rng(3)
    base = []
    z = 0.0
    for i in range(8):
        ring = _ring(5.0 + 0.1 * i, 32, z=z) + rng.normal(0, 0.05, (32, 3))
        base.append(ring)
        z += 2.0
    shifted = [base[0]] + [np.roll(r, int(rng.integers(0, 32)), axis=0) for r in base[1:]]
    stack = np.stack(shifted)
    before = stack.copy()
    aligned = contours.align_chain(stack)
    assert np.array_equal(stack, before)  # the input is never modified
    for got, want in zip(aligned, base):
        assert np.abs(got - want).max() <= 1e-12
    # total chain cost equals the unshifted chain's cost
    def chain_cost(cs):
        return sum(((a - b) ** 2).sum() for a, b in zip(cs[:-1], cs[1:]))
    assert chain_cost(aligned) == pytest.approx(chain_cost(base), rel=1e-12)


def test_arc_stack_alignment_improves_correspondence(arc_spec):
    # contour stack on the arc phantom with deliberate index scrambling
    rng = np.random.default_rng(4)
    from vesselmesh import centerline as cl, slicer, lumenseg as seg

    vol = phantom.rasterize(arc_spec)
    pts = phantom.analytic_centerline(arc_spec, 8)
    rs = cl.frames(pts)
    half_extent = 4 * arc_spec.base_radius_mm
    ds = slicer.pixel_spacing(half_extent, 64)
    contours2d = []
    for anchor, r in zip(pts, rs):
        pixels = slicer.extract_slice(vol, anchor, r, half_extent, 64)
        c = (64 - 1) // 2
        mask, _ = seg.segment_slice(pixels, (c, c))
        contours2d.append(seg.resample_contour(seg.trace_boundary(mask, ds), 32))
    stack = list(slicer.lift(np.array(contours2d), pts, rs))
    scrambled = [stack[0]] + [np.roll(s, int(rng.integers(1, 31)), axis=0) for s in stack[1:]]

    def mean_corresponding(cs):
        return np.mean([np.linalg.norm(a - b, axis=1).mean() for a, b in zip(cs[:-1], cs[1:])])

    aligned = contours.align_chain(scrambled)
    assert mean_corresponding(aligned) <= mean_corresponding(scrambled)
