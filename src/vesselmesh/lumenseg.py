"""Prompt-seeded lumen segmentation, boundary tracing, contour resampling.

The segmenter is a deterministic stand-in for an interactive model: a
threshold flood fill seeded at the projected centerline point.  It sits
behind :func:`segment_slice` so externally produced masks (PGM files) can
be substituted per station.  Boundary extraction is an exact Moore-neighbor
trace of the mask, which on binary input replaces an edge-detection pass
with no loss.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_MIN_CONTOUR_POINTS = 8
_PROMPT_SEARCH_RADIUS = 5  # pixels


class SegmentationFailed(RuntimeError):
    """No above-threshold pixel reachable from the prompt."""


def _check_contour(pts: np.ndarray) -> np.ndarray:
    """A closed (M, 2) in-plane polyline in mm (along b, along n), M >= 8; the
    last point implicitly connects to the first."""
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"contour must be (M, 2), got {pts.shape}")
    if len(pts) < _MIN_CONTOUR_POINTS:
        raise ValueError(
            f"contour needs M >= {_MIN_CONTOUR_POINTS} points, got {len(pts)}"
        )
    return pts


def signed_area(points2d) -> float:
    p = np.asarray(points2d, dtype=np.float64)
    q = np.roll(p, -1, axis=0)
    return float(0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def segment_slice(
    pixels: np.ndarray, prompt_pixel, threshold: float = 0.5
) -> tuple[np.ndarray, tuple[int, int]]:
    """4-connected flood fill of the superlevel set from the prompt pixel.

    Returns the (n, n) bool mask and the (row, col) seed pixel it grew from.

    If the prompt itself is below threshold, the nearest above-threshold
    pixel within a 5-pixel radius is used instead (row-major tie-break),
    which tolerates generated centerline points that are not perfectly
    centered.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie strictly between 0 and 1")
    n = pixels.shape[0]
    i0, j0 = int(prompt_pixel[0]), int(prompt_pixel[1])
    if not (0 <= i0 < n and 0 <= j0 < n):
        raise SegmentationFailed(f"prompt pixel {(i0, j0)} outside the slice")
    above = pixels >= threshold

    seed = (i0, j0)
    if not above[seed]:
        r = _PROMPT_SEARCH_RADIUS
        lo_i, lo_j = max(0, i0 - r), max(0, j0 - r)
        ii, jj = np.nonzero(above[lo_i : i0 + r + 1, lo_j : j0 + r + 1])
        ii, jj = ii + lo_i, jj + lo_j
        d2 = (ii - i0) ** 2 + (jj - j0) ** 2
        near = d2 <= r * r
        if not near.any():
            raise SegmentationFailed(
                f"no pixel >= {threshold} within {r} pixels of prompt {(i0, j0)}"
            )
        best = np.lexsort((jj[near], ii[near], d2[near]))[0]  # least (d2, i, j)
        seed = (int(ii[near][best]), int(jj[near][best]))

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, _ = ndimage.label(above, structure=structure)
    return labels == labels[seed], seed


# Moore neighborhood in clockwise order starting east, image coords (row down)
_MOORE = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))


def _moore_trace(mask: np.ndarray) -> list[tuple[int, int]]:
    """One period of the outer Moore-boundary cycle, starting at the
    lexicographically smallest boundary pixel."""
    fg = np.argwhere(mask)
    if not len(fg):
        raise ValueError("empty mask")
    start = tuple(int(x) for x in min(fg.tolist()))
    if len(fg) == 1:
        return [start]

    def is_fg(p):
        return 0 <= p[0] < mask.shape[0] and 0 <= p[1] < mask.shape[1] and mask[p]

    def advance(p, b):
        # scan the Moore ring clockwise starting just past the backtrack
        k0 = _MOORE.index((b[0] - p[0], b[1] - p[1]))
        for k in range(1, 9):
            d = _MOORE[(k0 + k) % 8]
            cand = (p[0] + d[0], p[1] + d[1])
            if is_fg(cand):
                return cand, b
            b = cand
        return None, b

    # the west neighbor of the scan-order start is background by construction
    p, b = start, (start[0], start[1] - 1)
    seen: dict[tuple, int] = {}
    states: list[tuple[int, int]] = []
    for _ in range(8 * len(fg) + 16):
        nxt, b = advance(p, b)
        if nxt is None:
            return [start]
        state = (nxt, b)
        if state in seen:
            cycle = states[seen[state] :]
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[state] = len(states)
        states.append(nxt)
        p = nxt
    raise RuntimeError("boundary trace did not close")


def trace_boundary(mask: np.ndarray, pixel_spacing: float) -> np.ndarray:
    """Outermost boundary of the (n, n) bool mask as a CCW (M, 2) contour in mm.

    Moore-neighbor tracing over pixel centers; the start point is the
    boundary pixel with lexicographically smallest (row, col).  Pixel
    (i, j) converts to in-plane mm through the slicer contract,
    ((i - c) * ds, (j - c) * ds) with c = (n - 1) / 2.
    """
    if not mask.any():
        raise ValueError("cannot trace an empty mask")
    trace = np.asarray(_moore_trace(mask), dtype=np.float64)
    pts = (trace - (np.asarray(mask.shape) - 1) / 2.0) * pixel_spacing
    if len(pts) >= 3 and signed_area(pts) < 0:
        pts = np.vstack([pts[:1], pts[1:][::-1]])
    return _check_contour(pts)


def resample_contour(points, m: int = 32) -> np.ndarray:
    """m points equally spaced by arc length along the closed contour.

    The seam (index 0) is the input vertex with the maximum first in-plane
    coordinate (the b axis), ties broken by lowest index; orientation is
    preserved.
    """
    if m < _MIN_CONTOUR_POINTS:
        raise ValueError(f"m must be at least {_MIN_CONTOUR_POINTS}")
    p = _check_contour(np.asarray(points, dtype=np.float64))
    n = len(p)
    edges = np.roll(p, -1, axis=0) - p
    seg_len = np.linalg.norm(edges, axis=1)
    perim = float(seg_len.sum())
    if perim <= 0:
        raise ValueError("degenerate zero-length contour")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    seam = int(np.argmax(p[:, 0]))
    s = (cum[seam] + np.arange(1, m) * perim / m) % perim
    e = np.minimum(np.searchsorted(cum, s, side="right") - 1, n - 1)
    # a zero-length edge contributes its start vertex (t = 0)
    t = np.divide(s - cum[e], seg_len[e], out=np.zeros(m - 1), where=seg_len[e] > 0)
    return np.vstack([p[seam], p[e] + t[:, None] * edges[e]])
