"""Centerline validation, smoothing, tangents, and rotation-stable local frames.

A centerline is an ordered (k, 3) array of world points in mm, k >= 4, with
consecutive points distinct.  Frames are rotation minimizing (double
reflection), which avoids the twisting and inflection flips a Frenet frame
would introduce before surface skinning.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .nurbs import basis_functions


def validate_centerline(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"centerline must have shape (k, 3), got {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        raise ValueError(f"centerline rows {bad.tolist()} are not finite")
    if len(pts) < 4:
        raise ValueError(f"centerline needs at least 4 points, got {len(pts)}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if (seg == 0).any():
        raise ValueError("consecutive centerline points must be distinct")
    return pts


def tangents(points) -> np.ndarray:
    """Unit tangents from adjacent points.

    Interior stations use the central difference p[i+1] - p[i-1]; the first
    uses the forward difference, and the last station copies the tangent of
    its predecessor.
    """
    pts = validate_centerline(points)
    k = len(pts)
    t = np.zeros_like(pts)
    t[0] = pts[1] - pts[0]
    t[1:-1] = pts[2:] - pts[:-2]
    norms = np.linalg.norm(t[: k - 1], axis=1)
    if (norms < 1e-14).any():
        raise ValueError("zero-length tangent difference")
    t[: k - 1] /= norms[:, None]
    t[k - 1] = t[k - 2]
    return t


def _preferred_normal(t0: np.ndarray) -> np.ndarray:
    """Normalized rejection of the coordinate axis least aligned with t0.

    Ties prefer x, then y, then z.
    """
    align = np.abs(t0)
    axis = np.zeros(3)
    axis[int(np.argmin(align))] = 1.0
    n = axis - np.dot(axis, t0) * t0
    return n / np.linalg.norm(n)


def frames(points) -> np.ndarray:
    """Rotation-minimizing frames along the centerline (double reflection).

    Returns the (k, 3, 3) rotation stack: station i's matrix has columns
    (b, n, t) and determinant +1, and maps in-plane coordinates (along b,
    along n, along t) to world offsets from the centerline point.
    """
    pts = validate_centerline(points)
    ts = tangents(pts)
    k = len(pts)
    ns = np.zeros_like(pts)
    ns[0] = _preferred_normal(ts[0])
    for i in range(k - 1):
        v1 = pts[i + 1] - pts[i]
        c1 = float(np.dot(v1, v1))
        r_l = ns[i] - (2.0 / c1) * np.dot(v1, ns[i]) * v1
        t_l = ts[i] - (2.0 / c1) * np.dot(v1, ts[i]) * v1
        v2 = ts[i + 1] - t_l
        c2 = float(np.dot(v2, v2))
        if c2 < 1e-28:
            ns[i + 1] = r_l
        else:
            ns[i + 1] = r_l - (2.0 / c2) * np.dot(v2, r_l) * v2
        # re-orthogonalize against accumulated round-off
        ns[i + 1] -= np.dot(ns[i + 1], ts[i + 1]) * ts[i + 1]
        ns[i + 1] /= np.linalg.norm(ns[i + 1])
    return np.stack([np.cross(ns, ts), ns, ts], axis=2)


# ---------------------------------------------------------------------------
# cubic B-spline smoothing with uniform arc-length resampling

_QUAD_SEGMENTS = 256  # piecewise-linear quadrature segments per knot span


def _clamped_uniform_knots(n_ctrl: int, degree: int = 3) -> np.ndarray:
    n_spans = n_ctrl - degree
    interior = np.arange(1, n_spans) / n_spans
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def smooth_resample(points, k_out: int) -> np.ndarray:
    """Smooth the polyline with a cubic B-spline and resample uniformly.

    The input points act as control points of a clamped uniform cubic
    B-spline (they are not interpolated except at the two ends), and the
    curve is evaluated at k_out parameters uniform in arc length.  Arc
    length is estimated with 256 piecewise-linear segments per knot span.
    """
    pts = validate_centerline(points)
    if k_out < 2:
        raise ValueError("k_out must be at least 2")
    degree = 3
    knots = _clamped_uniform_knots(len(pts), degree)
    n_spans = len(pts) - degree

    def curve(us):
        # one (1, 4) @ (4, 3) product per parameter over its 4 control
        # points: the same bits as a scalar evaluation, memory linear in us
        span, vals = basis_functions(knots, degree, us)
        return (vals[:, None, :] @ pts[span[:, None] + np.arange(-degree, 1)])[:, 0]

    us = np.linspace(0.0, 1.0, n_spans * _QUAD_SEGMENTS + 1)
    samples = curve(us)
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = s_cum[-1]

    targets = np.linspace(0.0, total, k_out)
    return curve(np.interp(targets, s_cum, us))


# ---------------------------------------------------------------------------
# [-1, 1] image encoding against a volume's voxel-center bounding box


def encode_image(points, bounds_lo, bounds_hi) -> np.ndarray:
    """Map world points into the [-1, 1]^3 cube spanned by the given bounds."""
    pts = np.asarray(points, dtype=np.float64)
    lo = np.asarray(bounds_lo, dtype=np.float64)
    hi = np.asarray(bounds_hi, dtype=np.float64)
    if (hi <= lo).any():
        raise ValueError("degenerate bounds")
    return 2.0 * (pts - lo) / (hi - lo) - 1.0


def decode_image(image, bounds_lo, bounds_hi) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    lo = np.asarray(bounds_lo, dtype=np.float64)
    hi = np.asarray(bounds_hi, dtype=np.float64)
    return lo + (img + 1.0) * 0.5 * (hi - lo)


# ---------------------------------------------------------------------------
# CSV interchange (one x,y,z row per point, mm, 9 significant digits)


def write_csv(points, path) -> None:
    rows = np.asarray(points, dtype=np.float64).tolist()
    lines = [f"{x:.9g},{y:.9g},{z:.9g}" for x, y, z in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(x) for x in line.split(",")])
    return validate_centerline(np.asarray(rows))
