"""Evaluation metrics: CD, HD, EMD on point sets; Dice, ASD, HD on voxel masks.

Chamfer distance is the non-squared symmetric form,
0.5 * (mean_a min_b |a - b| + mean_b min_a |a - b|), in mm, matching
mm-valued reporting.  The earth mover's distance is solved exactly as an
optimal assignment and is capped at 256 points per set.
"""

from __future__ import annotations

import numpy as np

_EMD_CAP = 256


def _as_points(a) -> np.ndarray:
    pts = np.asarray(a, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point set must be (N, 3), got {pts.shape}")
    if len(pts) == 0:
        raise ValueError("point set is empty")
    if not np.isfinite(pts).all():
        raise ValueError("point set has non-finite coordinates")
    return pts


def _nearest_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    d, _ = cKDTree(b).query(a)
    return d


def _chamfer_hausdorff(a, b) -> tuple[float, float]:
    """Chamfer and Hausdorff distances from one nearest-distance query each way."""
    a = _as_points(a)
    b = _as_points(b)
    d_ab, d_ba = _nearest_dists(a, b), _nearest_dists(b, a)
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean())), max(float(d_ab.max()), float(d_ba.max()))


def chamfer(a, b) -> float:
    return _chamfer_hausdorff(a, b)[0]


def hausdorff(a, b) -> float:
    return _chamfer_hausdorff(a, b)[1]


def emd(a, b) -> float:
    """Mean cost of the optimal perfect matching between equal-size sets."""
    a = _as_points(a)
    b = _as_points(b)
    if len(a) != len(b):
        raise ValueError(f"EMD needs equal cardinalities, got {len(a)} and {len(b)}")
    if len(a) > _EMD_CAP:
        raise ValueError(f"exact EMD capped at {_EMD_CAP} points, got {len(a)}")
    from scipy.optimize import linear_sum_assignment

    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def dice(a, b) -> float:
    """2 |A∩B| / (|A| + |B|); defined as 1 when both masks are empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def _boundary_points_mm(mask: np.ndarray, spacing) -> np.ndarray:
    """Voxel centers of mask voxels with at least one face neighbor outside."""
    m = np.asarray(mask, dtype=bool)
    pad = np.pad(m, 1, constant_values=False)
    interior = (
        pad[:-2, 1:-1, 1:-1] & pad[2:, 1:-1, 1:-1]
        & pad[1:-1, :-2, 1:-1] & pad[1:-1, 2:, 1:-1]
        & pad[1:-1, 1:-1, :-2] & pad[1:-1, 1:-1, 2:]
    )
    boundary = m & ~interior
    zyx = np.argwhere(boundary).astype(np.float64)
    sp = np.asarray(spacing, dtype=np.float64)
    return zyx[:, ::-1] * sp[None, :]  # to (x, y, z) mm


def _mask_boundaries(a, b, spacing, name: str):
    """Boundary points (mm) of two voxel masks of one shape, both nonempty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise ValueError(f"{name} requires both masks nonempty")
    return _boundary_points_mm(a, spacing), _boundary_points_mm(b, spacing)


def asd(a, b, spacing) -> float:
    """Average symmetric surface distance between two voxel masks, mm."""
    return chamfer(*_mask_boundaries(a, b, spacing, "ASD"))


def mask_hausdorff(a, b, spacing) -> float:
    """Hausdorff distance between mask boundaries, mm."""
    return hausdorff(*_mask_boundaries(a, b, spacing, "mask Hausdorff"))


def area_uniform_samples(mesh, n: int, seed: int) -> np.ndarray:
    """Sample n points uniformly by area over a TriMesh surface, seeded."""
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has no area to sample")
    tri_idx = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    su = np.sqrt(u)
    bc0 = 1.0 - su
    bc1 = su * (1.0 - v)
    bc2 = su * v
    t = mesh.vertices[mesh.triangles[tri_idx]]
    return bc0[:, None] * t[:, 0] + bc1[:, None] * t[:, 1] + bc2[:, None] * t[:, 2]


def mesh_metric_report(candidate, reference, seed: int = 0, inputs=None) -> dict:
    """CD/HD on mesh vertex sets plus exact EMD on seeded area-uniform samples,
    as many per mesh as the EMD cap allows.

    Mask metrics are null in mesh-to-mesh reports; see mask_metric_report.
    """
    cd_mm, hd_mm = _chamfer_hausdorff(candidate.vertices, reference.vertices)
    sa = area_uniform_samples(candidate, _EMD_CAP, seed)
    sb = area_uniform_samples(reference, _EMD_CAP, seed + 1)
    return {
        "cd_mm": cd_mm,
        "hd_mm": hd_mm,
        "emd_mm": emd(sa, sb),
        "dice": None,
        "asd_mm": None,
        "hd_mask_mm": None,
        "inputs": inputs or {},
        "seeds": {"emd_candidate": seed, "emd_reference": seed + 1, "emd_samples": _EMD_CAP},
    }


def mask_metric_report(a, b, spacing, inputs=None) -> dict:
    """Dice/ASD/Hausdorff between voxel masks, same report schema."""
    return {
        "cd_mm": None,
        "hd_mm": None,
        "emd_mm": None,
        "dice": dice(a, b),
        "asd_mm": asd(a, b, spacing),
        "hd_mask_mm": mask_hausdorff(a, b, spacing),
        "inputs": inputs or {},
        "seeds": {},
    }
