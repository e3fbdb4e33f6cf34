"""The benchmark's own checkers: they recompute what they check and call no
vesselmesh code except the phantom's closed-form centerline and radius
profile, which define the truth."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from vesselmesh import phantom

VOXEL_MM = 0.9
CURVE_SAMPLES = 4001


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, check, *args) -> None:
        """Run a checker; an exception inside it fails the check, not the run."""
        try:
            check(*args)
        except Exception as exc:  # e.g. an artifact the program did not write
            self.expect(False, f"{what}: {exc!r}")


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (N, 3) and 0-based triangles (T, 3) of an OBJ file."""
    verts, tris = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts and parts[0] == "f":
            tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return np.asarray(verts, dtype=np.float64), np.asarray(tris, dtype=np.int64)


def closed_surface(tris: np.ndarray) -> tuple[bool, int]:
    """(watertight, V - E + F) by a count of the directed edges.

    Watertight here: every undirected edge is used exactly twice, once in
    each direction.  V counts the referenced vertices.
    """
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    undirected, inverse, uses = np.unique(
        np.sort(directed, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    ascending = np.bincount(inverse.ravel(), weights=directed[:, 0] < directed[:, 1],
                            minlength=len(undirected))
    euler = len(np.unique(tris)) - len(undirected) + len(tris)
    return bool((uses == 2).all() and (ascending == 1).all()), int(euler)


def _distance_to_polyline(query, s, pts):
    """Distance from each query point to the polyline, and its arc parameter."""
    _, idx = cKDTree(pts).query(query)
    best = np.linalg.norm(query - pts[idx], axis=1)
    best_s = s[idx]
    for lo in (np.maximum(idx - 1, 0), np.minimum(idx, len(pts) - 2)):
        a, b = pts[lo], pts[lo + 1]
        ab = b - a
        t = np.clip(np.einsum("ij,ij->i", query - a, ab) / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
        d = np.linalg.norm(query - (a + t[:, None] * ab), axis=1)
        closer = d < best
        best = np.where(closer, d, best)
        best_s = np.where(closer, s[lo] + t * (s[lo + 1] - s[lo]), best_s)
    return best, best_s


def centerline_distance(spec, points) -> tuple[np.ndarray, np.ndarray]:
    """Distance of each point from the spec's analytic main centerline, and its arc length."""
    s = np.linspace(0.0, spec.length_mm, CURVE_SAMPLES)
    pts = phantom.analytic_centerline(spec, CURVE_SAMPLES)
    return _distance_to_polyline(np.asarray(points, dtype=np.float64), s, pts)


def wall_errors(spec, vertices) -> tuple[np.ndarray, int]:
    """|distance to the analytic centerline - r(s)| for every wall vertex.

    Vertices closer to the centerline than half the local radius are end-cap
    centres and are left out; their number is returned with the errors.
    """
    d, s_near = centerline_distance(spec, vertices)
    r = phantom.radius_profile(spec, s_near)
    wall = d >= 0.5 * r
    return np.abs(d[wall] - r[wall]), int((~wall).sum())


def trilinear(data, spacing, origin, points) -> np.ndarray:
    """Reference trilinear interpolation of data[z, y, x] at interior world points."""
    data = np.asarray(data, dtype=np.float64)
    q = (np.asarray(points, dtype=np.float64) - np.asarray(origin)) / np.asarray(spacing)
    hi = np.array(data.shape[::-1]) - 2
    base = np.clip(np.floor(q).astype(np.int64), 0, hi)
    frac = q - base
    out = np.zeros(len(q))
    for corner in itertools.product((0, 1), repeat=3):
        weight = np.prod(np.where(corner, frac, 1.0 - frac), axis=1)
        x, y, z = (base + corner).T
        out += weight * data[z, y, x]
    return out


def read_volume(path) -> tuple[np.ndarray, list, list]:
    """Payload (nz, ny, nx), spacing and origin of a .f32raw volume and its sidecar."""
    header = json.loads(Path(str(path) + ".json").read_text())
    nx, ny, nz = header["dims"]
    data = np.fromfile(path, dtype="<f4").reshape(nz, ny, nx)
    return data, header["spacing_mm"], header["origin_mm"]


def check_mesh_case(checks: Checks, label: str, spec, case_dir: Path) -> np.ndarray:
    """Checks every reconstructed mesh must pass; returns its wall errors (mm).

    The mesh is watertight by the edge count with V - E + F = 2,
    topology.json agrees and reports no self-intersection, and every wall
    vertex lies within one voxel of the analytic wall.
    """
    verts, tris = read_obj(case_dir / "mesh.obj")
    closed, euler = closed_surface(tris)
    checks.expect(closed and euler == 2, f"{label}: mesh not closed (V-E+F={euler})")
    topo = json.loads((case_dir / "topology.json").read_text())
    checks.expect(
        topo["watertight"] == closed
        and topo["euler_characteristic"] == euler
        and topo["boundary_loop_count"] == 0
        and topo["self_intersection_count"] == 0,
        f"{label}: topology.json disagrees with the edge count: {topo}",
    )
    err, caps = wall_errors(spec, verts)
    checks.expect(caps == 2, f"{label}: {caps} vertices off the wall, expected 2 cap centres")
    checks.expect(err.max() <= VOXEL_MM, f"{label}: wall vertex {err.max():.3f} mm off the wall")
    return err
