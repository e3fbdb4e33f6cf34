"""Synthetic vessel volumes with analytic ground truth.

Each phantom is a tube swept along an analytic, unit-speed centerline with
a slowly varying radius profile.  Voxel intensity follows a soft wall ramp

    I(x) = clamp01(1 - (d(x) - r(s*)) / w)

where d is the distance to the centerline, s* the nearest arc-length
parameter, and w the wall softness.  The lumen interior is ~1, background
~0, and the 0.5 level sits at distance r + w/2.  Rasterization is
deterministic for a given spec.

Only voxels in a narrow band around each tube are queried.  A 4^3 block is
skipped when a lower bound on its distance to the centerline (block-centre
distance to the nearest dense sample, less half the longest dense segment,
less the block's half-diagonal) exceeds the tube's peak radius plus w: every
voxel in it has d >= r + w, so its ramp value is exactly 0, and the volume
has the bytes of a query of every voxel.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .volume import Volume
from . import centerline as cl
from .meshkit import TriMesh, loft_rings

SHAPES = ("straight", "arc", "helix", "aneurysm", "coarctation", "branched")


@dataclass(frozen=True)
class PhantomSpec:
    shape: str = "straight"
    length_mm: float = 40.0
    base_radius_mm: float = 6.0
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing_mm: tuple[float, float, float] = (0.9, 0.9, 0.9)
    wall_softness_mm: float | None = None  # default: one (max) voxel spacing
    # arc curvature
    arc_radius_mm: float = 25.0
    # helix geometry
    helix_radius_mm: float = 8.0
    helix_pitch_mm: float = 30.0
    # radius bump (aneurysm > 0) or dip (coarctation < 0), Gaussian profile
    bump_amplitude: float = 0.0
    bump_width_mm: float = 6.0
    bump_center_fraction: float = 0.5
    # side branch (branched shape)
    branch_radius_mm: float = 3.0
    branch_length_mm: float = 18.0
    branch_angle_deg: float = 90.0
    branch_attach_fraction: float = 0.5
    # lateral displacement of the whole curve, mm (varies tube placement)
    axis_offset_mm: tuple[float, float] = (0.0, 0.0)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown phantom shape {self.shape!r}")
        if self.base_radius_mm <= 0:
            raise ValueError("base_radius_mm must be positive")
        if self.length_mm <= 0:
            raise ValueError(f"length_mm must be positive, got {self.length_mm!r}")
        if min(self.spacing_mm) <= 0:
            raise ValueError(f"spacing_mm must be positive on every axis, got {self.spacing_mm!r}")
        if min(self.dims) < 2:
            raise ValueError(f"dims must be at least 2 on every axis, got {self.dims!r}")
        if self.bump_amplitude <= -1.0:
            raise ValueError("bump amplitude must stay above -1 (lumen never collapses)")

    @property
    def wall_softness(self) -> float:
        if self.wall_softness_mm is not None:
            return float(self.wall_softness_mm)
        return float(max(self.spacing_mm))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PhantomSpec":
        return PhantomSpec.from_dict(json.loads(text))

    @staticmethod
    def from_dict(doc) -> "PhantomSpec":
        """Spec from a parsed JSON object; an unknown key raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("phantom spec must be a JSON object")
        for key in doc:
            if key not in PhantomSpec.__dataclass_fields__:
                raise ValueError(f"unknown phantom key {key!r}")
        tuples = {key: tuple(doc[key]) for key in ("dims", "spacing_mm", "axis_offset_mm") if key in doc}
        return PhantomSpec(**{**doc, **tuples})


def load_spec(path) -> PhantomSpec:
    return PhantomSpec.from_json(Path(path).read_text())


def _volume_center(spec: PhantomSpec) -> np.ndarray:
    n = np.asarray(spec.dims, dtype=np.float64)
    sp = np.asarray(spec.spacing_mm, dtype=np.float64)
    center = (n - 1.0) * sp / 2.0  # origin fixed at (0, 0, 0)
    return center + np.array([spec.axis_offset_mm[0], spec.axis_offset_mm[1], 0.0])


def _main_curve(spec: PhantomSpec, s: np.ndarray) -> np.ndarray:
    """Unit-speed centerline points at arc lengths s in [0, length]."""
    c = _volume_center(spec)
    L = spec.length_mm
    if spec.shape in ("straight", "aneurysm", "coarctation", "branched"):
        z = s - L / 2.0
        return np.column_stack([np.full_like(s, c[0]), np.full_like(s, c[1]), c[2] + z])
    if spec.shape == "arc":
        R = spec.arc_radius_mm
        half = L / (2.0 * R)
        alpha = s / R - half
        x = -R * np.cos(alpha)
        z = R * np.sin(alpha)
        # center the arc's bounding box in the volume
        x_mid = -R * (1.0 + np.cos(half)) / 2.0
        return np.column_stack([c[0] + x - x_mid, np.full_like(s, c[1]), c[2] + z])
    if spec.shape == "helix":
        a = spec.helix_radius_mm
        b = spec.helix_pitch_mm / (2.0 * np.pi)
        omega = 1.0 / np.hypot(a, b)
        phi = omega * (s - L / 2.0)
        return np.column_stack(
            [c[0] + a * np.cos(phi), c[1] + a * np.sin(phi), c[2] + b * phi]
        )
    raise AssertionError(spec.shape)


def _branch_curve(spec: PhantomSpec, s: np.ndarray) -> np.ndarray:
    c = _volume_center(spec)
    z0 = spec.branch_attach_fraction * spec.length_mm - spec.length_mm / 2.0
    start = np.array([c[0], c[1], c[2] + z0])
    phi = np.deg2rad(spec.branch_angle_deg)
    d = np.array([np.sin(phi), 0.0, np.cos(phi)])
    return start[None, :] + s[:, None] * d[None, :]


# bump amplitude of the shapes that have one, used when the spec gives 0
_DEFAULT_BUMP = {"aneurysm": 0.4, "coarctation": -0.3}


def effective_bump(spec: PhantomSpec) -> float:
    """Relative radius bump the volume has: 0 for shapes without one."""
    if spec.shape not in _DEFAULT_BUMP:
        return 0.0
    return spec.bump_amplitude or _DEFAULT_BUMP[spec.shape]


def radius_profile(spec: PhantomSpec, s: np.ndarray) -> np.ndarray:
    """Lumen radius r(s) along the main centerline."""
    r = np.full_like(np.asarray(s, dtype=np.float64), spec.base_radius_mm)
    amp = effective_bump(spec)
    if amp != 0.0:
        s0 = spec.bump_center_fraction * spec.length_mm
        g = np.exp(-0.5 * ((np.asarray(s) - s0) / spec.bump_width_mm) ** 2)
        r = spec.base_radius_mm * (1.0 + amp * g)
    return r


def peak_radius(spec: PhantomSpec) -> float:
    """Largest lumen radius of the main tube: the bump's top, or the base."""
    return spec.base_radius_mm * (1.0 + max(effective_bump(spec), 0.0))


def _tube(spec: PhantomSpec, branch: str):
    """(curve, radius, length, r_max) of one tube of the phantom.

    ``curve(s)`` gives the unit-speed centerline points and ``radius(s)`` the
    lumen radius at arc lengths s in [0, length]; ``r_max`` bounds
    ``radius(s)`` from above.  On the main tube that bound holds in floats
    too: for g <= 1, ``amp * g``, ``1 + amp * g`` and ``base * (1 + amp * g)``
    each round monotonically, so none can pass ``base * (1 + amp)``.
    """
    if branch == "main":
        return (partial(_main_curve, spec), partial(radius_profile, spec), spec.length_mm,
                peak_radius(spec))
    if branch != "side":
        raise ValueError(f"unknown branch {branch!r}")
    if spec.shape != "branched":
        raise ValueError("side branch only exists for the branched shape")
    radius = partial(np.full_like, fill_value=spec.branch_radius_mm)
    return partial(_branch_curve, spec), radius, spec.branch_length_mm, spec.branch_radius_mm


def analytic_centerline(spec: PhantomSpec, k: int = 16, branch: str = "main") -> np.ndarray:
    """k points uniformly spaced by arc length on the analytic curve."""
    if k < 4:
        raise ValueError("k must be at least 4")
    curve, _, length, _ = _tube(spec, branch)
    return curve(np.linspace(0.0, length, k))


def analytic_surface(
    spec: PhantomSpec, nu: int = 64, nv: int = 64, caps: bool = True, branch: str = "main"
) -> TriMesh:
    """Swept-circle ground-truth mesh using the centerline module's frames."""
    if nu < 8 or nv < 8:
        raise ValueError("analytic surface needs nu, nv >= 8")
    curve, radius, length, _ = _tube(spec, branch)
    s = np.linspace(0.0, length, nu)
    anchors = curve(s)
    rs = cl.frames(anchors)
    radii = radius(s)
    theta = 2.0 * np.pi * np.arange(nv) / nv
    b = rs[:, None, :, 0]
    n = rs[:, None, :, 1]
    # counter-clockwise in (b, n) so the loft winding points outward
    rings = anchors[:, None, :] + radii[:, None, None] * (
        np.cos(theta)[:, None] * b + np.sin(theta)[:, None] * n
    )
    return loft_rings(rings, caps=caps)


def _distance_to_curve(query: np.ndarray, s: np.ndarray, pts: np.ndarray, tree):
    """Exact distance to the densely sampled polyline, plus arc parameter.

    Nearest sample via ``tree``, the KD-tree over ``pts``, refined by
    projecting onto the two adjacent segments.
    """
    _, idx = tree.query(query, k=1)
    best_d2 = np.einsum("ij,ij->i", query - pts[idx], query - pts[idx])
    best_s = s[idx]
    for lo in (np.maximum(idx - 1, 0), idx):
        hi = np.minimum(lo + 1, len(pts) - 1)
        a = pts[lo]
        b = pts[hi]
        ab = b - a
        denom = np.einsum("ij,ij->i", ab, ab)
        tproj = np.where(
            denom > 0, np.einsum("ij,ij->i", query - a, ab) / np.where(denom > 0, denom, 1.0), 0.0
        )
        tproj = np.clip(tproj, 0.0, 1.0)
        closest = a + tproj[:, None] * ab
        d2 = np.einsum("ij,ij->i", query - closest, query - closest)
        better = d2 < best_d2
        best_d2 = np.where(better, d2, best_d2)
        best_s = np.where(better, s[lo] + tproj * (s[hi] - s[lo]), best_s)
    return np.sqrt(best_d2), best_s


# narrow band: edge of the skip-test blocks in voxels, and voxels per query
_BLOCK = 4
_CHUNK = 65536


def rasterize(spec: PhantomSpec) -> Volume:
    """Rasterize the phantom into a float32 volume with origin (0, 0, 0).

    Only the narrow band around each tube is queried.  The grid is cut into
    4^3 blocks (edge blocks counted as full ones), and each block centre c
    gets the distance d_vertex(c) to the nearest dense sample.  A block is
    skipped when ``d_vertex(c) - h/2 - half_diag > r_max + w + 1e-6``, with h
    the longest dense segment and half_diag = 1.5 |spacing|.  That is exact:
    d_vertex - h/2 bounds the polyline distance from below, the refined
    distance is never below the polyline distance, and the distance moves by
    at most half_diag inside the block, so every skipped voxel has
    d >= r(s) + w and a ramp value of exactly 0.  The 1e-6 mm absorbs
    round-off only.  Kept voxels get the same arithmetic, in the same
    x-fastest order, as a query of every voxel, so the bytes are those of a
    dense rasterization.
    """
    from scipy.spatial import cKDTree

    nx, ny, nz = spec.dims
    sp = np.asarray(spec.spacing_mm, dtype=np.float64)
    w = spec.wall_softness
    hi_extent = (np.asarray(spec.dims, dtype=np.float64) - 1.0) * sp
    xs = np.arange(nx) * sp[0]
    ys = np.arange(ny) * sp[1]
    zs = np.arange(nz) * sp[2]
    intensity = np.zeros((nz, ny, nx), dtype=np.float64)
    flat = intensity.reshape(-1)
    # block centres, x-fastest like the voxels; a voxel lies within `off`
    # spacings of its block's centre on each axis
    off = (_BLOCK - 1) / 2.0
    cx, cy, cz = ((np.arange(-(-n // _BLOCK)) * _BLOCK + off) * sp[a]
                  for a, n in enumerate(spec.dims))
    bz, by, bx = np.meshgrid(cz, cy, cx, indexing="ij")
    centres = np.column_stack([bx.ravel(), by.ravel(), bz.ravel()])
    half_diag = off * float(np.linalg.norm(sp))

    for branch in ("main", "side") if spec.shape == "branched" else ("main",):
        curve, radius, length, r_max = _tube(spec, branch)
        # bounds check: at every centerline sample, the local radius plus 2w
        # must fit inside the volume
        s = np.linspace(0.0, length, 256)
        pts = curve(s)
        margin = (radius(s) + 2.0 * w)[:, None]
        if (pts - margin < 0).any() or (pts + margin > hi_extent).any():
            raise ValueError(f"phantom tube ({branch}) exceeds volume bounds")

        s_dense = np.linspace(0.0, length, 1024)
        pts_dense = curve(s_dense)
        h = np.linalg.norm(np.diff(pts_dense, axis=0), axis=1).max()
        tree = cKDTree(pts_dense)
        d_vertex, _ = tree.query(centres, k=1)
        keep = (d_vertex - h / 2.0 - half_diag <= r_max + w + 1e-6).reshape(bz.shape)
        band = keep.repeat(_BLOCK, 0).repeat(_BLOCK, 1).repeat(_BLOCK, 2)[:nz, :ny, :nx]
        idx = np.flatnonzero(band)
        # chunks bound the KD-tree query memory
        for lo in range(0, idx.size, _CHUNK):
            part = idx[lo:lo + _CHUNK]
            iz, rest = np.divmod(part, ny * nx)
            iy, ix = np.divmod(rest, nx)
            query = np.column_stack([xs[ix], ys[iy], zs[iz]])
            d, s_near = _distance_to_curve(query, s_dense, pts_dense, tree)
            val = np.clip(1.0 - (d - radius(s_near)) / w, 0.0, 1.0)
            flat[part] = np.maximum(flat[part], val)

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        intensity = intensity + rng.normal(0.0, spec.noise_sigma, intensity.shape)
        intensity = np.clip(intensity, 0.0, 1.0)

    # keep voxel values off the default iso-level so marching cells never
    # hit a corner exactly
    near_half = np.abs(intensity - 0.5) < 1e-7
    intensity[near_half] = 0.5 + 1e-6

    return Volume(intensity.astype(np.float32), tuple(spec.spacing_mm), (0.0, 0.0, 0.0))
