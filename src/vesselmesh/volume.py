"""3D scalar volumes: storage, world-to-index mapping, trilinear sampling, raw I/O.

World coordinates follow the voxel-center convention,
``world = origin + index * spacing``, so the continuous domain covered by a
volume is the axis-aligned box spanned by the first and last voxel centers.
Sampling outside that box clamps to the nearest boundary-face projection
(clamp-to-edge).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Volume:
    """Immutable 3D scalar image.

    Attributes
    ----------
    data : np.ndarray
        float32 array of shape (nz, ny, nx), indexed ``data[z, y, x]``.
        Flattened in C order this is the canonical x-fastest layout
        ``index = x + nx * (y + ny * z)``.
    spacing : tuple of float
        Voxel spacing (sx, sy, sz) in mm, all strictly positive.
    origin : tuple of float
        World position (ox, oy, oz) of voxel (0, 0, 0) in mm.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D (nz, ny, nx), got shape {data.shape}")
        if data.dtype != np.float32:
            raise ValueError(f"volume data must be float32, got {data.dtype}")
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive values, got {self.spacing}")
        if len(self.origin) != 3 or not all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be 3 finite values, got {self.origin}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def dims(self) -> tuple[int, int, int]:
        """Grid size (nx, ny, nz)."""
        nz, ny, nx = self.data.shape
        return nx, ny, nz

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Voxel-center bounding box (lo, hi) in world mm."""
        lo = np.asarray(self.origin, dtype=np.float64)
        n = np.asarray(self.dims, dtype=np.float64)
        hi = lo + (n - 1.0) * np.asarray(self.spacing, dtype=np.float64)
        return lo, hi

    def world_to_index(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)


# (x, y, z) offsets of a cell's 8 corners, x fastest: the order of the sum in
# sample_trilinear
_CORNERS = np.array([(x, y, z) for z in (0, 1) for y in (0, 1) for x in (0, 1)])


def sample_trilinear(vol: Volume, points):
    """Trilinearly interpolate the volume at world points.

    Parameters
    ----------
    vol : Volume
    points : array-like
        A single (3,) world point or an (N, 3) batch, in mm.

    Returns
    -------
    float or np.ndarray
        Interpolated scalar(s), float64.  At voxel centers the stored value
        is returned exactly; affine fields are reproduced to round-off.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have 3 components, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite sample point")

    # clamp-to-edge: the eight corners of each point, gathered with one take
    # on the x-fastest flat index
    dims = np.array(vol.dims, dtype=np.int64)
    q = np.clip(vol.world_to_index(pts), 0.0, dims - 1.0)
    i0 = np.floor(q).astype(np.int64)
    i0 = np.minimum(i0, dims - 2)
    i0 = np.maximum(i0, 0)
    f = q - i0
    # flat index steps (1, nx, nx * ny) per axis, 0 on a one-voxel axis, where
    # the clip and the max give i0 = 0 and f = 0: a plain lookup
    nx, ny = dims[0], dims[1]
    step = (dims > 1) * np.array([1, nx, nx * ny])
    d = vol.data.take(i0 @ step + (_CORNERS @ step)[:, None])

    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    gg, fg, gf, ff = gx * gy, fx * gy, gx * fy, fx * fy
    c = (
        d[0] * (gg * gz)
        + d[1] * (fg * gz)
        + d[2] * (gf * gz)
        + d[3] * (ff * gz)
        + d[4] * (gg * fz)
        + d[5] * (fg * fz)
        + d[6] * (gf * fz)
        + d[7] * (ff * fz)
    )
    return float(c[0]) if single else c


def store_raw(vol: Volume, path) -> None:
    """Write the payload as little-endian float32 plus a JSON sidecar.

    The payload is the canonical x-fastest flat order.  The sidecar is the
    payload path with a ``.json`` suffix appended.
    """
    path = Path(path)
    header_path = path.with_suffix(path.suffix + ".json")
    nx, ny, nz = vol.dims
    header = {
        "dims": [nx, ny, nz],
        "spacing_mm": list(vol.spacing),
        "origin_mm": list(vol.origin),
        "dtype": "f32le",
    }
    header_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    payload = np.ascontiguousarray(vol.data, dtype="<f4")
    path.write_bytes(payload.tobytes())


def _sidecar_triple(header: dict, field: str, kind) -> list:
    """The sidecar's `field`: a list of three finite values of `kind` (bools are
    no numbers here), else ValueError naming the field."""
    value = header.get(field)
    if not (isinstance(value, list) and len(value) == 3 and all(
            isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v) for v in value)):
        name = "whole numbers" if kind is numbers.Integral else "finite numbers"
        raise ValueError(f"volume sidecar {field} must be a list of 3 {name}, got {value!r}")
    return value


def load_raw(path) -> Volume:
    """Read a volume written by :func:`store_raw`.

    ``store_raw`` followed by ``load_raw`` is the identity, bit-exact.  The
    sidecar's ``dims`` must hold three JSON integers, and its ``spacing_mm``
    and ``origin_mm`` three finite numbers each.
    """
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if header.get("dtype") != "f32le":
        raise ValueError(f"unknown dtype {header.get('dtype')!r}, expected 'f32le'")
    nx, ny, nz = _sidecar_triple(header, "dims", numbers.Integral)
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.size != nx * ny * nz:
        raise ValueError(
            f"payload has {raw.size} values but header dims {(nx, ny, nz)} "
            f"require {nx * ny * nz}"
        )
    data = raw.reshape(nz, ny, nx).astype(np.float32)
    return Volume(data, tuple(_sidecar_triple(header, "spacing_mm", numbers.Real)),
                  tuple(_sidecar_triple(header, "origin_mm", numbers.Real)))
