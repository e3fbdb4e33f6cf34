"""3D scalar volumes: storage, world-to-index mapping, trilinear sampling, raw I/O.

World coordinates follow the voxel-center convention,
``world = origin + index * spacing``, so the continuous domain covered by a
volume is the axis-aligned box spanned by the first and last voxel centers.
Sampling outside that box clamps to the nearest boundary-face projection
(clamp-to-edge).
"""

from __future__ import annotations

import json
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


# (x, y, z) offsets of a cell's 8 corners, x fastest: the order of the sum in _trilinear
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

    q = vol.world_to_index(pts)
    dims = np.array(vol.dims, dtype=np.int64)
    c = _trilinear([vol.data], q[None], dims[None, None])[0]
    return float(c[0]) if single else c


def _trilinear(datas, q, dims) -> np.ndarray:
    """Clamp-to-edge trilinear interpolation at continuous voxel indices.

    Row b of ``q`` (B, N, 3) holds index coordinates (x, y, z) into
    ``datas[b]``, a (nz, ny, nx) array; ``dims`` (B, 1, 3) holds each row's
    (nx, ny, nz).  The eight corners of a point are gathered with one
    ``take`` per row on the x-fastest flat index.  Returns (B, N) float64.
    """
    q = np.clip(q, 0.0, dims - 1.0)
    i0 = np.floor(q).astype(np.int64)
    i0 = np.minimum(i0, dims - 2)
    i0 = np.maximum(i0, 0)
    f = q - i0
    # flat index steps (1, nx, nx * ny) per axis, 0 on a one-voxel axis, where
    # the clip and the max give i0 = 0 and f = 0: a plain lookup
    nx = dims[..., :1]
    step = (dims > 1) * np.concatenate([np.ones_like(nx), nx, nx * dims[..., 1:2]], axis=-1)
    step = step.swapaxes(1, 2)
    idx = (i0 @ step).swapaxes(1, 2) + _CORNERS @ step
    d = np.stack([data.take(rows) for data, rows in zip(datas, idx)], axis=1)

    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    gg, fg, gf, ff = gx * gy, fx * gy, gx * fy, fx * fy
    return (
        d[0] * (gg * gz)
        + d[1] * (fg * gz)
        + d[2] * (gf * gz)
        + d[3] * (ff * gz)
        + d[4] * (gg * fz)
        + d[5] * (fg * fz)
        + d[6] * (gf * fz)
        + d[7] * (ff * fz)
    )


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


def load_raw(path) -> Volume:
    """Read a volume written by :func:`store_raw`.

    ``store_raw`` followed by ``load_raw`` is the identity, bit-exact.
    """
    path = Path(path)
    header = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if header.get("dtype") != "f32le":
        raise ValueError(f"unknown dtype {header.get('dtype')!r}, expected 'f32le'")
    nx, ny, nz = (int(d) for d in header["dims"])
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.size != nx * ny * nz:
        raise ValueError(
            f"payload has {raw.size} values but header dims {(nx, ny, nz)} "
            f"require {nx * ny * nz}"
        )
    data = raw.reshape(nz, ny, nx).astype(np.float32)
    return Volume(data, tuple(header["spacing_mm"]), tuple(header["origin_mm"]))
