"""Cross-sectional slice extraction on planes orthogonal to the centerline.

The in-plane coordinate contract: pixel (i, j) of an n_pix x n_pix slice
sits at local coordinates

    l = ((i - c) * ds, (j - c) * ds, 0),   c = (n_pix - 1) / 2

and maps to world space through the frame's rotation, world = R l + g,
where g is the plane anchor.  The center pixel therefore lands exactly on
the anchor.  The inverse (world -> plane) is R^T because frames are
orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .centerline import LocalFrame
from .volume import Volume, sample_trilinear

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class SlicePlane:
    frame: LocalFrame
    half_extent: float
    n_pix: int

    def __post_init__(self):
        if self.n_pix < 16:
            raise ValueError("n_pix must be at least 16")
        if self.half_extent <= 0:
            raise ValueError("half_extent must be positive")
        r = self.frame.r
        if np.abs(r.T @ r - np.eye(3)).max() > _ORTHO_TOL:
            raise ValueError("slice plane frame is not orthonormal")

    @property
    def pixel_spacing(self) -> float:
        return 2.0 * self.half_extent / (self.n_pix - 1)

    def pixel_to_plane(self, ij) -> np.ndarray:
        """Pixel indices (i, j) to in-plane mm coordinates (along b, along n)."""
        ij = np.asarray(ij, dtype=np.float64)
        c = (self.n_pix - 1) / 2.0
        return (ij - c) * self.pixel_spacing

    def plane_to_world(self, pts2d) -> np.ndarray:
        """In-plane mm points to world space, R l + g; the result lies on the plane to round-off."""
        pts2d = np.atleast_2d(np.asarray(pts2d, dtype=np.float64))
        l = np.zeros((len(pts2d), 3))
        l[:, :2] = pts2d
        return l @ self.frame.r.T + self.frame.anchor

    def world_to_plane(self, pts3d) -> np.ndarray:
        pts3d = np.atleast_2d(np.asarray(pts3d, dtype=np.float64))
        return (pts3d - self.frame.anchor) @ self.frame.r


@dataclass(frozen=True)
class Slice:
    plane: SlicePlane
    pixels: np.ndarray  # (n_pix, n_pix), pixels[i, j], i along b, j along n

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        n = self.plane.n_pix
        if px.shape != (n, n):
            raise ValueError(f"pixel grid {px.shape} does not match resolution {n}")
        object.__setattr__(self, "pixels", px)


def extract_slice(vol: Volume, plane: SlicePlane) -> Slice:
    """Resample the volume onto the plane with trilinear interpolation."""
    n = plane.n_pix
    c = (n - 1) / 2.0
    ds = plane.pixel_spacing
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    alpha = (ii.ravel() - c) * ds
    beta = (jj.ravel() - c) * ds
    world = (
        alpha[:, None] * plane.frame.b[None, :]
        + beta[:, None] * plane.frame.n[None, :]
        + plane.frame.anchor[None, :]
    )
    vals = sample_trilinear(vol, world)
    return Slice(plane, vals.reshape(n, n))


def write_pgm(slc: Slice, path) -> None:
    """ASCII PGM dump scaled to 0..65535, for inspection."""
    px = slc.pixels
    lo = px.min()
    hi = px.max()
    if hi > lo:
        scaled = np.round((px - lo) / (hi - lo) * 65535).astype(np.int64)
    else:
        scaled = np.zeros_like(px, dtype=np.int64)
    lines = [f"P2", f"{px.shape[1]} {px.shape[0]}", "65535"]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_pgm_mask(path) -> np.ndarray:
    """Read a PGM (P2 or P5) as a boolean mask (nonzero pixels are true)."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"P2":
        tokens = []
        for line in raw.decode("ascii").splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        w, h = int(tokens[1]), int(tokens[2])
        vals = np.asarray([int(t) for t in tokens[4 : 4 + w * h]])
        return vals.reshape(h, w) > 0
    if raw[:2] == b"P5":
        # header: magic, width, height, maxval, single whitespace, then binary
        idx = 0
        fields = []
        while len(fields) < 4:
            nl = raw.index(b"\n", idx)
            line = raw[idx:nl].split(b"#", 1)[0]
            fields.extend(line.split())
            idx = nl + 1
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
        dtype = np.uint8 if maxval < 256 else ">u2"
        vals = np.frombuffer(raw, dtype=dtype, count=w * h, offset=idx)
        return vals.reshape(h, w) > 0
    raise ValueError("unsupported PGM format (need P2 or P5)")
