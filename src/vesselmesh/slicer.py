"""Cross-sectional slice extraction on planes orthogonal to the centerline.

A station's plane is its centerline point g (the anchor) and its frame
rotation R from ``centerline.frames``, whose columns are (b, n, t).  The
in-plane coordinate contract: pixel (i, j) of an n_pix x n_pix slice sits at
local coordinates

    l = ((i - c) * ds, (j - c) * ds, 0),   c = (n_pix - 1) / 2

and maps to world space through the frame's rotation, world = R l + g.  The
center pixel therefore lands exactly on the anchor.  The inverse (world ->
plane) is R^T because frames are orthonormal.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .volume import Volume, sample_trilinear

_ORTHO_TOL = 1e-9


def pixel_spacing(half_extent: float, n_pix: int) -> float:
    """Pixel pitch ds in mm of an n_pix slice spanning [-half_extent, half_extent]."""
    return 2.0 * half_extent / (n_pix - 1)


def extract_slice(vol: Volume, anchor: np.ndarray, r: np.ndarray, half_extent: float,
                  n_pix: int) -> np.ndarray:
    """The (n_pix, n_pix) trilinear resample of the volume on one station's plane.

    ``pixels[i, j]`` sits at i along b (column 0 of r) and j along n
    (column 1).
    """
    if n_pix < 16:
        raise ValueError("n_pix must be at least 16")
    if half_extent <= 0:
        raise ValueError("half_extent must be positive")
    if np.abs(r.T @ r - np.eye(3)).max() > _ORTHO_TOL:
        raise ValueError("slice plane frame is not orthonormal")
    c = (n_pix - 1) / 2.0
    ds = pixel_spacing(half_extent, n_pix)
    ii, jj = np.meshgrid(np.arange(n_pix), np.arange(n_pix), indexing="ij")
    alpha = (ii.ravel() - c) * ds
    beta = (jj.ravel() - c) * ds
    world = alpha[:, None] * r[None, :, 0] + beta[:, None] * r[None, :, 1] + anchor[None, :]
    return sample_trilinear(vol, world).reshape(n_pix, n_pix)


def lift(points2d, anchors: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """In-plane (K, M, 2) mm contours to world (K, M, 3): R l + g per station.

    The lifted points lie on their planes to round-off.
    """
    pts = np.asarray(points2d, dtype=np.float64)
    l = np.zeros(pts.shape[:-1] + (3,))
    l[..., :2] = pts
    return np.matmul(l, rs.swapaxes(1, 2)) + anchors[:, None]


def write_pgm(px, path) -> None:
    """ASCII PGM dump of an (n, n) slice scaled to 0..65535, for inspection."""
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
