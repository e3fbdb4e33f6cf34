"""Point-to-point correspondence between adjacent contours before skinning.

With equal-cardinality closed contours of consistent orientation, the
correspondence an iterative-closest-point pass would converge to is a pure
cyclic re-indexing, so the globally optimal shift is found exhaustively.
Geometry is never changed, only the index origin.
"""

from __future__ import annotations

import numpy as np

from .lumenseg import Contour


def best_shift(prev_pts: np.ndarray, next_pts: np.ndarray) -> tuple[int, float]:
    """Cyclic shift k minimizing sum_i ||prev_i - next_{(i+k) mod M}||^2.

    All M shifts are evaluated; ties break toward the smallest k.
    """
    m = len(prev_pts)
    # row k of the gather is next_pts rolled by -k
    diff = prev_pts - next_pts[(np.arange(m)[:, None] + np.arange(m)) % m]
    costs = np.einsum("kij,kij->k", diff, diff)
    k_star = int(np.argmin(costs))
    return k_star, float(costs[k_star])


def align_adjacent(prev: Contour, next_contour: Contour) -> Contour:
    """Re-index ``next_contour`` for best correspondence with ``prev``."""
    if prev.space != "world-3d" or next_contour.space != "world-3d":
        raise ValueError("alignment expects world-3d contours")
    if len(prev.points) != len(next_contour.points):
        raise ValueError(
            f"contours must share M, got {len(prev.points)} and {len(next_contour.points)}"
        )
    k_star, _ = best_shift(prev.points, next_contour.points)
    return Contour(np.roll(next_contour.points, -k_star, axis=0), "world-3d")


def align_chain(contours: list[Contour]) -> list[Contour]:
    """Sequentially align each contour to its predecessor; station 0 is unchanged."""
    if len(contours) < 2:
        raise ValueError("need at least 2 contours to align")
    out = [contours[0]]
    for c in contours[1:]:
        out.append(align_adjacent(out[-1], c))
    return out
