"""Point-to-point correspondence between adjacent contours before skinning.

With equal-cardinality closed contours of consistent orientation, the
correspondence an iterative-closest-point pass would converge to is a pure
cyclic re-indexing, so the globally optimal shift is found exhaustively.
Geometry is never changed, only the index origin.
"""

from __future__ import annotations

import numpy as np


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


def align_chain(stations) -> np.ndarray:
    """Roll each station of a (K, M, 3) stack by its best shift against the
    aligned station before it; station 0 is unchanged.

    Returns a new array; the input is never modified.
    """
    out = np.array(stations, dtype=np.float64)
    if out.ndim != 3 or out.shape[2] != 3:
        raise ValueError(f"stations must be (K, M, 3), got {out.shape}")
    if len(out) < 2:
        raise ValueError("need at least 2 contours to align")
    for i in range(1, len(out)):
        k_star, _ = best_shift(out[i - 1], out[i])
        out[i] = np.roll(out[i], -k_star, axis=0)
    return out
