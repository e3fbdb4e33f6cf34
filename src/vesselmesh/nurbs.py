"""B-spline basis evaluation, surface skinning, grid evaluation, tessellation.

Surfaces follow the classical control-point / knot-vector formulation, in
the one form that skinning builds: cubic and clamped along u, periodic along
v.  The closed direction uses a periodic uniform knot vector with wrapped
control points (the last ``degree`` control columns replicate the first
ones), so evaluation needs no special casing at the seam and the closure is
C^(degree-1).  Both parameter domains are [0, 1].

All interpolation solves are dense LU with partial pivoting; every solve is
followed by a residual check (max-norm <= 1e-9) so an ill-conditioned
system fails loudly instead of producing a bad surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .meshkit import loft_rings

_RESIDUAL_TOL = 1e-9
_DOMAIN_TOL = 1e-12
# degree along u: the Bessel system's n + 2 columns come from n + 2 * degree
# knots (n samples, two end derivatives), which agree at degree 3 only
_DEGREE_U = 3


class SingularSystemError(RuntimeError):
    """Interpolation system is singular or failed the residual check."""


def find_span(knots: np.ndarray, degree: int, u, n_ctrl: int):
    """Knot span of each parameter: the last index with knots[span] <= u.

    A scalar u gives an int, an array gives an int array of its shape.  At
    u >= the domain end the span steps back over repeated end knots.
    """
    us = np.asarray(u, dtype=np.float64)
    lo = knots[degree]
    hi = knots[n_ctrl]
    outside = (us < lo - _DOMAIN_TOL) | (us > hi + _DOMAIN_TOL)
    if outside.any():
        raise ValueError(f"parameter {us[outside].flat[0]} outside knot domain [{lo}, {hi}]")
    end = n_ctrl - 1
    while end > degree and knots[end] == knots[end + 1]:
        end -= 1
    span = np.clip(np.searchsorted(knots, us, side="right") - 1, degree, n_ctrl - 1)
    span = np.where(us >= hi, end, span)
    return int(span) if span.ndim == 0 else span


def basis_functions(knots, degree: int, u):
    """Nonzero B-spline basis values at u (Cox-de Boor recursion).

    Returns (span, values) where values holds N_{span-degree..span, degree}(u)
    and sums to 1.  For an array u, span has u's shape and values has a
    trailing axis of length degree+1; the recursion runs element-wise with
    the same operations as for a scalar, so the values are bit-identical.
    """
    knots = np.asarray(knots, dtype=np.float64)
    us = np.asarray(u, dtype=np.float64)
    span = find_span(knots, degree, us, len(knots) - degree - 1)
    vals = np.zeros(us.shape + (degree + 1,))
    left = np.zeros_like(vals)
    right = np.zeros_like(vals)
    vals[..., 0] = 1.0
    for j in range(1, degree + 1):
        left[..., j] = us - knots[span + 1 - j]
        right[..., j] = knots[span + j] - us
        saved = 0.0
        for r in range(j):
            tmp = vals[..., r] / (right[..., r + 1] + left[..., j - r])
            vals[..., r] = saved + right[..., r + 1] * tmp
            saved = left[..., j - r] * tmp
        vals[..., j] = saved
    return span, vals


def basis_first_derivatives(knots, degree: int, u):
    """Span and first derivatives of the nonzero basis functions at u.

    Piegl & Tiller eq. 2.9 over the degree - 1 values, which on a clamped
    knot vector share u's span; the operations are those of their
    algorithm A2.3 at order 1, in its order.
    """
    knots = np.asarray(knots, dtype=np.float64)
    span, lower = basis_functions(knots, degree - 1, u)
    r = np.arange(degree)
    term = 1.0 / ((knots[span + 1 + r] - u) + (u - knots[span + 1 - degree + r])) * lower
    return span, degree * (np.r_[0.0, term] - np.r_[term, 0.0])


def basis_matrix(knots, degree: int, n_ctrl: int, us) -> np.ndarray:
    """Dense collocation matrix N[i, j] = N_{j,degree}(us[i])."""
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    span, vals = basis_functions(knots, degree, us)
    out = np.zeros((len(us), n_ctrl))
    np.put_along_axis(out, span[:, None] + np.arange(-degree, 1), vals, axis=1)
    return out


def _periodic_system(m: int, degree: int):
    """Periodic uniform knots and the m x m collocation matrix at u = i/m.

    The unknowns are the m core control points.  The last ``degree``
    control points wrap onto the first ones, so their basis columns are
    folded onto the first ``degree`` columns.
    """
    if m < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}")
    if degree % 2 == 0 and m % 2 == 0:
        # interpolating at the knots, an even degree with an even m is singular
        raise ValueError(f"even degree needs an odd point count: degree {degree}, {m} points")
    knots = (np.arange(m + 2 * degree + 1) - degree) / m
    full = basis_matrix(knots, degree, m + degree, np.arange(m) / m)
    full[:, :degree] += full[:, m:]
    return knots, full[:, :m]


def chord_parameters(points: np.ndarray) -> np.ndarray:
    """Centripetal parameters in [0, 1]: cumulative square roots of the chords."""
    d = np.sqrt(np.linalg.norm(np.diff(points, axis=0), axis=1))
    total = d.sum()
    if total <= 0:
        raise SingularSystemError("coincident interpolation points")
    t = np.concatenate([[0.0], np.cumsum(d)]) / total
    t[-1] = 1.0
    return t


def _solve_checked(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs for rhs of shape (n, ..., d), all columns at once.

    Each (n, d) column passes the residual check on its own scale
    max(1, |rhs column|).
    """
    flat = rhs.reshape(len(rhs), -1)
    try:
        sol = np.linalg.solve(matrix, flat)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"interpolation system singular: {exc}") from exc
    cols = (len(rhs), -1, rhs.shape[-1])
    resid = np.abs(matrix @ sol - flat).reshape(cols).max(axis=(0, 2))
    scale = np.maximum(1.0, np.abs(flat).reshape(cols).max(axis=(0, 2)))
    bad = ~np.isfinite(resid) | (resid > _RESIDUAL_TOL * scale)
    if bad.any():
        raise SingularSystemError(f"interpolation residual {resid[bad].max():.3e} exceeds tolerance")
    return sol.reshape(rhs.shape)


def _bessel_derivative(t0, t1, t2, q0, q1, q2, at: float) -> np.ndarray:
    """Derivative of the parabola through three samples, evaluated at ``at``."""
    d0 = (2 * at - t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = (2 * at - t0 - t2) / ((t1 - t0) * (t1 - t2))
    d2 = (2 * at - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return d0 * q0 + d1 * q1 + d2 * q2


def _bessel_system(t: np.ndarray, q: np.ndarray):
    """Clamped cubic interpolation of samples q at parameters t with Bessel end derivatives.

    Returns the clamped knot vector with t's inner values as knots, and the
    (n+2) x (n+2) collocation rows and right-hand sides: the point at t[0],
    the derivative there, the inner points, the derivative at t[-1], and the
    point there.  q holds the n samples along its first axis; any trailing
    axes (columns, coordinates) are carried through.
    """
    n, degree = len(t), _DEGREE_U
    knots = np.concatenate([np.zeros(degree + 1), t[1:-1], np.ones(degree + 1)])
    rows = np.zeros((n + 2, n + 2))
    rows[[0, *range(2, n), n + 1]] = basis_matrix(knots, degree, n + 2, t)
    for row, u in ((1, t[0]), (n, t[-1])):
        span, ders = basis_first_derivatives(knots, degree, u)
        rows[row, span - degree : span + 1] = ders
    d0 = _bessel_derivative(t[0], t[1], t[2], q[0], q[1], q[2], t[0])
    d1 = _bessel_derivative(t[-3], t[-2], t[-1], q[-3], q[-2], q[-1], t[-1])
    rhs = np.concatenate([q[:1], d0[None], q[1:-1], d1[None], q[-1:]])
    return knots, rows, rhs


# ---------------------------------------------------------------------------
# surfaces


@dataclass(frozen=True)
class NurbsSurface:
    """Tensor-product surface, cubic and clamped along u, periodic along v.

    knots_u is clamped on [0, 1]: four zeros, the inner knots, four ones.
    knots_v is the periodic uniform vector (i - degree_v) / (n - degree_v)
    for i = 0 .. n + degree_v, so the v domain is [0, 1] too.
    control_points has shape (m, n, 3); the last degree_v columns replicate
    the first degree_v ones (periodic closure).  weights has shape (m, n),
    all strictly positive.  knots_u, control_points and weights must be
    finite.
    """

    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    control_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ku = np.asarray(self.knots_u, dtype=np.float64)
        kv = np.asarray(self.knots_v, dtype=np.float64)
        cp = np.asarray(self.control_points, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        qv = self.degree_v
        m_expect, n_expect = len(ku) - _DEGREE_U - 1, len(kv) - qv - 1
        if cp.shape[:2] != (m_expect, n_expect) or w.shape != (m_expect, n_expect):
            raise ValueError(
                f"net {cp.shape[:2]} inconsistent with knots "
                f"({m_expect}, {n_expect}) at degrees ({_DEGREE_U}, {qv})"
            )
        for name, value in (("knots_u", ku), ("control_points", cp), ("weights", w)):
            bad = np.argwhere(~np.isfinite(value))
            if len(bad):
                raise ValueError(f"{name} must be finite, got {value[tuple(bad[0])]} at {bad[0].tolist()}")
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")
        ends = _DEGREE_U + 1
        if (np.diff(ku) < 0).any() or (ku[:ends] != 0.0).any() or (ku[-ends:] != 1.0).any():
            raise ValueError(f"knots_u must be nondecreasing, with {ends} zeros first and {ends} ones last")
        if qv < 1 or n_expect <= qv or not np.array_equal(kv, (np.arange(len(kv)) - qv) / (n_expect - qv)):
            raise ValueError(f"knots_v must be the periodic uniform knots (i - {qv}) / (n - {qv})")
        if not np.allclose(cp[:, -qv:], cp[:, :qv], atol=1e-12):
            raise ValueError("periodic v direction requires wrapped control columns")
        for name, value in (("knots_u", ku), ("knots_v", kv), ("control_points", cp), ("weights", w)):
            object.__setattr__(self, name, value)

    @property
    def net_dims(self) -> tuple[int, int]:
        return self.control_points.shape[0], self.control_points.shape[1]


def eval_surface_grid(surface: NurbsSurface, us, vs) -> np.ndarray:
    """Evaluate on a (len(us), len(vs)) parameter grid; v wraps with period 1.

    Sums only the (_DEGREE_U+1)(degree_v+1) nonzero basis products per
    point, u term outer, v term inner, each as (bu * wcp) * bv.  These are
    the order and the products of the dense contraction over full basis
    matrices (the reference in tests/test_nurbs.py), whose other terms are
    exact zeros, so both give the same bits.
    """
    vs = np.asarray(vs, dtype=np.float64) % 1.0
    pu, pv = _DEGREE_U, surface.degree_v
    su, bu = basis_functions(surface.knots_u, pu, np.atleast_1d(us))
    sv, bv = basis_functions(surface.knots_v, pv, np.atleast_1d(vs))
    w = surface.weights
    wcp = surface.control_points * w[:, :, None]
    num = np.zeros((len(su), len(sv), 3))
    den = np.zeros((len(su), len(sv)))
    for i in range(pu + 1):
        rows, bu_i = (su - pu + i)[:, None], bu[:, i, None]
        for j in range(pv + 1):
            cols, bv_j = sv - pv + j, bv[:, j]
            num += bu_i[:, :, None] * wcp[rows, cols] * bv_j[:, None]
            den += bu_i * w[rows, cols] * bv_j
    return num / den[:, :, None]


def skin_surface(contours, degree_v: int = 3) -> NurbsSurface:
    """Skin a (K, M, 3) stack of aligned closed contours into a surface.

    Stage 1 interpolates each contour with a periodic curve of degree_v
    along v; stage 2 interpolates corresponding control points across
    stations along u with clamped cubic (Bessel end-tangent) curves.  The
    surface interpolates every input contour point: contour i, point j lies
    at (t_bar[i], j / M), t_bar being the centripetal parameters of the
    point columns, averaged.  For K stations of M points at degree_v 3 the
    control net is (K + 2) x (M + 3).
    """
    pts = np.asarray(contours, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 3:
        raise ValueError(f"contours must be a (K, M, 3) stack, got {pts.shape}")
    k, m = pts.shape[:2]
    if k < 4:
        raise ValueError(f"need at least 4 contours to skin, got {k}")
    if m < 8:
        raise ValueError(f"contours need at least 8 points, got {m}")

    # stage 1: periodic fit of every section in one solve
    knots_v, amat = _periodic_system(m, degree_v)
    sect_ctrl = _solve_checked(amat, pts.transpose(1, 0, 2)).transpose(1, 0, 2)  # (k, m, 3)

    # common u parameters: centripetal per contour-point column, averaged
    t_cols = np.stack([chord_parameters(pts[:, j, :]) for j in range(m)])
    t_bar = t_cols.mean(axis=0)
    t_bar[0], t_bar[-1] = 0.0, 1.0
    gaps = np.diff(t_bar)
    if gaps.min() < 1e-12:
        i = int(np.argmin(gaps))
        raise SingularSystemError(f"stations {i} and {i + 1} coincide")

    knots_u, rows, rhs = _bessel_system(t_bar, sect_ctrl)
    net = _solve_checked(rows, rhs)

    net_wrapped = np.concatenate([net, net[:, :degree_v, :]], axis=1)
    weights = np.ones(net_wrapped.shape[:2])
    return NurbsSurface(degree_v, knots_u, knots_v, net_wrapped, weights)


def tessellate(surface: NurbsSurface, nu: int, nv: int, caps: bool = True):
    """Triangulate on a uniform (nu, nv) parameter grid, v wrapped.

    With caps the two ends are closed by triangle fans and the mesh is
    watertight; triangle count is 2*(nu-1)*nv + 2*nv.
    """
    if nu < 16 or nv < 16:
        raise ValueError("tessellation needs nu >= 16 and nv >= 16")
    us = np.linspace(0.0, 1.0, nu)
    vs = np.arange(nv) / nv
    rings = eval_surface_grid(surface, us, vs)
    return loft_rings(rings, caps=caps)


# ---------------------------------------------------------------------------
# serialization


# the one form a surface document may declare: its v degree goes in the
# second slot of "degrees"
_KNOT_STYLES = ("clamped", "periodic")


def surface_to_dict(surface: NurbsSurface) -> dict:
    m, n = surface.net_dims
    return {
        "degrees": [_DEGREE_U, surface.degree_v],
        "knots_u": surface.knots_u.tolist(),
        "knots_v": surface.knots_v.tolist(),
        "knot_styles": list(_KNOT_STYLES),
        "net_dims": [m, n],
        "control_points": surface.control_points.reshape(m * n, 3).tolist(),
        "weights": surface.weights.reshape(m * n).tolist(),
    }


def surface_from_dict(doc: dict) -> NurbsSurface:
    """The surface of a parsed document; raises ValueError naming "degrees" or
    "knot_styles" when they declare any form but cubic clamped u, periodic v."""
    degrees, styles = doc["degrees"], doc["knot_styles"]
    if not (isinstance(degrees, list) and len(degrees) == 2 and degrees[0] == _DEGREE_U):
        raise ValueError(f"surface degrees must be [{_DEGREE_U}, degree_v], got {degrees!r}")
    if styles != list(_KNOT_STYLES):
        raise ValueError(f"surface knot_styles must be {list(_KNOT_STYLES)!r}, got {styles!r}")
    m, n = (int(x) for x in doc["net_dims"])
    return NurbsSurface(
        degree_v=int(degrees[1]),
        knots_u=np.asarray(doc["knots_u"]),
        knots_v=np.asarray(doc["knots_v"]),
        control_points=np.asarray(doc["control_points"]).reshape(m, n, 3),
        weights=np.asarray(doc["weights"]).reshape(m, n),
    )


def write_surface_json(surface: NurbsSurface, path) -> None:
    Path(path).write_text(json.dumps(surface_to_dict(surface), indent=2, sort_keys=True) + "\n")


def read_surface_json(path) -> NurbsSurface:
    return surface_from_dict(json.loads(Path(path).read_text()))
