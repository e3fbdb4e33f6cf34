"""The array B-spline basis against the per-parameter code it replaced.

The references below are the earlier scalar code, kept verbatim: the
binary-search ``find_span``, the scalar Cox-de Boor ``basis_functions``, the
looped ``basis_matrix``, the per-parameter ``smooth_resample``, the closed
curve interpolation that built the periodic system one row at a time
(``skin_surface`` called it once per section) and Piegl & Tiller's
algorithm A2.3 for basis derivatives of any order.  The array code in
``nurbs`` and ``centerline`` must give the same bits on every input here.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from vesselmesh import centerline as cl, nurbs
from vesselmesh.nurbs import _DOMAIN_TOL, _solve_checked


# ---------------------------------------------------------------------------
# scalar references


def _ref_find_span(knots: np.ndarray, degree: int, u: float, n_ctrl: int) -> int:
    lo = knots[degree]
    hi = knots[n_ctrl]
    if u < lo - _DOMAIN_TOL or u > hi + _DOMAIN_TOL:
        raise ValueError(f"parameter {u} outside knot domain [{lo}, {hi}]")
    if u >= hi:
        span = n_ctrl - 1
        while span > degree and knots[span] == knots[span + 1]:
            span -= 1
        return span
    a, b = degree, n_ctrl
    while a + 1 < b:
        mid = (a + b) // 2
        if u < knots[mid]:
            b = mid
        else:
            a = mid
    return a


def _ref_basis_functions(knots, degree: int, u: float):
    knots = np.asarray(knots, dtype=np.float64)
    n_ctrl = len(knots) - degree - 1
    span = _ref_find_span(knots, degree, float(u), n_ctrl)
    vals = np.zeros(degree + 1)
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    vals[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        vals[j] = saved
    return span, vals


def _ref_basis_derivatives(knots, degree: int, u: float, order: int):
    """Basis values and derivatives up to the given order (Piegl A2.3 style)."""
    knots = np.asarray(knots, dtype=np.float64)
    n_ctrl = len(knots) - degree - 1
    span = nurbs.find_span(knots, degree, float(u), n_ctrl)
    ndu = np.zeros((degree + 1, degree + 1))
    ndu[0, 0] = 1.0
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            tmp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        ndu[j, j] = saved

    ders = np.zeros((order + 1, degree + 1))
    ders[0] = ndu[:, degree]
    a = np.zeros((2, degree + 1))
    for r in range(degree + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, order + 1):
            dval = 0.0
            rk = r - k
            pk = degree - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                dval = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else degree - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                dval += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                dval += a[s2, k] * ndu[r, pk]
            ders[k, r] = dval
            s1, s2 = s2, s1
    fac = degree
    for k in range(1, order + 1):
        ders[k] *= fac
        fac *= degree - k
    return span, ders


def _ref_basis_matrix(knots, degree: int, n_ctrl: int, us) -> np.ndarray:
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    out = np.zeros((len(us), n_ctrl))
    for i, u in enumerate(us):
        span, vals = _ref_basis_functions(knots, degree, u)
        out[i, span - degree : span + 1] = vals
    return out


def _ref_bspline_point(knots, ctrl, degree, u):
    span, vals = _ref_basis_functions(knots, degree, u)
    return vals @ ctrl[span - degree : span + 1]


def _ref_smooth_resample(points, k_out: int) -> np.ndarray:
    pts = cl.validate_centerline(points)
    if k_out < 2:
        raise ValueError("k_out must be at least 2")
    degree = 3
    knots = cl._clamped_uniform_knots(len(pts), degree)
    n_spans = len(pts) - degree

    us = np.linspace(0.0, 1.0, n_spans * cl._QUAD_SEGMENTS + 1)
    samples = np.empty((len(us), 3))
    for i, u in enumerate(us):
        samples[i] = _ref_bspline_point(knots, pts, degree, u)
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=1)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = s_cum[-1]

    targets = np.linspace(0.0, total, k_out)
    u_targets = np.interp(targets, s_cum, us)
    out = np.empty((k_out, 3))
    for i, u in enumerate(u_targets):
        out[i] = _ref_bspline_point(knots, pts, degree, u)
    return out


def _ref_closed_curve(q: np.ndarray, degree: int):
    """The row-by-row closed curve fit: knots and all control points, wrapped."""
    m = len(q)
    t = np.arange(m) / m
    knots = (np.arange(m + 2 * degree + 1) - degree) / m
    amat = np.zeros((m, m))
    for i, ti in enumerate(t):
        span, vals = _ref_basis_functions(knots, degree, ti)
        for r, val in enumerate(vals):
            amat[i, (span - degree + r) % m] += val
    ctrl_core = _solve_checked(amat, q)
    ctrl = np.vstack([ctrl_core, ctrl_core[:degree]])
    return knots, ctrl


# ---------------------------------------------------------------------------
# knot vectors and parameters


def _clamped(rng, degree, n_inner):
    inner = np.sort(rng.uniform(0.0, 1.0, n_inner))
    return np.concatenate([np.zeros(degree + 1), inner, np.ones(degree + 1)])


def _repeated(rng, degree, n_inner):
    """Clamped, with interior knots of multiplicity up to degree."""
    inner = np.sort(rng.uniform(0.1, 0.9, n_inner))
    inner = np.repeat(inner, rng.integers(1, degree + 1, n_inner))
    return np.concatenate([np.zeros(degree + 1), inner, np.ones(degree + 1)])


def _end_repeated(rng, degree, n_inner):
    """Unclamped, with both domain ends knots of multiplicity 2..degree, so
    the spans next to them are empty and the end rule must step back."""
    r = int(rng.integers(2, degree + 1))
    inner = np.sort(rng.uniform(0.1, 0.9, n_inner))
    outer = np.arange(1, degree + 1) / 10
    return np.concatenate([-outer[::-1], np.zeros(r), inner, np.ones(r), 1 + outer])


def _periodic(rng, degree, m, uniform):
    if uniform:
        return (np.arange(m + 2 * degree + 1) - degree) / m
    gaps = rng.uniform(0.5, 1.5, m)
    core = np.concatenate([[0.0], np.cumsum(gaps)])  # m + 1 knots over one period
    period = core[-1]
    return np.concatenate([core[m - degree : m] - period, core, core[1 : degree + 1] + period])


def _knot_vectors():
    rng = np.random.default_rng(20)
    cases = []
    for degree in (1, 2, 3, 4):
        for n_inner in (0, 1, 5):
            cases.append((f"clamped-p{degree}-i{n_inner}", degree, _clamped(rng, degree, n_inner)))
        cases.append((f"repeated-p{degree}", degree, _repeated(rng, degree, 4)))
        if degree > 1:
            cases.append((f"end-repeated-p{degree}", degree, _end_repeated(rng, degree, 3)))
        for m in (degree + 1, 9):
            cases.append((f"periodic-p{degree}-m{m}", degree, _periodic(rng, degree, m, True)))
            cases.append((f"periodic-p{degree}-m{m}-nonuniform", degree, _periodic(rng, degree, m, False)))
    return cases


KNOT_VECTORS = _knot_vectors()


def _parameters(knots, degree, rng):
    """Every knot value in the domain, both ends, the ends +- half the domain
    tolerance, and random parameters."""
    n_ctrl = len(knots) - degree - 1
    lo, hi = knots[degree], knots[n_ctrl]
    at_knots = knots[(knots >= lo) & (knots <= hi)]
    ends = [lo, hi, lo - _DOMAIN_TOL / 2, lo + _DOMAIN_TOL / 2, hi - _DOMAIN_TOL / 2,
            hi + _DOMAIN_TOL / 2, np.nextafter(hi, lo), np.nextafter(lo, hi)]
    return np.concatenate([at_knots, ends, rng.uniform(lo, hi, 200)])


# ---------------------------------------------------------------------------
# basis


@pytest.mark.parametrize("name, degree, knots", KNOT_VECTORS, ids=[c[0] for c in KNOT_VECTORS])
def test_span_and_basis_match_scalar_reference(name, degree, knots):
    rng = np.random.default_rng(len(knots) * 10 + degree)
    us = _parameters(knots, degree, rng)
    n_ctrl = len(knots) - degree - 1
    # just below a repeated lo knot the span is empty and both give NaN
    # values; assert_array_equal counts NaN in the same place as equal
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = [_ref_basis_functions(knots, degree, u) for u in us]
        ref_span = np.array([s for s, _ in ref])
        ref_vals = np.stack([v for _, v in ref])
        ref_matrix = _ref_basis_matrix(knots, degree, n_ctrl, us)

        assert_array_equal(nurbs.find_span(knots, degree, us, n_ctrl), ref_span, strict=True)
        span, vals = nurbs.basis_functions(knots, degree, us)
        assert_array_equal(span, ref_span, strict=True)
        assert_array_equal(vals, ref_vals, strict=True)
        assert_array_equal(nurbs.basis_matrix(knots, degree, n_ctrl, us), ref_matrix, strict=True)
        # a 2-D parameter array keeps its shape
        span2, vals2 = nurbs.basis_functions(knots, degree, us[:200].reshape(20, 10))
    assert_array_equal(span2, ref_span[:200].reshape(20, 10), strict=True)
    assert_array_equal(vals2, ref_vals[:200].reshape(20, 10, degree + 1), strict=True)


@pytest.mark.parametrize("name, degree, knots", KNOT_VECTORS[:12], ids=[c[0] for c in KNOT_VECTORS[:12]])
def test_scalar_parameter_returns_int_span(name, degree, knots):
    n_ctrl = len(knots) - degree - 1
    for u in _parameters(knots, degree, np.random.default_rng(0))[::7]:
        ref_span, ref_vals = _ref_basis_functions(knots, degree, u)
        span, vals = nurbs.basis_functions(knots, degree, float(u))
        assert type(span) is int and span == ref_span
        assert vals.shape == (degree + 1,) and np.array_equal(vals, ref_vals)
        assert nurbs.find_span(knots, degree, u, n_ctrl) == ref_span


def test_end_rule_steps_back_over_repeated_end_knots():
    # a double knot at the domain end: at u >= hi the span steps back from
    # the empty span 5 to the last nonempty one, 4
    knots = np.array([-0.3, -0.2, -0.1, 0, 0.5, 1, 1, 1.1, 1.2, 1.3])
    us = np.array([0.7, 1.0 - _DOMAIN_TOL / 2, 1.0, 1.0 + _DOMAIN_TOL / 2])
    assert [_ref_find_span(knots, 3, u, 6) for u in us] == [4, 4, 4, 4]
    assert nurbs.find_span(knots, 3, us, 6).tolist() == [4, 4, 4, 4]
    assert nurbs.find_span(knots, 3, 1.0, 6) == 4
    assert np.array_equal(nurbs.basis_matrix(knots, 3, 6, us), _ref_basis_matrix(knots, 3, 6, us))


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9, 2.0])
def test_one_parameter_outside_domain_raises(bad):
    knots = np.array([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], dtype=float)
    us = np.linspace(0, 1, 50)
    us[17] = bad
    with pytest.raises(ValueError, match="outside knot domain"):
        nurbs.basis_functions(knots, 3, us)
    with pytest.raises(ValueError, match="outside knot domain"):
        nurbs.basis_matrix(knots, 3, 6, us)
    with pytest.raises(ValueError, match="outside knot domain"):
        _ref_basis_functions(knots, 3, bad)
    # the domain tolerance itself is accepted by both
    edges = np.array([-_DOMAIN_TOL, 1.0 + _DOMAIN_TOL])
    assert np.array_equal(nurbs.basis_matrix(knots, 3, 6, edges), _ref_basis_matrix(knots, 3, 6, edges))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_first_derivatives_match_a23_bits(degree):
    """Same bits as A2.3 at order 1, signs of zeros included, on clamped knot
    vectors (interior knots simple or repeated up to the degree) at every
    knot in the domain, both ends and random parameters."""
    rng = np.random.default_rng(40 + degree)
    cases = 0
    for trial in range(120):
        make = _clamped if trial % 2 else _repeated
        knots = make(rng, degree, int(rng.integers(0, 8)))
        n_ctrl = len(knots) - degree - 1
        us = np.concatenate([knots[degree : n_ctrl + 1], rng.uniform(0.0, 1.0, 12),
                             [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]])
        for u in us:
            span, ders = nurbs.basis_first_derivatives(knots, degree, u)
            ref_span, ref = _ref_basis_derivatives(knots, degree, u, 1)
            assert span == ref_span
            assert ders.tobytes() == ref[1].tobytes(), (knots, u)
            cases += 1
    assert cases > 2000


# ---------------------------------------------------------------------------
# callers


def test_smooth_resample_matches_scalar_reference():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(4, 40))
        pts = np.cumsum(rng.normal(scale=rng.uniform(0.2, 5.0), size=(n, 3)), axis=0)
        pts += rng.uniform(-50, 50, 3)
        k_out = int(rng.integers(2, 40))
        assert np.array_equal(cl.smooth_resample(pts, k_out), _ref_smooth_resample(pts, k_out))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_closed_interpolation_matches_row_by_row_system(degree):
    rng = np.random.default_rng(6 + degree)
    for m in (degree + 1, degree + 2, 8, 17, 32):
        theta = 2 * np.pi * np.arange(m) / m
        q = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(m)]) * 5.0
        q += rng.normal(scale=0.3, size=q.shape)
        if degree % 2 == 0 and m % 2 == 0:  # singular: rejected before any solve
            with pytest.raises(ValueError, match="even degree needs an odd point count"):
                nurbs._periodic_system(m, degree)
            continue
        knots, ctrl = _ref_closed_curve(q, degree)
        got_knots, amat = nurbs._periodic_system(m, degree)
        assert np.array_equal(got_knots, knots)
        assert np.array_equal(_solve_checked(amat, q), ctrl[:m])


@pytest.mark.parametrize("degree_v", [2, 3])
def test_skin_net_matches_per_section_solves(degree_v):
    rng = np.random.default_rng(7 + degree_v)
    k, m = 9, 23  # odd m: at an even degree an even m gives a singular system
    zs = np.linspace(0, 30, k)
    theta = 2 * np.pi * np.arange(m) / m
    stacks = [np.column_stack([5 * np.cos(theta), 5 * np.sin(theta), np.full(m, z)])
              + rng.normal(scale=0.2, size=(m, 3)) * (1 + 10 * (i == 4))
              for i, z in enumerate(zs)]
    surf = nurbs.skin_surface(stacks, degree_v=degree_v)

    per_section = [_ref_closed_curve(p, degree_v) for p in stacks]
    assert np.array_equal(surf.knots_v, per_section[0][0])
    sect = np.stack([ctrl[:m] for _, ctrl in per_section])
    pts = np.stack(stacks)
    t_bar = np.stack([nurbs.chord_parameters(pts[:, j]) for j in range(m)]).mean(axis=0)
    t_bar[0], t_bar[-1] = 0.0, 1.0
    _, rows, rhs = nurbs._bessel_system(t_bar, sect)
    net = _solve_checked(rows, rhs)
    assert np.array_equal(surf.control_points[:, :m], net)
    assert np.array_equal(surf.control_points[:, m:], net[:, :degree_v])


def test_skin_rejects_too_few_points_for_degree():
    theta = 2 * np.pi * np.arange(8) / 8
    stacks = [np.column_stack([np.cos(theta), np.sin(theta), np.full(8, z)]) for z in range(5)]
    with pytest.raises(ValueError, match="at least 9 points"):
        nurbs.skin_surface(stacks, degree_v=8)
