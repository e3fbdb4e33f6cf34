import warnings

import numpy as np
import pytest

from vesselmesh import meshkit, nurbs


def _naive_basis(knots, degree, i, u):
    """Textbook Cox-de Boor recursion, the independent oracle."""
    if degree == 0:
        last = knots[i + 1] == knots[-1]
        if knots[i] <= u < knots[i + 1] or (last and u == knots[i + 1] and knots[i] < knots[i + 1]):
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + degree] > knots[i]:
        left = (u - knots[i]) / (knots[i + degree] - knots[i]) * _naive_basis(knots, degree - 1, i, u)
    right = 0.0
    if knots[i + degree + 1] > knots[i + 1]:
        right = ((knots[i + degree + 1] - u) / (knots[i + degree + 1] - knots[i + 1])
                 * _naive_basis(knots, degree - 1, i + 1, u))
    return left + right


def _circle_contours(radius, m, zs):
    theta = 2 * np.pi * np.arange(m) / m
    out = []
    for z in zs:
        pts = np.column_stack(
            [radius * np.cos(theta), radius * np.sin(theta), np.full(m, z)]
        )
        out.append(pts)
    return np.stack(out)


def test_degree1_hat_functions():
    span, vals = nurbs.basis_functions([0, 0, 1, 1], 1, 0.5)
    assert np.allclose(vals, [0.5, 0.5], atol=1e-15)


def test_partition_of_unity():
    knots = np.array([0, 0, 0, 0, 0.2, 0.5, 0.7, 1, 1, 1, 1], dtype=float)
    rng = np.random.default_rng(0)
    for u in rng.uniform(0, 1, 500):
        _, vals = nurbs.basis_functions(knots, 3, u)
        assert abs(vals.sum() - 1.0) <= 1e-12


def test_basis_matches_naive_recursion():
    knots = np.array([0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1], dtype=float)
    degree = 3
    n_ctrl = len(knots) - degree - 1
    rng = np.random.default_rng(1)
    for u in list(rng.uniform(0, 1, 100)) + [0.0, 0.25, 0.5, 1.0]:
        full = nurbs.basis_matrix(knots, degree, n_ctrl, [u])[0]
        oracle = [_naive_basis(knots, degree, i, u) for i in range(n_ctrl)]
        assert np.abs(full - oracle).max() <= 1e-12


def test_basis_outside_domain_errors():
    with pytest.raises(ValueError):
        nurbs.basis_functions([0, 0, 1, 1], 1, 1.5)


def _t_bar(stacks):
    """The stations' u parameters: centripetal per point column, averaged."""
    pts = np.asarray(stacks, dtype=np.float64)
    t_bar = np.stack([nurbs.chord_parameters(pts[:, j]) for j in range(pts.shape[1])]).mean(axis=0)
    t_bar[0], t_bar[-1] = 0.0, 1.0
    return t_bar


def _skin_points(surf, stacks):
    """The surface at every contour point's parameters (t_bar[i], j / M)."""
    m = np.shape(stacks)[1]
    return nurbs.eval_surface_grid(surf, _t_bar(stacks), np.arange(m) / m)


def test_interpolate_collinear_linear_precision():
    # every station is one contour shifted along a slanted line by uneven
    # steps, so each point column is collinear: so are the net columns and
    # the u curves of the surface
    rng = np.random.default_rng(0)
    base = _circle(16, radius=3.0) + rng.normal(scale=0.3, size=(16, 3))
    d = np.array([9.0, -3.0, 3.0])
    d /= np.linalg.norm(d)
    s = np.array([0.0, 1.0, 3.5, 4.0, 7.0, 12.0])
    stacks = base[None] + s[:, None, None] * d
    surf = nurbs.skin_surface(stacks)
    rel = surf.control_points - surf.control_points[:1]
    off = rel - (rel @ d)[..., None] * d
    assert np.abs(off).max() <= 1e-9
    grid = nurbs.eval_surface_grid(surf, np.linspace(0, 1, 40), np.arange(64) / 64)
    rel = grid - grid[:1]
    off_line = rel - (rel @ d)[..., None] * d
    assert np.linalg.norm(off_line, axis=-1).max() <= 1e-9


def test_interpolation_hits_input_points():
    # stations along a random walk, each a noisy circle
    rng = np.random.default_rng(2)
    centers = np.cumsum(rng.uniform(-1, 1, size=(9, 3)) + [0.0, 0.0, 3.0], axis=0)
    stacks = centers[:, None] + _circle(24, radius=2.0) + rng.normal(scale=0.1, size=(9, 24, 3))
    surf = nurbs.skin_surface(stacks)
    assert np.linalg.norm(_skin_points(surf, stacks) - stacks, axis=-1).max() <= 1e-8


def test_periodic_circle_radial_error():
    circles = np.stack([_circle(8, radius=1.0, z=z) for z in range(5)])
    surf = nurbs.skin_surface(circles)
    grid = nurbs.eval_surface_grid(surf, np.linspace(0, 1, 9), np.linspace(0, 1, 4000, endpoint=False))
    rad = np.hypot(grid[..., 0], grid[..., 1])
    assert np.abs(rad - 1.0).max() <= 0.002
    assert np.linalg.norm(_skin_points(surf, circles) - circles, axis=-1).max() <= 1e-9


def test_singular_system_raises():
    # two coincident stations: named before any solve, with no divide-by-zero
    stacks = _circle_contours(5.0, 16, [0.0, 2.0, 2.0, 4.0, 6.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(nurbs.SingularSystemError, match="stations 1 and 2 coincide"):
            nurbs.skin_surface(stacks)


def _circle(m, radius=5.0, z=0.0):
    theta = 2 * np.pi * np.arange(m) / m
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), np.full(m, z)])


@pytest.mark.parametrize("degree", [2, 4])
def test_periodic_even_degree_with_even_count_fails_fast(degree):
    # singular in exact arithmetic: on this symmetric input the degree-4
    # solve once passed its residual check and returned a curve whose radius
    # swung between 2.8 and 7.2 mm
    with pytest.raises(ValueError, match="even degree needs an odd point count"):
        nurbs.skin_surface([_circle(32, z=z) for z in range(0, 30, 6)], degree_v=degree)


@pytest.mark.parametrize("degree, m", [(2, 33), (4, 33), (3, 32)])
def test_periodic_fit_with_odd_count_or_odd_degree(degree, m):
    circles = np.stack([_circle(m, z=z) for z in range(0, 30, 6)])
    surf = nurbs.skin_surface(circles, degree_v=degree)
    assert np.linalg.norm(_skin_points(surf, circles) - circles, axis=-1).max() <= 1e-9
    grid = nurbs.eval_surface_grid(surf, np.linspace(0, 1, 9), np.arange(500) / 500)
    assert np.abs(np.hypot(grid[..., 0], grid[..., 1]) - 5.0).max() <= 1e-3


def test_skin_cylinder_radial_error():
    stacks = _circle_contours(5.0, 32, np.linspace(0, 20, 8))
    surf = nurbs.skin_surface(stacks)
    rng = np.random.default_rng(3)
    us = rng.uniform(0, 1, 10000)
    vs = rng.uniform(0, 1, 10000)
    grid = nurbs.eval_surface_grid(surf, us[:200], vs[:200])
    rad = np.hypot(grid[:, :, 0], grid[:, :, 1])
    assert np.abs(rad - 5.0).max() <= 0.002 * 5.0


def test_skin_interpolates_contour_points():
    rng = np.random.default_rng(4)
    zs = np.linspace(0, 12, 6)
    stacks = []
    theta = 2 * np.pi * np.arange(16) / 16
    for z in zs:
        r = 4.0 + rng.uniform(-0.5, 0.5, 16)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.full(16, z)])
        stacks.append(pts)
    surf = nurbs.skin_surface(stacks)
    # u parameters reproduce the averaged centripetal parameterization
    assert np.linalg.norm(_skin_points(surf, stacks) - np.stack(stacks), axis=-1).max() <= 1e-7


def test_skin_rejects_bad_stacks():
    stacks = _circle_contours(5.0, 16, np.linspace(0, 10, 5))
    with pytest.raises(ValueError, match=r"\(K, M, 3\)"):
        nurbs.skin_surface(stacks[:, :, :2])
    with pytest.raises(ValueError, match="at least 4 contours"):
        nurbs.skin_surface(stacks[:3])
    with pytest.raises(ValueError, match="at least 8 points"):
        nurbs.skin_surface(stacks[:, :7])
    with pytest.raises(ValueError):
        nurbs.skin_surface([stacks[0], stacks[1], stacks[2], stacks[3, :8]])


def test_skin_dimensions_16_stations_32_points():
    stacks = _circle_contours(5.0, 32, np.linspace(0, 30, 16))
    surf = nurbs.skin_surface(stacks)
    # clamped u with Bessel end tangents: 16 + 2; periodic v wrap: 32 + 3
    assert surf.net_dims == (18, 35)


def test_rational_eval_matches_nonrational_for_unit_weights():
    stacks = _circle_contours(3.0, 16, np.linspace(0, 10, 5))
    surf = nurbs.skin_surface(stacks)
    rng = np.random.default_rng(5)
    m, n = surf.net_dims
    us, vs = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    bu = nurbs.basis_matrix(surf.knots_u.values, surf.degree_u, m, us)
    bv = nurbs.basis_matrix(surf.knots_v.values, surf.degree_v, n, vs)
    nonrational = np.einsum("um,mnk,vn->uvk", bu, surf.control_points, bv)
    assert np.abs(nurbs.eval_surface_grid(surf, us, vs) - nonrational).max() <= 1e-12


def test_eval_affine_and_weight_scale_invariance():
    stacks = _circle_contours(3.0, 16, np.linspace(0, 10, 5))
    surf = nurbs.skin_surface(stacks)
    shifted = nurbs.NurbsSurface(
        surf.degree_u, surf.degree_v, surf.knots_u, surf.knots_v,
        surf.control_points + np.array([1.0, -2.0, 3.0]), surf.weights,
    )
    scaled = nurbs.NurbsSurface(
        surf.degree_u, surf.degree_v, surf.knots_u, surf.knots_v,
        surf.control_points, surf.weights * 10.0,
    )
    rng = np.random.default_rng(6)
    us, vs = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    base = nurbs.eval_surface_grid(surf, us, vs)
    assert np.abs(nurbs.eval_surface_grid(shifted, us, vs) - base - [1, -2, 3]).max() <= 1e-12
    assert np.abs(nurbs.eval_surface_grid(scaled, us, vs) - base).max() <= 1e-12


def test_tensor_partition_of_unity():
    stacks = _circle_contours(4.0, 16, np.linspace(0, 10, 6))
    surf = nurbs.skin_surface(stacks)
    m, n = surf.net_dims
    rng = np.random.default_rng(7)
    us = rng.uniform(0, 1, 1000)
    vs = rng.uniform(0, 1, 1000)
    bu = nurbs.basis_matrix(surf.knots_u.values, surf.degree_u, m, us)
    bv = nurbs.basis_matrix(surf.knots_v.values, surf.degree_v, n, vs)
    # sum over the tensor-product blend factorizes into row-sum products
    total = bu.sum(axis=1) * bv.sum(axis=1)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_local_support():
    stacks = _circle_contours(4.0, 16, np.linspace(0, 20, 10))
    surf = nurbs.skin_surface(stacks)
    m, n = surf.net_dims
    cp = surf.control_points.copy()
    iu, iv = 5, 4
    cp[iu, iv] += np.array([0.0, 0.0, 1.0])
    bumped = nurbs.NurbsSurface(
        surf.degree_u, surf.degree_v, surf.knots_u, surf.knots_v, cp, surf.weights
    )
    ku = surf.knots_u.values
    kv = surf.knots_v.values
    # support of N_{iu,3} x N_{iv,3}
    u_lo, u_hi = ku[iu], ku[iu + 4]
    v_lo, v_hi = kv[iv], kv[iv + 4]
    rng = np.random.default_rng(8)
    us, vs = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
    diff = np.linalg.norm(
        nurbs.eval_surface_grid(bumped, us, vs) - nurbs.eval_surface_grid(surf, us, vs), axis=-1
    )
    inside = ((u_lo <= us) & (us <= u_hi))[:, None] & ((v_lo <= vs) & (vs <= v_hi))[None, :]
    assert diff[~inside].max() <= 1e-12


def test_convex_hull_containment_on_cylinder():
    stacks = _circle_contours(5.0, 24, np.linspace(0, 10, 6))
    surf = nurbs.skin_surface(stacks)
    # hull of the control net for a straight circular cylinder: radius of the
    # control rings, z range of the control net
    cp = surf.control_points.reshape(-1, 3)
    r_max = np.hypot(cp[:, 0], cp[:, 1]).max()
    z_lo, z_hi = cp[:, 2].min(), cp[:, 2].max()
    rng = np.random.default_rng(9)
    grid = nurbs.eval_surface_grid(surf, rng.uniform(0, 1, 50), rng.uniform(0, 1, 50))
    pts = grid.reshape(-1, 3)
    assert np.hypot(pts[:, 0], pts[:, 1]).max() <= r_max + 1e-9
    assert pts[:, 2].min() >= z_lo - 1e-9 and pts[:, 2].max() <= z_hi + 1e-9


def test_tessellate_watertight_and_counts():
    stacks = _circle_contours(5.0, 32, np.linspace(0, 20, 8))
    surf = nurbs.skin_surface(stacks)
    nu, nv = 24, 32
    capped = nurbs.tessellate(surf, nu, nv, caps=True)
    report = meshkit.validate(capped)
    assert report.watertight and report.euler_characteristic == 2
    assert capped.n_triangles == 2 * (nu - 1) * nv + 2 * nv

    open_tube = nurbs.tessellate(surf, nu, nv, caps=False)
    rep2 = meshkit.validate(open_tube)
    assert rep2.boundary_loop_count == 2
    # each boundary loop has nv edges
    edges = {}
    for tri in open_tube.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    boundary_edges = [k for k, cnt in edges.items() if cnt == 1]
    assert len(boundary_edges) == 2 * nv


def test_interpolation_residual_invariant():
    # the collocation matrices along u and v map the control net onto the
    # contour points
    rng = np.random.default_rng(10)
    centers = np.cumsum(rng.uniform(-1, 1, size=(12, 3)) + [0.5, 0, 0.5], axis=0)
    stacks = centers[:, None] + _circle(16, radius=1.5) + rng.normal(scale=0.1, size=(12, 16, 3))
    surf = nurbs.skin_surface(stacks)
    m, n = surf.net_dims
    bu = nurbs.basis_matrix(surf.knots_u.values, 3, m, _t_bar(stacks))
    bv = nurbs.basis_matrix(surf.knots_v.values, 3, n, np.arange(16) / 16)
    resid = np.abs(np.einsum("um,mnk,vn->uvk", bu, surf.control_points, bv) - stacks).max()
    assert resid <= 1e-9


def test_surface_json_round_trip(tmp_path):
    stacks = _circle_contours(4.0, 16, np.linspace(0, 10, 6))
    surf = nurbs.skin_surface(stacks)
    nurbs.write_surface_json(surf, tmp_path / "s.json")
    again = nurbs.read_surface_json(tmp_path / "s.json")
    assert again.net_dims == surf.net_dims
    assert np.array_equal(again.control_points, surf.control_points)
    assert np.array_equal(again.knots_u.values, surf.knots_u.values)
    assert np.array_equal(again.weights, surf.weights)
    nurbs.write_surface_json(again, tmp_path / "s2.json")
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_knot_vector_style_invariants():
    good_clamped = nurbs.KnotVector(np.array([0, 0, 0, 0, 0.5, 1, 1, 1, 1.0]), "clamped")
    good_clamped.check_style(3)
    bad = nurbs.KnotVector(np.array([0, 0, 0, 0.5, 1, 1, 1, 1.0]), "clamped")
    with pytest.raises(ValueError, match="multiplicity"):
        bad.check_style(3)

    m = 8
    per = nurbs.KnotVector((np.arange(m + 7) - 3) / m, "periodic")
    per.check_style(3)
    vals = (np.arange(m + 7) - 3) / m
    vals[-1] += 0.2  # break the wrap spacing
    with pytest.raises(ValueError, match="wrap"):
        nurbs.KnotVector(vals, "periodic").check_style(3)


def test_skin_batched_solve_matches_per_column_solves():
    rng = np.random.default_rng(4)
    stacks = [c + rng.normal(scale=0.2, size=c.shape)
              for c in _circle_contours(5.0, 24, np.linspace(0, 30, 11))]
    surf = nurbs.skin_surface(stacks)
    pts = np.stack(stacks)
    _, amat = nurbs._periodic_system(24, 3)
    sect = np.stack([nurbs._solve_checked(amat, p) for p in pts])
    knots, rows, rhs = nurbs._bessel_system(_t_bar(pts), sect)
    assert np.array_equal(knots, surf.knots_u.values)
    for j in range(24):
        assert np.array_equal(surf.control_points[:, j], np.linalg.solve(rows, rhs[:, j]))


def test_solve_checked_scales_each_column(monkeypatch):
    matrix = np.eye(4) + 0.1
    rhs = np.stack([np.full((4, 3), 1e3), np.ones((4, 3))], axis=1)  # (4, 2 columns, 3)
    exact = np.linalg.solve

    def off_in_small_column(a, b):
        sol = exact(a, b)
        sol[:, 3:] += 1e-8  # far above 1e-9 of the small column, below 1e-9 * 1e3
        return sol

    assert nurbs._solve_checked(matrix, rhs).shape == rhs.shape
    monkeypatch.setattr(np.linalg, "solve", off_in_small_column)
    with pytest.raises(nurbs.SingularSystemError, match="residual"):
        nurbs._solve_checked(matrix, rhs)


def _einsum_surface_grid(surface, us, vs):
    """The dense-basis grid evaluator that the sparse sum replaced, verbatim."""
    vlo, vhi = surface.domain_v()
    vs = np.asarray(vs, dtype=np.float64)
    if surface.knots_v.style == "periodic":
        vs = vlo + (vs - vlo) % (vhi - vlo)
    m, n = surface.net_dims
    bu = nurbs.basis_matrix(surface.knots_u.values, surface.degree_u, m, us)
    bv = nurbs.basis_matrix(surface.knots_v.values, surface.degree_v, n, vs)
    wcp = surface.control_points * surface.weights[:, :, None]
    num = np.einsum("um,mnk,vn->uvk", bu, wcp, bv)
    den = np.einsum("um,mn,vn->uv", bu, surface.weights, bv)
    return num / den[:, :, None]


def _random_skin(rng, k, m):
    theta = 2 * np.pi * np.arange(m) / m
    r = 3.0 + rng.uniform(-0.5, 0.5, (k, m))
    z = np.linspace(0.0, 30.0, k)[:, None] + rng.uniform(-0.2, 0.2, (k, m))
    sway = rng.normal(0.0, 0.3, (k, 1))
    return nurbs.skin_surface(np.stack([r * np.cos(theta) + sway, r * np.sin(theta), z], axis=-1))


@pytest.mark.parametrize("seed", range(4))
def test_grid_matches_dense_einsum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    surf = _random_skin(rng, int(rng.integers(4, 41)), int(rng.integers(8, 65)))
    if seed == 0:  # random positive non-unit weights, wrapped like the columns
        w = rng.uniform(0.3, 3.0, surf.weights.shape)
        w[:, -surf.degree_v:] = w[:, :surf.degree_v]
        surf = nurbs.NurbsSurface(surf.degree_u, surf.degree_v, surf.knots_u, surf.knots_v,
                                  surf.control_points, w)
    for nu, nv in ((16, 16), (48, 48), (64, 64), (17, 33), (128, 96), (256, 256)):
        us = np.linspace(0.0, 1.0, nu)
        vs = np.arange(nv) / nv
        assert np.array_equal(nurbs.eval_surface_grid(surf, us, vs), _einsum_surface_grid(surf, us, vs))
    # off-grid parameters in any order, v beyond the period
    us, vs = rng.uniform(0, 1, 37), rng.uniform(-1, 2, 29)
    assert np.array_equal(nurbs.eval_surface_grid(surf, us, vs), _einsum_surface_grid(surf, us, vs))


def test_grid_uses_no_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval_surface_grid called np.einsum")

    monkeypatch.setattr(np, "einsum", refuse)
    surf = nurbs.skin_surface(_circle_contours(3.0, 16, np.linspace(0, 10, 5)))
    assert nurbs.tessellate(surf, 16, 16).n_triangles == 2 * 15 * 16 + 2 * 16
