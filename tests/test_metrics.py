import itertools

import numpy as np
import pytest

from vesselmesh import meshkit, metrics, phantom


def _brute_chamfer(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def _brute_hausdorff(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _brute_emd(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = d[np.arange(len(a)), perm].mean()
        best = min(best, cost)
    return best


def test_identical_sets_zero():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 3))
    assert metrics.chamfer(a, a) == 0.0
    assert metrics.hausdorff(a, a) == 0.0
    assert metrics.emd(a, a) == 0.0


def test_three_four_five():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[3.0, 4.0, 0]])
    assert metrics.chamfer(a, b) == pytest.approx(5.0, abs=1e-15)
    assert metrics.hausdorff(a, b) == pytest.approx(5.0, abs=1e-15)


def test_chamfer_hand_case():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    b = np.array([[0.0, 0, 0]])
    # brute force over all pairs: 0.5 * (0.5 * (0 + 1) + 0)
    assert metrics.chamfer(a, b) == pytest.approx(0.25, abs=1e-15)


def test_hausdorff_hand_case():
    a = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    b = np.array([[0.0, 0, 0]])
    assert metrics.hausdorff(a, b) == pytest.approx(10.0, abs=1e-15)


def test_emd_matching_ignores_order():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    b = np.array([[1.0, 0, 0], [0.0, 0, 0]])
    assert metrics.emd(a, b) == 0.0


def test_emd_crossing_pairs():
    a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    b = np.array([[0.4, 0, 0], [1.4, 0, 0]])
    assert metrics.emd(a, b) == pytest.approx(0.4, abs=1e-12)
    assert metrics.emd(a, b) == pytest.approx(_brute_emd(a, b), abs=1e-12)


def test_metrics_match_brute_force_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        a = rng.uniform(-10, 10, size=(n, 3))
        b = rng.uniform(-10, 10, size=(m, 3))
        assert metrics.chamfer(a, b) == pytest.approx(_brute_chamfer(a, b), abs=1e-12)
        assert metrics.hausdorff(a, b) == pytest.approx(_brute_hausdorff(a, b), abs=1e-12)
        c = rng.uniform(-10, 10, size=(n, 3))
        assert metrics.emd(a, c) == pytest.approx(_brute_emd(a, c), abs=1e-12)


def test_kd_tree_matches_brute_force_bits_on_small_sets():
    # metrics used to take the brute-force expression below for up to 32
    # reference points; the KD-tree it uses now gives the same bits
    rng = np.random.default_rng(2)
    for i in range(300):
        a = rng.normal(0.0, 10.0, (int(rng.integers(1, 200)), 3))
        b = rng.normal(0.0, 10.0, (int(rng.integers(1, 33)), 3))
        if i % 2:
            a, b = np.round(a, 2), np.round(b, 2)
        brute = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert metrics._nearest_dists(a, b).tobytes() == brute.tobytes(), i


def test_emd_cost_has_the_bits_of_the_broadcast_sum(monkeypatch):
    # emd used to build its cost with the broadcast expression below; the
    # cost it hands to the assignment solver now must have the same bits
    import scipy.optimize

    costs = []
    solve = scipy.optimize.linear_sum_assignment

    def capture(cost):
        costs.append(cost.copy())
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", capture)
    rng = np.random.default_rng(3)
    for i in range(12):
        n = 256 if i < 4 else int(rng.integers(1, 256))
        a = rng.normal(0.0, 10.0, (n, 3))
        b = rng.normal(0.0, 10.0, (n, 3))
        if i % 2:
            a, b = np.round(a, 2), np.round(b, 2)
        metrics.emd(a, b)
        reference = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        assert costs[-1].tobytes() == reference.tobytes(), i


def test_emd_errors():
    a = np.zeros((3, 3))
    with pytest.raises(ValueError, match="equal"):
        metrics.emd(a, np.zeros((4, 3)))
    big = np.zeros((257, 3))
    with pytest.raises(ValueError, match="capped"):
        metrics.emd(big, big)


def test_dice_cases():
    a = np.zeros((4, 4, 4), dtype=bool)
    b = np.zeros((4, 4, 4), dtype=bool)
    a[1:3, 1:3, 1] = True
    assert metrics.dice(a, a) == 1.0
    assert metrics.dice(a, b) == 0.0
    assert metrics.dice(b, b) == 1.0  # both empty
    # |A| = |B| = 4, |A and B| = 2 -> 0.5
    c = np.zeros_like(a)
    c[1:3, 1, 1] = True
    c[0, 0, :2] = True
    assert int(a.sum()) == 4 and int(c.sum()) == 4 and int((a & c).sum()) == 2
    assert metrics.dice(a, c) == 0.5


def _brute_asd(a, b, spacing):
    pa = metrics._boundary_points_mm(a, spacing)
    pb = metrics._boundary_points_mm(b, spacing)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def test_asd_identity_and_offset_cubes():
    a = np.zeros((8, 8, 8), dtype=bool)
    a[2:6, 2:6, 2:6] = True
    assert metrics.asd(a, a, (1, 1, 1)) == 0.0
    b = np.zeros((8, 8, 8), dtype=bool)
    b[2:6, 2:6, 3:7] = True  # offset by one voxel along x
    expected = _brute_asd(a, b, (1.0, 1.0, 1.0))
    assert metrics.asd(a, b, (1, 1, 1)) == pytest.approx(expected, abs=1e-12)


def test_asd_dilated_sphere_bound():
    n = 24
    zz, yy, xx = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    d = np.sqrt((xx - 11.5) ** 2 + (yy - 11.5) ** 2 + (zz - 11.5) ** 2)
    a = d <= 7.0
    b = d <= 8.0
    val = metrics.asd(a, b, (1, 1, 1))
    assert 0.5 <= val <= 1.5
    assert val == pytest.approx(_brute_asd(a, b, (1.0, 1.0, 1.0)), abs=1e-12)


def test_symmetry_and_nonnegativity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(15, 3))
    b = rng.normal(size=(15, 3))
    assert metrics.chamfer(a, b) == pytest.approx(metrics.chamfer(b, a), abs=1e-12)
    assert metrics.hausdorff(a, b) == pytest.approx(metrics.hausdorff(b, a), abs=1e-12)
    assert metrics.emd(a, b) == pytest.approx(metrics.emd(b, a), abs=1e-9)
    assert metrics.chamfer(a, b) >= 0 and metrics.hausdorff(a, b) >= 0 and metrics.emd(a, b) >= 0


def test_chamfer_le_hausdorff():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(12, 3))
        b = rng.normal(size=(9, 3))
        assert metrics.chamfer(a, b) <= metrics.hausdorff(a, b) + 1e-12


def test_scaling_property():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(10, 3))
    b = rng.normal(size=(10, 3))
    s = 3.7
    assert metrics.chamfer(a * s, b * s) == pytest.approx(s * metrics.chamfer(a, b), rel=1e-12)
    assert metrics.hausdorff(a * s, b * s) == pytest.approx(s * metrics.hausdorff(a, b), rel=1e-12)
    assert metrics.emd(a * s, b * s) == pytest.approx(s * metrics.emd(a, b), rel=1e-9)
    mask_a = np.zeros((8, 8, 8), dtype=bool)
    mask_a[2:6, 2:6, 2:6] = True
    mask_b = np.zeros((8, 8, 8), dtype=bool)
    mask_b[2:6, 2:6, 3:7] = True
    assert metrics.asd(mask_a, mask_b, (s, s, s)) == pytest.approx(
        s * metrics.asd(mask_a, mask_b, (1, 1, 1)), rel=1e-12
    )


def test_empty_set_errors():
    with pytest.raises(ValueError):
        metrics.chamfer(np.zeros((0, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        metrics.asd(np.zeros((4, 4, 4), dtype=bool), np.ones((4, 4, 4), dtype=bool), (1, 1, 1))


def test_area_uniform_samples_seeded(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 24, 24, caps=True)
    s1 = metrics.area_uniform_samples(mesh, 128, seed=5)
    s2 = metrics.area_uniform_samples(mesh, 128, seed=5)
    assert np.array_equal(s1, s2)
    s3 = metrics.area_uniform_samples(mesh, 128, seed=6)
    assert not np.array_equal(s1, s3)
    # samples lie on the tube: radial distance within the ring deficit
    axis_xy = phantom.analytic_centerline(straight_spec, 4)[0][:2]
    r = np.hypot(s1[:, 0] - axis_xy[0], s1[:, 1] - axis_xy[1])
    on_wall = np.abs(r - straight_spec.base_radius_mm) <= 0.12
    z0 = mesh.vertices[:, 2].min()
    z1 = mesh.vertices[:, 2].max()
    on_caps = (np.abs(s1[:, 2] - z0) <= 1e-9) | (np.abs(s1[:, 2] - z1) <= 1e-9)
    assert np.all(on_wall | on_caps)


def test_mesh_metric_report_structure(straight_spec):
    mesh = phantom.analytic_surface(straight_spec, 24, 24, caps=True)
    report = metrics.mesh_metric_report(mesh, mesh, seed=1)
    assert report["cd_mm"] == 0.0 and report["hd_mm"] == 0.0
    assert set(report) == {"cd_mm", "hd_mm", "emd_mm", "dice", "asd_mm",
                           "hd_mask_mm", "inputs", "seeds"}
    assert report["dice"] is None

