"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line with the measured quantities; a failed
assert is the fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import time

import numpy as np
import pytest

from vesselmesh import (
    cdm, centerline as cl, contours, meshkit, metrics, nurbs,
    phantom, pipeline, slicer,
)
from vesselmesh.volume import Volume, load_raw, sample_trilinear, store_raw

from conftest import affine_volume

VOXEL_MM = 0.9


def _straight_config():
    return {
        "seed": 0,
        "phantom": {"shape": "straight", "length_mm": 40.0, "base_radius_mm": 6.0,
                    "dims": [64, 64, 64], "spacing_mm": [VOXEL_MM] * 3},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 64, "tess_v": 64, "caps": True},
    }


def _arc_config():
    return {
        "seed": 0,
        "phantom": {"shape": "arc", "length_mm": 39.27, "base_radius_mm": 5.0,
                    "arc_radius_mm": 25.0, "dims": [64, 64, 64],
                    "spacing_mm": [VOXEL_MM] * 3},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 64, "tess_v": 64, "caps": True},
    }


def _study_arc_config():
    # strongly curved arc so low station counts genuinely undersample
    return {
        "seed": 0,
        "phantom": {"shape": "arc", "length_mm": 30.0, "base_radius_mm": 4.0,
                    "arc_radius_mm": 12.0, "dims": [64, 64, 64],
                    "spacing_mm": [VOXEL_MM] * 3},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 48, "tess_v": 48, "caps": True},
    }


def test_criterion_1_trilinear_exactness():
    t0 = time.perf_counter()
    vol = affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0))
    rng = np.random.default_rng(0)
    lo, hi = vol.bounds()
    pts = rng.uniform(lo, hi, size=(500, 3))
    want = 2.0 * pts[:, 0] + 0.25 * pts[:, 1] - 0.5 * pts[:, 2] + 1.0
    affine_err = np.abs(sample_trilinear(vol, pts) - want).max()
    assert affine_err <= 1e-12

    data = rng.random((6, 7, 8)).astype(np.float32)
    vol2 = Volume(data, (0.7, 0.8, 0.9), (-1.0, 2.0, 0.5))
    for idx in itertools.product((0, 3, 7), (0, 3, 6), (0, 2, 5)):
        world = np.asarray(vol2.origin) + np.asarray(idx) * np.asarray(vol2.spacing)
        assert sample_trilinear(vol2, world) == data[idx[2], idx[1], idx[0]]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1 trilinear exactness: affine err {affine_err:.2e} "
          f"<= 1e-12, voxel-center identity exact ({elapsed:.2f}s < 1s)")


def test_criterion_2_slicing_consistency():
    t0 = time.perf_counter()
    vol = affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0), dims=(24, 24, 24),
                        spacing=(0.5, 0.5, 0.5), origin=(-2.0, -2.0, -2.0))
    t = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    n = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    b = np.cross(n, t)
    r = np.column_stack([b, n, t])
    anchor = np.array([2.2, 2.4, 2.6])
    n_pix = 16
    pixels = slicer.extract_slice(vol, anchor, r, 1.5, n_pix)
    coeff = np.array([2.0, 0.25, -0.5])
    ds = slicer.pixel_spacing(1.5, n_pix)
    c = (n_pix - 1) / 2.0
    worst = 0.0
    for i in range(n_pix):
        for j in range(n_pix):
            world = anchor + (i - c) * ds * b + (j - c) * ds * n
            worst = max(worst, abs(pixels[i, j] - (coeff @ world + 1.0)))
    assert worst <= 1e-9

    rng = np.random.default_rng(1)
    pts2d = rng.uniform(-3, 3, size=(100, 2))
    lifted = slicer.lift(pts2d[None], anchor[None], r[None])[0]
    back = (lifted - anchor) @ r  # world -> plane is R^T
    rt_err = max(np.abs(back[:, :2] - pts2d).max(), np.abs(back[:, 2]).max())
    assert rt_err <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"\n[PASS] criterion 2 slicing consistency: affine slice err {worst:.2e} "
          f"<= 1e-9, lift/project round trip {rt_err:.2e} <= 1e-12 ({elapsed:.2f}s)")


def test_criterion_3_nurbs_suite():
    t0 = time.perf_counter()
    theta = 2 * np.pi * np.arange(32) / 32
    stacks = np.stack([
        np.column_stack([5 * np.cos(theta), 5 * np.sin(theta), np.full(32, z)])
        for z in np.linspace(0, 20, 8)
    ])
    surf = nurbs.skin_surface(stacks)
    m, n = surf.net_dims
    rng = np.random.default_rng(2)
    us = rng.uniform(0, 1, 1000)
    vs = rng.uniform(0, 1, 1000)
    bu = nurbs.basis_matrix(surf.knots_u.values, 3, m, us)
    bv = nurbs.basis_matrix(surf.knots_v.values, 3, n, vs)
    pou_err = np.abs(bu.sum(axis=1) * bv.sum(axis=1) - 1.0).max()
    assert pou_err <= 1e-12

    # the skin interpolates every point of a noisy stack at (t_bar[i], j / 32)
    noisy = stacks + rng.normal(scale=0.2, size=stacks.shape)
    t_bar = np.stack([nurbs.chord_parameters(noisy[:, j]) for j in range(32)]).mean(axis=0)
    t_bar[0], t_bar[-1] = 0.0, 1.0
    at_points = nurbs.eval_surface_grid(nurbs.skin_surface(noisy), t_bar, np.arange(32) / 32)
    resid = np.abs(at_points - noisy).max()
    assert resid <= 1e-9

    scaled = nurbs.NurbsSurface(
        surf.degree_u, surf.degree_v, surf.knots_u, surf.knots_v,
        surf.control_points, surf.weights * 10.0,
    )
    base = nurbs.eval_surface_grid(surf, us[:100], vs[:100])
    w_err = np.abs(nurbs.eval_surface_grid(scaled, us[:100], vs[:100]) - base).max()
    assert w_err <= 1e-12

    theta8 = 2 * np.pi * np.arange(8) / 8
    circles = np.stack([np.column_stack([np.cos(theta8), np.sin(theta8), np.full(8, z)])
                        for z in range(5)])
    ring = nurbs.eval_surface_grid(nurbs.skin_surface(circles), np.linspace(0, 1, 5),
                                   np.linspace(0, 1, 2000, endpoint=False))
    circ_err = np.abs(np.hypot(ring[..., 0], ring[..., 1]) - 1.0).max()
    assert circ_err <= 0.002
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 3 NURBS suite: partition {pou_err:.2e}, residual "
          f"{resid:.2e}, weight-scale {w_err:.2e}, circle {100 * circ_err:.3f}% "
          f"({elapsed:.1f}s < 10s)")


@pytest.mark.parametrize("config_fn,label", [(_straight_config, "straight"), (_arc_config, "arc")])
def test_criterion_4_end_to_end(tmp_path, config_fn, label):
    t0 = time.perf_counter()
    summary = pipeline.run_pipeline(config_fn(), tmp_path / label)
    elapsed = time.perf_counter() - t0
    cd = summary["metrics"]["cd_mm"]
    topo = summary["topology"]
    assert cd <= VOXEL_MM
    assert topo["watertight"]
    assert topo["boundary_loop_count"] == 0
    assert topo["euler_characteristic"] == 2
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 4 end-to-end {label}: cd {cd:.3f}mm <= {VOXEL_MM}mm, "
          f"watertight chi=2 ({elapsed:.1f}s < 60s)")


def test_criterion_5_baseline_ordering(tmp_path):
    t0 = time.perf_counter()
    results = {}
    for config_fn, label in ((_straight_config, "straight"), (_arc_config, "arc")):
        doc = json.loads(pipeline.compare_baseline(config_fn(), tmp_path / label).read_text())
        nm = doc["nurbs"]["metrics"]
        mm = doc["marching_cubes"]["metrics"]
        assert nm["cd_mm"] < mm["cd_mm"], label
        assert nm["hd_mm"] < mm["hd_mm"], label
        results[label] = (nm["cd_mm"], mm["cd_mm"], nm["hd_mm"], mm["hd_mm"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    msg = "; ".join(
        f"{k}: cd {v[0]:.3f}<{v[1]:.3f}, hd {v[2]:.3f}<{v[3]:.3f}" for k, v in results.items()
    )
    print(f"\n[PASS] criterion 5 baseline ordering: {msg} ({elapsed:.1f}s < 2min)")


def test_criterion_6_parameter_study(tmp_path):
    t0 = time.perf_counter()
    cfg = _study_arc_config()
    csv1 = pipeline.param_study(cfg, tmp_path / "s1", k_list=(8, 12, 16, 20, 25))
    rows = csv1.read_text().strip().splitlines()
    assert len(rows) == 6
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert table[16] < table[8]
    csv2 = pipeline.param_study(cfg, tmp_path / "s2", k_list=(8, 12, 16, 20, 25))
    assert csv1.read_bytes() == csv2.read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 6 parameter study: cd(16)={table[16]:.3f} < "
          f"cd(8)={table[8]:.3f}, sweep deterministic ({elapsed:.0f}s < 5min)")


def test_criterion_7_metric_oracles():
    t0 = time.perf_counter()

    def brute(a, b):
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        cd = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
        hd = max(d.min(axis=1).max(), d.min(axis=0).max())
        return cd, hd, d

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        a = rng.uniform(-10, 10, size=(n, 3))
        b = rng.uniform(-10, 10, size=(m, 3))
        cd_o, hd_o, _ = brute(a, b)
        worst = max(worst, abs(metrics.chamfer(a, b) - cd_o), abs(metrics.hausdorff(a, b) - hd_o))
        c = rng.uniform(-10, 10, size=(n, 3))
        _, _, d = brute(a, c)
        emd_o = min(
            d[np.arange(n), perm].mean() for perm in itertools.permutations(range(n))
        )
        worst = max(worst, abs(metrics.emd(a, c) - emd_o))
    assert worst <= 1e-12

    mask_a = np.zeros((8, 8, 8), dtype=bool)
    mask_a[2:6, 2:6, 2:6] = True
    mask_b = np.zeros((8, 8, 8), dtype=bool)
    mask_b[2:6, 2:6, 3:7] = True
    assert metrics.dice(mask_a, mask_a) == 1.0
    assert metrics.dice(mask_a, np.zeros_like(mask_a)) == 0.0
    pa = metrics._boundary_points_mm(mask_a, (1, 1, 1))
    pb = metrics._boundary_points_mm(mask_b, (1, 1, 1))
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    asd_o = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
    assert metrics.asd(mask_a, mask_b, (1, 1, 1)) == pytest.approx(asd_o, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 7 metric oracles: max deviation {worst:.2e} <= 1e-12, "
          f"dice/asd hand cases ({elapsed:.1f}s < 10s)")


def test_criterion_8_diffusion_suite():
    t0 = time.perf_counter()
    sched = cdm.NoiseSchedule.desk_default(200)

    # (a) analytic gradient vs central finite differences
    spec = phantom.PhantomSpec(shape="straight", length_mm=30.0, base_radius_mm=5.0,
                               dims=(48, 48, 48), spacing_mm=(1.1, 1.1, 1.1))
    vol = phantom.rasterize(spec)
    pair = cdm.TrainingPair.from_volume(vol, phantom.analytic_centerline(spec, 16))
    den = cdm.MlpDenoiser(16, 5, hidden=24, seed=5)
    flat0 = den.flat.copy()

    def loss_at(flat):
        den.flat[:] = flat
        loss, _ = cdm.loss_and_grads([pair] * 3, den, sched, np.random.default_rng(6))
        return loss

    den.flat[:] = flat0
    _, gflat = cdm.loss_and_grads([pair] * 3, den, sched, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    idx = rng.choice(flat0.size, 100, replace=False)
    h = 1e-5
    grad_err = 0.0
    for i in idx:
        fp = flat0.copy(); fp[i] += h
        fm = flat0.copy(); fm[i] -= h
        fd = (loss_at(fp) - loss_at(fm)) / (2 * h)
        grad_err = max(grad_err, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    assert grad_err <= 1e-4

    # (b) forward-noise variance Monte Carlo over 1e5 draws
    rng = np.random.default_rng(8)
    t_mid = 120
    eps = rng.standard_normal((100_000, 4, 3))
    out = cdm.forward_noise(np.zeros_like(eps), t_mid, eps, sched)
    var = out.reshape(len(eps), -1).var(axis=0).mean()
    var_rel = abs(var - (1 - sched.alpha_bars[t_mid])) / (1 - sched.alpha_bars[t_mid])
    assert var_rel <= 0.02

    # (c) single-sample memorization
    cfg = cdm.TrainConfig(iterations=5000, seed=0)
    _, curve = cdm.train([pair], cfg, sched)
    memo_loss = curve[-1][2]
    assert memo_loss < 0.05

    # (d) oracle-denoiser deterministic recovery
    rng = np.random.default_rng(9)
    eps1 = rng.standard_normal((16, 3))
    x_t = cdm.forward_noise(pair.ci0, sched.timesteps, eps1, sched)
    oracle = cdm.OracleDenoiser(pair.ci0, sched)
    enc = cdm.VolumeFeatureEncoder(vol)
    rec = cdm.sample(vol, enc, oracle, sched, rng, deterministic=True, x_init=x_t)
    rec_err = np.abs(cl.encode_image(rec, pair.bounds_lo, pair.bounds_hi) - pair.ci0).max()
    assert rec_err <= 1e-3

    # (e) family training and held-out containment; a 32-combination sweep
    # (4 offsets x 8 seeds) passes at this setup, so the fixed seed below is
    # representative
    rr = np.random.default_rng(0).uniform(5.0, 7.0, 128)
    oo = np.random.default_rng(1).uniform(-3.5, 3.5, (128, 2))
    specs = [
        phantom.PhantomSpec(shape="straight", length_mm=30.0, base_radius_mm=float(r),
                            dims=(48, 48, 48), spacing_mm=(1.2, 1.2, 1.2),
                            wall_softness_mm=3.0, axis_offset_mm=(float(dx), float(dy)))
        for r, (dx, dy) in zip(rr, oo)
    ]
    pairs = pipeline.build_training_pairs(specs, 16)
    fam_sched = cdm.NoiseSchedule.desk_default(400)
    den_fam, fam_curve = cdm.train(pairs, cdm.TrainConfig(iterations=30000, seed=0), fam_sched)
    held = phantom.PhantomSpec(shape="straight", length_mm=30.0, base_radius_mm=6.0,
                               dims=(48, 48, 48), spacing_mm=(1.2, 1.2, 1.2),
                               wall_softness_mm=3.0, axis_offset_mm=(2.8, -1.9))
    held_vol = phantom.rasterize(held)
    held_enc = cdm.VolumeFeatureEncoder(held_vol)
    sample_pts = cdm.sample(held_vol, held_enc, den_fam, fam_sched, np.random.default_rng(0))
    containment = float((sample_trilinear(held_vol, sample_pts) >= 0.5).mean())
    assert containment >= 0.9

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\n[PASS] criterion 8 diffusion suite: grad {grad_err:.2e} <= 1e-4, "
          f"variance {100 * var_rel:.2f}% <= 2%, memorization {memo_loss:.3f} < 0.05, "
          f"oracle recovery {rec_err:.2e} <= 1e-3, containment "
          f"{100 * containment:.0f}% >= 90% ({elapsed:.0f}s < 10min)")


def test_criterion_9_alignment_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    recovered = 0
    for _ in range(100):
        m = 32
        theta = 2 * np.pi * np.arange(m) / m
        stations = int(rng.integers(4, 9))
        stack = []
        truth = []
        for s in range(stations):
            r = rng.uniform(3, 7)
            ring = np.column_stack(
                [r * np.cos(theta), r * np.sin(theta), np.full(m, 2.0 * s)]
            ) + rng.normal(0, 0.15, (m, 3))
            truth.append(ring)
        stack = [truth[0]] + [np.roll(ring, int(rng.integers(0, m)), axis=0) for ring in truth[1:]]
        aligned = contours.align_chain(stack)
        if all(np.array_equal(a, t) for a, t in zip(aligned, truth)):
            recovered += 1
    assert recovered == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 9 alignment: 100/100 stacks recovered exactly "
          f"({elapsed:.1f}s < 5s)")


def test_criterion_10_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    # volume raw + sidecar
    rng = np.random.default_rng(11)
    vol = Volume(rng.random((6, 7, 8)).astype(np.float32), (0.8, 0.8, 0.3), (1.0, -2.0, 3.0))
    store_raw(vol, tmp_path / "v.f32raw")
    again = load_raw(tmp_path / "v.f32raw")
    assert np.array_equal(again.data, vol.data)
    assert again.spacing == vol.spacing and again.origin == vol.origin

    # OBJ and STL
    spec = phantom.PhantomSpec(shape="straight", length_mm=20.0, base_radius_mm=4.0,
                               dims=(32, 32, 32), spacing_mm=(1.2, 1.2, 1.2))
    mesh = phantom.analytic_surface(spec, 16, 16, caps=True)
    meshkit.write_obj(mesh, tmp_path / "m.obj")
    obj2 = meshkit.read_obj(tmp_path / "m.obj")
    assert obj2.n_vertices == mesh.n_vertices and obj2.n_triangles == mesh.n_triangles
    assert np.abs(obj2.vertices - mesh.vertices).max() <= 1e-7
    meshkit.write_stl(mesh, tmp_path / "m.stl")
    assert (tmp_path / "m.stl").stat().st_size == 84 + 50 * mesh.n_triangles
    stl2 = meshkit.read_stl(tmp_path / "m.stl")
    assert stl2.n_triangles == mesh.n_triangles

    # NURBS surface JSON
    theta = 2 * np.pi * np.arange(16) / 16
    stacks = np.stack([
        np.column_stack([4 * np.cos(theta), 4 * np.sin(theta), np.full(16, z)])
        for z in np.linspace(0, 10, 6)
    ])
    surf = nurbs.skin_surface(stacks)
    nurbs.write_surface_json(surf, tmp_path / "s.json")
    surf2 = nurbs.read_surface_json(tmp_path / "s.json")
    assert np.array_equal(surf2.control_points, surf.control_points)
    nurbs.write_surface_json(surf2, tmp_path / "s2.json")
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    # model checkpoint
    sched = cdm.NoiseSchedule.desk_default(100)
    den = cdm.MlpDenoiser(16, 5, hidden=32, seed=12)
    cdm.save_checkpoint(den, sched, tmp_path / "model", seed=12)
    den2, sched2 = cdm.load_checkpoint(tmp_path / "model")
    cdm.save_checkpoint(den2, sched2, tmp_path / "model2", seed=12)
    assert (tmp_path / "model.f32").read_bytes() == (tmp_path / "model2.f32").read_bytes()
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 10 format round trips: raw, OBJ, STL, NURBS JSON, "
          f"checkpoint all identity ({elapsed:.1f}s < 5s)")
