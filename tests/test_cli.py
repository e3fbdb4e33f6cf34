import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vesselmesh import centerline as cl, lumenseg, meshkit, phantom, pipeline, slicer
from vesselmesh.volume import Volume, store_raw


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "vesselmesh.cli", *args],
        capture_output=True, text=True,
    )


def _tiny_dict():
    return {
        "seed": 0,
        "phantom": {"shape": "straight", "length_mm": 26.0, "base_radius_mm": 5.0,
                    "dims": [48, 48, 48], "spacing_mm": [1.1, 1.1, 1.1]},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 32, "tess_v": 32, "caps": True},
    }


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = _tiny_dict()
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg, root


def test_pipeline_command(tiny_config):
    path, cfg, root = tiny_config
    out = root / "pipe"
    res = _run("pipeline", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    for name in ("volume.f32raw", "volume.f32raw.json", "centerline.csv",
                 "contours_raw.json", "contours.json", "surface.nurbs.json",
                 "mesh.obj", "mesh.stl", "topology.json", "metrics.json",
                 "gt_surface.obj"):
        assert (out / name).exists(), name
    topo = json.loads((out / "topology.json").read_text())
    assert topo["watertight"]


def test_defaults_k16_m32(tiny_config):
    path, cfg, root = tiny_config
    out = root / "pipe"
    stations = cl.read_csv(out / "centerline.csv")
    assert len(stations) == 16
    doc = json.loads((out / "contours.json").read_text())
    assert all(len(st["points"]) == 32 for st in doc["stations"])


def test_staged_equals_pipeline(tiny_config):
    path, cfg, root = tiny_config
    ref = root / "pipe"
    staged = root / "staged"
    for cmd in ("phantom", "centerline", "segment", "contours", "fit", "mesh"):
        res = _run(cmd, "--config", str(path), "--out", str(staged))
        assert res.returncode == 0, f"{cmd}: {res.stdout}{res.stderr}"
    for name in ("volume.f32raw", "centerline.csv", "contours_raw.json",
                 "contours.json", "surface.nurbs.json", "mesh.obj", "mesh.stl",
                 "topology.json"):
        assert (ref / name).read_bytes() == (staged / name).read_bytes(), name


def test_missing_volume_error_json(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"volume": {"path": "/does/not/exist.f32raw"}}))
    res = _run("pipeline", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "volume"


def test_config_error_exit_code(tmp_path):
    res = _run("pipeline", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "config"


def test_slice_dump_and_masks_dir(tiny_config):
    path, cfg, root = tiny_config
    out = root / "pipe"
    res = _run("slice", "--config", str(path), "--out", str(out))
    assert res.returncode == 0
    pgms = sorted((out / "slices").glob("station_*.pgm"))
    assert len(pgms) == 16

    # external masks: threshold each stored slice and feed it back in
    masks = root / "masks"
    masks.mkdir(exist_ok=True)
    vol, anchors, rs, half_extent, n_pix = pipeline._slice_geometry(cfg, out)
    for i, (anchor, r) in enumerate(zip(anchors, rs)):
        mask = slicer.extract_slice(vol, anchor, r, half_extent, n_pix) >= 0.5
        lines = ["P2", f"{mask.shape[1]} {mask.shape[0]}", "255"]
        for row in mask.astype(int) * 255:
            lines.append(" ".join(str(v) for v in row))
        (masks / f"station_{i:03d}.pgm").write_text("\n".join(lines) + "\n")

    out2 = root / "masked"
    res = _run("phantom", "--config", str(path), "--out", str(out2))
    assert res.returncode == 0
    res = _run("centerline", "--config", str(path), "--out", str(out2))
    assert res.returncode == 0
    res = _run("segment", "--config", str(path), "--out", str(out2),
               "--masks-dir", str(masks))
    assert res.returncode == 0, res.stdout + res.stderr
    # the flood-fill masks equal the thresholded masks on this phantom, so
    # the contour sets agree
    a = json.loads((out / "contours_raw.json").read_text())
    b = json.loads((out2 / "contours_raw.json").read_text())
    for st_a, st_b in zip(a["stations"], b["stations"]):
        assert np.allclose(st_a["points"], st_b["points"], atol=1e-12)


def test_metrics_command(tiny_config, tmp_path):
    path, cfg, root = tiny_config
    out = root / "pipe"
    res = _run("metrics", "--mesh", str(out / "mesh.obj"),
               "--reference", str(out / "gt_surface.obj"),
               "--out", str(tmp_path), "--seed", "0")
    assert res.returncode == 0
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["cd_mm"] < 1.2


def test_merge_command(tmp_path):
    spec = phantom.PhantomSpec(shape="branched", length_mm=26.0, base_radius_mm=5.0,
                               branch_radius_mm=2.5, branch_length_mm=12.0,
                               dims=(48, 48, 48), spacing_mm=(1.1, 1.1, 1.1))
    main = phantom.analytic_surface(spec, 32, 32, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 16, 16, caps=False, branch="side")
    meshkit.write_obj(main, tmp_path / "main.obj")
    meshkit.write_obj(branch, tmp_path / "branch.obj")
    res = _run("merge", "--main", str(tmp_path / "main.obj"),
               "--branch", str(tmp_path / "branch.obj"), "--out", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "merged.obj").exists()
    junction = json.loads((tmp_path / "junction.json").read_text())
    assert junction["removed_triangles"] > 0


def test_study_csv_deterministic(tmp_path):
    cfg = {
        "seed": 0,
        "phantom": {"shape": "arc", "length_mm": 28.0, "base_radius_mm": 4.5,
                    "arc_radius_mm": 22.0, "dims": [48, 48, 48],
                    "spacing_mm": [1.1, 1.1, 1.1]},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 32, "tess_v": 32, "caps": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _run("study", "--config", str(path), "--out", str(tmp_path / "s1"),
               "--k-list", "8,12")
    assert res.returncode == 0, res.stdout + res.stderr
    csv1 = (tmp_path / "s1" / "study.csv").read_text()
    rows = csv1.strip().splitlines()
    assert rows[0] == "k,cd_mm,hd_mm,emd_mm,is_best"
    assert len(rows) == 3  # header + one row per k
    res = _run("study", "--config", str(path), "--out", str(tmp_path / "s2"),
               "--k-list", "8,12")
    assert res.returncode == 0
    assert csv1 == (tmp_path / "s2" / "study.csv").read_text()


def test_phantom_spec_flag(tmp_path, small_spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(small_spec.to_json())
    res = _run("phantom", "--spec", str(spec_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 0
    assert (tmp_path / "out" / "volume.f32raw").exists()
    assert (tmp_path / "out" / "gt_surface.obj").exists()


def test_non_finite_centerline_exit_code(tmp_path):
    csv = tmp_path / "c.csv"
    csv.write_text("0,0,0\n0,0,1\nnan,0,2\n0,0,3\n0,0,4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centerline": {"source": "csv", "path": str(csv)}}))
    res = _run("centerline", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "centerline"
    assert "not finite" in doc["error"]


def _with(section, key, value):
    cfg = _tiny_dict()
    if section is None:
        cfg[key] = value
    else:
        cfg[section][key] = value
    return cfg


@pytest.mark.parametrize("command, cfg, named", [
    (["pipeline"], _with("surface", "tess_U", 8), "surface.tess_U"),
    (["pipeline"], _with(None, "contour", {"points": 32}), "contour"),
    (["pipeline"], _with("phantom", "base_radius", 5.0), "base_radius"),
    (["pipeline"], _with("surface", "tess_u", "abc"), "surface.tess_u"),
    (["phantom"], _with("phantom", "base_radius", 5.0), "base_radius"),
    (["mesh"], _with("surface", "tess_U", 8), "surface.tess_U"),
    (["cdm", "train"], {"iterations": 10, "family": {"count": 2, "radius_mm": 5.0}},
     "family.radius_mm"),
    (["cdm", "train"], {"iterations": 10, "family": {"count": 2, "dims": "abc"}}, "family.dims"),
    (["pipeline"], _with("surface", "caps", "false"), "surface.caps"),
    (["pipeline"], _with("surface", "tess_u", 31.9), "surface.tess_u"),
    (["pipeline"], _with("surface", "tess_u", True), "surface.tess_u"),
    (["pipeline"], _with("centerline", "smooth", 0), "centerline.smooth"),
    (["pipeline"], _with("centerline", "source", "csv"), "centerline.path"),
    (["pipeline"], _with("centerline", "source", "cdm"), "centerline.checkpoint"),
    (["pipeline"], _with("centerline", "source", "spline"), "centerline.source"),
    (["centerline"], _with("centerline", "source", "csv"), "centerline.path"),
    (["pipeline"], {**_tiny_dict(), "slice": {"n_pix": 12}}, "slice.n_pix"),
    (["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": 0.0}}, "slice.half_extent_mm"),
    (["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": -5}}, "slice.half_extent_mm"),
    (["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": "wide"}}, "slice.half_extent_mm"),
    (["pipeline"], _with("surface", "tess_u", 15), "surface.tess_u"),
    (["pipeline"], _with("surface", "tess_v", 8), "surface.tess_v"),
    (["phantom"], _with("surface", "tess_v", 8), "surface.tess_v"),
    (["pipeline"], _with("contours", "points", 7), "contours.points"),
    (["pipeline"], _with("contours", "threshold", 1.0), "contours.threshold"),
    (["pipeline"], _with("centerline", "k", 3), "centerline.k"),
    (["pipeline"], _with("surface", "degree_v", 0), "surface.degree_v"),
    (["pipeline"], _with("surface", "degree_v", 2), "surface.degree_v and contours.points"),
    (["pipeline"], _with("phantom", "length_mm", "26"), "phantom.length_mm"),
    (["pipeline"], _with("phantom", "dims", [48, 48]), "phantom.dims"),
    (["cdm", "sample"], {"checkpoint": "model", "phantom": _tiny_dict()["phantom"]}, "checkpoint"),
    (["cdm", "train"], {"learning_rate": 0.0, "family": {"count": 2}}, "learning_rate"),
    (["cdm", "train"], {"batch_size": 0, "family": {"count": 2}}, "batch_size"),
    (["cdm", "train"], {"iterations": 0, "family": {"count": 2}}, "iterations"),
    (["cdm", "train"], {"k": 3, "family": {"count": 2}}, "config key k:"),
    (["cdm", "train"], {"family": {"count": 0}}, "family.count"),
    (["cdm", "train"], {"timesteps": 20, "family": {"count": 2}}, "timesteps"),
    (["pipeline"], _with("phantom", "length_mm", -5.0), "length_mm"),
    (["pipeline"], _with("phantom", "length_mm", 0.0), "length_mm"),
    (["pipeline"], _with("phantom", "spacing_mm", [0, 1, 1]), "spacing_mm"),
    (["phantom"], _with("phantom", "spacing_mm", [-1, 1, 1]), "spacing_mm"),
    (["pipeline"], _with("phantom", "dims", [0, 48, 48]), "dims"),
])
def test_bad_config_exits_2_before_any_artifact(tmp_path, command, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = _run(*command, "--config", str(path), "--out", str(out))
    assert res.returncode == 2, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "config"
    assert named in doc["error"]
    assert not out.exists()


@pytest.mark.parametrize("cfg, named", [
    ({"phantom": _tiny_dict()["phantom"]}, "checkpoint"),
    ({"centerline": {"checkpoint": "model"}}, "volume.path"),
])
def test_cdm_sample_without_its_inputs_exits_2(tmp_path, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = _run("cdm", "sample", "--config", str(path), "--out", str(out))
    assert res.returncode == 2, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "config"
    assert named in doc["error"]
    assert not any(out.iterdir())  # the CLI made the directory, no stage wrote to it


def test_cdm_sample_on_raw_volume_outside_unit_range_fails(tmp_path):
    store_raw(Volume(np.full((8, 8, 8), 7.0, dtype=np.float32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
              tmp_path / "in.f32raw")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"volume": {"path": str(tmp_path / "in.f32raw")},
                                "centerline": {"checkpoint": str(tmp_path / "model")}}))
    out = tmp_path / "out"
    res = _run("cdm", "sample", "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "cdm-sample"
    assert "[0, 1], got min 7.0 max 7.0" in doc["error"]
    assert not any(out.iterdir())


def test_config_without_volume_source_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"centerline": {"k": 16}}))
    out = tmp_path / "out"
    res = _run("pipeline", "--config", str(path), "--out", str(out))
    assert res.returncode == 2, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc == {"stage": "config", "error": "config needs a phantom section or volume.path"}
    assert not any(out.iterdir())  # the CLI made the directory, no stage wrote to it


def test_bad_phantom_spec_flag_exits_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"shape": "straight", "base_radius_mm": -1.0}))
    res = _run("phantom", "--spec", str(spec_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == "config"
    assert "base_radius_mm must be positive" in doc["error"]
    assert not (tmp_path / "out").exists()
