import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vesselmesh import centerline as cl, lumenseg, meshkit, nurbs, phantom, pipeline, slicer
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


@pytest.fixture(scope="module")
def pipe(tiny_config):
    """(result, output directory) of one `pipeline` run on the tiny config."""
    path, cfg, root = tiny_config
    out = root / "pipe"
    return _run("pipeline", "--config", str(path), "--out", str(out)), out


def test_pipeline_command(pipe):
    res, out = pipe
    assert res.returncode == 0, res.stdout + res.stderr
    for name in ("volume.f32raw", "volume.f32raw.json", "centerline.csv",
                 "contours_raw.json", "contours.json", "surface.nurbs.json",
                 "mesh.obj", "mesh.stl", "topology.json", "metrics.json",
                 "gt_surface.obj"):
        assert (out / name).exists(), name
    topo = json.loads((out / "topology.json").read_text())
    assert topo["watertight"]


def test_defaults_k16_m32(pipe):
    _, out = pipe
    stations = cl.read_csv(out / "centerline.csv")
    assert len(stations) == 16
    doc = json.loads((out / "contours.json").read_text())
    assert all(len(st["points"]) == 32 for st in doc["stations"])


def test_staged_equals_pipeline(tiny_config, pipe):
    path, cfg, root = tiny_config
    _, ref = pipe
    staged = root / "staged"
    for cmd in ("phantom", "centerline", "segment", "contours", "fit", "mesh"):
        res = _run(cmd, "--config", str(path), "--out", str(staged))
        assert res.returncode == 0, f"{cmd}: {res.stdout}{res.stderr}"
    for name in ("volume.f32raw", "centerline.csv", "contours_raw.json",
                 "contours.json", "surface.nurbs.json", "mesh.obj", "mesh.stl",
                 "topology.json"):
        assert (ref / name).read_bytes() == (staged / name).read_bytes(), name


def test_stages_after_phantom_spec_equal_pipeline(tiny_config, pipe):
    path, cfg, root = tiny_config
    _, ref = pipe
    spec_path = root / "tiny_spec.json"
    spec_path.write_text(json.dumps(cfg["phantom"]))
    no_phantom = root / "no_phantom.json"
    no_phantom.write_text(json.dumps({key: v for key, v in cfg.items() if key != "phantom"}))
    staged = root / "staged_spec"
    res = _run("phantom", "--spec", str(spec_path), "--out", str(staged))
    assert res.returncode == 0, res.stdout + res.stderr
    for cmd in ("centerline", "segment", "contours", "fit", "mesh"):
        res = _run(cmd, "--config", str(no_phantom), "--out", str(staged))
        assert res.returncode == 0, f"{cmd}: {res.stdout}{res.stderr}"
    for name in ("volume.f32raw", "phantom_spec.json", "centerline.csv", "contours_raw.json",
                 "contours.json", "surface.nurbs.json", "mesh.obj", "mesh.stl", "topology.json"):
        assert (ref / name).read_bytes() == (staged / name).read_bytes(), name


def _flat_sheet_doc():
    """A 4 x 4 bicubic sheet, clamped along both directions."""
    knots = [0.0] * 4 + [1.0] * 4
    grid = [[float(i), float(j), 0.0] for i in range(4) for j in range(4)]
    return {"degrees": [3, 3], "knots_u": knots, "knots_v": knots, "knot_styles": ["clamped", "clamped"],
            "net_dims": [4, 4], "control_points": grid, "weights": [1.0] * 16}


def _quadratic_u_doc():
    """A skinned tube whose document declares quadratic u with matching knots."""
    theta = 2 * np.pi * np.arange(16) / 16
    stacks = [np.column_stack([5 * np.cos(theta), 5 * np.sin(theta), np.full(16, z)])
              for z in np.linspace(0, 20, 6)]
    doc = nurbs.surface_to_dict(nurbs.skin_surface(stacks))
    m = doc["net_dims"][0]
    doc["degrees"] = [2, 3]
    doc["knots_u"] = [0.0] * 3 + np.linspace(0.0, 1.0, m - 1)[1:-1].tolist() + [1.0] * 3
    return doc


@pytest.mark.parametrize("doc, named", [(_flat_sheet_doc(), "knot_styles"), (_quadratic_u_doc(), "degrees")])
def test_mesh_rejects_other_surface_forms(tmp_path, doc, named):
    out = tmp_path / "out"
    out.mkdir()
    (out / "surface.nurbs.json").write_text(json.dumps(doc))
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    res = _run("mesh", "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    err = json.loads(res.stdout.strip().splitlines()[-1])
    assert err["stage"] == "mesh"
    assert f"surface {named} must be" in err["error"]
    assert not (out / "mesh.obj").exists()


@pytest.mark.parametrize("field", ["control_points", "weights"])
def test_mesh_rejects_a_non_finite_surface(tmp_path, field):
    theta = 2 * np.pi * np.arange(16) / 16
    stacks = [np.column_stack([5 * np.cos(theta), 5 * np.sin(theta), np.full(16, z)])
              for z in np.linspace(0, 20, 6)]
    doc = nurbs.surface_to_dict(nurbs.skin_surface(stacks))
    doc[field][7] = float("nan") if field == "weights" else [1.0, float("nan"), 2.0]
    out = tmp_path / "out"
    out.mkdir()
    (out / "surface.nurbs.json").write_text(json.dumps(doc))
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    res = _run("mesh", "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    err = json.loads(res.stdout.strip().splitlines()[-1])
    assert err["stage"] == "mesh"
    assert err["error"].startswith(f"{field} must be finite, got nan at ")
    assert not (out / "mesh.obj").exists()


def test_mesh_gate_fails_an_inside_out_mesh(tiny_config, pipe, tmp_path):
    # the pipeline's surface with its core control-point columns reversed (the
    # wrap kept) meshes watertight with 0 crossings, but inward normals
    path, cfg, _ = tiny_config
    _, ref = pipe
    doc = json.loads((ref / "surface.nurbs.json").read_text())
    m, n = doc["net_dims"]
    degree = doc["degrees"][1]
    core = np.array(doc["control_points"]).reshape(m, n, 3)[:, : n - degree][:, ::-1]
    doc["control_points"] = np.concatenate([core, core[:, :degree]], axis=1).reshape(-1, 3).tolist()
    out = tmp_path / "out"
    out.mkdir()
    (out / "surface.nurbs.json").write_text(json.dumps(doc))
    res = _run("mesh", "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    err = json.loads(res.stdout.strip().splitlines()[-1])
    assert err["stage"] == "mesh"
    assert re.fullmatch(r"capped mesh has signed volume -\d+\.\d+ mm\^3: its normals point inward", err["error"])
    topo = json.loads((out / "topology.json").read_text())
    assert topo["watertight"] and topo["self_intersection_count"] == 0
    # open, the same surface is a manifold tube with two boundary loops
    open_cfg = tmp_path / "open.json"
    open_cfg.write_text(json.dumps({**cfg, "surface": {**cfg["surface"], "caps": False}}))
    res = _run("mesh", "--config", str(open_cfg), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads((out / "topology.json").read_text())["boundary_loop_count"] == 2


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


def test_slice_dump_and_masks_dir(tiny_config, pipe):
    path, cfg, root = tiny_config
    _, out = pipe
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


def test_metrics_command(pipe, tmp_path):
    _, out = pipe
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


def test_study_with_a_repeated_k_exits_2_before_any_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_dict()))
    out = tmp_path / "out"
    res = _run("study", "--config", str(path), "--out", str(out), "--k-list", "8,12,8")
    assert res.returncode == 2, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc == {"stage": "config", "error": "parameter study repeats k 8"}
    assert not any(out.iterdir())  # the CLI made the directory, the study wrote nothing


def test_phantom_spec_flag(tmp_path, small_spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(small_spec.to_json())
    res = _run("phantom", "--spec", str(spec_path), "--out", str(tmp_path / "out"))
    assert res.returncode == 0
    assert (tmp_path / "out" / "volume.f32raw").exists()
    assert (tmp_path / "out" / "gt_surface.obj").exists()


@pytest.mark.parametrize("key, value", [("dims", [48, 48, 48.5]), ("length_mm", True)])
def test_bad_phantom_spec_artifact_fails_centerline(tmp_path, small_spec, key, value):
    # phantom_spec.json is read as the config's phantom section is
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(small_spec.to_json())
    out = tmp_path / "out"
    res = _run("phantom", "--spec", str(spec_path), "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    doc = json.loads((out / "phantom_spec.json").read_text())
    (out / "phantom_spec.json").write_text(json.dumps({**doc, key: value}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    res = _run("centerline", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    err = json.loads(res.stdout.strip().splitlines()[-1])
    assert err["stage"] == "centerline"
    assert err["error"].startswith(f"config key phantom.{key}: ")
    assert not (out / "centerline.csv").exists()


def test_bad_volume_sidecar_fails_stage_volume(tmp_path):
    store_raw(Volume(np.zeros((4, 4, 4), dtype=np.float32), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
              tmp_path / "in.f32raw")
    sidecar = tmp_path / "in.f32raw.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "dims": [4, 4, 4.9]}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"volume": {"path": str(tmp_path / "in.f32raw")}}))
    out = tmp_path / "out"
    res = _run("pipeline", "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    err = json.loads(res.stdout.strip().splitlines()[-1])
    assert err == {"stage": "volume",
                   "error": "volume sidecar dims must be a list of 3 whole numbers, got [4, 4, 4.9]"}
    assert not any(out.iterdir())


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


def _row(n, command, cfg, named):
    """One row of the table below, with its own id, command<n>-cfg<n>-<named>:
    the id pytest gave the row when it numbered the rows by position, kept so
    that a row added anywhere renames no other."""
    return pytest.param(command, cfg, named, id=f"command{n}-cfg{n}-{named}")


@pytest.mark.parametrize("command, cfg, named", [
    _row(0, ["pipeline"], _with("surface", "tess_U", 8), "surface.tess_U"),
    _row(1, ["pipeline"], _with(None, "contour", {"points": 32}), "contour"),
    _row(2, ["pipeline"], _with("phantom", "base_radius", 5.0), "base_radius"),
    _row(3, ["pipeline"], _with("surface", "tess_u", "abc"), "surface.tess_u"),
    _row(4, ["phantom"], _with("phantom", "base_radius", 5.0), "base_radius"),
    _row(5, ["mesh"], _with("surface", "tess_U", 8), "surface.tess_U"),
    _row(6, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "radius_mm": 5.0}},
            "family.radius_mm"),
    _row(7, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "dims": "abc"}}, "family.dims"),
    _row(8, ["pipeline"], _with("surface", "caps", "false"), "surface.caps"),
    _row(9, ["pipeline"], _with("surface", "tess_u", 31.9), "surface.tess_u"),
    _row(10, ["pipeline"], _with("surface", "tess_u", True), "surface.tess_u"),
    _row(11, ["pipeline"], _with("centerline", "smooth", 0), "centerline.smooth"),
    _row(12, ["pipeline"], _with("centerline", "source", "csv"), "centerline.path"),
    _row(13, ["pipeline"], _with("centerline", "source", "cdm"), "centerline.checkpoint"),
    _row(14, ["pipeline"], _with("centerline", "source", "spline"), "centerline.source"),
    _row(15, ["centerline"], _with("centerline", "source", "csv"), "centerline.path"),
    _row(16, ["pipeline"], {**_tiny_dict(), "slice": {"n_pix": 12}}, "slice.n_pix"),
    _row(17, ["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": 0.0}}, "slice.half_extent_mm"),
    _row(18, ["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": -5}}, "slice.half_extent_mm"),
    _row(19, ["pipeline"], {**_tiny_dict(), "slice": {"half_extent_mm": "wide"}}, "slice.half_extent_mm"),
    _row(20, ["pipeline"], _with("surface", "tess_u", 15), "surface.tess_u"),
    _row(21, ["pipeline"], _with("surface", "tess_v", 8), "surface.tess_v"),
    _row(22, ["phantom"], _with("surface", "tess_v", 8), "surface.tess_v"),
    _row(23, ["pipeline"], _with("contours", "points", 7), "contours.points"),
    _row(24, ["pipeline"], _with("contours", "threshold", 1.0), "contours.threshold"),
    _row(25, ["pipeline"], _with("centerline", "k", 3), "centerline.k"),
    _row(26, ["pipeline"], _with("surface", "degree_v", 0), "surface.degree_v"),
    _row(27, ["pipeline"], _with("surface", "degree_v", 2), "surface.degree_v and contours.points"),
    _row(28, ["pipeline"], _with("phantom", "length_mm", "26"), "phantom.length_mm"),
    _row(29, ["pipeline"], _with("phantom", "dims", [48, 48]), "phantom.dims"),
    _row(30, ["cdm", "sample"], {"checkpoint": "model", "phantom": _tiny_dict()["phantom"]}, "checkpoint"),
    _row(31, ["cdm", "train"], {"learning_rate": 0.0, "family": {"count": 2}}, "learning_rate"),
    _row(32, ["cdm", "train"], {"batch_size": 0, "family": {"count": 2}}, "batch_size"),
    _row(33, ["cdm", "train"], {"iterations": 0, "family": {"count": 2}}, "iterations"),
    _row(34, ["cdm", "train"], {"k": 3, "family": {"count": 2}}, "config key k:"),
    _row(35, ["cdm", "train"], {"family": {"count": 0}}, "family.count"),
    _row(36, ["cdm", "train"], {"timesteps": 20, "family": {"count": 2}}, "timesteps"),
    _row(37, ["pipeline"], _with("phantom", "length_mm", -5.0), "length_mm"),
    _row(38, ["pipeline"], _with("phantom", "length_mm", 0.0), "length_mm"),
    _row(39, ["pipeline"], _with("phantom", "spacing_mm", [0, 1, 1]), "spacing_mm"),
    _row(40, ["phantom"], _with("phantom", "spacing_mm", [-1, 1, 1]), "spacing_mm"),
    _row(41, ["pipeline"], _with("phantom", "dims", [0, 48, 48]), "dims"),
    _row(42, ["pipeline"], _with("phantom", "length_mm", -5.0),
             "config key phantom.length_mm must be positive"),
    _row(43, ["pipeline"], _with("phantom", "shape", "blob"), "config key phantom.shape"),
    _row(44, ["phantom"], _with("phantom", "wall_softness_mm", 0), "config key phantom.wall_softness_mm"),
    _row(45, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "length_mm": -5.0}},
             "config key family.length_mm must be positive"),
    _row(46, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "shape": "blob"}},
             "config key family.shape"),
    _row(47, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "radius_range_mm": [-1.0, 2.0]}},
             "config key family.radius_range_mm"),
    _row(48, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "spacing_mm": [0, 1.2, 1.2]}},
             "config key family.spacing_mm"),
    _row(49, ["cdm", "train"], {"iterations": 10, "family": {"count": 2, "radius_range_mm": [5.0, 30.0]}},
             "config keys family.radius_range_mm and family.offset_range_mm"),
    _row(50, ["compare"], {**_tiny_dict(), "baseline": {"iso": 1.5}}, "baseline.iso"),
    _row(51, ["compare"], {**_tiny_dict(), "baseline": {"iso": 0.0}}, "baseline.iso"),
    pytest.param(["pipeline"], {"phantom": {"shape": "straight", "dims": [48, 48, 48],
                                            "spacing_mm": [0.9, 0.9, 0.9], "length_mm": 30.0,
                                            "base_radius_mm": 5.0}},
                 "config key phantom: phantom tube (main) exceeds volume bounds",
                 id="phantom-outside-its-volume"),
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


@pytest.mark.parametrize("command, stage", [(("cdm", "sample"), "cdm-sample"),
                                            (("pipeline",), "centerline")])
def test_checkpoint_of_other_feature_count_exits_3(tmp_path, command, stage):
    from vesselmesh import cdm

    cdm.save_checkpoint(cdm.MlpDenoiser(16, 4, hidden=8), cdm.NoiseSchedule(20), tmp_path / "model")
    cfg = _tiny_dict()
    cfg["centerline"] = {"source": "cdm", "k": 16, "checkpoint": str(tmp_path / "model")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = _run(*command, "--config", str(path), "--out", str(out))
    assert res.returncode == 3, res.stdout + res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert doc["stage"] == stage
    assert doc["error"] == "denoiser takes n_features=4 per point, the encoder gives n_features=5"
    assert not (out / "sampled_centerline.csv").exists() and not (out / "centerline.csv").exists()


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
