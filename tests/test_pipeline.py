import json

import numpy as np
import pytest

from vesselmesh import meshkit, pipeline
from vesselmesh.pipeline import StageError


def _tiny_config(**overrides):
    cfg = {
        "seed": 0,
        "phantom": {"shape": "straight", "length_mm": 26.0, "base_radius_mm": 5.0,
                    "dims": [48, 48, 48], "spacing_mm": [1.1, 1.1, 1.1]},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 32, "tess_v": 32, "caps": True},
    }
    cfg.update(overrides)
    return cfg


def test_run_pipeline_summary(tmp_path):
    summary = pipeline.run_pipeline(_tiny_config(), tmp_path / "out")
    assert summary["topology"]["watertight"]
    assert summary["metrics"]["cd_mm"] < 1.1  # one voxel


def test_pipeline_deterministic(tmp_path):
    cfg = _tiny_config()
    pipeline.run_pipeline(cfg, tmp_path / "a")
    pipeline.run_pipeline(cfg, tmp_path / "b")
    for name in ("centerline.csv", "contours.json", "surface.nurbs.json",
                 "mesh.obj", "mesh.stl", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_centerline_source(tmp_path):
    base = tmp_path / "base"
    pipeline.run_pipeline(_tiny_config(), base)
    cfg = _tiny_config(centerline={"source": "csv", "k": 16,
                                   "path": str(base / "gt_centerline.csv")})
    out = tmp_path / "csv_out"
    summary = pipeline.run_pipeline(cfg, out)
    assert summary["topology"]["watertight"]


def test_stage_error_carries_stage(tmp_path):
    cfg = _tiny_config(centerline={"source": "csv", "path": str(tmp_path / "nope.csv")})
    (tmp_path / "o").mkdir()
    pipeline.stage_volume(cfg, tmp_path / "o")
    with pytest.raises(StageError) as err:
        pipeline.stage_centerline(cfg, tmp_path / "o")
    assert err.value.stage == "centerline"


def test_missing_half_extent_for_raw_volume(tmp_path):
    base = tmp_path / "base"
    pipeline.run_pipeline(_tiny_config(), base)
    cfg = {
        "seed": 0,
        "volume": {"path": str(base / "volume.f32raw")},
        "centerline": {"source": "csv", "k": 16, "path": str(base / "gt_centerline.csv")},
        "contours": {"points": 32},
        "surface": {"tess_u": 32, "tess_v": 32, "caps": True},
    }
    out = tmp_path / "raw_out"
    pipeline.stage_volume(cfg, out)
    pipeline.stage_centerline(cfg, out)
    with pytest.raises(StageError) as err:
        pipeline.stage_segment(cfg, out)
    assert err.value.stage == "segment"
    # with the extent supplied the stage succeeds
    cfg["slice"] = {"half_extent_mm": 20.0, "n_pix": 64}
    pipeline.stage_segment(cfg, out)


def test_param_study_structure(tmp_path):
    # trend assertions live in the acceptance suite at full resolution;
    # this exercises the sweep plumbing and the best-k flag
    cfg = {
        "seed": 0,
        "phantom": {"shape": "arc", "length_mm": 28.0, "base_radius_mm": 4.5,
                    "arc_radius_mm": 22.0, "dims": [48, 48, 48],
                    "spacing_mm": [1.1, 1.1, 1.1]},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": 32, "tess_v": 32, "caps": True},
    }
    csv_path = pipeline.param_study(cfg, tmp_path / "study", k_list=(8, 16))
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "k,cd_mm,hd_mm,emd_mm,is_best"
    assert len(rows) == 3
    table = {int(r.split(",")[0]): (float(r.split(",")[1]), int(r.split(",")[4])) for r in rows[1:]}
    best_k = min(table, key=lambda k: table[k][0])
    assert table[best_k][1] == 1
    assert sum(flag for _, flag in table.values()) == 1


def test_compare_baseline_outputs(tmp_path):
    doc_path = pipeline.compare_baseline(_tiny_config(), tmp_path / "cmp")
    doc = json.loads(doc_path.read_text())
    assert doc["nurbs"]["metrics"]["cd_mm"] < doc["marching_cubes"]["metrics"]["cd_mm"]
    assert "topology" in doc["nurbs"] and "topology" in doc["marching_cubes"]
    assert (tmp_path / "cmp" / "mc_mesh.obj").exists()


def test_cdm_train_and_sample_roundtrip(tmp_path):
    train_cfg = {
        "seed": 0,
        "k": 16,
        "timesteps": 50,
        "iterations": 60,
        "family": {"count": 4, "seed": 0, "dims": [32, 32, 32],
                   "spacing_mm": [1.6, 1.6, 1.6], "length_mm": 22.0,
                   "radius_range_mm": [4.0, 5.0], "offset_range_mm": 2.0},
    }
    model_stem = pipeline.train_cdm(train_cfg, tmp_path / "train")
    assert (tmp_path / "train" / "loss_curve.csv").exists()
    sample_cfg = {
        "seed": 1,
        "checkpoint": str(model_stem),
        "phantom": {"shape": "straight", "length_mm": 22.0, "base_radius_mm": 4.5,
                    "dims": [32, 32, 32], "spacing_mm": [1.6, 1.6, 1.6]},
    }
    csv_path = pipeline.sample_cdm(sample_cfg, tmp_path / "sample")
    from vesselmesh import centerline as cl

    pts = cl.read_csv(csv_path)
    assert pts.shape == (16, 3)
    # determinism of the sampling command
    csv2 = pipeline.sample_cdm(sample_cfg, tmp_path / "sample2")
    assert csv_path.read_bytes() == csv2.read_bytes()


def test_cdm_source_in_pipeline(tmp_path):
    train_cfg = {
        "seed": 0, "k": 16, "timesteps": 50, "iterations": 60,
        "family": {"count": 4, "seed": 0, "dims": [32, 32, 32],
                   "spacing_mm": [1.6, 1.6, 1.6], "length_mm": 22.0,
                   "radius_range_mm": [4.0, 5.0], "offset_range_mm": 2.0},
    }
    model_stem = pipeline.train_cdm(train_cfg, tmp_path / "train")
    # an undertrained model gives a poor centerline; only the plumbing is
    # exercised here, not reconstruction quality
    cfg = _tiny_config(centerline={"source": "cdm", "k": 16,
                                   "checkpoint": str(model_stem)})
    out = tmp_path / "out"
    pipeline.stage_volume(cfg, out)
    path = pipeline.stage_centerline(cfg, out)
    from vesselmesh import centerline as cl

    pts = cl.read_csv(path)
    assert pts.shape == (16, 3)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_centerline_is_a_stage_error(tmp_path, bad):
    csv = tmp_path / "c.csv"
    csv.write_text(f"0,0,0\n0,0,1\n0,{bad},2\n0,0,3\n0,0,4\n")
    cfg = _tiny_config(centerline={"source": "csv", "path": str(csv)})
    (tmp_path / "o").mkdir()
    with pytest.raises(StageError, match="not finite") as err:
        pipeline.stage_centerline(cfg, tmp_path / "o")
    assert err.value.stage == "centerline"
    assert not (tmp_path / "o" / "centerline.csv").exists()
