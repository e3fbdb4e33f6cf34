import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vesselmesh import meshkit, pipeline
from vesselmesh.pipeline import StageError
from vesselmesh.volume import Volume, store_raw


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


# sha256 of the canonical artifacts (the README's arc config, and a straight
# tube at the same 64^3 grid).  A refactor must keep these bytes; a change
# that moves them on purpose records the new values and says why.  They hold
# for the numpy/OpenBLAS build the suite runs on: another LAPACK or libm can
# move the last bits of the NURBS JSON.
_CANONICAL_BASE = {
    "seed": 0,
    "centerline": {"source": "analytic", "k": 16},
    "contours": {"points": 32},
    "slice": {"n_pix": 64},
    "surface": {"tess_u": 64, "tess_v": 64, "caps": True},
}
_CANONICAL_PHANTOMS = {
    "arc": {"shape": "arc", "length_mm": 39.27, "base_radius_mm": 5.0, "arc_radius_mm": 25.0,
            "dims": [64, 64, 64], "spacing_mm": [0.9, 0.9, 0.9]},
    "straight": {"shape": "straight", "length_mm": 40.0, "base_radius_mm": 6.0,
                 "dims": [64, 64, 64], "spacing_mm": [0.9, 0.9, 0.9]},
}
_CANONICAL_SHA256 = {
    "arc": {
        "centerline.csv":
            "06c60ed83cd1d18d0a000ada819c1983f81051fcfe88ac7804be998eb532c1ec",
        "contours.json":
            "82be3be4c273106361cdc4c7cc815389fd61432c5fb4e9ea95692f9caf853a38",
        "surface.nurbs.json":
            "36005cbae8c4475c53dd59559aa41ea7e91280c0f8538cb55f614645fd327a67",
        "mesh.obj":
            "8565bb65026cead92aa4f0e6c61f075837db27de608985b3ea62e8e5a3f73947",
        "mesh.stl":
            "c0de527dbedb60ed43b8566fe4075510360498204078645802ba02368907981c",
        "topology.json":
            "c4dae4c0b95683dfd02bec7854d24e621d8a1b054dcfb23dcd15853c987e8aa5",
        "volume.f32raw":
            "6beb5ac175f6f9ae315e5398b13eab0e20ed75619878a97eb1c0b19b5ea33ae0",
        "gt_surface.obj":
            "edecbe32f261a5cb3b88eae0c3303a26e7008202acfec67ec9ee2adc052928bf",
        "gt_centerline.csv":
            "c041ee7cbdab37f9a8e8d64a738c08dbfb814e751ac1ff75ecfbbec04b151800",
    },
    "straight": {
        "centerline.csv":
            "558c72c44653fd3837df90ca927ec2da096dc28f138d0da9c67bb25cccce3263",
        "contours.json":
            "6879f9b1ff50187bfc2b41e11d01a7dd73489e520348c7338d21b9680dd629d6",
        "surface.nurbs.json":
            "e0588828ddbbba634403ef3917c9fe4bb652aac113ec08f314f375d68415833a",
        "mesh.obj":
            "fc1814354c7480706fb73b4ddc2b26f12d4d1e54f4dc7e93df60965d5b8a0e53",
        "mesh.stl":
            "268f5f60516d4d76b516324807d0ecdaff88435d94e213db9553f636903eb68a",
        "topology.json":
            "c4dae4c0b95683dfd02bec7854d24e621d8a1b054dcfb23dcd15853c987e8aa5",
        "volume.f32raw":
            "b6a005ec00084ee39afa1813daf11c49b28f6154b342f9918b142b4ca24bf34a",
        "gt_surface.obj":
            "74f4e8c8324d6c380be82c29f8a933852f272e5a0d1c5c74279ac728775b029e",
        "gt_centerline.csv":
            "a0b8e58f95a311674bfc1179057666ae3ed2fcf217f1686927eeb60f24264fdb",
    },
}


@pytest.mark.parametrize("case", sorted(_CANONICAL_PHANTOMS))
def test_canonical_artifact_bytes(tmp_path, case):
    pipeline.run_pipeline({**_CANONICAL_BASE, "phantom": _CANONICAL_PHANTOMS[case]}, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _CANONICAL_SHA256[case]}
    assert got == _CANONICAL_SHA256[case]


# bytes the perfbench manifest does not cover: compare_baseline's marching-cubes
# mesh and report on the canonical straight tube, and the merged OBJ of the
# branched merge case in test_meshkit.py
_COMPARE_SHA256 = {
    "gt_surface.obj": "74f4e8c8324d6c380be82c29f8a933852f272e5a0d1c5c74279ac728775b029e",
    "mc_mesh.obj": "954e405d6ead813c13188cd014e0e392fcc2d6f6e9cbefb7c453a790c70b75a3",
    "compare.json": "df0914f59b607f4530721f6173c1a5ca57297b93cb31cca98d1a3b630e4ef871",
}
_MERGED_OBJ_SHA256 = "38f276675f74669c8160d6d709d32881e9bf6401774e2a81d64228a3d334039d"


def test_compare_baseline_bytes(tmp_path):
    pipeline.compare_baseline(
        {**_CANONICAL_BASE, "phantom": _CANONICAL_PHANTOMS["straight"]}, tmp_path
    )
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _COMPARE_SHA256}
    assert got == _COMPARE_SHA256


def test_merged_obj_bytes(tmp_path):
    from vesselmesh import phantom

    spec = phantom.PhantomSpec(
        shape="branched", length_mm=30.0, base_radius_mm=5.0,
        branch_radius_mm=2.5, branch_length_mm=14.0, branch_angle_deg=90.0,
        dims=(56, 56, 56), spacing_mm=(1.0, 1.0, 1.0),
    )
    main = phantom.analytic_surface(spec, 48, 48, caps=True, branch="main")
    branch = phantom.analytic_surface(spec, 24, 24, caps=False, branch="side")
    merged, _ = meshkit.merge_branches(main, branch)
    meshkit.write_obj(merged, tmp_path / "merged.obj")
    assert hashlib.sha256((tmp_path / "merged.obj").read_bytes()).hexdigest() == _MERGED_OBJ_SHA256

def test_csv_centerline_source(tmp_path):
    base = tmp_path / "base"
    pipeline.run_pipeline(_tiny_config(), base)
    cfg = _tiny_config(centerline={"source": "csv", "k": 16,
                                   "path": str(base / "gt_centerline.csv")})
    out = tmp_path / "csv_out"
    summary = pipeline.run_pipeline(cfg, out)
    assert summary["topology"]["watertight"]


def test_even_degree_with_even_contour_count_fails_in_fit(tmp_path):
    cfg = _tiny_config(surface={"tess_u": 32, "tess_v": 32, "caps": True, "degree_v": 4})
    with pytest.raises(StageError) as err:
        pipeline.run_pipeline(cfg, tmp_path)
    assert err.value.stage == "fit"
    assert "even degree needs an odd point count" in str(err.value)


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


# sha256 of the train and sample artifacts of the roundtrip configs below:
# the checkpoint payload, its header, the loss curve and the sampled
# centerline; the perfbench manifest reports moved checkpoint bytes but never
# fails
_CDM_SHA256 = {
    "train/model.f32": "e1b50c52150ea8f60060df5db31e196fcce4430b1d0ab665c6dc9d70b620faec",
    "train/model.json": "e8c0962d8a636f29fd28166d993bc091d64d0491486b146c674b3637d2e78ef1",
    "train/loss_curve.csv": "52bed8c5e5350b09429bb7d668b7610c77d8267a333e0fce504bcc9e95dc9e7a",
    "sample/sampled_centerline.csv":
        "2d2832b19b709e79f64fdecf02295e6e9b996f6ebcb848ec96c228965f9c0632",
}


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
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in _CDM_SHA256}
    assert got == _CDM_SHA256


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


# ---------------------------------------------------------------------------
# config schema

_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_config_table() -> dict:
    """{dotted key: default} from the README's "Config keys" table."""
    text = _README.read_text().split("### Config keys", 1)[1]
    rows = re.findall(r"^\| `([\w.]+)` \| `([^`]+)` \|", text, flags=re.MULTILINE)
    return {key: json.loads(default) for key, default in rows}


def _dotted(config: dict, where: str = "") -> dict:
    flat = {}
    for key, value in config.items():
        if isinstance(value, dict):
            flat.update(_dotted(value, f"{where}{key}."))
        else:
            flat[where + key] = list(value) if isinstance(value, tuple) else value
    return flat


def test_readme_table_lists_every_config_key():
    assert list(_readme_config_table()) == list(_dotted(pipeline._DEFAULTS))


def test_resolve_empty_config_gives_documented_defaults():
    resolved = pipeline.resolve_config({})
    assert _dotted(resolved) == _readme_config_table()
    assert pipeline.resolve_config(resolved) == resolved


def test_readme_example_config_resolves():
    readme = _README.read_text()
    example = readme.split("Example pipeline config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    resolved = pipeline.resolve_config(json.loads(example))
    assert resolved["phantom"].shape == "arc"
    assert resolved["surface"]["tess_u"] == 64


@pytest.mark.parametrize("override, key", [
    ({"surface": {"tess_U": 8}}, "surface.tess_U"),
    ({"contour": {"points": 32}}, "contour"),
    ({"surface": {"tess_u": "abc"}}, "surface.tess_u"),
    ({"surface": [64, 64]}, "surface"),
    ({"phantom": {"shape": "straight", "base_radius": 5.0}}, "base_radius"),
    ({"family": {"dims": [32, 32.5, 32]}}, "family.dims"),
    ({"centerline": {"source": "csv", "k": 16}}, "centerline.path"),
    ({"centerline": {"source": "cdm", "k": 16}}, "centerline.checkpoint"),
    ({"centerline": {"source": "spline", "k": 16}}, "centerline.source"),
    ({"slice": {"n_pix": 15}}, "slice.n_pix"),
    ({"slice": {"half_extent_mm": -1.0}}, "slice.half_extent_mm"),
    ({"surface": {"tess_u": 8}}, "surface.tess_u"),
    ({"surface": {"tess_v": 12}}, "surface.tess_v"),
    ({"contours": {"points": 4}}, "contours.points"),
])
def test_bad_config_fails_before_any_file(tmp_path, override, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        pipeline.run_pipeline(_tiny_config(**override), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_volume_source_is_required_before_any_file(tmp_path):
    config = {"centerline": {"k": 16}}
    for run in (pipeline.stage_volume, pipeline.run_pipeline):
        with pytest.raises(ValueError, match="config needs a phantom section or volume.path"):
            run(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_limits_pass_at_their_bounds():
    resolved = pipeline.resolve_config({
        "centerline": {"k": 4},
        "slice": {"n_pix": 16, "half_extent_mm": 1},
        "contours": {"points": 8},
        "surface": {"degree_v": 1, "tess_u": 16, "tess_v": 16},
    })
    assert resolved["slice"] == {"half_extent_mm": 1, "n_pix": 16}
    assert resolved["contours"]["points"] == 8
    assert resolved["centerline"]["k"] == 4 and resolved["surface"]["degree_v"] == 1


@pytest.mark.parametrize("config, key", [
    ({"phantom": _tiny_config()["phantom"]}, "checkpoint"),
    ({"checkpoint": "model"}, "volume.path"),
])
def test_sample_without_its_inputs_fails_before_any_file(tmp_path, config, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        pipeline.sample_cdm(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_mask_of_wrong_shape_is_a_segment_error(tmp_path):
    cfg = _tiny_config()
    pipeline.stage_volume(cfg, tmp_path)
    pipeline.stage_centerline(cfg, tmp_path)
    masks = tmp_path / "masks"
    masks.mkdir()
    for i, n in enumerate((64, 48)):  # slice.n_pix is 64: station 1 is wrong
        rows = ["P2", f"{n} {n}", "255"] + [" ".join(["255"] * n)] * n
        (masks / f"station_{i:03d}.pgm").write_text("\n".join(rows) + "\n")
    cfg["contours"] = {"points": 32, "masks_dir": str(masks)}
    with pytest.raises(StageError) as err:
        pipeline.stage_segment(cfg, tmp_path)
    assert err.value.stage == "segment"
    assert str(err.value) == ("mask station_001.pgm shape (48, 48) does not match "
                              "slice resolution (64, 64)")
    assert not (tmp_path / "contours_raw.json").exists()


def test_numbers_widen_to_float_and_tuples_take_lists():
    resolved = pipeline.resolve_config({
        "seed": np.int64(3), "learning_rate": 1,
        "family": {"dims": [32, 32, 32], "spacing_mm": [1, 1.5, 2]},
    })
    assert type(resolved["seed"]) is int and resolved["seed"] == 3
    learning_rate = resolved["learning_rate"]
    assert type(learning_rate) is float and learning_rate == 1.0
    assert resolved["family"]["dims"] == (32, 32, 32)
    assert resolved["family"]["spacing_mm"] == (1.0, 1.5, 2.0)
    assert all(type(v) is float for v in resolved["family"]["spacing_mm"])


def test_unknown_family_key_fails_before_training(tmp_path):
    with pytest.raises(ValueError, match="family.radius_mm"):
        pipeline.train_cdm({"family": {"radius_mm": 5.0}}, tmp_path / "train")
    with pytest.raises(ValueError, match="family.radius_mm"):
        pipeline.phantom_family({"radius_mm": 5.0})
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_raw_volume_outside_unit_range_fails(tmp_path, bad):
    data = np.zeros((8, 8, 8), dtype=np.float32)
    data[4, 4, 4] = bad
    store_raw(Volume(data, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), tmp_path / "in.f32raw")
    cfg = {"volume": {"path": str(tmp_path / "in.f32raw")}}
    with pytest.raises(StageError, match=r"\[0, 1\], got min .* max ") as err:
        pipeline.stage_volume(cfg, tmp_path / "out")
    assert err.value.stage == "volume"
    assert f"got min {float(data.min())} max {float(data.max())}" in str(err.value)
    assert not (tmp_path / "out" / "volume.f32raw").exists()


@pytest.mark.parametrize("shape, amplitude, extent", [
    ("straight", 0.3, 4.0 * 5.0),  # no bump in the volume, none in the extent
    ("aneurysm", 0.0, 4.0 * 5.0 * 1.4),  # the aneurysm's default bump
    ("coarctation", 0.0, 4.0 * 5.0),
])
def test_slice_extent_follows_the_volume_bump(tmp_path, shape, amplitude, extent):
    cfg = _tiny_config()
    cfg["phantom"] = {**cfg["phantom"], "shape": shape, "bump_amplitude": amplitude}
    pipeline.stage_volume(cfg, tmp_path)
    pipeline.stage_centerline(cfg, tmp_path)
    assert pipeline._slice_geometry(cfg, tmp_path)[3] == extent
