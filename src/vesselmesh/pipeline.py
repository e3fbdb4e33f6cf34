"""End-to-end orchestration: volume -> centerline -> contours -> surface -> mesh.

Every stage reads its inputs from files and writes its outputs to files, so
running the stages separately through the CLI produces byte-identical
artifacts to a single ``run_pipeline`` call.  All randomness flows through
seeds in the config.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import cdm, centerline as cl, contours as contour_align, lumenseg, metrics, nurbs, phantom, slicer
from .meshkit import marching_cubes, read_obj, validate, write_obj, write_stl
from .volume import load_raw, store_raw


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Raise any failure inside the block as StageError(name); StageErrors pass through."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path):
    return json.loads(Path(path).read_text())


# Every config key and its default, for every command: section -> key ->
# default.  `resolve_config` takes a value only of its default's type (see
# `_cast`); keys whose default is None pass through, and `phantom` is parsed
# into a PhantomSpec.
_DEFAULTS = {
    "seed": cdm.TrainConfig.seed,
    "out": None,
    "phantom": None,
    "volume": {"path": None},
    "centerline": {"source": "analytic", "k": 16, "smooth": True, "path": None, "checkpoint": None},
    "slice": {"half_extent_mm": None, "n_pix": 64},
    "contours": {"points": 32, "threshold": 0.5, "masks_dir": None},
    "surface": {"degree_v": 3, "tess_u": 64, "tess_v": 64, "caps": True},
    "ground_truth": {"surface_obj": None},
    "baseline": {"iso": 0.5},
    # cdm train, then cdm sample
    "k": 16,
    "timesteps": 200,
    "learning_rate": cdm.TrainConfig.learning_rate,
    "batch_size": cdm.TrainConfig.batch_size,
    "iterations": cdm.TrainConfig.iterations,
    "family": {"shape": "straight", "count": 128, "seed": 0, "radius_range_mm": (5.0, 7.0),
               "offset_range_mm": 3.5, "dims": (48, 48, 48), "spacing_mm": (1.2, 1.2, 1.2),
               "length_mm": 30.0, "wall_softness_mm": 3.0},
    "checkpoint": None,
}


# the key each centerline source reads its input from (the analytic source
# reads the phantom)
_CENTERLINE_INPUT = {"analytic": None, "csv": "path", "cdm": "checkpoint"}

# the limits that a stage checks too (dotted key -> test, what it needs):
# resolving checks them first, so a bad value fails before any file is written
_LIMITS = {
    "centerline.k": (lambda v: v >= 4, "at least 4"),
    "slice.n_pix": (lambda v: v >= 16, "at least 16"),
    "slice.half_extent_mm": (lambda v: v is None or _cast(v, 1.0) > 0, "positive"),
    "contours.points": (lambda v: v >= 8, "at least 8"),
    "contours.threshold": (lambda v: 0 < v < 1, "strictly between 0 and 1"),
    "surface.degree_v": (lambda v: v >= 1, "at least 1"),
    "surface.tess_u": (lambda v: v >= 16, "at least 16"),
    "surface.tess_v": (lambda v: v >= 16, "at least 16"),
}


def _cast(value, default):
    """value as its default's type, which must accept it (a bool is no number
    here); a tuple default takes a list of its length (or the tuple that
    resolving gave), element by element.  Raises TypeError otherwise."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise TypeError(f"expected a list of {len(default)} values, got {value!r}")
        return tuple(_cast(v, d) for v, d in zip(value, default))
    accepts = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}[type(default)]
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, accepts):
        raise TypeError(f"expected {type(default).__name__}, got {value!r}")
    return type(default)(value)


def resolve_config(config, defaults=_DEFAULTS, where: str = "") -> dict:
    """The config with every default filled in and every value cast.

    Raises ValueError naming the dotted path of the first non-object
    section, unknown key, value of the wrong type or value outside its
    ``_LIMITS``, or the centerline key that the chosen
    ``centerline.source`` needs and the config leaves out.
    """
    if not isinstance(config, dict):
        raise ValueError(f"config {where.rstrip('.') or 'root'} must be a JSON object")
    for key in config:
        if key not in defaults:
            raise ValueError(f"unknown config key {where}{key}")
    resolved = {}
    for key, default in defaults.items():
        value = config[key] if key in config else default
        if isinstance(default, dict):
            resolved[key] = resolve_config(value, default, f"{where}{key}.")
            continue
        try:
            if key == "phantom" and not isinstance(value, (phantom.PhantomSpec, type(None))):
                value = phantom.PhantomSpec.from_dict(value)
            resolved[key] = value if default is None else _cast(value, default)
            test, need = _LIMITS.get(where + key, (None, None))
            if test is not None and not test(resolved[key]):
                raise ValueError(f"must be {need}, got {value!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {where}{key}: {exc}") from exc
    if defaults is _DEFAULTS:
        source = resolved["centerline"]["source"]
        if source not in _CENTERLINE_INPUT:
            raise ValueError(f"config key centerline.source: unknown source {source!r}, "
                             f"expected one of {sorted(_CENTERLINE_INPUT)}")
        key = _CENTERLINE_INPUT[source]
        if key is not None and resolved["centerline"][key] is None:
            raise ValueError(f"config key centerline.{key} is required by source {source!r}")
    return resolved


def load_config(path) -> dict:
    try:
        cfg = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(cfg)


# ---------------------------------------------------------------------------
# stages


def stage_volume(config: dict, out: Path) -> Path:
    """Materialize the input volume (rasterize a phantom or load raw files)."""
    config = resolve_config(config)
    if config["phantom"] is None and config["volume"]["path"] is None:
        raise ValueError("config needs a phantom section or volume.path")
    out.mkdir(parents=True, exist_ok=True)
    vol_path = out / "volume.f32raw"
    with _stage("volume"):
        spec = config["phantom"]
        if spec is not None:
            (out / "phantom_spec.json").write_text(spec.to_json() + "\n")
            vol = phantom.rasterize(spec)
            store_raw(vol, vol_path)
            surf = config["surface"]
            gt = phantom.analytic_surface(spec, nu=surf["tess_u"], nv=surf["tess_v"], caps=surf["caps"])
            write_obj(gt, out / "gt_surface.obj")
            k = config["centerline"]["k"]
            cl.write_csv(phantom.analytic_centerline(spec, k), out / "gt_centerline.csv")
        else:
            src = Path(config["volume"]["path"])
            if not src.exists():
                raise FileNotFoundError(f"volume payload {src} not found")
            vol = load_raw(src)
            lo, hi = float(vol.data.min()), float(vol.data.max())
            if not (0.0 <= lo and hi <= 1.0):  # false for NaN too
                raise ValueError(f"raw volume must hold finite values in [0, 1], got min {lo} max {hi}")
            store_raw(vol, vol_path)
    return vol_path


def stage_centerline(config: dict, out: Path) -> Path:
    """Produce the (smoothed, k-station) centerline CSV used for slicing."""
    config = resolve_config(config)
    ccfg = config["centerline"]
    source, k = ccfg["source"], ccfg["k"]
    path = out / "centerline.csv"
    with _stage("centerline"):
        if source == "analytic":
            spec = phantom.load_spec(out / "phantom_spec.json")
            raw = phantom.analytic_centerline(spec, k)
        elif source == "csv":
            raw = cl.read_csv(ccfg["path"])
        else:  # "cdm", the one source left after resolve_config
            vol = load_raw(out / "volume.f32raw")
            den, sched = cdm.load_checkpoint(ccfg["checkpoint"])
            rng = np.random.default_rng(config["seed"])
            encoder = cdm.VolumeFeatureEncoder(vol)
            raw = cdm.sample(vol, encoder, den, sched, rng)
        smoothed = cl.smooth_resample(raw, k) if ccfg["smooth"] else raw
        cl.write_csv(smoothed, path)
    return path


def _slice_geometry(config: dict, out: Path):
    """(volume, anchors, rotations, half_extent, n_pix) of the station planes:
    the (K, 3) centerline points and their (K, 3, 3) frames."""
    config = resolve_config(config)
    vol = load_raw(out / "volume.f32raw")
    anchors = cl.read_csv(out / "centerline.csv")
    half_extent = config["slice"]["half_extent_mm"]
    if half_extent is None:
        if config["phantom"] is not None:
            spec = phantom.load_spec(out / "phantom_spec.json")
            half_extent = 4.0 * phantom.peak_radius(spec)
        else:
            raise ValueError("slice.half_extent_mm is required for non-phantom volumes")
    return vol, anchors, cl.frames(anchors), float(half_extent), config["slice"]["n_pix"]


def stage_slices(config: dict, out: Path) -> Path:
    """Optional inspection dump: one PGM per station."""
    with _stage("slice"):
        vol, anchors, rs, half_extent, n_pix = _slice_geometry(config, out)
        slice_dir = out / "slices"
        slice_dir.mkdir(exist_ok=True)
        for i, (anchor, r) in enumerate(zip(anchors, rs)):
            pixels = slicer.extract_slice(vol, anchor, r, half_extent, n_pix)
            slicer.write_pgm(pixels, slice_dir / f"station_{i:03d}.pgm")
    return out / "slices"


def stage_segment(config: dict, out: Path) -> Path:
    """Slice, segment, trace and resample every station, then lift all to 3D."""
    config = resolve_config(config)
    ccfg = config["contours"]
    m, threshold, masks_dir = ccfg["points"], ccfg["threshold"], ccfg["masks_dir"]
    path = out / "contours_raw.json"
    with _stage("segment"):
        vol, anchors, rs, half_extent, n_pix = _slice_geometry(config, out)
        center = (n_pix - 1) // 2
        ds = slicer.pixel_spacing(half_extent, n_pix)
        contours = []
        for i, (anchor, r) in enumerate(zip(anchors, rs)):
            pixels = slicer.extract_slice(vol, anchor, r, half_extent, n_pix)
            if masks_dir:
                mask = slicer.read_pgm_mask(Path(masks_dir) / f"station_{i:03d}.pgm")
                if mask.shape != pixels.shape:
                    raise ValueError(
                        f"mask station_{i:03d}.pgm shape {mask.shape} does not "
                        f"match slice resolution {pixels.shape}"
                    )
            else:
                mask, _ = lumenseg.segment_slice(pixels, (center, center), threshold)
            contours.append(lumenseg.resample_contour(lumenseg.trace_boundary(mask, ds), m))
        lifted = slicer.lift(np.array(contours), anchors, rs)
        stations = [
            {"station_index": i, "anchor": g.tolist(),
             "frame": {"t": r[:, 2].tolist(), "n": r[:, 1].tolist(), "b": r[:, 0].tolist()},
             "points": pts.tolist()}
            for i, (g, r, pts) in enumerate(zip(anchors, rs, lifted))
        ]
        _write_json(path, {"stations": stations})
    return path


def _stations(doc: dict) -> np.ndarray:
    """The (K, M, 3) world-space contour stack of a parsed contour-set document."""
    return np.array([st["points"] for st in doc["stations"]], dtype=np.float64)


def stage_align(config: dict, out: Path) -> Path:
    resolve_config(config)
    path = out / "contours.json"
    with _stage("contours"):
        doc = _read_json(out / "contours_raw.json")
        aligned = contour_align.align_chain(_stations(doc))
        for st, points in zip(doc["stations"], aligned):
            st["points"] = points.tolist()
        _write_json(path, doc)
    return path


def stage_fit(config: dict, out: Path) -> Path:
    surf = resolve_config(config)["surface"]
    path = out / "surface.nurbs.json"
    with _stage("fit"):
        aligned = _stations(_read_json(out / "contours.json"))
        surface = nurbs.skin_surface(aligned, degree_v=surf["degree_v"])
        nurbs.write_surface_json(surface, path)
    return path


def stage_mesh(config: dict, out: Path) -> Path:
    surf = resolve_config(config)["surface"]
    with _stage("mesh"):
        surface = nurbs.read_surface_json(out / "surface.nurbs.json")
        mesh = nurbs.tessellate(surface, nu=surf["tess_u"], nv=surf["tess_v"], caps=surf["caps"]).clean()
        write_obj(mesh, out / "mesh.obj")
        write_stl(mesh, out / "mesh.stl")
        report = validate(mesh)
        _write_json(out / "topology.json", report.to_dict())
    return out / "mesh.obj"


def stage_metrics(config: dict, out: Path) -> Path | None:
    config = resolve_config(config)
    gt_path = None
    if config["ground_truth"]["surface_obj"]:
        gt_path = Path(config["ground_truth"]["surface_obj"])
    elif (out / "gt_surface.obj").exists():
        gt_path = out / "gt_surface.obj"
    if gt_path is None:
        return None
    with _stage("metrics"):
        mesh = read_obj(out / "mesh.obj")
        gt = read_obj(gt_path)
        seed = config["seed"]
        ref_label = gt_path.name if gt_path.parent == out else str(gt_path)
        report = metrics.mesh_metric_report(
            mesh, gt, seed=seed, inputs={"mesh": "mesh.obj", "reference": ref_label}
        )
        _write_json(out / "metrics.json", report)
    return out / "metrics.json"


def run_pipeline(config: dict, out) -> dict:
    """Run all stages in order; returns a summary of artifact paths."""
    config = resolve_config(config)
    out = Path(out)
    stage_volume(config, out)
    stage_centerline(config, out)
    stage_segment(config, out)
    stage_align(config, out)
    stage_fit(config, out)
    stage_mesh(config, out)
    metrics_path = stage_metrics(config, out)
    summary = {
        "out": str(out),
        "artifacts": {
            "volume": "volume.f32raw",
            "centerline": "centerline.csv",
            "contours_raw": "contours_raw.json",
            "contours": "contours.json",
            "nurbs": "surface.nurbs.json",
            "mesh_obj": "mesh.obj",
            "mesh_stl": "mesh.stl",
            "topology": "topology.json",
        },
    }
    if metrics_path:
        summary["artifacts"]["metrics"] = "metrics.json"
        summary["metrics"] = _read_json(metrics_path)
    summary["topology"] = _read_json(out / "topology.json")
    return summary


# ---------------------------------------------------------------------------
# parameter study and baseline comparison


def param_study(config: dict, out, k_list=(8, 12, 16, 20, 25)) -> Path:
    """Run the pipeline per centerline point count; CSV of CD/HD/EMD per k."""
    config = resolve_config(config)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for k in k_list:
        sub = {**config, "centerline": {**config["centerline"], "k": int(k)}}
        sub_out = out / f"k_{int(k):02d}"
        summary = run_pipeline(sub, sub_out)
        m = summary.get("metrics")
        if m is None:
            raise StageError("metrics", "parameter study requires a ground-truth surface")
        rows.append((int(k), m["cd_mm"], m["hd_mm"], m["emd_mm"]))
    best = min(rows, key=lambda r: r[1])[0]
    lines = ["k,cd_mm,hd_mm,emd_mm,is_best"]
    for k, cd_val, hd_val, emd_val in rows:
        lines.append(f"{k},{cd_val!r},{hd_val!r},{emd_val!r},{int(k == best)}")
    csv_path = out / "study.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return csv_path


def compare_baseline(config: dict, out) -> Path:
    """NURBS pipeline vs marching cubes on the same volume, both validated."""
    config = resolve_config(config)
    out = Path(out)
    summary = run_pipeline(config, out)
    if "metrics" not in summary:
        raise StageError("metrics", "baseline comparison requires a ground-truth surface")
    with _stage("compare"):
        vol = load_raw(out / "volume.f32raw")
        mc = marching_cubes(vol, config["baseline"]["iso"]).clean()
        write_obj(mc, out / "mc_mesh.obj")
        mc_report = validate(mc)
        gt = read_obj(out / "gt_surface.obj")
        mc_metrics = metrics.mesh_metric_report(
            mc, gt, seed=config["seed"], inputs={"mesh": "mc_mesh.obj", "reference": "gt_surface.obj"}
        )
        doc = {
            "nurbs": {"metrics": summary["metrics"], "topology": summary["topology"]},
            "marching_cubes": {"metrics": mc_metrics, "topology": mc_report.to_dict()},
        }
        _write_json(out / "compare.json", doc)
    return out / "compare.json"


# ---------------------------------------------------------------------------
# desk-scale training data


def phantom_family(family_cfg: dict):
    """Deterministic family of phantom specs for diffusion training.

    Varies lumen radius and lateral axis offset over seeded uniform draws.
    """
    fam = resolve_config(family_cfg, _DEFAULTS["family"], "family.")
    radius_lo, radius_hi = fam["radius_range_mm"]
    offset = fam["offset_range_mm"]
    rng = np.random.default_rng(fam["seed"])
    specs = []
    for _ in range(fam["count"]):
        r = float(rng.uniform(radius_lo, radius_hi))
        dx, dy = rng.uniform(-offset, offset, size=2)
        specs.append(phantom.PhantomSpec(
            shape=fam["shape"], length_mm=fam["length_mm"], base_radius_mm=r, dims=fam["dims"],
            spacing_mm=fam["spacing_mm"], wall_softness_mm=fam["wall_softness_mm"],
            axis_offset_mm=(float(dx), float(dy)),
        ))
    return specs


def build_training_pairs(specs, k: int = 16):
    pairs = []
    for spec in specs:
        vol = phantom.rasterize(spec)
        pts = phantom.analytic_centerline(spec, k)
        pairs.append(cdm.TrainingPair.from_volume(vol, pts))
    return pairs


def train_cdm(config: dict, out) -> Path:
    """Train the diffusion model per config; writes checkpoint + loss CSV."""
    config = resolve_config(config)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("cdm-train"):
        sched = cdm.NoiseSchedule.desk_default(config["timesteps"])
        pairs = build_training_pairs(phantom_family(config["family"]), config["k"])
        keys = ("learning_rate", "batch_size", "iterations", "seed")
        cfg = cdm.TrainConfig(**{key: config[key] for key in keys})
        den, curve = cdm.train(pairs, cfg, sched)
        cdm.save_checkpoint(den, sched, out / "model", seed=cfg.seed)
        lines = ["iteration,loss,smoothed"]
        for it, loss, smooth in curve:
            lines.append(f"{it},{loss!r},{smooth!r}")
        (out / "loss_curve.csv").write_text("\n".join(lines) + "\n")
    return out / "model"


def sample_cdm(config: dict, out) -> Path:
    """Sample one centerline from a trained checkpoint, conditioned on a volume."""
    config = resolve_config(config)
    if config["checkpoint"] is None:
        raise ValueError("config key checkpoint is required to sample")
    if config["phantom"] is None and config["volume"]["path"] is None:
        raise ValueError("config key volume.path (or a phantom section) is required to sample")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("cdm-sample"):
        if config["phantom"] is not None:
            vol = phantom.rasterize(config["phantom"])
        else:
            vol = load_raw(Path(config["volume"]["path"]))
        den, sched = cdm.load_checkpoint(config["checkpoint"])
        rng = np.random.default_rng(config["seed"])
        pts = cdm.sample(vol, cdm.VolumeFeatureEncoder(vol), den, sched, rng)
        cl.write_csv(pts, out / "sampled_centerline.csv")
    return out / "sampled_centerline.csv"
