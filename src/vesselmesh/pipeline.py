"""End-to-end orchestration: volume -> centerline -> contours -> surface -> mesh.

Every stage reads its inputs from files and writes its outputs to files, so
running the stages separately through the CLI produces byte-identical
artifacts to a single ``run_pipeline`` call.  All randomness flows through
seeds in the config.
"""

from __future__ import annotations

import json
import numbers
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import cdm, centerline as cl, contours as contour_align, lumenseg, metrics, nurbs, phantom, slicer
from .meshkit import marching_cubes, read_obj, signed_volume, validate, write_obj, write_stl
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
# `_cast`); keys whose default is None pass through (as floats, for those in
# `_OPTIONAL_FLOATS`), and a given `phantom` section is resolved against
# PhantomSpec's field defaults into a PhantomSpec.
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
}
_PHANTOM = {name: f.default for name, f in phantom.PhantomSpec.__dataclass_fields__.items()}


# the key each centerline source reads its input from (the analytic source
# reads the phantom)
_CENTERLINE_INPUT = {"analytic": None, "csv": "path", "cdm": "checkpoint"}

# the keys that default to None and take a number when given, resolved as floats
_OPTIONAL_FLOATS = ("slice.half_extent_mm", "phantom.wall_softness_mm")

# the limits that a stage checks too (dotted key -> test, what it needs):
# resolving checks them first, so a bad value fails before any file is written
_LIMITS = {
    "centerline.k": (lambda v: v >= 4, "at least 4"),
    "slice.n_pix": (lambda v: v >= 16, "at least 16"),
    "slice.half_extent_mm": (lambda v: v is None or v > 0, "positive"),
    "contours.points": (lambda v: v >= 8, "at least 8"),
    "contours.threshold": (lambda v: 0 < v < 1, "strictly between 0 and 1"),
    "surface.degree_v": (lambda v: v >= 1, "at least 1"),
    "surface.tess_u": (lambda v: v >= 16, "at least 16"),
    "surface.tess_v": (lambda v: v >= 16, "at least 16"),
    "baseline.iso": (lambda v: 0 < v < 1, "strictly between 0 and 1"),  # volumes hold [0, 1]
    "k": (lambda v: v >= 4, "at least 4"),
    "timesteps": (lambda v: v >= 21, "at least 21"),  # desk_default's beta_end 20/timesteps < 1
    "learning_rate": (lambda v: v > 0, "positive"),
    "batch_size": (lambda v: v >= 1, "at least 1"),
    "iterations": (lambda v: v >= 1, "at least 1"),
    "family.count": (lambda v: v >= 1, "at least 1"),
    "family.radius_range_mm": (lambda v: min(v) > 0, "positive"),
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


def _phantom_spec(where: str, **fields) -> phantom.PhantomSpec:
    """PhantomSpec(**fields); its ValueError, which starts with the field's
    name, is raised again naming the config key, `where` + field."""
    try:
        return phantom.PhantomSpec(**fields)
    except ValueError as exc:
        raise ValueError(f"config key {where}{exc}") from exc


def _resolve_phantom(section) -> phantom.PhantomSpec:
    """The PhantomSpec of a phantom section (or of phantom_spec.json), each
    field read as a config key, whose tubes must fit in its volume."""
    spec = _phantom_spec("phantom.", **resolve_config(section, _PHANTOM, "phantom."))
    try:
        phantom.check_in_volume(spec)
    except ValueError as exc:
        raise ValueError(f"config key phantom: {exc}") from exc
    return spec


def resolve_config(config, defaults=_DEFAULTS, where: str = "") -> dict:
    """The config with every default filled in and every value cast.

    Raises ValueError naming the dotted path of the first non-object
    section, unknown key, value of the wrong type or value outside its
    ``_LIMITS``, the centerline key that the chosen ``centerline.source``
    needs and the config leaves out, the pair ``surface.degree_v`` and
    ``contours.points`` when no closed curve of that degree interpolates
    that many points, or the ``phantom`` or ``family`` field that makes an
    impossible PhantomSpec (the family's at the largest radius of its range),
    a phantom whose tubes leave its volume, or a family whose widest tube at
    an extreme offset leaves the volume.
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
        if key == "phantom" and not isinstance(value, (phantom.PhantomSpec, type(None))):
            value = _resolve_phantom(value)
        try:
            if default is None and value is not None and where + key in _OPTIONAL_FLOATS:
                default = 1.0
            resolved[key] = value if default is None else _cast(value, default)
            test, need = _LIMITS.get(where + key, (None, None))
            if test is not None and not test(resolved[key]):
                raise ValueError(f"must be {need}, got {value!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {where}{key}: {exc}") from exc
    if defaults is _DEFAULTS["family"]:  # the family's geometry, at its widest tube
        radius, offset = max(resolved["radius_range_mm"]), resolved["offset_range_mm"]
        spec = _phantom_spec(where, shape=resolved["shape"], length_mm=resolved["length_mm"],
                             base_radius_mm=radius, dims=resolved["dims"], spacing_mm=resolved["spacing_mm"],
                             wall_softness_mm=resolved["wall_softness_mm"])
        try:  # the four corner offsets bound every draw's placement
            phantom.check_in_volume(spec, [(dx, dy) for dx in (-offset, offset) for dy in (-offset, offset)])
        except ValueError as exc:
            raise ValueError(f"config keys {where}radius_range_mm and {where}offset_range_mm: at radius "
                             f"{radius!r} mm and offsets of ±{offset!r} mm, {exc}") from exc
    if defaults is _DEFAULTS:
        source = resolved["centerline"]["source"]
        if source not in _CENTERLINE_INPUT:
            raise ValueError(f"config key centerline.source: unknown source {source!r}, "
                             f"expected one of {sorted(_CENTERLINE_INPUT)}")
        key = _CENTERLINE_INPUT[source]
        if key is not None and resolved["centerline"][key] is None:
            raise ValueError(f"config key centerline.{key} is required by source {source!r}")
        degree, points = resolved["surface"]["degree_v"], resolved["contours"]["points"]
        if degree >= points or degree % 2 == 0 and points % 2 == 0:
            raise ValueError(f"config keys surface.degree_v and contours.points: a closed curve of "
                             f"degree {degree} needs at least {degree + 1} points, an odd count if "
                             f"the degree is even; got {points}")
    return resolved


def load_config(path) -> dict:
    try:
        cfg = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(cfg)


# ---------------------------------------------------------------------------
# stages


def _input_volume(config: dict, stage: str):
    """The config's input volume: its phantom rasterized, or the raw volume at
    volume.path, which must hold finite values in [0, 1].  A config with
    neither raises ValueError; a failure to load raises StageError(stage)."""
    spec, path = config["phantom"], config["volume"]["path"]
    if spec is None and path is None:
        raise ValueError("config needs a phantom section or volume.path")
    with _stage(stage):
        if spec is not None:
            return phantom.rasterize(spec)
        src = Path(path)
        if not src.exists():
            raise FileNotFoundError(f"volume payload {src} not found")
        vol = load_raw(src)
        lo, hi = float(vol.data.min()), float(vol.data.max())
        if not (0.0 <= lo and hi <= 1.0):  # false for NaN too
            raise ValueError(f"raw volume must hold finite values in [0, 1], got min {lo} max {hi}")
        return vol


def _sample_centerline(vol, checkpoint, seed: int) -> np.ndarray:
    """One centerline drawn from the checkpoint at stem `checkpoint`, conditioned on vol."""
    den, sched = cdm.load_checkpoint(checkpoint)
    rng = np.random.default_rng(seed)
    return cdm.sample(vol, cdm.VolumeFeatureEncoder(vol), den, sched, rng)


def stage_volume(config: dict, out: Path) -> Path:
    """Materialize the input volume (rasterize a phantom or load raw files)."""
    config = resolve_config(config)
    vol = _input_volume(config, "volume")
    out.mkdir(parents=True, exist_ok=True)
    vol_path = out / "volume.f32raw"
    with _stage("volume"):
        store_raw(vol, vol_path)
        spec = config["phantom"]
        if spec is not None:
            (out / "phantom_spec.json").write_text(spec.to_json() + "\n")
            surf = config["surface"]
            gt = phantom.analytic_surface(spec, nu=surf["tess_u"], nv=surf["tess_v"], caps=surf["caps"])
            write_obj(gt, out / "gt_surface.obj")
            _write_gt_centerline(config, out)
    return vol_path


# the files of stage_volume that do not depend on centerline.k (gt_centerline.csv does)
_VOLUME_FILES = ("volume.f32raw", "volume.f32raw.json", "phantom_spec.json", "gt_surface.obj")


def _write_gt_centerline(config: dict, out: Path) -> None:
    """The phantom's analytic centerline at centerline.k points, as gt_centerline.csv."""
    cl.write_csv(phantom.analytic_centerline(config["phantom"], config["centerline"]["k"]),
                 out / "gt_centerline.csv")


def stage_centerline(config: dict, out: Path) -> Path:
    """Produce the (smoothed, k-station) centerline CSV used for slicing."""
    config = resolve_config(config)
    ccfg = config["centerline"]
    source, k = ccfg["source"], ccfg["k"]
    path = out / "centerline.csv"
    with _stage("centerline"):
        if source == "analytic":
            raw = phantom.analytic_centerline(_resolve_phantom(_read_json(out / "phantom_spec.json")), k)
        elif source == "csv":
            raw = cl.read_csv(ccfg["path"])
        else:  # "cdm", the one source left after resolve_config
            raw = _sample_centerline(load_raw(out / "volume.f32raw"), ccfg["checkpoint"], config["seed"])
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
        if not (out / "phantom_spec.json").exists():
            raise ValueError("slice.half_extent_mm is required for non-phantom volumes")
        half_extent = 4.0 * phantom.peak_radius(_resolve_phantom(_read_json(out / "phantom_spec.json")))
    return vol, anchors, cl.frames(anchors), half_extent, config["slice"]["n_pix"]


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
    """Tessellate the surface, write the mesh and its topology report, and
    gate it: the stage fails on any self-intersection, on a capped mesh that
    is not watertight or whose normals point inward (signed volume <= 0),
    and on an open mesh that is not a manifold tube with two boundary loops."""
    surf = resolve_config(config)["surface"]
    with _stage("mesh"):
        surface = nurbs.read_surface_json(out / "surface.nurbs.json")
        mesh = nurbs.tessellate(surface, nu=surf["tess_u"], nv=surf["tess_v"], caps=surf["caps"]).clean()
        write_obj(mesh, out / "mesh.obj")
        write_stl(mesh, out / "mesh.stl")
        report = validate(mesh)
        _write_json(out / "topology.json", report.to_dict())
        if report.self_intersection_count > 0:
            raise ValueError(f"mesh has {report.self_intersection_count} self-intersections")
        loops, bad_edges = report.boundary_loop_count, report.non_manifold_edge_count
        if surf["caps"]:
            if not report.watertight:
                raise ValueError(f"capped mesh is not watertight: {loops} boundary loops, "
                                 f"{bad_edges} non-manifold edges")
            volume = signed_volume(mesh)
            if volume <= 0:
                raise ValueError(f"capped mesh has signed volume {volume!r} mm^3: its normals point inward")
        elif not (report.manifold and loops == 2):
            raise ValueError(f"open mesh must be a manifold tube with 2 boundary loops: {loops} boundary "
                             f"loops, {bad_edges} non-manifold edges")
    return out / "mesh.obj"


def _reference_mesh(config: dict, out: Path):
    """(path, label) of the mesh that metrics score against: ground_truth.surface_obj
    when set, else the phantom's gt_surface.obj; None when there is neither."""
    given = config["ground_truth"]["surface_obj"]
    path = Path(given) if given else out / "gt_surface.obj"
    if not given and not path.exists():
        return None
    return path, path.name if path.parent == out else str(path)


def stage_metrics(config: dict, out: Path) -> Path | None:
    config = resolve_config(config)
    reference = _reference_mesh(config, out)
    if reference is None:
        return None
    gt_path, label = reference
    with _stage("metrics"):
        mesh = read_obj(out / "mesh.obj")
        report = metrics.mesh_metric_report(
            mesh, read_obj(gt_path), seed=config["seed"], inputs={"mesh": "mesh.obj", "reference": label}
        )
        _write_json(out / "metrics.json", report)
    return out / "metrics.json"


def run_pipeline(config: dict, out) -> dict:
    """Run all stages in order; returns the topology report, and the metric
    report when there is a reference mesh."""
    config = resolve_config(config)
    out = Path(out)
    stage_volume(config, out)
    return _run_after_volume(config, out)


def _run_after_volume(config: dict, out: Path) -> dict:
    """run_pipeline's stages after `volume`, on the volume artifacts in out."""
    stage_centerline(config, out)
    stage_segment(config, out)
    stage_align(config, out)
    stage_fit(config, out)
    stage_mesh(config, out)
    metrics_path = stage_metrics(config, out)
    summary = {"topology": _read_json(out / "topology.json")}
    if metrics_path:
        summary["metrics"] = _read_json(metrics_path)
    return summary


# ---------------------------------------------------------------------------
# parameter study and baseline comparison


def param_study(config: dict, out, k_list=(8, 12, 16, 20, 25)) -> Path:
    """Run the pipeline per centerline point count; CSV of CD/HD/EMD per k.

    Folder k_XX holds the files of run_pipeline with that k.  The volume
    stage runs once, for the first k; the other folders get copies of its
    files that do not depend on k, and their own gt_centerline.csv.
    """
    config = resolve_config(config)
    subs = [resolve_config({**config, "centerline": {**config["centerline"], "k": k}}) for k in k_list]
    if not subs:
        raise ValueError("parameter study needs at least one k")
    repeated = sorted({k for k in k_list if list(k_list).count(k) > 1})
    if repeated:
        raise ValueError(f"parameter study repeats k {', '.join(map(str, repeated))}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    first = out / f"k_{subs[0]['centerline']['k']:02d}"
    stage_volume(subs[0], first)
    rows = []
    for sub in subs:
        k = sub["centerline"]["k"]
        run_dir = out / f"k_{k:02d}"
        if run_dir != first:
            run_dir.mkdir(exist_ok=True)
            with _stage("volume"):
                for name in _VOLUME_FILES:
                    if (first / name).exists():
                        shutil.copyfile(first / name, run_dir / name)
                if sub["phantom"] is not None:
                    _write_gt_centerline(sub, run_dir)
        m = _run_after_volume(sub, run_dir).get("metrics")
        if m is None:
            raise StageError("metrics", "parameter study requires a ground-truth surface")
        rows.append((k, m["cd_mm"], m["hd_mm"], m["emd_mm"]))
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
        mc = marching_cubes(vol, config["baseline"]["iso"])
        write_obj(mc, out / "mc_mesh.obj")
        mc_report = validate(mc)
        gt_path, label = _reference_mesh(config, out)
        mc_metrics = metrics.mesh_metric_report(
            mc, read_obj(gt_path), seed=config["seed"], inputs={"mesh": "mc_mesh.obj", "reference": label}
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
    checkpoint = config["centerline"]["checkpoint"]
    if checkpoint is None:
        raise ValueError("config key centerline.checkpoint is required to sample")
    vol = _input_volume(config, "cdm-sample")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("cdm-sample"):
        cl.write_csv(_sample_centerline(vol, checkpoint, config["seed"]), out / "sampled_centerline.csv")
    return out / "sampled_centerline.csv"
