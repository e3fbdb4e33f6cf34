"""The three workloads.  Each is a closed loop with one client: operations
run one after another, and a run repeats whole rounds of the same
operations.  Inputs come only from the seed."""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from vesselmesh import cdm, meshkit, phantom, pipeline

from checks import (
    VOXEL_MM, Checks, centerline_distance, check_mesh_case, closed_surface, read_obj,
    read_volume, trilinear, wall_errors,
)
from tracing import cpu_seconds

GRID = {"dims": [64, 64, 64], "spacing_mm": [VOXEL_MM] * 3}
# output_error averages the outputs of these rounds only, which every run
# completes, so that it does not depend on how many rounds fit in a run
ERROR_ROUNDS = 2


def case_config(seed: int, phantom_cfg: dict, tess: int) -> dict:
    return {
        "seed": seed,
        "phantom": {**phantom_cfg, **GRID},
        "centerline": {"source": "analytic", "k": 16},
        "contours": {"points": 32},
        "surface": {"tess_u": tess, "tess_v": tess, "caps": True},
    }


def spec_of(config: dict):
    return phantom.PhantomSpec.from_json(json.dumps(config["phantom"]))


def fingerprints(directory: Path, prefix: str) -> dict:
    """{prefix/name: [size, sha256]} for every file under directory."""
    return {
        f"{prefix}/{p.relative_to(directory).as_posix()}": [
            p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest()
        ]
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


class Op(NamedTuple):
    round: int
    case: str
    kind: str
    count: int  # operations the call performs
    seconds: float  # wall time
    cpu_s: float  # CPU time of this process and its children
    ok: bool


class Ops:
    """Times each call into the program and counts attempted and failed operations."""

    def __init__(self):
        self.records: list[Op] = []
        self.errors: list[str] = []
        self.round = 0
        self.tracer = None

    def run(self, case: str, kind: str, count: int, fn, *args, **kwargs):
        """(ok, result) of fn(*args, **kwargs); an exception fails all `count` operations."""
        if self.tracer is not None:
            self.tracer.case = case
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # one failed operation must not end the run
            result, ok = None, False
            self.errors.append(f"{case}: {exc!r}")
        self.records.append(Op(self.round, case, kind, count, time.perf_counter() - start,
                               cpu_seconds() - cpu, ok))
        return ok, result

    @property
    def attempted(self) -> int:
        return sum(op.count for op in self.records)

    @property
    def failed(self) -> int:
        return sum(op.count for op in self.records if not op.ok)

    @property
    def busy_s(self) -> float:
        return sum(op.seconds for op in self.records)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.records)

    def per_minute(self, kinds) -> float:
        """Median over rounds of the completed operations per CPU minute spent in them."""
        done, spent = defaultdict(int), defaultdict(float)
        for op in self.records:
            if op.kind in kinds:
                done[op.round] += op.count if op.ok else 0
                spent[op.round] += op.cpu_s
        return statistics.median(60.0 * done[r] / spent[r] for r in spent)

    def latencies(self, kinds) -> list[float]:
        """CPU seconds of each successful call of these kinds."""
        return [op.cpu_s for op in self.records if op.kind in kinds and op.ok]


class Workload:
    """Interface: set_up() makes the inputs, run_round(r) does one round."""

    throughput_kinds: tuple[str, ...] = ()
    latency_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, ops: Ops, checks: Checks):
        self.seed = seed
        self.work = work
        self.ops = ops
        self.checks = checks
        self.output_errors: list[float] = []  # one per checked output of ERROR_ROUNDS
        self.fingerprints: dict = {}

    def add_error(self, r: int, value: float) -> None:
        if r < ERROR_ROUNDS:
            self.output_errors.append(value)

    def round_dir(self, r: int) -> Path:
        d = self.work / f"round{r:03d}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d


# --------------------------------------------------------------------------
# reconstruct: five fresh phantoms per round, volume to metrics


def draw_phantoms(seed: int, r: int) -> dict:
    """The five phantoms of round r; ranges on which every case passes its checks.

    The straight tube stays on the volume's axis: there its wall quads are
    exactly planar and the self-intersection count takes its slow coplanar
    path every time, as on the canonical straight config.  Off the axis it
    takes that path on some draws only, which made a run's speed depend on
    its seed.
    """
    rng = np.random.default_rng([seed, r])

    def offset(lim=2.0):
        return [float(v) for v in rng.uniform(-lim, lim, 2)]

    u = rng.uniform
    return {
        "straight": {"shape": "straight", "length_mm": 40.0,
                     "base_radius_mm": float(u(5.0, 6.5)), "axis_offset_mm": [0.0, 0.0]},
        "arc": {"shape": "arc", "length_mm": 39.27, "base_radius_mm": float(u(4.5, 5.5)),
                "arc_radius_mm": float(u(20.0, 30.0)), "axis_offset_mm": offset()},
        "helix": {"shape": "helix", "length_mm": 40.0, "base_radius_mm": float(u(3.5, 4.5)),
                  "helix_radius_mm": float(u(7.0, 9.0)), "helix_pitch_mm": float(u(26.0, 34.0)),
                  "axis_offset_mm": [0.0, float(u(-2.0, 2.0))]},
        "aneurysm": {"shape": "aneurysm", "length_mm": 40.0, "base_radius_mm": float(u(4.0, 4.5)),
                     "bump_amplitude": float(u(0.3, 0.45)), "axis_offset_mm": offset()},
        "coarctation": {"shape": "coarctation", "length_mm": 40.0,
                        "base_radius_mm": float(u(5.5, 6.5)),
                        "bump_amplitude": float(u(-0.35, -0.25)), "axis_offset_mm": offset()},
    }


class Reconstruct(Workload):
    """Straight, arc, helix, aneurysm and coarctation at 64^3, 0.9 mm, k=16,
    32 contour points, tessellation 64x64; no two cases share an input."""

    throughput_kinds = latency_kinds = ("case",)

    def set_up(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def run_round(self, r: int) -> None:
        root = self.round_dir(r)
        for shape, ph in draw_phantoms(self.seed, r).items():
            config = case_config(self.seed, ph, 64)
            out = root / shape
            label = f"r{r}/{shape}"
            ok, _ = self.ops.run(label, "case", 1, pipeline.run_pipeline, config, out)
            if ok:
                self.checks.guard(label, self.check_case, r, label, spec_of(config), out)
                self.fingerprints.update(fingerprints(out, f"reconstruct/r{r}/{shape}"))
        shutil.rmtree(root)

    def check_case(self, r: int, label: str, spec, out: Path) -> None:
        err = check_mesh_case(self.checks, label, spec, out)
        self.add_error(r, float(err.mean()) / VOXEL_MM)
        metrics = json.loads((out / "metrics.json").read_text())
        self.checks.expect(all(np.isfinite(metrics[k]) for k in ("cd_mm", "hd_mm", "emd_mm")),
                           f"{label}: non-finite metrics {metrics}")


# --------------------------------------------------------------------------
# evaluate: the evaluation tools on repeated inputs

STUDY_K = (8, 12, 16, 20, 25)
BRANCH_RADIUS_MM = 5.0


def merge_files(main_obj: Path, branch_obj: Path, out_obj: Path):
    merged, report = meshkit.merge_branches(meshkit.read_obj(main_obj), meshkit.read_obj(branch_obj))
    meshkit.write_obj(merged, out_obj)
    return report


class Evaluate(Workload):
    """param_study on a strongly curved arc, compare_baseline on a straight
    tube on the volume's axis (see draw_phantoms), merge_branches on the
    branched phantom's analytic surfaces; the same inputs in every round."""

    throughput_kinds = ("study", "compare", "merge")
    latency_kinds = ("compare",)

    def set_up(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        shift = [[float(v) for v in rng.uniform(-1.0, 1.0, 2)] for _ in range(2)]
        self.study_cfg = case_config(self.seed, {
            "shape": "arc", "length_mm": 30.0, "base_radius_mm": 4.0, "arc_radius_mm": 12.0,
            "axis_offset_mm": shift[0]}, 48)
        self.compare_cfg = case_config(self.seed, {
            "shape": "straight", "length_mm": 40.0, "base_radius_mm": 6.0}, 64)
        self.branched = phantom.PhantomSpec(
            shape="branched", base_radius_mm=BRANCH_RADIUS_MM, axis_offset_mm=tuple(shift[1]),
            dims=tuple(GRID["dims"]), spacing_mm=tuple(GRID["spacing_mm"]))
        self.inputs = self.work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.main_mesh = phantom.analytic_surface(self.branched, 64, 64, caps=True, branch="main")
        self.branch_mesh = phantom.analytic_surface(self.branched, 32, 32, caps=False, branch="side")
        meshkit.write_obj(self.main_mesh, self.inputs / "main.obj")
        meshkit.write_obj(self.branch_mesh, self.inputs / "branch.obj")

    def run_round(self, r: int) -> None:
        root = self.round_dir(r)
        ok, study = self.ops.run(f"r{r}/study", "study", len(STUDY_K), pipeline.param_study,
                                 self.study_cfg, root / "study", k_list=STUDY_K)
        if ok:
            self.checks.guard(f"r{r}/study", self.check_study, r, study)
        ok, _ = self.ops.run(f"r{r}/compare", "compare", 2, pipeline.compare_baseline,
                             self.compare_cfg, root / "compare")
        if ok:
            self.checks.guard(f"r{r}/compare", self.check_compare, r, root / "compare")
        ok, report = self.ops.run(f"r{r}/merge", "merge", 1, merge_files, self.inputs / "main.obj",
                                  self.inputs / "branch.obj", root / "merged.obj")
        if ok:
            self.checks.guard(f"r{r}/merge", self.check_merge, r, report, root / "merged.obj")
        shutil.rmtree(root)

    def check_study(self, r: int, csv_path: Path) -> None:
        rows = [line.split(",") for line in csv_path.read_text().split()[1:]]
        ks = [int(row[0]) for row in rows]
        best = [int(row[0]) for row in rows if row[4] == "1"]
        cd = {int(row[0]): float(row[1]) for row in rows}
        self.checks.expect(ks == list(STUDY_K), f"r{r}/study: rows for k={ks}")
        self.checks.expect(len(best) == 1 and cd[best[0]] == min(cd.values()),
                           f"r{r}/study: best rows {best} for cd {cd}")
        spec = spec_of(self.study_cfg)
        for k in STUDY_K:
            err = check_mesh_case(self.checks, f"r{r}/study/k{k}", spec,
                                  csv_path.parent / f"k_{k:02d}")
            self.add_error(r, float(err.mean()) / VOXEL_MM)

    def check_compare(self, r: int, out: Path) -> None:
        spec = spec_of(self.compare_cfg)
        nurbs_err = check_mesh_case(self.checks, f"r{r}/compare/nurbs", spec, out)
        self.add_error(r, float(nurbs_err.mean()) / VOXEL_MM)
        verts, tris = read_obj(out / "mc_mesh.obj")
        closed, euler = closed_surface(tris)
        self.checks.expect(closed and euler == 2, f"r{r}/compare: marching-cubes mesh not closed")
        data, spacing, origin = read_volume(out / "volume.f32raw")
        # OBJ keeps 9 significant digits, about 5e-8 mm at these coordinates
        level = np.abs(trilinear(data, spacing, origin, verts) - 0.5).max()
        self.checks.expect(level <= 1e-6, f"r{r}/compare: marching-cubes vertex {level:.2e} off the 0.5 level")
        mc_err, _ = wall_errors(spec, verts)
        self.checks.expect(nurbs_err.mean() < mc_err.mean(),
                           f"r{r}/compare: NURBS error {nurbs_err.mean():.3f} mm not below "
                           f"marching cubes {mc_err.mean():.3f} mm")

    def check_merge(self, r: int, report, merged_obj: Path) -> None:
        """Removed branch triangles lie inside the analytic main radius, kept ones outside."""
        verts, tris = read_obj(merged_obj)
        n_main = self.main_mesh.n_vertices
        kept = {tuple(t) for t in (tris[(tris >= n_main).all(axis=1)] - n_main).tolist()}
        is_kept = np.array([tuple(t) in kept for t in self.branch_mesh.triangles.tolist()])
        centroids = self.branch_mesh.vertices[self.branch_mesh.triangles].mean(axis=1)
        radial, _ = centerline_distance(self.branched, centroids)
        self.checks.expect((~is_kept).sum() == report.removed_triangles,
                           f"r{r}/merge: {(~is_kept).sum()} triangles missing, "
                           f"report says {report.removed_triangles}")
        self.checks.expect(radial[~is_kept].max() < BRANCH_RADIUS_MM < radial[is_kept].min(),
                           f"r{r}/merge: removed up to {radial[~is_kept].max():.3f} mm, "
                           f"kept from {radial[is_kept].min():.3f} mm")


# --------------------------------------------------------------------------
# train: diffusion training, checkpoint round trip, ancestral sampling

FAMILY = 16
HELD_OUT = 4
ITERATIONS = 500
TIMESTEPS = 400


class Train(Workload):
    """Trains the MLP denoiser on a seeded family of 48^3 straight phantoms,
    saves the checkpoint and samples held-out phantoms."""

    throughput_kinds = ("train",)
    latency_kinds = ("sample",)

    def set_up(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        family = {"count": FAMILY + HELD_OUT, "seed": self.seed}
        specs = pipeline.phantom_family(family)
        self.pairs = pipeline.build_training_pairs(specs[:FAMILY], 16)
        self.held = []
        for spec in specs[FAMILY:]:
            vol = phantom.rasterize(spec)
            self.held.append((vol, cdm.VolumeFeatureEncoder(vol)))
        self.sched = cdm.NoiseSchedule.desk_default(TIMESTEPS)
        self.first_checkpoint = None

    def run_round(self, r: int) -> None:
        root = self.round_dir(r)
        label = f"r{r}"
        cfg = cdm.TrainConfig(batch_size=16, iterations=ITERATIONS, seed=self.seed)
        ok, trained = self.ops.run(f"{label}/train", "train", ITERATIONS, cdm.train,
                                   self.pairs, cfg, self.sched)
        if not ok:
            shutil.rmtree(root)
            return
        den, curve = trained
        self.checks.guard(label, self.check_training, r, label, den, curve)
        (root / "loss_curve.csv").write_text(
            "\n".join(["iteration,loss,smoothed"] + [f"{i},{l!r},{s!r}" for i, l, s in curve]) + "\n")

        def round_trip():
            cdm.save_checkpoint(den, self.sched, root / "model", seed=self.seed)
            again, sched = cdm.load_checkpoint(root / "model")
            (root / "reload").mkdir()
            cdm.save_checkpoint(again, sched, root / "reload" / "model", seed=self.seed)

        ok, _ = self.ops.run(f"{label}/checkpoint", "checkpoint", 1, round_trip)
        if ok:
            self.checks.guard(label, self.check_checkpoint, label, root)

        for h, (vol, enc) in enumerate(self.held):
            rng = np.random.default_rng([self.seed, h])
            ok, pts = self.ops.run(f"{label}/sample{h}", "sample", 1, cdm.sample,
                                   vol, enc, den, self.sched, rng)
            if ok:
                self.checks.expect(np.isfinite(pts).all(), f"{label}/sample{h}: non-finite sample")
        self.check_oracle(label)
        shutil.rmtree(root)

    def check_training(self, r: int, label: str, den, curve) -> None:
        self.checks.expect(np.isfinite(np.array(curve)).all(), f"{label}: non-finite loss")
        self.checks.expect(all(np.isfinite(p).all() for p in den.params.values()),
                           f"{label}: non-finite parameters")
        self.checks.expect(curve[-1][2] <= 0.5 * curve[0][2],
                           f"{label}: smoothed loss {curve[-1][2]:.4f} above half of {curve[0][2]:.4f}")
        self.add_error(r, float(curve[-1][2]))

    def check_checkpoint(self, label: str, root: Path) -> None:
        """Save-load-save is byte-identical, and so is every round's training."""
        for suffix in (".json", ".f32"):
            self.checks.expect(
                (root / "model").with_suffix(suffix).read_bytes()
                == (root / "reload" / "model").with_suffix(suffix).read_bytes(),
                f"{label}: checkpoint{suffix} changed on save-load-save")
        shutil.rmtree(root / "reload")
        prints = fingerprints(root, "train")
        if self.first_checkpoint is None:
            self.first_checkpoint = prints
            self.fingerprints.update(prints)
        self.checks.expect(prints == self.first_checkpoint, f"{label}: training not deterministic")

    def check_oracle(self, label: str) -> None:
        """A deterministic sample with the oracle denoiser recovers the clean image."""
        pair = self.pairs[0]
        enc = pair.encoder
        vol = enc.vol
        rng = np.random.default_rng([self.seed, 99])
        x_t = cdm.forward_noise(pair.ci0, self.sched.timesteps,
                                rng.standard_normal(pair.ci0.shape), self.sched)
        oracle = cdm.OracleDenoiser(pair.ci0, self.sched)
        ok, rec = self.ops.run(f"{label}/oracle", "oracle", 1, cdm.sample, vol, enc, oracle,
                               self.sched, rng, deterministic=True, x_init=x_t)
        if ok:
            lo = np.asarray(vol.origin)
            hi = lo + (np.array(vol.data.shape[::-1]) - 1) * np.asarray(vol.spacing)
            err = np.abs(2.0 * (rec - lo) / (hi - lo) - 1.0 - pair.ci0).max()
            self.checks.expect(err <= 1e-3, f"{label}: oracle sample {err:.2e} from the clean image")


WORKLOADS = {"reconstruct": Reconstruct, "evaluate": Evaluate, "train": Train}
