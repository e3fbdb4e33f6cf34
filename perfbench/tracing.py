"""Spans around the public functions of the vesselmesh modules.

A `Tracer` replaces each listed function with a wrapper in every vesselmesh
namespace that holds it by name (``pipeline.validate`` and
``meshkit.validate`` are the same object, so both are wrapped), and each
listed method on its class.  While the tracer is installed a call records a
span ``[name, start, end, parent, case]``; spans stay in memory until the
run writes them out.  Times are CPU seconds of the process and its
children (`cpu_seconds`), like the end-to-end metrics.  A span's self time
is its duration minus the time its child spans cover.  Counters are updated
at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict


def cpu_seconds() -> float:
    """CPU seconds of this process and of its ended children.

    CPU time leaves out the time a shared host takes from the process, which
    makes wall time swing by a fifth between runs.  Children count, so work
    moved into a process pool still shows once its workers are joined.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _count_rasterize(tr, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    nx, ny, nz = spec.dims
    tr.counts["phantom.voxels"] += nx * ny * nz
    tr.counts["phantom.rasterize_calls"] += 1
    tr.rasterized_specs.add(spec)


def _count_validate(tr, args, kwargs, result):
    tr.counts["meshkit.triangles_validated"] += args[0].n_triangles


def _count_points_inside(tr, args, kwargs, result):
    tr.counts["meshkit.points_tested"] += len(result)


def _count_written(tr, args, kwargs, result):
    tr.counts["meshkit.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_sample(tr, args, kwargs, result):
    tr.counts["volume.sample_calls"] += 1
    tr.counts["volume.points_sampled"] += 1 if isinstance(result, float) else len(result)


def _count_slice(tr, args, kwargs, result):
    tr.counts["slicer.slices"] += 1


def _count_iteration(tr, args, kwargs, result):
    tr.counts["cdm.iterations"] += 1


# (module, attribute, span name, counter); "Class.method" wraps the method.
TARGETS = (
    ("vesselmesh.pipeline", "stage_volume", "pipeline.volume", None),
    ("vesselmesh.pipeline", "stage_centerline", "pipeline.centerline", None),
    ("vesselmesh.pipeline", "stage_segment", "pipeline.segment", None),
    ("vesselmesh.pipeline", "stage_align", "pipeline.contours", None),
    ("vesselmesh.pipeline", "stage_fit", "pipeline.fit", None),
    ("vesselmesh.pipeline", "stage_mesh", "pipeline.mesh", None),
    ("vesselmesh.pipeline", "stage_metrics", "pipeline.metrics", None),
    ("vesselmesh.pipeline", "param_study", "pipeline.param_study", None),
    ("vesselmesh.pipeline", "compare_baseline", "pipeline.compare_baseline", None),
    ("vesselmesh.phantom", "rasterize", "phantom.rasterize", _count_rasterize),
    ("vesselmesh.phantom", "analytic_surface", "phantom.analytic_surface", None),
    ("vesselmesh.volume", "sample_trilinear", "volume.sample_trilinear", _count_sample),
    ("vesselmesh.volume", "store_raw", "volume.raw_io", None),
    ("vesselmesh.volume", "load_raw", "volume.raw_io", None),
    ("vesselmesh.centerline", "smooth_resample", "centerline.smooth_resample", None),
    ("vesselmesh.centerline", "frames", "centerline.frames", None),
    ("vesselmesh.slicer", "extract_slice", "slicer.extract_slice", _count_slice),
    ("vesselmesh.lumenseg", "segment_slice", "lumenseg.segment", None),
    ("vesselmesh.lumenseg", "trace_boundary", "lumenseg.trace", None),
    ("vesselmesh.lumenseg", "resample_contour", "lumenseg.resample", None),
    ("vesselmesh.contours", "align_chain", "contours.align", None),
    ("vesselmesh.nurbs", "skin_surface", "nurbs.skin", None),
    ("vesselmesh.nurbs", "tessellate", "nurbs.tessellate", None),
    ("vesselmesh.nurbs", "write_surface_json", "nurbs.json_io", None),
    ("vesselmesh.nurbs", "read_surface_json", "nurbs.json_io", None),
    ("vesselmesh.meshkit", "validate", "meshkit.validate", _count_validate),
    ("vesselmesh.meshkit", "count_self_intersections", "meshkit.self_intersection", None),
    ("vesselmesh.meshkit", "marching_cubes", "meshkit.marching_cubes", None),
    ("vesselmesh.meshkit", "merge_branches", "meshkit.merge", None),
    ("vesselmesh.meshkit", "points_inside_mesh", "meshkit.points_inside", _count_points_inside),
    ("vesselmesh.meshkit", "write_obj", "meshkit.write", _count_written),
    ("vesselmesh.meshkit", "write_stl", "meshkit.write", _count_written),
    ("vesselmesh.meshkit", "read_obj", "meshkit.read", None),
    ("vesselmesh.meshkit", "read_stl", "meshkit.read", None),
    ("vesselmesh.metrics", "mesh_metric_report", "metrics.report", None),
    ("vesselmesh.cdm", "train", "cdm.train", None),
    ("vesselmesh.cdm", "loss_and_grads", "cdm.loss", _count_iteration),
    ("vesselmesh.cdm", "VolumeFeatureEncoder.__call__", "cdm.features", None),
    ("vesselmesh.cdm", "MlpDenoiser.forward", "cdm.forward", None),
    ("vesselmesh.cdm", "MlpDenoiser.backward", "cdm.backward", None),
    ("vesselmesh.cdm", "sample", "cdm.sample", None),
    ("vesselmesh.cdm", "save_checkpoint", "cdm.checkpoint", None),
    ("vesselmesh.cdm", "load_checkpoint", "cdm.checkpoint", None),
)

# per-layer metric -> (kind, span name); "self" sums self time, "total" sums
# whole spans (the pipeline stage totals)
TIMES = {
    "pipeline.volume_s": ("total", "pipeline.volume"),
    "pipeline.centerline_s": ("total", "pipeline.centerline"),
    "pipeline.segment_s": ("total", "pipeline.segment"),
    "pipeline.contours_s": ("total", "pipeline.contours"),
    "pipeline.fit_s": ("total", "pipeline.fit"),
    "pipeline.mesh_s": ("total", "pipeline.mesh"),
    "pipeline.metrics_s": ("total", "pipeline.metrics"),
    "phantom.rasterize_s": ("self", "phantom.rasterize"),
    "phantom.analytic_surface_s": ("self", "phantom.analytic_surface"),
    "meshkit.self_intersection_s": ("self", "meshkit.self_intersection"),
    "meshkit.validate_s": ("self", "meshkit.validate"),
    "meshkit.marching_cubes_s": ("self", "meshkit.marching_cubes"),
    "meshkit.merge_s": ("self", "meshkit.merge"),
    "meshkit.points_inside_s": ("self", "meshkit.points_inside"),
    "meshkit.write_s": ("self", "meshkit.write"),
    "meshkit.read_s": ("self", "meshkit.read"),
    "volume.sample_trilinear_s": ("self", "volume.sample_trilinear"),
    "volume.raw_io_s": ("self", "volume.raw_io"),
    "cdm.features_s": ("self", "cdm.features"),
    "cdm.forward_s": ("self", "cdm.forward"),
    "cdm.backward_s": ("self", "cdm.backward"),
    "cdm.loss_self_s": ("self", "cdm.loss"),
    "cdm.step_s": ("self", "cdm.train"),
    "cdm.sample_s": ("self", "cdm.sample"),
    "cdm.checkpoint_s": ("self", "cdm.checkpoint"),
    "centerline.smooth_resample_s": ("self", "centerline.smooth_resample"),
    "centerline.frames_s": ("self", "centerline.frames"),
    "slicer.extract_slice_s": ("self", "slicer.extract_slice"),
    "lumenseg.segment_s": ("self", "lumenseg.segment"),
    "lumenseg.trace_s": ("self", "lumenseg.trace"),
    "lumenseg.resample_s": ("self", "lumenseg.resample"),
    "contours.align_s": ("self", "contours.align"),
    "nurbs.skin_s": ("self", "nurbs.skin"),
    "nurbs.tessellate_s": ("self", "nurbs.tessellate"),
    "nurbs.json_io_s": ("self", "nurbs.json_io"),
    "metrics.report_s": ("self", "metrics.report"),
}
COUNTS = (
    "phantom.voxels",
    "meshkit.triangles_validated",
    "meshkit.points_tested",
    "meshkit.bytes_written",
    "volume.sample_calls",
    "volume.points_sampled",
    "slicer.slices",
    "cdm.iterations",
)
STAGES = tuple(span for kind, span in TIMES.values() if kind == "total")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.case = None
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.rasterized_specs: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.case]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = cpu_seconds()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = cpu_seconds()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every vesselmesh namespace that holds it."""
        modules = [importlib.import_module(m) for m, _, _, _ in TARGETS]
        package = [m for n, m in sys.modules.items() if n.startswith("vesselmesh")]
        for module, (_, attr, name, counter) in zip(modules, TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, counter)
            for owner in package:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def totals(self, lo: int, hi: int) -> tuple[dict, dict]:
        """(self seconds, whole-span seconds) per span name over spans[lo:hi]."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[lo:hi]:
            if parent >= lo:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans[lo:hi], lo):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
        return self_s, total_s

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "case"], "spans": self.spans}, f)
