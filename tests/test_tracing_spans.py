"""A traced pipeline run records a span in every layer it passes through.

The benchmark's per-layer metrics are sums over the spans that
`perfbench/tracing.py` records.  A refactor that stops calling a traced
function on the main path leaves its row at 0 without any other test
failing.  The tracer file is read, never edited.
"""

import importlib.util
from pathlib import Path

from vesselmesh import pipeline

from test_pipeline import _tiny_config

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the per-layer spans of one pipeline run with a phantom and its ground truth
_RECONSTRUCT_SPANS = (
    "pipeline.volume", "pipeline.centerline", "pipeline.segment", "pipeline.contours",
    "pipeline.fit", "pipeline.mesh", "pipeline.metrics",
    "phantom.rasterize", "phantom.analytic_surface",
    "volume.sample_trilinear", "volume.raw_io",
    "centerline.smooth_resample", "centerline.frames",
    "slicer.extract_slice", "lumenseg.segment", "lumenseg.trace", "lumenseg.resample",
    "contours.align", "nurbs.skin", "nurbs.tessellate", "nurbs.json_io",
    "meshkit.validate", "meshkit.self_intersection", "meshkit.write", "meshkit.read",
    "metrics.report",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_run_records_every_reconstruct_layer(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    cfg = _tiny_config()
    tracer.install()
    try:
        pipeline.run_pipeline(cfg, tmp_path / "out")
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert set(_RECONSTRUCT_SPANS) - names == set()
    # every span named here is one the benchmark reports as a per-layer time
    assert set(_RECONSTRUCT_SPANS) <= {span for _, span in tracing.TIMES.values()}
    k = cfg["centerline"]["k"]
    assert tracer.counts["slicer.slices"] == k
    for name in ("lumenseg.segment", "lumenseg.trace", "lumenseg.resample"):
        assert sum(span[0] == name for span in tracer.spans) == k, name
