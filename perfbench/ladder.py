"""Scale ladder: per-stage wall times of the straight and arc phantoms at
64^3 / tessellation 64, 96^3 / 128 and 128^3 / 256.

    python3 perfbench/ladder.py

The physical phantom stays the same and the voxel spacing shrinks with the
grid (0.9 mm at 64^3).  Reference only: one 128^3 case takes longer than a
whole benchmark run, so the ladder is not part of the workloads.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from vesselmesh import pipeline

STAGES = (("volume", pipeline.stage_volume), ("centerline", pipeline.stage_centerline),
          ("segment", pipeline.stage_segment), ("contours", pipeline.stage_align),
          ("fit", pipeline.stage_fit), ("mesh", pipeline.stage_mesh),
          ("metrics", pipeline.stage_metrics))
TESS = {64: 64, 96: 128, 128: 256}
SHAPES = {
    "straight": {"shape": "straight", "length_mm": 40.0, "base_radius_mm": 6.0},
    "arc": {"shape": "arc", "length_mm": 39.27, "base_radius_mm": 5.0, "arc_radius_mm": 25.0},
}


def main() -> int:
    print("shape n tess " + " ".join(name for name, _ in STAGES) + " total")
    (HERE / "out").mkdir(exist_ok=True)
    for n, tess in TESS.items():
        for shape, ph in SHAPES.items():
            config = {
                "seed": 0,
                "phantom": {**ph, "dims": [n] * 3, "spacing_mm": [0.9 * 64 / n] * 3},
                "centerline": {"source": "analytic", "k": 16},
                "contours": {"points": 32},
                "surface": {"tess_u": tess, "tess_v": tess, "caps": True},
            }
            out = Path(tempfile.mkdtemp(prefix="ladder-", dir=HERE / "out"))
            try:
                times = []
                for _, stage in STAGES:
                    start = time.perf_counter()
                    stage(config, out)
                    times.append(time.perf_counter() - start)
            finally:
                shutil.rmtree(out)
            print(f"{shape} {n} {tess} " + " ".join(f"{t:.2f}" for t in times)
                  + f" {sum(times):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
