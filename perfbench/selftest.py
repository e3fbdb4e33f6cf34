"""Self-test of the benchmark's own checkers and span arithmetic, at tiny sizes.

    python3 perfbench/selftest.py

Exits 0 when every checker accepts what it must accept and flags what it
must flag; prints each failure and exits 1 otherwise.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from vesselmesh import phantom

from checks import Checks, closed_surface, trilinear, wall_errors
from tracing import Tracer


def main() -> int:
    checks = Checks()
    spec = phantom.PhantomSpec(shape="straight", length_mm=20.0, base_radius_mm=4.0,
                               dims=(32, 32, 32), spacing_mm=(1.0, 1.0, 1.0))
    closed = phantom.analytic_surface(spec, 16, 16, caps=True)
    ok, euler = closed_surface(closed.triangles)
    checks.expect(ok and euler == 2, f"closed tube rejected (V-E+F={euler})")
    ok, _ = closed_surface(phantom.analytic_surface(spec, 16, 16, caps=False).triangles)
    checks.expect(not ok, "open tube (caps=False) accepted")
    flipped = closed.triangles.copy()
    flipped[7] = flipped[7][::-1]
    ok, _ = closed_surface(flipped)
    checks.expect(not ok, "mesh with one flipped triangle accepted")

    for shape in ("straight", "aneurysm", "coarctation"):
        s = phantom.PhantomSpec(shape=shape, length_mm=20.0, base_radius_mm=4.0,
                                dims=(40, 40, 40), spacing_mm=(1.0, 1.0, 1.0))
        err, caps = wall_errors(s, phantom.analytic_surface(s, 24, 24, caps=True).vertices)
        checks.expect(caps == 2 and err.max() < 1e-9,
                      f"{shape}: analytic surface {err.max():.2e} mm off its own wall, {caps} caps")
    arc = phantom.PhantomSpec(shape="arc", length_mm=20.0, base_radius_mm=3.0, arc_radius_mm=15.0,
                              dims=(40, 40, 40), spacing_mm=(1.0, 1.0, 1.0))
    err, caps = wall_errors(arc, phantom.analytic_surface(arc, 32, 24, caps=True).vertices)
    # the surface's rings lie in planes normal to chords of the curve
    checks.expect(caps == 2 and err.max() < 0.01, f"arc: analytic surface {err.max():.2e} mm off its wall")
    err, _ = wall_errors(spec, closed.vertices + [0.0, 0.5, 0.0])
    checks.expect(abs(err.max() - 0.5) < 1e-9, f"a 0.5 mm shift reads {err.max():.3f} mm")

    rng = np.random.default_rng(0)
    spacing, origin = (0.5, 0.25, 1.0), (-2.0, 1.0, 0.5)
    z, y, x = np.meshgrid(*(np.arange(n) for n in (5, 6, 7)), indexing="ij")
    wx, wy, wz = origin[0] + x * spacing[0], origin[1] + y * spacing[1], origin[2] + z * spacing[2]
    data = (2.0 * wx - 0.5 * wy + 0.25 * wz + 1.0).astype(np.float32)
    lo = np.asarray(origin)
    pts = rng.uniform(lo, lo + (np.array([7, 6, 5]) - 1) * spacing, size=(200, 3))
    want = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 0.25 * pts[:, 2] + 1.0
    worst = np.abs(trilinear(data, spacing, origin, pts) - want).max()
    checks.expect(worst <= 1e-12, f"trilinear reference off an affine field by {worst:.2e}")

    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, "a"], ["inner", 1.0, 4.0, 0, "a"],
                    ["leaf", 2.0, 3.0, 1, "a"], ["inner", 5.0, 6.0, 0, "a"]]
    self_s, total_s = tracer.totals(0, 4)
    checks.expect(dict(self_s) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
                  and total_s["inner"] == 4.0, f"span self times {dict(self_s)}")

    for failure in checks.failures:
        print(f"FAIL {failure}")
    print(f"{checks.count - len(checks.failures)}/{checks.count} checker self-tests passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
