import tracemalloc

import numpy as np
import pytest

from vesselmesh import phantom


@pytest.fixture(scope="session")
def straight_spec():
    return phantom.PhantomSpec(
        shape="straight", length_mm=40.0, base_radius_mm=6.0,
        dims=(64, 64, 64), spacing_mm=(0.9, 0.9, 0.9),
    )


@pytest.fixture(scope="session")
def arc_spec():
    return phantom.PhantomSpec(
        shape="arc", length_mm=39.27, base_radius_mm=5.0, arc_radius_mm=25.0,
        dims=(64, 64, 64), spacing_mm=(0.9, 0.9, 0.9),
    )


@pytest.fixture(scope="session")
def straight_volume(straight_spec):
    return phantom.rasterize(straight_spec)


@pytest.fixture(scope="session")
def arc_volume(arc_spec):
    return phantom.rasterize(arc_spec)


@pytest.fixture(scope="session")
def small_spec():
    # quick-to-rasterize volume for CLI and cdm tests
    return phantom.PhantomSpec(
        shape="straight", length_mm=30.0, base_radius_mm=5.0,
        dims=(48, 48, 48), spacing_mm=(1.1, 1.1, 1.1),
    )


@pytest.fixture(scope="session")
def small_volume(small_spec):
    return phantom.rasterize(small_spec)


def affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0), dims=(16, 16, 16),
                  spacing=(0.5, 0.5, 0.5), origin=(-2.0, -2.0, -2.0)):
    """Volume storing a*x + b*y + c*z + d exactly (dyadic values, exact in f32)."""
    from vesselmesh.volume import Volume

    a, b, c, d = coeffs
    nx, ny, nz = dims
    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    wx = origin[0] + xx * spacing[0]
    wy = origin[1] + yy * spacing[1]
    wz = origin[2] + zz * spacing[2]
    data = (a * wx + b * wy + c * wz + d).astype(np.float32)
    assert np.array_equal(data.astype(np.float64), a * wx + b * wy + c * wz + d)
    return Volume(data, spacing, origin)


def traced_peak_mb(fn, *args):
    """(fn(*args), MB): the most memory, numpy buffers included, that the
    call held allocated at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20
