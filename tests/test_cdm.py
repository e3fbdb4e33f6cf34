import numpy as np
import pytest

from vesselmesh import cdm, centerline as cl, phantom
from vesselmesh.volume import Volume, sample_trilinear

_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


@pytest.fixture(scope="module")
def sched():
    return cdm.NoiseSchedule.desk_default(200)


@pytest.fixture(scope="module")
def single_pair(small_spec, small_volume):
    pts = phantom.analytic_centerline(small_spec, 16)
    return cdm.TrainingPair.from_volume(small_volume, pts)


def test_schedule_invariants(sched):
    assert (sched.betas > 0).all() and (sched.betas < 1).all()
    assert (np.diff(sched.betas) > 0).all()
    assert sched.alpha_bars[0] == 1.0
    assert (np.diff(sched.alpha_bars) < 0).all()
    assert sched.alpha_bars[-1] < 0.05
    assert np.array_equal(sched.sigmas, np.sqrt(sched.betas))


def test_reference_schedule_also_valid():
    ref = cdm.NoiseSchedule(1000)
    assert ref.beta_start == 1e-4 and ref.beta_end == 0.02
    assert ref.alpha_bars[-1] < 0.05


def test_forward_noise_identity_at_t0(sched):
    rng = np.random.default_rng(0)
    ci0 = rng.uniform(-1, 1, (16, 3))
    assert np.array_equal(cdm.forward_noise(ci0, 0, np.zeros_like(ci0), sched), ci0)


def test_forward_noise_zero_eps(sched):
    rng = np.random.default_rng(1)
    ci0 = rng.uniform(-1, 1, (16, 3))
    t = 50
    out = cdm.forward_noise(ci0, t, np.zeros_like(ci0), sched)
    assert np.allclose(out, np.sqrt(sched.alpha_bars[t]) * ci0, atol=1e-15)


def test_forward_noise_t_out_of_range(sched):
    ci0 = np.zeros((16, 3))
    with pytest.raises(ValueError):
        cdm.forward_noise(ci0, sched.timesteps + 1, ci0, sched)


def test_forward_noise_variance_montecarlo(sched):
    rng = np.random.default_rng(2)
    t = 120
    n = 100_000
    eps = rng.standard_normal((n, 4, 3))
    ci0 = np.zeros((4, 3))
    out = np.sqrt(sched.alpha_bars[t]) * ci0 + np.sqrt(1 - sched.alpha_bars[t]) * eps
    var = out.reshape(n, -1).var(axis=0).mean()
    want = 1.0 - sched.alpha_bars[t]
    assert abs(var - want) / want <= 0.02


def test_loss_zero_for_oracle(sched, single_pair):
    oracle = cdm.OracleDenoiser(single_pair.ci0, sched)
    rng = np.random.default_rng(3)
    loss, grads = cdm.loss_and_grads([single_pair] * 8, oracle, sched, rng)
    assert loss <= 1e-24
    assert grads is None


def test_loss_near_one_for_zero_denoiser(sched, single_pair):
    den = cdm.MlpDenoiser(16, 5, hidden=32, seed=0)
    den.flat[:] = np.zeros(den.flat.size)
    rng = np.random.default_rng(4)
    losses = [cdm.loss_and_grads([single_pair] * 16, den, sched, rng)[0] for _ in range(40)]
    assert abs(np.mean(losses) - 1.0) <= 0.05


def test_gradcheck_all_blocks(sched, single_pair):
    den = cdm.MlpDenoiser(16, 5, hidden=24, seed=5)
    flat0 = den.flat.copy()
    rng_seed = 6

    def loss_at(flat):
        den.flat[:] = flat
        loss, _ = cdm.loss_and_grads([single_pair] * 3, den, sched,
                                     np.random.default_rng(rng_seed))
        return loss

    den.flat[:] = flat0
    _, gflat = cdm.loss_and_grads([single_pair] * 3, den, sched,
                                  np.random.default_rng(rng_seed))

    # per-block coordinate coverage
    rng = np.random.default_rng(7)
    offsets = {}
    pos = 0
    for key in _PARAM_ORDER:
        size = den.params[key].size
        offsets[key] = (pos, pos + size)
        pos += size
    idx = []
    for key in _PARAM_ORDER:
        lo, hi = offsets[key]
        idx.extend(rng.integers(lo, hi, size=17).tolist())
    h = 1e-5
    worst = 0.0
    for i in idx[:100]:
        fp = flat0.copy()
        fp[i] += h
        fm = flat0.copy()
        fm[i] -= h
        fd = (loss_at(fp) - loss_at(fm)) / (2 * h)
        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_denoiser_shape_contract(sched, small_volume, small_spec):
    for k in (8, 16):
        pts = phantom.analytic_centerline(small_spec, k)
        pair = cdm.TrainingPair.from_volume(small_volume, pts)
        den = cdm.MlpDenoiser(k, 5, hidden=16, seed=1)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((k, 3))
        feats = pair.encoder(cl.decode_image(x, pair.bounds_lo, pair.bounds_hi))
        out = den.predict(x, 10, feats)
        assert out.shape == (k, 3)


def test_train_deterministic(sched, single_pair):
    cfg = cdm.TrainConfig(iterations=40, seed=11)
    d1, c1 = cdm.train([single_pair], cfg, sched)
    d2, c2 = cdm.train([single_pair], cfg, sched)
    assert np.array_equal(d1.flat, d2.flat)
    assert c1 == c2


def test_train_divergence_aborts(sched, single_pair):
    cfg = cdm.TrainConfig(learning_rate=50.0, iterations=1200, seed=0)
    with pytest.raises(cdm.TrainingDiverged):
        cdm.train([single_pair], cfg, sched)


def test_train_stops_at_first_non_finite_loss(sched, single_pair):
    # the first step moves every weight by about the learning rate, so the
    # second loss overflows; the 500-iteration streak test alone would let
    # NaN parameters run on
    cfg = cdm.TrainConfig(learning_rate=1e300, iterations=1000, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(cdm.TrainingDiverged, match="at iteration 2$"):
        cdm.train([single_pair], cfg, sched)


def test_batch_of_mixed_k_fails_before_any_draw(sched, small_spec, small_volume, single_pair):
    other = cdm.TrainingPair.from_volume(small_volume, phantom.analytic_centerline(small_spec, 8))
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"k=\[8, 16\]"):
        cdm.loss_and_grads([single_pair, other], cdm.OracleDenoiser(single_pair.ci0, sched), sched, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=r"k=\[8, 16\]"):
        cdm.train([single_pair, other], cdm.TrainConfig(iterations=5), sched)


def test_denoiser_of_other_k_fails_before_any_draw(sched, single_pair):
    den = cdm.MlpDenoiser(8, 5, hidden=16, seed=0)
    rng = np.random.default_rng(14)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="k=8 .* k=16"):
        cdm.loss_and_grads([single_pair], den, sched, rng)
    assert rng.bit_generator.state == state


class _Recorder:
    """Predict-only denoiser that keeps the images and features it is given."""

    def __init__(self, k):
        self.k_points = k
        self.seen = []

    def predict(self, ci_t, t, features):
        self.seen.append((ci_t, features))
        return np.zeros_like(ci_t)


def _reference_features(vol, pts):
    """The per-pair encoder body before batching, on sample_trilinear."""
    sp = np.asarray(vol.spacing, dtype=np.float64)
    patch = np.array([(i, j, k) for k in (-1, 0, 1) for j in (-1, 0, 1) for i in (-1, 0, 1)])
    offsets = np.vstack([patch, np.eye(3), -np.eye(3)]) * sp[None, :]
    query = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    vals = sample_trilinear(vol, query).reshape(len(pts), 33)
    grad = (vals[:, 27:30] - vals[:, 30:33]) / (2.0 * sp[None, :])
    return np.column_stack([vals[:, 13], grad, vals[:, :27].mean(axis=1)])


def test_batch_features_match_per_pair_lookups(sched):
    # one batch over volumes of different dims (one with a one-voxel axis),
    # spacing and origin, with a repeated volume, and bounds wider than every
    # volume so that noisy points fall outside and clamp
    rng = np.random.default_rng(30)
    geometry = [((12, 9, 7), (0.7, 1.1, 0.9), (-4.0, 2.0, 1.5)),
                ((1, 8, 6), (1.0, 0.6, 1.3), (3.0, -1.0, 0.0)),
                ((10, 10, 10), (0.5, 0.5, 0.5), (0.0, 0.0, -2.0))]
    pairs = []
    for (nx, ny, nz), spacing, origin in geometry:
        vol = Volume(rng.random((nz, ny, nx)).astype(np.float32), spacing, origin)
        lo, hi = vol.bounds()
        pairs.append(cdm.TrainingPair(rng.uniform(-1.0, 1.0, (6, 3)),
                                      cdm.VolumeFeatureEncoder(vol), lo - 1.0, hi + 1.0))
    batch = [pairs[0], pairs[1], pairs[2], pairs[0], pairs[1], pairs[1]]
    rec = _Recorder(6)
    cdm.loss_and_grads(batch, rec, sched, np.random.default_rng(31))
    assert len(rec.seen) == 1  # one call carries the whole batch
    ci_ts, batch_feats = rec.seen[0]
    assert ci_ts.shape == (len(batch), 6, 3) and batch_feats.shape == (len(batch), 6, 5)
    outside = 0
    for pair, ci_t, feats in zip(batch, ci_ts, batch_feats):
        pos = cl.decode_image(ci_t, pair.bounds_lo, pair.bounds_hi)
        lo, hi = pair.encoder.vol.bounds()
        outside += int(((pos < lo) | (pos > hi)).any(axis=1).sum())
        assert feats.tobytes() == pair.encoder(pos).tobytes()
        # one 4x4x4 block per point sums in another order than 33 lookups
        assert np.abs(feats - _reference_features(pair.encoder.vol, pos)).max() <= 1e-12
    assert outside > 0


def _edge_volumes():
    # a one-voxel axis, a two-voxel axis and anisotropic dyadic spacing, so
    # that voxel centres and boundary faces are exact in world coordinates
    rng = np.random.default_rng(32)
    for (nx, ny, nz), spacing in [((1, 6, 5), (0.5, 0.75, 1.25)),
                                  ((7, 2, 4), (1.5, 0.25, 0.5)),
                                  ((5, 4, 1), (0.75, 2.0, 0.5))]:
        yield Volume(rng.random((nz, ny, nx)).astype(np.float32), spacing, (-2.5, 1.0, 3.0))


def test_block_features_at_centres_faces_and_far_outside():
    for vol in _edge_volumes():
        enc = cdm.VolumeFeatureEncoder(vol)
        lo, hi = vol.bounds()
        dims = np.array(vol.dims)
        sp = np.asarray(vol.spacing)
        idx = np.stack(np.meshgrid(*[np.arange(m) for m in dims], indexing="ij"), -1).reshape(-1, 3)
        centres = lo + idx * sp
        feats = enc(centres)
        assert np.array_equal(feats[:, 0], vol.data[idx[:, 2], idx[:, 1], idx[:, 0]])
        assert (feats[:, 1:4][:, dims == 1] == 0.0).all()
        assert np.abs(feats - _reference_features(vol, centres)).max() <= 1e-12

        # points on each boundary face, the rest of the point inside
        rng = np.random.default_rng(33)
        faces = []
        for axis in range(3):
            for end in (lo, hi):
                pts = rng.uniform(lo, hi, (8, 3))
                pts[:, axis] = end[axis]
                faces.append(pts)
        faces = np.vstack(faces)
        assert np.abs(enc(faces) - _reference_features(vol, faces)).max() <= 1e-12

        # 1e6 mm outside (and 1e300, far past int64 voxel indices) on each side
        # of each axis: that axis is clamped, so its gradient component is 0
        for far in (1e6, 1e300):
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    pts = rng.uniform(lo, hi, (8, 3))
                    pts[:, axis] = sign * far
                    got = enc(pts)
                    assert (got[:, 1 + axis] == 0.0).all()
                    assert (got[:, 1:4][:, dims == 1] == 0.0).all()
                    assert np.abs(got - _reference_features(vol, pts)).max() <= 1e-12


def test_sampling_deterministic(sched, single_pair, small_volume):
    den = cdm.MlpDenoiser(16, 5, hidden=16, seed=2)
    enc = cdm.VolumeFeatureEncoder(small_volume)
    s1 = cdm.sample(small_volume, enc, den, sched, np.random.default_rng(9))
    s2 = cdm.sample(small_volume, enc, den, sched, np.random.default_rng(9))
    assert np.array_equal(s1, s2)


def test_sampling_zero_denoiser_bounded(small_volume):
    sched_long = cdm.NoiseSchedule(1000)
    den = cdm.MlpDenoiser(16, 5, hidden=16, seed=3)
    den.flat[:] = np.zeros(den.flat.size)
    enc = cdm.VolumeFeatureEncoder(small_volume)
    out = cdm.sample(small_volume, enc, den, sched_long, np.random.default_rng(10))
    assert np.isfinite(out).all()


def test_oracle_denoiser_recovers_sample(sched, single_pair, small_volume):
    rng = np.random.default_rng(12)
    eps = rng.standard_normal((16, 3))
    x_t = cdm.forward_noise(single_pair.ci0, sched.timesteps, eps, sched)
    oracle = cdm.OracleDenoiser(single_pair.ci0, sched)
    enc = cdm.VolumeFeatureEncoder(small_volume)
    rec = cdm.sample(small_volume, enc, oracle, sched, rng, deterministic=True, x_init=x_t)
    rec_ci = cl.encode_image(rec, single_pair.bounds_lo, single_pair.bounds_hi)
    assert np.abs(rec_ci - single_pair.ci0).max() <= 1e-3


def test_memorization(sched, single_pair):
    cfg = cdm.TrainConfig(iterations=5000, seed=0)
    den, curve = cdm.train([single_pair], cfg, sched)
    final_smoothed = curve[-1][2]
    assert final_smoothed < 0.05


def test_training_curve_trends_down(sched, small_spec, small_volume):
    # mini-batch noise makes strictly nonincreasing windows unattainable at
    # the plateau, so the trend check tolerates 10 percent window-to-window
    # jitter and requires a large overall decline
    rng = np.random.default_rng(20)
    pairs = []
    for _ in range(6):
        spec = phantom.PhantomSpec(
            shape="straight", length_mm=24.0,
            base_radius_mm=float(rng.uniform(4.0, 5.5)),
            dims=(40, 40, 40), spacing_mm=(1.3, 1.3, 1.3),
        )
        vol = phantom.rasterize(spec)
        pairs.append(cdm.TrainingPair.from_volume(vol, phantom.analytic_centerline(spec, 16)))
    _, curve = cdm.train(pairs, cdm.TrainConfig(iterations=3000, seed=0), sched)
    smoothed = [row[2] for row in curve]
    assert smoothed[-1] <= 0.5 * smoothed[0]
    tolerant = sum(1 for a, b in zip(smoothed[:-1], smoothed[1:]) if b <= a * 1.10)
    assert tolerant / (len(smoothed) - 1) >= 0.8


def test_checkpoint_round_trip(tmp_path, sched):
    den = cdm.MlpDenoiser(16, 5, hidden=32, seed=4)
    cdm.save_checkpoint(den, sched, tmp_path / "model", seed=4)
    again, sched2 = cdm.load_checkpoint(tmp_path / "model")
    assert sched2.timesteps == sched.timesteps
    assert sched2.beta_start == sched.beta_start
    cdm.save_checkpoint(again, sched2, tmp_path / "model2", seed=4)
    assert (tmp_path / "model.f32").read_bytes() == (tmp_path / "model2.f32").read_bytes()
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()


def test_checkpoint_payload_of_wrong_size_fails(tmp_path, sched):
    den = cdm.MlpDenoiser(16, 5, hidden=32, seed=4)
    cdm.save_checkpoint(den, sched, tmp_path / "model", seed=4)
    payload = (tmp_path / "model.f32").read_bytes()
    for bad in (payload[:-4], payload + payload[:4]):
        (tmp_path / "model.f32").write_bytes(bad)
        with pytest.raises(ValueError, match="payload size"):
            cdm.load_checkpoint(tmp_path / "model")


def test_encoder_gradient_exact_on_affine():
    from conftest import affine_volume

    vol = affine_volume(coeffs=(2.0, 0.25, -0.5, 1.0), dims=(20, 20, 20),
                        spacing=(0.5, 0.5, 0.5), origin=(0.0, 0.0, 0.0))
    enc = cdm.VolumeFeatureEncoder(vol)
    pts = np.array([[4.0, 5.0, 4.5], [3.3, 6.1, 2.9]])
    feats = enc(pts)
    assert np.abs(feats[:, 1:4] - np.array([2.0, 0.25, -0.5])).max() <= 1e-9
    # patch mean of an affine field equals the center intensity
    assert np.abs(feats[:, 0] - feats[:, 4]).max() <= 1e-12
    want = 2.0 * pts[:, 0] + 0.25 * pts[:, 1] - 0.5 * pts[:, 2] + 1.0
    assert np.abs(feats[:, 0] - want).max() <= 1e-12


def test_time_embedding_shape_and_determinism():
    e1 = cdm.time_embedding([5, 10], 16)
    assert e1.shape == (2, 16)
    assert np.array_equal(e1, cdm.time_embedding([5, 10], 16))
    assert not np.array_equal(e1[0], e1[1])
