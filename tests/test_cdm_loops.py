"""The flat-buffer diffusion model against the per-key code it replaced.

The references below are the earlier training code, kept verbatim: the
dict-of-arrays denoiser with ``flatten_params``/``set_flat_params`` and its
dict gradient, ``loss_and_grads`` with its list of per-sample draws and the
row-by-row input fill, and the iteration loop of ``train`` with one Adam step
per parameter key (the divergence abort, which never fires here, is left out).
The flat buffer must give the same initial parameters, loss, gradient and
trained parameters bit for bit, at every batch size, on a 3-volume family.
"""

import numpy as np
import pytest

from vesselmesh import cdm, pipeline
from vesselmesh.cdm import MlpDenoiser, NoiseSchedule, forward_noise, time_embedding
from vesselmesh.centerline import decode_image


# ---------------------------------------------------------------------------
# loop references

_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


class _LoopMlpDenoiser:
    """Two-hidden-layer tanh perceptron predicting the added noise.

    Input: flattened noisy centerline (k*3) ++ per-point features (k*F) ++
    sinusoidal time embedding; output: k*3 predicted noise.
    """

    def __init__(self, k_points: int, n_features: int = 5, hidden: int = 256,
                 time_dim: int = 16, seed: int = 0):
        self.k_points = k_points
        self.n_features = n_features
        self.hidden = hidden
        self.time_dim = time_dim
        self.d_in = k_points * 3 + k_points * n_features + time_dim
        self.d_out = k_points * 3
        rng = np.random.default_rng(seed)

        def xavier(n_out, n_in):
            s = np.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-s, s, size=(n_out, n_in))

        self.params = {
            "w1": xavier(hidden, self.d_in),
            "b1": np.zeros(hidden),
            "w2": xavier(hidden, hidden),
            "b2": np.zeros(hidden),
            "w3": xavier(self.d_out, hidden),
            "b3": np.zeros(self.d_out),
        }

    def assemble_input(self, ci_t, t, features) -> np.ndarray:
        ci_t = np.asarray(ci_t, dtype=np.float64)
        feats = np.asarray(features, dtype=np.float64)
        if ci_t.ndim == 2:
            ci_t = ci_t[None]
            feats = feats[None]
        b = ci_t.shape[0]
        emb = time_embedding(t, self.time_dim)
        if emb.shape[0] == 1 and b > 1:
            emb = np.repeat(emb, b, axis=0)
        return np.concatenate(
            [ci_t.reshape(b, -1), feats.reshape(b, -1), emb], axis=1
        )

    def forward(self, x: np.ndarray):
        p = self.params
        z1 = x @ p["w1"].T + p["b1"]
        h1 = np.tanh(z1)
        z2 = h1 @ p["w2"].T + p["b2"]
        h2 = np.tanh(z2)
        out = h2 @ p["w3"].T + p["b3"]
        return out, (x, h1, h2)

    def backward(self, cache, d_out: np.ndarray) -> dict:
        x, h1, h2 = cache
        p = self.params
        grads = {}
        grads["w3"] = d_out.T @ h2
        grads["b3"] = d_out.sum(axis=0)
        dh2 = d_out @ p["w3"]
        dz2 = dh2 * (1.0 - h2 * h2)
        grads["w2"] = dz2.T @ h1
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["w2"]
        dz1 = dh1 * (1.0 - h1 * h1)
        grads["w1"] = dz1.T @ x
        grads["b1"] = dz1.sum(axis=0)
        return grads

    # flat views used by checkpoints and finite-difference checks
    def flatten_params(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in _PARAM_ORDER])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        pos = 0
        for k in _PARAM_ORDER:
            n = self.params[k].size
            self.params[k] = flat[pos : pos + n].reshape(self.params[k].shape).copy()
            pos += n
        if pos != flat.size:
            raise ValueError("parameter payload size mismatch")


def _loop_loss_and_grads(pairs, denoiser, sched: NoiseSchedule, rng) -> tuple[float, dict | None]:
    if not pairs:
        raise ValueError("empty batch")
    b = len(pairs)
    k = pairs[0].ci0.shape[0]
    draws = []
    for pair in pairs:
        t = int(rng.integers(1, sched.timesteps + 1))
        eps = rng.standard_normal((k, 3))
        ci_t = forward_noise(pair.ci0, t, eps, sched)
        pos = decode_image(ci_t, pair.bounds_lo, pair.bounds_hi)
        feats = pair.encoder(pos)
        draws.append((t, eps, ci_t, feats))

    if not isinstance(denoiser, _LoopMlpDenoiser):
        preds = np.stack(
            [denoiser.predict(ci_t, t, feats) for t, _, ci_t, feats in draws]
        ).reshape(b, k * 3)
        targets = np.stack([eps.ravel() for _, eps, _, _ in draws])
        resid = preds - targets
        return float(np.mean(resid * resid)), None

    xs = np.empty((b, denoiser.d_in))
    targets = np.empty((b, k * 3))
    for i, (t, eps, ci_t, feats) in enumerate(draws):
        xs[i] = denoiser.assemble_input(ci_t, t, feats)[0]
        targets[i] = eps.ravel()
    out, cache = denoiser.forward(xs)
    resid = out - targets
    loss = float(np.mean(resid * resid))
    d_out = 2.0 * resid / resid.size
    grads = denoiser.backward(cache, d_out)
    return loss, grads


def _loop_train(dataset, cfg: cdm.TrainConfig, sched: NoiseSchedule, log_every: int = 100):
    if len(dataset) < 1:
        raise ValueError("empty dataset")
    k = dataset[0].ci0.shape[0]
    n_feat = getattr(dataset[0].encoder, "n_features", 5)
    denoiser = _LoopMlpDenoiser(k, n_feat, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    m = {key: np.zeros_like(val) for key, val in denoiser.params.items()}
    v = {key: np.zeros_like(val) for key, val in denoiser.params.items()}
    curve = []
    recent = []
    for it in range(1, cfg.iterations + 1):
        idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        batch = [dataset[i] for i in idx]
        loss, grads = _loop_loss_and_grads(batch, denoiser, sched, rng)
        for key in _PARAM_ORDER:
            g = grads[key]
            m[key] = cdm._BETA1 * m[key] + (1 - cdm._BETA1) * g
            v[key] = cdm._BETA2 * v[key] + (1 - cdm._BETA2) * g * g
            mhat = m[key] / (1 - cdm._BETA1 ** it)
            vhat = v[key] / (1 - cdm._BETA2 ** it)
            denoiser.params[key] -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cdm._ADAM_EPS)
        recent.append(loss)
        if len(recent) > 100:
            recent.pop(0)
        if it % log_every == 0 or it == cfg.iterations:
            curve.append((it, loss, float(np.mean(recent))))
    return denoiser, curve


# ---------------------------------------------------------------------------
# comparisons

BATCH_SIZES = (1, 5, 16)


@pytest.fixture(scope="module")
def sched():
    return NoiseSchedule.desk_default(200)


@pytest.fixture(scope="module")
def family():
    specs = pipeline.phantom_family({"count": 3, "seed": 2, "dims": [32, 32, 32],
                                     "spacing_mm": [1.6, 1.6, 1.6], "length_mm": 22.0,
                                     "radius_range_mm": [4.0, 5.5], "offset_range_mm": 2.0})
    return pipeline.build_training_pairs(specs, 16)


def _batch(family, size, seed):
    idx = np.random.default_rng(seed).integers(0, len(family), size=size)
    return [family[i] for i in idx]


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_loss_and_flat_gradient_match_loops(sched, family, size):
    batch = _batch(family, size, size)
    den = MlpDenoiser(16, 5, hidden=48, seed=size)
    ref = _LoopMlpDenoiser(16, 5, hidden=48, seed=size)
    assert den.flat.tobytes() == ref.flatten_params().tobytes()
    # away from the xavier draw too: every block, biases included, nonzero
    perturbed = den.flat + np.random.default_rng(size + 100).normal(0.0, 0.05, den.flat.size)
    for flat in (den.flat.copy(), perturbed):
        den.flat[:] = flat
        ref.set_flat_params(flat)
        loss, grad = cdm.loss_and_grads(batch, den, sched, np.random.default_rng(7))
        ref_loss, ref_grads = _loop_loss_and_grads(batch, ref, sched, np.random.default_rng(7))
        assert loss == ref_loss
        want = np.concatenate([ref_grads[k].ravel() for k in _PARAM_ORDER])
        assert grad.tobytes() == want.tobytes()
        for key in _PARAM_ORDER:
            assert den.params[key].tobytes() == ref.params[key].tobytes()


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_train_matches_per_key_adam(sched, family, size):
    cfg = cdm.TrainConfig(batch_size=size, iterations=50, seed=size + 3)
    den, curve = cdm.train(family, cfg, sched, log_every=10)
    ref, ref_curve = _loop_train(family, cfg, sched, log_every=10)
    assert den.flat.tobytes() == ref.flatten_params().tobytes()
    assert curve == ref_curve


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_oracle_batch_loss_matches_loop(sched, family, size):
    batch = _batch(family, size, size + 50)
    oracle = cdm.OracleDenoiser(family[0].ci0, sched)
    loss, grad = cdm.loss_and_grads(batch, oracle, sched, np.random.default_rng(8))
    ref_loss, ref_grad = _loop_loss_and_grads(batch, oracle, sched, np.random.default_rng(8))
    assert loss == ref_loss
    assert grad is None and ref_grad is None
