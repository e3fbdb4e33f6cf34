"""Volume-conditioned denoising diffusion over centerline images, desk scale.

A centerline of k points is encoded as a k x 3 image in [-1, 1] (see
``centerline.encode_image``).  The forward process draws

    x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) eps

and a small MLP learns to predict eps from (x_t, t, features), where the
conditioning features are looked up in the volume at the noisy points'
denormalized world positions, both in training and in sampling.  The
reverse update is the standard ancestral step with sigma_t = sqrt(beta_t).

Everything is plain float64 numpy with analytic gradients, trainable in
seconds and bit-deterministic for a fixed seed.  The denoiser's parameters
are one float64 buffer with named views; gradients, Adam moments and the
checkpoint payload (that buffer as f32le, in w1, b1, w2, b2, w3, b3 order)
share its layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .centerline import decode_image, encode_image
from .volume import Volume

_REFERENCE_T = 1000  # step count at which the canonical beta range applies
# Adam's moment decay rates and denominator floor
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.99, 1e-8


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with cached cumulative products.

    alpha_bars has length T + 1 with alpha_bars[0] = 1, so index t is the
    cumulative product over steps 1..t.
    """

    timesteps: int
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError("need at least one timestep")
        if not (0.0 < self.beta_start <= self.beta_end < 1.0):
            raise ValueError("betas must satisfy 0 < start <= end < 1")
        betas = np.linspace(self.beta_start, self.beta_end, self.timesteps)
        alphas = 1.0 - betas
        alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(self.betas)

    @staticmethod
    def desk_default(timesteps: int = 200) -> "NoiseSchedule":
        """Schedule whose cumulative noise profile matches the 1000-step
        reference, so the terminal state is essentially pure noise even at
        reduced step counts."""
        scale = _REFERENCE_T / timesteps
        return NoiseSchedule(timesteps, 1e-4 * scale, 0.02 * scale)


def forward_noise(ci0, t, eps, sched: NoiseSchedule):
    """Closed-form noising: sqrt(abar_t) ci0 + sqrt(1 - abar_t) eps; t=0 is identity.

    ``t`` is one step for a (k, 3) image, or one step per image of a
    (B, k, 3) batch.
    """
    t = np.asarray(t)
    if ((t < 0) | (t > sched.timesteps)).any():
        raise ValueError(f"t={t} outside [0, {sched.timesteps}]")
    ci0 = np.asarray(ci0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != ci0.shape:
        raise ValueError("noise must match the centerline image shape")
    ab = sched.alpha_bars[t][..., None, None]
    return np.sqrt(ab) * ci0 + np.sqrt(1.0 - ab) * eps


class VolumeFeatureEncoder:
    """Handcrafted per-point conditioning: intensity, central-difference
    gradient at one voxel step, and the 3x3x3 patch mean (5 values)."""

    n_features = 5

    def __init__(self, vol: Volume):
        self.vol = vol

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return _encode_features([self], pts[None])[0]


# a point's voxel taps i0 - 1 .. i0 + 2 on each axis, and three weight rows
# over them in terms of the fractions f and g = 1 - f: the centre lookup
# [0, g, f, 0], the +1 step minus the -1 step [-g, -f, g, f] and the sum of the
# -1, 0, +1 lookups [g, 1, 1, f], each contracting the last axis of a block
_TAPS = np.arange(-1, 3)


def _centre(a, g, f):
    return g * a[..., 1] + f * a[..., 2]


def _step(a, g, f):
    return g * (a[..., 2] - a[..., 0]) + f * (a[..., 3] - a[..., 1])


def _box(a, g, f):
    return g * a[..., 0] + a[..., 1] + a[..., 2] + f * a[..., 3]


def _encode_features(encoders, points) -> np.ndarray:
    """Features of a batch of point sets (B, n, 3), row b in ``encoders[b]``'s
    volume.  Returns (B, n, 5).

    The 33 lookups (the 3x3x3 patch and the six one-voxel steps) are whole
    voxels apart, and a trilinear lookup at a clamped coordinate equals one on
    the edge-replicated volume.  So with q clipped to [-1, dims], all 33 share
    the weights of f = q - floor(q) and read only the 4x4x4 block of taps
    floor(q) - 1 .. floor(q) + 2, each clamped to the grid: one ``take`` per
    row, then the weight rows contract x, y and z.
    """
    if not np.isfinite(points).all():
        raise ValueError("non-finite sample point")
    vols = [enc.vol for enc in encoders]
    origin = np.array([vol.origin for vol in vols])[:, None]
    spacing = np.array([vol.spacing for vol in vols])[:, None]
    dims = np.array([vol.dims for vol in vols])[:, None]
    # beyond one voxel outside, every lookup of a point reads the edge alone
    q = np.minimum(np.maximum((points - origin) / spacing, -1.0), dims)
    i0 = np.floor(q)
    f = q - i0
    g = 1.0 - f
    taps = np.minimum(np.maximum(i0.astype(np.int64)[..., None] + _TAPS, 0), dims[..., None] - 1)
    # flat index x + nx * (y + ny * z) of the (B, n, z, y, x) block of taps
    nx, ny = dims[..., :1], dims[..., 1:2]
    taps *= np.concatenate([np.ones_like(nx), nx, nx * ny], axis=-1)[..., None]
    idx = taps[..., 2, :, None, None] + taps[..., 1, None, :, None] + taps[..., 0, None, None, :]
    block = np.stack([vol.data.take(rows) for vol, rows in zip(vols, idx)]).astype(np.float64)

    wx = g[..., 0, None, None], f[..., 0, None, None]
    wy = g[..., 1, None], f[..., 1, None]
    wz = g[..., 2], f[..., 2]
    cx = _centre(block, *wx)
    cc = _centre(cx, *wy)
    dc = _centre(_step(block, *wx), *wy)
    cd = _step(cx, *wy)
    grad = np.stack([_centre(dc, *wz), _centre(cd, *wz), _step(cc, *wz)], axis=-1) / (2.0 * spacing)
    patch = _box(_box(_box(block, *wx), *wy), *wz) / 27.0
    return np.concatenate([_centre(cc, *wz)[..., None], grad, patch[..., None]], axis=-1)


def time_embedding(t, dim: int = 16) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape (..., dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class MlpDenoiser:
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
        shapes = {
            "w1": (hidden, self.d_in), "b1": (hidden,),
            "w2": (hidden, hidden), "b2": (hidden,),
            "w3": (self.d_out, hidden), "b3": (self.d_out,),
        }
        self._layout, pos = {}, 0
        for key, shape in shapes.items():
            self._layout[key] = (slice(pos, pos + math.prod(shape)), shape)
            pos += math.prod(shape)
        self.flat = np.zeros(pos)
        self.params = self._views(self.flat)
        rng = np.random.default_rng(seed)
        for key in ("w1", "w2", "w3"):  # xavier uniform, biases stay zero
            n_out, n_in = shapes[key]
            s = np.sqrt(6.0 / (n_in + n_out))
            self.params[key][...] = rng.uniform(-s, s, size=(n_out, n_in))

    def _views(self, buf: np.ndarray) -> dict:
        """Named views into a buffer laid out like ``flat``."""
        return {key: buf[sl].reshape(shape) for key, (sl, shape) in self._layout.items()}

    def assemble_input(self, ci_t, t, features) -> np.ndarray:
        ci_t = np.asarray(ci_t, dtype=np.float64)
        feats = np.asarray(features, dtype=np.float64)
        if ci_t.ndim == 2:
            ci_t = ci_t[None]
            feats = feats[None]
        b = ci_t.shape[0]
        emb = time_embedding(t, self.time_dim)
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

    def backward(self, cache, d_out: np.ndarray) -> np.ndarray:
        """Gradient of the loss as one array laid out like ``flat``."""
        x, h1, h2 = cache
        p = self.params
        grad = np.empty_like(self.flat)
        g = self._views(grad)
        np.matmul(d_out.T, h2, out=g["w3"])
        d_out.sum(axis=0, out=g["b3"])
        dh2 = d_out @ p["w3"]
        dz2 = dh2 * (1.0 - h2 * h2)
        np.matmul(dz2.T, h1, out=g["w2"])
        dz2.sum(axis=0, out=g["b2"])
        dh1 = dz2 @ p["w2"]
        dz1 = dh1 * (1.0 - h1 * h1)
        np.matmul(dz1.T, x, out=g["w1"])
        dz1.sum(axis=0, out=g["b1"])
        return grad

    def predict(self, ci_t, t, features) -> np.ndarray:
        single = np.asarray(ci_t).ndim == 2
        x = self.assemble_input(ci_t, t, features)
        out, _ = self.forward(x)
        out = out.reshape(-1, self.k_points, 3)
        return out[0] if single else out


@dataclass(frozen=True)
class TrainingPair:
    """One supervised sample: a clean centerline image plus its volume context."""

    ci0: np.ndarray
    encoder: VolumeFeatureEncoder
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray

    @staticmethod
    def from_volume(vol: Volume, centerline_points) -> "TrainingPair":
        lo, hi = vol.bounds()
        return TrainingPair(
            ci0=encode_image(centerline_points, lo, hi),
            encoder=VolumeFeatureEncoder(vol),
            bounds_lo=lo,
            bounds_hi=hi,
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.iterations < 1:
            raise ValueError("train config rates and counts must be positive")


def _common_k(pairs, denoiser=None) -> int:
    """The point count k shared by every pair's centerline and the denoiser."""
    ks = sorted({pair.ci0.shape[0] for pair in pairs})
    if len(ks) > 1:
        raise ValueError(f"centerlines of different point counts together: k={ks}")
    k = ks[0]
    if denoiser is not None and denoiser.k_points != k:
        raise ValueError(f"denoiser takes k={denoiser.k_points} points, the centerlines have k={k}")
    return k


def loss_and_grads(pairs, denoiser, sched: NoiseSchedule, rng) -> tuple[float, np.ndarray | None]:
    """Mean squared noise-prediction error over a batch.

    Per sample, t ~ U{1..T} and eps ~ N(0, I); the conditioning features
    are looked up at the noisy points' denormalized world positions, for
    the whole batch in one pass.  For the MLP denoiser the analytic
    gradient is returned, laid out like ``denoiser.flat``; for predict-only
    denoisers (oracles) it is None.
    """
    if not pairs:
        raise ValueError("empty batch")
    b = len(pairs)
    k = _common_k(pairs, denoiser)
    ts = np.empty(b, dtype=np.int64)
    eps = np.empty((b, k, 3))
    for i in range(b):
        ts[i] = rng.integers(1, sched.timesteps + 1)
        eps[i] = rng.standard_normal((k, 3))
    ci_t = forward_noise(np.stack([pair.ci0 for pair in pairs]), ts, eps, sched)
    lo = np.stack([pair.bounds_lo for pair in pairs])[:, None]
    hi = np.stack([pair.bounds_hi for pair in pairs])[:, None]
    feats = _encode_features([pair.encoder for pair in pairs], decode_image(ci_t, lo, hi))
    targets = eps.reshape(b, k * 3)

    if not isinstance(denoiser, MlpDenoiser):
        preds = denoiser.predict(ci_t, ts, feats).reshape(b, k * 3)
        resid = preds - targets
        return float(np.mean(resid * resid)), None

    out, cache = denoiser.forward(denoiser.assemble_input(ci_t, ts, feats))
    resid = out - targets
    loss = float(np.mean(resid * resid))
    d_out = 2.0 * resid / resid.size
    return loss, denoiser.backward(cache, d_out)


class TrainingDiverged(RuntimeError):
    pass


def train(dataset, cfg: TrainConfig, sched: NoiseSchedule, log_every: int = 100):
    """Adam-style optimization of the denoiser; deterministic for a seed.

    Returns (denoiser, curve) where curve rows are (iteration, loss,
    smoothed loss over the trailing 100 iterations).  Aborts at the first
    non-finite loss, and when the loss stays above 10x its initial value
    for 500 consecutive iterations.
    """
    if len(dataset) < 1:
        raise ValueError("empty dataset")
    denoiser = MlpDenoiser(_common_k(dataset), VolumeFeatureEncoder.n_features, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    m = np.zeros_like(denoiser.flat)
    v = np.zeros_like(denoiser.flat)
    step = np.empty_like(denoiser.flat)
    scale = np.empty_like(denoiser.flat)
    curve = []
    recent = []
    initial_loss = None
    bad_streak = 0
    for it in range(1, cfg.iterations + 1):
        idx = rng.integers(0, len(dataset), size=cfg.batch_size)
        batch = [dataset[i] for i in idx]
        loss, g = loss_and_grads(batch, denoiser, sched, rng)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"loss became {loss} at iteration {it}")
        if initial_loss is None:
            initial_loss = loss
        bad_streak = bad_streak + 1 if loss > 10.0 * initial_loss else 0
        if bad_streak >= 500:
            raise TrainingDiverged(
                f"loss {loss:.4g} stayed above 10x initial ({initial_loss:.4g}) "
                f"for 500 iterations (at iteration {it})"
            )
        # Adam in place through two scratch buffers; every operation keeps the
        # operands and order of m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
        # flat -= (lr mhat) / (sqrt(vhat) + eps), which checkpoints are pinned to
        m *= _BETA1
        np.multiply(g, 1 - _BETA1, out=step)
        m += step
        v *= _BETA2
        np.multiply(g, 1 - _BETA2, out=step)
        step *= g
        v += step
        np.divide(v, 1 - _BETA2 ** it, out=scale)
        np.sqrt(scale, out=scale)
        scale += _ADAM_EPS
        np.divide(m, 1 - _BETA1 ** it, out=step)
        step *= cfg.learning_rate
        step /= scale
        denoiser.flat -= step
        recent.append(loss)
        if len(recent) > 100:
            recent.pop(0)
        if it % log_every == 0 or it == cfg.iterations:
            curve.append((it, loss, float(np.mean(recent))))
    return denoiser, curve


def sample(
    vol: Volume,
    encoder,
    denoiser,
    sched: NoiseSchedule,
    rng,
    deterministic: bool = False,
    x_init: np.ndarray | None = None,
):
    """Ancestral sampling of a centerline conditioned on the volume.

    Starts from unit Gaussian noise (or ``x_init``), re-looks up features at
    the current denormalized positions each step, and returns the decoded
    polyline.  The noise injection is skipped at the final step and, when
    ``deterministic`` is set, at every step.  An MLP denoiser that takes
    another feature count than the encoder gives fails before any draw.
    """
    if isinstance(denoiser, MlpDenoiser) and denoiser.n_features != encoder.n_features:
        raise ValueError(f"denoiser takes n_features={denoiser.n_features} per point, "
                         f"the encoder gives n_features={encoder.n_features}")
    k = denoiser.k_points
    lo, hi = vol.bounds()
    x = rng.standard_normal((k, 3)) if x_init is None else np.array(x_init, dtype=np.float64)
    for t in range(sched.timesteps, 0, -1):
        pos = decode_image(x, lo, hi)
        feats = encoder(pos)
        eps_hat = denoiser.predict(x, t, feats)
        beta = sched.betas[t - 1]
        alpha = sched.alphas[t - 1]
        abar = sched.alpha_bars[t]
        x = (x - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(alpha)
        if t > 1 and not deterministic:
            x = x + sched.sigmas[t - 1] * rng.standard_normal((k, 3))
        if not np.isfinite(x).all():
            raise RuntimeError(f"sampling state became non-finite at step t={t}")
    return decode_image(x, lo, hi)


class OracleDenoiser:
    """Perfect denoiser for one known sample: given the current state, it
    returns the exact noise that would have produced it from ci0 by the
    closed-form forward process."""

    def __init__(self, ci0: np.ndarray, sched: NoiseSchedule):
        self.ci0 = np.asarray(ci0, dtype=np.float64)
        self.sched = sched
        self.k_points = self.ci0.shape[0]

    def predict(self, ci_t, t, features) -> np.ndarray:
        """Noise of a (k, 3) image at step t, or of a (B, k, 3) batch at (B,) steps."""
        ab = self.sched.alpha_bars[t][..., None, None]
        return (np.asarray(ci_t) - np.sqrt(ab) * self.ci0) / np.sqrt(1.0 - ab)


# ---------------------------------------------------------------------------
# checkpoints: JSON header + little-endian float32 parameter payload


def save_checkpoint(denoiser: MlpDenoiser, sched: NoiseSchedule, path_stem, seed: int = 0) -> None:
    stem = Path(path_stem)
    header = {
        "k_points": denoiser.k_points,
        "n_features": denoiser.n_features,
        "hidden": denoiser.hidden,
        "time_dim": denoiser.time_dim,
        "schedule": {
            "timesteps": sched.timesteps,
            "beta_start": sched.beta_start,
            "beta_end": sched.beta_end,
        },
        "seed": seed,
        "payload_dtype": "f32le",
    }
    stem.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    payload = denoiser.flat.astype("<f4")
    stem.with_suffix(".f32").write_bytes(payload.tobytes())


def load_checkpoint(path_stem) -> tuple[MlpDenoiser, NoiseSchedule]:
    stem = Path(path_stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("payload_dtype") != "f32le":
        raise ValueError("unknown checkpoint payload dtype")
    den = MlpDenoiser(
        k_points=int(header["k_points"]),
        n_features=int(header["n_features"]),
        hidden=int(header["hidden"]),
        time_dim=int(header["time_dim"]),
        seed=int(header.get("seed", 0)),
    )
    payload = np.frombuffer(stem.with_suffix(".f32").read_bytes(), dtype="<f4")
    if payload.size != den.flat.size:
        raise ValueError("parameter payload size mismatch")
    den.flat[:] = payload
    s = header["schedule"]
    sched = NoiseSchedule(int(s["timesteps"]), float(s["beta_start"]), float(s["beta_end"]))
    return den, sched
