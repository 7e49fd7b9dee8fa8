"""Small trainable noise predictor with manual backpropagation.

Two tanh hidden layers over [latent, sinusoidal time embedding, label_count
input columns that stay zero].  Gradients are hand-derived and checked
against finite differences in the test suite; Adam is the training
optimizer.  Checkpoints are flat little-endian float64 blobs with a
versioned header.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .denoisers import Denoiser, gmm_sample
from .errors import CheckedFields, ParameterError, TrainingDivergedError

CHECKPOINT_MAGIC = b"MLPD"
CHECKPOINT_VERSION = 1
# Magic, version, d, hidden, label_count, t_emb.
_CHECKPOINT_HEADER = struct.Struct("<4sIIIII")

# Weight arrays in declaration (= checkpoint) order.
_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class MlpParams:
    d: int
    hidden: int
    label_count: int
    t_emb: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def arrays(self):
        return [getattr(self, name) for name in _PARAM_NAMES]

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.d, self.hidden, self.label_count, self.t_emb,
            *[a.copy() for a in self.arrays()],
        )


@dataclass(frozen=True)
class TrainConfig(CheckedFields):
    """The ``[train]`` section, ``iterations``, and the fixed training recipe.

    The network size, Adam learning rate and batch are the stand-in
    network's constants, as a pretrained model fixes its own.
    """

    learning_rate: ClassVar[float] = 2e-3
    batch_size: ClassVar[int] = 256
    hidden: ClassVar[int] = 64
    time_embed: ClassVar[int] = 16
    iterations: int = field(default=6000, metadata={"min": 1})


def init_mlp(d, hidden, label_count, rng, t_emb=16) -> MlpParams:
    """Glorot-uniform weights, zero biases; deterministic given the stream."""
    n_in = d + t_emb + label_count

    def glorot(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    return MlpParams(
        d=int(d), hidden=int(hidden), label_count=int(label_count), t_emb=int(t_emb),
        w1=glorot(n_in, hidden), b1=np.zeros(hidden),
        w2=glorot(hidden, hidden), b2=np.zeros(hidden),
        w3=glorot(hidden, d), b3=np.zeros(d),
    )


def time_embedding(t, width, out):
    """Sinusoidal features of the raw training step, fixed geometric
    frequencies, written into ``out``, (n, 2 * (width // 2))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = width // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    arg = np.multiply(t[:, None], freqs[None, :], out=out[:, half:])
    np.sin(arg, out=out[:, :half])
    np.cos(arg, out=arg)


class _Activations:
    """The batch-sized arrays of one forward pass over n rows."""

    def __init__(self, params, n):
        # [z, time embedding, label columns]; nothing writes the label columns
        self.x = np.zeros((n, params.w1.shape[0]))
        self.z = self.x[:, :params.d]
        self.h1, self.h2 = np.empty((n, params.hidden)), np.empty((n, params.hidden))
        self.out = np.empty((n, params.d))


class _Workspace(_Activations):
    """The batch-sized arrays of one forward and backward pass over n rows.

    ``train_denoiser`` reuses one per run, so a training step allocates no
    batch-sized array: allocating and freeing them every step put glibc's
    heap trimming, and its page faults, on the step's path.
    """

    def __init__(self, params, n):
        super().__init__(params, n)
        self.g_h, self.sq = np.empty((n, params.hidden)), np.empty((n, params.d))
        self.grads = [np.empty_like(a) for a in params.arrays()]


def _forward(params, z, t, ws):
    n, d, emb = z.shape[0], params.d, params.d + params.t_emb
    x = ws.x
    x[:, :d] = z                    # a no-op when z is ws.z
    time_embedding(np.broadcast_to(t, (n,)), params.t_emb, out=x[:, d:emb])
    h1 = np.matmul(x, params.w1, out=ws.h1)
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = np.matmul(h1, params.w2, out=ws.h2)
    h2 += params.b2
    np.tanh(h2, out=h2)
    out = np.matmul(h2, params.w3, out=ws.out)
    out += params.b3
    return out, (x, h1, h2)


def mlp_predict(params, z, t):
    """Deterministic forward pass; accepts a single vector or a batch."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.shape[-1] != params.d:
        raise ParameterError(f"z has dimension {zb.shape[-1]}, network expects {params.d}")
    out, _ = _forward(params, zb, t, _Activations(params, zb.shape[0]))
    return out[0] if single else out


def loss_and_grads(params, z_t, t, eps_target, ws=None):
    """Squared-error loss mean over batch and dimensions, with gradients.

    Computes in ``ws`` (a fresh workspace when None) and returns its
    gradient arrays, which the next call with the same workspace overwrites.
    """
    if ws is None:
        ws = _Workspace(params, z_t.shape[0])
    out, (x, h1, h2) = _forward(params, z_t, t, ws)
    resid = np.subtract(out, eps_target, out=out)
    loss = float(np.mean(np.multiply(resid, resid, out=ws.sq)))
    g_out = np.multiply(2.0, resid, out=resid)
    g_out /= resid.size
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = ws.grads
    np.matmul(h2.T, g_out, out=g_w3)
    np.sum(g_out, axis=0, out=g_b3)
    g_a2 = np.matmul(g_out, params.w3.T, out=ws.g_h)
    g_a2 *= np.subtract(1.0, np.multiply(h2, h2, out=h2), out=h2)  # g_h2 * (1 - h2 * h2)
    np.matmul(h1.T, g_a2, out=g_w2)
    np.sum(g_a2, axis=0, out=g_b2)
    g_a1 = np.matmul(g_a2, params.w2.T, out=h2)   # h2 is spent
    g_a1 *= np.subtract(1.0, np.multiply(h1, h1, out=h1), out=h1)  # g_h1 * (1 - h1 * h1)
    np.matmul(x.T, g_a1, out=g_w1)
    np.sum(g_a1, axis=0, out=g_b1)
    return loss, ws.grads


class _Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate, shapes):
        self.learning_rate = learning_rate
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.step_count = 0

    def step(self, arrays, grads):
        self.step_count += 1
        bc1 = 1.0 - self.BETA1 ** self.step_count
        bc2 = 1.0 - self.BETA2 ** self.step_count
        for arr, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            arr -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


def train_denoiser(params, source, schedule, cfg: TrainConfig, seed: int):
    """Denoising-objective training loop.

    Each step draws z0 from the source, a uniform step t in 1..t_train and
    fresh noise, forms z_t by the reparameterized forward process, and takes
    one Adam step on ||eps - net(z_t, t)||^2; the draws come from a stream
    seeded by ``seed``.  Returns the trained copy and the per-iteration loss
    trace.
    """
    if source.d != params.d:
        raise ParameterError(f"source dimension {source.d} != network dimension {params.d}")
    params = params.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    adam = _Adam(cfg.learning_rate, [a.shape for a in params.arrays()])
    ab = schedule.alpha_bars
    trace = np.empty(cfg.iterations)
    ws = _Workspace(params, cfg.batch_size)
    z0, eps = np.empty((cfg.batch_size, params.d)), np.empty((cfg.batch_size, params.d))
    for i in range(cfg.iterations):
        gmm_sample(source, cfg.batch_size, rng, out=z0)
        t = rng.integers(1, schedule.t_train + 1, size=cfg.batch_size)
        rng.standard_normal(out=eps)
        # z_t = sqrt(ab_t) z0 + sqrt(1 - ab_t) eps, written where the forward pass reads it
        np.multiply(np.sqrt(ab[t])[:, None], z0, out=z0)
        np.multiply(np.sqrt(1.0 - ab[t])[:, None], eps, out=ws.z)
        np.add(z0, ws.z, out=ws.z)
        loss, grads = loss_and_grads(params, ws.z, t, eps, ws)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss at iteration {i}", loss_trace=trace[:i].copy()
            )
        trace[i] = loss
        adam.step(params.arrays(), grads)
    return params, trace


class MlpDenoiser(Denoiser):
    def __init__(self, params: MlpParams):
        self.params = params

    def predict(self, z, t):
        # The label columns stay because init_mlp's Glorot draws depend on them.
        return mlp_predict(self.params, z, t)


def save_checkpoint(params: MlpParams, path):
    """Write magic, version, layer sizes, then float64-LE weights in order."""
    header = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        params.d, params.hidden, params.label_count, params.t_emb,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> MlpParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = _CHECKPOINT_HEADER.size
    if len(blob) < head_size:
        raise ParameterError(f"checkpoint {path} is truncated")
    magic, version, d, hidden, label_count, t_emb = _CHECKPOINT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise ParameterError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ParameterError(f"unsupported checkpoint version {version}")
    if t_emb < 2 or t_emb % 2:  # time_embedding gives 2 * (t_emb // 2) columns
        raise ParameterError(f"checkpoint {path} has time-embedding width {t_emb}, "
                             "not an even number >= 2")
    n_in = d + t_emb + label_count
    shapes = [(n_in, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, d), (d,)]
    if len(blob) != head_size + 8 * sum(math.prod(shape) for shape in shapes):
        raise ParameterError(f"checkpoint {path} has trailing or missing bytes")
    if not np.all(np.isfinite(np.frombuffer(blob, dtype="<f8", offset=head_size))):
        raise ParameterError(f"checkpoint {path} holds non-finite weights")
    arrays = []
    offset = head_size
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(
            np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            .astype(float).reshape(shape)
        )
        offset += count * 8
    return MlpParams(d, hidden, label_count, t_emb, *arrays)
