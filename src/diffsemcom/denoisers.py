"""Noise-predictor contract and the analytic Gaussian-mixture denoiser.

The analytic denoiser is the workhorse oracle of the toy system: for a
diagonal Gaussian mixture source the diffused density at any step t is again
a mixture in closed form, so its score (and hence the optimal noise
prediction eps_hat = -sqrt(1 - alpha_bar_t) * score) is exact.  Every
prediction is unconditional.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .schedule import NoiseSchedule

_LOG_2PI = float(np.log(2.0 * np.pi))

# Rows per block of a blocked elementwise pass: the block's temporaries stay
# small (256 KiB at d = 512) and in cache.
BLOCK_ROWS = 64

# Standard deviations from its mean within which a probe of a component keeps
# the score finite (see GaussianMixtureModel).
PROBE_SIGMAS = 8.0


class Denoiser(abc.ABC):
    """Anything that predicts the injected noise from (z, t).

    Inputs are finite: every operator passes the values of a ``Latent``,
    which rejects non-finite entries, so a predictor does not check them.
    """

    @abc.abstractmethod
    def predict(self, z: np.ndarray, t: int) -> np.ndarray:
        """Return eps_hat with the same shape as ``z`` (last axis = dimension)."""


@dataclass(frozen=True)
class GaussianMixtureModel:
    """Diagonal-covariance Gaussian mixture over R^d.

    weights: (J,), positive, summing to 1 within 1e-12.
    means: (J, d).  variances: (J, d), strictly positive (per-dimension),
    with a finite reciprocal.  Each component's second moment, the sum over
    d of mean^2 + variance, must be finite, so that the power of a sample is
    too.  So must the score's pair bound: for every component k, twice the
    sum over d of (reach + |mean_k|)^2 / min(var_k, 1), where reach is the
    largest |mean_j| + PROBE_SIGMAS * sqrt(max(var_j, 1)) over components j.
    It bounds every term of component k's log-density at every step
    (var_t = ab_t var + 1 - ab_t lies between min(var, 1) and max(var, 1))
    for a probe drawn near any component.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a non-empty 1-D array")
        if np.any(w <= 0.0):
            raise ParameterError("all mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ParameterError(f"weights sum to {w.sum()!r}, not 1 within 1e-12")
        if m.shape[0] != w.size or v.shape != m.shape:
            raise ParameterError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, variances {v.shape}"
            )
        if np.any(v <= 0.0):
            raise ParameterError("all variances must be positive")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(1.0 / v)):
                raise ParameterError("a variance's reciprocal is not finite")
            second_moment = np.sum(m * m + v, axis=-1)
            reach = np.max(np.abs(m) + PROBE_SIGMAS * np.sqrt(np.maximum(v, 1.0)), axis=0)
            pair_bound = 2.0 * np.sum((reach + np.abs(m)) ** 2 / np.minimum(v, 1.0), axis=-1)
        if not np.all(np.isfinite(second_moment)):
            raise ParameterError("a component's second moment sum(mean^2 + var) is not finite")
        if not np.all(np.isfinite(pair_bound)):
            raise ParameterError("the score's pair bound 2 * sum((reach + |mean_k|)^2 "
                                 "/ min(var_k, 1)) is not finite")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size


def gmm_sample(model, n, rng, out=None):
    """Draw n i.i.d. samples; deterministic given the generator state.

    Writes them into ``out``, a C-contiguous (n, d) float64 array, or into a
    new one, BLOCK_ROWS rows at a time, so no temporary is (n, d).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    labels = rng.choice(model.n_components, size=int(n), p=model.weights)
    if out is None:
        out = np.empty((int(n), model.d))
    rng.standard_normal(out=out)
    scale = np.sqrt(model.variances)
    for lo in range(0, int(n), BLOCK_ROWS):
        rows, block = labels[lo:lo + BLOCK_ROWS], out[lo:lo + BLOCK_ROWS]
        block *= scale[rows]
        block += model.means[rows]
    return out


def gmm_marginal(model, schedule: NoiseSchedule, t: int) -> GaussianMixtureModel:
    """Mixture after t forward-diffusion steps.

    Component j becomes N(sqrt(ab_t) mu_j, ab_t sigma0_j^2 + (1 - ab_t)) with
    ab_t the cumulative retention at t; weights are unchanged.
    """
    if not (0 <= t <= schedule.t_train):
        raise ParameterError(f"t={t} outside 0..{schedule.t_train}")
    ab = schedule.alpha_bars[t]
    return GaussianMixtureModel(
        model.weights, np.sqrt(ab) * model.means, ab * model.variances + (1.0 - ab)
    )


def _logsumexp(a):
    """log sum_j exp(a[..., j]), shifted by the max over the last axis.

    That axis holds the few mixture components.  It is reduced by one
    in-place pass per component, adding in component order as np.sum does
    for fewer than 8 terms.  a[..., j] is an array even when a is 1-D, so
    the passes also work on a single vector.
    """
    m = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j], out=m)
    e = a - m[..., None]
    np.exp(e, out=e)
    s = e[..., 0].copy()
    for j in range(1, a.shape[-1]):
        s += e[..., j]
    return m + np.log(s)


@dataclass(frozen=True)
class _ScoreTerms:
    """Per-t constants of the diffused mixture's score.

    The log of w_j N(z; mean_j, var_j) is
    (z*z) @ neg_half_ivar + z @ mean_ivar + const_j, so the log-density of
    every component is two (n, d) x (d, J) matmuls.

    The score sum_j resp_j (mean_j - z) / var_j is combined around each
    row's most responsible component k, as
    sum_j resp_j (mean_j - mean_k) / var_j - (z - mean_k) * (resp @ ivar):
    one (n, J*J) x (J*J, d) matmul with ``anchor_diff``, whose block k holds
    (mean_j - mean_k) / var_j, and one (n, J) x (J, d) matmul with ``ivar``.
    Forming z - mean_k first keeps the error relative to
    sum_j resp_j |mean_j - z| / var_j, so a probe next to a mode does not
    cancel mean_k / var_k against z / var_k.
    """

    neg_half_ivar: np.ndarray  # (d, J): -1 / (2 var_j)
    mean_ivar: np.ndarray     # (d, J): mean_j / var_j
    const: np.ndarray         # (J,): log w_j - (sum mean^2/var + log var + log 2 pi) / 2
    means: np.ndarray         # (J, d): the anchors mean_k
    anchor_diff: np.ndarray   # (J*J, d): row k*J + j is (mean_j - mean_k) / var_j
    ivar: np.ndarray          # (J, d): 1 / var_j

    @classmethod
    def at(cls, model, schedule, t):
        mt = gmm_marginal(model, schedule, t)
        m, v = mt.means, mt.variances
        ivar = 1.0 / v
        const = np.log(mt.weights) - 0.5 * np.sum(m * m * ivar + np.log(v) + _LOG_2PI, axis=-1)
        anchor_diff = ((m[None, :, :] - m[:, None, :]) / v).reshape(-1, m.shape[1])
        return cls(np.ascontiguousarray(-0.5 * ivar.T), np.ascontiguousarray((m * ivar).T),
                   const, m, anchor_diff, ivar)


def gmm_score(model, schedule, z, t, cache=None):
    """Gradient of log p_t at z for the diffused mixture.

    Responsibilities are computed in log space so far-from-mode probes at
    large t do not underflow.  They weight the anchored combine matrices of
    ``_ScoreTerms`` in two matmuls, with no per-component pass over z.
    ``cache`` (a dict owned by one model and schedule) keeps the per-t
    terms across calls.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.d:
        raise ParameterError(f"z has dimension {z.shape[-1]}, model has {model.d}")
    terms = None if cache is None else cache.get(t)
    if terms is None:
        terms = _ScoreTerms.at(model, schedule, t)
        if cache is not None:
            cache[t] = terms
    logp = (z * z) @ terms.neg_half_ivar + z @ terms.mean_ivar + terms.const
    logz = _logsumexp(logp)
    resp = np.exp(logp - logz[..., None])  # (..., J)
    # Anchor each row at its most responsible component k; offset is
    # (z - mean_k) * (resp @ ivar).  It is finished before score exists, so
    # at most two (n, d) temporaries are live at once: with a third, glibc
    # trimmed the heap and faulted the pages back on every call.
    j_count = resp.shape[-1]
    rows = resp.reshape(-1, j_count)
    k = rows.argmax(axis=1)
    offset = np.take(terms.means, k, axis=0).reshape(z.shape)
    np.subtract(z, offset, out=offset)
    offset *= resp @ terms.ivar
    # pick[k', j, r] is resp_j on the rows r whose anchor is k', else 0;
    # rows run along the last axis, so the products make long passes
    anchor_mask = (np.arange(j_count)[:, None] == k).astype(float)
    pick = anchor_mask[:, None, :] * np.ascontiguousarray(rows.T)
    score = (pick.reshape(j_count * j_count, -1).T @ terms.anchor_diff).reshape(z.shape)
    score -= offset
    return score


def eps_from_score(score_value, schedule, t):
    """Convert a score into the equivalent noise prediction.

    eps_hat = -sqrt(1 - alpha_bar_t) * score.  Defined for t = 0 too (the
    factor vanishes there), which the inversion loop relies on.
    """
    if not (0 <= t <= schedule.t_train):
        raise ParameterError(f"t={t} outside 0..{schedule.t_train}")
    return -np.sqrt(1.0 - schedule.alpha_bars[t]) * np.asarray(score_value, dtype=float)


class GmmDenoiser(Denoiser):
    """Exact noise predictor for a Gaussian-mixture source."""

    def __init__(self, model: GaussianMixtureModel, schedule: NoiseSchedule):
        self.model = model
        self.schedule = schedule
        self._terms = {}  # t -> _ScoreTerms

    def predict(self, z, t):
        score = gmm_score(self.model, self.schedule, z, t, self._terms)
        return eps_from_score(score, self.schedule, t)
