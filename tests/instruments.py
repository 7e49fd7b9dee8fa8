"""Test instruments: a constant denoiser, the diffused mixture, the mixture
log-density, the empirical SNR and the standard-normal source.  No command
runs them; the tests use them to pin the package's operators from outside.
"""

import math

import numpy as np

from diffsemcom.denoisers import _LOG_2PI, Denoiser, GaussianMixtureModel, _logsumexp
from diffsemcom.errors import ParameterError


class ConstantDenoiser(Denoiser):
    """Predicts a state-independent constant; the DDIM steps become affine."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def predict(self, z, t):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(self.value, z.shape).copy()


def standard_normal_mixture(d):
    """N(0, I_d) as a one-component mixture."""
    return GaussianMixtureModel(np.ones(1), np.zeros((1, d)), np.ones((1, d)))


def gmm_marginal(model, schedule, t):
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


def gmm_log_density(model, z):
    """log p(z) for z of shape (..., d), via log-sum-exp over components."""
    z = np.asarray(z, dtype=float)
    diff = z[..., None, :] - model.means  # (..., J, d)
    v = model.variances
    logp = -0.5 * np.sum(diff * diff / v + np.log(v) + _LOG_2PI, axis=-1)
    return _logsumexp(logp + np.log(model.weights))


def measure_snr(sent, received) -> float:
    """Empirical SNR in dB over a batch; +inf when the noise power is zero,
    -inf when the signal power is zero."""
    sent = np.asarray(sent, dtype=float)
    received = np.asarray(received, dtype=float)
    if sent.shape != received.shape:
        raise ParameterError(f"shape mismatch: {sent.shape} vs {received.shape}")
    noise_power = float(np.sum((received - sent) ** 2))
    if noise_power == 0.0:
        return math.inf
    signal_power = float(np.sum(sent * sent))
    if signal_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_power / noise_power)
