"""Power normalization, AWGN channel, and SNR-to-noise conversion.

The latent of dimension d is mapped onto k = d/2 complex channel symbols.
Under ``complex_paper`` the circularly-symmetric complex noise of variance
sigma_ch^2 per symbol lands as variance sigma_ch^2 / 2 on each real
component; ``real_simplified`` puts sigma_ch^2 on each real component
directly.  Both readings are kept so the noise-budget analysis can be
validated against either.  ``power_normalize`` returns the pair
(values, gamma) and ``awgn_apply`` takes and returns plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckedFields, DegenerateInputError, ParameterError

CHANNEL_MODELS = ("complex_paper", "real_simplified")


@dataclass(frozen=True)
class ChannelConfig(CheckedFields):
    snr_db: float = 5.0
    model: str = field(default="complex_paper", metadata={"choices": CHANNEL_MODELS})


def snr_to_noise_var(snr_db: float) -> float:
    """Channel noise variance at unit signal power: 10^(-snr_db / 10)."""
    if not math.isfinite(snr_db):
        raise ParameterError(f"snr_db must be finite, got {snr_db!r}")
    return float(10.0 ** (-snr_db / 10.0))


def effective_noise_var(sigma_ch2: float, model: str) -> float:
    """Per-real-component noise variance actually injected by awgn_apply."""
    if model not in CHANNEL_MODELS:
        raise ParameterError(f"unknown channel model {model!r}")
    return sigma_ch2 / 2.0 if model == "complex_paper" else float(sigma_ch2)


def power_normalize(z):
    """Scale z to unit average power per component: (values, gamma).

    gamma = 1 / sqrt(mean(z^2)) along the last axis, so it has shape
    z.shape[:-1]; for a batch the scaling is per row.  A zero signal has no
    defined scaling, and neither has a signal with a non-finite entry or
    whose power overflows.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.mean(z * z, axis=-1)
    if np.any(power == 0.0):
        raise DegenerateInputError("cannot power-normalize a zero signal")
    if not np.all(np.isfinite(power)):
        raise DegenerateInputError("cannot power-normalize a signal of non-finite power")
    gamma = 1.0 / np.sqrt(power)
    return z * gamma[..., None], gamma


def awgn_apply(signal, sigma_ch2: float, rng, model: str = "complex_paper") -> np.ndarray:
    """Add white Gaussian channel noise to a (normalized) signal array."""
    if sigma_ch2 < 0:
        raise ParameterError(f"sigma_ch2 must be >= 0, got {sigma_ch2}")
    signal = np.asarray(signal, dtype=float)
    var = effective_noise_var(sigma_ch2, model)
    if model == "complex_paper" and signal.shape[-1] % 2 != 0:
        raise ParameterError(
            f"complex channel needs an even dimension, got {signal.shape[-1]}"
        )
    noise = rng.standard_normal(signal.shape)
    return signal + np.sqrt(var) * noise
