"""Power normalization and the AWGN channel.

The latent of dimension d is mapped onto k = d/2 complex channel symbols.
Under ``complex_paper`` the circularly-symmetric complex noise of variance
sigma_ch^2 = 10^(-snr_db / 10) per symbol lands as variance sigma_ch^2 / 2
on each real component; ``real_simplified`` puts sigma_ch^2 on each real
component directly.  Both readings are kept so the noise-budget analysis can
be validated against either.  ``ChannelConfig.noise_var`` is the one
derivation of that per-component variance: the channel, the pipeline's
budget and the validator all read it.  ``power_normalize`` returns the pair
(values, gamma) and ``awgn_apply`` takes a plain array and a ``ChannelConfig``
and returns a plain array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckedFields, DegenerateInputError, ParameterError

CHANNEL_MODELS = ("complex_paper", "real_simplified")
# SNR range a config may set: the noise variances 10^300 and 10^-300 are
# normal floats, so the budget neither overflows nor divides by zero.
MIN_SNR_DB, MAX_SNR_DB = -3000.0, 3000.0


@dataclass(frozen=True)
class ChannelConfig(CheckedFields):
    snr_db: float = field(default=5.0, metadata={"min": MIN_SNR_DB, "max": MAX_SNR_DB})
    model: str = field(default="complex_paper", metadata={"choices": CHANNEL_MODELS})

    @property
    def noise_var(self) -> float:
        """Per-real-component noise variance at unit signal power."""
        sigma_ch2 = float(10.0 ** (-self.snr_db / 10.0))
        return sigma_ch2 / 2.0 if self.model == "complex_paper" else sigma_ch2


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


def awgn_apply(signal, channel: ChannelConfig, rng) -> np.ndarray:
    """Add ``channel``'s white Gaussian noise to a (normalized) signal array."""
    signal = np.asarray(signal, dtype=float)
    if channel.model == "complex_paper" and signal.shape[-1] % 2 != 0:
        raise ParameterError(
            f"complex channel needs an even dimension, got {signal.shape[-1]}"
        )
    noise = rng.standard_normal(signal.shape)
    return signal + np.sqrt(channel.noise_var) * noise
