"""End-to-end transmission pipeline and the random-noise baseline.

Encoder: deterministic inversion (or stochastic forward, for validation
runs) over the first T_F1 scheduler steps, then power normalization; it
returns the unit-power rows and their per-row gamma as a pair.
Channel: AWGN.  Decoder: the received signal is taken as the latent at
T_F1 as-is (no de-normalization), forwarded T_F2 further steps, retagged at
the resolved denoising depth T_B, and sampled back to 0.  T_B > T_F means
the decoder deliberately starts from a higher nominal noise level than the
latent's tag; that is the noise-level matching under channel noise.
The transmitter (0 -> T_F1) and the receiver (T_F1 -> T_F) run the one
forward leg, ``_forward_leg``.  There is one decode path, ``receive_decode``:
``run_trial`` resolves T_B from the noise budget and passes the depth to it.
Every DDIM step, in either leg or the decoder, makes one unconditional
denoiser call.
``PipelineConfig`` is a config file's ``[pipeline]`` section; the channel is
a separate argument.

The random-noise baseline is the same pipeline on the split (0, T_F) with a
stochastic receiver leg: the normalized source latent is transmitted as-is
and the receiver adds the whole forward noise (``random_noise_config``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ChannelConfig,
    awgn_apply,
    effective_noise_var,
    power_normalize,
    snr_to_noise_var,
)
from .denoisers import gmm_sample
from .diffusion import Latent, forward_reparam, run_ddim_invert, run_ddim_sample
from .errors import ConfigError, check_fields
from .metrics import MetricReport, metric_report
from .noise_budget import NoiseBudget, SplitConfig, compute_noise_budget, select_denoise_steps

TRANSMITTER_MODES = ("ddim_inversion", "stochastic")
RECEIVER_FORWARD_MODES = ("ddim_inversion", "stochastic")

# Projection stream for reported sliced-Wasserstein numbers is fixed so that
# identical runs report identical metrics.
METRIC_SEED = 20318


@dataclass(frozen=True)
class PipelineConfig:
    """The ``[pipeline]`` section: split, depth and the two forward-leg modes."""

    t_f1: int = 5
    t_f2: int = 5
    t_b: int | str = "auto"
    transmitter_mode: str = field(
        default="ddim_inversion", metadata={"choices": TRANSMITTER_MODES})
    receiver_forward_mode: str = field(
        default="ddim_inversion", metadata={"choices": RECEIVER_FORWARD_MODES})

    def __post_init__(self):
        check_fields(self)
        if self.t_b != "auto" and (isinstance(self.t_b, str) or self.t_b < 0):
            raise ConfigError(f"t_b must be 'auto' or an integer >= 0, got {self.t_b!r}")
        # Built here so that its range checks run at construction.
        object.__setattr__(self, "_split", SplitConfig(self.t_f1, self.t_f2))

    @property
    def split(self) -> SplitConfig:
        return self._split


@dataclass
class TrialResult:
    """One trial's artifacts, row-stacked over the n samples of the batch."""

    z0: np.ndarray
    gamma: np.ndarray
    z_tilde0: np.ndarray
    budget: NoiseBudget
    metrics: MetricReport
    t_b_resolved: int
    saturated: bool


def random_noise_config(cfg: PipelineConfig) -> PipelineConfig:
    """The random-noise baseline of cfg: every forward step at the receiver.

    transmitter_mode is kept (with T_F1 = 0 it is never read).
    """
    return replace(cfg, t_f1=0, t_f2=cfg.split.t_f, receiver_forward_mode="stochastic")


def _forward_leg(z, s_from, s_to, mode, schedule, plan, denoiser, rng) -> Latent:
    """Forward z from scheduler step s_from up to s_to (either leg of the split)."""
    if s_to == s_from:
        return z
    if mode == "stochastic":
        return forward_reparam(schedule, z, plan.training_step(s_to), rng)
    return run_ddim_invert(schedule, z, plan.ascending_steps(s_from, s_to), denoiser)


def encode_transmit(z0, cfg: PipelineConfig, schedule, plan, denoiser, rng):
    """Transmitter: forward over the first T_F1 plan steps, then power_normalize's pair."""
    z = _forward_leg(Latent(z0, 0), 0, cfg.split.t_f1, cfg.transmitter_mode,
                     schedule, plan, denoiser, rng)
    return power_normalize(z.values)


def receiver_forward(y, cfg: PipelineConfig, schedule, plan, denoiser, rng) -> Latent:
    """Receiver continues the forward process from the channel output."""
    t_f1 = cfg.split.t_f1
    return _forward_leg(Latent(y, plan.training_step(t_f1)), t_f1, cfg.split.t_f,
                        cfg.receiver_forward_mode, schedule, plan, denoiser, rng)


def resolve_t_b(cfg: PipelineConfig, schedule, plan, gamma, sigma_eff2):
    """(t_b, saturated, budget) for this configuration and measured gamma."""
    budget = compute_noise_budget(schedule, plan, cfg.split, gamma, sigma_eff2)
    if cfg.t_b == "auto":
        sel = select_denoise_steps(schedule, plan, budget.sigma_tot2)
        return sel.t_b, sel.saturated, budget
    return int(cfg.t_b), False, budget


def receive_decode(y, cfg: PipelineConfig, schedule, plan, denoiser, rng, t_b) -> np.ndarray:
    """Receiver: forward continuation, retag at the resolved depth t_b, DDIM sampling."""
    z_hat = receiver_forward(y, cfg, schedule, plan, denoiser, rng)
    if t_b == 0:
        if cfg.split.t_f != 0:
            raise ConfigError("resolved t_b = 0 is only valid for an empty split")
        return z_hat.values
    z = Latent(z_hat.values, plan.training_step(t_b))
    return run_ddim_sample(schedule, z, plan.descending_plan(t_b), denoiser).values


def run_trial(cfg: PipelineConfig, channel: ChannelConfig, source, schedule, plan,
              denoiser, n, rng) -> TrialResult:
    """Draw n source latents and push them through the full pipeline.

    The generator is split into fixed-purpose substreams (source, transmitter
    noise, channel, receiver noise) so that two configurations driven by
    identically-keyed streams share their source draws and channel noise.
    """
    k_src, k_tx, k_ch, k_rx = rng.spawn(4)
    z0 = gmm_sample(source, n, k_src)

    x, gamma = encode_transmit(z0, cfg, schedule, plan, denoiser, k_tx)
    sigma_ch2 = snr_to_noise_var(channel.snr_db)
    y = awgn_apply(x, sigma_ch2, k_ch, channel.model)

    sigma_eff2 = effective_noise_var(sigma_ch2, channel.model)
    t_b, saturated, budget = resolve_t_b(cfg, schedule, plan, float(np.mean(gamma)), sigma_eff2)
    z_tilde0 = receive_decode(y, cfg, schedule, plan, denoiser, k_rx, t_b)

    metrics = metric_report(z_tilde0, z0, np.random.default_rng(METRIC_SEED))
    return TrialResult(
        z0=z0, gamma=gamma, z_tilde0=z_tilde0, budget=budget, metrics=metrics,
        t_b_resolved=t_b, saturated=saturated,
    )


def run_baseline_random_noise(cfg: PipelineConfig, channel: ChannelConfig, source,
                              schedule, plan, denoiser, n, rng) -> TrialResult:
    """Table-I style baseline: transmit z0, add the forward noise at the receiver.

    run_trial on random_noise_config(cfg), so a baseline driven by an
    identically-keyed stream is exactly paired with the proposed pipeline.
    """
    return run_trial(random_noise_config(cfg), channel, source, schedule, plan, denoiser, n, rng)
