"""End-to-end transmission pipeline and the random-noise baseline.

Encoder: deterministic inversion over the first T_F1 scheduler steps, then
power normalization; it returns the unit-power rows and their per-row gamma
as a pair.  Channel: AWGN.  Decoder: the received signal is taken as the
latent at T_F1 as-is (no de-normalization), forwarded T_F2 further steps,
retagged at the resolved denoising depth T_B, and sampled back to 0.
T_B > T_F means the decoder deliberately starts from a higher nominal noise
level than the latent's tag; that is the noise-level matching under channel
noise.  The receiver's forward leg (T_F1 -> T_F) follows the system, not a
config key: the proposed receiver inverts, the baseline's adds fresh noise.
The receiver is ``receiver_forward``'s forward leg, then ``decode_at``, the
one decoder, from the retag on.  ``run_trial`` resolves T_B from the noise
budget and passes the depth to it, and shares with the trials of its seed,
through a ``SeedMemo``, what does not depend on the SNR, depth or system.
Every DDIM step, in either leg or the decoder, makes one unconditional
denoiser call.
``PipelineConfig`` is a config file's ``[pipeline]`` section; the channel is
a separate argument.

The random-noise baseline is the same pipeline on the split (0, T_F) with a
fresh-noise receiver leg: the normalized source latent is transmitted as-is
and the receiver adds the whole forward noise (``run_baseline_random_noise``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, awgn_apply, power_normalize
from .denoisers import gmm_sample
from .diffusion import Latent, forward_reparam, run_ddim_invert, run_ddim_sample
from .errors import ConfigError, ParameterError
from .metrics import MetricReport, Reference, metric_report
from .noise_budget import NoiseBudget, SplitConfig, compute_noise_budget, select_denoise_steps
from .schedule import K_STEPS


@dataclass(frozen=True)
class PipelineConfig:
    """The ``[pipeline]`` section: the split and the decoding depth, both
    within the plan's K_STEPS steps."""

    t_f1: int = 5
    t_f2: int = 5
    t_b: int | str = "auto"

    def __post_init__(self):
        integer = isinstance(self.t_b, (int, np.integer)) and not isinstance(self.t_b, bool)
        if self.t_b != "auto" and not (integer and self.t_b >= 0):
            raise ConfigError(f"t_b must be 'auto' or an integer >= 0, got {self.t_b!r}")
        # Built here so that its range checks run at construction.
        object.__setattr__(self, "_split", SplitConfig(self.t_f1, self.t_f2))
        if self.split.t_f > K_STEPS:
            raise ConfigError(f"t_f1 + t_f2 = {self.split.t_f} exceeds the plan's "
                              f"{K_STEPS} steps")
        if self.t_b != "auto" and self.t_b > K_STEPS:
            raise ConfigError(f"t_b = {self.t_b} exceeds the plan's {K_STEPS} steps")
        if self.t_b == 0 and self.split.t_f > 0:
            raise ConfigError("t_b = 0 needs an empty split (t_f1 = t_f2 = 0)")

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


def encode_transmit(z0, cfg: PipelineConfig, schedule, plan, denoiser):
    """Transmitter: invert over the first T_F1 plan steps, then power_normalize's pair."""
    z = run_ddim_invert(schedule, Latent(z0, 0), plan.ascending_steps(0, cfg.split.t_f1),
                        denoiser)
    return power_normalize(z.values)


def receiver_forward(y, cfg: PipelineConfig, schedule, plan, denoiser, rng=None) -> Latent:
    """Receiver's forward leg to T_F: inversion, or one fresh-noise jump if given rng."""
    t_f1, t_f = cfg.split.t_f1, cfg.split.t_f
    z = Latent(y, plan.training_step(t_f1))
    if rng is not None and t_f > t_f1:
        return forward_reparam(schedule, z, plan.training_step(t_f), rng)
    return run_ddim_invert(schedule, z, plan.ascending_steps(t_f1, t_f), denoiser)


def decode_at(z_hat: Latent, schedule, plan, denoiser, t_b) -> np.ndarray:
    """Retag the forward leg's latent at t_b, DDIM-sample it; t_b = 0 needs a latent at 0."""
    if t_b == 0 and z_hat.t != 0:
        raise ParameterError("resolved t_b = 0 is only valid for an empty split")
    z = Latent(z_hat.values, plan.training_step(t_b))
    return run_ddim_sample(schedule, z, plan.descending_plan(t_b), denoiser).values


class SeedMemo:
    """What the trials on one stream key, source, n and set of objects share,
    made by the first trial that needs it and kept, except that only the last
    receiver forward leg is kept (a grid runs the trials that share one leg
    in a row)."""

    def __init__(self):
        self._kept = {}
        self._last = None, None

    def kept(self, key, make):
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def last(self, key, make):
        if self._last[0] != key:
            self._last = None, None  # free the previous leg before making the next
            self._last = key, make()
        return self._last[1]


def run_trial(cfg: PipelineConfig, channel: ChannelConfig, source, schedule, plan,
              denoiser, n, rng, fresh_noise=False, memo=None) -> TrialResult:
    """Draw n source latents and push them through the full pipeline.

    The generator is split into fixed-purpose substreams (source, transmitter
    noise, channel, receiver noise) so that two configurations driven by
    identically-keyed streams share their source draws and channel noise.
    Only a ``fresh_noise`` receiver leg draws from the receiver stream.
    ``memo`` is the SeedMemo of the trials on rng's key (a fresh one if None).
    """
    memo = SeedMemo() if memo is None else memo
    # The transmitter draws nothing since it always inverts; its stream is
    # still spawned so that the channel and receiver streams keep their keys.
    k_src, _k_tx, k_ch, k_rx = rng.spawn(4)
    reference = memo.kept("z0", lambda: Reference(gmm_sample(source, n, k_src)))
    x, gamma = memo.kept(("x", cfg.split.t_f1),
                         lambda: encode_transmit(reference.batch, cfg, schedule, plan, denoiser))

    budget = compute_noise_budget(schedule, plan, cfg.split, float(np.mean(gamma)),
                                  channel.noise_var)
    t_b, saturated = cfg.t_b, False
    if t_b == "auto":
        sel = select_denoise_steps(schedule, plan, budget.sigma_tot2)
        t_b, saturated = sel.t_b, sel.saturated
    z_hat = memo.last((cfg.split, channel, fresh_noise), lambda: receiver_forward(
        awgn_apply(x, channel, k_ch), cfg, schedule, plan, denoiser,
        k_rx if fresh_noise else None))
    z_tilde0 = decode_at(z_hat, schedule, plan, denoiser, int(t_b))

    metrics = metric_report(z_tilde0, reference)
    return TrialResult(
        z0=reference.batch, gamma=gamma, z_tilde0=z_tilde0, budget=budget, metrics=metrics,
        t_b_resolved=int(t_b), saturated=saturated,
    )


def run_baseline_random_noise(cfg: PipelineConfig, channel: ChannelConfig, source,
                              schedule, plan, denoiser, n, rng, memo=None) -> TrialResult:
    """Table-I style baseline: transmit z0, add the forward noise at the receiver.

    run_trial with every forward step of cfg's split at the receiver, so a
    baseline driven by an identically-keyed stream is exactly paired with the
    proposed pipeline.
    """
    cfg = replace(cfg, t_f1=0, t_f2=cfg.split.t_f)
    return run_trial(cfg, channel, source, schedule, plan, denoiser, n, rng, fresh_noise=True,
                     memo=memo)
