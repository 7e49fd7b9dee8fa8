"""Forward, inversion, and sampling operators on latents.

All operators index the cumulative retention product alpha_bar (the jump
form of the forward process).  Deterministic-step formulas are sometimes
written with a per-step retention factor instead; both readings coincide on
consecutive steps, and the cumulative one is the only reading consistent
with the one-shot reparameterized forward and with jump plans, so it is the
convention throughout.

Operators work on arrays whose last axis is the latent dimension and are
pure: identical inputs, including the generator state for the stochastic
forward, give identical outputs.  Stochasticity in the deterministic
sampler is fixed at zero.  The plan folds ``run_ddim_sample`` and
``run_ddim_invert`` check nothing themselves: each step checks that its
target lies strictly past the latent's step and within the schedule, so a
repeated, out-of-order or out-of-range plan step raises ParameterError.
The folds run with numpy's overflow and invalid-value warnings off, so a
step that leaves the floats is reported by ``Latent`` alone, with the same
message under any warnings filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .schedule import alpha_bar_ratio


@dataclass(frozen=True)
class Latent:
    """A latent array tagged with its nominal training step."""

    values: np.ndarray
    t: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ParameterError("latent values must be finite")
        if self.t < 0:
            raise ParameterError(f"latent step must be >= 0, got {self.t}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "t", int(self.t))


def forward_reparam(schedule, z: Latent, t_to: int, rng) -> Latent:
    """Stochastic forward jump z.t -> t_to with fresh standard-normal noise.

    Returns sqrt(r) z + sqrt(1-r) eps with r the retention ratio over the
    jump; from t = 0 this is the one-shot reparameterized forward process.
    """
    r = alpha_bar_ratio(schedule, z.t, t_to)
    eps = rng.standard_normal(z.values.shape)
    return Latent(np.sqrt(r) * z.values + np.sqrt(1.0 - r) * eps, t_to)


def _ddim_step(schedule, values, t_from, t_to, eps_hat):
    """Deterministic DDIM update between arbitrary steps.

    Algebraically sqrt(ab_to) * (values - sqrt(1-ab_from) eps) / sqrt(ab_from)
    + sqrt(1-ab_to) eps, arranged so that t_from == t_to is an exact identity
    and an up-step composed with the matching down-step cancels to machine
    precision when eps_hat is state-independent.
    """
    ab = schedule.alpha_bars
    c = np.sqrt(ab[t_to] / ab[t_from])
    coef = np.sqrt(1.0 - ab[t_to]) - c * np.sqrt(1.0 - ab[t_from])
    return c * values + coef * eps_hat


def ddim_sample_step(schedule, z: Latent, t_prev: int, denoiser) -> Latent:
    """One deterministic denoising step from z.t down to t_prev."""
    if not (0 <= t_prev < z.t <= schedule.t_train):
        raise ParameterError(
            f"sample step needs 0 <= t_prev < z.t <= {schedule.t_train}, "
            f"got t_prev={t_prev}, z.t={z.t}"
        )
    eps_hat = denoiser.predict(z.values, z.t)
    return Latent(_ddim_step(schedule, z.values, z.t, t_prev, eps_hat), t_prev)


def ddim_invert_step(schedule, z: Latent, t_next: int, denoiser) -> Latent:
    """One deterministic inversion step from z.t up to t_next."""
    if not (0 <= z.t < t_next <= schedule.t_train):
        raise ParameterError(
            f"invert step needs z.t < t_next <= {schedule.t_train}, "
            f"got t_next={t_next}, z.t={z.t}"
        )
    eps_hat = denoiser.predict(z.values, z.t)
    return Latent(_ddim_step(schedule, z.values, z.t, t_next, eps_hat), t_next)


def run_ddim_sample(schedule, z: Latent, plan, denoiser) -> Latent:
    """Fold ddim_sample_step over a strictly descending list of target steps."""
    with np.errstate(over="ignore", invalid="ignore"):
        for t_prev in plan:
            z = ddim_sample_step(schedule, z, int(t_prev), denoiser)
    return z


def run_ddim_invert(schedule, z: Latent, plan, denoiser) -> Latent:
    """Fold ddim_invert_step over a strictly ascending list of target steps."""
    with np.errstate(over="ignore", invalid="ignore"):
        for t_next in plan:
            z = ddim_invert_step(schedule, z, int(t_next), denoiser)
    return z
