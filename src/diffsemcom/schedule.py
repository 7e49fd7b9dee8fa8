"""Diffusion noise schedules and jump-sampling stride plans.

A schedule is the table of alpha_bar_t, the running product of the per-step
retentions 1 - beta_t over the training steps t in 0..t_train, with
``alpha_bars[0] == 1`` the empty product.  Every step quantity is read from
it: the retention over (t_lo, t_hi] is ``alpha_bar_ratio``.

A stride plan maps a coarse K-step scheduler onto the underlying training
steps: scheduler step s in 1..K corresponds to training step ``timesteps[s-1]``
and scheduler step 0 to training step 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# A training-free system samples a pretrained model, so the model fixes its
# noise schedule (latent-diffusion's scaled-linear betas) and the stride plan.
T_TRAIN, BETA_START, BETA_END, K_STEPS = 1000, 8.5e-4, 0.012, 50


@dataclass(frozen=True)
class NoiseSchedule:
    """The alpha_bar table over ``t_train`` training steps, 0 included."""

    t_train: int
    alpha_bars: np.ndarray


def build_schedule(t_train: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Scaled-linear schedule: sqrt(beta) interpolates linearly, then is squared."""
    if not isinstance(t_train, (int, np.integer)) or t_train < 1:
        raise ParameterError(f"t_train must be a positive integer, got {t_train!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ParameterError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )

    betas = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), t_train) ** 2
    alpha_bars = np.cumprod(np.concatenate([[1.0], 1.0 - betas]))  # [0] is the empty product

    if not np.all(np.diff(alpha_bars[1:]) < 0.0) or alpha_bars[1] >= alpha_bars[0]:
        raise ParameterError(
            f"alpha_bar does not strictly decrease in float64 for betas {beta_start}..{beta_end}")
    alpha_bars.setflags(write=False)
    return NoiseSchedule(t_train=int(t_train), alpha_bars=alpha_bars)


def alpha_bar_ratio(schedule: NoiseSchedule, t_lo: int, t_hi: int) -> float:
    """Return alpha_bar[t_hi] / alpha_bar[t_lo], the retention over (t_lo, t_hi].

    Equals the product of 1 - beta_t over t_lo < t <= t_hi; 1.0 iff t_lo == t_hi.
    """
    if not (0 <= t_lo <= t_hi <= schedule.t_train):
        raise ParameterError(
            f"need 0 <= t_lo <= t_hi <= {schedule.t_train}, got ({t_lo}, {t_hi})"
        )
    return float(schedule.alpha_bars[t_hi] / schedule.alpha_bars[t_lo])


@dataclass(frozen=True)
class StridePlan:
    """Strictly increasing training-step indices for a K-step scheduler."""

    k: int
    timesteps: np.ndarray

    def training_step(self, s: int) -> int:
        """Training step for scheduler step s (s = 0 maps to 0)."""
        if not (0 <= s <= self.k):
            raise ParameterError(f"scheduler step {s} outside 0..{self.k}")
        return 0 if s == 0 else int(self.timesteps[s - 1])

    def ascending_steps(self, s_from: int, s_to: int) -> list[int]:
        """Training steps visited when moving up from scheduler step s_from to s_to."""
        if not (0 <= s_from <= s_to <= self.k):
            raise ParameterError(f"bad scheduler range ({s_from}, {s_to}) for k={self.k}")
        return [int(t) for t in self.timesteps[s_from:s_to]]

    def descending_plan(self, s: int) -> list[int]:
        """Target training steps for sampling from scheduler step s down to 0."""
        if not (0 <= s <= self.k):
            raise ParameterError(f"scheduler step {s} outside 0..{self.k}")
        if s == 0:
            return []
        return [int(t) for t in self.timesteps[:s - 1][::-1]] + [0]


def make_stride_plan(schedule: NoiseSchedule, k: int) -> StridePlan:
    """Uniform stride plan: timesteps[i-1] = round_half_up(i * t_train / k)."""
    t_train = schedule.t_train
    if not isinstance(k, (int, np.integer)) or not (1 <= k <= t_train):
        raise ParameterError(f"k must be in 1..{t_train}, got {k!r}")
    # Exact integer round-half-up: floor(i*T/k + 1/2) = (2*i*T + k) // (2*k).
    ts = [(2 * i * t_train + k) // (2 * k) for i in range(1, k + 1)]
    arr = np.asarray(ts, dtype=np.int64)
    arr.setflags(write=False)
    return StridePlan(k=int(k), timesteps=arr)
