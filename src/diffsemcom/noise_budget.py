"""Noise budget of the split forward process, step selection, and its
Monte-Carlo validation.

For a transmitter that runs the stochastic forward to scheduler step T_F1,
scales each sample to unit power by its gain gamma, crosses an AWGN channel
with per-component variance sigma_eff^2, and then continues the forward
process to T_F = T_F1 + T_F2, the received latent is Gaussian around
gamma * sqrt(ab_F) * z0 with variance

    sigma_eps^2 = 1 - r (1 - gamma^2) - gamma^2 ab_F      (diffusion part)
    sigma_n^2   = r * sigma_eff^2                          (channel part)

where r = ab_F / ab_F1 is the retention over the receiver-side leg.  The
diffusion part is evaluated through the equivalent form
(1 - r) + gamma^2 r (1 - ab_F1), whose terms are all non-negative, so it
does not cancel at a large gamma; the form above is checked against it
within a bound scaled to its largest term, gamma^2 r.

The matched denoising depth T_B is the smallest scheduler step whose nominal
noise level 1 - ab reaches sigma_tot^2 = sigma_eps^2 + sigma_n^2.
``validate_prop1`` checks the budget by simulating this one transmitter.
"""

from __future__ import annotations

import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig
from .denoisers import BLOCK_ROWS, gmm_sample
from .errors import InternalConsistencyError, ParameterError

# Fewest Monte-Carlo samples the validator accepts: below it the 3-sigma
# mean bands and the 3% variance tolerance are too loose to test anything.
MIN_PROP1_SAMPLES = 10_000


@dataclass(frozen=True)
class SplitConfig:
    """Scheduler-step counts of the transmitter / receiver forward legs."""

    t_f1: int
    t_f2: int

    def __post_init__(self):
        if self.t_f1 < 0 or self.t_f2 < 0:
            raise ParameterError(f"split counts must be >= 0, got {self}")

    @property
    def t_f(self) -> int:
        return self.t_f1 + self.t_f2


@dataclass(frozen=True)
class NoiseBudget:
    sigma_eps2: float
    sigma_n2: float
    sigma_tot2: float
    r: float
    gamma_used: float
    mean_coeff: float


def compute_noise_budget(schedule, plan, split: SplitConfig, gamma: float,
                         sigma_eff2: float) -> NoiseBudget:
    """Evaluate the budget formulas with steps resolved through the plan."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if sigma_eff2 < 0:
        raise ParameterError(f"sigma_eff2 must be >= 0, got {sigma_eff2}")
    ab = schedule.alpha_bars
    t1 = plan.training_step(split.t_f1)
    tf = plan.training_step(split.t_f)
    r = float(ab[tf] / ab[t1])
    g2 = gamma * gamma
    sigma_eps2 = float((1.0 - r) + g2 * r * (1.0 - ab[t1]))
    primary = float(1.0 - r * (1.0 - g2) - g2 * ab[tf])
    if abs(primary - sigma_eps2) > 1e-12 * max(1.0, g2 * r):
        raise InternalConsistencyError(
            f"sigma_eps^2 identity violated: {primary} vs {sigma_eps2}")
    sigma_n2 = float(r * sigma_eff2)
    return NoiseBudget(sigma_eps2=sigma_eps2, sigma_n2=sigma_n2, sigma_tot2=sigma_eps2 + sigma_n2,
                       r=r, gamma_used=float(gamma), mean_coeff=float(gamma * np.sqrt(ab[tf])))


@dataclass(frozen=True)
class StepSelection:
    t_b: int
    saturated: bool


def select_denoise_steps(schedule, plan, sigma_tot2: float) -> StepSelection:
    """Smallest scheduler step whose nominal noise level covers sigma_tot2.

    Saturates (flagged, not an error) at k when even the deepest plan step
    falls short, which happens at very low SNR.
    """
    if sigma_tot2 < 0:
        raise ParameterError(f"sigma_tot2 must be >= 0, got {sigma_tot2}")
    levels = 1.0 - schedule.alpha_bars[plan.timesteps]
    idx = int(np.searchsorted(levels, sigma_tot2, side="left"))
    if idx >= plan.k:
        return StepSelection(t_b=plan.k, saturated=True)
    return StepSelection(t_b=idx + 1, saturated=False)


@dataclass
class Prop1Report:
    """Empirical vs predicted moments of the received latent."""

    n_samples: int
    dimension: int
    channel_model: str
    budget: NoiseBudget
    z0: np.ndarray
    emp_mean: np.ndarray
    emp_var: np.ndarray
    pooled_var: float
    var_rel_err: float
    frac_mean_within_band: float

    def passed(self) -> bool:
        """Variance within 3% and the per-dim means inside their 3-sigma
        bands up to the expected handful of outliers (max of 3 and 1% of dims,
        since ~0.27% of dims fall outside 3 sigma for a correct simulator)."""
        outside = round((1.0 - self.frac_mean_within_band) * self.dimension)
        return (self.var_rel_err <= 0.03
                and outside <= max(3, int(0.01 * self.dimension)))

    def summary_line(self) -> str:
        return (
            f"prop1 n={self.n_samples} d={self.dimension} model={self.channel_model} "
            f"gamma={self.budget.gamma_used:.6g} predicted_var={self.budget.sigma_tot2:.6g} "
            f"pooled_var={self.pooled_var:.6g} var_rel_err={self.var_rel_err:.4%} "
            f"mean_within_3sigma={self.frac_mean_within_band:.4%}"
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("dim,empirical_mean_err,empirical_var,predicted_var,rel_err\n")
        pred_mean = self.budget.mean_coeff * self.z0
        pred_var = self.budget.sigma_tot2
        for j in range(self.dimension):
            err = self.emp_mean[j] - pred_mean[j]
            rel = (self.emp_var[j] - pred_var) / pred_var
            out.write(
                f"{j},{err:.12g},{self.emp_var[j]:.12g},{pred_var:.12g},{rel:.12g}\n"
            )
        return out.getvalue()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def validate_prop1(schedule, plan, split: SplitConfig, channel_cfg: ChannelConfig,
                   source, n_samples: int, rng, chunk: int = 4096) -> Prop1Report:
    """Monte-Carlo check of the noise-budget moments for one source latent.

    Draws z0 once, then simulates n_samples independent runs of the
    transmitter the budget models: a stochastic forward to T_F1, per-sample
    power normalization, channel noise of variance sigma_eff^2 per
    component, and a fresh-noise forward jump to T_F.
    """
    if n_samples < MIN_PROP1_SAMPLES:
        raise ParameterError(
            f"validator needs n_samples >= {MIN_PROP1_SAMPLES}, got {n_samples}")

    d = source.d
    ab = schedule.alpha_bars
    t1 = plan.training_step(split.t_f1)
    tf = plan.training_step(split.t_f)
    r = float(ab[tf] / ab[t1])
    sigma_eff2 = channel_cfg.noise_var

    n_chunks = (n_samples + chunk - 1) // chunk
    kids = rng.spawn(1 + n_chunks)
    z0 = gmm_sample(source, 1, kids[0])[0]

    # Chunk c draws only from kids[1 + c] and leaves only its three partial
    # sums, so the chunks run on one thread per usable CPU (numpy's fills
    # and ufuncs release the GIL).  Thread i takes chunks c = i (mod threads)
    # and the sums are reduced in chunk order, so the bits do not depend on
    # the thread count.  The workers call numpy only.
    mean1, scale1 = np.sqrt(ab[t1]) * z0, np.sqrt(1.0 - ab[t1])
    scale_ch = np.sqrt(sigma_eff2)
    keep2, scale2 = np.sqrt(r), np.sqrt(1.0 - r)
    sum_z = [None] * n_chunks
    sum_z2 = [None] * n_chunks
    sum_gamma = [0.0] * n_chunks

    def run_chunks(first, step):
        # One chunk buffer and one block buffer per thread, reused by its
        # chunks: 16 MiB and 256 KiB at d = 512.  Each phase draws its
        # normals for the whole chunk in row order, block by block, which is
        # the stream one draw per phase gives; every product and sum is the
        # one the plain expression a*x + b*y evaluates, reordered.  The sums
        # over rows run on the whole chunk, so their order is unchanged.
        buf_z, buf_w = np.empty((min(chunk, n_samples), d)), np.empty((BLOCK_ROWS, d))
        buf_gamma = np.empty(len(buf_z))
        for c in range(first, n_chunks, step):
            m = min(chunk, n_samples - c * chunk)
            g = kids[1 + c]
            z, gamma = buf_z[:m], buf_gamma[:m]
            blocks = [(z[lo:lo + BLOCK_ROWS], gamma[lo:lo + BLOCK_ROWS])
                      for lo in range(0, m, BLOCK_ROWS)]
            for zb, gb in blocks:
                w = buf_w[:len(zb)]
                g.standard_normal(out=zb)
                zb *= scale1
                zb += mean1                     # z_t1
                np.multiply(zb, zb, out=w)
                gb[:] = 1.0 / np.sqrt(np.mean(w, axis=-1))
                zb *= gb[:, None]
            for zb, _ in blocks:
                w = buf_w[:len(zb)]
                g.standard_normal(out=w)
                w *= scale_ch
                zb += w                         # y
            for zb, _ in blocks:
                w = buf_w[:len(zb)]
                g.standard_normal(out=w)
                w *= scale2
                zb *= keep2
                zb += w                         # z_hat
            sum_z[c] = np.sum(z, axis=0)
            z *= z
            sum_z2[c] = np.sum(z, axis=0)
            sum_gamma[c] = float(np.sum(gamma))

    threads = min(_usable_cpus(), n_chunks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for fut in [pool.submit(run_chunks, i, threads) for i in range(threads)]:
            fut.result()

    total = np.sum(np.stack(sum_z), axis=0)
    total2 = np.sum(np.stack(sum_z2), axis=0)
    emp_mean = total / n_samples
    emp_var = (total2 - n_samples * emp_mean * emp_mean) / (n_samples - 1)
    gamma_used = float(np.sum(sum_gamma) / n_samples)

    budget = compute_noise_budget(schedule, plan, split, gamma_used, sigma_eff2)

    pooled = float(np.mean(emp_var))
    var_rel_err = abs(pooled - budget.sigma_tot2) / budget.sigma_tot2
    band = 3.0 * np.sqrt(budget.sigma_tot2 / n_samples)
    within = np.abs(emp_mean - budget.mean_coeff * z0) <= band
    return Prop1Report(
        n_samples=n_samples,
        dimension=d,
        channel_model=channel_cfg.model,
        budget=budget,
        z0=z0,
        emp_mean=emp_mean,
        emp_var=emp_var,
        pooled_var=pooled,
        var_rel_err=float(var_rel_err),
        frac_mean_within_band=float(np.mean(within)),
    )
