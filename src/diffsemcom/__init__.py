"""Desk-scale simulator for diffusion-based semantic communication.

Latents are encoded by deterministic diffusion inversion, cross an AWGN
channel under a unit-power constraint, and are decoded by continuing the
forward process at the receiver and sampling back with a noise-matched step
count.  Includes an exact Gaussian-mixture denoiser, a small trainable one,
the channel-noise budget analysis with Monte-Carlo validation, and a CLI
harness for sweeps and ablations.
"""

from .channel import ChannelConfig, awgn_apply, power_normalize
from .denoisers import (
    Denoiser,
    GaussianMixtureModel,
    GmmDenoiser,
    eps_from_score,
    gmm_marginal,
    gmm_sample,
    gmm_score,
)
from .diffusion import (
    Latent,
    ddim_invert_step,
    ddim_sample_step,
    forward_reparam,
    run_ddim_invert,
    run_ddim_sample,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    InternalConsistencyError,
    ParameterError,
    TrainingDivergedError,
)
from .metrics import MetricReport, metric_report, mmd2_unbiased, mse, sliced_w2
from .mlp import (
    MlpDenoiser,
    MlpParams,
    TrainConfig,
    init_mlp,
    load_checkpoint,
    mlp_predict,
    save_checkpoint,
    train_denoiser,
)
from .noise_budget import (
    NoiseBudget,
    SplitConfig,
    StepSelection,
    compute_noise_budget,
    select_denoise_steps,
    validate_prop1,
)
from .pipeline import (
    PipelineConfig,
    TrialResult,
    encode_transmit,
    receive_decode,
    run_baseline_random_noise,
    run_trial,
)
from .rng import stream
from .schedule import (
    NoiseSchedule,
    StridePlan,
    alpha_bar_ratio,
    build_schedule,
    make_stride_plan,
)

__version__ = "0.1.0"
