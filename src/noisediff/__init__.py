"""noisediff: optimize a deterministic diffusion sampler's initial latent
against a bounded score while keeping the latent standard-normal.

The update z' = sqrt(1 - gamma) z + sqrt(gamma) sigma mixes the current
latent with fresh Gaussian noise, so the marginal law never drifts; the
score sets the step size and the gradient picks sigma from a candidate
pool. Submodules: latents (sampling and normality diagnostics),
diffusion (schedules and the DDIM pipeline), scoring (bounded scorers
and latent gradients), optimizers (the main method and four baselines),
analysis (improvement-guarantee checks), experiment/cli (seeded runs,
CSV artifacts, sweeps, plots).
"""

from .analysis import (
    FeasibilityReport,
    check_improvement_condition,
    distribution_report,
    estimate_hessian_bound,
    ratio_quartiles,
    selection_ratio,
)
from .diffusion import (
    AnalyticMixtureDenoiser,
    ConstantDenoiser,
    Decoder,
    DenoiserModel,
    GuidanceConfig,
    IdentityDecoder,
    LinearDecoder,
    MixtureComponent,
    NoiseSchedule,
    Pipeline,
    build_schedule,
    cfg_predict,
    ddim_step,
)
from .errors import (
    ConfigError,
    DegenerateStepError,
    DimensionError,
    GradientUnavailableError,
    InsufficientSampleError,
    InvalidPromptError,
    InvalidScoreError,
    NoiseDiffError,
    NonFiniteError,
    ScheduleError,
    ScorerContractError,
    ScorerUnavailableError,
    UnknownConditionError,
)
from .latents import (
    DistributionReport,
    RngStream,
    as_latent,
    ks_normality,
    moment_diagnostics,
    sample_standard_normal,
)
from .optimizers import (
    BaselineConfig,
    EpochRow,
    NoiseDiffusionConfig,
    TrajectoryRecord,
    apply_update,
    run_baseline,
    run_noise_diffusion,
    select_noise,
    step_difference,
    step_size_gamma,
)
from .scoring import (
    CompositeTargetScorer,
    GradientMode,
    QuadraticSigmoidScorer,
    RemoteScorer,
    Scorer,
    TargetGroup,
    format_vqa_question,
    grad_latent_approx,
    grad_latent_chain,
    grad_latent_fd,
    latent_gradient,
    remote_score,
)

__version__ = "0.1.0"
