"""Exception types shared across the library.

Each class corresponds to one failure contract; callers catch the narrowest
type they can recover from.
"""


class NoiseDiffError(Exception):
    """Base class for all library errors."""


class DimensionError(NoiseDiffError, ValueError):
    """A latent has the wrong dimension, or two operands disagree."""


class InsufficientSampleError(NoiseDiffError, ValueError):
    """Too few coordinates for the requested statistic."""


class ScheduleError(NoiseDiffError, ValueError):
    """Invalid schedule parameters or a timestep outside [0, T]."""


class UnknownConditionError(NoiseDiffError, ValueError):
    """A condition id that the denoiser's condition map does not define."""


class GradientUnavailableError(NoiseDiffError, RuntimeError):
    """The requested gradient mode needs an analytic gradient or
    vector-Jacobian product that this scorer/denoiser does not provide."""


class NonFiniteError(NoiseDiffError):
    """A latent, gradient, step or score given to the library, or one the
    sampler or a gradient produced, has a non-finite entry (NaN or
    infinity)."""


class ScorerContractError(NoiseDiffError, RuntimeError):
    """A scorer returned a value outside [0, 1] or non-finite."""


class ScorerUnavailableError(NoiseDiffError, RuntimeError):
    """A remote scorer timed out or answered with garbage; retryable."""


class DegenerateStepError(NoiseDiffError, RuntimeError):
    """Every candidate step difference had near-zero norm."""


class InvalidScoreError(NoiseDiffError, ValueError):
    """A score outside [0, 1] was fed to the step-size rule."""


class InvalidPromptError(NoiseDiffError, ValueError):
    """Empty prompt."""


class ConfigError(NoiseDiffError, ValueError):
    """Malformed experiment config; message carries a line number when
    the offending line is known."""
