"""Noise schedules and the deterministic DDIM pipeline.

Timesteps are 1-based: ``alpha_bar(t)`` is defined for t in [0, T] with
``alpha_bar(0) == 1``, and a reverse step maps z_t to z_{t-1} for t >= 1.
All array operations broadcast over leading axes, so a stack of latents
of shape (n, d) moves through the pipeline as one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, NonFiniteError, ScheduleError, UnknownConditionError

__all__ = [
    "NoiseSchedule",
    "build_schedule",
    "DenoiserModel",
    "ConstantDenoiser",
    "MixtureComponent",
    "AnalyticMixtureDenoiser",
    "GuidanceConfig",
    "cfg_predict",
    "ddim_step",
    "Decoder",
    "IdentityDecoder",
    "LinearDecoder",
    "Pipeline",
]

DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule as its cumulative products alpha_bars[0..T]: 1 at
    t = 0, then strictly decreasing and positive, so every implied beta_t
    lies in (0, 1). Two schedules are equal when their alpha_bars are."""

    alpha_bars: np.ndarray

    def __post_init__(self):
        alpha_bars = np.array(self.alpha_bars, dtype=np.float64)
        alpha_bars.setflags(write=False)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        if alpha_bars.ndim != 1 or alpha_bars.size == 0 or alpha_bars[0] != 1.0:
            raise ScheduleError("alpha_bar at t=0 must be exactly 1")
        if not (np.all(np.diff(alpha_bars) < 0.0) and alpha_bars[-1] > 0.0):
            raise ScheduleError("alpha_bar must be strictly decreasing and positive")

    def __eq__(self, other):
        if not isinstance(other, NoiseSchedule):
            return NotImplemented
        return np.array_equal(self.alpha_bars, other.alpha_bars)

    @property
    def T(self) -> int:
        return self.alpha_bars.size - 1

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise ScheduleError(f"timestep {t} outside [0, {self.T}]")
        return float(self.alpha_bars[t])


def build_schedule(
    T: int,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> NoiseSchedule:
    """Linear beta ramp over T steps with cumulative-product alpha_bars."""
    if T < 1:
        raise ScheduleError(f"schedule needs T >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    alphas = 1.0 - np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(np.concatenate([[1.0], np.cumprod(alphas)]))


class DenoiserModel:
    """Noise predictor interface: eps(z, t, condition) with matching dims."""

    dim: int

    def predict(self, z, t: int, condition=None) -> np.ndarray:
        raise NotImplementedError

    def predict_vjp(self, z, t: int, condition, u) -> np.ndarray:
        """u^T d eps / d z at a single latent z, shape (dim,); optional,
        used by the exact gradient chain. Subclasses without a closed
        form leave this unimplemented."""
        raise NotImplementedError

    def guided_eps(self, t: int, guidance: GuidanceConfig) -> Callable[[np.ndarray], np.ndarray]:
        """The guided prediction at step t as a function of a checked
        float64 latent: the step ``Pipeline``'s plan takes. The default
        runs ``cfg_predict`` and checks the shape of its result, as
        ``ddim_step`` does; a model may return a faster function with
        the same bits."""

        def eps(z):
            out = np.asarray(cfg_predict(self, z, t, guidance), dtype=np.float64)
            if out.shape != z.shape:
                raise DimensionError(f"shape mismatch: {z.shape} vs {out.shape}")
            return out

        return eps


class ConstantDenoiser(DenoiserModel):
    """Predicts the same vector regardless of input; the regime in which
    the one-pass gradient shortcut is exact."""

    def __init__(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim != 1:
            raise DimensionError("constant prediction must be a vector")
        self.value = value
        self.dim = value.size

    def predict(self, z, t: int, condition=None) -> np.ndarray:
        z = _latents_of_width(z, self.dim)
        return np.broadcast_to(self.value, z.shape).copy()

    def predict_vjp(self, z, t: int, condition, u) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: np.ndarray
    var: float  # isotropic variance s^2

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        if not self.weight > 0.0:
            raise ValueError(f"component weight must be positive, got {self.weight}")
        if not self.var > 0.0:
            raise ValueError(f"component variance must be positive, got {self.var}")


class _MixtureTable(NamedTuple):
    """Constants of the noised mixture at one (t, condition)."""

    means: np.ndarray  # (K, d): sqrt(ab_t) mu_k
    variances: np.ndarray  # (K,): ab_t s_k^2 + 1 - ab_t
    log_norm: np.ndarray  # (K,): log w_k - d/2 log(2 pi V_k), w renormalized
    eps_scale: float  # -sqrt(1 - ab_t), maps the log-density gradient to eps


def _component_terms(z, table: _MixtureTable):
    """Each component's unnormalized log posterior at z, shape (..., K),
    and its score -(z - m_k) / V_k, shape (..., K, d)."""
    diff = z[..., None, :] - table.means
    dist2 = np.add.reduce(diff * diff, axis=-1)
    return table.log_norm - 0.5 * dist2 / table.variances, -diff / table.variances[:, None]


def _softmax(log_post):
    """Responsibilities from log posteriors over the last axis; the max
    shift keeps exp finite far from every mode. ``np.add.reduce`` has
    the bits of ``np.sum`` (not so ``np.add.reduceat``)."""
    e = np.exp(log_post - np.maximum.reduce(log_post, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


class AnalyticMixtureDenoiser(DenoiserModel):
    """Exact noise predictor for isotropic Gaussian-mixture data.

    The marginal at step t is sum_k w_k N(sqrt(ab_t) mu_k,
    (ab_t s_k^2 + 1 - ab_t) I), and the optimal prediction is
    -sqrt(1 - ab_t) times its log-density gradient. A condition id
    restricts the mixture to a subset of components (weights
    renormalized); the null condition (None) uses all of them.

    The per-step constants of every condition are tabulated once at
    construction, for t = 1..T of ``schedule``, and are the only source
    of its predictions: the schedule is read-only, the components and
    each condition's indices are stored as tuples, and the condition map
    must not be changed afterwards.
    """

    def __init__(self, components, schedule: NoiseSchedule, condition_map=None):
        if not components:
            raise ValueError("mixture needs at least one component")
        self.components = tuple(components)
        dims = {c.mean.size for c in self.components}
        if len(dims) != 1:
            raise DimensionError(f"component means disagree on dim: {sorted(dims)}")
        self.dim = dims.pop()
        self._schedule = schedule
        self.condition_map = {name: tuple(idxs) for name, idxs in (condition_map or {}).items()}
        for name, idxs in self.condition_map.items():
            if not idxs:
                raise ValueError(f"condition {name!r} maps to no components")
            if any(i < 0 or i >= len(self.components) for i in idxs):
                raise ValueError(f"condition {name!r} has out-of-range indices")
            if len(set(idxs)) < len(idxs):
                raise ValueError(f"condition {name!r} repeats a component")
        self._tables = {
            (t, c): self._table(t, c)
            for c in (None, *self.condition_map)
            for t in range(1, schedule.T + 1)
        }

    @property
    def schedule(self) -> NoiseSchedule:
        return self._schedule

    def _table(self, t: int, condition) -> _MixtureTable:
        ab = self._schedule.alpha_bar(t)
        idxs = range(len(self.components)) if condition is None else self.condition_map[condition]
        w = np.array([self.components[i].weight for i in idxs])
        w = w / w.sum()
        variances = np.array([ab * self.components[i].var + 1.0 - ab for i in idxs])
        return _MixtureTable(
            means=np.sqrt(ab) * np.stack([self.components[i].mean for i in idxs]),
            variances=variances,
            log_norm=np.log(w) - 0.5 * self.dim * np.log(2.0 * np.pi * variances),
            eps_scale=-np.sqrt(1.0 - ab),
        )

    def _table_at(self, t: int, condition) -> _MixtureTable:
        table = self._tables.get((t, condition))
        if table is None:
            if not 1 <= t <= self._schedule.T:
                raise ScheduleError(f"noise prediction at t={t}, outside [1, {self._schedule.T}]")
            raise UnknownConditionError(f"unknown condition {condition!r}")
        return table

    def _responsibilities(self, z, t: int, condition):
        """Posterior component weights of z at step t, the components'
        scores at z, and the table they came from."""
        table = self._table_at(t, condition)
        log_post, scores = _component_terms(z, table)
        return _softmax(log_post), scores, table

    def predict(self, z, t: int, condition=None) -> np.ndarray:
        """Exact eps via log-sum-exp responsibilities."""
        z = _latents_of_width(z, self.dim)
        resp, scores, table = self._responsibilities(z, t, condition)
        return table.eps_scale * np.einsum("...k,...kd->...d", resp, scores)

    def predict_vjp(self, z, t: int, condition, u) -> np.ndarray:
        """Closed-form u^T d eps / d z at a single latent z: eps_scale times the
        symmetric Hessian of log p_t, sum_k r_k (dev_k dev_k^T - I/V_k) with
        dev_k = g_k - g_bar, applied to u in O(K d). Uncentered, as sum_k r_k
        g_k g_k^T - g_bar g_bar^T, it cancels catastrophically far from every mode."""
        z = _latents_of_width(z, self.dim)
        if z.ndim != 1:
            raise DimensionError("the vector-Jacobian product takes a single latent")
        resp, scores, table = self._responsibilities(z, t, condition)
        dev = scores - resp @ scores
        return table.eps_scale * ((resp * (dev @ u)) @ dev - np.sum(resp / table.variances) * u)

    def guided_eps(self, t: int, guidance: GuidanceConfig) -> Callable[[np.ndarray], np.ndarray]:
        """``cfg_predict`` fused, bit for bit: the condition's and the null
        condition's components are stacked into one table, so the
        offsets and log posteriors take one pass, and each condition's
        slice then takes its own softmax and einsum. An unknown
        condition raises here, not at the first call."""
        cond = self._table_at(t, guidance.condition)
        if guidance.null_condition == guidance.condition:
            stacked, parts = cond, (slice(None),)
        else:
            null = self._table_at(t, guidance.null_condition)
            stacked = _MixtureTable(
                *(np.concatenate(pair) for pair in zip(cond[:3], null[:3])), cond.eps_scale
            )
            k = cond.variances.size
            parts = (slice(None, k), slice(k, None))
        w, w_null = guidance.w, 1.0 - guidance.w

        def eps(z):
            log_post, scores = _component_terms(z, stacked)
            eps_each = [
                stacked.eps_scale
                * np.einsum("...k,...kd->...d", _softmax(log_post[..., s]), scores[..., s, :])
                for s in parts
            ]
            # freed before the sums below allocate: at large batches and d
            # that spares the allocator fresh pages (measured at d = 1024)
            del scores
            # with one part the condition is the null condition
            return w * eps_each[0] + w_null * eps_each[-1]

        return eps


@dataclass(frozen=True)
class GuidanceConfig:
    """Classifier-free guidance: scale w, condition id, null condition id."""

    w: float = 7.5
    condition: str | None = None
    null_condition: str | None = None

    def __post_init__(self):
        if not np.isfinite(self.w):
            raise ValueError("guidance scale must be finite")

    def combine(self, at):
        """w * at(condition) + (1 - w) * at(null_condition) for a function
        ``at`` of the condition, which runs once when the two are the same."""
        cond = at(self.condition)
        null = cond if self.null_condition == self.condition else at(self.null_condition)
        return self.w * cond + (1.0 - self.w) * null


def cfg_predict(model: DenoiserModel, z, t: int, g: GuidanceConfig) -> np.ndarray:
    """The guided prediction ``g.combine`` of the model's eps at (z, t)."""
    return g.combine(lambda condition: model.predict(z, t, condition))


def ddim_step(z_t, t: int, eps, sched: NoiseSchedule) -> np.ndarray:
    """Deterministic reverse step from z_t to z_{t-1} given predicted eps."""
    if t < 1:
        raise ScheduleError(f"reverse step needs t >= 1, got {t}")
    z_t = np.asarray(z_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z_t.shape != eps.shape:
        raise DimensionError(f"shape mismatch: {z_t.shape} vs {eps.shape}")
    scale, noise_t, noise_prev = _ddim_coefficients(t, sched)
    return scale * (z_t - noise_t * eps) + noise_prev * eps


def _ddim_coefficients(t: int, sched: NoiseSchedule):
    """sqrt(ab_{t-1} / ab_t), sqrt(1 - ab_t) and sqrt(1 - ab_{t-1}): the
    constants of the reverse step at t."""
    ab_t = sched.alpha_bar(t)
    ab_prev = sched.alpha_bar(t - 1)
    return np.sqrt(ab_prev / ab_t), np.sqrt(1.0 - ab_t), np.sqrt(1.0 - ab_prev)


class Decoder:
    """Maps a clean latent to a sample; adjoint pulls sample-space
    cotangents back to latent space."""

    def decode(self, z0) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, z0, cotangent) -> np.ndarray:
        raise NotImplementedError


class IdentityDecoder(Decoder):
    def decode(self, z0) -> np.ndarray:
        return np.asarray(z0, dtype=np.float64)

    def adjoint(self, z0, cotangent) -> np.ndarray:
        return np.asarray(cotangent, dtype=np.float64)


class LinearDecoder(Decoder):
    """Fixed linear map sample = z0 @ W^T + b with exact adjoint W^T."""

    def __init__(self, weight, offset=None):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimensionError("decoder weight must be a matrix")
        self.offset = (
            np.zeros(self.weight.shape[0])
            if offset is None
            else np.asarray(offset, dtype=np.float64)
        )
        if self.offset.shape != (self.weight.shape[0],):
            raise DimensionError("decoder offset shape mismatch")

    def decode(self, z0) -> np.ndarray:
        # W @ column, one matrix-vector product per latent: a row of a
        # batch gets the bits it gets alone (a batched z0 @ W^T does not)
        z0 = np.asarray(z0, dtype=np.float64)
        return (self.weight @ z0[..., None])[..., 0] + self.offset

    def adjoint(self, z0, cotangent) -> np.ndarray:
        cotangent = np.asarray(cotangent, dtype=np.float64)
        return cotangent @ self.weight


@dataclass(frozen=True)
class Pipeline:
    """Immutable bundle of everything the sampler needs: model, guidance,
    schedule, and decoder. ``forward`` is pure, so repeated calls with the
    same latent are bit-identical. A model that carries a ``schedule``
    (its noise levels) must carry one equal to the pipeline's.

    Construction builds the step plan, the read-only ``plan``: for
    t = T..1, a tuple of the model's ``guided_eps`` and the DDIM constants
    ``(scale, noise_t, noise_prev)`` of ``ddim_step``. A guidance
    condition the model does not know, or a linear decoder whose weight
    does not take the model's dim, raises here."""

    model: DenoiserModel
    guidance: GuidanceConfig
    schedule: NoiseSchedule
    decoder: Decoder = field(default_factory=IdentityDecoder)
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if getattr(self.model, "schedule", self.schedule) != self.schedule:
            raise ScheduleError("the model was built for another schedule than the pipeline's")
        if isinstance(self.decoder, LinearDecoder):
            columns = self.decoder.weight.shape[1]
            if columns != self.dim:
                raise DimensionError(f"decoder weight has {columns} columns, model dim is {self.dim}")
        # a model need not subclass DenoiserModel: one without the hook
        # gets its default
        guided_eps = getattr(type(self.model), "guided_eps", DenoiserModel.guided_eps)
        plan = tuple(
            (guided_eps(self.model, t, self.guidance), *_ddim_coefficients(t, self.schedule))
            for t in range(self.schedule.T, 0, -1)
        )
        object.__setattr__(self, "plan", plan)

    @property
    def dim(self) -> int:
        return self.model.dim

    def denoise(self, z_T) -> np.ndarray:
        """z_T carried to z_0 by the step plan; the input is checked once."""
        z = _latents_of_width(z_T, self.dim)
        _require_finite(z, "z_T")
        for eps_at, scale, noise_t, noise_prev in self.plan:
            eps = eps_at(z)
            z = scale * (z - noise_t * eps) + noise_prev * eps
        return z

    def forward(self, z_T) -> tuple[np.ndarray, np.ndarray]:
        z0 = self.denoise(z_T)
        _require_finite(z0, "denoised latent")
        return z0, self.decoder.decode(z0)


def _latents_of_width(z, dim: int) -> np.ndarray:
    """z as float64 latents of width ``dim``, one or a stack of them."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 0:
        raise DimensionError(f"expected latents of model dim {dim}, got a scalar")
    if z.shape[-1] != dim:
        raise DimensionError(f"latent dim {z.shape[-1]} != model dim {dim}")
    return z


def _require_finite(array: np.ndarray, name: str, where: str = "") -> None:
    if not np.isfinite(array).all():
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise NonFiniteError(f"{name} has {bad} non-finite of {array.size} entries{where}")

