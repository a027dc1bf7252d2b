"""Latent optimizers: gradient-selected forward-diffusion updates and the
four comparison methods, all logging the same per-epoch trajectory schema.

The main method never leaves the standard-normal latent family: each
epoch it mixes the current latent with a fresh Gaussian draw,
z' = sqrt(1 - gamma) z + sqrt(gamma) sigma, with the step size driven by
the current score (gamma = 1 - sqrt(s)) and sigma picked from N
candidates by the alignment ratio grad . v / ||v||^2 of the resulting
step difference v = z' - z. The comparison methods are sign-gradient
ascent in an l_inf ball, Adam on a mean/log-scale reparameterization,
fresh resampling, and the same diffusion update with an unselected
random sigma.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diffusion import Pipeline
from .errors import (
    DegenerateStepError,
    DimensionError,
    InvalidScoreError,
    ScorerContractError,
    ScorerUnavailableError,
)
from .latents import RngStream, as_latent
from .scoring import GradientMode, Scorer, checked_score, latent_gradient

__all__ = [
    "NoiseDiffusionConfig",
    "BaselineConfig",
    "EpochRow",
    "TrajectoryRecord",
    "step_size_gamma",
    "step_difference",
    "apply_update",
    "select_noise",
    "run_noise_diffusion",
    "run_baseline",
    "run_lockstep",
    "BASELINE_METHODS",
    "GRADIENT_METHODS",
]

BASELINE_METHODS = ("pgd", "mean-variance", "random-sampling", "random-diffusion")
GRADIENT_METHODS = ("noise-diffusion", "pgd", "mean-variance")  # those that call latent_gradient


@dataclass(frozen=True, kw_only=True)
class _MethodSettings:
    """The epoch count, gradient and logging settings both method
    configs share; a string ``gradient_mode`` becomes its
    ``GradientMode``."""

    epochs: int = 50  # M
    gradient_mode: GradientMode = GradientMode.APPROX_CONSTANT_EPS
    fd_step: float | None = None
    fd_budget: int | None = None
    record_latents: bool = False

    def __post_init__(self):
        # a plain string would slip past the identity test on the mode
        object.__setattr__(self, "gradient_mode", GradientMode(self.gradient_mode))
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.fd_step is not None and not self.fd_step > 0.0:
            raise ValueError(f"fd_step must be > 0, got {self.fd_step}")
        if self.fd_budget is not None and self.fd_budget < 1:
            raise ValueError(f"fd_budget must be >= 1, got {self.fd_budget}")


@dataclass(frozen=True)
class NoiseDiffusionConfig(_MethodSettings):
    """Knobs for the main optimizer.

    ``strict_improvement`` (extension, off by default) skips epochs whose
    best candidate ratio is negative instead of updating anyway.
    """

    method: ClassVar[str] = "noise-diffusion"
    candidates: int = 50  # N
    v_norm_guard: float = 1e-12
    strict_improvement: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.candidates < 1:
            raise ValueError("need at least one candidate noise")
        if not self.v_norm_guard > 0.0:
            raise ValueError(f"v_norm_guard must be positive, got {self.v_norm_guard}")


@dataclass(frozen=True)
class BaselineConfig(_MethodSettings):
    method: str
    pgd_step: float = 0.05
    pgd_radius: float = 0.5
    mv_learning_rate: float = 0.01
    mv_beta1: float = 0.9
    mv_beta2: float = 0.999
    mv_epsilon: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        if self.method not in BASELINE_METHODS:
            raise ValueError(f"unknown baseline {self.method!r}")
        if not (self.pgd_step >= 0.0 and self.pgd_radius > 0.0):
            raise ValueError("pgd step must be >= 0 and radius > 0")
        if not self.mv_learning_rate > 0.0:
            raise ValueError("mean-variance learning rate must be positive")
        # beta = 1 makes Adam's bias correction 0/0
        if not (0.0 <= self.mv_beta1 < 1.0 and 0.0 <= self.mv_beta2 < 1.0):
            raise ValueError("mean-variance betas must be in [0, 1)")
        if not self.mv_epsilon > 0.0:
            raise ValueError("mean-variance epsilon must be positive")


@dataclass(frozen=True)
class EpochRow:
    """One trajectory row; None marks fields a method does not produce
    (or a skipped epoch), serialized as empty CSV cells."""

    epoch: int
    score: float
    best_score: float
    gamma: float | None = None
    selected_ratio: float | None = None
    grad_norm: float | None = None
    v_norm: float | None = None
    wall_ms: float = 0.0


@dataclass
class TrajectoryRecord:
    """Full log of one optimizer run plus the best artifacts found."""

    method: str
    rows: list[EpochRow] = field(default_factory=list)
    best_score: float = float("nan")
    best_latent: np.ndarray | None = None
    best_sample: np.ndarray | None = None
    final_latent: np.ndarray | None = None
    failure: str | None = None  # the scorer failure that ended the run
    latents: list[np.ndarray] | None = None

    @property
    def incomplete(self) -> bool:
        return self.failure is not None

    def epochs_to(self, threshold: float) -> int:
        """First epoch whose best score reaches ``threshold``; -1 if never."""
        for row in self.rows:
            if row.best_score >= threshold:
                return row.epoch
        return -1

    def selected_ratios(self) -> np.ndarray:
        return np.array(
            [r.selected_ratio for r in self.rows if r.selected_ratio is not None]
        )

    def validate(self):
        best = -np.inf
        for i, row in enumerate(self.rows):
            if row.epoch != i:
                raise ValueError(f"rows out of order at index {i}")
            if row.best_score < best:
                raise ValueError(f"best_score decreased at epoch {row.epoch}")
            best = row.best_score
        return self


def step_size_gamma(s: float) -> float:
    """Score-aware step size 1 - sqrt(s): full jump at score 0, frozen at
    score 1."""
    if not (0.0 <= s <= 1.0) or not np.isfinite(s):
        raise InvalidScoreError(f"score must be in [0, 1], got {s!r}")
    return 1.0 - float(np.sqrt(s))


def _update_inputs(z, gamma: float, sigma):
    """``z`` and ``sigma`` as float64 arrays, after checking that sigma,
    or each of its rows, has z's shape and that gamma is in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if z.shape not in (sigma.shape, sigma.shape[1:]):
        raise DimensionError(f"shape mismatch: {z.shape} vs {sigma.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidScoreError(f"gamma must be in [0, 1], got {gamma!r}")
    return z, sigma


def step_difference(z, gamma: float, sigma) -> np.ndarray:
    """v = (sqrt(1 - gamma) - 1) z + sqrt(gamma) sigma, the displacement
    the update would produce; for an (N, d) ``sigma``, one row per
    candidate."""
    z, sigma = _update_inputs(z, gamma, sigma)
    # one temporary, added to in place (IEEE addition commutes, so the
    # bits are those of the formula as written)
    v = np.sqrt(gamma) * sigma
    v += (np.sqrt(1.0 - gamma) - 1.0) * z
    return v


def apply_update(z, gamma: float, sigma) -> np.ndarray:
    """z' = sqrt(1 - gamma) z + sqrt(gamma) sigma; standard-normal in,
    standard-normal out, for any gamma in [0, 1]."""
    z, sigma = _update_inputs(z, gamma, sigma)
    return np.sqrt(1.0 - gamma) * z + np.sqrt(gamma) * sigma


def _alignment(grad, steps: np.ndarray, v_norm_guard: float) -> tuple[np.ndarray, np.ndarray]:
    """(grad . v / ||v||^2, ||v||^2) per row v of the (N, d) ``steps``; the stacked
    matmul runs ``grad @ v``'s and ``v @ v``'s ddot per row (gemv would not)."""
    if not v_norm_guard > 0.0:
        raise ValueError(f"v_norm_guard must be > 0, got {v_norm_guard}")
    grad = np.asarray(grad, dtype=np.float64)
    if steps.ndim != 2 or grad.shape != steps.shape[1:]:
        raise DimensionError(f"steps {steps.shape} are not (N, d) for gradient {grad.shape}")
    vv = (steps[:, None, :] @ steps[:, :, None])[:, 0, 0]
    if np.all(vv < v_norm_guard):
        raise DegenerateStepError("all step differences were near zero")
    with np.errstate(divide="ignore", invalid="ignore"):
        return (grad @ steps[:, :, None])[:, 0] / vv, vv


def select_noise(
    grad, z, gamma: float, candidates, v_norm_guard: float = 1e-12
) -> tuple[int, float]:
    """Pick the candidate maximizing grad . v_i / ||v_i||^2.

    ``candidates`` is an (N, d) array or a list of N d-vectors, selected
    from as one block. The guard must be > 0; candidates whose step
    difference has squared norm below it are skipped, NaN and -inf ratios
    never win, and ties go to the lowest index. Raises
    DegenerateStepError if nothing survives (caller resamples).
    """
    if len(candidates) == 0:
        raise DegenerateStepError("no candidate noises to select from")
    try:
        sigmas = np.asarray(candidates, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"candidates of unequal shapes: {exc}") from exc
    ratios, vv = _alignment(grad, step_difference(z, gamma, sigmas), v_norm_guard)
    ratios[(vv < v_norm_guard) | np.isnan(ratios)] = -np.inf
    index = int(np.argmax(ratios))  # the first maximum
    if ratios[index] == -np.inf:
        raise DegenerateStepError("every candidate ratio was NaN or -inf")
    return index, float(ratios[index])


@dataclass
class _Seed:
    """One seed's place in the lockstep loop: its step, its current
    latent with that latent's score and ``(z0, sample)`` pair, and the
    trajectory so far."""

    step: Callable
    z: np.ndarray
    rec: TrajectoryRecord
    score: float = float("nan")
    forward: tuple | None = None
    moved: np.ndarray | None = None  # this epoch's new latent, None if skipped
    fields: tuple = (None, None, None, None)
    wall_ms: float = 0.0

    def guarded(self, fn, *args):
        """``fn(*args)``, or None after a scorer outage or contract
        violation, which ends this seed alone with its partial
        trajectory flagged incomplete."""
        try:
            return fn(*args)
        except (ScorerUnavailableError, ScorerContractError) as exc:
            self.rec.failure = f"{type(exc).__name__}: {exc}"
            return None


def _gradient(z, pipeline, scorer, cfg: _MethodSettings, rng: RngStream, epoch, forward):
    """``latent_gradient`` in ``cfg``'s mode, and its norm. With a probe
    budget below the dimension, finite differences probe a seeded
    coordinate subset drawn afresh each epoch."""
    coords = None
    if (
        cfg.gradient_mode is GradientMode.FINITE_DIFFERENCE
        and cfg.fd_budget is not None
        and cfg.fd_budget < z.size
    ):
        gen = rng.fork("fd-coords").generator(epoch)
        coords = np.sort(gen.choice(z.size, size=cfg.fd_budget, replace=False))
    grad = latent_gradient(
        z, pipeline, scorer, cfg.gradient_mode, h=cfg.fd_step, coords=coords,
        forward=forward,
    )
    return grad, float(np.linalg.norm(grad))


def _noise_diffusion_step(z_T, pipeline, scorer, cfg: NoiseDiffusionConfig, rng: RngStream):
    """One seed's noise-diffusion step (the start latent is not needed)."""

    def step(epoch, z, score, forward):
        gamma = step_size_gamma(score)
        grad, grad_norm = _gradient(z, pipeline, scorer, cfg, rng, epoch, forward)
        for attempt in range(2):
            first = attempt * cfg.candidates
            candidates = rng.normal_block(
                z.size, epoch, rows=range(first, first + cfg.candidates)
            )
            try:
                index, ratio = select_noise(grad, z, gamma, candidates, cfg.v_norm_guard)
            except DegenerateStepError:
                continue
            if cfg.strict_improvement and ratio < 0.0:
                return None, gamma, ratio, grad_norm, None
            sigma = candidates[index]
            v = step_difference(z, gamma, sigma)
            return apply_update(z, gamma, sigma), gamma, ratio, grad_norm, float(np.linalg.norm(v))
        # both candidate batches degenerate: skip the epoch
        return None, gamma, None, grad_norm, None

    return step


def _baseline_step(z_T, pipeline, scorer, cfg: BaselineConfig, rng: RngStream):
    """One seed's step of ``cfg.method``; pgd and mean-variance work
    relative to the start latent, and mean-variance keeps its Adam state
    in the closure."""
    z_init = as_latent(z_T, dim=pipeline.dim)

    def pgd(epoch, z, score, forward):
        grad, grad_norm = _gradient(z, pipeline, scorer, cfg, rng, epoch, forward)
        z_new = z + cfg.pgd_step * np.sign(grad)
        z_new = np.clip(z_new, z_init - cfg.pgd_radius, z_init + cfg.pgd_radius)
        return z_new, None, None, grad_norm, float(np.linalg.norm(z_new - z))

    mu, rho = np.zeros_like(z_init), np.zeros_like(z_init)
    m, v = np.zeros(2 * z_init.size), np.zeros(2 * z_init.size)  # Adam moments

    def mean_variance(epoch, z, score, forward):
        nonlocal mu, rho, m, v
        grad, grad_norm = _gradient(z, pipeline, scorer, cfg, rng, epoch, forward)
        g = np.concatenate([grad, grad * np.exp(rho) * z_init])
        m = cfg.mv_beta1 * m + (1.0 - cfg.mv_beta1) * g
        v = cfg.mv_beta2 * v + (1.0 - cfg.mv_beta2) * g * g
        m_hat = m / (1.0 - cfg.mv_beta1**epoch)
        v_hat = v / (1.0 - cfg.mv_beta2**epoch)
        update = cfg.mv_learning_rate * m_hat / (np.sqrt(v_hat) + cfg.mv_epsilon)
        mu, rho = mu + update[: z.size], rho + update[z.size :]
        z_new = mu + np.exp(rho) * z_init
        return z_new, None, None, grad_norm, float(np.linalg.norm(z_new - z))

    def random_sampling(epoch, z, score, forward):
        return rng.normal(z.size, epoch), None, None, None, None

    def random_diffusion(epoch, z, score, forward):
        gamma = step_size_gamma(score)
        sigma = rng.normal(z.size, epoch)
        v = step_difference(z, gamma, sigma)
        return apply_update(z, gamma, sigma), gamma, None, None, float(np.linalg.norm(v))

    steps = {
        "pgd": pgd,
        "mean-variance": mean_variance,
        "random-sampling": random_sampling,
        "random-diffusion": random_diffusion,
    }
    return steps[cfg.method]


def run_lockstep(
    starts,
    pipeline: Pipeline,
    scorer: Scorer,
    cfg: NoiseDiffusionConfig | BaselineConfig,
) -> list[TrajectoryRecord]:
    """Run ``cfg.method`` from every ``(z_T, rng)`` start for
    ``cfg.epochs`` epochs, all seeds in lockstep; the records come back
    in start order.

    This is the epoch loop every method shares. Each seed gets its own
    step (and, for mean-variance, its own Adam state), so record k is the
    one ``run_noise_diffusion`` or ``run_baseline`` returns for start k
    alone. Epoch 0 scores each start latent. Each later epoch calls every
    live seed's ``step(epoch, z, score, (z0, sample))``, which returns the
    next latent (None for a skipped epoch) and the epoch's gamma, selected
    ratio, gradient norm and step norm. The latents that moved go through
    one batched ``pipeline.forward``, whose rows have the bits of single
    forwards, and each is scored on its own; a skipped epoch keeps the
    seed's current ``(z0, sample)`` pair. Steps, scores, best-tracking and
    random streams stay per seed. A seed's ``wall_ms`` for an epoch is its
    own step and score time plus its share of the batched forward (the
    forward's time over the rows in it), so a run's ``wall_ms`` add up to
    its loop time. A scorer outage or contract violation ends only the
    seed it came from.
    """
    make_step = _noise_diffusion_step if cfg.method == "noise-diffusion" else _baseline_step
    seeds = []
    for z_T, rng in starts:
        z = as_latent(z_T, dim=pipeline.dim).copy()
        rec = TrajectoryRecord(method=cfg.method, latents=[] if cfg.record_latents else None)
        step = make_step(z_T, pipeline, scorer, cfg, rng)
        seeds.append(_Seed(step, z, rec, moved=z))  # epoch 0 scores the start latent
    live = seeds
    for epoch in range(cfg.epochs + 1):
        if epoch:
            for s in live:
                t0 = time.perf_counter()
                out = s.guarded(s.step, epoch, s.z, s.score, s.forward)
                s.wall_ms = (time.perf_counter() - t0) * 1e3
                if out is not None:
                    s.moved, *s.fields = out
        moved = [s for s in live if not s.rec.incomplete and s.moved is not None]
        if moved:
            t0 = time.perf_counter()
            z0s, samples = pipeline.forward(np.stack([s.moved for s in moved]))
            share = (time.perf_counter() - t0) * 1e3 / len(moved)
            for s, z0, sample in zip(moved, z0s, samples):
                t0 = time.perf_counter()
                s.z, s.forward = s.moved, (z0, sample)
                s.score = s.guarded(checked_score, scorer, sample)
                s.wall_ms += share + (time.perf_counter() - t0) * 1e3
        live = [s for s in live if not s.rec.incomplete]
        for s in live:
            rec = s.rec
            if epoch == 0 or s.score > rec.best_score:
                rec.best_score = s.score
                rec.best_latent = s.z.copy()
                rec.best_sample = np.array(s.forward[1], copy=True)
            rec.final_latent = s.z.copy()
            if cfg.record_latents:
                rec.latents.append(s.z.copy())
            rec.rows.append(EpochRow(epoch, s.score, rec.best_score, *s.fields,
                                     wall_ms=s.wall_ms))
    return [s.rec if s.rec.incomplete else s.rec.validate() for s in seeds]


def run_noise_diffusion(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    cfg: NoiseDiffusionConfig,
    rng: RngStream,
) -> TrajectoryRecord:
    """Run the gradient-selected diffusion update for ``cfg.epochs`` epochs.

    Per epoch: step size from the current score, one gradient
    evaluation (the approximate one reuses the forward that scored the
    current latent), N fresh candidate noises drawn as one block at
    index (epoch, i) from ``rng``, ratio-based selection, update,
    rescore, best-tracking. A degenerate candidate set is resampled once
    (i = N..2N-1) and then the epoch is recorded as skipped; a scorer
    outage or contract violation aborts with the partial trajectory
    flagged incomplete.
    """
    return run_lockstep([(z_T, rng)], pipeline, scorer, cfg)[0]


def run_baseline(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    cfg: BaselineConfig,
    rng: RngStream,
) -> TrajectoryRecord:
    """Run one comparison method for ``cfg.epochs`` epochs.

    pgd: sign-gradient ascent projected onto the l_inf ball around the
    start; mean-variance: Adam ascent on (mu, log-scale) of
    mu + exp(rho) * initial draw; random-sampling: fresh standard-normal
    latent each epoch; random-diffusion: the diffusion update with
    score-driven step size but an unselected random noise.
    """
    return run_lockstep([(z_T, rng)], pipeline, scorer, cfg)[0]
