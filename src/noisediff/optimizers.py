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
from dataclasses import dataclass, field

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
    "BASELINE_METHODS",
]

BASELINE_METHODS = ("pgd", "mean-variance", "random-sampling", "random-diffusion")


@dataclass(frozen=True)
class NoiseDiffusionConfig:
    """Knobs for the main optimizer.

    ``strict_improvement`` (extension, off by default) skips epochs whose
    best candidate ratio is negative instead of updating anyway.
    """

    epochs: int = 50  # M
    candidates: int = 50  # N
    gradient_mode: GradientMode = GradientMode.APPROX_CONSTANT_EPS
    v_norm_guard: float = 1e-12
    fd_step: float | None = None
    fd_budget: int | None = None
    strict_improvement: bool = False
    record_latents: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.candidates < 1:
            raise ValueError("need at least one candidate noise")
        if self.v_norm_guard <= 0.0:
            raise ValueError("v_norm_guard must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    method: str
    pgd_step: float = 0.05
    pgd_radius: float = 0.5
    mv_learning_rate: float = 0.01
    mv_beta1: float = 0.9
    mv_beta2: float = 0.999
    mv_epsilon: float = 1e-8
    gradient_mode: GradientMode = GradientMode.APPROX_CONSTANT_EPS
    fd_step: float | None = None
    fd_budget: int | None = None
    record_latents: bool = False

    def __post_init__(self):
        if self.method not in BASELINE_METHODS:
            raise ValueError(f"unknown baseline {self.method!r}")
        if self.pgd_step < 0.0 or self.pgd_radius <= 0.0:
            raise ValueError("pgd step must be >= 0 and radius > 0")
        if self.mv_learning_rate <= 0.0:
            raise ValueError("mean-variance learning rate must be positive")


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
    incomplete: bool = False
    failure: str | None = None
    latents: list[np.ndarray] | None = None

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


def step_difference(z, gamma: float, sigma) -> np.ndarray:
    """v = (sqrt(1 - gamma) - 1) z + sqrt(gamma) sigma, the displacement
    the update would produce."""
    z = np.asarray(z, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if z.shape != sigma.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {sigma.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidScoreError(f"gamma must be in [0, 1], got {gamma!r}")
    return (np.sqrt(1.0 - gamma) - 1.0) * z + np.sqrt(gamma) * sigma


def apply_update(z, gamma: float, sigma) -> np.ndarray:
    """z' = sqrt(1 - gamma) z + sqrt(gamma) sigma; standard-normal in,
    standard-normal out, for any gamma in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if z.shape != sigma.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {sigma.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidScoreError(f"gamma must be in [0, 1], got {gamma!r}")
    return np.sqrt(1.0 - gamma) * z + np.sqrt(gamma) * sigma


def select_noise(
    grad, z, gamma: float, candidates, v_norm_guard: float = 1e-12
) -> tuple[int, float]:
    """Pick the candidate maximizing grad . v_i / ||v_i||^2.

    ``candidates`` is an (N, d) array or a list of N d-vectors. All step
    differences are formed in one broadcast; the two dot products stay
    one BLAS call per row, so every ratio has the bits of the per-vector
    formula. Candidates whose step difference has squared norm below the
    guard are skipped, NaN ratios never win, and ties break to the lowest
    index. Raises DegenerateStepError if nothing survives (caller
    resamples).
    """
    if len(candidates) == 0:
        raise DegenerateStepError("no candidate noises to select from")
    grad = np.asarray(grad, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    try:
        sigmas = np.asarray(candidates, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"candidates of unequal shapes: {exc}") from exc
    if sigmas.shape[1:] != z.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {sigmas.shape[1:]}")
    if not 0.0 <= gamma <= 1.0:
        raise InvalidScoreError(f"gamma must be in [0, 1], got {gamma!r}")
    # one (N, d) temporary, added to in place (IEEE addition commutes, so
    # the bits are those of the per-vector formula)
    steps = np.sqrt(gamma) * sigmas
    steps += (np.sqrt(1.0 - gamma) - 1.0) * z
    best_index = -1
    best_ratio = -np.inf
    for i, v in enumerate(steps):
        vv = float(v @ v)
        if vv < v_norm_guard:
            continue
        ratio = float(grad @ v) / vv
        if ratio > best_ratio:
            best_ratio = ratio
            best_index = i
    if best_index < 0:
        raise DegenerateStepError("all candidate step differences were near zero")
    return best_index, best_ratio


class _RunLog:
    """Shared bookkeeping: rows, strict best-tracking, optional latents."""

    def __init__(self, method, z, sample, score, wall_ms, record_latents):
        self.record = TrajectoryRecord(
            method=method,
            best_score=score,
            best_latent=z.copy(),
            best_sample=np.array(sample, copy=True),
            final_latent=z.copy(),
            latents=[z.copy()] if record_latents else None,
        )
        self.record.rows.append(
            EpochRow(epoch=0, score=score, best_score=score, wall_ms=wall_ms)
        )

    def log(self, epoch, z, sample, score, wall_ms, gamma=None, ratio=None,
            grad_norm=None, v_norm=None):
        rec = self.record
        if score > rec.best_score:
            rec.best_score = score
            rec.best_latent = z.copy()
            rec.best_sample = np.array(sample, copy=True)
        rec.final_latent = z.copy()
        if rec.latents is not None:
            rec.latents.append(z.copy())
        rec.rows.append(
            EpochRow(
                epoch=epoch,
                score=score,
                best_score=rec.best_score,
                gamma=gamma,
                selected_ratio=ratio,
                grad_norm=grad_norm,
                v_norm=v_norm,
                wall_ms=wall_ms,
            )
        )

    def fail(self, exc):
        self.record.incomplete = True
        self.record.failure = f"{type(exc).__name__}: {exc}"
        return self.record


def _initial_log(method, z, pipeline, scorer, record_latents):
    """Score the start latent; also returns its ``(z0, sample)`` pair,
    which the first gradient reuses."""
    t0 = time.perf_counter()
    z0, sample = pipeline.forward(z)
    score = checked_score(scorer, sample)
    wall = (time.perf_counter() - t0) * 1e3
    return _RunLog(method, z, sample, score, wall, record_latents), score, (z0, sample)


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
    z = as_latent(z_T, dim=pipeline.dim).copy()
    try:
        log, score, (z0, sample) = _initial_log(
            "noise-diffusion", z, pipeline, scorer, cfg.record_latents
        )
    except (ScorerUnavailableError, ScorerContractError) as exc:
        rec = TrajectoryRecord(method="noise-diffusion")
        rec.incomplete = True
        rec.failure = f"{type(exc).__name__}: {exc}"
        return rec

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        try:
            gamma = step_size_gamma(score)
            grad = latent_gradient(
                z, pipeline, scorer, cfg.gradient_mode,
                h=cfg.fd_step, coords=_fd_coords(cfg, z.size, rng, epoch),
                forward=(z0, sample),
            )
            grad_norm = float(np.linalg.norm(grad))

            selection = None
            for attempt in range(2):
                first = attempt * cfg.candidates
                candidates = rng.normal_block(
                    z.size, epoch, rows=range(first, first + cfg.candidates)
                )
                try:
                    selection = select_noise(grad, z, gamma, candidates, cfg.v_norm_guard)
                    break
                except DegenerateStepError:
                    continue
            if selection is None:
                # both candidate batches degenerate: skip the epoch
                wall = (time.perf_counter() - t0) * 1e3
                log.log(epoch, z, log.record.best_sample, score, wall,
                        gamma=gamma, grad_norm=grad_norm)
                continue

            index, ratio = selection
            if cfg.strict_improvement and ratio < 0.0:
                wall = (time.perf_counter() - t0) * 1e3
                log.log(epoch, z, log.record.best_sample, score, wall,
                        gamma=gamma, ratio=ratio, grad_norm=grad_norm)
                continue

            sigma = candidates[index]
            v = step_difference(z, gamma, sigma)
            z = apply_update(z, gamma, sigma)
            z0, sample = pipeline.forward(z)
            score = checked_score(scorer, sample)
        except (ScorerUnavailableError, ScorerContractError) as exc:
            return log.fail(exc)

        wall = (time.perf_counter() - t0) * 1e3
        log.log(epoch, z, sample, score, wall, gamma=gamma, ratio=ratio,
                grad_norm=grad_norm, v_norm=float(np.linalg.norm(v)))

    return log.record.validate()


def _fd_coords(cfg, dim, rng: RngStream, epoch: int):
    """Seeded coordinate subset for budgeted finite differences."""
    if cfg.gradient_mode is not GradientMode.FINITE_DIFFERENCE:
        return None
    if cfg.fd_budget is None or cfg.fd_budget >= dim:
        return None
    gen = rng.fork("fd-coords").generator(epoch)
    return np.sort(gen.choice(dim, size=cfg.fd_budget, replace=False))


def run_baseline(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    cfg: BaselineConfig,
    epochs: int,
    rng: RngStream,
) -> TrajectoryRecord:
    """Run one comparison method for ``epochs`` epochs.

    pgd: sign-gradient ascent projected onto the l_inf ball around the
    start; mean-variance: Adam ascent on (mu, log-scale) of
    mu + exp(rho) * initial draw; random-sampling: fresh standard-normal
    latent each epoch; random-diffusion: the diffusion update with
    score-driven step size but an unselected random noise.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    z = as_latent(z_T, dim=pipeline.dim).copy()
    try:
        log, score, (z0, sample) = _initial_log(
            cfg.method, z, pipeline, scorer, cfg.record_latents
        )
    except (ScorerUnavailableError, ScorerContractError) as exc:
        rec = TrajectoryRecord(method=cfg.method)
        rec.incomplete = True
        rec.failure = f"{type(exc).__name__}: {exc}"
        return rec

    z_init = z.copy()
    # mean-variance state: ascent parameters and Adam moments
    mv_mu = np.zeros_like(z)
    mv_rho = np.zeros_like(z)
    mv_m = np.zeros(2 * z.size)
    mv_v = np.zeros(2 * z.size)

    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        gamma = ratio = grad_norm = v_norm = None
        try:
            if cfg.method == "pgd":
                grad = latent_gradient(
                    z, pipeline, scorer, cfg.gradient_mode, h=cfg.fd_step,
                    forward=(z0, sample),
                )
                grad_norm = float(np.linalg.norm(grad))
                z_new = z + cfg.pgd_step * np.sign(grad)
                z_new = np.clip(z_new, z_init - cfg.pgd_radius, z_init + cfg.pgd_radius)
                v_norm = float(np.linalg.norm(z_new - z))
                z = z_new
            elif cfg.method == "mean-variance":
                grad = latent_gradient(
                    z, pipeline, scorer, cfg.gradient_mode, h=cfg.fd_step,
                    forward=(z0, sample),
                )
                grad_norm = float(np.linalg.norm(grad))
                scale = np.exp(mv_rho)
                g = np.concatenate([grad, grad * scale * z_init])
                mv_m = cfg.mv_beta1 * mv_m + (1.0 - cfg.mv_beta1) * g
                mv_v = cfg.mv_beta2 * mv_v + (1.0 - cfg.mv_beta2) * g * g
                m_hat = mv_m / (1.0 - cfg.mv_beta1**epoch)
                v_hat = mv_v / (1.0 - cfg.mv_beta2**epoch)
                step = cfg.mv_learning_rate * m_hat / (np.sqrt(v_hat) + cfg.mv_epsilon)
                mv_mu += step[: z.size]
                mv_rho += step[z.size :]
                z_new = mv_mu + np.exp(mv_rho) * z_init
                v_norm = float(np.linalg.norm(z_new - z))
                z = z_new
            elif cfg.method == "random-sampling":
                z = rng.normal(z.size, epoch)
            else:  # random-diffusion
                gamma = step_size_gamma(score)
                sigma = rng.normal(z.size, epoch)
                v = step_difference(z, gamma, sigma)
                v_norm = float(np.linalg.norm(v))
                z = apply_update(z, gamma, sigma)

            z0, sample = pipeline.forward(z)
            score = checked_score(scorer, sample)
        except (ScorerUnavailableError, ScorerContractError) as exc:
            return log.fail(exc)

        wall = (time.perf_counter() - t0) * 1e3
        log.log(epoch, z, sample, score, wall, gamma=gamma, ratio=ratio,
                grad_norm=grad_norm, v_norm=v_norm)

    return log.record.validate()
