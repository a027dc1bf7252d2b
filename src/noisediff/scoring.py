"""Bounded score functions over decoded samples and latent-space gradients.

Every scorer maps a sample to a probability-like value in [0, 1]. Local
scorers also expose an analytic gradient with respect to the sample;
remote scorers do not, so gradient-based optimization against them falls
back to finite differences with a probe budget.

Three ways to differentiate the latent score s(z_T):

* ``grad_latent_approx`` — one forward pass, treating the noise
  predictions as constants so the pipeline Jacobian collapses to
  sqrt(1/alpha_bar_T) times the identity; given the ``(z0, sample)``
  pair of z_T it runs no pass at all, which is how the optimizers call
  it: each epoch's gradient reuses the forward that scored the latent;
* ``grad_latent_fd`` — central finite differences through the whole
  pipeline, 2d passes, the exactness oracle;
* ``grad_latent_chain`` — exact forward-accumulated Jacobian, available
  when the denoiser has a closed-form Jacobian.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np
import requests
from scipy.special import expit

from .diffusion import Pipeline, cfg_predict, ddim_step
from .errors import (
    DimensionError,
    GradientUnavailableError,
    InvalidPromptError,
    ScorerContractError,
    ScorerUnavailableError,
)

__all__ = [
    "Scorer",
    "QuadraticSigmoidScorer",
    "TargetGroup",
    "CompositeTargetScorer",
    "GradientMode",
    "checked_score",
    "score_latent",
    "grad_latent_approx",
    "grad_latent_fd",
    "grad_latent_chain",
    "latent_gradient",
    "format_vqa_question",
    "remote_score",
    "RemoteScorer",
]

DEFAULT_FD_STEP = 1e-3


class Scorer:
    """Interface: score(sample) in [0, 1]; gradient(sample) or None."""

    def score(self, sample):
        raise NotImplementedError

    def gradient(self, sample):
        """Analytic gradient w.r.t. sample coordinates; None if the scorer
        is black-box."""
        return None


class QuadraticSigmoidScorer(Scorer):
    """s(x) = logistic(offset - sharpness * ||x - target||^2).

    Smooth, bounded in (0, 1), with a globally bounded Hessian whose
    supremum has a closed one-dimensional reduction.
    """

    def __init__(self, target, sharpness: float, offset: float = 0.0):
        self.target = np.asarray(target, dtype=np.float64)
        if self.target.ndim != 1:
            raise DimensionError("target must be a vector")
        if sharpness <= 0.0:
            raise ValueError("sharpness must be positive")
        self.sharpness = float(sharpness)
        self.offset = float(offset)

    def score(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        diff = x - self.target
        r2 = np.sum(diff * diff, axis=-1)
        return expit(self.offset - self.sharpness * r2)

    def gradient(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        diff = x - self.target
        s = self.score(x)
        return (s * (1.0 - s) * (-2.0 * self.sharpness))[..., None] * diff

    def hessian_norm_at(self, r2):
        """Spectral norm of the Hessian at squared distance r2 from the
        target. The Hessian is 4b^2 p (1-2s) u u^T - 2 b p I with
        p = s(1-s), so its eigenvalues are -2bp (multiplicity d-1) and
        4b^2 p (1-2s) r^2 - 2bp along u."""
        b = self.sharpness
        s = expit(self.offset - b * np.asarray(r2, dtype=np.float64))
        p = s * (1.0 - s)
        radial = 4.0 * b * b * p * (1.0 - 2.0 * s) * r2 - 2.0 * b * p
        return np.maximum(2.0 * b * p, np.abs(radial))

    def hessian_bound(self) -> float:
        """Global supremum of the Hessian spectral norm.

        The norm depends on x only through r^2; p = s(1-s) decays like
        exp(-(b r^2 - a)) once the logistic saturates, so a dense grid of
        the argument g = a - b r^2 down to a - 200 covers the supremum to
        double precision.
        """
        g = np.linspace(self.offset - 200.0, self.offset, 400001)
        r2 = (self.offset - g) / self.sharpness
        return float(self.hessian_norm_at(r2).max())


@dataclass(frozen=True)
class TargetGroup:
    """One attribute: coordinates ``indices`` should land within
    ``radius`` of ``target``, graded by a logistic of the gap."""

    indices: tuple[int, ...]
    target: np.ndarray
    radius: float
    sharpness: float

    def __post_init__(self):
        target = np.asarray(self.target, dtype=np.float64)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) != target.size:
            raise DimensionError("group target length must match its index set")
        if self.sharpness <= 0.0 or self.radius <= 0.0:
            raise ValueError("group radius and sharpness must be positive")


class CompositeTargetScorer(Scorer):
    """Product of per-group logistic factors, one factor per attribute.

    s(x) = prod_j logistic(k_j (r_j - ||x_Sj - t_j||)); every attribute
    must be satisfied for a high score, mimicking multi-object prompts.
    """

    def __init__(self, groups):
        if not groups:
            raise ValueError("composite scorer needs at least one group")
        self.groups = list(groups)

    def _factors(self, x):
        facs = []
        for g in self.groups:
            u = x[..., list(g.indices)] - g.target
            norm = np.sqrt(np.sum(u * u, axis=-1))
            facs.append(expit(g.sharpness * (g.radius - norm)))
        return facs

    def score(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        facs = self._factors(x)
        out = facs[0]
        for f in facs[1:]:
            out = out * f
        return out

    def gradient(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        s = self.score(x)
        grad = np.zeros_like(x)
        for g in self.groups:
            idx = list(g.indices)
            u = x[..., idx] - g.target
            norm = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
            f = expit(g.sharpness * (g.radius - norm[..., 0]))
            # direction undefined exactly at the target; measure-zero kink
            unit = np.divide(u, norm, out=np.zeros_like(u), where=norm > 0.0)
            grad[..., idx] += (-g.sharpness * s * (1.0 - f))[..., None] * unit
        return grad


class GradientMode(str, enum.Enum):
    APPROX_CONSTANT_EPS = "approx-constant-eps"
    FINITE_DIFFERENCE = "finite-difference"
    ANALYTIC_CHAIN = "analytic-chain"


def checked_score(scorer: Scorer, sample) -> float:
    """Evaluate the scorer and enforce its [0, 1] contract."""
    s = float(scorer.score(sample))
    if not np.isfinite(s) or s < 0.0 or s > 1.0:
        raise ScorerContractError(f"scorer returned {s!r}, outside [0, 1]")
    return s


def _scorer_gradient(scorer: Scorer, sample):
    """The scorer's analytic sample gradient; a missing one is
    GradientUnavailableError and a non-finite one ScorerContractError."""
    gs = scorer.gradient(sample)
    if gs is None:
        raise GradientUnavailableError(
            "scorer exposes no analytic gradient; use finite differences"
        )
    if not np.all(np.isfinite(gs)):
        raise ScorerContractError("scorer gradient has non-finite entries")
    return gs


def score_latent(z_T, pipeline: Pipeline, scorer: Scorer) -> float:
    """Score of the initial latent: denoise, decode, score. Deterministic."""
    _, sample = pipeline.forward(z_T)
    return checked_score(scorer, sample)


def grad_latent_approx(
    z_T, pipeline: Pipeline, scorer: Scorer, *, forward=None
) -> np.ndarray:
    """One-pass gradient with the noise predictions frozen.

    Under that assumption the pipeline Jacobian is sqrt(1/alpha_bar_T)
    times the identity, so the latent gradient is that factor applied to
    the decoder adjoint of the scorer gradient. Exact for a constant
    denoiser; an approximation otherwise.

    ``forward`` is the ``(z0, sample)`` pair ``pipeline.forward(z_T)``
    returns, for a caller that already has it; no pipeline pass runs
    then.
    """
    z0, sample = pipeline.forward(z_T) if forward is None else forward
    pulled = pipeline.decoder.adjoint(z0, _scorer_gradient(scorer, sample))
    ab_T = pipeline.schedule.alpha_bar(pipeline.schedule.T)
    return np.sqrt(1.0 / ab_T) * pulled


def grad_latent_fd(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    h: float | None = None,
    coords=None,
) -> np.ndarray:
    """Central-difference gradient through the full pipeline.

    Costs two pipeline passes per probed coordinate. ``coords`` limits
    probing to a subset (remaining entries are zero), which is the probe
    budget used against remote scorers. Default step is
    1e-3 * (1 + max|z|).
    """
    z = np.asarray(z_T, dtype=np.float64)
    if h is None:
        h = DEFAULT_FD_STEP * (1.0 + float(np.max(np.abs(z))))
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    probe = range(z.size) if coords is None else coords
    grad = np.zeros_like(z)
    for i in probe:
        bumped = z.copy()
        bumped[i] = z[i] + h
        plus = score_latent(bumped, pipeline, scorer)
        bumped[i] = z[i] - h
        minus = score_latent(bumped, pipeline, scorer)
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


def grad_latent_chain(z_T, pipeline: Pipeline, scorer: Scorer) -> np.ndarray:
    """Exact gradient via forward accumulation of the DDIM Jacobian.

    Needs the denoiser's closed-form Jacobian and the scorer's analytic
    gradient; cost is one pass plus T dense (d, d) matrix products. When
    the condition and the null condition are the same, each step evaluates
    one Jacobian, as ``cfg_predict`` evaluates one prediction.
    """
    z = np.asarray(z_T, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError("chain gradient is defined for a single latent")
    sched, g = pipeline.schedule, pipeline.guidance
    jac = np.eye(z.size)
    try:
        for t in range(sched.T, 0, -1):
            eps = cfg_predict(pipeline.model, z, t, g)
            j_cond = pipeline.model.predict_jacobian(z, t, g.condition)
            if g.null_condition == g.condition:
                j_null = j_cond
            else:
                j_null = pipeline.model.predict_jacobian(z, t, g.null_condition)
            j_eps = g.w * j_cond + (1.0 - g.w) * j_null
            ab_t, ab_prev = sched.alpha_bar(t), sched.alpha_bar(t - 1)
            scale = np.sqrt(ab_prev / ab_t)
            c_t = np.sqrt(1.0 - ab_prev) - scale * np.sqrt(1.0 - ab_t)
            jac = (scale * np.eye(z.size) + c_t * j_eps) @ jac
            z = ddim_step(z, t, eps, sched)
    except NotImplementedError as exc:
        raise GradientUnavailableError(
            "denoiser has no closed-form Jacobian; use finite differences"
        ) from exc
    sample = pipeline.decoder.decode(z)
    return jac.T @ pipeline.decoder.adjoint(z, _scorer_gradient(scorer, sample))


def latent_gradient(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    mode: GradientMode = GradientMode.APPROX_CONSTANT_EPS,
    h: float | None = None,
    coords=None,
    *,
    forward=None,
) -> np.ndarray:
    """Dispatch to the gradient evaluation selected by ``mode``.

    ``forward``, the ``(z0, sample)`` pair of ``z_T``, spares the
    approximate gradient its pipeline pass; finite differences and the
    chain ignore it, since they must run the pipeline themselves.
    """
    mode = GradientMode(mode)
    if mode is GradientMode.APPROX_CONSTANT_EPS:
        return grad_latent_approx(z_T, pipeline, scorer, forward=forward)
    if mode is GradientMode.FINITE_DIFFERENCE:
        return grad_latent_fd(z_T, pipeline, scorer, h=h, coords=coords)
    return grad_latent_chain(z_T, pipeline, scorer)


def format_vqa_question(prompt: str) -> str:
    """The yes/no question put to the scoring model for a prompt."""
    if not prompt:
        raise InvalidPromptError("prompt must be nonempty")
    return f"Does this figure show '{prompt}'? Please answer yes or no."


def remote_score(
    endpoint: str,
    sample,
    prompt: str,
    timeout: float,
    retries: int = 1,
) -> float:
    """POST a sample to a score service and return its yes-probability.

    Request body: {"sample": [...], "prompt": ..., "question": ...};
    expected response: {"score": x} with x in [0, 1]. Timeouts, non-200
    statuses, and malformed bodies raise ScorerUnavailableError after
    ``retries`` additional attempts; an out-of-range score is a
    deterministic contract violation and raises ScorerContractError on
    the first answer, without a retry. Both are surfaced for the
    optimizer to abort the epoch cleanly.
    """
    payload = {
        "sample": np.asarray(sample, dtype=np.float64).tolist(),
        "prompt": prompt,
        "question": format_vqa_question(prompt),
    }
    attempts = max(1, retries + 1)
    last: Exception | None = None
    for _ in range(attempts):
        try:
            resp = requests.post(endpoint, json=payload, timeout=timeout)
            if resp.status_code != 200:
                raise ScorerUnavailableError(f"score service returned HTTP {resp.status_code}")
            body = resp.json()
            value = float(body["score"])
        except (requests.RequestException, json.JSONDecodeError) as exc:
            last = ScorerUnavailableError(f"score service unreachable: {exc}")
            continue
        except (KeyError, TypeError, ValueError) as exc:
            last = ScorerUnavailableError(f"malformed score response: {exc}")
            continue
        except ScorerUnavailableError as exc:
            last = exc
            continue
        if not np.isfinite(value) or value < 0.0 or value > 1.0:
            raise ScorerContractError(f"remote score {value!r} outside [0, 1]")
        return value
    assert last is not None
    raise last


class RemoteScorer(Scorer):
    """Scorer backed by an HTTP score service; no analytic gradient."""

    def __init__(self, endpoint: str, prompt: str, timeout: float = 1.0, retries: int = 1):
        if not prompt:
            raise InvalidPromptError("prompt must be nonempty")
        self.endpoint = endpoint
        self.prompt = prompt
        self.timeout = timeout
        self.retries = retries

    def score(self, sample):
        return remote_score(
            self.endpoint, sample, self.prompt, self.timeout, self.retries
        )
