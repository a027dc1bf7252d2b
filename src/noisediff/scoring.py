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
  pipeline, 2d probe latents in one batched pass, the exactness oracle;
* ``grad_latent_chain`` — exact forward-accumulated Jacobian, available
  when the denoiser has a closed-form Jacobian.
"""

from __future__ import annotations

import enum
import http.client
import json
from dataclasses import dataclass
from urllib.parse import quote, urlsplit

import numpy as np
from scipy.special import expit

from .diffusion import Pipeline, cfg_predict, ddim_step
from .errors import (
    DimensionError,
    GradientUnavailableError,
    InvalidPromptError,
    NonFiniteError,
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
    "grad_latent_approx",
    "grad_latent_fd",
    "grad_latent_chain",
    "latent_gradient",
    "format_vqa_question",
    "Endpoint",
    "parse_endpoint",
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
        if not sharpness > 0.0:
            raise ValueError(f"sharpness must be positive, got {sharpness}")
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
        target = np.array(self.target, dtype=np.float64)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) != target.size:
            raise DimensionError("group target length must match its index set")
        if min(self.indices, default=0) < 0 or len(set(self.indices)) < len(self.indices):
            raise ValueError(f"group indices must be distinct and non-negative, got {self.indices}")
        if not (self.sharpness > 0.0 and self.radius > 0.0):
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

    def _terms(self, x):
        """Per group of x: the group, its indices, the offset u from its
        target, ||u|| and its logistic factor; and the score, the product
        of the factors. Shared by score and gradient."""
        terms = []
        for g in self.groups:
            idx = list(g.indices)
            u = x[..., idx] - g.target
            norm = np.sqrt(np.sum(u * u, axis=-1))
            terms.append((g, idx, u, norm, expit(g.sharpness * (g.radius - norm))))
        score = terms[0][-1]
        for *_, f in terms[1:]:
            score = score * f
        return terms, score

    def score(self, sample):
        return self._terms(np.asarray(sample, dtype=np.float64))[1]

    def gradient(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        terms, s = self._terms(x)
        grad = np.zeros_like(x)
        for g, idx, u, norm, f in terms:
            norm = norm[..., None]
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

    The 2k probe latents of the k probed coordinates go through one
    batched ``pipeline.forward``: row 2j bumps coordinate j by +h and row
    2j+1 by -h. Every row of a batched forward has the bits of that
    latent's forward alone, but a scorer need not be batch-exact, so
    each probe sample is scored on its own, plus before minus, in
    coordinate order. ``coords`` limits probing to a subset (remaining
    entries are zero), which is the probe budget used against remote
    scorers; no coordinate means no pass. Default step is
    1e-3 * (1 + max|z|).
    """
    z = np.asarray(z_T, dtype=np.float64)
    if h is None:
        h = DEFAULT_FD_STEP * (1.0 + float(np.max(np.abs(z))))
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    probe = np.arange(z.size) if coords is None else np.asarray(coords, dtype=np.intp)
    if probe.ndim != 1 or np.unique(probe[(probe >= 0) & (probe < z.size)]).size != probe.size:
        raise ValueError(f"coords must be distinct indices in 0..{z.size - 1}, got {coords!r}")
    grad = np.zeros_like(z)
    if probe.size == 0:
        return grad
    bumped = np.repeat(z[None, :], 2 * probe.size, axis=0)
    rows = np.arange(0, 2 * probe.size, 2)
    bumped[rows, probe] = z[probe] + h
    bumped[rows + 1, probe] = z[probe] - h
    _, samples = pipeline.forward(bumped)
    for j, i in enumerate(probe):
        plus = checked_score(scorer, samples[2 * j])
        minus = checked_score(scorer, samples[2 * j + 1])
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


def grad_latent_chain(z_T, pipeline: Pipeline, scorer: Scorer) -> np.ndarray:
    """Exact gradient via forward accumulation of the DDIM Jacobian.

    Needs the denoiser's closed-form Jacobian and the scorer's analytic
    gradient; cost is one pass plus T dense (d, d) matrix products. When
    the condition and the null condition are the same, each step evaluates
    one Jacobian, as ``cfg_predict`` evaluates one prediction. A
    Jacobian that turns non-finite raises NonFiniteError at that step.
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
            if not np.isfinite(jac).all():
                bad = int(np.count_nonzero(~np.isfinite(jac)))
                raise NonFiniteError(
                    f"chain Jacobian has {bad} non-finite of {jac.size} entries at step t={t}"
                )
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


@dataclass(frozen=True)
class Endpoint:
    """A parsed score-service URL: the host and port to connect to, over
    TLS or not, and the request target (path and query)."""

    https: bool
    host: str
    port: int
    target: str

    def connect(self, timeout: float) -> http.client.HTTPConnection:
        cls = http.client.HTTPSConnection if self.https else http.client.HTTPConnection
        return cls(self.host, self.port, timeout=timeout)


def parse_endpoint(url: str | Endpoint) -> Endpoint:
    """The Endpoint of an ``http://`` or ``https://`` URL with a host and
    no whitespace or control character; an Endpoint passes through.
    Anything else is a ValueError."""
    if isinstance(url, Endpoint):
        return url
    parts = urlsplit(url)
    if (parts.scheme not in ("http", "https") or not parts.hostname
            or any(c <= " " or c == "\x7f" for c in url)):
        raise ValueError(f"expected an http:// or https:// URL with a host, got {url!r}")
    https = parts.scheme == "https"
    port = parts.port  # ValueError for a port that is not a number in range
    if port is None:
        # explicit, or http.client would read an IPv6 host's last group as a port
        port = 443 if https else 80
    # percent-encode what is not ASCII, as browsers do; escapes stay
    target = quote((parts.path or "/") + (f"?{parts.query}" if parts.query else ""),
                   safe="!#$%&'()*+,/:;=?@[]~")
    return Endpoint(https, parts.hostname, port, target)


def remote_score(
    endpoint: str | Endpoint,
    sample,
    prompt: str,
    timeout: float,
    retries: int = 1,
) -> float:
    """POST a sample to a score service and return its yes-probability.

    Request body: {"sample": [...], "prompt": ..., "question": ...} as
    JSON; expected response: {"score": x} with x in [0, 1]. Each attempt
    opens its own connection and closes it, so a retry never reads the
    late answer of an attempt that timed out. Timeouts, connection
    failures, non-200 statuses, and malformed bodies raise
    ScorerUnavailableError after ``retries`` additional attempts; an
    out-of-range score is a deterministic contract violation and raises
    ScorerContractError on the first answer, without a retry. Both are
    surfaced for the optimizer to abort the epoch cleanly.
    """
    endpoint = parse_endpoint(endpoint)
    payload = {
        "sample": np.asarray(sample, dtype=np.float64).tolist(),
        "prompt": prompt,
        "question": format_vqa_question(prompt),
    }
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise ScorerUnavailableError(f"sample cannot be sent as JSON: {exc}")
    headers = {"Content-Type": "application/json", "Connection": "close"}
    attempts = max(1, retries + 1)
    last: Exception | None = None
    for _ in range(attempts):
        conn = endpoint.connect(timeout)
        try:
            conn.request("POST", endpoint.target, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            last = ScorerUnavailableError(f"score service unreachable: {exc}")
            continue
        finally:
            conn.close()
        if resp.status != 200:
            last = ScorerUnavailableError(f"score service returned HTTP {resp.status}")
            continue
        try:
            value = float(json.loads(data)["score"])
        except (KeyError, TypeError, ValueError) as exc:
            last = ScorerUnavailableError(f"malformed score response: {exc}")
            continue
        if not np.isfinite(value) or value < 0.0 or value > 1.0:
            raise ScorerContractError(f"remote score {value!r} outside [0, 1]")
        return value
    assert last is not None
    raise last


class RemoteScorer(Scorer):
    """Scorer backed by an HTTP score service; no analytic gradient. The
    endpoint is parsed once, here."""

    def __init__(
        self, endpoint: str | Endpoint, prompt: str, timeout: float = 1.0, retries: int = 1
    ):
        format_vqa_question(prompt)  # rejects an empty prompt
        self.endpoint = parse_endpoint(endpoint)
        self.prompt = prompt
        self.timeout = timeout
        self.retries = retries

    def score(self, sample):
        # looked up at call time, so a rebinding of remote_score applies
        return remote_score(
            self.endpoint, sample, self.prompt, self.timeout, self.retries
        )
