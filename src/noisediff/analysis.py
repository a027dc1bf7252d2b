"""Empirical checks of the improvement guarantee and trajectory diagnostics.

The guarantee: if the score landscape has an (almost-everywhere) Hessian
bound c and a step v satisfies grad . v / ||v||^2 >= c/2 + delta, then
the updated score is at least s + delta ||v||^2. The Hessian bound is
estimated here by second-difference probes; for the synthetic scorers an
analytic bound is available as the sound reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateStepError, InsufficientSampleError
from .latents import DistributionReport, RngStream, ks_normality, moment_diagnostics

__all__ = [
    "FeasibilityReport",
    "HessianProbeResult",
    "estimate_hessian_bound",
    "probe_hessian_bound",
    "check_improvement_condition",
    "selection_ratio",
    "ratio_quartiles",
    "quartiles",
    "distribution_report",
]

# A probe whose quadratic form exceeds this multiple of the running
# estimate is reported as a kink artifact instead of raising the bound.
KINK_OUTLIER_FACTOR = 10.0
_KINK_WARMUP = 10


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of one improvement-condition check.

    ``triggered`` is False when the ratio condition did not hold, in
    which case no claim is made and ``satisfied`` is vacuously True.
    """

    c_estimate: float
    delta: float
    ratio: float
    predicted_floor: float
    actual: float
    triggered: bool
    satisfied: bool


@dataclass(frozen=True)
class HessianProbeResult:
    estimate: float
    num_probes: int
    kink_outliers: tuple[float, ...]


def probe_hessian_bound(
    score_fn,
    center,
    radius: float,
    num_probes: int,
    rng: RngStream,
    h: float | None = None,
) -> HessianProbeResult:
    """Estimate sup |u.H u| / ||u||^2 over a ball by second differences.

    Probe points are uniform in the ball around ``center``; directions
    are uniform on the sphere. The second difference uses step
    h = radius / 100 by default (larger than first-order steps because
    second differences amplify round-off). The estimate is a lower bound
    of the true supremum and grows monotonically with ``num_probes`` for
    a fixed stream. Probes exceeding 10x the running estimate after a
    warmup are classified as kink artifacts and reported separately.
    """
    if num_probes < 1:
        raise ValueError("need at least one probe")
    center = np.asarray(center, dtype=np.float64)
    if h is None:
        h = 1e-2 * radius
    estimate = 0.0
    outliers: list[float] = []
    for k in range(num_probes):
        gen = rng.generator(k)
        point = center + _uniform_ball(gen, center.size, radius)
        u = gen.standard_normal(center.size)
        u /= np.linalg.norm(u)
        quad = abs(
            float(score_fn(point + h * u))
            - 2.0 * float(score_fn(point))
            + float(score_fn(point - h * u))
        ) / (h * h)
        if k >= _KINK_WARMUP and estimate > 0.0 and quad > KINK_OUTLIER_FACTOR * estimate:
            outliers.append(quad)
            continue
        estimate = max(estimate, quad)
    return HessianProbeResult(estimate, num_probes, tuple(outliers))


def estimate_hessian_bound(
    score_fn, center, radius: float, num_probes: int, rng: RngStream,
    h: float | None = None,
) -> float:
    """Probe-based curvature bound; callers multiply by a safety factor
    (x2 by convention) before feeding it to the improvement check."""
    return probe_hessian_bound(score_fn, center, radius, num_probes, rng, h).estimate


def _uniform_ball(gen: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = gen.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return radius * gen.uniform() ** (1.0 / dim) * direction


def check_improvement_condition(
    s: float,
    s_next: float,
    grad,
    v,
    c: float,
    delta: float,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Verify one step against the improvement guarantee.

    If grad . v / ||v||^2 >= c/2 + delta, the updated score must satisfy
    s_next >= s + delta ||v||^2 (up to ``tol``); otherwise the theorem
    makes no claim and the report passes vacuously.
    """
    if c < 0.0:
        raise ValueError("Hessian bound c must be >= 0")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    v = np.asarray(v, dtype=np.float64)
    ratio = selection_ratio(grad, v)
    vv = float(v @ v)
    triggered = ratio >= c / 2.0 + delta
    floor = s + delta * vv
    satisfied = (not triggered) or (s_next >= floor - tol)
    return FeasibilityReport(
        c_estimate=c,
        delta=delta,
        ratio=ratio,
        predicted_floor=floor,
        actual=s_next,
        triggered=triggered,
        satisfied=satisfied,
    )


def selection_ratio(grad, v, v_norm_guard: float = 1e-12) -> float:
    """grad . v / ||v||^2, the quantity candidate selection maximizes."""
    grad = np.asarray(grad, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    vv = float(v @ v)
    if vv < v_norm_guard:
        raise DegenerateStepError("step difference has near-zero norm")
    return float(grad @ v) / vv


def ratio_quartiles(trajectories) -> tuple[float, float, float]:
    """:func:`quartiles` of all selected ratios across trajectories."""
    return quartiles([r for record in trajectories for r in record.selected_ratios()])


def quartiles(ratios) -> tuple[float, float, float]:
    """(Q1, median, Q3) of at least four ratios, linearly interpolated."""
    if len(ratios) < 4:
        raise InsufficientSampleError(
            f"quartiles need at least 4 ratios, got {len(ratios)}"
        )
    q1, med, q3 = np.percentile(ratios, [25.0, 50.0, 75.0])
    return float(q1), float(med), float(q3)


def distribution_report(z) -> DistributionReport:
    """Moments plus KS normality in one report (needs dim >= 8)."""
    moments = moment_diagnostics(z)
    ks_stat, ks_pvalue = ks_normality(z)
    return replace(moments, ks_stat=ks_stat, ks_pvalue=ks_pvalue)
