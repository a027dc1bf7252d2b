"""The synthetic benchmark suite.

Three fixed setups used by the experiment configs, the demos, and the
verification suite:

* ``quadratic_benchmark`` — a single smooth logistic bowl in sample
  space; the easiest landscape, used for optimizer comparisons.
* ``composite_benchmark`` — two attribute groups that must both be
  satisfied (the stand-in for compositional prompts), over a two-mode
  guided mixture pipeline; used for the method-ordering comparisons.
  It is defined once, as the config text ``composite_benchmark_config``
  writes.
* ``preservation_benchmark`` — a d=1024 variant whose score touches two
  16-coordinate groups, used to audit that the optimizer's latents stay
  standard-normal.

Every target vector is a fixed seeded draw, so all numbers here are
reproducible constants rather than tuned literals.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .diffusion import (
    AnalyticMixtureDenoiser,
    GuidanceConfig,
    MixtureComponent,
    Pipeline,
    build_schedule,
)
from .latents import RngStream
from .scoring import CompositeTargetScorer, QuadraticSigmoidScorer, TargetGroup

__all__ = [
    "quadratic_benchmark",
    "composite_benchmark",
    "preservation_benchmark",
    "composite_benchmark_config",
]


def _unit_pipeline(dim: int, timesteps: int) -> Pipeline:
    sched = build_schedule(timesteps)
    den = AnalyticMixtureDenoiser([MixtureComponent(1.0, np.zeros(dim), 1.0)], sched)
    return Pipeline(den, GuidanceConfig(w=7.5), sched)


def quadratic_benchmark(dim: int = 16, timesteps: int = 10):
    """(pipeline, scorer) with a smooth single-target landscape."""
    target = RngStream(55, "qs-target").normal(dim) * 1.2
    scorer = QuadraticSigmoidScorer(target=target, sharpness=0.2, offset=4.0)
    return _unit_pipeline(dim, timesteps), scorer


def composite_benchmark(timesteps: int = 10):
    """(pipeline, scorer), d = 16: guided two-mode mixture pipeline and a
    two-attribute product scorer, built from ``composite_benchmark_config``
    by ``ExperimentConfig.from_text``. Like every config, it raises
    ConfigError when NOISEDIFF_SEED is set but not an integer."""
    config = ExperimentConfig.from_text(composite_benchmark_config(seeds=[0], timesteps=timesteps))
    return config.pipeline, config.scorer


def preservation_benchmark(timesteps: int = 10):
    """(pipeline, scorer), d = 1024: the score touches only two
    16-coordinate groups, mirroring how semantic directions occupy a tiny
    subspace of a large latent."""
    dim = 1024
    pipeline = _unit_pipeline(dim, timesteps)
    scorer = CompositeTargetScorer(
        [
            TargetGroup(tuple(range(0, 16)), RngStream(301, "tA").normal(16), 5.0, 1.5),
            TargetGroup(tuple(range(512, 528)), RngStream(302, "tB").normal(16), 5.0, 1.5),
        ]
    )
    return pipeline, scorer


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def composite_benchmark_config(
    method: str = "noise-diffusion",
    seeds=range(25),
    output: str = "runs/benchmark",
    epochs: int = 50,
    candidates: int = 50,
    timesteps: int = 10,
) -> str:
    """The composite benchmark as experiment-config text."""
    dim = 16
    m0 = RngStream(201, "m0").normal(dim) * 0.8
    m1 = RngStream(202, "m1").normal(dim) * 0.8
    t_a = RngStream(101, "tA").normal(8)
    t_a *= 3.0 / np.linalg.norm(t_a)
    t_b = RngStream(102, "tB").normal(8)
    t_b *= 3.0 / np.linalg.norm(t_b)
    lines = [
        f"method = {method}",
        f"dim = {dim}",
        f"epochs = {epochs}",
        f"candidates = {candidates}",
        f"timesteps = {timesteps}",
        f"seeds = {','.join(str(s) for s in seeds)}",
        f"output = {output}",
        "guidance.scale = 7.5",
        "guidance.condition = prompt",
        "denoiser.type = mixture",
        "denoiser.component.0.weight = 0.6",
        f"denoiser.component.0.mean = {_vec(m0)}",
        "denoiser.component.0.var = 1.0",
        "denoiser.component.1.weight = 0.4",
        f"denoiser.component.1.mean = {_vec(m1)}",
        "denoiser.component.1.var = 1.0",
        "denoiser.condition.prompt = 0",
        "scorer.type = composite",
        "scorer.group.0.indices = 0-7",
        f"scorer.group.0.target = {_vec(t_a)}",
        "scorer.group.0.radius = 3.2",
        "scorer.group.0.sharpness = 1.6",
        "scorer.group.1.indices = 8-15",
        f"scorer.group.1.target = {_vec(t_b)}",
        "scorer.group.1.radius = 3.2",
        "scorer.group.1.sharpness = 1.6",
    ]
    return "\n".join(lines) + "\n"
