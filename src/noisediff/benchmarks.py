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

``platform_fingerprint`` names the kernels that decide the bits of a
pinned output, for tests that compare with literals and for benchmark
records.

Every target vector is a fixed seeded draw, so all numbers here are
reproducible constants rather than tuned literals.
"""

from __future__ import annotations

import os

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
    "platform_fingerprint",
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


def platform_fingerprint() -> str:
    """The kernels that decide the bits of a pinned output, as
    ``numpy 2.4.6, X86_V4/AVX512_SPR, OpenBLAS SkylakeX``: numpy's
    version, its highest enabled ``X86_V*`` and ``AVX512_*`` features,
    and the core numpy's bundled OpenBLAS picked when it loaded."""
    import ctypes  # loaded only here, so importing the package stays lean
    import glob

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    enabled = [name for name, on in __cpu_features__.items() if on]
    simd = [[n for n in enabled if n.startswith(prefix)][-1:] for prefix in ("X86_V", "AVX512_")]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    return f"numpy {np.__version__}, {'/'.join(sum(simd, [])) or 'baseline'}, OpenBLAS {core}"
