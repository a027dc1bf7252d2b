import hashlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from noisediff.benchmarks import composite_benchmark, composite_benchmark_config
from noisediff.config import SEED_ENV_VAR, ExperimentConfig
from noisediff.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("timesteps", [10, 50])
def test_composite_text_builds_the_composite_benchmark(timesteps):
    config = ExperimentConfig.from_text(composite_benchmark_config(seeds=[0], timesteps=timesteps))
    pipeline, scorer = composite_benchmark(timesteps=timesteps)
    z = np.random.default_rng(5).standard_normal((4, 16))
    _, expected = pipeline.forward(z)
    _, sample = config.pipeline.forward(z)
    assert_array_equal(sample, expected)
    assert_array_equal(config.scorer.score(sample), scorer.score(expected))


# Taken from the object-built composite benchmark, before it was built
# from its config text: sha256 of the batched forward sample of
# default_rng(5)'s (4, 16) draw, and the four scores of its rows.
PINNED = {
    10: ("2ab4858b654dbe9a618b6334b626748900552e07bfb1de6b0c5971ad8e953b11",
         [0.015005666631855957, 0.19657140431366701, 0.02729789463439274,
          0.01557189029801133]),
    50: ("678a2ce79abdcccfde65594de78159c58899ebee615492bf8c803340f455036f",
         [0.013853411532112945, 0.20380901576289004, 0.024063620007766268,
          0.013824803214694432]),
}

# The platform these literals were taken on (``platform_fingerprint`` in
# conftest.py); other numpy SIMD levels or OpenBLAS kernels give other bits.
PINNED_ON = "numpy 2.4.6, X86_V4/AVX512_SPR, OpenBLAS SkylakeX"


@pytest.mark.pinned_on(PINNED_ON)
@pytest.mark.parametrize("env_seed", [None, "9"])
@pytest.mark.parametrize("timesteps", [10, 50])
def test_composite_benchmark_matches_pinned_literals(timesteps, env_seed, monkeypatch):
    if env_seed is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    pipeline, scorer = composite_benchmark(timesteps=timesteps)
    _, sample = pipeline.forward(np.random.default_rng(5).standard_normal((4, 16)))
    digest, scores = PINNED[timesteps]
    assert hashlib.sha256(sample.tobytes()).hexdigest() == digest
    assert [float(scorer.score(row)) for row in sample] == scores


def test_malformed_env_seed_is_a_config_error(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "nine")
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        composite_benchmark()


def _lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_benchmark_config_file_is_the_generated_text():
    with open(ROOT / "configs" / "benchmark.txt", encoding="utf-8") as fh:
        assert _lines(fh.read()) == _lines(composite_benchmark_config())


def test_quick_config_differs_from_the_generated_text_in_its_run_size_only():
    with open(ROOT / "configs" / "quick.txt", encoding="utf-8") as fh:
        quick = _lines(fh.read())
    generated = _lines(composite_benchmark_config())
    assert len(quick) == len(generated)
    for ours, theirs in zip(quick, generated):
        key = ours.partition(" = ")[0]
        assert key == theirs.partition(" = ")[0]
        if key not in ("epochs", "candidates", "seeds", "output"):
            assert ours == theirs


def test_platform_fingerprint_names_numpy_simd_and_blas():
    from conftest import platform_fingerprint

    numpy_part, simd, blas = platform_fingerprint().split(", ")
    assert numpy_part == f"numpy {np.__version__}"
    assert simd == "baseline" or simd.split("/")[0].startswith(("X86_V", "AVX512_"))
    assert blas.startswith("OpenBLAS ")
