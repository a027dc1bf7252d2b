import numpy as np
import pytest
from numpy.testing import assert_array_equal

from noisediff.benchmarks import composite_benchmark, composite_benchmark_config
from noisediff.config import ExperimentConfig


@pytest.mark.parametrize("timesteps", [10, 50])
def test_composite_text_builds_the_composite_benchmark(timesteps):
    config = ExperimentConfig.from_text(composite_benchmark_config(seeds=[0], timesteps=timesteps))
    pipeline, scorer = composite_benchmark(timesteps=timesteps)
    z = np.random.default_rng(5).standard_normal((4, 16))
    _, expected = pipeline.forward(z)
    _, sample = config.pipeline.forward(z)
    assert_array_equal(sample, expected)
    assert_array_equal(config.scorer.score(sample), scorer.score(expected))
