"""Tests for the benchmark's pure parts and its stand-in score service.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import http.client
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import moment_bounds  # noqa: E402
from score_service import ScoreService, ServiceCounters, composite_score  # noqa: E402
from stats import (  # noqa: E402
    epochs_to_target,
    median,
    percentile,
    samples_beyond,
    time_to_target,
)
from tracing import Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [  # (id, name, start, end, parent, raised), in the order they end
        (2, "leaf", 20, 30, 1, False),
        (1, "a", 10, 40, 0, False),
        (3, "b", 50, 60, 0, False),
        (0, "root", 0, 100, -1, False),
        (4, "outside", 200, 210, -1, False),
    ]
    times = self_times(spans)
    assert times["root"].self_ns == 100 - 30 - 10
    assert times["a"].self_ns == 30 - 10
    assert times["leaf"].self_ns == 10
    assert times["b"].self_ns == 10
    assert sum(t.self_ns for n, t in times.items() if n != "outside") == 100
    assert "outside" not in self_times(spans, root="root")


def test_covered_takes_the_union_clipped_to_the_parent():
    assert covered((0, 100), [(10, 30), (20, 40), (35, 50)]) == 40
    assert covered((0, 100), [(-5, 10), (90, 120)]) == 20
    assert covered((0, 100), []) == 0


def test_tracer_records_parents_and_failures():
    tracer = Tracer(clock=iter(range(100)).__next__)
    inner = tracer.wrap("inner", lambda: 1 / 0)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(ZeroDivisionError):
        outer()
    inner_span, outer_span = tracer.spans
    assert inner_span[:2] + inner_span[4:] == (1, "inner", 0, True)
    assert outer_span[:2] + outer_span[4:] == (0, "outer", -1, True)
    assert outer_span[2] < inner_span[2] < inner_span[3] < outer_span[3]


def test_install_rebinds_every_alias_and_uninstall_restores():
    from noisediff import config, experiment, optimizers, scoring

    originals = (optimizers.select_noise, experiment.run_noise_diffusion,
                 optimizers.checked_score, scoring.checked_score,
                 config.ExperimentConfig.__dict__["from_text"])
    text = WORKLOADS["composite-t50"].config_text([0], "unused", epochs=1)
    with Tracer() as tracer:
        assert optimizers.select_noise is not originals[0]
        assert experiment.run_noise_diffusion is not originals[1]
        assert optimizers.checked_score is scoring.checked_score is not originals[2]
        config.ExperimentConfig.from_text(text)
    assert (optimizers.select_noise, experiment.run_noise_diffusion,
            optimizers.checked_score, scoring.checked_score,
            config.ExperimentConfig.__dict__["from_text"]) == originals
    names = [s[1] for s in sorted(tracer.spans)]
    assert names[0] == "config.from_text" and "config.build_pipeline" in names


def test_nearest_rank_percentile_and_tail_rule():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(10000, 99.9) == 10


def test_time_to_target_is_censored_at_infinity():
    best = [0.2, 0.5, 0.95, 0.97]
    wall = [4.0, 10.0, 10.0, 10.0]
    assert time_to_target(best, wall, 0.9) == pytest.approx(0.024)
    assert time_to_target(best, wall, 0.99) == math.inf
    assert median([1.0, math.inf, math.inf]) == math.inf
    assert median([1.0, 2.0, math.inf]) == 2.0
    assert epochs_to_target(best, 0.9, 3) == 2
    assert epochs_to_target(best, 0.99, 3) == 4


def test_moment_bounds_equal_c01_at_d1024():
    assert moment_bounds(1024) == pytest.approx((0.1, 0.1))


GROUPS = [{"indices": [0, 2], "target": [1.0, -1.0], "radius": 1.5, "sharpness": 2.0}]


def _post(conn, body):
    conn.request("POST", "/score", body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def test_service_counts_requests_and_connections():
    sample = [0.5, 9.0, -0.25]
    service = ScoreService(GROUPS)
    try:
        for _ in range(2):  # a fresh connection per request
            conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=5)
            status, body = _post(conn, json.dumps({"sample": sample}))
            conn.close()
            assert status == 200
            assert json.loads(body)["score"] == composite_score(sample, GROUPS)
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=5)
        for _ in range(3):  # HTTP/1.1 keep-alive: one connection, three requests
            assert _post(conn, json.dumps({"sample": sample}))[0] == 200
        assert _post(conn, b"not json")[0] == 400
        conn.close()
        counters = service.counters()
        assert counters == ServiceCounters(connections=3, requests=6, errors=1)
        assert counters.minus(ServiceCounters(1, 2, 0)) == ServiceCounters(2, 4, 1)
    finally:
        service.close()
    assert service._proc.returncode == 0


def test_composite_score_matches_the_program_scorer():
    from noisediff.benchmarks import composite_benchmark

    _, scorer = composite_benchmark(timesteps=10)
    groups = WORKLOADS["remote-fd"].scorer_groups()
    x = np.random.default_rng(3).standard_normal(16)
    assert composite_score(list(x), groups) == pytest.approx(float(scorer.score(x)), rel=1e-12)


def test_preservation_text_builds_the_preservation_benchmark():
    from noisediff.benchmarks import preservation_benchmark
    from noisediff.config import ExperimentConfig

    workload = WORKLOADS["preservation-d1024"]
    config = ExperimentConfig.from_text(workload.config_text([0], "unused"))
    pipeline, scorer = preservation_benchmark(timesteps=workload.timesteps)
    z = np.random.default_rng(5).standard_normal(1024)
    _, expected = pipeline.forward(z)
    _, sample = config.build_pipeline().forward(z)
    assert np.array_equal(sample, expected)
    assert config.build_scorer().score(sample) == scorer.score(expected)


def test_seed_blocks_are_disjoint():
    w = WORKLOADS["composite-t50"]
    assert not set(w.seeds(0)) & set(w.seeds(1))
    assert w.seeds(3) == w.seeds(3)
