"""A run's seeds advance in lockstep through one batched forward per
epoch; each seed's trajectory must still be the one it has alone."""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from noisediff import optimizers
from noisediff.benchmarks import composite_benchmark_config, quadratic_benchmark
from noisediff.cli import main
from noisediff.config import ExperimentConfig
from noisediff.errors import ScorerUnavailableError
from noisediff.experiment import run_experiment, run_single, write_trajectory_csv
from noisediff.latents import RngStream, sample_standard_normal
from noisediff.optimizers import NoiseDiffusionConfig, run_lockstep

SEEDS = (0, 1, 2, 5)

VARIANTS = {
    "noise-diffusion": "",
    "pgd": "method = pgd\n",
    "mean-variance": "method = mean-variance\n",
    "random-sampling": "method = random-sampling\n",
    "random-diffusion": "method = random-diffusion\n",
    "fd-budget-2": "gradient.mode = finite-difference\ngradient.fd_budget = 2\n",
    "chain": "gradient.mode = analytic-chain\n",
    # one candidate: its ratio is often negative, so strict skips epochs
    "strict": "strict = true\ncandidates = 1\n",
}

# sha256 of each variant's stable outputs (``_digest``), pinned as
# literals so that any change to a trajectory, a final latent or a best
# latent fails the test
DIGESTS = {
    "chain": "f67267d595583cd5828f7b68aea3f5baa1e57691b868dd406c5c23e22db23bb1",
    "fd-budget-2": "e1317efd4edcc17350d32e045feb59b2049367aa2e96fac31be28119f93bf919",
    "mean-variance": "6a3be78fe9c0a96859517eda3556a5c8e81ad6b96397a3f38e7f849e1689c4a5",
    "noise-diffusion": "1ffc1ef9aacc918a7d89cdf8dd39ae1694559c4f68f6ff1267dade003ee053a7",
    "pgd": "ca65e2dbb530546fc4cc72b41a5acfa903059dac61d79a4c37fa4ebfb7dc98c4",
    "random-diffusion": "4b45d9072f27fc38a4087eb4dc5ea0594299ad2cc3e630c1b8e5b6aaafe5869b",
    "random-sampling": "33009fb7f11833a1bf49ae2cd46c97e301d8e0c5e31886742ea96d45d01e7e8d",
    "strict": "7949af0b833e18f5440f0511bdb94c26714eab05bdcfbaa17f144bc84664f05d",
}

# The platform these literals were taken on (``platform_fingerprint`` in
# conftest.py); other numpy SIMD levels or OpenBLAS kernels give other bits.
PINNED_ON = "numpy 2.4.6, X86_V4/AVX512_SPR, OpenBLAS SkylakeX"


def _config_text(tmp_path, extra="", epochs=6):
    text = composite_benchmark_config(seeds=SEEDS, epochs=epochs, candidates=10,
                                      output=str(tmp_path / "out"))
    keys = {line.split(" = ")[0] for line in extra.splitlines()}
    kept = [line for line in text.splitlines() if line.split(" = ")[0] not in keys]
    return "\n".join(kept) + "\n" + extra


def _rows(record):
    """The trajectory without its wall-clock column, bit for bit."""
    return [repr(dataclasses.replace(row, wall_ms=0.0)) for row in record.rows]


def _digest(records):
    """sha256 of every seed's stable outputs: its rows without wall_ms,
    its final latent and its best latent."""
    h = hashlib.sha256()
    for seed in SEEDS:
        rec = records[seed]
        h.update("\n".join(_rows(rec)).encode())
        h.update(rec.final_latent.tobytes())
        h.update(rec.best_latent.tobytes())
    return h.hexdigest()


class TestSeedsMatchRunSingle:
    @pytest.mark.pinned_on(PINNED_ON)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_rows_and_latents(self, tmp_path, variant):
        config = ExperimentConfig.from_text(_config_text(tmp_path, VARIANTS[variant]))
        result = run_experiment(config)
        assert result.exit_code == 0
        for seed in SEEDS:
            shared, alone = result.records[seed], run_single(config, seed)
            assert _rows(shared) == _rows(alone)
            assert shared.final_latent.tobytes() == alone.final_latent.tobytes()
            assert shared.best_latent.tobytes() == alone.best_latent.tobytes()
        assert _digest(result.records) == DIGESTS[variant]
        if variant == "strict":  # the variant must exercise skipped epochs
            assert any(row.v_norm is None for rec in result.records.values()
                       for row in rec.rows[1:])


class TestOneSeedFails:
    def test_other_seeds_run_on(self, tmp_path, monkeypatch):
        path = tmp_path / "config.txt"
        path.write_text(_config_text(tmp_path))
        config = ExperimentConfig.from_text(path.read_text())
        checked_score = optimizers.checked_score
        scored = []

        def recording(scorer, sample):
            scored.append(np.array(sample, copy=True))
            return checked_score(scorer, sample)

        monkeypatch.setattr(optimizers, "checked_score", recording)
        failing = run_single(config, 1)
        poisoned = scored[3]  # the sample seed 1 reaches at epoch 3

        def failing_for_seed_1(scorer, sample):
            if np.array_equal(sample, poisoned):
                raise ScorerUnavailableError("injected outage")
            return checked_score(scorer, sample)

        monkeypatch.setattr(optimizers, "checked_score", failing_for_seed_1)
        assert main(["run", str(path)]) == 3
        out = tmp_path / "out"
        status = (out / "status.txt").read_text().splitlines()
        assert status == ["incomplete",
                          "seed 1: incomplete (ScorerUnavailableError: injected outage)"]
        monkeypatch.setattr(optimizers, "checked_score", checked_score)
        for seed in SEEDS:
            alone = run_single(config, seed)
            if seed == 1:
                alone.rows = failing.rows[:3]  # epochs 0..2, then the outage
            write_trajectory_csv(alone, str(tmp_path / "alone.csv"))
            got = (out / f"trajectory_seed{seed}.csv").read_text().splitlines()
            want = (tmp_path / "alone.csv").read_text().splitlines()
            assert [line.rsplit(",", 1)[0] for line in got] == [
                line.rsplit(",", 1)[0] for line in want
            ]


class SleepingPipeline:
    """Stands in for a Pipeline whose every forward call takes a fixed
    extra time, however many latents it carries."""

    def __init__(self, pipeline, seconds):
        self.pipeline = pipeline
        self.seconds = seconds

    def __getattr__(self, name):
        return getattr(self.pipeline, name)

    def forward(self, z_T):
        time.sleep(self.seconds)
        return self.pipeline.forward(z_T)


def test_wall_ms_is_a_share_of_the_forward():
    pipe, scorer = quadratic_benchmark()
    sleep_ms, seeds, epochs = 40.0, 4, 4
    starts = [
        (sample_standard_normal(RngStream(s, "init"), pipe.dim), RngStream(s, "candidates"))
        for s in range(seeds)
    ]
    start = time.perf_counter()
    records = run_lockstep(starts, SleepingPipeline(pipe, sleep_ms / 1e3), scorer,
                           NoiseDiffusionConfig(epochs=epochs, candidates=8))
    loop_ms = (time.perf_counter() - start) * 1e3
    walls = [row.wall_ms for rec in records for row in rec.rows]
    assert len(walls) == seeds * (epochs + 1)
    # each moved seed carries a quarter of the sleep, not all of it
    assert all(sleep_ms / seeds <= ms < sleep_ms / 2 for ms in walls)
    assert 0.8 * loop_ms <= sum(walls) <= loop_ms
