"""Acceptance suite: one test per release criterion, each printing the
measured values behind its verdict. Run with `pytest tests/test_acceptance.py -v -s`.

The comparative criteria are evaluated on the fixed synthetic benchmarks
(see noisediff.benchmarks); every run is seeded, so each verdict is a
deterministic property of the code base.
"""

import re
import time

import numpy as np
import pytest

from noisediff.benchmarks import (
    composite_benchmark,
    composite_benchmark_config,
    preservation_benchmark,
)
from noisediff.cli import main
from noisediff.config import ExperimentConfig
from noisediff.diffusion import ConstantDenoiser, GuidanceConfig, Pipeline, build_schedule
from noisediff.experiment import read_trajectory_csv, run_experiment
from noisediff.latents import RngStream, ks_normality, sample_standard_normal
from noisediff.optimizers import (
    BaselineConfig,
    NoiseDiffusionConfig,
    run_baseline,
    run_noise_diffusion,
    select_noise,
)
from noisediff.scoring import (
    QuadraticSigmoidScorer,
    grad_latent_approx,
    grad_latent_fd,
)
from noisediff.analysis import check_improvement_condition, ratio_quartiles

SEEDS = range(25)
EPOCHS = 50
CANDIDATES = 50


def _nd_runs(pipeline, scorer, seeds=SEEDS, candidates=CANDIDATES, record_latents=False):
    records = []
    for seed in seeds:
        z0 = sample_standard_normal(RngStream(seed, "init"), pipeline.dim)
        records.append(
            run_noise_diffusion(
                z0, pipeline, scorer,
                NoiseDiffusionConfig(epochs=EPOCHS, candidates=candidates,
                                     record_latents=record_latents),
                RngStream(seed, "candidates"),
            )
        )
    return records


def _baseline_runs(pipeline, scorer, method, seeds=SEEDS):
    records = []
    for seed in seeds:
        z0 = sample_standard_normal(RngStream(seed, "init"), pipeline.dim)
        records.append(
            run_baseline(z0, pipeline, scorer, BaselineConfig(method=method, epochs=EPOCHS),
                         RngStream(seed, f"baseline-{method}"))
        )
    return records


def _median_epochs_to(records, threshold=0.9):
    """Median epochs until best score reaches the threshold; runs that
    never reach it are censored at EPOCHS + 1."""
    counts = [r.epochs_to(threshold) for r in records]
    return float(np.median([c if c >= 0 else EPOCHS + 1 for c in counts]))


@pytest.fixture(scope="module")
def composite_runs():
    pipeline, scorer = composite_benchmark(timesteps=10)
    start = time.perf_counter()
    runs = {
        "noise-diffusion": _nd_runs(pipeline, scorer),
        "random-diffusion": _baseline_runs(pipeline, scorer, "random-diffusion"),
        "random-sampling": _baseline_runs(pipeline, scorer, "random-sampling"),
    }
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_c01_distribution_preservation():
    """Every epoch's latent must still look standard normal: moment
    bounds (|mean| <= 0.1, |var - 1| <= 0.1) and KS at the 0.01 level
    jointly hold in >= 97% of (seed, epoch) pairs over 100 seeds at
    d = 1024. The bounds are 2-3 standard errors wide at this dimension,
    so they can only be read per-pair: a battery of ideal i.i.d. N(0, I)
    draws passes all three in just ~96% of cases."""
    pipeline, scorer = preservation_benchmark(timesteps=10)
    start = time.perf_counter()
    good = total = 0
    for seed in range(100):
        z0 = sample_standard_normal(RngStream(seed, "init"), pipeline.dim)
        record = run_noise_diffusion(
            z0, pipeline, scorer,
            NoiseDiffusionConfig(epochs=EPOCHS, candidates=CANDIDATES, record_latents=True),
            RngStream(seed, "candidates"),
        )
        record.validate()
        for z in record.latents:
            moments_ok = abs(z.mean()) <= 0.1 and abs(z.var(ddof=1) - 1.0) <= 0.1
            _, p = ks_normality(z)
            total += 1
            good += moments_ok and (p > 0.01)
    elapsed = time.perf_counter() - start
    fraction = good / total
    print(f"\ncriterion 1: {good}/{total} pairs pass moments+KS = {fraction:.4f} "
          f"(runtime {elapsed:.0f}s)")
    assert total == 100 * (EPOCHS + 1)
    assert fraction >= 0.97
    assert elapsed <= 300.0


def test_c02_selection_oracle_equivalence():
    """select_noise must equal exhaustive argmax with lowest-index
    tie-break on 1000 random instances across dims and pool sizes."""
    gen = np.random.default_rng(20240)
    cases = 0
    for d in (4, 16, 64):
        for n in (1, 10, 50):
            reps = 112 if (d, n) != (64, 50) else 104  # 1000 total
            for _ in range(reps):
                z = gen.standard_normal(d)
                grad = gen.standard_normal(d)
                gamma = gen.uniform()
                cands = [gen.standard_normal(d) for _ in range(n)]
                idx, ratio = select_noise(grad, z, gamma, cands)
                ratios = []
                for sigma in cands:
                    v = (np.sqrt(1 - gamma) - 1) * z + np.sqrt(gamma) * sigma
                    ratios.append(float(grad @ v) / float(v @ v))
                best = max(ratios)
                expect = next(i for i, r in enumerate(ratios) if r == best)
                assert idx == expect
                cases += 1
    print(f"\ncriterion 2: {cases}/1000 instances match brute force")
    assert cases == 1000


def test_c03_one_pass_gradient_exactness_regime():
    """With frozen noise predictions (T = 50), the one-pass gradient and
    full-pipeline central differences agree to 1e-5 relative on 100
    probes at d = 8."""
    sched = build_schedule(50)
    pipe = Pipeline(ConstantDenoiser(np.full(8, 0.25)), GuidanceConfig(w=7.5), sched)
    scorer = QuadraticSigmoidScorer(target=np.zeros(8), sharpness=0.05, offset=1.0)
    gen = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        z = gen.standard_normal(8)
        approx = grad_latent_approx(z, pipe, scorer)
        fd = grad_latent_fd(z, pipe, scorer)
        worst = max(worst, np.linalg.norm(approx - fd) / np.linalg.norm(fd))
    print(f"\ncriterion 3: worst relative disagreement {worst:.2e}")
    assert worst <= 1e-5


def test_c04_improvement_guarantee_monte_carlo():
    """10^4 probes satisfying the ratio condition (with the analytic
    curvature bound, delta = 0.01) must all reach the guaranteed floor
    s + delta ||v||^2 within 1e-9."""
    d = 8
    scorer = QuadraticSigmoidScorer(target=np.zeros(d), sharpness=0.5, offset=1.0)
    c = scorer.hessian_bound()
    delta = 0.01
    threshold = c / 2.0 + delta
    gen = np.random.default_rng(404)
    checked = violations = 0
    while checked < 10**4:
        z = gen.standard_normal(d) * 1.2
        g = scorer.gradient(z)
        gn = np.linalg.norm(g)
        if gn < 1e-2:
            continue
        vhat = g / gn + 0.3 * gen.standard_normal(d)
        vhat /= np.linalg.norm(vhat)
        align = float(g @ vhat)
        if align <= 1e-2:
            continue
        v = gen.uniform(0.05, 1.0) * align / threshold * vhat
        report = check_improvement_condition(
            float(scorer.score(z)), float(scorer.score(z + v)), g, v, c, delta, tol=1e-9
        )
        if report.triggered:
            checked += 1
            violations += not report.satisfied
    print(f"\ncriterion 4: c={c:.4f}, {violations} violations in {checked} probes")
    assert violations == 0


def test_c05_comparative_ordering(composite_runs):
    """Median final best score must order noise-diffusion > random-
    diffusion >= random-sampling on the composite benchmark (25 paired
    seeds), and noise-diffusion must reach 0.9 in strictly fewer median
    epochs (never-reached runs censored at EPOCHS + 1)."""
    med = {m: float(np.median([r.best_score for r in recs]))
           for m, recs in composite_runs.items() if m != "elapsed"}
    nd_e = _median_epochs_to(composite_runs["noise-diffusion"])
    rd_e = _median_epochs_to(composite_runs["random-diffusion"])
    print(f"\ncriterion 5: medians nd={med['noise-diffusion']:.4f} "
          f"rd={med['random-diffusion']:.4f} rs={med['random-sampling']:.4f}; "
          f"epochs-to-0.9 nd={nd_e:.0f} rd={rd_e:.0f} "
          f"(runtime {composite_runs['elapsed']:.0f}s)")
    assert med["noise-diffusion"] > med["random-diffusion"]
    assert med["random-diffusion"] >= med["random-sampling"]
    assert nd_e < rd_e
    assert composite_runs["elapsed"] <= 600.0


def test_c06_monotone_best_score(composite_runs, tmp_path):
    """best_score never decreases, in every in-memory trajectory of the
    comparison set (all five methods) and in every emitted CSV."""
    pipeline, scorer = composite_benchmark(timesteps=10)
    records = [r for m, recs in composite_runs.items() if m != "elapsed" for r in recs]
    for method in ("pgd", "mean-variance"):
        records.extend(_baseline_runs(pipeline, scorer, method, seeds=range(5)))
    for record in records:
        record.validate()
    cfg = ExperimentConfig.from_text(
        composite_benchmark_config(seeds=[0, 1], epochs=10, output=str(tmp_path / "run"))
    )
    result = run_experiment(cfg)
    csv_rows = 0
    for seed in (0, 1):
        cols = read_trajectory_csv(str(tmp_path / "run" / f"trajectory_seed{seed}.csv"))
        best = cols["best_score"]
        assert all(b >= a for a, b in zip(best, best[1:]))
        csv_rows += len(best)
    print(f"\ncriterion 6: {len(records)} trajectories + {csv_rows} CSV rows monotone")


def test_c07_candidate_count_quartile_trend(composite_runs):
    """Q1 of the selected ratio must be non-decreasing in the candidate
    count across N in {10, 20, 50}."""
    pipeline, scorer = composite_benchmark(timesteps=10)
    q1 = {}
    for n in (10, 20):
        q1[n], _, _ = ratio_quartiles(_nd_runs(pipeline, scorer, candidates=n))
    q1[50], _, _ = ratio_quartiles(composite_runs["noise-diffusion"])
    print(f"\ncriterion 7: Q1 by N = {q1[10]:.4f} -> {q1[20]:.4f} -> {q1[50]:.4f}")
    assert q1[10] <= q1[20] <= q1[50]


def test_c08_timestep_robustness(composite_runs):
    """At T = 10 and T = 50 alike, the median final best score must
    exceed the median initial score by at least 0.2."""
    gains = {}
    t10 = composite_runs["noise-diffusion"]
    gains[10] = float(np.median([r.best_score for r in t10])) - float(
        np.median([r.rows[0].score for r in t10])
    )
    pipeline50, scorer = composite_benchmark(timesteps=50)
    t50 = _nd_runs(pipeline50, scorer)
    gains[50] = float(np.median([r.best_score for r in t50])) - float(
        np.median([r.rows[0].score for r in t50])
    )
    print(f"\ncriterion 8: median gain T=10: {gains[10]:.4f}, T=50: {gains[50]:.4f}")
    assert gains[10] >= 0.2
    assert gains[50] >= 0.2


def test_c09_run_determinism(tmp_path):
    """Identical configs must reproduce byte-identical artifacts, with
    only the wall_ms trajectory column exempt."""
    cfg_text = composite_benchmark_config(seeds=[0, 1], epochs=5, output="unused")
    cfg_path = tmp_path / "bench.txt"
    cfg_path.write_text(cfg_text)
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "b")]) == 0
    compared = 0
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        fa, fb = tmp_path / "a" / name, tmp_path / "b" / name
        if name.startswith("trajectory_"):
            a_rows = [",".join(l.split(",")[:-1]) for l in fa.read_text().splitlines()]
            b_rows = [",".join(l.split(",")[:-1]) for l in fb.read_text().splitlines()]
            assert a_rows == b_rows
        else:
            assert fa.read_bytes() == fb.read_bytes()
        compared += 1
    print(f"\ncriterion 9: {compared} artifacts byte-identical (wall_ms excluded)")
    assert compared >= 6


def test_c10_remote_scorer_contract(tmp_path, score_service):
    """Score-only optimization completes against a live mock service;
    injected timeouts and out-of-range scores exit with code 3 and flag
    the partial artifacts."""

    def config_for(out, timeout_ms):
        path = tmp_path / f"remote_{out}.txt"
        path.write_text(
            "method = random-diffusion\n"
            "dim = 8\n"
            "epochs = 4\n"
            "seeds = 0,1\n"
            f"output = {tmp_path / out}\n"
            "timesteps = 5\n"
            "scorer.type = remote\n"
            f"scorer.remote.endpoint = {score_service.endpoint}\n"
            f"scorer.remote.timeout_ms = {timeout_ms}\n"
            "scorer.remote.retries = 1\n"
            "scorer.prompt = a lion and a monkey\n"
        )
        return path

    score_service.reset(behavior="constant", value=0.7)
    assert main(["run", str(config_for("ok", 2000))]) == 0
    assert (tmp_path / "ok" / "status.txt").read_text().startswith("ok")

    score_service.reset(behavior="slow", delay=1.0)
    assert main(["run", str(config_for("slow", 100))]) == 3
    slow_status = (tmp_path / "slow" / "status.txt").read_text()
    assert "incomplete" in slow_status and "ScorerUnavailableError" in slow_status
    assert (tmp_path / "slow" / "trajectory_seed0.csv").exists()

    score_service.reset(behavior="out-of-range")
    assert main(["run", str(config_for("range", 2000))]) == 3
    assert "ScorerContractError" in (tmp_path / "range" / "status.txt").read_text()
    print("\ncriterion 10: ok run exit 0; timeout and out-of-range exit 3 with flags")
