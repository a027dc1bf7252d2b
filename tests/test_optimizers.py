import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisediff import optimizers
from noisediff.analysis import selection_ratio
from noisediff.benchmarks import quadratic_benchmark
from noisediff.diffusion import (
    ConstantDenoiser,
    GuidanceConfig,
    MixtureComponent,
    NoiseSchedule,
    Pipeline,
)
from noisediff.errors import (
    DegenerateStepError,
    DimensionError,
    InvalidScoreError,
    ScorerContractError,
    ScorerUnavailableError,
)
from noisediff.latents import RngStream, sample_standard_normal
from noisediff.optimizers import (
    BaselineConfig,
    NoiseDiffusionConfig,
    TrajectoryRecord,
    apply_update,
    run_baseline,
    run_noise_diffusion,
    select_noise,
    step_difference,
    step_size_gamma,
)
from noisediff.scoring import (
    GradientMode,
    QuadraticSigmoidScorer,
    Scorer,
    TargetGroup,
    checked_score,
    latent_gradient,
)


def identity_pipeline(dim):
    return Pipeline(ConstantDenoiser(np.zeros(dim)), GuidanceConfig(w=7.5), NoiseSchedule(np.ones(1)))


class ConstantOneScorer(Scorer):
    def score(self, sample):
        return 1.0

    def gradient(self, sample):
        return np.zeros_like(np.asarray(sample, dtype=np.float64))


class FlakyScorer(Scorer):
    """Healthy scorer that goes dark after a fixed number of calls."""

    def __init__(self, fail_after):
        self.calls = 0
        self.fail_after = fail_after

    def score(self, sample):
        self.calls += 1
        if self.calls > self.fail_after:
            raise ScorerUnavailableError("injected outage")
        return 0.5

    def gradient(self, sample):
        return np.full(np.asarray(sample).shape, 0.01)


class TestStepSizeGamma:
    def test_endpoints(self):
        assert step_size_gamma(1.0) == 0.0
        assert step_size_gamma(0.0) == 1.0

    def test_mid(self):
        assert step_size_gamma(0.81) == pytest.approx(0.1)

    @pytest.mark.parametrize("s", [-0.1, 1.1, float("nan")])
    def test_out_of_range(self, s):
        with pytest.raises(InvalidScoreError):
            step_size_gamma(s)


class TestStepAlgebra:
    def test_gamma_zero_is_no_step(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_array_equal(step_difference(z, 0.0, np.ones(2)), np.zeros(2))
        np.testing.assert_array_equal(apply_update(z, 0.0, np.ones(2)), z)

    def test_gamma_one_replaces(self):
        z = np.array([1.0, -2.0])
        sigma = np.array([0.5, 0.5])
        np.testing.assert_array_equal(step_difference(z, 1.0, sigma), sigma - z)
        np.testing.assert_array_equal(apply_update(z, 1.0, sigma), sigma)

    def test_update_equals_z_plus_difference(self):
        gen = RngStream(0, "alg").generator()
        for _ in range(50):
            z = gen.standard_normal(16)
            sigma = gen.standard_normal(16)
            gamma = gen.uniform()
            lhs = apply_update(z, gamma, sigma) - z
            rhs = step_difference(z, gamma, sigma)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_update_preserves_moments(self):
        n = 10**5
        z = sample_standard_normal(RngStream(1, "mz"), n)
        sigma = sample_standard_normal(RngStream(1, "ms"), n)
        out = apply_update(z, 0.37, sigma)
        assert abs(out.mean()) < 0.02
        assert abs(out.var(ddof=1) - 1.0) < 0.02

    def test_shape_and_gamma_validation(self):
        with pytest.raises(DimensionError):
            apply_update(np.zeros(2), 0.5, np.zeros(3))
        with pytest.raises(InvalidScoreError):
            apply_update(np.zeros(2), 1.5, np.zeros(2))


class TestSelectNoise:
    def test_single_candidate(self):
        idx, _ = select_noise(np.ones(3), np.zeros(3), 0.5, [np.ones(3)])
        assert idx == 0

    def test_zero_gradient_ties_to_lowest_index(self):
        gen = RngStream(2, "tie").generator()
        cands = [gen.standard_normal(4) for _ in range(5)]
        idx, ratio = select_noise(np.zeros(4), np.zeros(4), 1.0, cands)
        assert idx == 0
        assert ratio == 0.0

    def test_exact_duplicate_ties_to_lowest_index(self):
        sigma = np.ones(3)
        idx, _ = select_noise(np.ones(3), np.zeros(3), 0.5, [sigma, sigma.copy(), sigma])
        assert idx == 0

    def test_matches_brute_force(self):
        gen = RngStream(3, "brute").generator()
        for _ in range(50):
            d = int(gen.choice([4, 16]))
            n = int(gen.choice([1, 10, 50]))
            z = gen.standard_normal(d)
            grad = gen.standard_normal(d)
            gamma = gen.uniform()
            cands = [gen.standard_normal(d) for _ in range(n)]
            got_idx, got_ratio = select_noise(grad, z, gamma, cands)
            ratios = []
            for sigma in cands:
                v = (np.sqrt(1 - gamma) - 1) * z + np.sqrt(gamma) * sigma
                ratios.append(float(grad @ v) / float(v @ v))
            assert got_idx == int(np.argmax(ratios))
            assert got_ratio == pytest.approx(max(ratios))

    def test_positive_gradient_scaling_keeps_argmax(self):
        gen = RngStream(4, "scale").generator()
        z = gen.standard_normal(8)
        grad = gen.standard_normal(8)
        cands = [gen.standard_normal(8) for _ in range(20)]
        base, base_ratio = select_noise(grad, z, 0.4, cands)
        for k in (1e-6, 3.0, 1e6):
            idx, ratio = select_noise(k * grad, z, 0.4, cands)
            assert idx == base
            assert ratio == pytest.approx(k * base_ratio)

    def test_all_degenerate_raises(self):
        with pytest.raises(DegenerateStepError):
            select_noise(np.ones(3), np.zeros(3), 0.0, [np.ones(3), 2 * np.ones(3)])


class TestRunNoiseDiffusion:
    def test_perfect_score_is_fixed_point(self):
        dim = 6
        z0 = sample_standard_normal(RngStream(0, "init"), dim)
        rec = run_noise_diffusion(
            z0, identity_pipeline(dim), ConstantOneScorer(),
            NoiseDiffusionConfig(epochs=5, candidates=4), RngStream(0, "candidates"),
        )
        assert rec.best_score == 1.0
        assert rec.rows[0].best_score == 1.0
        np.testing.assert_array_equal(rec.final_latent, z0)
        assert all(row.gamma in (None, 0.0) for row in rec.rows)
        assert all(row.v_norm is None for row in rec.rows[1:])  # epochs skipped

    def test_zero_epochs(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(0, "init"), 16)
        rec = run_noise_diffusion(z0, pipe, scorer, NoiseDiffusionConfig(epochs=0), RngStream(0, "c"))
        assert len(rec.rows) == 1
        assert rec.best_score == rec.rows[0].score

    def test_benchmark_beats_random_sampling(self):
        """Paired seeds on the smooth benchmark: the gradient-selected
        method must end strictly above its start and at least match
        fresh resampling in >= 20 of 25 seeds."""
        pipe, scorer = quadratic_benchmark()
        wins = 0
        for seed in range(25):
            z0 = sample_standard_normal(RngStream(seed, "init"), 16)
            nd = run_noise_diffusion(
                z0, pipe, scorer, NoiseDiffusionConfig(epochs=50, candidates=50),
                RngStream(seed, "candidates"),
            )
            rs = run_baseline(
                z0, pipe, scorer, BaselineConfig(method="random-sampling", epochs=50),
                RngStream(seed, "baseline-random-sampling"),
            )
            assert nd.best_score > nd.rows[0].score
            wins += nd.best_score >= rs.best_score
        assert wins >= 20

    def test_strict_mode_skips_negative_ratio_epochs(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(1, "init"), 16)
        rec = run_noise_diffusion(
            z0, pipe, scorer,
            NoiseDiffusionConfig(epochs=30, candidates=2, strict_improvement=True),
            RngStream(1, "candidates"),
        )
        rec.validate()
        for prev, row in zip(rec.rows, rec.rows[1:]):
            if row.selected_ratio is not None and row.selected_ratio < 0:
                assert row.v_norm is None
                assert row.score == prev.score

    def test_outage_flags_partial_trajectory(self):
        dim = 8
        z0 = sample_standard_normal(RngStream(0, "init"), dim)
        rec = run_noise_diffusion(
            z0, identity_pipeline(dim), FlakyScorer(fail_after=4),
            NoiseDiffusionConfig(epochs=10, candidates=3), RngStream(0, "candidates"),
        )
        assert rec.incomplete
        assert "injected outage" in rec.failure
        assert 0 < len(rec.rows) < 11

    def test_trajectory_is_recorded_per_epoch(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(2, "init"), 16)
        rec = run_noise_diffusion(
            z0, pipe, scorer, NoiseDiffusionConfig(epochs=8, candidates=10, record_latents=True),
            RngStream(2, "candidates"),
        )
        assert [r.epoch for r in rec.rows] == list(range(9))
        assert len(rec.latents) == 9
        assert all(r.gamma is not None for r in rec.rows[1:])
        assert all(r.grad_norm is not None for r in rec.rows[1:])
        # the recorded score path matches rescoring the recorded latents
        for z, row in zip(rec.latents, rec.rows):
            assert checked_score(scorer, pipe.forward(z)[1]) == pytest.approx(row.score, abs=1e-12)


class TestRunBaseline:
    def test_random_sampling_single_epoch(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(3, "init"), 16)
        rng = RngStream(3, "baseline-random-sampling")
        cfg = BaselineConfig(method="random-sampling", epochs=1)
        rec = run_baseline(z0, pipe, scorer, cfg, rng)
        fresh = rng.normal(16, 1)
        expect = max(checked_score(scorer, pipe.forward(z)[1]) for z in (z0, fresh))
        assert rec.best_score == pytest.approx(expect, abs=1e-15)

    def test_pgd_zero_step_is_constant(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(4, "init"), 16)
        cfg = BaselineConfig(method="pgd", pgd_step=0.0, epochs=5)
        rec = run_baseline(z0, pipe, scorer, cfg, RngStream(4, "x"))
        scores = {row.score for row in rec.rows}
        assert len(scores) == 1
        np.testing.assert_array_equal(rec.final_latent, z0)

    def test_pgd_stays_in_linf_ball(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(5, "init"), 16)
        cfg = BaselineConfig(method="pgd", pgd_step=0.2, pgd_radius=0.5, epochs=40)
        rec = run_baseline(z0, pipe, scorer, cfg, RngStream(5, "x"))
        assert np.max(np.abs(rec.final_latent - z0)) <= 0.5 + 1e-12

    def test_mean_variance_improves_on_smooth_landscape(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(6, "init"), 16)
        cfg = BaselineConfig(method="mean-variance", mv_learning_rate=0.05, epochs=50)
        rec = run_baseline(z0, pipe, scorer, cfg, RngStream(6, "x"))
        assert rec.best_score > rec.rows[0].score

    def test_random_diffusion_median_at_least_random_sampling(self):
        """Adaptive step size should not lose to blind resampling on the
        smooth benchmark (paired medians over 25 seeds)."""
        pipe, scorer = quadratic_benchmark()
        rd_finals, rs_finals = [], []
        for seed in range(25):
            z0 = sample_standard_normal(RngStream(seed, "init"), 16)
            rd = run_baseline(z0, pipe, scorer, BaselineConfig(method="random-diffusion", epochs=50),
                              RngStream(seed, "baseline-random-diffusion"))
            rs = run_baseline(z0, pipe, scorer, BaselineConfig(method="random-sampling", epochs=50),
                              RngStream(seed, "baseline-random-sampling"))
            rd_finals.append(rd.best_score)
            rs_finals.append(rs.best_score)
        assert np.median(rd_finals) >= np.median(rs_finals)

    def test_random_diffusion_uses_score_driven_gamma(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(7, "init"), 16)
        rec = run_baseline(z0, pipe, scorer, BaselineConfig(method="random-diffusion", epochs=5),
                           RngStream(7, "baseline-random-diffusion"))
        for prev, row in zip(rec.rows, rec.rows[1:]):
            assert row.gamma == pytest.approx(1.0 - np.sqrt(prev.score))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            BaselineConfig(method="hill-climb")

    def test_monotone_best_all_methods(self):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(8, "init"), 16)
        for method in ("pgd", "mean-variance", "random-sampling", "random-diffusion"):
            rec = run_baseline(z0, pipe, scorer, BaselineConfig(method=method, epochs=20),
                               RngStream(8, f"baseline-{method}"))
            rec.validate()
            best = [row.best_score for row in rec.rows]
            assert all(b >= a for a, b in zip(best, best[1:]))


class TestForwardPasses:
    """The approximate gradient reuses the forward that scored the
    latent, so a run makes one pass per epoch plus the initial one."""

    EPOCHS = 6

    def _run(self, method, pipe, scorer, mode=GradientMode.APPROX_CONSTANT_EPS, **kwargs):
        z0 = sample_standard_normal(RngStream(3, "init"), pipe.dim)
        if method == "noise-diffusion":
            cfg = NoiseDiffusionConfig(
                epochs=self.EPOCHS, candidates=8, gradient_mode=mode, **kwargs
            )
            return run_noise_diffusion(z0, pipe, scorer, cfg, RngStream(3, "candidates"))
        cfg = BaselineConfig(method=method, epochs=self.EPOCHS, gradient_mode=mode, **kwargs)
        return run_baseline(z0, pipe, scorer, cfg, RngStream(3, method))

    @pytest.mark.parametrize("method", ["noise-diffusion", "pgd", "mean-variance"])
    def test_one_forward_per_epoch(self, method, counting_pipeline, monkeypatch):
        pipe, scorer = quadratic_benchmark()
        counted = counting_pipeline(pipe)
        rec = self._run(method, counted, scorer)
        assert counted.forwards == self.EPOCHS + 1
        # reference: every gradient runs its own pass from the latent
        monkeypatch.setattr(
            optimizers, "latent_gradient",
            lambda *args, forward=None, **kwargs: latent_gradient(*args, **kwargs),
        )
        ref = self._run(method, pipe, scorer)
        assert [(r.score, r.grad_norm) for r in rec.rows] == [
            (r.score, r.grad_norm) for r in ref.rows
        ]
        np.testing.assert_array_equal(rec.final_latent, ref.final_latent)

    def test_skipped_epochs_keep_the_pair(self, counting_pipeline):
        dim = 6
        counted = counting_pipeline(identity_pipeline(dim))
        z0 = sample_standard_normal(RngStream(0, "init"), dim)
        rec = run_noise_diffusion(z0, counted, ConstantOneScorer(),
                                  NoiseDiffusionConfig(epochs=5, candidates=4),
                                  RngStream(0, "candidates"))
        assert all(row.v_norm is None for row in rec.rows[1:])
        assert counted.forwards == 1

    def test_finite_differences_still_probe(self, counting_pipeline):
        pipe, scorer = quadratic_benchmark()
        counted = counting_pipeline(pipe)
        self._run("noise-diffusion", counted, scorer, GradientMode.FINITE_DIFFERENCE)
        # 2d probes per gradient, plus the rescore, plus the initial pass
        assert counted.latents == self.EPOCHS * (2 * pipe.dim + 1) + 1
        # the probes of a gradient are one batched forward
        assert counted.forwards == self.EPOCHS * 2 + 1

    @pytest.mark.parametrize("method", ["noise-diffusion", "pgd", "mean-variance"])
    def test_finite_difference_budget(self, method, counting_pipeline):
        pipe, scorer = quadratic_benchmark()
        counted = counting_pipeline(pipe)
        self._run(method, counted, scorer, GradientMode.FINITE_DIFFERENCE, fd_budget=2)
        # two probes per budgeted coordinate, plus the rescore, plus the initial pass
        assert counted.latents == self.EPOCHS * (2 * 2 + 1) + 1
        assert counted.forwards == self.EPOCHS * 2 + 1


_QUADRATIC = quadratic_benchmark()


class TestSharedLoop:
    """Properties every method's trajectory has, whatever its step."""

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.sampled_from(("noise-diffusion",) + optimizers.BASELINE_METHODS),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(0, 6),
    )
    def test_rows_best_and_final_latent(self, method, seed, epochs):
        pipe, scorer = _QUADRATIC
        z0 = sample_standard_normal(RngStream(seed, "init"), pipe.dim)
        if method == "noise-diffusion":
            cfg = NoiseDiffusionConfig(epochs=epochs, candidates=8, record_latents=True)
            rec = run_noise_diffusion(z0, pipe, scorer, cfg, RngStream(seed, "candidates"))
        else:
            cfg = BaselineConfig(method=method, epochs=epochs, record_latents=True)
            rec = run_baseline(z0, pipe, scorer, cfg, RngStream(seed, method))
        assert [r.epoch for r in rec.rows] == list(range(epochs + 1))
        scores = [r.score for r in rec.rows]
        assert [r.best_score for r in rec.rows] == list(np.maximum.accumulate(scores))
        assert rec.best_score == rec.rows[-1].best_score
        assert scorer.score(rec.best_sample) == rec.best_score
        assert checked_score(scorer, pipe.forward(rec.best_latent)[1]) == rec.best_score
        assert len(rec.latents) == epochs + 1
        np.testing.assert_array_equal(rec.final_latent, rec.latents[-1])


class TestTrajectoryRecord:
    def test_epochs_to(self):
        rec = TrajectoryRecord(method="x")
        from noisediff.optimizers import EpochRow

        rec.rows = [
            EpochRow(0, 0.1, 0.1),
            EpochRow(1, 0.95, 0.95),
            EpochRow(2, 0.5, 0.95),
        ]
        assert rec.epochs_to(0.9) == 1
        assert rec.epochs_to(0.99) == -1

    def test_incomplete_is_read_from_the_failure(self):
        rec = TrajectoryRecord(method="x")
        assert not rec.incomplete
        rec.failure = "ScorerUnavailableError: down"
        assert rec.incomplete
        with pytest.raises(AttributeError):
            rec.incomplete = False

    def test_validate_rejects_decreasing_best(self):
        from noisediff.optimizers import EpochRow

        rec = TrajectoryRecord(method="x")
        rec.rows = [EpochRow(0, 0.5, 0.5), EpochRow(1, 0.4, 0.4)]
        with pytest.raises(ValueError):
            rec.validate()


def _reference_select(grad, z, gamma, candidates, v_norm_guard=1e-12):
    """The per-vector selection loop: one step difference and two dot
    products per candidate, first strict maximum wins."""
    best_index, best_ratio = -1, -np.inf
    for i, sigma in enumerate(candidates):
        v = step_difference(z, gamma, sigma)
        vv = float(v @ v)
        if vv < v_norm_guard:
            continue
        ratio = float(grad @ v) / vv
        if ratio > best_ratio:
            best_index, best_ratio = i, ratio
    if best_index < 0:
        raise DegenerateStepError("all candidate step differences were near zero")
    return best_index, best_ratio


_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-9, float("nan")]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def _selection_problem(draw, entries=_ENTRIES):
    d = draw(st.integers(1, 6))
    vec = st.lists(entries, min_size=d, max_size=d).map(np.array)
    grad = draw(vec)
    z = draw(st.one_of(st.just(np.zeros(d)), vec))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "zero"]))
        if kind == "duplicate" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
        elif kind == "zero":
            rows.append(np.zeros(d))
        else:
            rows.append(draw(vec))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return grad, z, gamma, rows


class TestSelectNoiseAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(problem=_selection_problem())
    def test_array_and_list_equal_the_loop(self, problem):
        grad, z, gamma, rows = problem
        try:
            expected = _reference_select(grad, z, gamma, rows)
        except DegenerateStepError:
            expected = None
        for candidates in (rows, np.stack(rows)):
            if expected is None:
                with pytest.raises(DegenerateStepError):
                    select_noise(grad, z, gamma, candidates)
                continue
            idx, ratio = select_noise(grad, z, gamma, candidates)
            assert idx == expected[0]
            assert ratio == expected[1]  # same bits, not merely close

    def test_d1024_ratios_bit_identical(self):
        stream = RngStream(9, "select")
        z, grad = stream.normal(1024, 0), stream.normal(1024, 1)
        block = stream.normal_block(1024, 2, rows=range(50))
        assert select_noise(grad, z, 0.3, block) == _reference_select(grad, z, 0.3, list(block))

    def test_nan_candidate_never_selected(self):
        rows = [np.full(3, np.nan), np.ones(3), np.array([1.0, np.nan, 0.0])]
        assert select_noise(np.ones(3), np.zeros(3), 0.5, np.stack(rows))[0] == 1
        with pytest.raises(DegenerateStepError):
            select_noise(np.ones(3), np.zeros(3), 0.5, [rows[0], rows[2]])

    def test_guard_skips_small_rows(self):
        block = np.array([[1e-8, 0.0], [-1.0, 0.0]])
        idx, ratio = select_noise(np.array([1.0, 0.0]), np.zeros(2), 1.0, block)
        assert (idx, ratio) == (1, -1.0)

    def test_shape_and_gamma_validation(self):
        with pytest.raises(DimensionError):
            select_noise(np.ones(3), np.zeros(3), 0.5, np.zeros((4, 2)))
        with pytest.raises(DimensionError):
            select_noise(np.ones(3), np.zeros(3), 0.5, [np.zeros(3), np.zeros(2)])
        with pytest.raises(DimensionError):
            select_noise(np.ones(3), np.zeros(3), 0.5, np.zeros(3))
        with pytest.raises(InvalidScoreError):
            select_noise(np.ones(3), np.zeros(3), 1.5, np.ones((2, 3)))
        with pytest.raises(DegenerateStepError):
            select_noise(np.ones(3), np.zeros(3), 0.5, [])


_WIDE_ENTRIES = st.one_of(_ENTRIES, st.sampled_from([1e200, float("inf"), float("-inf")]))


@st.composite
def _guarded_problem(draw):
    """A selection problem with NaN and infinite entries, and a guard at,
    just below or just above the squared norm of one of its rows."""
    grad, z, gamma, rows = draw(_selection_problem(_WIDE_ENTRIES))
    v = step_difference(z, gamma, rows[draw(st.integers(0, len(rows) - 1))])
    vv = float(v @ v)
    guard = float(draw(st.sampled_from([vv, np.nextafter(vv, np.inf), np.nextafter(vv, 0.0)])))
    return grad, z, gamma, rows, guard if guard > 0.0 else 1e-12


class TestOneSelectionRule:
    """``select_noise`` and ``selection_ratio`` share one block
    computation of grad . v / ||v||^2; it keeps the per-vector rule and
    bits, and checks its guard and shapes."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on inf and 1e200
    @settings(max_examples=400, deadline=None)
    @given(problem=_guarded_problem())
    def test_block_equals_the_loop_at_the_guard(self, problem):
        grad, z, gamma, rows, guard = problem
        try:
            expected = _reference_select(grad, z, gamma, rows, guard)
        except DegenerateStepError:
            with pytest.raises(DegenerateStepError):
                select_noise(grad, z, gamma, np.stack(rows), guard)
            return
        assert select_noise(grad, z, gamma, np.stack(rows), guard) == expected

    def test_row_at_the_guard_is_kept_and_below_it_skipped(self):
        block = np.array([[3.0, 0.0], [0.0, -1.0]])
        grad = np.array([1.0, 1.0])
        assert select_noise(grad, np.zeros(2), 1.0, block, 9.0) == (0, 1.0 / 3.0)
        assert select_noise(grad, np.zeros(2), 1.0, block, np.nextafter(1.0, 0.0)) == (0, 1.0 / 3.0)
        assert select_noise(grad, np.zeros(2), 1.0, block, np.nextafter(9.0, 0.0)) == (0, 1.0 / 3.0)
        with pytest.raises(DegenerateStepError):
            select_noise(grad, np.zeros(2), 1.0, block, np.nextafter(9.0, np.inf))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on inf and 1e200
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.integers(1, 8))
    def test_selection_ratio_has_the_formula_bits(self, data, d):
        vec = st.lists(_WIDE_ENTRIES, min_size=d, max_size=d).map(np.array)
        g, v = data.draw(vec), data.draw(vec)
        vv = float(v @ v)
        if vv < 1e-12:
            with pytest.raises(DegenerateStepError):
                selection_ratio(g, v)
            return
        got, want = selection_ratio(g, v), float(g @ v) / vv
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()  # -0.0 too

    @pytest.mark.parametrize("guard", [0.0, -1.0, float("nan")])
    def test_guard_must_be_positive(self, guard):
        with pytest.raises(ValueError, match="v_norm_guard"):
            select_noise(np.ones(3), np.zeros(3), 0.5, np.ones((2, 3)), guard)
        with pytest.raises(ValueError, match="v_norm_guard"):
            selection_ratio(np.ones(3), np.ones(3), guard)

    @pytest.mark.parametrize("grad", [np.ones(4), np.ones(2), np.ones((2, 3)), 1.0])
    def test_gradient_shape_must_match(self, grad):
        with pytest.raises(DimensionError):
            select_noise(grad, np.zeros(3), 0.5, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            selection_ratio(grad, np.ones(3))


class TestBlockCandidates:
    def test_one_block_per_attempt_same_trajectory(self, monkeypatch):
        pipe, scorer = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(4, "init"), 16)
        cfg = NoiseDiffusionConfig(epochs=6, candidates=7)
        block_run = run_noise_diffusion(z0, pipe, scorer, cfg, RngStream(4, "candidates"))

        calls = []

        def stacked(self, dim, *index, rows):
            calls.append((index, list(rows)))
            return np.stack([self.normal(dim, *index, r) for r in rows])

        monkeypatch.setattr(RngStream, "normal_block", stacked)
        loop_run = run_noise_diffusion(z0, pipe, scorer, cfg, RngStream(4, "candidates"))
        assert calls == [((e,), list(range(7))) for e in range(1, 7)]
        strip = lambda rec: [r.__dict__ | {"wall_ms": 0.0} for r in rec.rows]  # noqa: E731
        assert strip(block_run) == strip(loop_run)
        assert block_run.final_latent.tobytes() == loop_run.final_latent.tobytes()


class NaNGradientScorer(Scorer):
    """Scores fine; its analytic gradient is NaN after ``finite_for``
    calls."""

    def __init__(self, finite_for=0):
        self.finite_for = finite_for

    def score(self, sample):
        return 0.5

    def gradient(self, sample):
        self.finite_for -= 1
        fill = 0.01 if self.finite_for >= 0 else np.nan
        return np.full(np.asarray(sample).shape, fill)


class TestNonFiniteGradient:
    @pytest.mark.parametrize(
        "mode", [GradientMode.APPROX_CONSTANT_EPS, GradientMode.ANALYTIC_CHAIN]
    )
    def test_gradient_raises_contract_error(self, mode):
        pipe, _ = quadratic_benchmark()
        with pytest.raises(ScorerContractError, match="non-finite"):
            latent_gradient(np.zeros(16), pipe, NaNGradientScorer(), mode)

    @pytest.mark.parametrize(
        "mode", [GradientMode.APPROX_CONSTANT_EPS, GradientMode.ANALYTIC_CHAIN]
    )
    def test_run_ends_incomplete(self, mode):
        pipe, _ = quadratic_benchmark()
        z0 = sample_standard_normal(RngStream(0, "init"), 16)
        rec = run_noise_diffusion(
            z0, pipe, NaNGradientScorer(finite_for=2),
            NoiseDiffusionConfig(epochs=6, candidates=4, gradient_mode=mode),
            RngStream(0, "candidates"),
        )
        assert rec.incomplete
        assert rec.failure.startswith("ScorerContractError")
        assert len(rec.rows) == 3  # initial row and the two finite epochs

    @pytest.mark.parametrize("method", ["pgd", "mean-variance"])
    def test_gradient_baselines_end_incomplete(self, method):
        pipe, _ = quadratic_benchmark()
        rec = run_baseline(
            np.zeros(16), pipe, NaNGradientScorer(), BaselineConfig(method=method, epochs=4),
            RngStream(0, f"baseline-{method}"),
        )
        assert rec.incomplete
        assert rec.failure.startswith("ScorerContractError")


class TestGradientModeSpelling:
    """A config takes the mode as the enum or as its string value, and
    both spellings honour the finite-difference probe budget."""

    @pytest.mark.parametrize("mode", ["finite-difference", GradientMode.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("method", ["noise-diffusion", "pgd", "mean-variance"])
    def test_string_and_enum_honour_the_budget(self, method, mode, counting_pipeline):
        pipe, scorer = quadratic_benchmark()
        counted = counting_pipeline(pipe)
        runs = TestForwardPasses()
        runs._run(method, counted, scorer, mode, fd_budget=2)
        assert counted.latents == runs.EPOCHS * (2 * 2 + 1) + 1
        assert counted.forwards == runs.EPOCHS * 2 + 1

    def test_string_is_coerced_and_unknown_rejected(self):
        assert NoiseDiffusionConfig(gradient_mode="analytic-chain").gradient_mode is (
            GradientMode.ANALYTIC_CHAIN
        )
        assert BaselineConfig(method="pgd", gradient_mode="finite-difference").gradient_mode is (
            GradientMode.FINITE_DIFFERENCE
        )
        with pytest.raises(ValueError):
            NoiseDiffusionConfig(gradient_mode="newton")
        with pytest.raises(ValueError):
            BaselineConfig(method="pgd", gradient_mode="newton")


_GAMMAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _update_problem(draw):
    d = draw(st.integers(1, 12))
    vec = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=d, max_size=d)
    z, sigma = draw(vec), draw(vec)
    if draw(st.booleans()):
        z, sigma = np.array(z), np.array(sigma)
    return z, draw(_GAMMAS), sigma


class TestUpdateProperties:
    """The update functions against per-coordinate reference formulas."""

    @settings(max_examples=300, deadline=None)
    @given(problem=_update_problem())
    def test_update_and_difference_equal_the_formulas(self, problem):
        z, gamma, sigma = problem
        keep, mix = math.sqrt(1.0 - gamma), math.sqrt(gamma)
        update = np.array([keep * a + mix * b for a, b in zip(z, sigma)])
        difference = np.array([(keep - 1.0) * a + mix * b for a, b in zip(z, sigma)])
        assert apply_update(z, gamma, sigma).tobytes() == update.tobytes()
        assert step_difference(z, gamma, sigma).tobytes() == difference.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(problem=_selection_problem())
    def test_selected_row_steps_by_step_difference(self, problem):
        grad, z, gamma, rows = problem
        each = np.stack([step_difference(z, gamma, row) for row in rows])
        assert step_difference(z, gamma, np.stack(rows)).tobytes() == each.tobytes()
        try:
            index, ratio = select_noise(grad, z, gamma, np.stack(rows))
        except DegenerateStepError:
            return
        v = step_difference(z, gamma, rows[index])
        assert float(v @ v) >= 1e-12
        assert float(grad @ v) / float(v @ v) == ratio  # same bits

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(gamma=_GAMMAS, seed=st.integers(0, 2**32 - 1))
    def test_update_keeps_mean_zero_and_variance_one(self, gamma, seed):
        n = 20_000
        gen = np.random.default_rng(seed)
        out = apply_update(gen.standard_normal(n), gamma, gen.standard_normal(n))
        assert abs(out.mean()) < 5.0 / math.sqrt(n)
        assert abs(out.var(ddof=1) - 1.0) < 5.0 * math.sqrt(2.0 / (n - 1))


class TestSharedGradientSettings:
    def test_positional_method_and_keyword_fields(self):
        cfg = BaselineConfig("pgd", fd_budget=3, fd_step=1e-3, record_latents=True)
        assert (cfg.method, cfg.fd_budget, cfg.fd_step, cfg.record_latents) == (
            "pgd", 3, 1e-3, True
        )
        assert cfg.gradient_mode is GradientMode.APPROX_CONSTANT_EPS
        nd = NoiseDiffusionConfig(epochs=2, candidates=3, gradient_mode="finite-difference",
                                  fd_budget=3)
        assert (nd.epochs, nd.candidates, nd.fd_budget) == (2, 3, 3)
        assert nd == NoiseDiffusionConfig(epochs=2, candidates=3, fd_budget=3,
                                          gradient_mode=GradientMode.FINITE_DIFFERENCE)

    def test_both_settings_carry_method_and_epochs(self):
        nd = NoiseDiffusionConfig(epochs=3)
        assert (nd.method, nd.epochs) == ("noise-diffusion", 3)
        assert BaselineConfig("pgd", epochs=4).epochs == 4
        with pytest.raises(TypeError):
            NoiseDiffusionConfig(method="pgd")
        with pytest.raises(dataclasses.FrozenInstanceError):
            nd.method = "pgd"

    @pytest.mark.parametrize("bad", [dict(epochs=-1), dict(fd_budget=0), dict(fd_budget=-2),
                                     dict(fd_step=0.0), dict(fd_step=-1e-3)])
    @pytest.mark.parametrize("make", [NoiseDiffusionConfig, partial(BaselineConfig, "pgd")],
                             ids=["noise-diffusion", "pgd"])
    def test_shared_values_checked_at_construction(self, make, bad):
        with pytest.raises(ValueError):
            make(gradient_mode="finite-difference", **bad)


_NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: NoiseDiffusionConfig(v_norm_guard=_NAN),
    lambda: BaselineConfig("pgd", pgd_step=_NAN),
    lambda: BaselineConfig("pgd", pgd_radius=_NAN),
    lambda: BaselineConfig("mean-variance", mv_learning_rate=_NAN),
    lambda: QuadraticSigmoidScorer(np.zeros(2), sharpness=_NAN),
    lambda: TargetGroup((0,), np.zeros(1), radius=_NAN, sharpness=1.0),
    lambda: TargetGroup((0,), np.zeros(1), radius=1.0, sharpness=_NAN),
    lambda: MixtureComponent(weight=_NAN, mean=np.zeros(2), var=1.0),
    lambda: MixtureComponent(weight=1.0, mean=np.zeros(2), var=_NAN),
], ids=["v_norm_guard", "pgd_step", "pgd_radius", "mv_learning_rate", "quadratic.sharpness",
        "group.radius", "group.sharpness", "component.weight", "component.var"])
def test_nan_rejected_where_a_positive_value_is_required(make):
    with pytest.raises(ValueError):
        make()


def test_exactly_the_gradient_methods_take_a_gradient(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(method)
        return latent_gradient(*args, **kwargs)

    monkeypatch.setattr(optimizers, "latent_gradient", counting)
    pipe, scorer = _QUADRATIC
    for method in ("noise-diffusion",) + optimizers.BASELINE_METHODS:
        TestForwardPasses()._run(method, pipe, scorer)
    assert sorted(set(calls)) == sorted(optimizers.GRADIENT_METHODS)
