import numpy as np
import pytest

from noisediff.analysis import (
    check_improvement_condition,
    distribution_report,
    estimate_hessian_bound,
    probe_hessian_bound,
    quartiles,
    ratio_quartiles,
    selection_ratio,
)
from noisediff.errors import DegenerateStepError, InsufficientSampleError
from noisediff.latents import RngStream
from noisediff.optimizers import EpochRow, TrajectoryRecord
from noisediff.scoring import QuadraticSigmoidScorer


class TestHessianBoundEstimator:
    def test_quadratic_with_known_matrix(self):
        # s(z) = z.A z with A = diag(2, -1): sup |u.Hu|/|u|^2 = 2*max|eig| = 4
        A = np.diag([2.0, -1.0])

        def score_fn(z):
            return float(z @ A @ z)

        est = estimate_hessian_bound(score_fn, np.zeros(2), 1.0, 4000, RngStream(0, "h"))
        assert est <= 4.0 + 1e-6
        assert est >= 3.8  # random directions get close in 2-D

    def test_one_dimensional_is_exact(self):
        # in 1-D every unit direction hits the eigenvector
        def score_fn(z):
            return 1.5 * float(z[0] ** 2)

        est = estimate_hessian_bound(score_fn, np.zeros(1), 2.0, 10, RngStream(1, "h"))
        assert est == pytest.approx(3.0, rel=1e-6)

    def test_affine_is_zero(self):
        c = np.array([0.3, -0.2, 0.1])

        def score_fn(z):
            return float(c @ z) + 0.4

        est = estimate_hessian_bound(score_fn, np.zeros(3), 1.0, 200, RngStream(2, "h"))
        assert est <= 1e-8

    def test_dominated_by_analytic_bound(self):
        sc = QuadraticSigmoidScorer(target=np.zeros(4), sharpness=0.5, offset=1.0)
        bound = sc.hessian_bound()
        est = estimate_hessian_bound(
            lambda x: float(sc.score(x)), np.zeros(4), 3.0, 2000, RngStream(3, "h")
        )
        assert est <= bound

    def test_monotone_in_probe_count(self):
        sc = QuadraticSigmoidScorer(target=np.zeros(3), sharpness=0.5, offset=1.0)

        def score_fn(x):
            return float(sc.score(x))

        rng = RngStream(4, "h")
        estimates = [
            estimate_hessian_bound(score_fn, np.zeros(3), 2.0, n, rng)
            for n in (10, 50, 200, 800)
        ]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    def test_kink_outliers_reported_separately(self):
        # |z| has an unbounded second difference at the kink
        def score_fn(z):
            return float(np.abs(z).sum())

        result = probe_hessian_bound(score_fn, np.zeros(1), 1.0, 500, RngStream(5, "h"))
        assert result.kink_outliers  # kink hits reported, not folded in
        assert result.estimate < min(result.kink_outliers)

    def test_probe_count_validation(self):
        with pytest.raises(ValueError):
            estimate_hessian_bound(lambda z: 0.0, np.zeros(2), 1.0, 0, RngStream(0, "h"))

    @pytest.mark.parametrize("radius, h", [(float("nan"), None), (0.0, None), (-1.0, None),
                                           (float("inf"), None), (1.0, 0.0), (1.0, float("nan")),
                                           (1.0, float("inf"))])
    @pytest.mark.parametrize("probe", [probe_hessian_bound, estimate_hessian_bound])
    def test_radius_and_step_must_be_positive_and_finite(self, probe, radius, h):
        with pytest.raises(ValueError, match="radius"):
            probe(lambda z: 0.0, np.zeros(2), radius, 5, RngStream(0, "h"), h=h)


class TestImprovementCondition:
    def test_affine_score_is_tight(self):
        # zero curvature: ratio >= delta gives exactly s + g.v
        g = np.array([0.2, -0.1, 0.05])
        gen = RngStream(6, "aff").generator()
        for _ in range(100):
            z = gen.standard_normal(3)
            v = gen.standard_normal(3) * 0.1
            if float(g @ v) <= 0:
                v = -v
            s = 0.5 + float(g @ z)
            s_next = 0.5 + float(g @ (z + v))
            rep = check_improvement_condition(s, s_next, g, v, c=0.0, delta=1e-4, tol=1e-12)
            if rep.triggered:
                assert rep.satisfied
                assert rep.actual == pytest.approx(s + float(g @ v), abs=1e-12)

    def test_untriggered_is_vacuous(self):
        rep = check_improvement_condition(
            0.5, 0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), c=1.0, delta=0.1
        )
        assert not rep.triggered
        assert rep.satisfied

    def test_zero_step_rejected(self):
        with pytest.raises(DegenerateStepError):
            check_improvement_condition(0.5, 0.5, np.ones(2), np.zeros(2), c=0.0, delta=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_improvement_condition(0.5, 0.5, np.ones(2), np.ones(2), c=-1.0, delta=0.1)
        with pytest.raises(ValueError):
            check_improvement_condition(0.5, 0.5, np.ones(2), np.ones(2), c=0.0, delta=0.0)

    @pytest.mark.parametrize("c, delta", [(float("nan"), 0.1), (0.0, float("nan"))])
    def test_nan_parameter_rejected(self, c, delta):
        with pytest.raises(ValueError):
            check_improvement_condition(0.5, 0.5, np.ones(2), np.ones(2), c=c, delta=delta)

    def test_infinite_bound_is_vacuous(self):
        rep = check_improvement_condition(0.5, 0.0, np.ones(2), np.ones(2), c=float("inf"),
                                          delta=0.1)
        assert (rep.triggered, rep.satisfied) == (False, True)

    def test_monte_carlo_no_violations(self):
        """Probes constructed to satisfy the ratio condition must all
        clear the guaranteed floor when c is the analytic bound."""
        d = 8
        sc = QuadraticSigmoidScorer(target=np.zeros(d), sharpness=0.5, offset=1.0)
        c = sc.hessian_bound()
        delta = 0.01
        thr = c / 2.0 + delta
        gen = RngStream(7, "mc").generator()
        checked = 0
        while checked < 2000:
            z = gen.standard_normal(d) * 1.2
            g = sc.gradient(z)
            gn = np.linalg.norm(g)
            if gn < 1e-2:
                continue
            vhat = g / gn + 0.3 * gen.standard_normal(d)
            vhat /= np.linalg.norm(vhat)
            align = float(g @ vhat)
            if align <= 1e-2:
                continue
            v = gen.uniform(0.05, 1.0) * align / thr * vhat
            rep = check_improvement_condition(
                float(sc.score(z)), float(sc.score(z + v)), g, v, c, delta, tol=1e-9
            )
            if rep.triggered:
                checked += 1
                assert rep.satisfied
        assert checked == 2000


class TestSelectionRatio:
    def test_aligned_unit_gradient(self):
        g = np.array([0.6, 0.8])
        assert selection_ratio(g, g) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert selection_ratio(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_linear_in_gradient(self):
        g = np.array([0.3, -0.4, 0.1])
        v = np.array([1.0, 1.0, 1.0])
        assert selection_ratio(3.0 * g, v) == pytest.approx(3.0 * selection_ratio(g, v))

    def test_near_zero_step_rejected(self):
        with pytest.raises(DegenerateStepError):
            selection_ratio(np.ones(2), np.full(2, 1e-9))


def _record_with_ratios(ratios):
    rec = TrajectoryRecord(method="x")
    rec.rows = [
        EpochRow(epoch=i, score=0.0, best_score=0.0, selected_ratio=r)
        for i, r in enumerate(ratios)
    ]
    return rec


class TestRatioQuartiles:
    def test_four_point_median(self):
        q1, med, q3 = ratio_quartiles([_record_with_ratios([1.0, 2.0, 3.0, 4.0])])
        assert med == 2.5
        assert q1 <= med <= q3

    def test_constant_ratios(self):
        q1, med, q3 = ratio_quartiles([_record_with_ratios([0.7] * 10)])
        assert q1 == med == q3 == 0.7

    def test_pools_across_trajectories(self):
        recs = [_record_with_ratios([1.0, 2.0]), _record_with_ratios([3.0, 4.0])]
        _, med, _ = ratio_quartiles(recs)
        assert med == 2.5

    def test_too_few(self):
        with pytest.raises(InsufficientSampleError):
            ratio_quartiles([_record_with_ratios([1.0, 2.0, 3.0])])
        with pytest.raises(InsufficientSampleError):
            quartiles([1.0, 2.0, 3.0])

    def test_plain_ratios_match_records(self):
        ratios = [0.3, -1.2, 4.5, 2.0, 0.7, 0.7]
        got = quartiles(ratios)
        assert got == ratio_quartiles([_record_with_ratios(ratios)])
        assert got == ratio_quartiles([_record_with_ratios(ratios[:2]),
                                       _record_with_ratios(ratios[2:] + [None])])


class TestDistributionReport:
    def test_combines_moments_and_ks(self):
        z = RngStream(8, "dr").normal(4096)
        rep = distribution_report(z)
        assert abs(rep.mean) < 0.1
        assert abs(rep.variance - 1.0) < 0.1
        assert 0.0 <= rep.ks_stat <= 1.0
        assert rep.ks_pvalue > 0.001

    def test_small_dim_rejected(self):
        with pytest.raises(InsufficientSampleError):
            distribution_report(np.zeros(4))
