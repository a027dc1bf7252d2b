import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from noisediff.benchmarks import composite_benchmark, quadratic_benchmark
from noisediff.diffusion import (
    AnalyticMixtureDenoiser,
    ConstantDenoiser,
    DenoiserModel,
    GuidanceConfig,
    IdentityDecoder,
    LinearDecoder,
    MixtureComponent,
    NoiseSchedule,
    Pipeline,
    build_schedule,
    cfg_predict,
    ddim_step,
)
from noisediff.errors import (
    DimensionError,
    GradientUnavailableError,
    InvalidPromptError,
    NonFiniteError,
    ScorerContractError,
)
from noisediff.latents import RngStream
from noisediff.scoring import (
    DEFAULT_FD_STEP,
    CompositeTargetScorer,
    GradientMode,
    QuadraticSigmoidScorer,
    Scorer,
    TargetGroup,
    checked_score,
    format_vqa_question,
    grad_latent_approx,
    grad_latent_chain,
    grad_latent_fd,
    latent_gradient,
)


def identity_pipeline(dim):
    return Pipeline(ConstantDenoiser(np.zeros(dim)), GuidanceConfig(w=7.5), NoiseSchedule(np.ones(1)))


class AffineScorer(Scorer):
    """Test-only scorer s(x) = bias + c . x; valid near the origin."""

    def __init__(self, c, bias=0.5):
        self.c = np.asarray(c, dtype=np.float64)
        self.bias = bias

    def score(self, sample):
        return self.bias + np.asarray(sample) @ self.c

    def gradient(self, sample):
        return np.broadcast_to(self.c, np.asarray(sample).shape).copy()


class BadScorer(Scorer):
    def score(self, sample):
        return 1.3


class GradientFreeScorer(Scorer):
    def score(self, sample):
        return 0.5


def scorer_fd(scorer, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (scorer.score(xp) - scorer.score(xm)) / (2 * h)
    return g


def _composite_reference(groups, x):
    """Composite score and gradient from the defining formulas, each
    group's offset, norm and factor recomputed where it is used."""
    factors = []
    for g in groups:
        u = x[..., list(g.indices)] - g.target
        factors.append(expit(g.sharpness * (g.radius - np.sqrt(np.sum(u * u, axis=-1)))))
    score = factors[0]
    for f in factors[1:]:
        score = score * f
    grad = np.zeros_like(x)
    for g, f in zip(groups, factors):
        idx = list(g.indices)
        u = x[..., idx] - g.target
        norm = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
        unit = np.divide(u, norm, out=np.zeros_like(u), where=norm > 0.0)
        grad[..., idx] += (-g.sharpness * score * (1.0 - f))[..., None] * unit
    return score, grad


class TestScorers:
    def test_quadratic_sigmoid_at_target(self):
        sc = QuadraticSigmoidScorer(target=np.ones(3), sharpness=0.5, offset=1.5)
        assert sc.score(np.ones(3)) == pytest.approx(1.0 / (1.0 + np.exp(-1.5)))

    def test_gradient_consistency_100_probes(self):
        gen = RngStream(0, "probes").generator()
        quad = QuadraticSigmoidScorer(target=gen.standard_normal(8), sharpness=0.3, offset=1.0)
        comp = CompositeTargetScorer(
            [
                TargetGroup(tuple(range(0, 4)), gen.standard_normal(4), 1.5, 2.0),
                TargetGroup(tuple(range(4, 8)), gen.standard_normal(4), 1.5, 2.0),
            ]
        )
        for sc in (quad, comp):
            for _ in range(100):
                x = gen.standard_normal(8) * 2.0
                analytic = sc.gradient(x)
                fd = scorer_fd(sc, x)
                assert np.linalg.norm(analytic - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

    def test_bounded_under_adversarial_magnitudes(self):
        gen = RngStream(1, "adv").generator()
        quad = QuadraticSigmoidScorer(target=np.zeros(6), sharpness=2.0, offset=-3.0)
        comp = CompositeTargetScorer([TargetGroup(tuple(range(6)), np.zeros(6), 1.0, 5.0)])
        for sc in (quad, comp):
            for scale in (1.0, 1e3, 1e6):
                x = gen.standard_normal(6) * scale
                s = float(sc.score(x))
                assert np.isfinite(s) and 0.0 <= s <= 1.0

    @pytest.mark.parametrize("indices", [(0, 0, 1), (-1, 1, 2)])
    def test_group_indices_distinct_and_non_negative(self, indices):
        # numpy's x[idx] += g applies a repeated index once, so a repeat
        # would halve that coordinate's gradient
        with pytest.raises(ValueError, match="distinct and non-negative"):
            TargetGroup(indices, np.zeros(3), 1.0, 1.0)

    def test_composite_gradient_at_group_target_is_finite(self):
        # kink point: direction is undefined, convention is zero
        sc = CompositeTargetScorer([TargetGroup((0, 1), np.zeros(2), 1.0, 2.0)])
        g = sc.gradient(np.zeros(2))
        assert np.all(np.isfinite(g))
        np.testing.assert_array_equal(g, np.zeros(2))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40),
           groups=st.integers(1, 4), batch=st.integers(0, 5))
    def test_composite_equals_reference_formulas(self, seed, dim, groups, batch):
        """Score and gradient equal the per-group formulas bit for bit,
        for one sample and for a batch, also exactly at a target."""
        gen = RngStream(seed, "composite-reference").generator()
        sizes = gen.integers(1, dim + 1, size=groups)
        sc = CompositeTargetScorer([
            TargetGroup(tuple(sorted(gen.choice(dim, size, replace=False).tolist())),
                        gen.standard_normal(size), float(gen.uniform(0.5, 5.0)),
                        float(gen.uniform(0.1, 3.0)))
            for size in sizes
        ])
        shape = (batch, dim) if batch else (dim,)
        x = gen.standard_normal(shape) * float(gen.uniform(0.1, 4.0))
        x[..., list(sc.groups[0].indices)] = sc.groups[0].target
        score, grad = _composite_reference(sc.groups, x)
        assert np.asarray(sc.score(x)).tobytes() == np.asarray(score).tobytes()
        assert sc.gradient(x).tobytes() == grad.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24), rows=st.integers(0, 12),
           kind=st.sampled_from(["quadratic", "composite"]))
    def test_default_score_batch_equals_per_row_score(self, seed, dim, rows, kind):
        """The default batch scores each row on its own, so every score
        has the bits of ``score`` on that row; a batched score of the
        composite scorer need not."""
        gen = RngStream(seed, "score-batch").generator()
        if kind == "quadratic":
            sc = QuadraticSigmoidScorer(gen.standard_normal(dim), float(gen.uniform(0.05, 2.0)),
                                        float(gen.uniform(-2.0, 4.0)))
        else:
            half = max(1, dim // 2)
            sc = CompositeTargetScorer([
                TargetGroup(tuple(range(half)), gen.standard_normal(half), 2.0, 1.5),
                TargetGroup(tuple(range(dim - half, dim)), gen.standard_normal(half), 3.0, 0.7),
            ])
        samples = gen.standard_normal((rows, dim)) * float(gen.uniform(0.1, 4.0))
        got = sc.score_batch(samples)
        assert [np.float64(s).tobytes() for s in got] == [
            np.float64(sc.score(row)).tobytes() for row in samples
        ]

    def test_quadratic_hessian_bound_dominates_samples(self):
        sc = QuadraticSigmoidScorer(target=np.zeros(4), sharpness=0.5, offset=1.0)
        bound = sc.hessian_bound()
        r2 = np.linspace(0.0, 60.0, 5000)
        assert np.all(sc.hessian_norm_at(r2) <= bound + 1e-12)


class TestScoreLatent:
    def test_degenerate_pipeline_at_target(self):
        sc = QuadraticSigmoidScorer(target=np.full(4, 0.2), sharpness=1.0, offset=0.7)
        s = checked_score(sc, identity_pipeline(4).forward(np.full(4, 0.2))[1])
        assert s == pytest.approx(1.0 / (1.0 + np.exp(-0.7)))

    def test_deterministic(self):
        pipe, sc = _mixture_setup()
        z = RngStream(2, "det").normal(6)
        assert checked_score(sc, pipe.forward(z)[1]) == checked_score(sc, pipe.forward(z)[1])

    def test_matches_independent_recompute(self):
        """Same score when the denoise loop is re-run by hand."""
        from noisediff.diffusion import cfg_predict, ddim_step

        pipe, sc = _mixture_setup()
        z = RngStream(3, "rec").normal(6)
        via_op = checked_score(sc, pipe.forward(z)[1])
        cur = z.copy()
        for t in range(pipe.schedule.T, 0, -1):
            cur = ddim_step(cur, t, cfg_predict(pipe.model, cur, t, pipe.guidance), pipe.schedule)
        assert via_op == float(sc.score(cur))

    def test_contract_violation_raises(self):
        with pytest.raises(ScorerContractError):
            checked_score(BadScorer(), identity_pipeline(4).forward(np.zeros(4))[1])


class TestGradLatentApprox:
    def test_exact_for_constant_denoiser(self):
        """The one-pass shortcut equals central differences through the
        full pipeline when predictions are frozen (1e-5 relative)."""
        sched = build_schedule(50)
        pipe = Pipeline(ConstantDenoiser(np.full(8, 0.25)), GuidanceConfig(w=7.5), sched)
        sc = QuadraticSigmoidScorer(target=np.zeros(8), sharpness=0.05, offset=1.0)
        gen = RngStream(4, "exact").generator()
        for _ in range(20):
            z = gen.standard_normal(8)
            approx = grad_latent_approx(z, pipe, sc)
            fd = grad_latent_fd(z, pipe, sc)
            assert np.linalg.norm(approx - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_quarter_alpha_bar_prefactor(self):
        # ab_T = 0.25 with zero eps: z0 = 2 z, gradient = 2 * scorer grad at z0
        sched = NoiseSchedule(np.array([1.0, 0.25]))
        pipe = Pipeline(ConstantDenoiser(np.zeros(3)), GuidanceConfig(w=7.5), sched)
        sc = QuadraticSigmoidScorer(target=np.zeros(3), sharpness=0.2, offset=0.5)
        z = np.array([0.1, -0.2, 0.3])
        z0 = pipe.denoise(z)
        np.testing.assert_allclose(z0, 2.0 * z, rtol=1e-12)
        np.testing.assert_allclose(
            grad_latent_approx(z, pipe, sc), 2.0 * sc.gradient(z0), rtol=1e-12
        )

    def test_zero_gradient_at_critical_point(self):
        sc = QuadraticSigmoidScorer(target=np.full(4, 0.3), sharpness=1.0, offset=0.0)
        g = grad_latent_approx(np.full(4, 0.3), identity_pipeline(4), sc)
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear_decoder_adjoint_in_chain(self):
        gen = RngStream(5, "lindec").generator()
        W = gen.standard_normal((3, 4)) / 2.0
        pipe = Pipeline(
            ConstantDenoiser(np.zeros(4)),
            GuidanceConfig(w=7.5),
            NoiseSchedule(np.ones(1)),
            LinearDecoder(W),
        )
        sc = QuadraticSigmoidScorer(target=np.zeros(3), sharpness=0.3, offset=0.5)
        z = gen.standard_normal(4)
        approx = grad_latent_approx(z, pipe, sc)
        fd = grad_latent_fd(z, pipe, sc, h=1e-5)
        assert np.linalg.norm(approx - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_missing_gradient_raises(self):
        with pytest.raises(GradientUnavailableError):
            grad_latent_approx(np.zeros(4), identity_pipeline(4), GradientFreeScorer())


class TestForwardReuse:
    def test_passed_pair_gives_identical_gradient_without_a_pass(self, counting_pipeline):
        pipe, sc = _mixture_setup()
        gen = RngStream(11, "reuse").generator()
        linear = Pipeline(pipe.model, pipe.guidance, pipe.schedule,
                          LinearDecoder(gen.standard_normal((6, 6)) / 2.0))
        for p in (pipe, linear):
            for _ in range(3):
                z = gen.standard_normal(6)
                counted = counting_pipeline(p)
                pair = p.forward(z)
                expect = grad_latent_approx(z, p, sc)
                np.testing.assert_array_equal(
                    grad_latent_approx(z, counted, sc, forward=pair), expect
                )
                np.testing.assert_array_equal(
                    latent_gradient(z, counted, sc, forward=pair), expect
                )
                assert counted.forwards == 0

    def test_fd_and_chain_ignore_the_pair(self):
        pipe, sc = _mixture_setup()
        z = RngStream(13, "reuse-fd").normal(6)
        wrong = (np.zeros(6), np.zeros(6))
        for mode in (GradientMode.FINITE_DIFFERENCE, GradientMode.ANALYTIC_CHAIN):
            np.testing.assert_array_equal(
                latent_gradient(z, pipe, sc, mode, forward=wrong),
                latent_gradient(z, pipe, sc, mode),
            )


class TestGradLatentFd:
    def test_affine_is_exact(self):
        c = np.array([0.01, -0.02, 0.03])
        sc = AffineScorer(c)
        g = grad_latent_fd(np.zeros(3), identity_pipeline(3), sc, h=1e-3)
        np.testing.assert_allclose(g, c, atol=1e-12)

    def test_quadratic_to_1e6_absolute(self):
        class QuadScorer(Scorer):
            def score(self, sample):
                x = np.asarray(sample)
                return 0.5 - 0.01 * float(x @ x)

            def gradient(self, sample):
                return -0.02 * np.asarray(sample)

        sc = QuadScorer()
        z = np.array([0.3, -0.5, 0.2])
        g = grad_latent_fd(z, identity_pipeline(3), sc, h=1e-3)
        np.testing.assert_allclose(g, sc.gradient(z), atol=1e-6)

    def test_gap_to_approx_is_small_for_far_mixture(self):
        """Diagnostic: with well-separated wide components the
        predictions are near-constant, so the one-pass gradient should
        land within 25% of the finite-difference oracle. Probes start
        inside the basin the scorer measures; trajectories falling into
        the opposite mode saturate the scorer and carry no gradient
        signal to compare."""
        sched = build_schedule(50)
        comps = [
            MixtureComponent(0.5, np.full(8, 6.0), 4.0),
            MixtureComponent(0.5, np.full(8, -6.0), 4.0),
        ]
        pipe = Pipeline(AnalyticMixtureDenoiser(comps, sched), GuidanceConfig(w=1.0), sched)
        sc = QuadraticSigmoidScorer(target=np.full(8, 6.0), sharpness=0.02, offset=1.0)
        gen = RngStream(6, "gap").generator()
        gaps = []
        for _ in range(10):
            z = gen.standard_normal(8) + 1.0
            approx = grad_latent_approx(z, pipe, sc)
            fd = grad_latent_fd(z, pipe, sc)
            gaps.append(np.linalg.norm(approx - fd) / np.linalg.norm(fd))
        print(f"\napprox-vs-fd relative gap: min {min(gaps):.4f} max {max(gaps):.4f}")
        assert max(gaps) <= 0.25

    def test_budgeted_coordinates(self):
        c = np.array([0.01, -0.02, 0.03, 0.04])
        sc = AffineScorer(c)
        g = grad_latent_fd(np.zeros(4), identity_pipeline(4), sc, h=1e-3, coords=[1, 3])
        np.testing.assert_allclose(g, [0.0, -0.02, 0.0, 0.04], atol=1e-12)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            grad_latent_fd(np.zeros(3), identity_pipeline(3), AffineScorer(np.zeros(3)), h=0.0)

    @pytest.mark.parametrize("h", [-1e-3, float("nan"), float("inf")])
    def test_negative_or_non_finite_step_rejected(self, h):
        with pytest.raises(ValueError, match="finite-difference step"):
            grad_latent_fd(np.zeros(3), identity_pipeline(3), AffineScorer(np.zeros(3)), h=h)

    @pytest.mark.parametrize("coords", [[-1], [3], [99], [1, 1], [[0, 1]]])
    def test_coordinates_must_be_distinct_and_in_range(self, coords):
        with pytest.raises(ValueError, match="coords"):
            grad_latent_fd(np.zeros(3), identity_pipeline(3), AffineScorer(np.zeros(3)),
                           h=1e-3, coords=coords)

    @pytest.mark.parametrize("z, error", [
        ([0.0, np.nan, 0.0], NonFiniteError),
        ([0.0, np.inf, 0.0], NonFiniteError),
        (np.zeros((1, 3)), DimensionError),
        (0.0, DimensionError),
    ])
    @pytest.mark.parametrize("h", [None, 1e-3])
    def test_bad_latent_is_named_before_the_step(self, z, error, h):
        with pytest.raises(error, match="latent"):
            grad_latent_fd(z, identity_pipeline(3), AffineScorer(np.zeros(3)), h=h)


def fd_per_probe(z, pipeline, scorer, h, coords):
    """Reference for ``grad_latent_fd``: every probe latent through its
    own forward, scored plus before minus in coordinate order."""
    if h is None:
        h = DEFAULT_FD_STEP * (1.0 + float(np.max(np.abs(z))))
    grad = np.zeros_like(z)
    for i in range(z.size) if coords is None else coords:
        bumped = z.copy()
        bumped[i] = z[i] + h
        plus = checked_score(scorer, pipeline.forward(bumped)[1])
        bumped[i] = z[i] - h
        minus = checked_score(scorer, pipeline.forward(bumped)[1])
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


class RecordingScorer(Scorer):
    def __init__(self):
        self.samples = []

    def score(self, sample):
        self.samples.append(np.array(sample, copy=True))
        return 0.5


class TestGradLatentFdBatched:
    """The probes of one gradient go through one batched forward and
    give the bits of the per-probe loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=1, max_value=12),
        timesteps=st.integers(min_value=1, max_value=8),
        rows=st.integers(min_value=0, max_value=6),
        h=st.none() | st.floats(min_value=1e-6, max_value=0.5),
        data=st.data(),
    )
    def test_equals_per_probe_loop(self, seed, dim, timesteps, rows, h, data):
        gen = RngStream(seed, "fd-batch").generator()
        sched = build_schedule(timesteps)
        comps = [
            MixtureComponent(float(gen.uniform(0.1, 1.0)), gen.standard_normal(dim),
                             float(gen.uniform(0.2, 3.0)))
            for _ in range(2)
        ]
        # the condition differs from the null condition: two passes per step
        guidance = GuidanceConfig(w=float(gen.uniform(-2.0, 8.0)), condition="c")
        decoder = (
            IdentityDecoder()
            if rows == 0
            else LinearDecoder(gen.standard_normal((rows, dim)), gen.standard_normal(rows))
        )
        pipe = Pipeline(AnalyticMixtureDenoiser(comps, sched, {"c": [0]}), guidance, sched,
                        decoder)
        sdim = rows or dim
        scorer = CompositeTargetScorer(
            [TargetGroup(tuple(range(sdim)), gen.standard_normal(sdim), 2.0, 1.5)]
        )
        z = gen.standard_normal(dim)
        coords = data.draw(
            st.none() | st.lists(st.integers(0, dim - 1), unique=True).map(sorted)
        )
        np.testing.assert_array_equal(
            grad_latent_fd(z, pipe, scorer, h=h, coords=coords),
            fd_per_probe(z, pipe, scorer, h, coords),
        )

    def test_one_forward_scored_plus_before_minus(self, counting_pipeline):
        z = np.array([0.5, -1.0, 2.0, 0.25])
        counted = counting_pipeline(identity_pipeline(4))
        sc = RecordingScorer()
        grad_latent_fd(z, counted, sc, h=0.125, coords=[3, 0])
        assert (counted.forwards, counted.latents) == (1, 4)
        expected = []
        for i in (3, 0):
            for sign in (1.0, -1.0):
                bumped = z.copy()
                bumped[i] += sign * 0.125
                expected.append(bumped)
        np.testing.assert_array_equal(sc.samples, expected)

    def test_no_probe_runs_no_forward(self, counting_pipeline):
        counted = counting_pipeline(identity_pipeline(3))
        sc = RecordingScorer()
        g = grad_latent_fd(np.ones(3), counted, sc, coords=[])
        np.testing.assert_array_equal(g, np.zeros(3))
        assert counted.forwards == 0 and sc.samples == []


class NaNVjpDenoiser(ConstantDenoiser):
    def predict_vjp(self, z, t, condition, u):
        return np.full(self.dim, np.nan)


def _ddim_constants(sched, t):
    """scale and the eps coefficient of z_{t-1} = scale z_t + c_t eps,
    derived from the schedule."""
    ab_t, ab_prev = sched.alpha_bar(t), sched.alpha_bar(t - 1)
    scale = np.sqrt(ab_prev / ab_t)
    return scale, np.sqrt(1.0 - ab_prev) - scale * np.sqrt(1.0 - ab_t)


def _reference_chain(z, pipe, scorer):
    """The chain gradient as its own reverse loop: a forward over
    ``cfg_predict`` and ``ddim_step``, then the pulled-back scorer
    gradient carried from z_0 to z_T by ``predict_vjp``, with the DDIM
    constants derived from the schedule."""
    sched, g = pipe.schedule, pipe.guidance
    latents = []
    for t in range(sched.T, 0, -1):
        latents.append(z)
        z = ddim_step(z, t, cfg_predict(pipe.model, z, t, g), sched)
    u = pipe.decoder.adjoint(z, scorer.gradient(pipe.decoder.decode(z)))
    for t, z_t in zip(range(1, sched.T + 1), reversed(latents)):
        v_cond = pipe.model.predict_vjp(z_t, t, g.condition, u)
        if g.null_condition == g.condition:
            v_null = v_cond
        else:
            v_null = pipe.model.predict_vjp(z_t, t, g.null_condition, u)
        scale, c_t = _ddim_constants(sched, t)
        u = scale * u + c_t * (g.w * v_cond + (1.0 - g.w) * v_null)
    return u


def _eps_jacobian(model, z, t, condition):
    """d eps / d z as a dense (d, d) matrix: zero for a constant
    denoiser; for the mixture, eps_scale times the Hessian of log p_t,
    sum_k r_k ((g_k - g_bar)(g_k - g_bar)^T - I/V_k). Uncentered, as
    sum_k r_k g_k g_k^T - g_bar g_bar^T, it loses up to 7 digits to
    cancellation far from every mode."""
    if isinstance(model, ConstantDenoiser):
        return np.zeros((model.dim, model.dim))
    resp, comp_scores, table = model._responsibilities(z, t, condition)
    centered = comp_scores - resp @ comp_scores
    hess = -np.sum(resp / table.variances) * np.eye(model.dim)
    hess += np.einsum("k,ki,kj->ij", resp, centered, centered)
    return table.eps_scale * hess


def _dense_chain(z, pipe, scorer):
    """The chain gradient by forward accumulation: the (d, d) Jacobian of
    z_0 in z_T, built by one dense product per step, transposed onto the
    pulled-back scorer gradient."""
    sched, g = pipe.schedule, pipe.guidance
    jac = np.eye(z.size)
    for t in range(sched.T, 0, -1):
        j_eps = (g.w * _eps_jacobian(pipe.model, z, t, g.condition)
                 + (1.0 - g.w) * _eps_jacobian(pipe.model, z, t, g.null_condition))
        scale, c_t = _ddim_constants(sched, t)
        jac = (scale * np.eye(z.size) + c_t * j_eps) @ jac
        z = ddim_step(z, t, cfg_predict(pipe.model, z, t, g), sched)
    return jac.T @ pipe.decoder.adjoint(z, scorer.gradient(pipe.decoder.decode(z)))


def _random_pipeline(seed, timesteps, relation, sizes, w, constant, dim, rows):
    """A pipeline whose guidance relates its condition to the null one as
    ``relation`` says: the same, a subset of it, disjoint from it, or
    both None; ``rows`` > 0 decodes by a (rows, dim) ``LinearDecoder``."""
    gen = RngStream(seed, "chain-property").generator()
    sched = build_schedule(timesteps)
    decoder = (IdentityDecoder() if rows == 0
               else LinearDecoder(gen.standard_normal((rows, dim)), gen.standard_normal(rows)))
    if constant:
        model = ConstantDenoiser(gen.standard_normal(dim))
        return Pipeline(model, GuidanceConfig(w), sched, decoder), gen
    k_cond, k_null = sizes
    if relation == "subset":
        total = max(k_cond, k_null) + 1
        null = gen.permutation(total)[:max(k_cond + 1, k_null)]
        cond = null[:k_cond]
    else:
        total = k_cond + k_null
        cond, null = np.split(gen.permutation(total), [k_cond])
    comps = [
        MixtureComponent(float(gen.uniform(0.05, 1.0)),
                         gen.standard_normal(dim) * gen.uniform(0.1, 4.0),
                         float(gen.uniform(0.1, 3.0)))
        for _ in range(total)
    ]
    model = AnalyticMixtureDenoiser(comps, sched, {"c": cond.tolist(), "n": null.tolist()})
    guidance = {
        "same": GuidanceConfig(w, "c", "c"),
        "subset": GuidanceConfig(w, "c", "n" if gen.uniform() < 0.5 else None),
        "disjoint": GuidanceConfig(w, "c", "n"),
        "none": GuidanceConfig(w),
    }[relation]
    return Pipeline(model, guidance, sched, decoder), gen


_PROPERTY_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# Forward and reverse accumulation multiply the same T step matrices in
# opposite orders, so they differ by rounding alone. The largest norm-wise
# relative difference seen over 6000 random draws of this space was 5.1e-14
# (T=49, d=49, w=7.5, disjoint conditions); a wrong product, sign or
# transpose is off by O(1).
CHAIN_RTOL = 1e-9


def _chain_problem(kind, timesteps):
    """(pipeline, scorer): the composite benchmark guides with a condition
    other than the null one, the quadratic one with the null condition
    alone, and the constant denoiser has a zero Jacobian."""
    if kind == "composite":
        pipe, sc = composite_benchmark(timesteps)
        assert pipe.guidance.condition != pipe.guidance.null_condition
        return pipe, sc
    if kind == "quadratic":
        pipe, sc = quadratic_benchmark(timesteps=timesteps)
        assert pipe.guidance.condition == pipe.guidance.null_condition
        return pipe, sc
    pipe = Pipeline(ConstantDenoiser(np.full(5, 0.1)), GuidanceConfig(w=7.5),
                    build_schedule(timesteps))
    return pipe, QuadraticSigmoidScorer(target=np.zeros(5), sharpness=0.2, offset=0.5)


class TestGradLatentChain:
    @pytest.mark.parametrize("timesteps", [1, 10, 50])
    @pytest.mark.parametrize("kind", ["composite", "quadratic", "constant"])
    def test_walks_the_plan_with_the_reference_bits(self, kind, timesteps):
        pipe, sc = _chain_problem(kind, timesteps)
        gen = RngStream(12, f"chain-{kind}-{timesteps}").generator()
        for _ in range(4):
            z = gen.standard_normal(pipe.dim)
            got = grad_latent_chain(z, pipe, sc)
            assert got.tobytes() == _reference_chain(z, pipe, sc).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=_PROPERTY_SEEDS,
        timesteps=st.integers(min_value=1, max_value=60),
        relation=st.sampled_from(["same", "subset", "disjoint", "none"]),
        sizes=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        w=st.one_of(st.sampled_from([0.0, 1.0, 7.5]), st.floats(-20.0, -1e-3)),
        constant=st.booleans(),
        dim=st.integers(min_value=1, max_value=64),
        rows=st.integers(min_value=0, max_value=8),
    )
    def test_matches_dense_forward_accumulation(
        self, seed, timesteps, relation, sizes, w, constant, dim, rows
    ):
        pipe, gen = _random_pipeline(seed, timesteps, relation, sizes, w, constant, dim, rows)
        # a linear score: its gradient never saturates, wherever z_0 lands
        sc = AffineScorer(gen.standard_normal(rows or dim))
        z = gen.standard_normal(dim)
        got, expect = grad_latent_chain(z, pipe, sc), _dense_chain(z, pipe, sc)
        assert np.linalg.norm(got - expect) <= CHAIN_RTOL * np.linalg.norm(expect)

    def test_nonfinite_product_raises(self):
        sched = build_schedule(5)
        pipe = Pipeline(NaNVjpDenoiser(np.zeros(4)), GuidanceConfig(w=7.5), sched)
        sc = QuadraticSigmoidScorer(target=np.zeros(4), sharpness=0.2)
        # the way back starts at the last step, t = 1
        with pytest.raises(NonFiniteError, match="^chain gradient has 4 non-finite of 4 .* t=1$"):
            grad_latent_chain(np.ones(4), pipe, sc)

    def test_non_finite_denoised_latent_is_named(self):
        # a huge guidance scale overflows the forward: the pass's own
        # failure, not the scorer's
        pipe, sc = _chain_problem("composite", 10)
        huge = Pipeline(pipe.model, GuidanceConfig(1e300, pipe.guidance.condition,
                                                   pipe.guidance.null_condition), pipe.schedule)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^denoised latent"):
            grad_latent_chain(RngStream(3, "huge").normal(pipe.dim), huge, sc)

    @pytest.mark.parametrize("shape", [(15,), (1,), (2, 16)])
    def test_latent_of_another_shape_rejected(self, shape):
        # the mixture's fused eps checks no shape: the plan takes checked latents
        pipe, sc = _chain_problem("composite", 3)
        with pytest.raises(DimensionError, match="one latent of dim 16"):
            grad_latent_chain(np.zeros(shape), pipe, sc)

    @pytest.mark.parametrize("kind", ["composite", "constant"])
    def test_non_finite_latent_is_named(self, kind):
        pipe, sc = _chain_problem(kind, 10)
        z = np.zeros(pipe.dim)
        z[0] = np.nan
        with pytest.raises(NonFiniteError, match="^latent contains non-finite entries$"):
            grad_latent_chain(z, pipe, sc)

    def test_matches_fd_on_mixture_pipeline(self):
        pipe, sc = _mixture_setup()
        gen = RngStream(7, "chain").generator()
        for _ in range(5):
            z = gen.standard_normal(6)
            chain = grad_latent_chain(z, pipe, sc)
            fd = grad_latent_fd(z, pipe, sc, h=1e-4)
            assert np.linalg.norm(chain - fd) <= 1e-3 * max(np.linalg.norm(fd), 1e-10)

    def test_equals_approx_for_constant_denoiser(self):
        sched = build_schedule(20)
        pipe = Pipeline(ConstantDenoiser(np.full(4, 0.1)), GuidanceConfig(w=7.5), sched)
        sc = QuadraticSigmoidScorer(target=np.zeros(4), sharpness=0.2, offset=0.5)
        z = RngStream(8, "ca").normal(4)
        np.testing.assert_allclose(
            grad_latent_chain(z, pipe, sc), grad_latent_approx(z, pipe, sc), rtol=1e-10
        )

    @pytest.mark.parametrize("base", [DenoiserModel, object])
    def test_model_without_a_vjp_raises(self, base):
        class OpaqueDenoiser(base):
            dim = 3

            def predict(self, z, t, condition=None):
                return np.zeros_like(z)

        pipe = Pipeline(OpaqueDenoiser(), GuidanceConfig(w=7.5), build_schedule(5))
        sc = QuadraticSigmoidScorer(target=np.zeros(3), sharpness=0.2, offset=0.5)
        with pytest.raises(GradientUnavailableError):
            grad_latent_chain(np.zeros(3), pipe, sc)

    @pytest.mark.parametrize("condition", [None, "c"])
    def test_shared_condition_one_product_per_step(self, condition):
        pipe, sc = _mixture_setup()
        model = _AliasModel(pipe.model, condition)
        z = RngStream(11, "chain-share").normal(6)
        shared = Pipeline(model, GuidanceConfig(2.0, condition, condition), pipe.schedule)
        got = grad_latent_chain(z, shared, sc)
        assert model.products == pipe.schedule.T
        # the same condition under another name takes the two-product path
        model.products = 0
        aliased = Pipeline(model, GuidanceConfig(2.0, condition, "alias"), pipe.schedule)
        two_calls = grad_latent_chain(z, aliased, sc)
        assert model.products == 2 * pipe.schedule.T
        np.testing.assert_array_equal(got, two_calls)

    def test_dispatch(self):
        pipe, sc = _mixture_setup()
        z = RngStream(9, "disp").normal(6)
        np.testing.assert_array_equal(
            latent_gradient(z, pipe, sc, GradientMode.ANALYTIC_CHAIN),
            grad_latent_chain(z, pipe, sc),
        )
        np.testing.assert_array_equal(
            latent_gradient(z, pipe, sc, "approx-constant-eps"),
            grad_latent_approx(z, pipe, sc),
        )


class TestVqaQuestion:
    def test_template(self):
        assert (
            format_vqa_question("a cat and a dog")
            == "Does this figure show 'a cat and a dog'? Please answer yes or no."
        )

    def test_minimal_prompt(self):
        assert format_vqa_question("a") == "Does this figure show 'a'? Please answer yes or no."

    def test_empty_prompt(self):
        with pytest.raises(InvalidPromptError):
            format_vqa_question("")


class _AliasModel:
    """Forwards to a denoiser, reads the condition ``"alias"`` as
    ``alias_of`` and counts ``predict_vjp`` calls."""

    def __init__(self, model, alias_of):
        self.model, self.alias_of = model, alias_of
        self.dim = model.dim
        self.products = 0

    def _condition(self, condition):
        return self.alias_of if condition == "alias" else condition

    def predict(self, z, t, condition=None):
        return self.model.predict(z, t, self._condition(condition))

    def predict_vjp(self, z, t, condition, u):
        self.products += 1
        return self.model.predict_vjp(z, t, self._condition(condition), u)


def _mixture_setup():
    sched = build_schedule(10)
    gen = RngStream(10, "setup").generator()
    comps = [
        MixtureComponent(0.6, gen.standard_normal(6), 1.0),
        MixtureComponent(0.4, gen.standard_normal(6), 2.0),
    ]
    pipe = Pipeline(AnalyticMixtureDenoiser(comps, sched, {"c": [0]}),
                    GuidanceConfig(w=2.0, condition="c"), sched)
    sc = QuadraticSigmoidScorer(target=gen.standard_normal(6), sharpness=0.1, offset=1.0)
    return pipe, sc
