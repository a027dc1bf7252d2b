import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from noisediff.diffusion import (
    AnalyticMixtureDenoiser,
    ConstantDenoiser,
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
    NoiseDiffError,
    NonFiniteError,
    ScheduleError,
    UnknownConditionError,
)
from noisediff.latents import RngStream
from noisediff.scoring import TargetGroup


def test_each_frozen_array_is_a_copy():
    """A schedule, a mixture component and a target group each freeze
    their own copy, so a caller's float64 array stays writable and
    later writes to it change nothing they hold."""
    arrays = [np.array([1.0, 0.5]), np.zeros(2), np.zeros(2)]
    held = [
        NoiseSchedule(arrays[0]).alpha_bars,
        MixtureComponent(1.0, arrays[1], 1.0).mean,
        TargetGroup((0, 1), arrays[2], 1.0, 1.0).target,
    ]
    for array, frozen in zip(arrays, held):
        array[-1] = 0.25
        assert not frozen.flags.writeable
        assert frozen[-1] != 0.25


class TestBuildSchedule:
    def test_single_step(self):
        s = build_schedule(1, 0.5, 0.5)
        np.testing.assert_allclose(s.alpha_bars, [1.0, 0.5])

    def test_two_step_product(self):
        s = NoiseSchedule(np.array([1.0, 0.9, 0.72]))
        assert s.T == 2
        np.testing.assert_allclose(s.alpha_bars, [1.0, 0.9, 0.72])

    def test_default_matches_explicit_product_loop(self):
        s = build_schedule(50)
        betas = np.linspace(1e-4, 0.02, 50)
        bar = 1.0
        for t in range(1, 51):
            bar *= 1.0 - betas[t - 1]
            assert abs(s.alpha_bar(t) - bar) <= 1e-12 * bar

    @pytest.mark.parametrize(
        "args", [(0, 0.1, 0.2), (5, 0.0, 0.2), (5, 0.3, 0.2), (5, 0.1, 1.0)]
    )
    def test_invalid_parameters(self, args):
        with pytest.raises(ScheduleError):
            build_schedule(*args)

    def test_inconsistent_arrays_rejected(self):
        # alpha_bar(0) must be 1 and every implied beta lie in (0, 1)
        for alpha_bars in ([0.99, 0.9], [], [[1.0, 0.5]], [1.0, 0.9, 0.9], [1.0, 0.5, 0.7],
                           [1.0, 0.5, 0.0], [1.0, -0.5], [1.0, np.nan]):
            with pytest.raises(ScheduleError):
                NoiseSchedule(np.array(alpha_bars))

    def test_equal_by_alpha_bars(self):
        assert build_schedule(5) == build_schedule(5)
        assert build_schedule(5) != build_schedule(6)
        assert build_schedule(5) != build_schedule(5, 1e-3, 0.02)
        assert build_schedule(5) != build_schedule(5).alpha_bars.tolist()

    def test_degenerate(self):
        s = NoiseSchedule(np.ones(1))
        assert s.T == 0
        assert s.alpha_bar(0) == 1.0

    def test_timestep_range(self):
        s = build_schedule(3)
        with pytest.raises(ScheduleError):
            s.alpha_bar(4)
        with pytest.raises(ScheduleError):
            s.alpha_bar(-1)


class TestCfgPredict:
    def _model(self):
        sched = build_schedule(10)
        comps = [
            MixtureComponent(0.5, np.array([2.0, 0.0]), 1.0),
            MixtureComponent(0.5, np.array([-2.0, 0.0]), 1.0),
        ]
        return AnalyticMixtureDenoiser(comps, sched, {"a": [0], "b": [1]})

    def test_w_one_is_conditional(self):
        m = self._model()
        z = np.array([0.3, -0.7])
        out = cfg_predict(m, z, 5, GuidanceConfig(w=1.0, condition="a"))
        np.testing.assert_array_equal(out, m.predict(z, 5, "a"))

    def test_w_zero_is_unconditional(self):
        m = self._model()
        z = np.array([0.3, -0.7])
        out = cfg_predict(m, z, 5, GuidanceConfig(w=0.0, condition="a"))
        np.testing.assert_array_equal(out, m.predict(z, 5, None))

    def test_same_condition_invariant_in_w(self):
        m = self._model()
        z = np.array([0.3, -0.7])
        outs = [
            cfg_predict(m, z, 5, GuidanceConfig(w=w, condition="a", null_condition="a"))
            for w in (0.0, 1.0, 7.5, -3.0)
        ]
        for out in outs[1:]:
            np.testing.assert_allclose(out, outs[0], rtol=0, atol=1e-15)

    def test_unknown_condition(self):
        m = self._model()
        with pytest.raises(UnknownConditionError):
            cfg_predict(m, np.zeros(2), 5, GuidanceConfig(w=1.0, condition="nope"))

    @pytest.mark.parametrize("condition, null_condition, calls", [
        (None, None, [None]),
        ("a", "a", ["a"]),
        ("a", None, ["a", None]),
        (None, "b", [None, "b"]),
    ])
    def test_combine_runs_once_per_distinct_condition(self, condition, null_condition, calls):
        seen = []
        values = {None: 1.0, "a": 2.0, "b": 3.0}

        def at(c):
            seen.append(c)
            return values[c]

        g = GuidanceConfig(w=7.5, condition=condition, null_condition=null_condition)
        got = g.combine(at)
        assert seen == calls
        assert got == 7.5 * values[condition] + (1.0 - 7.5) * values[null_condition]


class TestDdimStep:
    def test_zero_eps_pure_rescale(self):
        s = build_schedule(10)
        z = np.array([1.0, -2.0])
        out = ddim_step(z, 4, np.zeros(2), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar(3) / s.alpha_bar(4)) * z)

    def test_nearly_equal_alpha_bars_leave_z_unchanged(self):
        # equal alpha_bars make both correction terms cancel; the schedule
        # invariant demands strict decrease, so probe the limit instead
        # (residual shrinks like sqrt(beta) * |eps|)
        s = build_schedule(3, 1e-14, 1e-14)
        z = np.array([0.5, -1.5])
        eps = np.array([3.0, 4.0])
        out = ddim_step(z, 2, eps, s)
        np.testing.assert_allclose(out, z, atol=1e-6)

    def test_t_zero_rejected(self):
        with pytest.raises(ScheduleError):
            ddim_step(np.zeros(2), 0, np.zeros(2), build_schedule(3))

    def test_single_gaussian_transport(self):
        """Full DDIM with the exact single-Gaussian predictor carries
        N(0, I) latents to the data law, checked against its known
        mean/variance by Monte Carlo (3 SE over 1e4 trajectories)."""
        T, n, d = 600, 10**4, 4
        sched = build_schedule(T, 1e-4, 0.07)
        mu = np.array([1.2, -0.8, 0.4, 2.0])
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, mu, 1.0)], sched)
        pipe = Pipeline(den, GuidanceConfig(w=1.0), sched)
        z_T = RngStream(0, "transport").normal(n * d).reshape(n, d)
        z0, _ = pipe.forward(z_T)
        se_mean = z0.std(axis=0, ddof=1) / np.sqrt(n)
        se_var = z0.var(axis=0, ddof=1) * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(z0.mean(axis=0) - mu) <= 3.0 * se_mean)
        assert np.all(np.abs(z0.var(axis=0, ddof=1) - 1.0) <= 3.0 * se_var)


class TestAnalyticMixtureEps:
    def test_standard_component_gives_scaled_z(self):
        sched = build_schedule(50)
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, np.zeros(4), 1.0)], sched)
        z = np.array([0.5, -1.0, 2.0, 0.0])
        for t in (1, 25, 50):
            np.testing.assert_allclose(
                den.predict(z, t), np.sqrt(1.0 - sched.alpha_bar(t)) * z, atol=1e-14
            )

    def test_single_component_affine_formula(self):
        sched = build_schedule(50)
        mu = np.array([1.0, -0.5, 2.0, 0.3])
        s2 = 2.5
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, mu, s2)], sched)
        gen = RngStream(2, "affine").generator()
        for t in (1, 17, 50):
            ab = sched.alpha_bar(t)
            var = ab * s2 + 1.0 - ab
            for _ in range(5):
                z = gen.standard_normal(4) * 2.0
                expect = np.sqrt(1.0 - ab) * (z - np.sqrt(ab) * mu) / var
                np.testing.assert_allclose(den.predict(z, t), expect, atol=1e-13)

    def test_midpoint_symmetry(self):
        sched = build_schedule(50)
        den = AnalyticMixtureDenoiser(
            [MixtureComponent(0.5, np.full(4, 5.0), 1.0), MixtureComponent(0.5, np.full(4, -5.0), 1.0)],
            sched,
        )
        resp, _, _ = den._responsibilities(np.zeros(4), 25, None)
        np.testing.assert_allclose(resp, [0.5, 0.5])
        ab = sched.alpha_bar(25)
        avg = 0.5 * (
            np.sqrt(1 - ab) * (np.zeros(4) - np.sqrt(ab) * np.full(4, 5.0))
            + np.sqrt(1 - ab) * (np.zeros(4) - np.sqrt(ab) * np.full(4, -5.0))
        )
        np.testing.assert_allclose(den.predict(np.zeros(4), 25), avg, atol=1e-13)

    def test_extreme_z_is_stable(self):
        # log-sum-exp keeps responsibilities finite far from all modes
        sched = build_schedule(10)
        den = AnalyticMixtureDenoiser(
            [MixtureComponent(0.7, np.zeros(4), 1.0), MixtureComponent(0.3, np.ones(4), 2.0)],
            sched,
        )
        eps = den.predict(np.full(4, 1e3), 5)
        assert np.all(np.isfinite(eps))

    def test_t_zero_rejected(self):
        sched = build_schedule(10)
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, np.zeros(2), 1.0)], sched)
        with pytest.raises(ScheduleError):
            den.predict(np.zeros(2), 0)

    def test_unknown_condition(self):
        sched = build_schedule(10)
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, np.zeros(2), 1.0)], sched, {"a": [0]})
        with pytest.raises(UnknownConditionError) as caught:
            den.predict(np.zeros(2), 5, "b")
        # a ValueError, so its message prints as written, without quotes
        assert isinstance(caught.value, (NoiseDiffError, ValueError))
        assert KeyError not in type(caught.value).__mro__
        assert str(caught.value) == "unknown condition 'b'"

    def test_condition_map_validation(self):
        # a malformed map is a bad argument, like a bad component: a plain
        # ValueError that names the condition
        sched = build_schedule(10)
        comp = [MixtureComponent(1.0, np.zeros(2), 1.0)]
        for indices, message in (([], "condition 'a' maps to no components"),
                                 ([5], "condition 'a' has out-of-range indices"),
                                 ([-1], "condition 'a' has out-of-range indices")):
            with pytest.raises(ValueError) as caught:
                AnalyticMixtureDenoiser(comp, sched, {"a": indices})
            assert type(caught.value) is ValueError
            assert str(caught.value) == message

    def test_condition_may_not_repeat_a_component(self):
        # a repeated index would count that component's weight twice
        sched = build_schedule(10)
        comp = [MixtureComponent(1.0, np.zeros(2), 1.0), MixtureComponent(1.0, np.ones(2), 1.0)]
        with pytest.raises(ValueError) as caught:
            AnalyticMixtureDenoiser(comp, sched, {"a": [0, 0, 1]})
        assert type(caught.value) is ValueError
        assert str(caught.value) == "condition 'a' repeats a component"


def _direct_mixture_eps(den, z, t, condition, sched):
    """Mixture eps rebuilt from the components on every call: the
    reference the tabulated path must match bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    ab = sched.alpha_bar(t)
    idxs = range(len(den.components)) if condition is None else den.condition_map[condition]
    w = np.array([den.components[i].weight for i in idxs])
    w = w / w.sum()
    means = np.sqrt(ab) * np.stack([den.components[i].mean for i in idxs])
    variances = np.array([ab * den.components[i].var + 1.0 - ab for i in idxs])
    diff = z[..., None, :] - means
    dist2 = np.sum(diff * diff, axis=-1)
    log_post = (
        np.log(w)
        - 0.5 * den.dim * np.log(2.0 * np.pi * variances)
        - 0.5 * dist2 / variances
    )
    resp = softmax(log_post, axis=-1)
    score = np.einsum("...k,...kd->...d", resp, -diff / variances[:, None])
    return -np.sqrt(1.0 - ab) * score


class TestMixtureTables:
    T = 12

    def _denoiser(self):
        sched = build_schedule(self.T)
        gen = RngStream(12, "tables").generator()
        comps = [
            MixtureComponent(0.5, gen.standard_normal(5), 0.7),
            MixtureComponent(0.3, gen.standard_normal(5) * 3.0, 1.9),
            MixtureComponent(0.2, gen.standard_normal(5), 0.2),
        ]
        return AnalyticMixtureDenoiser(comps, sched, {"a": [0, 2], "b": [1]}), sched

    def _latents(self):
        gen = RngStream(13, "tables-z").generator()
        # a batch that includes latents far from every mode
        scale = np.array([[1.0], [1.0], [4.0], [30.0], [1e3], [0.0]])
        return gen.standard_normal(5), gen.standard_normal((6, 5)) * scale

    def test_every_step_and_condition_matches_direct_formula(self):
        den, sched = self._denoiser()
        for z in self._latents():
            for t in range(1, self.T + 1):
                for condition in (None, "a", "b"):
                    expect = _direct_mixture_eps(den, z, t, condition, sched)
                    np.testing.assert_array_equal(den.predict(z, t, condition), expect)

    def test_schedule_is_read_only(self):
        den, sched = self._denoiser()
        with pytest.raises(AttributeError):
            den.schedule = build_schedule(2 * self.T, 1e-3, 0.05)
        assert den.schedule is sched

    def test_mixture_cannot_change_under_its_tables(self):
        den, _ = self._denoiser()
        with pytest.raises(TypeError):
            den.components[0] = den.components[1]
        with pytest.raises(AttributeError):
            den.condition_map["a"].append(1)

    def test_steps_without_a_table_raise(self):
        den, _ = self._denoiser()
        with pytest.raises(ScheduleError):
            den.predict(np.zeros(5), self.T + 1)
        with pytest.raises(ScheduleError):
            den.predict(np.zeros(5), 0, "a")
        with pytest.raises(ScheduleError):
            den.predict_vjp(np.zeros(5), self.T + 1, "b", np.ones(5))
        with pytest.raises(UnknownConditionError):
            den.predict(np.zeros(5), 3, "c")
        with pytest.raises(UnknownConditionError):
            den.predict_vjp(np.zeros(5), 3, "c", np.ones(5))


class TestPredictVjp:
    """u^T d eps / d z; the mixture's Jacobian is symmetric, so central
    differences of ``predict`` along u measure the same vector."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        timesteps=st.integers(min_value=1, max_value=60),
        dim=st.integers(min_value=1, max_value=64),
        components=st.integers(min_value=1, max_value=5),
        conditioned=st.booleans(),
    )
    def test_matches_central_differences_of_predict(
        self, seed, timesteps, dim, components, conditioned
    ):
        gen = RngStream(seed, "vjp").generator()
        sched = build_schedule(timesteps)
        comps = [
            MixtureComponent(float(gen.uniform(0.05, 1.0)),
                             gen.standard_normal(dim) * gen.uniform(0.1, 2.0),
                             float(gen.uniform(0.3, 3.0)))
            for _ in range(components)
        ]
        den = AnalyticMixtureDenoiser(comps, sched, {"c": [0]})
        t = int(gen.integers(1, timesteps + 1))
        condition = "c" if conditioned else None
        z, u = gen.standard_normal(dim), gen.standard_normal(dim)
        h = 1e-5 * (1.0 + np.max(np.abs(z)))
        fd = (den.predict(z + h * u, t, condition) - den.predict(z - h * u, t, condition)) / (2 * h)
        vjp = den.predict_vjp(z, t, condition, u)
        assert vjp.shape == (dim,)
        # the largest seen over 8000 draws was 8.7e-9
        assert np.linalg.norm(vjp - fd) <= 1e-6 * np.linalg.norm(u) * (1.0 + np.linalg.norm(vjp))

    def test_takes_one_latent_of_the_model_dim(self):
        den = AnalyticMixtureDenoiser([MixtureComponent(1.0, np.zeros(3), 1.0)], build_schedule(4))
        for z in (np.zeros((2, 3)), np.zeros(4), np.float64(0.0)):
            with pytest.raises(DimensionError):
                den.predict_vjp(z, 2, None, np.ones(3))

    def test_constant_denoiser_gives_zeros(self):
        den = ConstantDenoiser(np.arange(3.0))
        np.testing.assert_array_equal(den.predict_vjp(np.ones(3), 1, None, np.ones(3)), np.zeros(3))


class TestDenoisePipeline:
    def test_model_for_another_schedule_rejected(self):
        comps = [MixtureComponent(1.0, np.zeros(4), 1.0)]
        g = GuidanceConfig(w=1.0)
        with pytest.raises(ScheduleError):
            Pipeline(AnalyticMixtureDenoiser(comps, build_schedule(10)), g, build_schedule(5))
        with pytest.raises(ScheduleError):
            Pipeline(AnalyticMixtureDenoiser(comps, build_schedule(5)), g, build_schedule(10))
        with pytest.raises(ScheduleError):
            Pipeline(AnalyticMixtureDenoiser(comps, build_schedule(5)), g,
                     build_schedule(5, 1e-3, 0.02))

    def test_equal_schedule_of_another_object_builds(self):
        pipe, sched = _mixture_pipeline()
        equal = Pipeline(pipe.model, pipe.guidance, build_schedule(sched.T))
        z = RngStream(4, "det").normal(6)
        assert equal.forward(z)[0].tobytes() == pipe.forward(z)[0].tobytes()

    def test_degenerate_schedule_is_identity(self):
        sched = NoiseSchedule(np.ones(1))
        model = ConstantDenoiser(np.zeros(3))
        z = np.array([1.0, 2.0, 3.0])
        z0, sample = Pipeline(model, GuidanceConfig(w=7.5), sched).forward(z)
        np.testing.assert_array_equal(z0, z)
        np.testing.assert_array_equal(sample, z)

    def test_constant_eps_telescopes(self):
        """With a frozen prediction the whole pipeline collapses to
        z0 = sqrt(1/ab_T) z_T - sqrt((1 - ab_T)/ab_T) eps."""
        sched = build_schedule(50)
        eps = np.array([0.3, -0.2, 0.05, 0.7])
        pipe = Pipeline(ConstantDenoiser(eps), GuidanceConfig(w=7.5), sched)
        gen = RngStream(3, "tele").generator()
        ab_T = sched.alpha_bar(50)
        for _ in range(5):
            z = gen.standard_normal(4)
            expect = np.sqrt(1.0 / ab_T) * z - np.sqrt((1.0 - ab_T) / ab_T) * eps
            np.testing.assert_allclose(pipe.denoise(z), expect, rtol=1e-12)

    def test_non_finite_z0_raises(self):
        pipe, _ = _mixture_pipeline()
        z = RngStream(4, "det").normal(6)
        z[2] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="non-finite"):
            pipe.forward(z)

    def test_bit_identical_reruns(self):
        pipe, _ = _mixture_pipeline()
        z = RngStream(4, "det").normal(6)
        a0, s0 = pipe.forward(z)
        a1, s1 = pipe.forward(z)
        assert a0.tobytes() == a1.tobytes()
        assert s0.tobytes() == s1.tobytes()

    def test_constant_eps_jacobian_is_scaled_identity(self):
        """Central differences through the pipeline reproduce
        sqrt(1/ab_T) I to 1e-6 relative; the exactness regime of the
        one-pass gradient."""
        sched = build_schedule(50)
        pipe = Pipeline(ConstantDenoiser(np.full(4, 0.2)), GuidanceConfig(w=7.5), sched)
        z = RngStream(5, "jac").normal(4)
        h = 1e-4
        scale = np.sqrt(1.0 / sched.alpha_bar(50))
        jac = np.zeros((4, 4))
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            jac[:, i] = (pipe.denoise(zp) - pipe.denoise(zm)) / (2 * h)
        np.testing.assert_allclose(jac, scale * np.eye(4), rtol=0, atol=1e-6 * scale)


class TestDecoders:
    def test_identity_adjoint(self):
        dec = IdentityDecoder()
        cot = np.array([1.0, -2.0])
        np.testing.assert_array_equal(dec.adjoint(np.zeros(2), cot), cot)

    def test_linear_adjoint_is_transpose(self):
        gen = RngStream(6, "dec").generator()
        W = gen.standard_normal((3, 5))
        dec = LinearDecoder(W, offset=gen.standard_normal(3))
        z = gen.standard_normal(5)
        cot = gen.standard_normal(3)
        # <W z, c> == <z, W^T c>; the offset does not enter the adjoint
        lhs = float((dec.decode(z) - dec.offset) @ cot)
        rhs = float(z @ dec.adjoint(z, cot))
        assert abs(lhs - rhs) < 1e-12

    def test_linear_shape_validation(self):
        with pytest.raises(DimensionError):
            LinearDecoder(np.zeros(3))
        with pytest.raises(DimensionError):
            LinearDecoder(np.zeros((2, 3)), offset=np.zeros(3))


def _mixture_pipeline():
    sched = build_schedule(10)
    gen = RngStream(9, "mix").generator()
    comps = [
        MixtureComponent(0.6, gen.standard_normal(6), 1.0),
        MixtureComponent(0.4, gen.standard_normal(6), 2.0),
    ]
    den = AnalyticMixtureDenoiser(comps, sched, {"c": [0]})
    return Pipeline(den, GuidanceConfig(w=2.0, condition="c"), sched), sched


class _CountingModel:
    """Forwards to a denoiser and counts its ``predict`` calls."""

    def __init__(self, model):
        self.model = model
        self.dim = model.dim
        self.predicts = 0

    def predict(self, z, t, condition=None):
        self.predicts += 1
        return self.model.predict(z, t, condition)


class TestCfgPredictSharedCondition:
    def _model(self):
        return TestCfgPredict()._model()

    @pytest.mark.parametrize("condition", [None, "a"])
    def test_one_evaluation_same_bits(self, condition):
        inner = self._model()
        model = _CountingModel(inner)
        z = RngStream(21, "cfg-share").normal(8).reshape(4, 2)
        g = GuidanceConfig(w=7.5, condition=condition, null_condition=condition)
        for t in (1, 5, 10):
            model.predicts = 0
            got = cfg_predict(model, z, t, g)
            assert model.predicts == 1
            two_calls = g.w * inner.predict(z, t, condition) + (1.0 - g.w) * inner.predict(
                z, t, condition
            )
            np.testing.assert_array_equal(got, two_calls)

    def test_distinct_conditions_evaluate_twice(self):
        model = _CountingModel(self._model())
        cfg_predict(model, np.array([0.3, -0.7]), 5, GuidanceConfig(w=7.5, condition="a"))
        assert model.predicts == 2

    def test_unconditioned_pipeline_one_predict_per_step(self):
        pipeline, sched = _mixture_pipeline()
        model = _CountingModel(pipeline.model)
        unconditioned = Pipeline(model, GuidanceConfig(w=2.0), sched)
        z = RngStream(22, "cfg-share").normal(6)
        z0, _ = unconditioned.forward(z)
        assert model.predicts == sched.T
        np.testing.assert_array_equal(
            z0, Pipeline(pipeline.model, GuidanceConfig(w=2.0), sched).forward(z)[0]
        )


_BATCH_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestBatchedForwardRows:
    """Every row of a batched ``Pipeline.forward`` has the bits of the
    forward of that row alone; the optimizers forward all of a run's
    seeds as one batch and rely on this."""

    @staticmethod
    def _pipeline(seed, dim, timesteps, denoiser, components, rows):
        gen = RngStream(seed, "batched-forward").generator()
        sched = build_schedule(timesteps)
        if denoiser == "constant":
            model = ConstantDenoiser(gen.standard_normal(dim))
            guidance = GuidanceConfig(w=float(gen.uniform(-2.0, 8.0)))
        else:
            comps = [
                MixtureComponent(float(gen.uniform(0.1, 1.0)), gen.standard_normal(dim),
                                 float(gen.uniform(0.2, 3.0)))
                for _ in range(components)
            ]
            model = AnalyticMixtureDenoiser(comps, sched, {"c": [0]})
            # the condition differs from the null condition: two passes per step
            guidance = GuidanceConfig(w=float(gen.uniform(-2.0, 8.0)), condition="c")
        decoder = (
            IdentityDecoder()
            if rows == 0
            else LinearDecoder(gen.standard_normal((rows, dim)), gen.standard_normal(rows))
        )
        return Pipeline(model, guidance, sched, decoder), gen

    @settings(max_examples=150, deadline=None)
    @given(
        seed=_BATCH_SEEDS,
        batch=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=64),
        timesteps=st.integers(min_value=1, max_value=12),
        denoiser=st.sampled_from(["mixture", "constant"]),
        components=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=0, max_value=12),
    )
    def test_rows_equal_single_forwards(
        self, seed, batch, dim, timesteps, denoiser, components, rows
    ):
        pipeline, gen = self._pipeline(seed, dim, timesteps, denoiser, components, rows)
        latents = gen.standard_normal((batch, dim))
        z0s, samples = pipeline.forward(latents)
        assert z0s.shape == (batch, dim)
        for k in range(batch):
            z0, sample = pipeline.forward(latents[k].copy())
            np.testing.assert_array_equal(z0s[k], z0)
            np.testing.assert_array_equal(samples[k], sample)


def _reference_denoise(pipeline, z_T):
    """The DDIM loop built from the public pieces, one ``cfg_predict`` and
    one ``ddim_step`` per step: the reference the step plan must match
    bit for bit."""
    z = np.asarray(z_T, dtype=np.float64)
    for t in range(pipeline.schedule.T, 0, -1):
        z = ddim_step(z, t, cfg_predict(pipeline.model, z, t, pipeline.guidance),
                      pipeline.schedule)
    return z


class TestStepPlan:
    """``Pipeline.denoise`` runs the plan built at construction; its bits
    are those of the reference loop. Each condition's slice of the
    stacked components is reduced on its own, since a segmented
    ``np.add.reduceat`` sums in another order than ``np.sum``."""

    @staticmethod
    def _pipeline(seed, timesteps, relation, sizes, w, constant, dim):
        gen = RngStream(seed, "step-plan").generator()
        sched = build_schedule(timesteps)
        if constant:
            model = ConstantDenoiser(gen.standard_normal(dim))
            return Pipeline(model, GuidanceConfig(w), sched), gen
        k_cond, k_null = sizes
        if relation == "subset":  # the condition's components among the null's
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
        return Pipeline(model, guidance, sched), gen

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_BATCH_SEEDS,
        timesteps=st.integers(min_value=1, max_value=60),
        relation=st.sampled_from(["same", "subset", "disjoint", "none"]),
        sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        w=st.one_of(st.sampled_from([0.0, 1.0, 7.5]), st.floats(-20.0, -1e-3)),
        constant=st.booleans(),
        dim=st.integers(min_value=1, max_value=24),
        shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
        spread=st.sampled_from([1.0, 4.0, 50.0]),
    )
    def test_matches_reference_loop(self, seed, timesteps, relation, sizes, w, constant, dim,
                                    shape, spread):
        pipeline, gen = self._pipeline(seed, timesteps, relation, sizes, w, constant, dim)
        z_T = gen.standard_normal((*shape, dim)) * spread
        got = pipeline.denoise(z_T)
        assert got.shape == z_T.shape
        assert got.tobytes() == _reference_denoise(pipeline, z_T).tobytes()

    def test_bits_do_not_depend_on_the_simd_level(self, tmp_path):
        """The equality above, rerun with numpy's AVX-512 dispatch off:
        the plan's reductions see the same array lengths and layouts as
        the reference's at every dispatch level."""
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_features__
        if not __cpu_features__.get("X86_V4"):
            pytest.skip("the host has no X86_V4 dispatch to turn off")
        tests = Path(__file__).resolve().parent
        code = (
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__\n"
            "assert not __cpu_features__['X86_V4'], 'X86_V4 still dispatched'\n"
            "from test_diffusion import TestStepPlan\n"
            "TestStepPlan().test_matches_reference_loop()\n"
            "print('equal')\n"
        )
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
            "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
        }
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-3000:]
        assert done.stdout.splitlines()[-1] == "equal"


class TestPipelineChecks:
    """What a Pipeline rejects, and when: its parts when it is built, and
    a latent once per forward, before the first step."""

    def test_unknown_conditions_raise_at_construction(self):
        pipe, sched = _mixture_pipeline()
        for guidance in (GuidanceConfig(w=2.0, condition="nope"),
                         GuidanceConfig(w=2.0, condition="c", null_condition="nope")):
            with pytest.raises(UnknownConditionError, match="unknown condition 'nope'"):
                Pipeline(pipe.model, guidance, sched)

    def test_decoder_for_another_dim_raises_at_construction(self):
        pipe, sched = _mixture_pipeline()
        with pytest.raises(DimensionError, match="decoder weight has 5 columns, model dim is 6"):
            Pipeline(pipe.model, pipe.guidance, sched, LinearDecoder(np.ones((3, 5))))
        built = Pipeline(pipe.model, pipe.guidance, sched, LinearDecoder(np.ones((3, 6))))
        assert built.forward(np.zeros(6))[1].shape == (3,)

    def test_scalar_latent_is_a_dimension_error(self):
        pipe, _ = _mixture_pipeline()
        with pytest.raises(DimensionError, match="got a scalar"):
            pipe.forward(1.0)

    @pytest.mark.parametrize("shape", [(5,), (3, 7)])
    def test_wrong_last_dim(self, shape):
        pipe, _ = _mixture_pipeline()
        width = shape[-1]
        with pytest.raises(DimensionError, match=f"^latent dim {width} != model dim 6$"):
            pipe.forward(np.zeros(shape))

    @pytest.mark.parametrize("kind", ["mixture", "constant"])
    @pytest.mark.parametrize("z, message", [
        (1.0, "got a scalar"),
        (np.zeros(5), "^latent dim 5 != model dim 6$"),
        (np.zeros((2, 7)), "^latent dim 7 != model dim 6$"),
    ])
    def test_model_predict_checks_as_the_pipeline_does(self, kind, z, message):
        pipe, _ = _mixture_pipeline()
        model = pipe.model if kind == "mixture" else ConstantDenoiser(np.zeros(6))
        with pytest.raises(DimensionError, match=message):
            model.predict(z, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_named(self, bad):
        pipe, _ = _mixture_pipeline()
        z = np.zeros((2, 6))
        z[1, 4] = bad
        with pytest.raises(NonFiniteError, match="^z_T has 1 non-finite of 12 entries$"):
            pipe.denoise(z)

    def test_non_finite_output_of_finite_input_is_caught(self):
        # a finite z_T can still overflow on the way to z_0
        pipe = Pipeline(ConstantDenoiser(np.full(2, 1e308)), GuidanceConfig(w=7.5),
                        build_schedule(10))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="denoised latent has"):
            pipe.forward(np.zeros(2))

    def test_model_prediction_of_another_shape_raises(self):
        class FlatDenoiser(ConstantDenoiser):
            def predict(self, z, t, condition=None):
                return self.value  # one row, whatever the batch

        pipe = Pipeline(FlatDenoiser(np.zeros(3)), GuidanceConfig(w=7.5), build_schedule(5))
        with pytest.raises(DimensionError, match=r"shape mismatch: \(2, 3\) vs \(3,\)"):
            pipe.forward(np.zeros((2, 3)))
