import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisediff.config import METHODS, SEED_ENV_VAR, ExperimentConfig, parse_config_text
from noisediff.errors import ConfigError
from noisediff.scoring import CompositeTargetScorer, QuadraticSigmoidScorer, RemoteScorer

MINIMAL = "method = noise-diffusion\ndim = 8\n"


class TestParse:
    def test_key_values_with_comments(self):
        entries = parse_config_text("# header\n\nfoo = 1\nbar.baz = a b\n")
        assert entries["foo"] == ("1", 3)
        assert entries["bar.baz"] == ("a b", 4)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("a = 1\n\na = 2\n")

    def test_invalid_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("bad key = 1\n")


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_text(MINIMAL)
        nd = cfg.optimizer
        assert (nd.epochs, nd.candidates, cfg.pipeline.schedule.T) == (50, 50, 50)
        assert cfg.resolved["guidance.scale"] == "7.5"
        assert cfg.seeds == [0]

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ConfigError, match="line 3.*mystery"):
            ExperimentConfig.from_text(MINIMAL + "mystery = 4\n")

    def test_bad_value_line_numbered(self):
        with pytest.raises(ConfigError, match="line 3"):
            ExperimentConfig.from_text(MINIMAL + "epochs = soon\n")

    def test_zero_epochs_allowed(self):
        cfg = ExperimentConfig.from_text(MINIMAL + "epochs = 0\n")
        assert cfg.optimizer.epochs == 0

    def test_zero_candidates_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(MINIMAL + "candidates = 0\n")

    def test_zero_timesteps_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(MINIMAL + "timesteps = 0\n")

    def test_seed_list_and_count(self):
        cfg = ExperimentConfig.from_text(MINIMAL + "seeds = 3,5,9\n")
        assert cfg.seeds == [3, 5, 9]
        cfg = ExperimentConfig.from_text(MINIMAL + "seeds.count = 4\n")
        assert cfg.seeds == [0, 1, 2, 3]

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        cfg = ExperimentConfig.from_text(MINIMAL + "seeds = 1,2,3\n")
        assert cfg.seeds == [77]
        monkeypatch.setenv(SEED_ENV_VAR, "x")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(MINIMAL)

    def test_resolved_text_roundtrip(self):
        cfg = ExperimentConfig.from_text(MINIMAL + "epochs = 7\nscorer.type = quadratic-sigmoid\n")
        again = ExperimentConfig.from_text(cfg.resolved_text())
        assert again.resolved == cfg.resolved

    def test_method_validated(self):
        with pytest.raises(ConfigError, match="one of"):
            ExperimentConfig.from_text("method = hill-climb\ndim = 8\n")


class TestBuilders:
    def test_default_pipeline_shape(self):
        pipe = ExperimentConfig.from_text(MINIMAL).pipeline
        assert pipe.dim == 8
        assert pipe.schedule.T == 50
        assert pipe.guidance.w == 7.5

    def test_vector_broadcast_and_list(self):
        text = MINIMAL + (
            "denoiser.component.0.mean = 1.5\n"
            "denoiser.component.1.mean = 1,2,3,4,5,6,7,8\n"
            "denoiser.component.1.weight = 0.5\n"
        )
        cfg = ExperimentConfig.from_text(text)
        model = cfg.pipeline.model
        np.testing.assert_array_equal(model.components[0].mean, np.full(8, 1.5))
        np.testing.assert_array_equal(model.components[1].mean, np.arange(1.0, 9.0))

    def test_vector_length_mismatch(self):
        with pytest.raises(ConfigError, match="denoiser.component.0.mean"):
            ExperimentConfig.from_text(MINIMAL + "denoiser.component.0.mean = 1,2,3\n")

    def test_conditions_take_ranges(self):
        text = MINIMAL + "".join(f"denoiser.component.{k}.weight = 1\n" for k in range(3))
        model = ExperimentConfig.from_text(text + "denoiser.condition.a = 0-1,2\n").pipeline.model
        assert model.condition_map == {"a": (0, 1, 2)}

    def test_component_indices_must_be_contiguous(self):
        with pytest.raises(ConfigError, match="0..K-1"):
            ExperimentConfig.from_text(MINIMAL + "denoiser.component.2.weight = 1\n")

    def test_seeded_mean_is_deterministic(self):
        text = MINIMAL + "denoiser.component.0.mean_seed = 9\n"
        a = ExperimentConfig.from_text(text).pipeline.model.components[0].mean
        b = ExperimentConfig.from_text(text).pipeline.model.components[0].mean
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, np.zeros(8))

    def test_composite_scorer_with_ranges(self):
        text = MINIMAL + (
            "scorer.type = composite\n"
            "scorer.group.0.indices = 0-3\n"
            "scorer.group.0.target = 0.5\n"
            "scorer.group.1.indices = 4,5,6,7\n"
            "scorer.group.1.target = -0.5\n"
        )
        scorer = ExperimentConfig.from_text(text).scorer
        assert isinstance(scorer, CompositeTargetScorer)
        assert scorer.groups[0].indices == (0, 1, 2, 3)
        assert scorer.groups[1].indices == (4, 5, 6, 7)

    def test_composite_index_beyond_dim(self):
        text = MINIMAL + "scorer.type = composite\nscorer.group.0.indices = 6-9\nscorer.group.0.target = 0\n"
        with pytest.raises(ConfigError, match="'6-9' is outside 0..7"):
            ExperimentConfig.from_text(text)

    def test_quadratic_scorer_default(self):
        scorer = ExperimentConfig.from_text(MINIMAL).scorer
        assert isinstance(scorer, QuadraticSigmoidScorer)

    def test_remote_scorer_requires_endpoint(self):
        with pytest.raises(ConfigError, match="endpoint"):
            ExperimentConfig.from_text(MINIMAL + "scorer.type = remote\n")

    def test_remote_scorer_built(self):
        text = "method = random-sampling\ndim = 8\n" + (
            "scorer.type = remote\n"
            "scorer.remote.endpoint = http://127.0.0.1:1/score\n"
            "scorer.remote.timeout_ms = 250\n"
            "scorer.remote.retries = 0\n"
            "scorer.prompt = a lion and a monkey\n"
        )
        scorer = ExperimentConfig.from_text(text).scorer
        assert isinstance(scorer, RemoteScorer)
        assert scorer.timeout == 0.25
        assert scorer.retries == 0

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("scorer.remote.retries = -1\n", "scorer.remote.retries"),
            ("scorer.remote.timeout_ms = 0\n", "scorer.remote.timeout_ms"),
            ("scorer.remote.timeout_ms = -250\n", "scorer.remote.timeout_ms"),
            ("scorer.remote.timeout_ms = nan\n", "scorer.remote.timeout_ms"),
            ("scorer.remote.timeout_ms = inf\n", "scorer.remote.timeout_ms"),
        ],
    )
    def test_remote_limits_validated(self, extra, key):
        text = "method = random-sampling\ndim = 8\n" + (
            "scorer.type = remote\n"
            "scorer.remote.endpoint = http://127.0.0.1:1/score\n"
        )
        with pytest.raises(ConfigError, match=f"line 5: {key}"):
            ExperimentConfig.from_text(text + extra)

    @pytest.mark.parametrize(
        "endpoint", ["localhost:8000/score", "ftp://127.0.0.1/score", "http:///score", ""]
    )
    def test_remote_endpoint_validated(self, endpoint):
        text = "method = random-sampling\ndim = 8\nscorer.type = remote\n"
        with pytest.raises(ConfigError, match="line 4: scorer.remote.endpoint: expected an http"):
            ExperimentConfig.from_text(text + f"scorer.remote.endpoint = {endpoint}\n")

    def test_linear_decoder_sets_sample_dim(self):
        text = MINIMAL + "decoder.type = linear\ndecoder.linear.rows = 3\n"
        cfg = ExperimentConfig.from_text(text)
        assert cfg.scorer.target.shape == (3,)
        z0 = np.zeros(8)
        assert cfg.pipeline.decoder.decode(z0).shape == (3,)

    def test_dim_mismatch_with_denoiser(self):
        text = "method = noise-diffusion\ndim = 4\ndenoiser.component.0.mean = 1,2,3,4,5\n"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(text)

    def test_schedule_keys(self):
        text = MINIMAL + "schedule.beta_start = 0.01\nschedule.beta_end = 0.2\ntimesteps = 5\n"
        sched = ExperimentConfig.from_text(text).pipeline.schedule
        assert sched.T == 5
        assert sched.alpha_bars[1] == 1.0 - 0.01
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(MINIMAL + "schedule.beta_start = 0.9\nschedule.beta_end = 0.1\n")

    def test_gradient_and_strict_options(self):
        text = MINIMAL + "gradient.mode = finite-difference\ngradient.fd_budget = 4\nstrict = true\n"
        nd = ExperimentConfig.from_text(text).optimizer
        assert nd.gradient_mode.value == "finite-difference"
        assert nd.fd_budget == 4
        assert nd.strict_improvement


COMPOSITE = "scorer.type = composite\nscorer.group.0.indices = 0\nscorer.group.0.target = 0\n"
REMOTE_FD = ("scorer.type = remote\nscorer.remote.endpoint = http://127.0.0.1:1/s\n"
             "gradient.mode = finite-difference\n")

# values that used to pass parsing and fail (or do nothing) at run time, or
# that were reported under another key or with no line; the last line is
# the one at fault
NAMED_AT_PARSE = [
    "v_norm_guard = nan\n",
    "pgd.radius = nan\n",
    "gradient.fd_step = nan\n",
    "gradient.fd_step = -0.1\n",
    "gradient.fd_step = 0\n",
    "mv.learning_rate = inf\n",
    "schedule.beta_end = nan\n",
    "denoiser.component.0.mean = 0,nan,0,0,0,0,0,0\n",
    "denoiser.condition.a = 5\n",
    "denoiser.condition.a =\n",
    "denoiser.condition.a = 0,0\n",
    "denoiser.component.2.weight = 1\n",
    "scorer.type = composite\nscorer.group.0.target = 0\nscorer.group.0.indices = -1,1\n",
    "scorer.type = composite\nscorer.group.0.target = 0\nscorer.group.0.indices = 0,0,1\n",
    REMOTE_FD + "scorer.prompt =\n",
    REMOTE_FD.replace("finite-difference", "approx-constant-eps"),
    "schedule.beta_start = 1e-20\n",
    "timesteps = 1000\nschedule.beta_end = 0.99\n",
]

# one value just outside each numeric key's bound, and that bound
OUT_OF_RANGE = [
    ("v_norm_guard = 0", "> 0"),
    ("pgd.step = -0.1", ">= 0"),
    ("pgd.radius = 0", "> 0"),
    ("mv.learning_rate = -1", "> 0"),
    ("mv.beta1 = -0.5", ">= 0"),
    ("mv.beta1 = 1", "< 1"),
    ("mv.beta2 = 1.5", "< 1"),
    ("mv.epsilon = 0", "> 0"),
    ("denoiser.component.0.weight = 0", "> 0"),
    ("denoiser.component.0.var = -1", "> 0"),
    ("scorer.quadratic.sharpness = 0", "> 0"),
    (COMPOSITE + "scorer.group.0.radius = 0", "> 0"),
    (COMPOSITE + "scorer.group.0.sharpness = -2", "> 0"),
    ("gradient.fd_step = 0", "> 0"),
    ("schedule.beta_start = 0", "> 0"),
    ("schedule.beta_end = 1.5", "< 1"),
    ("schedule.beta_start = 0.1\nschedule.beta_end = 0.05", ">= 0.1"),
]


class TestConstructionErrorsBecomeConfigErrors:
    @pytest.mark.parametrize(
        "extra",
        [
            "guidance.scale = nan\n",
            "scorer.quadratic.sharpness = -1\n",
            "denoiser.component.0.weight = 0\n",
            "mv.beta1 = 1\n",
            "mv.beta2 = 1.0\n",
            "mv.epsilon = 0\n",
            "gradient.fd_step =\n",
        ]
        + NAMED_AT_PARSE,
    )
    def test_invalid_values(self, extra):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(MINIMAL + extra)

    @pytest.mark.parametrize("extra", NAMED_AT_PARSE)
    def test_error_names_key_and_line(self, extra):
        lines = (MINIMAL + extra).splitlines()
        key = lines[-1].split(" =")[0]
        with pytest.raises(ConfigError, match=re.escape(f"line {len(lines)}: {key}:")):
            ExperimentConfig.from_text(MINIMAL + extra)

    @pytest.mark.parametrize("extra, bound", OUT_OF_RANGE,
                             ids=[extra.splitlines()[-1] for extra, _ in OUT_OF_RANGE])
    def test_out_of_range_value_names_key_line_and_bound(self, extra, bound):
        lines = (MINIMAL + extra).splitlines()
        key = lines[-1].split(" =")[0]
        message = f"line {len(lines)}: {key}: must be {bound}, got"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_text("\n".join(lines) + "\n")


# resolved_text() of MINIMAL with each method: every default, pinned
PINNED_DEFAULTS = """\
candidates = 50
decoder.type = identity
denoiser.component.0.mean = 0.0
denoiser.component.0.var = 1.0
denoiser.component.0.weight = 1.0
denoiser.type = mixture
dim = 8
epochs = 50
gradient.mode = approx-constant-eps
guidance.scale = 7.5
method = {method}
mv.beta1 = 0.9
mv.beta2 = 0.999
mv.epsilon = 1e-8
mv.learning_rate = 0.01
output = runs/latest
pgd.radius = 0.5
pgd.step = 0.05
schedule.beta_end = 0.02
schedule.beta_start = 0.0001
scorer.quadratic.offset = 0.0
scorer.quadratic.sharpness = 0.5
scorer.quadratic.target = 0.0
scorer.type = quadratic-sigmoid
seeds = 0
strict = false
timesteps = 50
v_norm_guard = 1e-12
"""


@pytest.mark.parametrize("method", METHODS)
def test_resolved_text_pins_every_default(method):
    text = f"method = {method}\ndim = 8\n"
    assert ExperimentConfig.from_text(text).resolved_text() == PINNED_DEFAULTS.format(
        method=method
    )


class TestRemoteGradientCompatibility:
    REMOTE = (
        MINIMAL
        + "scorer.type = remote\nscorer.remote.endpoint = http://127.0.0.1:1/s\n"
    )

    def test_gradient_method_needs_fd(self):
        with pytest.raises(ConfigError, match="^<config>: gradient.mode: .*finite-difference"):
            ExperimentConfig.from_text(self.REMOTE)

    def test_fd_mode_accepted(self):
        cfg = ExperimentConfig.from_text(
            self.REMOTE + "gradient.mode = finite-difference\ngradient.fd_budget = 2\n"
        )
        assert cfg.optimizer.fd_budget == 2

    def test_score_only_methods_accepted(self):
        cfg = ExperimentConfig.from_text(self.REMOTE.replace(
            "method = noise-diffusion", "method = random-diffusion"))
        assert cfg.optimizer.method == "random-diffusion"


@st.composite
def config_texts(draw):
    """Valid configs over every method, scorer type, decoder, denoiser and
    seed spelling."""
    method = draw(st.sampled_from(METHODS))
    dim = draw(st.integers(1, 6))
    lines = [f"method = {method}", f"dim = {dim}", "timesteps = 3",
             f"guidance.scale = {draw(st.floats(-10.0, 10.0))!r}"]
    if draw(st.booleans()):
        seeds = draw(st.sets(st.integers(0, 99), min_size=1))
        lines.append(f"seeds = {','.join(map(str, seeds))}")
    else:
        lines.append(f"seeds.count = {draw(st.integers(1, 5))}")
    if draw(st.booleans()):
        value = draw(st.floats(-1.0, 1.0))
        lines += ["denoiser.type = constant", f"denoiser.constant.value = {value!r}"]
    else:
        lines.append(f"denoiser.component.0.mean_seed = {draw(st.integers(0, 9))}")
    sdim = dim
    if draw(st.booleans()):
        sdim = draw(st.integers(1, 6))
        lines += ["decoder.type = linear", f"decoder.linear.rows = {sdim}"]
    scorer = draw(st.sampled_from(["quadratic-sigmoid", "composite", "remote"]))
    lines.append(f"scorer.type = {scorer}")
    if scorer == "quadratic-sigmoid":
        lines.append(f"scorer.quadratic.target_seed = {draw(st.integers(0, 9))}")
    elif scorer == "composite":
        lines += [f"scorer.group.0.indices = 0-{sdim - 1}", "scorer.group.0.target = 0.5"]
    else:
        lines.append("scorer.remote.endpoint = http://127.0.0.1:1/score")
    if scorer == "remote" or draw(st.booleans()):
        lines += ["gradient.mode = finite-difference",
                  f"gradient.fd_budget = {draw(st.integers(1, 4))}",
                  f"gradient.fd_step = {draw(st.floats(1e-6, 1.0))!r}"]
    lines.append(f"strict = {draw(st.sampled_from(['true', 'false']))}")
    lines.append(f"mv.learning_rate = {draw(st.floats(1e-4, 1.0))!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(config_texts())
def test_resolved_text_reparses_to_the_same_config(text):
    cfg = ExperimentConfig.from_text(text)
    again = ExperimentConfig.from_text(cfg.resolved_text())
    assert again.resolved == cfg.resolved
    assert again.optimizer == cfg.optimizer
    assert cfg.optimizer.method == cfg.resolved["method"]
