"""Experiment configuration: a flat ``key = value`` text format with
dotted keys, parsed and built once into a frozen ``ExperimentConfig``
that carries its pipeline, scorer, and optimizer settings.

Unknown keys, bad values, and inconsistent sections raise ConfigError
with the offending line number where one exists. ``resolved_text``
serializes the config with every default filled in, which each run
writes next to its CSVs.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import (
    AnalyticMixtureDenoiser,
    ConstantDenoiser,
    GuidanceConfig,
    IdentityDecoder,
    LinearDecoder,
    MixtureComponent,
    Pipeline,
    build_schedule,
)
from .errors import ConfigError
from .latents import RngStream
from .optimizers import (
    BASELINE_METHODS,
    GRADIENT_METHODS,
    BaselineConfig,
    NoiseDiffusionConfig,
)
from .scoring import (
    CompositeTargetScorer,
    GradientMode,
    QuadraticSigmoidScorer,
    RemoteScorer,
    Scorer,
    TargetGroup,
    parse_endpoint,
)

__all__ = ["ExperimentConfig", "parse_config_text", "load_config", "SEED_ENV_VAR"]

SEED_ENV_VAR = "NOISEDIFF_SEED"

# RngStream takes each seed mod 2^64, so a seed outside this range would
# repeat the draws of another
_MAX_SEED = 2**64 - 1


def _seed_range_error(seed: int) -> str | None:
    """What is wrong with ``seed`` as an RngStream seed, None if nothing."""
    if not 0 <= seed <= _MAX_SEED:
        return f"must be in 0..{_MAX_SEED}, got {seed}"
    return None


METHODS = ("noise-diffusion",) + BASELINE_METHODS

_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

# log of the smallest normal float64
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines into {key: (value, line_number)}.

    Blank lines and ``#`` comments are ignored; duplicate keys and
    malformed lines are errors.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"{source}: line {lineno}: invalid key {key!r}")
        if key in entries:
            raise ConfigError(
                f"{source}: line {lineno}: duplicate key {key!r} "
                f"(first set on line {entries[key][1]})"
            )
        entries[key] = (value, lineno)
    return entries


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description, the fully resolved flat map, and
    the pipeline, scorer and optimizer settings built from it once, at
    parse time; every seed of a run uses these same objects."""

    seeds: list[int]
    output: str
    resolved: dict[str, str] = field(default_factory=dict)
    source: str = "<config>"
    pipeline: Pipeline | None = None
    scorer: Scorer | None = None
    optimizer: NoiseDiffusionConfig | BaselineConfig | None = None
    _reader: _Reader | None = field(default=None, repr=False)

    # ---- construction -------------------------------------------------

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        reader = _Reader(parse_config_text(text, source), source)
        cfg = cls(
            seeds=cls._resolve_seeds(reader),
            output=reader.str("output", "runs/latest"),
            source=source,
            _reader=reader,
        )
        # builds read every supported key, once, so unknown ones can be
        # rejected and the resolved map is complete
        cfg = replace(cfg, pipeline=cfg.build_pipeline())
        cfg = replace(cfg, scorer=cfg.build_scorer(), optimizer=cfg._build_optimizer())
        if (
            cfg.optimizer.method in GRADIENT_METHODS
            and isinstance(cfg.scorer, RemoteScorer)
            and cfg.optimizer.gradient_mode is not GradientMode.FINITE_DIFFERENCE
        ):
            raise reader.error("gradient.mode", "remote scorers expose no analytic gradient; set "
                               "gradient.mode = finite-difference or use a score-only method")
        reader.reject_unknown()
        resolved = dict(reader.used)
        resolved["seeds"] = ",".join(str(s) for s in cfg.seeds)
        resolved.pop("seeds.count", None)
        return replace(cfg, resolved=resolved)

    @staticmethod
    def _resolve_seeds(reader) -> list[int]:
        explicit = reader.int_list("seeds", "0")
        if not explicit:
            raise reader.error("seeds", "expected at least one seed")
        if len(set(explicit)) < len(explicit):
            raise reader.error("seeds", f"each seed may appear once, got {explicit}")
        for seed in explicit:
            if problem := _seed_range_error(seed):
                raise reader.error("seeds", f"each seed {problem}")
        count = reader.int("seeds.count", "", minimum=1)
        if count is not None and reader.has("seeds"):
            raise reader.error("seeds.count", "set seeds or seeds.count, not both")
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
            if problem := _seed_range_error(seed):
                raise ConfigError(f"{SEED_ENV_VAR} {problem}")
            return [seed]
        if count is not None:
            return list(range(count))
        return explicit

    # ---- builders ------------------------------------------------------

    def build_pipeline(self) -> Pipeline:
        r = self._reader
        dim = r.int("dim", "64", minimum=1)
        timesteps = r.int("timesteps", "50", minimum=1)
        beta_start = r.float("schedule.beta_start", "0.0001", above=0, below=1)
        if 1.0 - beta_start == 1.0:
            raise r.error("schedule.beta_start", f"below float resolution, got {beta_start}")
        beta_end = r.float("schedule.beta_end", "0.02", minimum=beta_start, below=1)
        # a subnormal alpha_bar loses the strict decrease the schedule needs
        if np.log1p(-np.linspace(beta_start, beta_end, timesteps)).sum() < _LOG_TINY:
            raise r.error("schedule.beta_end", f"alpha_bar underflows within {timesteps} steps")
        schedule = build_schedule(timesteps, beta_start, beta_end)
        if r.choice("denoiser.type", ("mixture", "constant"), "mixture") == "constant":
            model = ConstantDenoiser(r.vector("denoiser.constant.value", dim, "0.0"))
        else:
            indices = sorted({int(m.group(1)) for key in r.keys_with_prefix("denoiser.component.")
                              if (m := re.match(r"denoiser\.component\.(\d+)\.", key))})
            if not indices:
                indices = [0]  # default: single standard-normal component
            for position, k in enumerate(indices):
                if k != position:
                    raise r.error(r.keys_with_prefix(f"denoiser.component.{k}.")[0],
                                  f"component indices must be 0..K-1, got {indices}")
            components = []
            for k in indices:
                prefix = f"denoiser.component.{k}"
                components.append(
                    MixtureComponent(
                        weight=r.float(f"{prefix}.weight", "1.0", above=0),
                        mean=self._vector(f"{prefix}.mean", dim),
                        var=r.float(f"{prefix}.var", "1.0", above=0),
                    )
                )
            condition_map = {key[len("denoiser.condition."):]: r.index_list(key, len(components))
                             for key in r.keys_with_prefix("denoiser.condition.")}
            model = AnalyticMixtureDenoiser(components, schedule, condition_map)

        guidance = GuidanceConfig(
            w=r.float("guidance.scale", "7.5"),
            condition=r.str("guidance.condition", "") or None,
            null_condition=r.str("guidance.null_condition", "") or None,
        )
        if isinstance(model, AnalyticMixtureDenoiser):
            for key, name in (("guidance.condition", guidance.condition),
                              ("guidance.null_condition", guidance.null_condition)):
                if name is not None and name not in model.condition_map:
                    raise r.error(key, f"unknown condition {name!r}")

        if r.choice("decoder.type", ("identity", "linear"), "identity") == "identity":
            decoder = IdentityDecoder()
        else:
            rows = r.int("decoder.linear.rows", minimum=1)
            gen = RngStream(r.seed("decoder.linear.seed", "0"), "decoder").generator()
            decoder = LinearDecoder(gen.standard_normal((rows, dim)) / np.sqrt(dim))
        return Pipeline(model, guidance, schedule, decoder)

    def _vector(self, key, length):
        """A vector from an explicit list, a broadcast scalar, or a
        standard-normal draw seeded by ``<key>_seed``."""
        r = self._reader
        if r.has(f"{key}_seed"):
            return RngStream(r.seed(f"{key}_seed"), key).normal(length)
        return r.vector(key, length, "0.0")

    def build_scorer(self) -> Scorer:
        """The configured scorer, over samples of the pipeline's decoder."""
        r = self._reader
        decoder = self.pipeline.decoder
        sdim = decoder.weight.shape[0] if isinstance(decoder, LinearDecoder) else self.pipeline.dim
        stype = r.choice("scorer.type", ("quadratic-sigmoid", "composite", "remote"),
                         "quadratic-sigmoid")
        if stype == "quadratic-sigmoid":
            return QuadraticSigmoidScorer(
                target=self._vector("scorer.quadratic.target", sdim),
                sharpness=r.float("scorer.quadratic.sharpness", "0.5", above=0),
                offset=r.float("scorer.quadratic.offset", "0.0"),
            )
        if stype == "composite":
            groups = []
            j = 0
            while r.has(f"scorer.group.{j}.indices"):
                prefix = f"scorer.group.{j}"
                indices = r.index_list(f"{prefix}.indices", sdim)
                groups.append(
                    TargetGroup(
                        indices=tuple(indices),
                        target=self._vector(f"{prefix}.target", len(indices)),
                        radius=r.float(f"{prefix}.radius", "1.0", above=0),
                        sharpness=r.float(f"{prefix}.sharpness", "1.0", above=0),
                    )
                )
                j += 1
            if not groups:
                raise r.error("scorer.type", "composite scorer needs scorer.group.0.*")
            return CompositeTargetScorer(groups)
        # remote
        try:
            endpoint = parse_endpoint(r.str("scorer.remote.endpoint"))
        except ValueError as exc:
            raise r.error("scorer.remote.endpoint", str(exc))
        prompt = r.str("scorer.prompt", "a synthetic benchmark target")
        if not prompt:
            raise r.error("scorer.prompt", "must be nonempty")
        return RemoteScorer(
            endpoint=endpoint,
            prompt=prompt,
            timeout=r.float("scorer.remote.timeout_ms", "1000", above=0) / 1e3,
            retries=r.int("scorer.remote.retries", "1", minimum=0),
        )

    def _build_optimizer(self) -> NoiseDiffusionConfig | BaselineConfig:
        """The configured method's settings. The keys of every method are
        read and validated whatever the method, as every other key is."""
        r = self._reader
        method = r.choice("method", METHODS, "noise-diffusion")
        shared = dict(
            epochs=r.int("epochs", "50", minimum=0),
            gradient_mode=r.choice("gradient.mode", [m.value for m in GradientMode],
                                   "approx-constant-eps"),
            fd_step=r.float("gradient.fd_step", "", above=0),
            fd_budget=r.int("gradient.fd_budget", "", minimum=1),
        )
        noise_diffusion = dict(
            candidates=r.int("candidates", "50", minimum=1),
            v_norm_guard=r.float("v_norm_guard", "1e-12", above=0),
            strict_improvement=r.bool("strict", "false"),
        )
        baseline = dict(
            pgd_step=r.float("pgd.step", "0.05", minimum=0),
            pgd_radius=r.float("pgd.radius", "0.5", above=0),
            mv_learning_rate=r.float("mv.learning_rate", "0.01", above=0),
            mv_beta1=r.float("mv.beta1", "0.9", minimum=0, below=1),
            mv_beta2=r.float("mv.beta2", "0.999", minimum=0, below=1),
            mv_epsilon=r.float("mv.epsilon", "1e-8", above=0),
        )
        if method == "noise-diffusion":
            return NoiseDiffusionConfig(**noise_diffusion, **shared)
        return BaselineConfig(method=method, **baseline, **shared)

    def resolved_text(self, overrides: dict[str, str] | None = None) -> str:
        """Flat serialization with defaults filled in and ``overrides``
        applied; empty-valued keys (unset optionals) are dropped so the
        text re-parses as-is."""
        entries = {**self.resolved, **(overrides or {})}
        lines = [f"{k} = {v}" for k, v in sorted(entries.items()) if v != ""]
        return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return ExperimentConfig.from_text(text, source=str(path))


class _Reader:
    """Typed access to parsed entries with line-numbered diagnostics and
    a record of every key consulted (for the resolved sidecar)."""

    def __init__(self, entries, source):
        self.entries = entries
        self.source = source
        self.used: dict[str, str] = {}

    def has(self, key) -> bool:
        return key in self.entries

    def keys_with_prefix(self, prefix) -> list[str]:
        return sorted(k for k in self.entries if k.startswith(prefix))

    def error(self, key, message) -> ConfigError:
        if key in self.entries:
            return ConfigError(f"{self.source}: line {self.entries[key][1]}: {key}: {message}")
        return ConfigError(f"{self.source}: {key}: {message}")

    def _raw(self, key, default):
        """The key's text, else ``default`` (None: the key is required);
        an omitted key whose default is "" reads as None."""
        if key in self.entries:
            value = self.entries[key][0]
        elif default is None:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        else:
            value = default
        self.used[key] = value
        return None if value == "" and key not in self.entries else value

    def str(self, key, default=None) -> str:
        return self._raw(key, default)

    def choice(self, key, options, default=None) -> str:
        value = self._raw(key, default)
        if value not in options:
            raise self.error(key, f"expected one of {', '.join(options)}; got {value!r}")
        return value

    def bool(self, key, default=None) -> bool:
        value = self._raw(key, default).lower()
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no"):
            return False
        raise self.error(key, f"expected true/false, got {value!r}")

    def int(self, key, default=None, minimum=None) -> int | None:
        raw = self._raw(key, default)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise self.error(key, f"expected an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            raise self.error(key, f"must be >= {minimum}, got {value}")
        return value

    def seed(self, key, default=None) -> int:
        """An integer RngStream seed in ``0.._MAX_SEED``."""
        value = self.int(key, default)
        if problem := _seed_range_error(value):
            raise self.error(key, problem)
        return value

    def float(self, key, default=None, minimum=None, above=None, below=None) -> float | None:
        """A finite number, ``>= minimum``, ``> above`` and ``< below``
        where those bounds are given."""
        raw = self._raw(key, default)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise self.error(key, f"expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise self.error(key, f"expected a finite number, got {raw!r}")
        for bound, holds in ((f">= {minimum}", minimum is None or value >= minimum),
                             (f"> {above}", above is None or value > above),
                             (f"< {below}", below is None or value < below)):
            if not holds:
                raise self.error(key, f"must be {bound}, got {value}")
        return value

    def int_list(self, key, default=None) -> list[int]:
        raw = self._raw(key, default)
        try:
            return [int(part) for part in raw.split(",") if part.strip() != ""]
        except ValueError:
            raise self.error(key, f"expected comma-separated integers, got {raw!r}")

    def index_list(self, key, size) -> list[int]:
        """Distinct indices in ``0..size-1``, comma-separated; ``a-b``
        expands to the inclusive range."""
        raw = self._raw(key, None)
        out: list[int] = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            m = re.fullmatch(r"(\d+)-(\d+)", part)
            try:
                lo, hi = (int(m.group(1)), int(m.group(2))) if m else (int(part), int(part))
            except ValueError:
                raise self.error(key, f"expected indices or ranges, got {part!r}")
            if hi < lo:
                raise self.error(key, f"empty range {part!r}")
            if lo < 0 or hi >= size:
                raise self.error(key, f"{part!r} is outside 0..{size - 1}")
            out.extend(range(lo, hi + 1))
        if not out:
            raise self.error(key, "index list is empty")
        if len(set(out)) < len(out):
            raise self.error(key, f"each index may appear once, got {raw!r}")
        return out

    def vector(self, key, length, default=None) -> np.ndarray:
        """A float vector: comma list of exactly ``length`` entries, or a
        single scalar broadcast to ``length``."""
        raw = self._raw(key, default)
        parts = [p for p in raw.split(",") if p.strip() != ""]
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise self.error(key, f"expected numbers, got {raw!r}")
        if not all(math.isfinite(v) for v in values):
            raise self.error(key, f"expected finite numbers, got {raw!r}")
        if len(values) == 1:
            return np.full(length, values[0])
        if len(values) != length:
            raise self.error(key, f"expected 1 or {length} entries, got {len(values)}")
        return np.array(values)

    def reject_unknown(self):
        for key in sorted(set(self.entries) - set(self.used)):
            raise ConfigError(f"{self.source}: line {self.entries[key][1]}: unknown key {key!r}")
