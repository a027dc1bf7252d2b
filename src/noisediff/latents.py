"""Gaussian latent vectors: seeded sampling and normality diagnostics.

A latent is a plain 1-D float64 ndarray; ``as_latent`` is the validating
constructor. Randomness comes from :class:`RngStream`, a counter-style
source where (seed, label, draw index) fully determines every draw, so
parallel evaluation cannot perturb reproducibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import DimensionError, InsufficientSampleError

__all__ = [
    "RngStream",
    "DistributionReport",
    "as_latent",
    "sample_standard_normal",
    "moment_diagnostics",
    "ks_normality",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic, label-keyed source of Gaussian draws.

    Identical (seed, label) pairs reproduce identical sequences;
    distinct labels under one seed give statistically independent
    streams. Instances are immutable; every draw is addressed by an
    explicit integer index tuple, so there is no hidden draw counter.
    """

    seed: int
    label: str = "main"
    # first 16 bytes of sha256(label) as four little-endian words; hashed
    # once here rather than on every draw
    _label_words: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
        object.__setattr__(self, "_label_words", words)

    def generator(self, *index: int) -> np.random.Generator:
        """Fresh generator for this (seed, label, index) address."""
        if any(i < 0 for i in index):
            raise ValueError("draw indices must be non-negative")
        entropy = [self.seed & 0xFFFFFFFFFFFFFFFF, *self._label_words, *index]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def normal(self, dim: int, *index: int) -> np.ndarray:
        """``dim`` i.i.d. standard-normal draws at the given index."""
        if dim < 1:
            raise DimensionError(f"latent dimension must be >= 1, got {dim}")
        return self.generator(*index).standard_normal(dim)

    def fork(self, label: str) -> "RngStream":
        """Same seed, new independent label."""
        return RngStream(self.seed, f"{self.label}/{label}")


@dataclass(frozen=True)
class DistributionReport:
    """Coordinate-wise normality diagnostics of a latent.

    ``ks_stat``/``ks_pvalue`` are None when only moments were computed.
    """

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_stat: float | None = None
    ks_pvalue: float | None = None


def as_latent(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a latent as a 1-D float64 array.

    Rejects empty, non-1-D, and non-finite input; if ``dim`` is given the
    length must match.
    """
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1:
        raise DimensionError(f"latent must be 1-D, got shape {z.shape}")
    if z.size == 0:
        raise DimensionError("latent dimension must be >= 1, got 0")
    if dim is not None and z.size != dim:
        raise DimensionError(f"latent has dim {z.size}, expected {dim}")
    if not np.all(np.isfinite(z)):
        raise DimensionError("latent contains non-finite entries")
    return z


def sample_standard_normal(rng: RngStream, dim: int) -> np.ndarray:
    """Draw a d-dimensional standard-normal latent from ``rng``.

    Deterministic given (seed, label); ``dim == 0`` is an error.
    """
    if dim < 1:
        raise DimensionError(f"latent dimension must be >= 1, got {dim}")
    return rng.normal(dim)


def moment_diagnostics(z) -> DistributionReport:
    """Sample mean, unbiased variance, and standardized skew/kurtosis.

    Needs at least two coordinates. For a constant vector the
    standardized moments are undefined and reported as 0.
    """
    z = as_latent(z)
    if z.size < 2:
        raise InsufficientSampleError("moment diagnostics need dim >= 2")
    variance = float(z.var(ddof=1))
    if variance > 0.0:
        skewness = float(stats.skew(z))
        excess_kurtosis = float(stats.kurtosis(z))
    else:
        skewness = 0.0
        excess_kurtosis = 0.0
    return DistributionReport(
        mean=float(z.mean()),
        variance=variance,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
    )


def ks_normality(z) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value against N(0, 1).

    Treats the coordinates of ``z`` as the sample; needs dim >= 8.
    """
    z = as_latent(z)
    if z.size < 8:
        raise InsufficientSampleError("KS normality test needs dim >= 8")
    result = stats.kstest(z, "norm", method="asymp")
    return float(result.statistic), float(result.pvalue)
