"""Gaussian latent vectors: seeded sampling and normality diagnostics.

``ks_normality`` computes the KS test from ``special.ndtr`` and
``special.kolmogorov`` and matches ``scipy.stats.kstest`` with
``method="asymp"`` bit for bit; ``scipy.stats`` itself loads only on the
first call of ``moment_diagnostics``.

A latent is a plain 1-D float64 ndarray; ``as_latent`` is the validating
constructor. Randomness comes from :class:`RngStream`, a counter-style
source where (seed, label, draw index) fully determines every draw, so
parallel evaluation cannot perturb reproducibility.

Every address is the NumPy ``SeedSequence`` entropy
``[seed mod 2^64, 4 words of sha256(label), *index]`` seeding a PCG64.
The noise-diffusion optimizer draws candidate k of epoch e, attempt a at
address ``(seed, "candidates", e, a*N + k)``. NumPy's ``SeedSequence``
mixes the (seed, label) prefix once per stream; ``RngStream`` carries on
that pool mixing itself for the index words and derives the PCG64 seed
words, and ``normal_block`` mixes the last index word of all its rows as
arrays. Its row k is the same draw, bit for bit, as
``normal(dim, *index, rows[k])``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .errors import DimensionError, InsufficientSampleError, NonFiniteError

__all__ = [
    "RngStream",
    "DistributionReport",
    "as_latent",
    "sample_standard_normal",
    "moment_diagnostics",
    "ks_normality",
]


# SeedSequence's mixing constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _hash_run(h: int, mult: int, count: int):
    """The constants of ``count`` successive hash steps from ``h``: what
    each step XORs in, what it multiplies by, and the constant after the
    last step. Column vectors, to broadcast over rows."""
    xor, times = [], []
    for _ in range(count):
        xor.append(h)
        h = (h * mult) & _MASK32
        times.append(h)
    return np.array(xor, np.uint32)[:, None], np.array(times, np.uint32)[:, None], h


def _absorb(pool: np.ndarray, h: int, word) -> tuple[np.ndarray, int]:
    """Mix one entropy word past the first four into a (4, n) pool; the
    word is an int or one uint32 per row. The four hashmix calls and
    mixes of one word are independent, so they run as one array step."""
    xor, times, h = _hash_run(h, _MULT_A, _POOL_SIZE)
    hashed = (word ^ xor) * times
    hashed ^= hashed >> 16
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    mixed ^= mixed >> 16
    return mixed, h


# generate_state(4, np.uint64) reads the pool twice: eight uint32 outputs
_STATE_SOURCE = np.arange(8) % _POOL_SIZE
_STATE_XOR, _STATE_TIMES, _ = _hash_run(_INIT_B, _MULT_B, 8)


def _pcg64_words(pool: np.ndarray) -> np.ndarray:
    """SeedSequence ``generate_state(4, np.uint64)`` of each column of a
    (4, n) pool, as an (n, 4) array."""
    state = (pool[_STATE_SOURCE] ^ _STATE_XOR) * _STATE_TIMES
    state ^= state >> 16
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _entropy_words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, least
    significant first; 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _SeedWords(ISeedSequence):
    """Hands PCG64 the four seed words derived for it."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 seed words are kept")
        return self.words


def _generator(words) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


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
    # SeedSequence pool and hash constant after the (seed, label) words;
    # mixed once here rather than on every draw
    _pool: np.ndarray = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        label_words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        words = _entropy_words(self.seed & 0xFFFFFFFFFFFFFFFF) + label_words
        pool = np.random.SeedSequence(words).pool[:, None]
        pool.setflags(write=False)
        object.__setattr__(self, "_pool", pool)
        # SeedSequence mixes n >= 4 entropy words in 4n hash steps
        object.__setattr__(self, "_hash", _INIT_A * pow(_MULT_A, 4 * len(words), 2**32) & _MASK32)

    def _seed_words(self, index, rows=None) -> np.ndarray:
        """PCG64 seed words of the address ``(*index, r)`` for each r in
        ``rows``, shape (len(rows), 4); of ``index`` alone, shape (1, 4),
        when ``rows`` is None."""
        if any(i < 0 for i in index):
            raise ValueError("draw indices must be non-negative")
        pool, h = self._pool, self._hash
        for i in index:
            for word in _entropy_words(i):
                pool, h = _absorb(pool, h, word)
        if rows is None:
            return _pcg64_words(pool)
        rows = [int(r) for r in rows]
        if any(r < 0 for r in rows):
            raise ValueError("draw indices must be non-negative")
        # a row below 2^32 is one word; a larger one goes on absorbing its
        # higher words after the others have stopped
        pool, h = _absorb(pool, h, np.array([r & _MASK32 for r in rows], np.uint32))
        high = [r >> 32 for r in rows]
        while any(high):
            word = np.array([x & _MASK32 for x in high], np.uint32)
            mixed, h = _absorb(pool, h, word)
            pool = np.where(np.array([x > 0 for x in high]), mixed, pool)
            high = [x >> 32 for x in high]
        return _pcg64_words(pool)

    def generator(self, *index: int) -> np.random.Generator:
        """Fresh generator for this (seed, label, index) address."""
        return _generator(self._seed_words(index)[0])

    def normal(self, dim: int, *index: int) -> np.ndarray:
        """``dim`` i.i.d. standard-normal draws at the given index."""
        if dim < 1:
            raise DimensionError(f"latent dimension must be >= 1, got {dim}")
        return self.generator(*index).standard_normal(dim)

    def normal_block(self, dim: int, *index: int, rows) -> np.ndarray:
        """``(len(rows), dim)`` draws whose row k is bit-identical to
        ``normal(dim, *index, rows[k])``."""
        if dim < 1:
            raise DimensionError(f"latent dimension must be >= 1, got {dim}")
        seeds = self._seed_words(index, rows)
        block = np.empty((len(seeds), dim))
        for words, out in zip(seeds, block):
            _generator(words).standard_normal(dim, out=out)
        return block

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

    Empty or non-1-D input, or any shape but ``(dim,)`` when ``dim`` is
    given, is a DimensionError; a NaN or infinite entry a NonFiniteError.
    """
    z = np.asarray(values, dtype=np.float64)
    if dim is not None and z.shape != (dim,):
        raise DimensionError(f"expected one latent of dim {dim}, got shape {z.shape}")
    if z.ndim != 1:
        raise DimensionError(f"latent must be 1-D, got shape {z.shape}")
    if z.size == 0:
        raise DimensionError("latent dimension must be >= 1, got 0")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("latent contains non-finite entries")
    return z


def sample_standard_normal(rng: RngStream, dim: int) -> np.ndarray:
    """Draw a d-dimensional standard-normal latent from ``rng``.

    Deterministic given (seed, label); ``dim == 0`` is an error.
    """
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
        from scipy import stats  # here, not at import: a run never needs it

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
    Computed from ``special.ndtr`` and ``special.kolmogorov`` in the steps
    of ``scipy.stats.kstest(z, "norm", method="asymp")``, and equal to its
    statistic and p-value bit for bit.
    """
    z = as_latent(z)
    n = z.size
    if n < 8:
        raise InsufficientSampleError("KS normality test needs dim >= 8")
    cdf = special.ndtr(np.sort(z))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    p = np.clip(special.kolmogorov(d * math.sqrt(n)), 0.0, 1.0)
    return float(d), float(p)
