"""Bounded score functions over decoded samples and latent-space gradients.

Every scorer maps a sample to a probability-like value in [0, 1]. Local
scorers also expose an analytic gradient with respect to the sample;
remote scorers do not, so gradient-based optimization against them falls
back to finite differences with a probe budget.

Three ways to differentiate the latent score s(z_T):

* ``grad_latent_approx`` — one forward pass, treating the noise
  predictions as constants so the pipeline Jacobian collapses to
  sqrt(1/alpha_bar_T) times the identity; given the ``(z0, sample)``
  pair of z_T it runs no pass at all, which is how the optimizers call
  it: each epoch's gradient reuses the forward that scored the latent;
* ``grad_latent_fd`` — central finite differences through the whole
  pipeline, 2d probe latents in one batched pass, the exactness oracle;
* ``grad_latent_chain`` — exact, by reverse mode through the T steps;
  available when the denoiser has a vector-Jacobian product.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import reprlib
import socket
from dataclasses import dataclass, field
from urllib.parse import quote, urlsplit

import numpy as np
from scipy.special import expit

from .diffusion import DenoiserModel, Pipeline, _require_finite
from .errors import (
    DimensionError,
    GradientUnavailableError,
    InvalidPromptError,
    NonFiniteError,
    ScorerContractError,
    ScorerUnavailableError,
)
from .latents import as_latent

__all__ = [
    "Scorer",
    "QuadraticSigmoidScorer",
    "TargetGroup",
    "CompositeTargetScorer",
    "GradientMode",
    "checked_score",
    "grad_latent_approx",
    "grad_latent_fd",
    "grad_latent_chain",
    "latent_gradient",
    "format_vqa_question",
    "Endpoint",
    "parse_endpoint",
    "RemoteSession",
    "remote_score",
    "RemoteScorer",
]

DEFAULT_FD_STEP = 1e-3


class Scorer:
    """Interface: score(sample) in [0, 1], score_batch(samples) the
    scores of their rows; gradient(sample) or None."""

    def score(self, sample):
        raise NotImplementedError

    def score_batch(self, samples) -> list:
        """The score of each row of ``samples``, in order: one ``score``
        call per row, so each score has the bits of its row scored alone.
        A scorer overrides it only to fetch those same scores faster."""
        return [self.score(row) for row in samples]

    def gradient(self, sample):
        """Analytic gradient w.r.t. sample coordinates; None if the scorer
        is black-box."""
        return None

    def close(self):
        """Release what the scorer holds open between calls; a no-op
        unless the scorer keeps a connection."""


class QuadraticSigmoidScorer(Scorer):
    """s(x) = logistic(offset - sharpness * ||x - target||^2).

    Smooth, bounded in (0, 1), with a globally bounded Hessian whose
    supremum has a closed one-dimensional reduction.
    """

    def __init__(self, target, sharpness: float, offset: float = 0.0):
        self.target = np.asarray(target, dtype=np.float64)
        if self.target.ndim != 1:
            raise DimensionError("target must be a vector")
        if not sharpness > 0.0:
            raise ValueError(f"sharpness must be positive, got {sharpness}")
        self.sharpness = float(sharpness)
        self.offset = float(offset)

    def score(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        diff = x - self.target
        r2 = np.sum(diff * diff, axis=-1)
        return expit(self.offset - self.sharpness * r2)

    def gradient(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        diff = x - self.target
        s = self.score(x)
        return (s * (1.0 - s) * (-2.0 * self.sharpness))[..., None] * diff

    def hessian_norm_at(self, r2):
        """Spectral norm of the Hessian at squared distance r2 from the
        target. The Hessian is 4b^2 p (1-2s) u u^T - 2 b p I with
        p = s(1-s), so its eigenvalues are -2bp (multiplicity d-1) and
        4b^2 p (1-2s) r^2 - 2bp along u."""
        b = self.sharpness
        s = expit(self.offset - b * np.asarray(r2, dtype=np.float64))
        p = s * (1.0 - s)
        radial = 4.0 * b * b * p * (1.0 - 2.0 * s) * r2 - 2.0 * b * p
        return np.maximum(2.0 * b * p, np.abs(radial))

    def hessian_bound(self) -> float:
        """Global supremum of the Hessian spectral norm.

        The norm depends on x only through r^2; p = s(1-s) decays like
        exp(-(b r^2 - a)) once the logistic saturates, so a dense grid of
        the argument g = a - b r^2 down to a - 200 covers the supremum to
        double precision.
        """
        g = np.linspace(self.offset - 200.0, self.offset, 400001)
        r2 = (self.offset - g) / self.sharpness
        return float(self.hessian_norm_at(r2).max())


@dataclass(frozen=True)
class TargetGroup:
    """One attribute: coordinates ``indices`` should land within
    ``radius`` of ``target``, graded by a logistic of the gap."""

    indices: tuple[int, ...]
    target: np.ndarray
    radius: float
    sharpness: float

    def __post_init__(self):
        target = np.array(self.target, dtype=np.float64)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) != target.size:
            raise DimensionError("group target length must match its index set")
        if min(self.indices, default=0) < 0 or len(set(self.indices)) < len(self.indices):
            raise ValueError(f"group indices must be distinct and non-negative, got {self.indices}")
        if not (self.sharpness > 0.0 and self.radius > 0.0):
            raise ValueError("group radius and sharpness must be positive")


class CompositeTargetScorer(Scorer):
    """Product of per-group logistic factors, one factor per attribute.

    s(x) = prod_j logistic(k_j (r_j - ||x_Sj - t_j||)); every attribute
    must be satisfied for a high score, mimicking multi-object prompts.
    """

    def __init__(self, groups):
        if not groups:
            raise ValueError("composite scorer needs at least one group")
        self.groups = list(groups)

    def _terms(self, x):
        """Per group of x: the group, its indices, the offset u from its
        target, ||u|| and its logistic factor; and the score, the product
        of the factors. Shared by score and gradient."""
        terms = []
        for g in self.groups:
            idx = list(g.indices)
            u = x[..., idx] - g.target
            norm = np.sqrt(np.sum(u * u, axis=-1))
            terms.append((g, idx, u, norm, expit(g.sharpness * (g.radius - norm))))
        score = terms[0][-1]
        for *_, f in terms[1:]:
            score = score * f
        return terms, score

    def score(self, sample):
        return self._terms(np.asarray(sample, dtype=np.float64))[1]

    def gradient(self, sample):
        x = np.asarray(sample, dtype=np.float64)
        terms, s = self._terms(x)
        grad = np.zeros_like(x)
        for g, idx, u, norm, f in terms:
            norm = norm[..., None]
            # direction undefined exactly at the target; measure-zero kink
            unit = np.divide(u, norm, out=np.zeros_like(u), where=norm > 0.0)
            grad[..., idx] += (-g.sharpness * s * (1.0 - f))[..., None] * unit
        return grad


class GradientMode(str, enum.Enum):
    APPROX_CONSTANT_EPS = "approx-constant-eps"
    FINITE_DIFFERENCE = "finite-difference"
    ANALYTIC_CHAIN = "analytic-chain"


def _held_to_unit(s) -> float:
    """A score as a float; ScorerContractError unless it lies in [0, 1]."""
    s = float(s)
    if not np.isfinite(s) or s < 0.0 or s > 1.0:
        raise ScorerContractError(f"scorer returned {s!r}, outside [0, 1]")
    return s


def checked_score(scorer: Scorer, sample) -> float:
    """Evaluate the scorer and enforce its [0, 1] contract."""
    return _held_to_unit(scorer.score(sample))


def _scorer_gradient(scorer: Scorer, sample):
    """The scorer's analytic sample gradient; a missing one is
    GradientUnavailableError and a non-finite one ScorerContractError."""
    gs = scorer.gradient(sample)
    if gs is None:
        raise GradientUnavailableError(
            "scorer exposes no analytic gradient; use finite differences"
        )
    if not np.all(np.isfinite(gs)):
        raise ScorerContractError("scorer gradient has non-finite entries")
    return gs


def grad_latent_approx(
    z_T, pipeline: Pipeline, scorer: Scorer, *, forward=None
) -> np.ndarray:
    """One-pass gradient with the noise predictions frozen.

    Under that assumption the pipeline Jacobian is sqrt(1/alpha_bar_T)
    times the identity, so the latent gradient is that factor applied to
    the decoder adjoint of the scorer gradient. Exact for a constant
    denoiser; an approximation otherwise.

    ``forward`` is the ``(z0, sample)`` pair ``pipeline.forward(z_T)``
    returns, for a caller that already has it; no pipeline pass runs
    then.
    """
    z0, sample = pipeline.forward(z_T) if forward is None else forward
    pulled = pipeline.decoder.adjoint(z0, _scorer_gradient(scorer, sample))
    ab_T = pipeline.schedule.alpha_bar(pipeline.schedule.T)
    return np.sqrt(1.0 / ab_T) * pulled


def grad_latent_fd(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    h: float | None = None,
    coords=None,
) -> np.ndarray:
    """Central-difference gradient through the full pipeline.

    The 2k probe latents of the k probed coordinates go through one
    batched ``pipeline.forward``: row 2j bumps coordinate j by +h and row
    2j+1 by -h. Every row of a batched forward has the bits of that
    latent's forward alone. The probe samples go to the scorer's
    ``score_batch`` in that order, plus before minus, which scores each
    on its own (a remote scorer pipelines their requests); each score is
    held to [0, 1] in that order. ``coords`` limits probing to a subset
    (remaining entries are zero), which is the probe budget used against
    remote scorers; no coordinate means no pass. Default step is
    1e-3 * (1 + max|z|).
    """
    z = as_latent(z_T, dim=pipeline.dim)
    if h is None:
        h = DEFAULT_FD_STEP * (1.0 + float(np.max(np.abs(z))))
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h}")
    probe = np.arange(z.size) if coords is None else np.asarray(coords, dtype=np.intp)
    if probe.ndim != 1 or np.unique(probe[(probe >= 0) & (probe < z.size)]).size != probe.size:
        raise ValueError(f"coords must be distinct indices in 0..{z.size - 1}, got {coords!r}")
    grad = np.zeros_like(z)
    if probe.size == 0:
        return grad
    bumped = np.repeat(z[None, :], 2 * probe.size, axis=0)
    rows = np.arange(0, 2 * probe.size, 2)
    bumped[rows, probe] = z[probe] + h
    bumped[rows + 1, probe] = z[probe] - h
    _, samples = pipeline.forward(bumped)
    scores = np.array([_held_to_unit(s) for s in scorer.score_batch(samples)])
    grad[probe] = (scores[0::2] - scores[1::2]) / (2.0 * h)
    return grad


def grad_latent_chain(z_T, pipeline: Pipeline, scorer: Scorer) -> np.ndarray:
    """Exact gradient by reverse mode through the DDIM steps.

    Needs the denoiser's ``predict_vjp`` and the scorer's analytic
    gradient; cost is one pass plus one product per step and condition.
    The pass walks the step plan, as ``denoise`` does; the way back mixes
    the model's products by ``GuidanceConfig.combine``, as ``cfg_predict``
    mixes its predictions. A non-finite z_0, or a gradient that turns
    non-finite at some step, raises NonFiniteError.
    """
    z = as_latent(z_T, dim=pipeline.dim)
    latents = []
    for eps_at, scale, noise_t, noise_prev in pipeline.plan:
        latents.append(z)
        eps = eps_at(z)
        z = scale * (z - noise_t * eps) + noise_prev * eps
    _require_finite(z, "denoised latent")
    u = pipeline.decoder.adjoint(z, _scorer_gradient(scorer, pipeline.decoder.decode(z)))
    model = pipeline.model  # need not subclass DenoiserModel, as for the plan's guided_eps
    vjp_of = getattr(type(model), "predict_vjp", DenoiserModel.predict_vjp)
    try:
        for t in range(1, len(latents) + 1):  # plan[-t] and latents[-t] are step t's
            _, scale, noise_t, noise_prev = pipeline.plan[-t]
            vjp = pipeline.guidance.combine(lambda c: vjp_of(model, latents[-t], t, c, u))
            u = scale * u + (noise_prev - scale * noise_t) * vjp
            _require_finite(u, "chain gradient", f" at step t={t}")
    except NotImplementedError as exc:
        raise GradientUnavailableError(
            "denoiser has no vector-Jacobian product; use finite differences"
        ) from exc
    return u


def latent_gradient(
    z_T,
    pipeline: Pipeline,
    scorer: Scorer,
    mode: GradientMode = GradientMode.APPROX_CONSTANT_EPS,
    h: float | None = None,
    coords=None,
    *,
    forward=None,
) -> np.ndarray:
    """Dispatch to the gradient evaluation selected by ``mode``.

    ``forward``, the ``(z0, sample)`` pair of ``z_T``, spares the
    approximate gradient its pipeline pass; finite differences and the
    chain ignore it, since they must run the pipeline themselves.
    """
    mode = GradientMode(mode)
    if mode is GradientMode.APPROX_CONSTANT_EPS:
        return grad_latent_approx(z_T, pipeline, scorer, forward=forward)
    if mode is GradientMode.FINITE_DIFFERENCE:
        return grad_latent_fd(z_T, pipeline, scorer, h=h, coords=coords)
    return grad_latent_chain(z_T, pipeline, scorer)


def format_vqa_question(prompt: str) -> str:
    """The yes/no question put to the scoring model for a prompt."""
    if not prompt:
        raise InvalidPromptError("prompt must be nonempty")
    return f"Does this figure show '{prompt}'? Please answer yes or no."


@dataclass(frozen=True)
class Endpoint:
    """A parsed score-service URL: the host and port to connect to, over
    TLS or not, and the request target (path and query).

    ``host_header`` is its ``Host`` as http.client writes it: an IPv6
    literal in brackets and without its zone, a name that is not ASCII in
    IDNA, and no port when the port is the scheme's default. A host with
    no IDNA form is a ValueError.
    """

    https: bool
    host: str
    port: int
    target: str
    host_header: str = field(init=False, repr=False)

    def __post_init__(self):
        host = self.host if self.host.isascii() else self.host.encode("idna").decode("ascii")
        if ":" in host:
            host = f"[{host.partition('%')[0]}]"
        if self.port != (443 if self.https else 80):
            host = f"{host}:{self.port}"
        object.__setattr__(self, "host_header", host)


def parse_endpoint(url: str | Endpoint) -> Endpoint:
    """The Endpoint of an ``http://`` or ``https://`` URL with a host and
    no whitespace or control character; an Endpoint passes through.
    Anything else is a ValueError."""
    if isinstance(url, Endpoint):
        return url
    parts = urlsplit(url)
    if (parts.scheme not in ("http", "https") or not parts.hostname
            or any(c <= " " or c == "\x7f" for c in url)):
        raise ValueError(f"expected an http:// or https:// URL with a host, got {url!r}")
    https = parts.scheme == "https"
    port = parts.port  # ValueError for a port that is not a number in range
    if port is None:
        # explicit, or http.client would read an IPv6 host's last group as a port
        port = 443 if https else 80
    # percent-encode what is not ASCII, as browsers do; escapes stay
    target = quote((parts.path or "/") + (f"?{parts.query}" if parts.query else ""),
                   safe="!#$%&'()*+,/:;=?@[]~")
    return Endpoint(https, parts.hostname, port, target)


def _check_limits(timeout, retries) -> None:
    """ValueError unless ``timeout`` is a finite number of seconds > 0 and
    ``retries`` an int >= 0."""
    if isinstance(timeout, bool) or not (
        isinstance(timeout, numbers.Real) and 0.0 < timeout < math.inf
    ):
        raise ValueError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")
    if isinstance(retries, bool) or not (isinstance(retries, numbers.Integral) and retries >= 0):
        raise ValueError(f"retries must be an int >= 0, got {retries!r}")


# A server that writes a reply's headers and body in two sends with Nagle
# on, as the standard library's http.server does, holds the body until the
# headers are acknowledged, and on a reused connection the client delays
# that ACK by ~40 ms. TCP_QUICKACK, set before each reply is read, acks at
# once; the kernel clears it again, so it is set anew for every reply.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

# http.client's limits: the bytes of one reply line, and the lines of one
# header section, the empty line that ends it counted.
_MAX_LINE = 65536
_MAX_HEADERS = 100

# The most requests one send carries. While it goes out the client reads
# nothing, so the service's replies to it must fit in the sockets' buffers,
# or a service that answers as it reads would stop reading: 64 score
# replies of ~100 bytes fit many times over.
_PIPELINE_DEPTH = 64


def _request(endpoint: Endpoint, body: bytes) -> bytes:
    """A POST of the JSON ``body`` to ``endpoint``: the head http.client
    writes for it, with the same headers in the same order, and then the
    body, so that it goes out in one send."""
    return (
        f"POST {endpoint.target} HTTP/1.1\r\nHost: {endpoint.host_header}\r\n"
        f"Accept-Encoding: identity\r\nContent-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    ).encode("ascii") + body


def _score_body(sample, prompt: str) -> bytes:
    """The JSON request body that asks for the score of ``sample``. A
    sample with a NaN or infinite entry is a NonFiniteError: JSON has no
    NaN or infinity, and the fault is the sampler's."""
    sample = np.asarray(sample, dtype=np.float64)
    if not np.isfinite(sample).all():
        raise NonFiniteError("sample to score has non-finite entries")
    payload = {
        "sample": sample.tolist(),
        "prompt": prompt,
        "question": format_vqa_question(prompt),
    }
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _json_int(text: str) -> int | float:
    """A JSON integer as an int; one beyond Python's int-digit limit as
    the infinity of its sign, which is as far outside [0, 1]."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _reply_score(body: bytes) -> float:
    """The score in a reply ``body``, ``{"score": x}``. A body that is not
    that, with x a JSON number (not true or false), is
    ScorerUnavailableError; an x outside [0, 1], an integer too large for
    a float included, is ScorerContractError."""
    try:
        value = json.loads(body, parse_int=_json_int)["score"]
        if type(value) not in (int, float):  # not isinstance: a JSON true is an int
            raise TypeError(f"score {reprlib.repr(value)} is not a number")
    except (KeyError, TypeError, ValueError) as exc:
        raise ScorerUnavailableError(f"malformed score response: {exc}") from None
    # exact for an int of any size, and false for NaN
    if not 0.0 <= value <= 1.0:
        raise ScorerContractError(f"remote score {reprlib.repr(value)} outside [0, 1]")
    return float(value)


class _Dropped(Exception):
    """The service closed the connection before a status line."""


def _read_exact(reader, size: int) -> bytes:
    """``size`` bytes from ``reader``, read at most 1 MiB at a time, so a
    false length costs no allocation of its size."""
    parts = []
    while size > 0:
        part = reader.read(min(size, 1 << 20))
        if not part:
            raise ScorerUnavailableError("score service reply cut short")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_fields(reader) -> dict[bytes, bytes]:
    """One header section, up to and including its empty line: each
    field's first value by lower-case name."""
    fields = {}
    for _ in range(_MAX_HEADERS):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ScorerUnavailableError(f"score service header line over {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise ScorerUnavailableError("score service reply cut short")
        name, _, value = line.partition(b":")
        fields.setdefault(name.strip().lower(), value.strip())
    raise ScorerUnavailableError(f"score service sent over {_MAX_HEADERS} header lines")


def _read_chunked(reader) -> bytes:
    """A ``Transfer-Encoding: chunked`` body; the trailer is discarded."""
    parts = []
    while True:
        line = reader.readline(_MAX_LINE + 1)
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0 or len(line) > _MAX_LINE:
            raise ScorerUnavailableError(f"bad chunk size line {reprlib.repr(line)}")
        if size == 0:
            _read_fields(reader)
            return b"".join(parts)
        parts.append(_read_exact(reader, size))
        if _read_exact(reader, 2) != b"\r\n":
            raise ScorerUnavailableError("chunk not ended by CRLF")


def _read_reply(reader) -> tuple[bytes, bool, bool]:
    """The body of the 200 reply on ``reader``, whether the connection
    stays open after it, and whether it may then carry pipelined requests.

    A 1xx interim reply is skipped. _Dropped if the connection ends before
    a status line; ScorerUnavailableError for any other status and for a
    reply that is malformed, over http.client's limits or cut short. The
    body is framed by chunks, by Content-Length, or, with neither, by the
    end of the connection. HTTP/1.1 keeps the connection open unless the
    reply says ``Connection: close``, HTTP/1.0 only if it says
    ``Connection: keep-alive``; only a kept HTTP/1.1 connection pipelines.
    """
    while True:
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise _Dropped("connection closed without a reply")
        version, status = (line.split(None, 2) + [b"", b""])[:2]
        if not (version.startswith(b"HTTP/1.") and len(status) == 3 and status.isdigit()
                and len(line) <= _MAX_LINE):
            raise ScorerUnavailableError(f"bad status line {reprlib.repr(line)}")
        if not (status == b"200" or status.startswith(b"1")):
            raise ScorerUnavailableError(f"score service returned HTTP {int(status)}")
        fields = _read_fields(reader)
        if status == b"200":
            break
    connection = fields.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        keep_alive, pipelines = b"keep-alive" in connection, False
    else:
        keep_alive = pipelines = b"close" not in connection
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return _read_chunked(reader), keep_alive, pipelines
    length = fields.get(b"content-length")
    if length is None:
        return reader.read(), False, False
    if not length.isdigit():
        raise ScorerUnavailableError(f"bad Content-Length {reprlib.repr(length)}")
    return _read_exact(reader, int(length)), keep_alive, pipelines


class RemoteSession:
    """One connection to a score service, kept alive across requests.

    It opens at the first request, and closes when a reply says it will,
    when an attempt fails, when a request goes to another endpoint or
    timeout, and at ``close``. Constructing a session opens nothing.

    It speaks HTTP/1.1 over one socket (over TLS for an ``https``
    endpoint) and one buffered reader of it. A fresh connection carries
    one request alone; once an HTTP/1.1 reply has kept it alive, the
    requests of one ``scores`` call go out pipelined (RFC 7230 §6.3.2),
    up to ``_PIPELINE_DEPTH`` in one send, and their replies are read in
    order. It counts the ``requests`` it sends, the ``connections`` it
    opens and its ``resends``: requests sent again because the connection
    they went out on ended before their reply.
    """

    def __init__(self):
        self.requests = self.connections = self.resends = 0
        self._sock = self._reader = None
        self._opened_for: tuple[Endpoint, float] | None = None
        self._pipelines = False  # the connection's last reply allows pipelining

    def _open(self, endpoint: Endpoint, timeout: float) -> None:
        sock = socket.create_connection((endpoint.host, endpoint.port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if endpoint.https:
                import ssl  # loaded only for an https endpoint

                context = ssl.create_default_context()
                sock = context.wrap_socket(sock, server_hostname=endpoint.host)
        except BaseException:
            sock.close()
            raise
        self._sock, self._reader = sock, sock.makefile("rb")
        self._opened_for = (endpoint, timeout)
        self.connections += 1

    def scores(self, endpoint: Endpoint, timeout: float, bodies, retries: int) -> list[float]:
        """POST each JSON body of ``bodies`` and return the score of each
        reply, in order.

        The rules hold per score. A failed attempt (a timeout, a
        connection failure, a non-200 status, a malformed reply) closes
        the connection, so a retry never reads the late answer of an
        attempt that timed out; the scores read before it are kept. Each
        score has ``retries`` more attempts, and a score that fails them
        all raises ScorerUnavailableError. A request whose kept-alive
        connection ended before its reply, dropped by the service or
        closed by an earlier reply, is resent on a fresh one without using
        an attempt; after a drop the call sends one request at a time. An
        out-of-range score raises ScorerContractError at once.
        """
        if self._opened_for != (endpoint, timeout):
            self.close()
        requests = [_request(endpoint, body) for body in bodies]
        scores: list[float] = []
        sent = failures = 0  # requests[:sent] went out; failed attempts of the next score
        pipelining = True
        while len(scores) < len(requests):
            head, reused = len(scores), self._sock is not None
            try:
                if not reused:
                    self._open(endpoint, timeout)
                depth = _PIPELINE_DEPTH if pipelining and self._pipelines else 1
                batch = requests[head:head + depth]
                self._sock.sendall(b"".join(batch))
                self.requests += len(batch)
                # what went out before is resent, but for a retry of a failed score
                self.resends += max(0, min(len(batch), sent - head) - (failures > 0))
                sent = max(sent, head + len(batch))
                for left in reversed(range(len(batch))):  # replies still due after this one
                    if _QUICKACK is not None:
                        self._sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
                    data, keep_alive, self._pipelines = _read_reply(self._reader)
                    scores.append(_reply_score(data))
                    failures = 0
                    # without TCP_QUICKACK every reused reply would wait out the delayed ACK
                    if not keep_alive or _QUICKACK is None or (left and not self._pipelines):
                        self.close()  # the requests left are resent on a fresh connection
                        break
                continue
            except (_Dropped, ConnectionResetError, BrokenPipeError) as exc:
                if reused:
                    self.close()
                    pipelining = False
                    continue  # dropped while kept; the next pass opens a fresh one
                last = ScorerUnavailableError(f"score service unreachable: {exc}")
            except OSError as exc:
                last = ScorerUnavailableError(f"score service unreachable: {exc}")
            except ScorerUnavailableError as exc:
                last = exc
            except BaseException:  # replies sent for may be left unread
                self.close()
                raise
            self.close()
            failures += 1
            if failures > retries:
                raise last
        return scores

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = self._opened_for = None
            self._pipelines = False


def remote_score(
    endpoint: str | Endpoint,
    sample,
    prompt: str,
    timeout: float,
    retries: int = 1,
    *,
    session: RemoteSession | None = None,
) -> float:
    """POST a sample to a score service and return its yes-probability.

    Request body: {"sample": [...], "prompt": ..., "question": ...} as
    JSON; expected response: {"score": x} with x a JSON number in [0, 1].
    The request goes out on ``session``'s kept-alive connection; without a
    session it gets a connection of its own, closed before the call
    returns. Any failed attempt closes its connection, so a retry never
    reads the late answer of an attempt that timed out. Timeouts,
    connection failures, non-200 statuses and malformed bodies (a score
    of true, false or any other non-number too) raise
    ScorerUnavailableError after ``retries`` additional attempts; an
    out-of-range score, an integer too large for a float included, is a
    deterministic contract violation and raises ScorerContractError on the
    first answer, without a retry. Both are surfaced for the optimizer to
    abort the epoch cleanly. A sample with a NaN or infinite entry is a
    NonFiniteError, raised before any connection opens. A ``timeout``
    that is not a finite number of seconds > 0, or ``retries`` that is
    not an int >= 0, is a ValueError.
    """
    endpoint = parse_endpoint(endpoint)
    _check_limits(timeout, retries)
    body = _score_body(sample, prompt)
    own = session is None
    if own:
        session = RemoteSession()
    try:
        return session.scores(endpoint, timeout, [body], retries)[0]
    finally:
        if own:
            session.close()


class RemoteScorer(Scorer):
    """Scorer backed by an HTTP score service; no analytic gradient. The
    endpoint is parsed and the limits checked once, here; the scores of a
    run share one kept-alive connection, opened at the first score and
    released by ``close``."""

    def __init__(
        self, endpoint: str | Endpoint, prompt: str, timeout: float = 1.0, retries: int = 1
    ):
        format_vqa_question(prompt)  # rejects an empty prompt
        _check_limits(timeout, retries)
        self.endpoint = parse_endpoint(endpoint)
        self.prompt = prompt
        self.timeout = timeout
        self.retries = retries
        self.session = RemoteSession()

    def score(self, sample):
        # looked up at call time, so a rebinding of remote_score applies
        return remote_score(
            self.endpoint, sample, self.prompt, self.timeout, self.retries,
            session=self.session,
        )

    def score_batch(self, samples):
        """The scores of the rows of ``samples``, their requests pipelined
        on the scorer's connection by the rules of ``remote_score``, which
        hold per score; every row is checked for NaN and infinity before
        any request."""
        bodies = [_score_body(row, self.prompt) for row in samples]
        return self.session.scores(self.endpoint, self.timeout, bodies, self.retries)

    def close(self):
        self.session.close()
