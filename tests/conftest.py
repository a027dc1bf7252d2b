import ctypes
import glob
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest


class MockScoreService:
    """In-process HTTP score service with fault injection.

    ``behavior`` switches the response mode:
      constant     -> {"score": value}
      out-of-range -> {"score": 1.3}
      slow         -> sleeps ``delay`` seconds before answering
      slow-first   -> the first request sleeps ``delay`` seconds and then
                      answers {"score": 0.0}; later ones answer ``value``
      malformed    -> non-JSON body
      http-error   -> status 500
    Requests received are recorded (payload dicts) for wire-format checks,
    and each one's path, headers and raw body in ``raw``.
    """

    def __init__(self):
        self.behavior = "constant"
        self.value = 0.7
        self.delay = 0.0
        self.requests = []
        self.raw = []

        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                service.raw.append((self.path, dict(self.headers), body))
                try:
                    service.requests.append(json.loads(body))
                except json.JSONDecodeError:
                    service.requests.append(None)
                first = len(service.requests) == 1
                if service.behavior == "slow" or (service.behavior == "slow-first" and first):
                    time.sleep(service.delay)
                try:
                    if service.behavior == "http-error":
                        self.send_response(500)
                        self.end_headers()
                        return
                    if service.behavior == "malformed":
                        payload = b"not json"
                    elif service.behavior == "out-of-range":
                        payload = json.dumps({"score": 1.3}).encode()
                    elif service.behavior == "slow-first" and first:
                        payload = json.dumps({"score": 0.0}).encode()
                    else:
                        payload = json.dumps({"score": service.value}).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client gave up during injected latency

            def handle_one_request(self):
                try:
                    super().handle_one_request()
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/score"

    def reset(self, behavior="constant", value=0.7, delay=0.0):
        self.behavior = behavior
        self.value = value
        self.delay = delay
        self.requests.clear()
        self.raw.clear()

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture(scope="session")
def score_service():
    service = MockScoreService()
    yield service
    service.close()


class CountingPipeline:
    """Stands in for a Pipeline and counts its forward passes
    (``forwards``) and the latents passed through them (``latents``: a
    batch counts its rows)."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.forwards = 0
        self.latents = 0

    def __getattr__(self, name):
        return getattr(self.pipeline, name)

    def forward(self, z_T):
        self.forwards += 1
        self.latents += len(z_T) if np.ndim(z_T) > 1 else 1
        return self.pipeline.forward(z_T)


@pytest.fixture
def counting_pipeline():
    return CountingPipeline


def platform_fingerprint() -> str:
    """The kernels that decide the bits of a pinned output, as
    ``numpy 2.4.6, X86_V4/AVX512_SPR, OpenBLAS SkylakeX``: numpy's
    version, its highest enabled ``X86_V*`` and ``AVX512_*`` features,
    and the core numpy's bundled OpenBLAS picked when it loaded."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    enabled = [name for name, on in __cpu_features__.items() if on]
    simd = [[n for n in enabled if n.startswith(prefix)][-1:] for prefix in ("X86_V", "AVX512_")]
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    return f"numpy {np.__version__}, {'/'.join(sum(simd, [])) or 'baseline'}, OpenBLAS {core}"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "pinned_on(platform): the test compares outputs with literals taken on "
        "``platform``, a platform_fingerprint; a failure reports both platforms"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("pinned_on")
    if marker and report.when == "call" and report.failed:
        pinned, here = marker.args[0], platform_fingerprint()
        verdict = (
            "same platform, so a mismatch with the literals is a regression"
            if here == pinned
            else "other platform: its kernels may give other bits from correct code"
        )
        report.sections.append(("pinned platform", f"literals pinned on: {pinned}\n"
                                f"this host:         {here}\n{verdict}"))
    return report
